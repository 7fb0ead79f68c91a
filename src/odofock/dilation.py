"""Pure row contractions, their Poisson-kernel dilation, and odometer lifts.

A row contraction is an n-tuple T on an h-dimensional space with
sum T_i T_i* <= I. Purity is decided through the completely positive map
Phi(X) = sum T_i X T_i*, whose powers Phi^m(I) decrease to a limit Q with
Phi(Q) = Q; T is pure when Q = 0. The kernels E_m = ker(I - Phi^m(I))
decrease, and E_(m+1) = E_1 meet the preimages of E_m under every T_i*, so
once two of them agree the chain is constant: from m = h + 1 on at the
latest. The top eigenspace of a nonzero Q is T*-invariant and lies in E_1,
so Q != 0 forces ||Q|| = 1. Hence T is pure if and only if
||Phi^(h+1)(I)|| < 1, and q = ||Phi^m(I)|| < 1 bounds the tail by
||Phi^L(I)|| <= q^floor(L/m). The dilation embeds the space into the
defect-valued Fock truncation by h -> sum_mu e_mu (x) D T_mu* h with D the
positive square root of the defect.

One Hermitian eigendecomposition of sum T_i T_i* per row contraction gives
the contraction check, D and the defect basis. Pi stacks the blocks D T_mu*
in canonical word order, level by level: level 0 is D in the defect basis,
and level L stacks level L-1 times T_i* for i = 1..n, first letter
outermost, as T_(i mu)* = T_mu* T_i*. The purity tail at level M+1 is the
largest diagonal entry of Phi^(M+1)(I).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import Check, Verdict, resolve_tol
from .errors import DilationInexactError, WindowError
from .fock import TruncatedFockSpace, apply_creation, creation_basis_map
from .linalg import op_norm
from .odometer import (
    OdometerMap,
    Symbol,
    build_odometer,
    symbol_from_dense,
)

ROW_CONTRACTION_SLACK = 1e-12


@dataclass(frozen=True)
class RowContraction:
    """An n-tuple of h x h matrices with sum T_i T_i* <= I (within 1e-12)."""

    tuples: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.tuples:
            raise ValueError("a row contraction needs at least one component")
        h = self.tuples[0].shape[0]
        for t in self.tuples:
            if t.shape != (h, h):
                raise ValueError(f"all components must be {h} x {h}, got {t.shape}")
            if not np.all(np.isfinite(t)):
                raise ValueError("row contraction component has non-finite entries")
        top = float(self.gram_eigh[0][-1])
        if top > 1.0 + ROW_CONTRACTION_SLACK:
            raise ValueError(f"not a row contraction: largest eigenvalue {top} of sum T_i T_i*")

    @property
    def n(self) -> int:
        return len(self.tuples)

    @property
    def dim(self) -> int:
        return self.tuples[0].shape[0]

    def row_gram(self) -> np.ndarray:
        """sum_i T_i T_i*."""
        return sum(t @ t.conj().T for t in self.tuples)

    @cached_property
    def gram_eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenpairs of sum_i T_i T_i*, the one decomposition of the tuple."""
        return np.linalg.eigh(self.row_gram())

    def cp_map(self, x: np.ndarray) -> np.ndarray:
        """The completely positive map X -> sum_i T_i X T_i*."""
        return sum(t @ x @ t.conj().T for t in self.tuples)


def row_contraction(matrices) -> RowContraction:
    return RowContraction(tuple(np.asarray(t, dtype=complex) for t in matrices))


@dataclass(frozen=True)
class ContractivePair:
    """A pair (W, T) intended to satisfy W T_i = T_{i+1} (i < n), W T_n = T_1 W."""

    t: RowContraction
    w: np.ndarray

    def __post_init__(self):
        h = self.t.dim
        if self.w.shape != (h, h):
            raise ValueError(f"W must be {h} x {h}, got {self.w.shape}")


@dataclass(frozen=True)
class PurityResult(Verdict):
    """Purity verdict with the traces r_m = trace(Phi^m(I)) of each step m.

    `bound` is q >= ||Phi^m(I)|| at the last step m; `level_needed` is the
    smallest Poisson level M with q^floor((M+1)/m) <= tol, None if not pure.
    """

    residuals: tuple[float, ...]
    bound: float
    level_needed: int | None

    pure = Verdict.passed


def purity_test(t: RowContraction, tol: float | None = None) -> PurityResult:
    """Decide purity at the horizon h + 1, where ||Phi^(h+1)(I)|| < 1 iff T is pure.

    Phi is iterated from I for at most h + 1 steps. The first trace r_m
    <= 1 - tol certifies purity with q = r_m, since the top eigenvalue is at
    most the trace; otherwise q = ||Phi^(h+1)(I)||, its top eigenvalue, and
    T is pure iff q <= 1 - tol.
    """
    tol = resolve_tol(tol)
    x = np.eye(t.dim, dtype=complex)
    residuals: list[float] = []
    for _ in range(t.dim + 1):
        x = t.cp_map(x)
        residuals.append(float(np.trace(x).real))
        if residuals[-1] <= 1.0 - tol:
            bound = residuals[-1]
            break
    else:
        bound = op_norm(x)
    check = Check("purity", bound, 1.0 - tol)
    if not check.passed:
        return PurityResult((check,), tuple(residuals), bound, None)
    # the least power k with q^k <= tol; log1p keeps log q accurate near q = 1
    k = 1 if bound <= tol else math.ceil(math.log(tol) / math.log1p(bound - 1.0))
    return PurityResult((check,), tuple(residuals), bound, k * len(residuals) - 1)


@dataclass(frozen=True)
class DilationData:
    """Poisson kernel of a pure row contraction at truncation level M.

    `poisson` maps the ambient space isometrically (up to the purity tail)
    into the defect-valued Fock truncation; `purity_residual` is the largest
    tail mass sum_{|mu| = M+1} ||T_mu* h||^2 over basis vectors, and
    `isometry_defect` the measured deviation of the kernel from an isometry.
    """

    space: TruncatedFockSpace
    defect_dim: int
    defect_basis: np.ndarray
    poisson: np.ndarray
    purity_residual: float
    isometry_defect: float


def _defect_eigh(t: RowContraction) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of the defect root D, with their eigenvectors."""
    vals, vecs = t.gram_eigh
    return np.sqrt(np.clip(1.0 - vals, 0.0, None)), vecs


def defect_root(t: RowContraction) -> np.ndarray:
    """PSD square root D of I - sum T_i T_i*."""
    gaps, vecs = _defect_eigh(t)
    return (vecs * gaps) @ vecs.conj().T


def poisson_kernel(
    t: RowContraction, max_level: int, tol: float | None = None
) -> DilationData:
    """Truncated Poisson kernel, with the defect space in an orthonormal basis.

    Raises ValueError for a negative level, DimensionLimitError before any
    iteration when the kernel's space exceeds the dense limit, and
    DilationInexactError when the purity tail at level max_level + 1
    exceeds the tolerance: the truncated kernel would then visibly fail to
    be an isometry.
    """
    tol = resolve_tol(tol)
    gaps, vecs = _defect_eigh(t)
    keep = gaps > tol
    basis = vecs[:, keep]
    defect_dim = int(basis.shape[1])
    # refuses a negative level; a zero defect fails the tail check or the test after it
    space = TruncatedFockSpace(t.n, max_level, max(defect_dim, 1))
    space.require_dense()
    tail = np.eye(t.dim, dtype=complex)
    for _ in range(max_level + 1):
        tail = t.cp_map(tail)
    purity_residual = float(np.max(np.diag(tail).real))
    check = Check("purity_tail", purity_residual, tol)
    if not check.passed:
        raise DilationInexactError(f"purity tail at level {max_level + 1} exceeds tolerance; "
                                   "raise the level or the tolerance", (check,))
    if defect_dim == 0:
        raise ValueError("zero defect space: the row contraction is a coisometry")

    # D in the defect basis; the rows of word i.mu are those of mu times T_i*, each
    # level written in place below the one before it
    pi = np.empty((space.dim, t.dim), dtype=complex)
    pi[:defect_dim] = gaps[keep][:, None] * basis.conj().T
    adjoints = [t_i.conj().T for t_i in t.tuples]
    for m in range(max_level):
        prev, below = pi[space.level_slice(m)], pi[space.level_slice(m + 1)]
        for i, adj in enumerate(adjoints):
            np.matmul(prev, adj, out=below[i * len(prev) : (i + 1) * len(prev)])
    gram = pi.conj().T @ pi
    isometry_defect = float(np.abs(gram - np.eye(t.dim)).max())
    return DilationData(space, defect_dim, basis, pi, purity_residual, isometry_defect)


def intertwining_residuals(data: DilationData, t: RowContraction) -> tuple[float, ...]:
    """Residuals of Pi T_i* = (S_i x I)* Pi on rows below the top level, where
    row r of (S_i x I)* Pi is the row of Pi at the image of r under S_i x I."""
    space = data.space
    space.require_dense()
    rows = np.arange(space.dim_upto(space.window(1)))
    low = data.poisson[: rows.size]
    return tuple(op_norm(low @ t_i.conj().T - data.poisson[creation_basis_map(space, i, rows)])
                 for i, t_i in enumerate(t.tuples, 1))


def dilation_checks(data: DilationData, t: RowContraction,
                    tol: float | None = None) -> tuple[Check, ...]:
    """The kernel's purity tail and isometry defect, then `intertwining_residuals`
    on the rows below the top level (none at level 0)."""
    tol, window = resolve_tol(tol), data.space.window(1)
    return (Check("purity_tail", data.purity_residual, tol),
            Check("kernel_isometry_defect", data.isometry_defect, tol),
            *(Check(f"intertwining_{i}", res, tol, window)
              for i, res in enumerate(intertwining_residuals(data, t), 1)))


@dataclass(frozen=True)
class PairCheck(Verdict):
    relation_residuals: tuple[float, ...]
    purity: PurityResult


def verify_pair(pair: ContractivePair, tol: float | None = None) -> PairCheck:
    """Residuals of the n defining relations plus the purity verdict."""
    tol = resolve_tol(tol)
    t, w = pair.t, pair.w
    residuals = [op_norm(w @ t.tuples[i] - t.tuples[i + 1]) for i in range(t.n - 1)]
    residuals.append(op_norm(w @ t.tuples[-1] - t.tuples[0] @ w))
    purity = purity_test(t, tol=tol)
    checks = (Check("pair_relations", max(residuals), tol),
              replace(purity.checks[0], name="pair_purity"))
    return PairCheck(checks, tuple(residuals), purity)


def compress_pair(symbol: Symbol, k: int) -> ContractivePair:
    """Compression of (W_L, S) to levels <= k, a canonical contractive pair.

    Levels <= k are co-invariant under the creation tuple and under the
    odometer map, so the compression satisfies the defining relations
    exactly; nilpotency across levels makes it automatically pure. Requires
    levels <= k to sit inside the exactness window of the odometer map.
    """
    space = symbol.space
    if k < 0:
        raise ValueError("compression level must be >= 0")
    if k > space.window(symbol.support_degree):
        raise WindowError(
            f"levels <= {k} leave the exactness window "
            f"(support degree {symbol.support_degree}, top level {space.max_level})"
        )
    dim_k = space.dim_upto(k)
    w = build_odometer(symbol).operator.csc[:dim_k, :dim_k].toarray()
    # S_i maps levels < k into levels <= k and level k out of the block, as
    # the creation operators of the level-k truncation do
    levels_k = TruncatedFockSpace(space.n, k, space.coeff_dim)
    eye = np.eye(dim_k, dtype=complex)
    tuples = tuple(apply_creation(levels_k, i, eye) for i in range(1, space.n + 1))
    return ContractivePair(RowContraction(tuples), w)


@dataclass(frozen=True)
class LiftResult(Verdict):
    """Odometer lift of a contractive pair on its dilation space."""

    symbol: Symbol
    wmap: OdometerMap
    dilation: DilationData
    intertwining_residual: float
    window: int


def odometer_lift(
    pair: ContractivePair, max_level: int, tol: float | None = None
) -> LiftResult:
    """Lift a contractive pair to an odometer map on the dilation space.

    The lift symbol is the vacuum compression of Pi W Pi*; the reported
    residual measures Pi W* - W_lift* Pi on rows whose level keeps the lift
    map exact. A pair whose purity tail at level max_level + 1 exceeds the
    tolerance raises DilationInexactError from the Poisson kernel.
    """
    tol = resolve_tol(tol)
    data = poisson_kernel(pair.t, max_level, tol)
    space = data.space
    d = data.defect_dim
    pi = data.poisson
    lift_matrix = pi @ (pair.w @ pi[:d].conj().T)
    symbol = symbol_from_dense(space, lift_matrix, prune=1e-13)
    wmap = build_odometer(symbol)
    # a symbol's support degree is at most its top level, so the window is never empty
    window = space.window(symbol.support_degree)
    rows = space.dim_upto(window)
    # W_lift* Pi first: its dense product's temporaries are the peak, so Pi W* is
    # not yet held, and the difference is taken in its place
    diff = wmap.operator.csc.H[:rows, :] @ pi
    residual = op_norm(np.subtract(pi[:rows] @ pair.w.conj().T, diff, out=diff))
    check = Check("lift_intertwining", residual, tol, window)
    return LiftResult((check,), symbol, wmap, data, residual, window)
