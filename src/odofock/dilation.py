"""Pure row contractions, their Poisson-kernel dilation, and odometer lifts.

A row contraction is an n-tuple T on a finite-dimensional space with
sum T_i T_i* <= I. Purity is decided through the iterated completely
positive map X -> sum T_i X T_i*: its trace at step m is the total tail mass
sum over length-m words of ||T_mu* h||^2 over an orthonormal basis. The
dilation embeds the space into the defect-valued Fock truncation by
h -> sum_mu e_mu (x) D T_mu* h with D the positive square root of the defect.

One Hermitian eigendecomposition of sum T_i T_i* per row contraction gives
the contraction check, the row norm, D and the defect basis. Pi stacks the
blocks D T_mu* in canonical word order, level by level: level 0 is D in the
defect basis, and level L stacks level L-1 times T_i* for i = 1..n, first
letter outermost, as T_(i mu)* = T_mu* T_i*. The purity tail at level M+1
is the largest diagonal entry of Phi^(M+1)(I), with Phi iterated as in
`purity_test`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import resolve_tol
from .errors import DilationInexactError, WindowError
from .fock import TruncatedFockSpace, apply_annihilation, apply_creation
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

    def row_norm(self) -> float:
        """Norm of the row operator [T_1 ... T_n], the root of the top Gram eigenvalue."""
        return float(np.sqrt(max(self.gram_eigh[0][-1], 0.0)))

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
class PurityResult:
    pure: bool
    residuals: tuple[float, ...]
    strict_row: bool


def purity_test(t: RowContraction, m_max: int = 64, tol: float | None = None) -> PurityResult:
    """Decide purity through the trace of the iterated CP map.

    r_m = trace(Phi^m(I)) sums ||T_mu* h||^2 over all length-m words and an
    orthonormal basis h; the contraction is pure when r_m -> 0. A strict row
    contraction forces geometric decay, so it passes immediately, but only
    with a margin: a coisometry's row norm may compute to just below 1, so
    the shortcut needs row norm < 1 - tol. Otherwise the iteration stops at
    the first r_m below tol or at m_max.
    """
    tol = resolve_tol(tol)
    if t.row_norm() < 1.0 - tol:
        return PurityResult(True, (), True)
    x = np.eye(t.dim, dtype=complex)
    residuals: list[float] = []
    for _ in range(m_max):
        x = t.cp_map(x)
        r = float(np.trace(x).real)
        residuals.append(r)
        if r < tol:
            return PurityResult(True, tuple(residuals), False)
    return PurityResult(False, tuple(residuals), False)


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
    defect_root: np.ndarray
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

    Raises DilationInexactError when the purity tail at level max_level + 1
    exceeds the tolerance: the truncated kernel would then visibly fail to be
    an isometry.
    """
    tol = resolve_tol(tol)
    tail = np.eye(t.dim, dtype=complex)
    for _ in range(max_level + 1):
        tail = t.cp_map(tail)
    purity_residual = float(np.max(np.diag(tail).real))
    if purity_residual > tol:
        raise DilationInexactError(purity_residual, max_level)

    gaps, vecs = _defect_eigh(t)
    keep = gaps > tol
    basis = vecs[:, keep]
    defect_dim = int(basis.shape[1])
    if defect_dim == 0:
        raise ValueError("zero defect space: the row contraction is a coisometry")

    space = TruncatedFockSpace(t.n, max_level, defect_dim)
    # D in the defect basis; the rows of word i.mu are those of mu times T_i*
    levels = [gaps[keep][:, None] * basis.conj().T]
    adjoints = [t_i.conj().T for t_i in t.tuples]
    for _ in range(max_level):
        levels.append(np.vstack([levels[-1] @ adj for adj in adjoints]))
    pi = np.vstack(levels)
    gram = pi.conj().T @ pi
    isometry_defect = float(np.abs(gram - np.eye(t.dim)).max())
    d_root = defect_root(t)
    return DilationData(space, defect_dim, d_root, basis, pi, purity_residual, isometry_defect)


def intertwining_residuals(data: DilationData, t: RowContraction) -> tuple[float, ...]:
    """Residuals of Pi T_i* = (S_i x I)* Pi on rows below the top level."""
    space = data.space
    space.require_dense()
    rows = space.dim_upto(space.max_level - 1) if space.max_level >= 1 else 0
    out = []
    for i in range(1, t.n + 1):
        diff = data.poisson @ t.tuples[i - 1].conj().T - apply_annihilation(space, i, data.poisson)
        out.append(op_norm(diff[:rows, :]))
    return tuple(out)


@dataclass(frozen=True)
class PairCheck:
    passed: bool
    relation_residuals: tuple[float, ...]
    purity: PurityResult


def verify_pair(pair: ContractivePair, tol: float | None = None) -> PairCheck:
    """Residuals of the n defining relations plus the purity verdict."""
    tol = resolve_tol(tol)
    t, w = pair.t, pair.w
    residuals = [op_norm(w @ t.tuples[i] - t.tuples[i + 1]) for i in range(t.n - 1)]
    residuals.append(op_norm(w @ t.tuples[-1] - t.tuples[0] @ w))
    purity = purity_test(t, tol=tol)
    passed = purity.pure and all(r <= tol for r in residuals)
    return PairCheck(passed, tuple(residuals), purity)


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
    if k > space.max_level - symbol.support_degree:
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
class LiftResult:
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
    lift_matrix = pi @ (pair.w @ pi.conj().T[:, :d])
    symbol = symbol_from_dense(space, lift_matrix, prune=1e-13)
    wmap = build_odometer(symbol)
    # a symbol's support degree is at most its top level, so the window is never empty
    window = space.max_level - symbol.support_degree
    diff = pi @ pair.w.conj().T - wmap.operator.csc.H @ pi
    residual = op_norm(diff[: space.dim_upto(window), :])
    return LiftResult(symbol, wmap, data, residual, window)
