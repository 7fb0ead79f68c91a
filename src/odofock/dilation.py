"""Pure row contractions, their Poisson-kernel dilation, and odometer lifts.

A row contraction is an n-tuple T on a finite-dimensional space with
sum T_i T_i* <= I. Purity is decided through the iterated completely
positive map X -> sum T_i X T_i*: its trace at step m is the total tail mass
sum over length-m words of ||T_mu* h||^2 over an orthonormal basis. The
dilation embeds the space into the defect-valued Fock truncation by
h -> sum_mu e_mu (x) D T_mu* h with D the positive square root of the defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import resolve_tol
from .errors import DilationInexactError, WindowError
from .fock import TruncatedFockSpace, apply_annihilation, apply_creation
from .linalg import op_norm, orthonormal_columns
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
        top = float(np.linalg.eigvalsh(self.row_gram())[-1])
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

    def row_norm(self) -> float:
        """Norm of the row operator [T_1 ... T_n]."""
        return op_norm(np.hstack(self.tuples))

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


def defect_root(t: RowContraction, tol: float | None = None) -> np.ndarray:
    """PSD square root of I - sum T_i T_i* via Hermitian eigendecomposition."""
    tol = resolve_tol(tol)
    gap = np.eye(t.dim, dtype=complex) - t.row_gram()
    vals, vecs = np.linalg.eigh(gap)
    if vals[0] < -ROW_CONTRACTION_SLACK:
        raise ValueError(f"defect operator has negative eigenvalue {vals[0]}")
    vals = np.clip(vals, 0.0, None)
    return vecs @ np.diag(np.sqrt(vals)) @ vecs.conj().T


def _word_adjoint_products(t: RowContraction, max_level: int) -> list[list[np.ndarray]]:
    """T_mu* for every word, grouped by level, in canonical word order."""
    adjoints = [t_i.conj().T for t_i in t.tuples]
    levels = [[np.eye(t.dim, dtype=complex)]]
    for _ in range(max_level):
        # word i.mu has adjoint T_mu* T_i*; canonical order iterates i outermost
        levels.append([p @ ti_adj for ti_adj in adjoints for p in levels[-1]])
    return levels


def poisson_kernel(
    t: RowContraction, max_level: int, tol: float | None = None
) -> DilationData:
    """Truncated Poisson kernel, with the defect space in an orthonormal basis.

    Raises DilationInexactError when the purity tail at level max_level + 1
    exceeds the tolerance: the truncated kernel would then visibly fail to be
    an isometry.
    """
    tol = resolve_tol(tol)
    adjs = _word_adjoint_products(t, max_level + 1)
    tail = sum(p.conj().T @ p for p in adjs[max_level + 1])
    purity_residual = float(np.max(np.diag(tail).real)) if t.dim else 0.0
    if purity_residual > tol:
        raise DilationInexactError(purity_residual, max_level)

    d_root = defect_root(t, tol)
    basis = orthonormal_columns(d_root, tol)
    defect_dim = int(basis.shape[1])
    if defect_dim == 0:
        raise ValueError("zero defect space: the row contraction is a coisometry")

    space = TruncatedFockSpace(t.n, max_level, defect_dim)
    reduce = basis.conj().T @ d_root
    # the block of rows of each word mu is D T_mu*, in canonical word order
    pi = np.vstack([reduce @ adj for level in adjs[: max_level + 1] for adj in level])
    gram = pi.conj().T @ pi
    isometry_defect = float(np.abs(gram - np.eye(t.dim)).max())
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
    residuals = []
    for i in range(t.n - 1):
        residuals.append(op_norm(w @ t.tuples[i] - t.tuples[i + 1]))
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
    map exact.
    """
    tol = resolve_tol(tol)
    check = verify_pair(pair, tol)
    if not check.purity.pure:
        raise DilationInexactError(
            check.purity.residuals[-1] if check.purity.residuals else float("inf"),
            max_level,
        )
    data = poisson_kernel(pair.t, max_level, tol)
    space = data.space
    d = data.defect_dim
    pi = data.poisson
    lift_matrix = pi @ (pair.w @ pi.conj().T[:, :d])
    symbol = symbol_from_dense(space, lift_matrix, prune=1e-13)
    wmap = build_odometer(symbol)
    window = space.max_level - symbol.support_degree
    rows = space.dim_upto(window) if window >= 0 else 0
    diff = pi @ pair.w.conj().T - wmap.operator.csc.H @ pi
    residual = op_norm(diff[:rows, :])
    return LiftResult(symbol, wmap, data, residual, window)
