"""Isometric / Nica-covariant / unitary classification of odometer symbols.

The decisions rest on coefficient-level criteria (isometry of L, support on
the all-ones diagonal, vanishing shifted correlations, constancy, level-0
surjectivity), so they scale to truncations far beyond the dense-matrix
limit. The random window probes apply the selected columns of W by sparse
matvecs at any size. The cross-checks on the built map W run only where
`build_odometer` accepts the space and are skipped with a NaN residual
otherwise: the Nica relation is a sparse difference of creation index maps,
and the level blocks come from one pass over the stored entries of W.

`classify` is a single pass: it computes the structural isometry data of
the symbol once and decides isometry from it. Only an isometric symbol goes
on, with W built once and shared by the Nica and unitary verdicts.
`check_nica` and `check_unitary` run the same steps for one verdict each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_DENSE_DIM, resolve_tol
from .csc import CSC, identity
from .errors import NotIsometricError
from .fock import TruncatedFockSpace, apply_creation, creation_basis_map
from .linalg import _rank_split, op_norm, orthonormal_columns
from .odometer import (
    OdometerMap,
    StructuralIsometry,
    Symbol,
    _closed_form_adjoint,
    _odometer_columns,
    build_odometer,
    frobenius_mass,
    structural_isometry,
)


@dataclass(frozen=True)
class IsometryCheck:
    passed: bool
    isometry_residual: float
    e1_support_residual: float
    gram_residual: float
    probe_residual: float
    window: int


@dataclass(frozen=True)
class NicaCheck:
    passed: bool
    nica_residual: float
    relation_residual: float
    window: int


@dataclass(frozen=True)
class UnitaryCheck:
    passed: bool
    is_constant_symbol: bool
    surjectivity_defect: int
    block_unitary_residual: float
    level_block_residual: float


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregated verdicts; unitary and Nica imply isometric by construction."""

    is_isometric: bool
    is_nica: bool
    is_unitary: bool
    is_constant_symbol: bool
    residuals: dict[str, float]
    window: int
    columns: tuple[int, ...] | None = None


def _column_indices(symbol: Symbol, columns) -> np.ndarray:
    d = symbol.space.coeff_dim
    if columns is None:
        return np.arange(d)
    cols = np.asarray(sorted(set(int(c) for c in columns)), dtype=np.int64)
    if cols.size == 0 or cols[0] < 0 or cols[-1] >= d:
        raise ValueError(f"column selection {columns} invalid for coeff_dim {d}")
    return cols


def compute_E_L(symbol: Symbol, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of the truncated defect space of the symbol, as D x k columns.

    This is the span of the all-ones diagonal, minus the span of the shifted
    symbol columns ones^p L h_q for p = 1..M - support degree (the shifts
    that stay exact under the truncation): one SVD in the (M+1) d all-ones
    coordinates, of the all-ones rows of the shifted columns.
    """
    tol = resolve_tol(tol)
    space = symbol.space
    space.require_dense()
    d, offsets = space.coeff_dim, space.level_offsets()

    # W on the all-n words of lengths p = 1..pmax holds exactly these shifts
    pmax = space.max_level - symbol.support_degree
    basis_cols = space.basis_indices(offsets[2 : pmax + 2] - 1)
    rows, cols, vals = _odometer_columns(symbol, basis_cols)
    # the all-ones word of level m is the word offsets[m]; (m, s) is coordinate m*d + s
    words, coords = np.divmod(rows, d)
    levels = space.word_levels(words)
    on = offsets[levels] == words
    shifted = np.zeros(((offsets.size - 1) * d, basis_cols.size), dtype=complex)
    np.add.at(shifted, (levels[on] * d + coords[on], cols[on]), vals[on])
    kernel = _rank_split(shifted.conj().T, tol)[1]
    out = np.zeros((space.dim, kernel.shape[1]), dtype=complex)
    out[space.basis_indices(offsets[:-1])] = kernel
    return out


def _probe_window_vectors(
    symbol: Symbol, cols: np.ndarray, probes: int, seed: int
) -> float:
    """Max norm deviation of the odometer action on random window vectors.

    Builds only the selected columns of W, so it works at truncations far
    beyond the dense limit; very large windows fall back to sparse random
    supports.
    """
    if probes <= 0:
        return 0.0
    space = symbol.space
    d = space.coeff_dim
    window_words = space.level_offset(max(space.max_level - symbol.support_degree, 0) + 1)
    rng = np.random.default_rng(seed)
    colset = np.asarray(cols, dtype=np.int64)

    def deviation(basis_cols: np.ndarray, samples: int) -> float:
        rows, js, vals = _odometer_columns(symbol, basis_cols)
        # renumber the rows in order so no index array spans the whole space
        _, rows = np.unique(rows, return_inverse=True)
        ws = CSC.from_triplets(rows, js, vals, (rows.max(initial=0) + 1, basis_cols.size))
        worst = 0.0
        for _ in range(samples):
            v = rng.standard_normal(basis_cols.size) + 1j * rng.standard_normal(basis_cols.size)
            norm_in = float(np.linalg.norm(v))
            norm_out = float(np.linalg.norm(ws @ v))
            worst = max(worst, abs(norm_out - norm_in) / norm_in)
        return worst

    if window_words * colset.size <= 4096:
        word_part = np.repeat(np.arange(window_words), colset.size) * d
        basis_cols = word_part + np.tile(colset, window_words)
        return deviation(basis_cols, probes)
    worst = 0.0
    for _ in range(probes):
        words = rng.integers(window_words, size=32)
        coords = colset[rng.integers(colset.size, size=32)]
        basis_cols = np.unique(words * d + coords)
        worst = max(worst, deviation(basis_cols, 1))
    return worst


def check_isometric(
    symbol: Symbol,
    tol: float | None = None,
    columns=None,
    probes: int = 50,
    seed: int = 0,
) -> IsometryCheck:
    """Isometry test: L*L = I, all-ones support, vanishing shifted correlations.

    `columns` restricts every test to a subset of coefficient columns (used
    for symbols whose truncation pads a boundary column). Random window
    vectors cross-check norm preservation through the odometer columns.
    """
    cols = _column_indices(symbol, columns)
    return _isometry_check(symbol, structural_isometry(symbol), resolve_tol(tol), cols, probes, seed)


def _isometry_check(
    symbol: Symbol,
    structure: StructuralIsometry,
    tol: float,
    cols: np.ndarray,
    probes: int = 50,
    seed: int = 0,
) -> IsometryCheck:
    iso_res, off_res, gram_res = structure.residuals(cols)
    probe_res = _probe_window_vectors(symbol, cols, probes, seed)
    passed = iso_res <= tol and off_res <= tol and gram_res <= tol and probe_res <= tol
    return IsometryCheck(passed, iso_res, off_res, gram_res, probe_res, structure.window)


def off_vacuum_residual(symbol: Symbol, columns=None) -> float:
    """Frobenius mass of the symbol above level 0 (zero iff the symbol is constant)."""
    mat = symbol.csc
    above = np.isin(mat.entry_cols, _column_indices(symbol, columns))
    above &= mat.indices >= symbol.space.coeff_dim
    return frobenius_mass(mat.data[above])


def level0_block(symbol: Symbol) -> np.ndarray:
    d = symbol.space.coeff_dim
    return symbol.csc[:d, :].toarray()


def surjectivity_defect(symbol: Symbol, tol: float | None = None) -> int:
    """Corank of the level-0 block, i.e. the failure of L to cover the vacuum slice."""
    return _level0(symbol, resolve_tol(tol))[1]


def _level0(symbol: Symbol, tol: float) -> tuple[np.ndarray, int]:
    """The level-0 block and its corank, from one SVD."""
    block = level0_block(symbol)
    return block, block.shape[0] - orthonormal_columns(block, tol).shape[1]


def _dense_odometer(symbol: Symbol) -> OdometerMap | None:
    return build_odometer(symbol) if symbol.space.dim <= MAX_DENSE_DIM else None


def _nica_relation_residual(space: TruncatedFockSpace, adjoint: CSC, cols: np.ndarray) -> float:
    """Residual of W*(S_1 x I) = (S_n x I)W* on columns of level <= M-1.

    W* S_1 gathers columns of the adjoint and S_n W* relabels its rows; the
    residual is the norm of their sparse difference.
    """
    d = space.coeff_dim
    rows = np.arange(space.dim_upto(space.max_level - 1))
    keep = rows[np.isin(rows % d, cols)]
    adjoint_s1 = adjoint[:, creation_basis_map(space, 1, keep)]
    return op_norm(adjoint_s1 - apply_creation(space, space.n, adjoint[:, keep]))


def _nica(
    symbol: Symbol,
    structure: StructuralIsometry,
    tol: float,
    cols: np.ndarray,
    wmap: OdometerMap | None,
    nica_res: float,
) -> NicaCheck:
    relation_res = float("nan")
    if wmap is not None:
        try:
            adjoint = _closed_form_adjoint(symbol.space, structure, tol).csc
        except NotIsometricError:
            # Interior-only isometries (padded boundary column): fall back to
            # the conjugate transpose, exact for constant symbols.
            adjoint = wmap.operator.csc.H
        relation_res = _nica_relation_residual(symbol.space, adjoint, cols)
    passed = nica_res <= tol and (math.isnan(relation_res) or relation_res <= tol)
    return NicaCheck(passed, nica_res, relation_res, symbol.space.max_level - 1)


def check_nica(symbol: Symbol, tol: float | None = None, columns=None) -> NicaCheck:
    """Nica covariance of an isometric symbol: the range sits in the vacuum slice.

    The characterization drives the verdict; when dense operators are
    feasible the defining adjoint relation is validated independently
    (NaN residual otherwise).
    """
    tol = resolve_tol(tol)
    cols = _column_indices(symbol, columns)
    structure = structural_isometry(symbol)
    iso = _isometry_check(symbol, structure, tol, cols)
    if not iso.passed:
        raise NotIsometricError(
            "Nica covariance is defined for isometric symbols only "
            f"(gram {iso.isometry_residual:.3e}, correlations {iso.gram_residual:.3e})"
        )
    nica_res = off_vacuum_residual(symbol, cols)
    return _nica(symbol, structure, tol, cols, _dense_odometer(symbol), nica_res)


def _level_block_residual(space: TruncatedFockSpace, w: CSC) -> float:
    """max(||B^H B - I||, sqrt of the largest off-level mass of one level's columns).

    One pass over the stored entries of W: the word levels of row and column
    split them into the level-diagonal part B and the off-level entries. B is
    block diagonal, so the exact sparse norm of B^H B - I is the largest norm
    of a level block's defect.
    """
    d = space.coeff_dim
    cols = w.entry_cols
    col_level = space.word_levels(cols // d)
    on = space.word_levels(w.indices // d) == col_level
    b = CSC.from_triplets(w.indices[on], cols[on], w.data[on], w.shape)
    defect = op_norm(b.H @ b - identity(w.shape[1]))
    off = w.data[~on]
    off_mass = np.bincount(col_level[~on], weights=off.real**2 + off.imag**2)
    return max(defect, float(np.sqrt(off_mass.max(initial=0.0))))


def _unitary(symbol: Symbol, tol: float, wmap: OdometerMap | None, vacuum=None) -> UnitaryCheck:
    """`vacuum` is (constancy, level-0 block, its corank), computed here if not given."""
    space = symbol.space
    if vacuum is None:
        vacuum = (off_vacuum_residual(symbol) <= tol, *_level0(symbol, tol))
    is_constant, block, defect = vacuum
    eye = np.eye(space.coeff_dim)
    block_res = max(op_norm(block.conj().T @ block - eye), op_norm(block @ block.conj().T - eye))
    passed = is_constant and defect == 0 and block_res <= tol

    level_res = float("nan")
    if passed:
        wmap = wmap if wmap is not None else _dense_odometer(symbol)
        if wmap is not None:
            level_res = _level_block_residual(space, wmap.operator.csc)
            passed = level_res <= tol
    return UnitaryCheck(passed, is_constant, defect, block_res, level_res)


def check_unitary(symbol: Symbol, tol: float | None = None, columns=None) -> UnitaryCheck:
    """Unitarity of the odometer map: constant symbol with unitary level-0 block.

    Cross-checks, when dense operators are feasible, that every level block
    of the truncated map is unitary with no mass off its level.
    """
    tol = resolve_tol(tol)
    if not check_isometric(symbol, tol, columns=columns).passed:
        raise NotIsometricError("unitarity is decided for isometric symbols only")
    return _unitary(symbol, tol, None)


def classify(symbol: Symbol, tol: float | None = None, columns=None) -> ClassificationReport:
    """Full report; the implication structure (unitary/Nica need isometric) is built in.

    Constancy is judged on every column, whatever `columns` selects.
    """
    return _classify(symbol, resolve_tol(tol), columns)[0]


def _classify(
    symbol: Symbol, tol: float, columns=None
) -> tuple[ClassificationReport, OdometerMap | None]:
    """`classify` together with the W it built for its cross-checks (None if none)."""
    cols = _column_indices(symbol, columns)
    structure = structural_isometry(symbol)
    iso = _isometry_check(symbol, structure, tol, cols)
    nica_res = off_vacuum_residual(symbol, cols)
    is_constant = off_vacuum_residual(symbol) <= tol
    block, defect = _level0(symbol, tol)
    residuals = {
        "gram_residual": iso.gram_residual,
        "e1_support_residual": iso.e1_support_residual,
        "isometry_residual": iso.isometry_residual,
        "probe_residual": iso.probe_residual,
        "nica_residual": nica_res,
        "surjectivity_defect": float(defect),
    }
    selected = None if columns is None else tuple(int(c) for c in cols)
    if not iso.passed:
        return ClassificationReport(
            False, False, False, is_constant, residuals, iso.window, selected
        ), None
    wmap = _dense_odometer(symbol)
    nica = _nica(symbol, structure, tol, cols, wmap, nica_res)
    uni = _unitary(symbol, tol, wmap, (is_constant, block, defect))
    residuals["relation_residual"] = nica.relation_residual
    residuals["block_unitary_residual"] = uni.block_unitary_residual
    residuals["level_block_residual"] = uni.level_block_residual
    return ClassificationReport(
        True, nica.passed, uni.passed, uni.is_constant_symbol, residuals, iso.window, selected
    ), wmap
