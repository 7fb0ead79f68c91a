"""Isometric / Nica-covariant / unitary classification of odometer symbols.

The decisions rest on coefficient-level criteria (isometry of L, support on
the all-ones diagonal, vanishing shifted correlations, constancy, level-0
surjectivity), so they scale to truncations far beyond the dense-matrix
limit. Each verdict is cross-checked, at any size, on a window of W: at most
`WINDOW_COLUMNS` of its columns, on the lowest words of the exactness window
and the vacuum's at least, so no cross-check is empty or skipped. The
isometry check reads their Gram defect, the Nica check the relation
S_1* W = W S_n* on them, and the unitary check their level blocks.

Each verdict is a `WindowVerdict`, whose `checks` hold its residuals by name.
`classify` is a single pass: it computes the structural isometry data of
the symbol once and decides isometry from it. Only an isometric symbol goes
on to the Nica and unitary checks, which reuse the isometry check's window;
any other gets `nica_residual`, `constant_symbol` and `surjectivity_defect`.
`check_nica` and `check_unitary` run the same steps for one verdict each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import Check, Verdict, resolve_tol
from .csc import CSC, identity
from .errors import NotIsometricError
from .linalg import _rank_split, op_norm, orthonormal_columns
from .odometer import (
    Symbol,
    _odometer_columns,
    frobenius_mass,
    structural_isometry,
)

# a window holds at most this many columns of W, or the vacuum's columns
# alone when more coefficient columns are selected
WINDOW_COLUMNS = 4096


@dataclass(frozen=True)
class WindowVerdict(Verdict):
    """A verdict and its window: the shifted correlations' for isometry, else the
    highest level the window of W holds whole."""

    window: int


@dataclass(frozen=True)
class ClassificationReport:
    """Aggregated verdicts, decided on `checks` in report order (see `classify`);
    unitary and Nica imply isometric by construction."""

    checks: tuple[Check, ...]
    is_isometric: bool
    is_nica: bool
    is_unitary: bool
    window: int

    @property
    def residuals(self) -> dict[str, float]:
        return {check.name: check.residual for check in self.checks}


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


class _Window(NamedTuple):
    """W's columns (w, q), q in `cols`, on the words w < `words`, of which levels
    0..`level` are whole, as the triplets of `_odometer_columns`; col is
    w * cols.size plus the position of q in `cols`."""

    cols: np.ndarray
    words: int
    level: int
    rows: np.ndarray
    js: np.ndarray
    vals: np.ndarray

    def csc(self, on=slice(None)) -> CSC:
        """The entries `on`; all rows are renumbered in order, so no index array spans the space."""
        _, rows = np.unique(self.rows, return_inverse=True)
        shape = (rows.max(initial=0) + 1, self.words * self.cols.size)
        return CSC.from_triplets(rows[on], self.js[on], self.vals[on], shape)


def _window(symbol: Symbol, cols: np.ndarray) -> _Window:
    """W's columns for `cols` on the first `WINDOW_COLUMNS // cols.size` words of
    the exactness window (all of it when it fits, the vacuum at least).

    Word indices are level-major, so the cut keeps the lowest levels whole,
    the all-n words included. Only these columns are built, so this works at
    truncations far beyond the dense limit.
    """
    space = symbol.space
    words = min(space.level_offset(symbol.exact_below), max(WINDOW_COLUMNS // cols.size, 1))
    basis_cols = (np.arange(words)[:, None] * space.coeff_dim + cols).ravel()
    # the level of the first word left out is the first level not held whole
    level = space.window(1, int(space.word_levels(words)))
    return _Window(cols, words, level, *_odometer_columns(symbol, basis_cols))


def check_isometric(symbol: Symbol, tol: float | None = None, columns=None) -> WindowVerdict:
    """Isometry test: L*L = I, all-ones support, vanishing shifted correlations.

    `columns` restricts every test to a subset of coefficient columns (used
    for symbols whose truncation pads a boundary column). `window_probes`
    cross-checks the verdict on the built W: the largest entry of the Gram
    defect |W_P^H W_P - I| of its window columns P.
    """
    return _isometry_check(symbol, resolve_tol(tol), _column_indices(symbol, columns))[0]


def _isometry_check(symbol: Symbol, tol: float, cols: np.ndarray):
    """The isometry check on `cols`, the window of W it read and that window's
    Gram defect W_P^H W_P - I (a `CSC`)."""
    structure, window = structural_isometry(symbol), _window(symbol, cols)
    structural = structure.checks(cols, tol)
    # each Gram entry is a column norm or an inner product of two columns: what
    # L*L = I, all-ones support and the vanishing shifted correlations assert
    w = window.csc()
    defect = w.H @ w - identity(w.shape[1])
    probe_res = float(np.abs(defect.data).max(initial=0.0))
    checks = (*structural, Check("window_probes", probe_res, tol, window.level))
    return WindowVerdict(checks, structure.window), window, defect


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
    return int(_vacuum(symbol, resolve_tol(tol))[0][1].residual)


def _vacuum(symbol: Symbol, tol: float) -> tuple[tuple[Check, Check], np.ndarray]:
    """The checks that read no window, constancy on every column and the corank
    of the level-0 block (one SVD), with that block."""
    block = level0_block(symbol)
    corank = block.shape[0] - orthonormal_columns(block, tol).shape[1]
    return (Check("constant_symbol", off_vacuum_residual(symbol), tol),
            Check("surjectivity_defect", float(corank), 0.0)), block


def _nica(symbol: Symbol, tol: float, window: _Window, off_vacuum: Check) -> WindowVerdict:
    """The Nica verdict: the `nica_residual` check `off_vacuum`, then `nica_relation`,
    the norm of S_1* W - W S_n* (S_i for S_i x I) on the window columns.

    S_1* W e_y keeps the rows of W e_y whose word starts with letter 1 and
    strips that letter; W S_n* e_y is W e_y' when y = n y' and 0 otherwise.
    y' lies one whole level below y, so it is in the window, and both sides
    are exact there. This is the adjoint of W*(S_1 x I) = (S_n x I)W*, and
    the difference is normed in that relation's orientation.
    """
    space = symbol.space
    c, d = window.cols.size, space.coeff_dim
    offsets = space.level_offsets()
    powers = np.diff(offsets)  # n^level
    # on level l >= 1 the first n^(l-1) words start with 1 and the last n^(l-1) with n
    word = window.rows // d
    level = space.word_levels(word)
    ones = (level > 0) & (word - offsets[level] < powers[level - 1])
    stripped = window.rows[ones] - powers[level[ones] - 1] * d
    y = np.arange(window.words)
    level = space.word_levels(y)
    lead = (level > 0) & (offsets[level + 1] - y <= powers[level - 1])
    source = np.full(window.words, -1)
    source[y[lead] - powers[level[lead]]] = y[lead]  # y = n y' is y' + n^l
    target = source[window.js // c]
    moved = target >= 0
    both = window._replace(
        rows=np.r_[stripped, window.rows[moved]],
        js=np.r_[window.js[ones], target[moved] * c + window.js[moved] % c],
        vals=np.r_[window.vals[ones], window.vals[moved]],
    )
    left = np.arange(both.rows.size) < stripped.size
    relation_res = op_norm((both.csc(left) - both.csc(~left)).H)
    checks = (off_vacuum, Check("nica_relation", relation_res, tol, window.level))
    return WindowVerdict(checks, window.level)


def check_nica(symbol: Symbol, tol: float | None = None, columns=None) -> WindowVerdict:
    """Nica covariance of an isometric symbol: the range sits in the vacuum slice.

    The characterization drives the verdict (`nica_residual`), and the defining
    relation S_1* W = W S_n* is validated independently on the window of the
    isometry check (`nica_relation`; `window` is the highest level it holds
    whole).
    """
    tol = resolve_tol(tol)
    cols = _column_indices(symbol, columns)
    iso, window, _ = _isometry_check(symbol, tol, cols)
    if not iso.passed:
        raise NotIsometricError("Nica covariance is defined for isometric symbols only",
                                iso.checks)
    off_vacuum = Check("nica_residual", off_vacuum_residual(symbol, cols), tol)
    return _nica(symbol, tol, window, off_vacuum)


def _unitary(symbol: Symbol, tol: float, window: _Window, vacuum=None, gram=None) -> WindowVerdict:
    """The unitary verdict: `_vacuum`'s checks (`vacuum`, if given), then
    `level0_block_unitary` and `level_blocks_unitary`, the larger of ||B^H B - I||
    and the square root of the largest off-level mass of one level's columns,
    on a window of every coefficient column (the isometry check's, if it is
    one). B, the level-diagonal part of its entries, is block diagonal, so the
    exact sparse norm of B^H B - I is the largest norm of a level block's
    defect. `gram` is the isometry check's W_P^H W_P - I on `window`: with no
    entry off its level, B is W_P and that Gram is not formed again.
    """
    space = symbol.space
    d = space.coeff_dim
    if window.cols.size < d:
        window, gram = _window(symbol, np.arange(d)), None
    vacuum_checks, block = vacuum or _vacuum(symbol, tol)
    eye = np.eye(d)
    block_res = max(op_norm(block.conj().T @ block - eye), op_norm(block @ block.conj().T - eye))
    col_level = space.word_levels(window.js // d)
    on = space.word_levels(window.rows // d) == col_level
    if gram is None or not on.all():
        b = window.csc(on)
        gram = b.H @ b - identity(b.shape[1])
    off = window.vals[~on]
    off_mass = np.bincount(col_level[~on], weights=off.real**2 + off.imag**2)
    defect_res = op_norm(gram)
    level_res = max(defect_res, float(np.sqrt(off_mass.max(initial=0.0))))
    checks = (*vacuum_checks, Check("level0_block_unitary", block_res, tol),
              Check("level_blocks_unitary", level_res, tol, window.level))
    return WindowVerdict(checks, window.level)


def check_unitary(symbol: Symbol, tol: float | None = None, columns=None) -> WindowVerdict:
    """Unitarity of the odometer map: constant symbol with unitary level-0 block.

    Cross-checks that the level blocks of W are unitary with no mass off
    their level on a window of every coefficient column (`level_blocks_unitary`;
    `window` is the highest level it holds whole). A non-constant isometric
    symbol fails it on its off-level mass.
    """
    tol = resolve_tol(tol)
    iso, window, gram = _isometry_check(symbol, tol, _column_indices(symbol, columns))
    if not iso.passed:
        raise NotIsometricError("unitarity is decided for isometric symbols only", iso.checks)
    return _unitary(symbol, tol, window, gram=gram)


def classify(symbol: Symbol, tol: float | None = None, columns=None) -> ClassificationReport:
    """Full report; the implication structure (unitary/Nica need isometric) is built in.

    `checks` holds the isometry checks, then those of `check_nica` and
    `check_unitary` for an isometric symbol, else `nica_residual`,
    `constant_symbol` and `surjectivity_defect`. Constancy is judged on every
    column, whatever `columns` selects.
    """
    tol = resolve_tol(tol)
    cols = _column_indices(symbol, columns)
    iso, window, gram = _isometry_check(symbol, tol, cols)
    off_vacuum = Check("nica_residual", off_vacuum_residual(symbol, cols), tol)
    vacuum = _vacuum(symbol, tol)
    if not iso.passed:
        return ClassificationReport((*iso.checks, off_vacuum, *vacuum[0]), False, False, False,
                                    iso.window)
    nica = _nica(symbol, tol, window, off_vacuum)
    uni = _unitary(symbol, tol, window, vacuum, gram)
    return ClassificationReport((*iso.checks, *nica.checks, *uni.checks), True, nica.passed,
                                uni.passed, iso.window)
