"""Odometer maps on truncated Fock spaces.

A symbol is a linear map L from the coefficient space into the Fock space,
stored as a `CSC` with one column per coefficient coordinate. The odometer
map it generates acts on basis vectors by the base-n carry and feeds the
all-n words of length m into the m-fold one-shifted copy of L. Everything
here tracks the exactness window: columns indexed by levels below
`exact_below` carry no truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import Check, Verdict, resolve_tol
from .csc import CSC, as_csc, column_entries, identity
from .errors import NotIsometricError
from .fock import Operator, TruncatedFockSpace, apply_creation, carry_word_map, creation_basis_map
from .linalg import op_norm

# Fixed threshold for "supported on the all-ones diagonal"; isometric symbols
# live there, so the closed-form adjoint requires it.
E1_SUPPORT_TOL = 1e-12


@dataclass(frozen=True)
class Symbol:
    """A map L: C^d -> F(n, M) tensor C^d as a (dim x d) `CSC`.

    Column p holds the coefficients of L h_p in the canonical basis order.
    Every routine reads the stored entries, so a symbol costs its entries,
    not its dim rows. `matrix` is a `scipy.sparse.csc_array` view of them,
    built when read.
    """

    space: TruncatedFockSpace
    csc: CSC

    def __post_init__(self):
        mat = as_csc(self.csc)
        object.__setattr__(self, "csc", mat)
        if mat.shape != (self.space.dim, self.space.coeff_dim):
            raise ValueError(
                f"symbol matrix shape {mat.shape} does not match "
                f"({self.space.dim}, {self.space.coeff_dim})"
            )
        if not np.all(np.isfinite(mat.data)):
            raise ValueError("symbol matrix contains non-finite entries")

    @property
    def matrix(self):
        """The stored matrix as a `scipy.sparse.csc_array` sharing its arrays."""
        return self.csc.scipy_view()

    @property
    def coeff_dim(self) -> int:
        return self.space.coeff_dim

    @property
    def support_degree(self) -> int:
        """Largest level carrying a nonzero coefficient (0 for the zero symbol)."""
        live = self.csc.indices[self.csc.data != 0]
        if live.size == 0:
            return 0
        top_word = int(live.max()) // self.space.coeff_dim
        return self.space.level_of_word_index(top_word)

    @property
    def exact_below(self) -> int:
        """First level whose all-n column would truncate the shifted symbol."""
        return self.space.max_level - self.support_degree + 1

    def norm(self) -> float:
        """Operator norm of L, by the exact sparse path of `op_norm`."""
        return op_norm(self.csc)


def symbol_from_dense(
    space: TruncatedFockSpace, matrix: np.ndarray, prune: float = 0.0
) -> Symbol:
    """Symbol from a dense coefficient matrix.

    `prune` drops entries of relative magnitude at most that value; symbols
    recovered from dense computations need this so rounding noise does not
    inflate the support degree and destroy the exactness window.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if prune > 0 and arr.size:
        scale = float(np.abs(arr).max())
        if scale > 0:
            arr = np.where(np.abs(arr) <= prune * scale, 0.0, arr)
    return Symbol(space, CSC.from_dense(arr))


def symbol_from_entries(space: TruncatedFockSpace, entries: list[tuple[int, int, complex]]) -> Symbol:
    """The symbol with entries (row, col, value); values at a repeated coordinate add up."""
    rows, cols, vals = (list(part) for part in zip(*entries)) if entries else ([], [], [])
    for name, idx, bound in (("row", rows, space.dim), ("column", cols, space.coeff_dim)):
        bad = [i for i in idx if not 0 <= i < bound]
        if bad:
            raise ValueError(f"symbol {name} {bad[0]} outside 0..{bound - 1}")
    coords = np.array([rows, cols], dtype=np.int64).reshape(2, -1)
    mat = CSC.from_triplets(*coords, np.array(vals, dtype=complex), (space.dim, space.coeff_dim))
    return Symbol(space, mat)


def constant_symbol(space: TruncatedFockSpace, block: np.ndarray) -> Symbol:
    """The symbol with range in the vacuum block, given by a d x d matrix."""
    block = np.asarray(block, dtype=complex)
    d = space.coeff_dim
    if block.shape != (d, d):
        raise ValueError(f"level-0 block must be {d} x {d}, got {block.shape}")
    # CSC.from_dense of the padded D x d array, built from the block's nonzeros;
    # int32 coordinates leave the index dtype to the shape, as for a dense input
    cols, rows = np.nonzero(block.T)
    coords = (rows.astype(np.int32), cols.astype(np.int32))
    return Symbol(space, CSC.from_triplets(*coords, block[rows, cols], (space.dim, d)))


def scalar_symbol(space: TruncatedFockSpace, coeffs_by_level) -> Symbol:
    """d = 1 symbol on the all-ones diagonal, one coefficient per level.

    Coefficients beyond the truncation level are dropped; that is the
    canonical way to restrict an infinite sequence to a truncated space.
    """
    if space.coeff_dim != 1:
        raise ValueError("scalar symbols require coeff_dim = 1")
    coeffs = np.asarray(coeffs_by_level, dtype=complex)[: space.max_level + 1]
    entries = [(space.all_ones_index(lv), 0, c) for lv, c in enumerate(coeffs) if c != 0]
    return symbol_from_entries(space, entries)


def frobenius_mass(values: np.ndarray) -> float:
    """sqrt(sum |v|^2), summed in order with the scalar square abs(v) ** 2.

    numpy's vectorized square rounds differently in the last bit; the scalar
    one keeps every mass residual independent of how its entries were found.
    """
    squares = [abs(v) ** 2 for v in values.tolist()]
    return float(np.sqrt(np.cumsum(squares)[-1])) if squares else 0.0


def e1_coefficient_tensor(symbol: Symbol) -> tuple[np.ndarray, CSC]:
    """Coefficients on the all-ones diagonal plus the off-diagonal entries by column.

    Returns (c, off) where c[r, s, q] is the coefficient of (ones^r, h_s) in
    L h_q and off has the layout of the symbol matrix with the entries on
    the all-ones words set to 0; the off-diagonal mass of a column selection
    is the `frobenius_mass` of its entries.
    """
    space = symbol.space
    d = space.coeff_dim
    mat = symbol.csc
    word, s = np.divmod(mat.indices.astype(np.int64), d)
    q = np.repeat(np.arange(d), np.diff(mat.indptr))
    level = space.word_levels(word)
    on = word == space.level_offsets()[level]
    live = on & (mat.data != 0)
    c = np.zeros((symbol.support_degree + 1, d, d), dtype=complex)
    np.add.at(c, (level[live], s[live], q[live]), mat.data[live])
    off = CSC(mat.indptr, mat.indices, np.where(on, 0, mat.data), mat.shape)
    return c, off


def gram_sums(c: np.ndarray) -> np.ndarray:
    """Shifted coefficient correlations g[r-1][a, b] = sum_{p,q} c[p+r,q,a] conj(c[p,q,b]).

    These are the inner products of L h_a against the r-fold one-shifted
    copies of L h_b, for r = 1..support degree; an isometric symbol makes
    them all vanish.
    """
    smax = c.shape[0] - 1
    d = c.shape[1]
    out = np.zeros((max(smax, 0), d, d), dtype=complex)
    for r in range(1, smax + 1):
        acc = np.zeros((d, d), dtype=complex)
        for p in range(0, smax - r + 1):
            # sum_q c[p+r][q, a] conj(c[p][q, b])
            acc += c[p + r].T @ c[p].conj()
        out[r - 1] = acc
    return out


@dataclass(frozen=True)
class OdometerMap:
    """A symbol together with its truncated matrix (a `CSC` in `operator`)."""

    symbol: Symbol
    operator: Operator

    @property
    def space(self) -> TruncatedFockSpace:
        return self.symbol.space

    @property
    def exact_below(self) -> int:
        return self.operator.exact_below


def _odometer_columns(
    symbol: Symbol, basis_cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, col, value) triplets of W[:, basis_cols], col counting positions in basis_cols.

    A word other than all-n moves by the carry (`carry_word_map`). The all-n
    word of length m (the vacuum for m = 0) receives the m-shifted symbol
    column, truncated at the top level. Only the selected columns are
    touched, so this works at any truncation size.
    """
    space = symbol.space
    d, top = space.coeff_dim, space.max_level
    offsets = space.level_offsets()
    words, coords = np.divmod(np.asarray(basis_cols, dtype=np.int64), d)
    succ = carry_word_map(space, words)
    carry = succ >= 0
    carry_rows = succ[carry] * d + coords[carry]

    # gather symbol column q for every all-n column (m, q) at once, then shift by m
    mat = symbol.csc
    over = np.flatnonzero(~carry)
    entry, owner = column_entries(mat.indptr, coords[over])
    src_word, s = np.divmod(mat.indices[entry].astype(np.int64), d)
    src_level = space.word_levels(src_word)
    level = src_level + space.word_levels(words[over])[owner]
    fits = level <= top
    shifted_rows = (offsets[level[fits]] + src_word[fits] - offsets[src_level[fits]]) * d + s[fits]

    rows = np.concatenate([carry_rows, shifted_rows])
    cols = np.concatenate([np.flatnonzero(carry), over[owner[fits]]])
    vals = np.concatenate([np.ones(carry_rows.size, dtype=complex), mat.data[entry[fits]]])
    return rows, cols, vals


def build_odometer(symbol: Symbol) -> OdometerMap:
    """The odometer map generated by `symbol`, as a `CSC`.

    Non-overflow basis words move by the base-n carry (level preserving,
    always exact); the all-n word of length m receives the m-shifted symbol
    column, truncated at the top level. The vacuum is the m = 0 case, so
    W(vacuum, h_p) = L h_p holds exactly. Every value gets 0.0 added, as a sum
    into zeros would, so signed zeros in the symbol's entries are stored as +0.0.
    """
    space = symbol.space
    space.require_dense()
    rows, cols, vals = _odometer_columns(symbol, np.arange(space.dim))
    mat = CSC.from_triplets(rows, cols, vals + 0.0, (space.dim, space.dim))
    return OdometerMap(symbol, Operator(mat, space, symbol.exact_below))


@dataclass(frozen=True)
class RepresentationCheck(Verdict):
    """Outcome of testing the carry and twist relations against a candidate W (see `Check`)."""

    symbol: Symbol | None
    residuals: dict[str, float]
    window: int

    is_representation = Verdict.passed


def verify_fock_representation(op: Operator, tol: float | None = None) -> RepresentationCheck:
    """Check W S_k = S_{k+1} (k < n) and W S_n = S_1 W on the exactness window.

    Both relations are tested on basis columns of level <= exact_below - 2,
    whose images under S_k are exact columns of W; each residual is the norm
    of a sparse difference: W S_k gathers columns of W and S_1 W relabels its
    rows. On success the unique symbol is read off the vacuum columns. An
    empty window is one failing `relations` check.
    """
    tol = resolve_tol(tol)
    space = op.space
    n, d = space.n, space.coeff_dim
    mat = op.csc
    window = space.window(1, op.exact_below - 1)
    residuals: dict[str, float] = {}

    if window >= 0:
        cols = np.arange(space.dim_upto(window))
        maps = [None] + [creation_basis_map(space, k, cols) for k in range(1, n + 1)]
        eye = identity(space.dim)
        for k in range(1, n):
            residuals[f"carry_relation_{k}"] = op_norm(mat[:, maps[k]] - eye[:, maps[k + 1]])
        rel = mat[:, maps[n]] - apply_creation(space, 1, mat[:, cols])
        residuals["twist_relation"] = op_norm(rel)

    checks = tuple(Check(name, res, tol, window) for name, res in residuals.items())
    checks = checks or (Check("relations", None, tol, window),)
    result = RepresentationCheck(checks, None, residuals, window)
    return replace(result, symbol=Symbol(space, mat[:, :d])) if result.passed else result


@dataclass(frozen=True)
class StructuralIsometry:
    """Per-symbol isometry data: L*L, the all-ones coefficients c[r, s, q],
    the off-diagonal entries by column (see `e1_coefficient_tensor`) and the
    shifted correlations inside the exactness window.

    Correlations are only assertable for shifts within the window: beyond it
    the shifted symbol copy is itself truncated, so those sums are excluded
    (their cancelling mass lives above the truncation).
    """

    gram: np.ndarray
    coeffs: np.ndarray
    off: CSC
    correlations: np.ndarray
    window: int

    def residuals(self, cols: np.ndarray) -> tuple[float, float, float]:
        """(gram residual of L*L - I, off-diagonal mass, shifted-correlation residual) on `cols`."""
        iso_res = op_norm(self.gram[np.ix_(cols, cols)] - np.eye(cols.size))
        off_res = frobenius_mass(self.off[:, cols].data)
        corr = self.correlations[:, cols][:, :, cols]
        return iso_res, off_res, float(np.abs(corr).max()) if corr.size else 0.0


def structural_isometry(symbol: Symbol) -> StructuralIsometry:
    """Isometry data of `symbol`, computed once; `residuals` evaluates it on columns."""
    gram = symbol.csc.gram()
    c, off = e1_coefficient_tensor(symbol)
    window = symbol.space.window(symbol.support_degree)
    return StructuralIsometry(gram, c, off, gram_sums(c)[: max(window, 0)], window)


def adjoint_isometric(wmap: OdometerMap, tol: float | None = None) -> Operator:
    """Closed-form adjoint of an isometric odometer map, as a `CSC`.

    On the all-ones word of length m the adjoint returns the reversed
    correlation of the symbol coefficients against the all-n words of length
    <= m; elsewhere it undoes the carry. The result never raises level, so
    every column is exact.

    Raises NotIsometricError when the symbol is not supported on the
    all-ones diagonal or fails the isometry conditions: no closed form is
    available then, only the approximate conjugate transpose.
    """
    space = wmap.space
    space.require_dense()
    tol = resolve_tol(tol)
    structure = structural_isometry(wmap.symbol)
    iso_res, off_res, corr_res = structure.residuals(np.arange(space.coeff_dim))
    if off_res > E1_SUPPORT_TOL:
        raise NotIsometricError(
            f"symbol has mass {off_res:.3e} off the all-ones diagonal; "
            "the closed-form adjoint exists only for isometric symbols"
        )
    if iso_res > tol or corr_res > tol:
        raise NotIsometricError(
            f"symbol is not isometric (gram residual {iso_res:.3e}, "
            f"shifted-correlation residual {corr_res:.3e}); the closed-form "
            "adjoint exists only for isometric symbols"
        )

    c = structure.coeffs
    d = space.coeff_dim
    offsets = space.level_offsets()
    # the adjoint undoes the carry: 1.0 at (w, carry(w)) for every word w but
    # the all-n ones, which fills every column but those of the all-ones words
    words = np.arange(space.num_words)
    succ = carry_word_map(space, words)
    moves = succ >= 0
    rows, cols = [space.basis_indices(words[moves])], [space.basis_indices(succ[moves])]
    vals = [np.ones(rows[0].size, dtype=complex)]
    # column (ones^m, h_l): rows (all-n^p, h_q) with weight conj(c[m-p, l, q])
    for m in range(space.max_level + 1):
        for p in range(max(0, m - c.shape[0] + 1), m + 1):
            l, q = np.nonzero(c[m - p])
            rows.append((offsets[p + 1] - 1) * d + q)
            cols.append(offsets[m] * d + l)
            vals.append(np.conj(c[m - p, l, q]))
    # every (row, col) appears once, so each value, signed zeros included, is stored as is
    mat = CSC.from_triplets(
        np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), (space.dim, space.dim)
    )
    return Operator(mat, space, space.max_level + 1)


def adjoint_checks(wmap: OdometerMap, adjoint: Operator, tol: float | None = None) -> tuple[Check]:
    """The closed-form adjoint's check: ||W* W - I|| on the exact columns of W."""
    space = wmap.space
    window = space.window(wmap.symbol.support_degree)
    ncols = space.dim_upto(window)
    residual = op_norm(adjoint.csc @ wmap.operator.csc[:, :ncols] - identity(space.dim, ncols))
    return (Check("adjoint_times_map_is_identity", residual, resolve_tol(tol), window),)


@dataclass(frozen=True)
class NormBounds:
    """Symbol norm, truncated map norm, and the upper-sandwich defect.

    symbol_norm <= map_norm always (the vacuum columns never truncate).
    upper_defect = max(0, map_norm - (1 + symbol_norm)). A positive value is
    a certificate that the idealized bound ||W_L|| <= 1 + ||L|| fails for
    this symbol: the truncated norm can only underestimate the untruncated
    one. The bound does fail in general; over a one-letter alphabet the
    odometer map is Toeplitz multiplication by the symbol, whose norm
    approaches the sup of the symbol function and can exceed 1 plus its
    coefficient norm (e.g. 1 + z + z^2).
    """

    symbol_norm: float
    map_norm: float
    upper_defect: float


def norm_bounds(wmap: OdometerMap) -> NormBounds:
    """Both norms plus the sandwich diagnostics.

    The lower bound ||L|| <= truncated ||W_L|| is exact and enforced; a
    violation would be a construction bug. The upper direction is reported
    through `upper_defect` rather than asserted, since it is falsifiable.
    """
    symbol_norm = wmap.symbol.norm()
    map_norm = op_norm(wmap.operator)
    slack = 1e-9 * (1.0 + symbol_norm)
    if symbol_norm > map_norm + slack:
        raise RuntimeError(
            f"lower norm bound violated: ||L|| = {symbol_norm}, "
            f"truncated ||W|| = {map_norm}"
        )
    return NormBounds(symbol_norm, map_norm, max(0.0, map_norm - 1.0 - symbol_norm))
