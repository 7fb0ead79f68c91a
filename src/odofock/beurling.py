"""Beurling-Lax factorization of invariant subspaces and induced subrepresentations.

An invariant subspace of the truncated Fock space factors through its
wandering subspace: the map sending (word, wandering vector) to the word's
creation operator applied to the vector is unitary onto the subspace, and
composing with the inclusion yields an inner multi-analytic operator. When
the subspace is also invariant under an odometer map, conjugating by the
factorization produces the induced symbol of the subrepresentation.

Truncation semantics: a subspace is certified when it is generated below the
boundary and closed under creation up to the top level; the level-M boundary
is excluded from every residual, and words are budgeted so that all columns
of the factorization stay exact.

Graded subspaces are decided on the entries of their basis. When every
spanning column is exactly zero outside one level, the columns are read once
into a `CSC`, and S_i maps level m into level m + 1 only. The Gram C^H C, the
creation defects X - C (C^H X) with X = S_i C, and the stacked overlap O of
(S_i C)^H C are then sparse expressions over the whole basis, whose norms and
Frobenius gaps come from the pairs of entries that share a row. O^H O is block
diagonal by column level, so the wandering subspace is one kernel per level:
all of the level where its part of O is exactly zero, empty with no `eigh`
where that part is an isometry, and a dense certified kernel on the rows it
touches otherwise. The odometer defect (I - Q Q^H) W Q is one sparse expression
too. Columns with entries on two levels, however small, take the decisions over
the whole dense basis. Both paths put the wandering basis in one gauge that
depends on the subspace alone, and place Phi sparse from the creation index maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import Check, Verdict, resolve_tol
from .csc import CSC, identity
from .errors import InvarianceError, WindowError
from .fock import TruncatedFockSpace, apply_annihilation, apply_creation, creation_basis_map
from .linalg import _certified_kernel, canonical_basis, op_norm, orthonormal_columns
from .odometer import OdometerMap, Symbol, build_odometer, symbol_from_dense


@dataclass(frozen=True)
class InvariantSubspace(Verdict):
    """An orthonormal column basis of a creation-invariant subspace S.

    `wandering_basis` spans S minus the creation images sum_i (S_i x I) S.
    Both ranks are decided once, at the tolerance the subspace was built with.
    `levels` is the level of each basis column if it is graded (`_column_levels`),
    and `entries` the basis's nonzero entries, `CSC.from_dense(basis)`; both None
    on a basis that is not graded. `checks` holds the worst invariance residual.
    """

    ambient: TruncatedFockSpace
    basis: np.ndarray
    invariance_residuals: tuple[float, ...]
    wandering_basis: np.ndarray
    levels: np.ndarray | None
    entries: CSC | None

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _orthogonal_part(basis: np.ndarray, x: np.ndarray) -> float:
    """Norm of x - Q (Q^H x): the part of the columns of x orthogonal to span(Q)."""
    return op_norm(x - basis @ (basis.conj().T @ x))


def invariant_subspace(
    space: TruncatedFockSpace, columns: np.ndarray, tol: float | None = None
) -> InvariantSubspace:
    """Orthonormalize spanning columns, measure the creation-invariance defect
    and compute the wandering basis, all at the rank tolerance `tol`.

    A 1-D array is one column. Three ranks are decided: the basis Q, its part
    below the top level, where the residuals are taken, and the wandering
    basis (kernel of stacked Q^H S_i* Q). Columns C with ||C^H C - I||_F <= tol
    have singular values within sqrt(1 -+ tol), so Q is C, orthonormal to that
    accuracy; other columns take a thin SVD. With no vector below the top level
    the invariance residuals are NaN (see `Check`). The columns are read once,
    into a `CSC`. Graded columns (`_column_levels`) are decided from those
    entries; others over the whole dense basis, both kernels `_certified_kernel`s.
    Either way the wandering basis is put in the gauge of `canonical_basis`.
    """
    tol = resolve_tol(tol)
    space.require_dense()
    cols = np.asarray(columns, dtype=complex)
    cols = cols[:, None] if cols.ndim == 1 else cols
    if cols.ndim != 2:
        raise ValueError(f"columns must be a 1-D or 2-D array, got {cols.ndim} dimensions")
    if cols.shape[0] != space.dim:
        raise ValueError("subspace columns do not match the ambient dimension")
    entries = CSC.from_dense(cols)
    levels = _column_levels(space, entries)
    if levels is not None:
        basis, entries, levels, residuals, wandering = _graded_parts(space, cols, entries,
                                                                     levels, tol)
    else:
        entries = None
        gap = np.linalg.norm(cols.conj().T @ cols - np.eye(cols.shape[1]))
        basis = cols if gap <= tol < 0.5 else orthonormal_columns(cols, tol)
        low = space.dim_upto(space.window(1))
        interior = basis @ _certified_kernel(basis[low:], tol)
        letters = range(1, space.n + 1)
        images = (apply_creation(space, i, interior) for i in letters)
        residuals = tuple(_orthogonal_part(basis, x) if interior.size else math.nan
                          for x in images)
        overlap = np.vstack([basis.conj().T @ apply_annihilation(space, i, basis)
                             for i in letters])
        wandering = basis @ _certified_kernel(overlap, tol)
    check = Check("creation_invariance", max(residuals), tol)
    return InvariantSubspace((check,), space, basis, residuals, canonical_basis(wandering), levels,
                             entries)


def _column_levels(space: TruncatedFockSpace, columns: np.ndarray | CSC) -> np.ndarray | None:
    """The level of each column when every column is exactly zero (`!= 0`, no
    threshold) outside one level, an all-zero column counting as level 0;
    None when some column has nonzero entries on two levels. `columns` is a
    dense array or the `CSC` of its nonzero entries."""
    entries = columns if isinstance(columns, CSC) else CSC.from_dense(columns)
    level = space.word_levels(entries.indices // space.coeff_dim)
    first, stop = entries.indptr[:-1], entries.indptr[1:]
    full = stop > first
    levels = np.zeros(entries.shape[1], dtype=np.int64)
    # rows ascend in a column: its first entry has its lowest level, its last the highest
    levels[full] = level[first[full]]
    return levels if np.array_equal(levels[full], level[stop[full] - 1]) else None


def _graded_parts(space: TruncatedFockSpace, cols: np.ndarray, entries: CSC, levels: np.ndarray,
                  tol: float):
    """Basis, its entries and column levels, invariance residuals and wandering
    basis of the span of graded columns, taken from the entries of the basis.

    The Gram C^H C is block diagonal by level, so ||C^H C - I||_F comes from the
    pairs of entries that share a row (`CSC.gram_gaps`); a C that fails it takes
    one thin SVD per level block. The part below the top level is the columns of
    levels m < M. The defect of S_i is ||X - C (C^H X)||, X = S_i C, one sparse
    norm whose coupled components never cross a level, so it is the largest
    per-level defect. The overlap O, the stack of (S_i C)^H C over the letters,
    links level m only to level m - 1, and O^H O is block diagonal by column
    level. Level m's wandering part is all of Q_m when its columns of O are
    exactly zero, none when ||G_m - I||_F <= tol < 1/2 for its block G_m of
    O^H O (every singular value then exceeds tol), and otherwise the certified
    kernel of its columns of O, dense on the rows they touch.
    """
    if not entries.gram_gaps()[0] <= tol < 0.5:
        blocks = [(m, orthonormal_columns(cols[space.level_slice(m)][:, levels == m], tol))
                  for m in np.unique(levels)]
        levels = np.repeat([m for m, _ in blocks], [q.shape[1] for _, q in blocks])
        cols = np.zeros((space.dim, levels.size), dtype=complex)
        for m, q in blocks:
            cols[space.level_slice(m), levels == m] = q
        entries = CSC.from_dense(cols)
    k = entries.shape[1]
    adjoint = entries.H
    residuals, rows, overlap_cols, values = [], [], [], []
    for i in range(space.n):
        image = apply_creation(space, i + 1, entries)
        projection = adjoint @ image  # C^H S_i C: entry (a, b) is conj(O[(i, b), a])
        residuals.append(op_norm(image - entries @ projection))
        rows.append(projection.entry_cols + i * k)
        overlap_cols.append(projection.indices)
        values.append(np.conj(projection.data))
    if not np.any(levels < space.max_level):
        residuals = [math.nan] * space.n
    overlap = CSC.from_triplets(*map(np.concatenate, (rows, overlap_cols, values)),
                                (space.n * k, k))
    gaps = overlap.gram_gaps(levels)
    kernels = []
    for m in np.unique(levels):
        on = np.flatnonzero(levels == m)
        part = overlap[:, on]
        if part.nnz == 0:
            kernels.append((on, np.eye(on.size, dtype=complex)))
        elif not gaps[m] <= tol < 0.5:
            touched, row = np.unique(part.indices, return_inverse=True)
            dense = np.zeros((touched.size, on.size), dtype=complex)
            dense[row, part.entry_cols] = part.data
            kernels.append((on, _certified_kernel(dense, tol)))
    coords = np.zeros((k, sum(kernel.shape[1] for _, kernel in kernels)), dtype=complex)
    start = 0
    for on, kernel in kernels:
        coords[on, start : start + kernel.shape[1]] = kernel
        start += kernel.shape[1]
    return cols, entries, levels, tuple(residuals), entries @ coords


def levels_subspace(space: TruncatedFockSpace, lo: int, hi: int | None = None) -> InvariantSubspace:
    """The subspace spanned by levels 0 <= lo <= hi <= M (hi defaults to M)."""
    space.require_dense()
    hi = space.max_level if hi is None else hi
    if not 0 <= lo <= hi <= space.max_level:
        raise ValueError(f"levels {lo}..{hi} are not a range within 0..{space.max_level}")
    start, stop = space.dim_upto(lo - 1), space.dim_upto(hi)
    # the selected identity columns only: e_(start + j) in column j
    return invariant_subspace(space, np.eye(space.dim, stop - start, -start, dtype=complex))


def _require_invariant(sub: InvariantSubspace, tol: float):
    if any(math.isnan(r) for r in sub.invariance_residuals):
        raise WindowError("creation invariance is vacuous: no vector lies below the top level")
    worst = max(sub.invariance_residuals, default=0.0)
    if worst > tol:
        raise InvarianceError("subspace is not invariant under the creation tuple", worst)


def wandering_subspace(sub: InvariantSubspace, tol: float | None = None) -> np.ndarray:
    """Orthonormal basis of S minus the creation images sum_i (S_i x I) S.

    `tol` gates the invariance defect only: the basis is the one computed by
    `invariant_subspace`, whose rank was decided at the subspace's own tolerance.
    """
    _require_invariant(sub, resolve_tol(tol))
    return sub.wandering_basis


@dataclass(frozen=True)
class BeurlingFactorization(Verdict):
    """Inner multi-analytic factorization S = Phi(F(n, budget) x E_*).

    `phi` maps the wandering-coefficient Fock truncation into the ambient
    space; `pi` is the same map written in subspace coordinates, both formed
    from the entries `phi_csc` when first read. The word budget keeps every
    column exact; `covers_subspace` records whether the factorization reaches
    all of S (it cannot when wandering vectors sit too close to the
    truncation boundary).
    """

    subspace: InvariantSubspace
    wandering_basis: np.ndarray
    domain: TruncatedFockSpace
    phi_csc: CSC
    inner_residual: float
    multi_analytic_residual: float
    covers_subspace: bool
    induced_symbol: Symbol | None = None

    @property
    def wandering_dim(self) -> int:
        return self.wandering_basis.shape[1]

    @cached_property
    def phi(self) -> np.ndarray:
        return self.phi_csc.toarray()

    @cached_property
    def pi(self) -> np.ndarray:
        return self.subspace.basis.conj().T @ self.phi_csc


def beurling_factorize(sub: InvariantSubspace, tol: float | None = None,
                       wandering_basis: np.ndarray | None = None) -> BeurlingFactorization:
    """Factor an invariant subspace through its wandering subspace.

    A custom orthonormal `wandering_basis` may be supplied (it must span the
    computed wandering subspace); different choices change the factorization
    by a unitary on the wandering space only.
    """
    tol = resolve_tol(tol)
    space = sub.ambient
    _require_invariant(sub, tol)
    computed = sub.wandering_basis
    graded = sub.levels is not None
    if wandering_basis is None:
        wandering_basis = computed
    else:
        wandering_basis = np.asarray(wandering_basis, dtype=complex)
        if wandering_basis.shape != computed.shape:
            raise ValueError("wandering basis has the wrong shape")
        gram = wandering_basis.conj().T @ wandering_basis - np.eye(computed.shape[1])
        if op_norm(gram) > tol or _orthogonal_part(computed, wandering_basis) > tol:
            raise ValueError("wandering basis must orthonormally span the wandering subspace")
        graded = _column_levels(space, wandering_basis) is not None
    wdim = wandering_basis.shape[1]
    if wdim == 0:
        raise WindowError("the wandering subspace is trivial; nothing to factor")

    # graded vectors reach exactly their highest nonzero entry, others their highest above 1e-14
    entries = CSC.from_dense(wandering_basis)
    live = entries.indices[np.abs(entries.data) > (0.0 if graded else 1e-14)]
    star_level = space.level_of_word_index(int(live.max()) // space.coeff_dim) if live.size else 0
    budget = space.window(star_level)
    if budget < 1:
        raise WindowError(
            f"wandering vectors at level {star_level} leave no room for any word "
            f"below the truncation level {space.max_level}"
        )
    domain = TruncatedFockSpace(space.n, budget, wdim)
    phi = _place_phi(space, domain, entries)
    inner_residual = op_norm(phi.H @ phi - identity(domain.dim))
    # Phi (S_i x I) - (S_i x I) Phi on the domain columns below the budget level
    low = np.arange(domain.dim_upto(domain.window(1)))
    ma_residual = max(op_norm(phi[:, creation_basis_map(domain, i, low)]
                              - apply_creation(space, i, phi[:, : low.size]))
                      for i in range(1, space.n + 1))
    checks = (Check("inner", inner_residual, tol), Check("multi_analytic", ma_residual, tol))
    return BeurlingFactorization(checks, sub, wandering_basis, domain, phi, inner_residual,
                                 ma_residual, domain.dim == sub.dim)


def _place_phi(space: TruncatedFockSpace, domain: TruncatedFockSpace, entries: CSC) -> CSC:
    """Phi placed from the creation index maps: column (mu, j) holds the entries of
    wandering vector j, each (x, p) moved to (mu x, p), none where |mu| + |x| > M. A
    prepended letter is the most significant digit, so mu x is the word of level
    |mu| + |x| at position pos(mu) n^|x| + pos(x)."""
    d, wdim, offsets = space.coeff_dim, entries.shape[1], space.level_offsets()
    word, p = np.divmod(entries.indices.astype(np.int64), d)
    level = space.word_levels(word)
    triplets = []
    for length in range(domain.max_level + 1):
        fit = level + length <= space.max_level
        first = domain.level_offset(length)
        mu = np.arange(first, domain.level_offset(length + 1))[:, None]
        pos = (mu - first) * np.int64(space.n) ** level[fit] + word[fit] - offsets[level[fit]]
        triplets.append((((offsets[level[fit] + length] + pos) * d + p[fit]).ravel(),
                         (mu * wdim + entries.entry_cols[fit]).ravel(),
                         np.broadcast_to(entries.data[fit], pos.shape).ravel()))
    return CSC.from_triplets(*map(np.concatenate, zip(*triplets)), (space.dim, domain.dim))


@dataclass(frozen=True)
class InducedSymbolResult(Verdict):
    """The induced symbol, with its intertwining check (see `Check`)."""

    symbol: Symbol
    wmap: OdometerMap
    factorization: BeurlingFactorization
    intertwining_residual: float
    window: int


def induced_symbol(sub: InvariantSubspace, wmap: OdometerMap, tol: float | None = None,
                   factorization: BeurlingFactorization | None = None) -> InducedSymbolResult:
    """Symbol of the subrepresentation carried by an odometer-invariant subspace.

    Requires the subspace to be invariant under the odometer map as well
    (range-inclusion measured as the projection residual of W restricted to
    the subspace, from the stored basis entries on a graded basis). The induced
    symbol is the wandering compression Phi^H W E of W, and the reported
    residual is the exact norm of W Phi - Phi W_induced on the columns the word
    budget keeps exact, NaN when there is none.
    """
    tol = resolve_tol(tol)
    space = sub.ambient
    if wmap.space != space:
        raise ValueError("odometer map and subspace live on different spaces")
    w = wmap.operator.csc
    douglas = (_orthogonal_part(sub.basis, w @ sub.basis) if sub.levels is None
               else _graded_odometer_defect(sub, w, wmap.symbol.support_degree))
    if douglas > tol:
        raise InvarianceError("subspace is not invariant under the odometer map", douglas)

    fact = factorization if factorization is not None else beurling_factorize(sub, tol)
    domain, phi = fact.domain, fact.phi_csc
    symbol = symbol_from_dense(domain, phi.H @ (w @ fact.wandering_basis), prune=1e-13)
    induced_map = build_odometer(symbol)

    window = domain.window(max(symbol.support_degree, wmap.symbol.support_degree))
    residual = float("nan")
    if window >= 0:
        exact = slice(0, domain.dim_upto(window))
        residual = op_norm(w @ phi[:, exact] - phi @ induced_map.operator.csc[:, exact])
    fact_with_symbol = replace(fact, induced_symbol=symbol)
    check = Check("induced_intertwining", residual, tol, window)
    return InducedSymbolResult((check,), symbol, induced_map, fact_with_symbol, residual, window)


def _graded_odometer_defect(sub: InvariantSubspace, w: CSC, support: int) -> float:
    """||(I - Q Q^H) W Q|| on a graded basis from its entries: X - Q (Q^H X) with
    X = W Q, one sparse matrix. W maps level m into levels m .. m + `support`, and
    the sparse products reach those rows alone, so the degree needs no slicing."""
    q = sub.entries
    x = w @ q
    return op_norm(x - q @ (q.H @ x))
