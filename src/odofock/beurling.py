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

Graded subspaces are decided level by level. When every spanning column is
exactly zero outside one level, the subspace is the direct sum of level
blocks Q_m, and S_i maps level m into level m + 1 only. The invariance
defect is then block diagonal, one block per level, and Q^H S_i* Q has
blocks only from level m to level m - 1, so its kernel, the wandering
subspace, is one small kernel per level (empty, with no `eigh`, where the
overlap is an isometry). An odometer map sends level m into levels m .. m + s
(s the support degree), so its invariance defect is taken per column level.
Columns with entries on two levels, however small, take the decisions over
the whole basis. Both paths put the wandering basis in one gauge that depends
on the subspace alone, and place Phi sparse from the creation index maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .config import resolve_tol
from .csc import CSC, identity
from .errors import InvarianceError, WindowError
from .fock import TruncatedFockSpace, apply_annihilation, apply_creation, creation_basis_map
from .linalg import _certified_kernel, canonical_basis, op_norm, orthonormal_columns
from .odometer import OdometerMap, Symbol, build_odometer, symbol_from_dense


@dataclass(frozen=True)
class InvariantSubspace:
    """An orthonormal column basis of a creation-invariant subspace S.

    `wandering_basis` spans S minus the creation images sum_i (S_i x I) S.
    Both ranks are decided once, at the tolerance the subspace was built with.
    `levels` is the level of each basis column if it is graded (`_column_levels`), else None.
    """

    ambient: TruncatedFockSpace
    basis: np.ndarray
    invariance_residuals: tuple[float, ...]
    wandering_basis: np.ndarray
    levels: np.ndarray | None

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
    the invariance check tests nothing: it is vacuous, its residuals NaN.
    Graded columns (`_column_levels`) are decided level by level; others over
    the whole basis, both kernels `_certified_kernel`s. Either way the
    wandering basis is put in the gauge of `canonical_basis`.
    """
    tol = resolve_tol(tol)
    space.require_dense()
    cols = np.asarray(columns, dtype=complex)
    cols = cols[:, None] if cols.ndim == 1 else cols
    if cols.ndim != 2:
        raise ValueError(f"columns must be a 1-D or 2-D array, got {cols.ndim} dimensions")
    if cols.shape[0] != space.dim:
        raise ValueError("subspace columns do not match the ambient dimension")
    levels = _column_levels(space, cols)
    if levels is not None:
        basis, levels, residuals, wandering = _graded_parts(space, cols, levels, tol)
    else:
        gap = np.linalg.norm(cols.conj().T @ cols - np.eye(cols.shape[1]))
        basis = cols if gap <= tol < 0.5 else orthonormal_columns(cols, tol)
        low = space.dim_upto(space.max_level - 1)
        interior = basis @ _certified_kernel(basis[low:], tol)
        letters = range(1, space.n + 1)
        images = (apply_creation(space, i, interior) for i in letters)
        residuals = tuple(_orthogonal_part(basis, x) if interior.size else math.nan
                          for x in images)
        overlap = np.vstack([basis.conj().T @ apply_annihilation(space, i, basis)
                             for i in letters])
        wandering = basis @ _certified_kernel(overlap, tol)
    return InvariantSubspace(space, basis, residuals, canonical_basis(wandering), levels)


def _column_levels(space: TruncatedFockSpace, columns: np.ndarray) -> np.ndarray | None:
    """The level of each column when every column is exactly zero (`!= 0`, no
    threshold) outside one level, an all-zero column counting as level 0;
    None when some column has nonzero entries on two levels."""
    nonzero = columns != 0
    occupied = np.stack([nonzero[space.level_slice(m)].any(axis=0)
                         for m in range(space.max_level + 1)])
    return occupied.argmax(axis=0) if np.all(occupied.sum(axis=0) <= 1) else None


def _graded_parts(space: TruncatedFockSpace, cols: np.ndarray, levels: np.ndarray, tol: float):
    """Basis, its column levels, invariance residuals and wandering basis of the
    span of graded columns.

    Each level block Q_m is held on its level's rows, and S_i maps level m
    into the i-th chunk of n^m d rows of level m + 1. The Gram C^H C and the
    singular values are the blocks' (one thin SVD per block when C is not
    orthonormal); the part below the top level is the blocks Q_m, m < M; the
    defect of S_i is the largest ||S_i Q_m - Q_(m+1) Q_(m+1)^H S_i Q_m||; the
    wandering part of level m is all of Q_m when level m - 1 is empty, and
    otherwise the certified kernel of the stacked Q_(m-1)^H (chunk i of Q_m).
    """
    blocks = {int(m): cols[space.level_slice(m)][:, levels == m] for m in np.unique(levels)}
    grams = (q.conj().T @ q - np.eye(q.shape[1]) for q in blocks.values())
    if math.sqrt(sum(np.linalg.norm(g) ** 2 for g in grams)) <= tol < 0.5:
        basis = cols
    else:
        blocks = {m: orthonormal_columns(q, tol) for m, q in blocks.items()}
        blocks = {m: q for m, q in blocks.items() if q.shape[1]}
        basis = _place(space, blocks)
        levels = np.repeat(np.array(list(blocks), dtype=int), [q.shape[1] for q in blocks.values()])
    defects = [[] for _ in range(space.n)]
    wandering = {}
    for m, q in blocks.items():
        width = q.shape[0]
        nxt = blocks.get(m + 1, np.zeros((space.n * width, 0), dtype=complex))
        for i in range(space.n if m < space.max_level else 0):
            # S_i Q_m is Q_m on chunk i of level m + 1; Q_(m+1)^H reads that chunk only
            chunk = slice(i * width, (i + 1) * width)
            defect = -(nxt @ (nxt[chunk].conj().T @ q))
            defect[chunk] += q
            defects[i].append(op_norm(defect))
        prev = blocks.get(m - 1)
        if prev is None:
            wandering[m] = q
        else:
            step = prev.shape[0]
            overlap = np.vstack([prev.conj().T @ q[i * step : (i + 1) * step]
                                 for i in range(space.n)])
            wandering[m] = q @ _certified_kernel(overlap, tol)
    residuals = tuple(max(d, default=math.nan) for d in defects)
    return basis, levels, residuals, _place(space, wandering)


def _place(space: TruncatedFockSpace, blocks: dict[int, np.ndarray]) -> np.ndarray:
    """The D-row array of level blocks, each on its level's rows, in level order."""
    out = np.zeros((space.dim, sum(q.shape[1] for q in blocks.values())), dtype=complex)
    start = 0
    for m in sorted(blocks):
        out[space.level_slice(m), start : start + blocks[m].shape[1]] = blocks[m]
        start += blocks[m].shape[1]
    return out


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
class BeurlingFactorization:
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
    budget = space.max_level - star_level
    if budget < 1:
        raise WindowError(
            f"wandering vectors at level {star_level} leave no room for any word "
            f"below the truncation level {space.max_level}"
        )
    domain = TruncatedFockSpace(space.n, budget, wdim)
    phi = _place_phi(space, domain, entries)
    inner_residual = op_norm(phi.H @ phi - identity(domain.dim))
    # Phi (S_i x I) - (S_i x I) Phi on the domain columns below the budget level
    low = np.arange(domain.dim_upto(budget - 1))
    ma_residual = max(op_norm(phi[:, creation_basis_map(domain, i, low)]
                              - apply_creation(space, i, phi[:, : low.size]))
                      for i in range(1, space.n + 1))
    return BeurlingFactorization(sub, wandering_basis, domain, phi, inner_residual, ma_residual,
                                 domain.dim == sub.dim)


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
class InducedSymbolResult:
    """An empty window (window < 0) tests nothing: the check is vacuous, its residual NaN."""

    symbol: Symbol
    wmap: OdometerMap
    factorization: BeurlingFactorization
    intertwining_residual: float
    window: int

    @property
    def vacuous(self) -> bool:
        return self.window < 0


def induced_symbol(sub: InvariantSubspace, wmap: OdometerMap, tol: float | None = None,
                   factorization: BeurlingFactorization | None = None) -> InducedSymbolResult:
    """Symbol of the subrepresentation carried by an odometer-invariant subspace.

    Requires the subspace to be invariant under the odometer map as well
    (range-inclusion measured as the projection residual of W restricted to
    the subspace, level by level on a graded basis). The induced symbol is the
    wandering compression Phi^H W E of W, and the reported residual is the
    exact norm of W Phi - Phi W_induced on the columns the word budget keeps
    exact. With no such column the check is vacuous and the residual is NaN.
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

    window = domain.max_level - max(symbol.support_degree, wmap.symbol.support_degree)
    residual = float("nan")
    if window >= 0:
        exact = slice(0, domain.dim_upto(window))
        residual = op_norm(w @ phi[:, exact] - phi @ induced_map.operator.csc[:, exact])
    fact_with_symbol = replace(fact, induced_symbol=symbol)
    return InducedSymbolResult(symbol, induced_map, fact_with_symbol, residual, window)


def _graded_odometer_defect(sub: InvariantSubspace, w: CSC, support: int) -> float:
    """||(I - Q Q^H) W Q|| on a graded basis: W maps level m into the rows R of levels
    m .. m + s, where only the basis columns Q_R of those levels have entries, so the
    level-m columns are Y - Q_R (Q_R^H Y), Y = W[R, m] Q_m, normed as one sparse matrix."""
    space, levels, parts = sub.ambient, sub.levels, []
    for m in np.unique(levels):
        cols, on = space.level_slice(m), np.flatnonzero(levels == m)
        rows = slice(cols.start, space.level_slice(min(m + support, space.max_level)).stop)
        x = w[rows, cols] @ sub.basis[cols, _span(levels == m)]
        q = sub.basis[rows, _span((levels >= m) & (levels <= m + support))]
        x -= q @ (q.conj().T @ x)
        r, c = np.nonzero(x)
        parts.append((r + rows.start, on[c], x[r, c]))
    shape = (space.dim, sub.dim)
    return op_norm(CSC.from_triplets(*map(np.concatenate, zip(*parts)), shape)) if parts else 0.0


def _span(mask: np.ndarray) -> slice | np.ndarray:
    """Where `mask` holds, as a slice when contiguous (the level-sorted bases of `levels_subspace`
    and `_place`), so indexing takes a view: with index arrays the tracemalloc peak of factorize
    plus induced on levels-n2M8d1 rises from 3.03 to 4.03 MB, above one dense Phi (3.98 MB)."""
    on = np.flatnonzero(mask)
    return slice(on[0], on[-1] + 1) if on[-1] - on[0] == on.size - 1 else on
