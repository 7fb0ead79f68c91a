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
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import resolve_tol
from .errors import InvarianceError, WindowError
from .fock import TruncatedFockSpace, apply_annihilation, apply_creation
from .linalg import _rank_split, op_norm, orthonormal_columns
from .odometer import OdometerMap, Symbol, build_odometer, symbol_from_dense


@dataclass(frozen=True)
class InvariantSubspace:
    """An orthonormal column basis of a creation-invariant subspace S.

    `wandering_basis` spans S minus the creation images sum_i (S_i x I) S.
    Both ranks are decided once, at the tolerance the subspace was built with.
    """

    ambient: TruncatedFockSpace
    basis: np.ndarray
    invariance_residuals: tuple[float, ...]
    wandering_basis: np.ndarray

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

    A 1-D array is one column. Three thin SVDs decide the ranks: the basis Q,
    its part below the top level (kernel of the top-level rows), where the
    residuals are taken, and the wandering basis (kernel of stacked Q^H S_i* Q).
    """
    tol = resolve_tol(tol)
    space.require_dense()
    basis = orthonormal_columns(columns, tol)
    if basis.shape[0] != space.dim:
        raise ValueError("subspace columns do not match the ambient dimension")
    low = space.dim_upto(space.max_level - 1)
    interior = basis @ _rank_split(basis[low:], tol)[1]
    letters = range(1, space.n + 1)
    residuals = tuple(_orthogonal_part(basis, apply_creation(space, i, interior)) for i in letters)
    overlap = np.vstack([basis.conj().T @ apply_annihilation(space, i, basis) for i in letters])
    wandering = basis @ _rank_split(overlap, tol)[1]
    return InvariantSubspace(space, basis, residuals, wandering)


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
    worst = max(sub.invariance_residuals) if sub.invariance_residuals else 0.0
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
    space; `pi` is the same map written in subspace coordinates. The word
    budget keeps every column exact; `covers_subspace` records whether the
    factorization reaches all of S (it cannot when wandering vectors sit too
    close to the truncation boundary).
    """

    subspace: InvariantSubspace
    wandering_basis: np.ndarray
    domain: TruncatedFockSpace
    phi: np.ndarray
    pi: np.ndarray
    inner_residual: float
    multi_analytic_residual: float
    covers_subspace: bool
    induced_symbol: Symbol | None = None

    @property
    def wandering_dim(self) -> int:
        return self.wandering_basis.shape[1]


def beurling_factorize(
    sub: InvariantSubspace,
    tol: float | None = None,
    wandering_basis: np.ndarray | None = None,
) -> BeurlingFactorization:
    """Factor an invariant subspace through its wandering subspace.

    A custom orthonormal `wandering_basis` may be supplied (it must span the
    computed wandering subspace); different choices change the factorization
    by a unitary on the wandering space only.
    """
    tol = resolve_tol(tol)
    space = sub.ambient
    _require_invariant(sub, tol)
    computed = sub.wandering_basis
    if wandering_basis is None:
        wandering_basis = computed
    else:
        wandering_basis = np.asarray(wandering_basis, dtype=complex)
        if wandering_basis.shape != computed.shape:
            raise ValueError("wandering basis has the wrong shape")
        gram = wandering_basis.conj().T @ wandering_basis
        proj_gap = wandering_basis - computed @ (computed.conj().T @ wandering_basis)
        if op_norm(gram - np.eye(gram.shape[0])) > tol or op_norm(proj_gap) > tol:
            raise ValueError("wandering basis must orthonormally span the wandering subspace")
    wdim = wandering_basis.shape[1]
    if wdim == 0:
        raise WindowError("the wandering subspace is trivial; nothing to factor")

    star_level = _columns_max_level(space, wandering_basis)
    budget = space.max_level - star_level
    if budget < 1:
        raise WindowError(
            f"wandering vectors at level {star_level} leave no room for any word "
            f"below the truncation level {space.max_level}"
        )
    domain = TruncatedFockSpace(space.n, budget, wdim)
    letters = range(1, space.n + 1)
    # Column (mu, j) is S_mu applied to the j-th wandering vector. In canonical
    # order the first letter is outermost, so level L is S_1, ..., S_n applied
    # in turn to the whole level L - 1 block.
    blocks = [wandering_basis]
    for _ in range(budget):
        blocks.append(np.hstack([apply_creation(space, i, blocks[-1]) for i in letters]))
    phi = np.hstack(blocks)

    inner_residual = op_norm(phi.conj().T @ phi - np.eye(domain.dim))
    ma_residual = 0.0
    low = domain.dim_upto(budget - 1) if budget >= 1 else 0
    for i in letters:
        # Phi (S_i x I) on the domain, in F order as a dense-times-sparse product gives it
        diff = apply_annihilation(domain, i, phi.T).T - apply_creation(space, i, phi)
        ma_residual = max(ma_residual, op_norm(diff[:, :low]))

    covers = domain.dim == sub.dim
    pi = sub.basis.conj().T @ phi
    return BeurlingFactorization(
        sub, wandering_basis, domain, phi, pi, inner_residual, ma_residual, covers
    )


@dataclass(frozen=True)
class InducedSymbolResult:
    symbol: Symbol
    wmap: OdometerMap
    factorization: BeurlingFactorization
    intertwining_residual: float
    window: int


def induced_symbol(
    sub: InvariantSubspace,
    wmap: OdometerMap,
    tol: float | None = None,
    factorization: BeurlingFactorization | None = None,
) -> InducedSymbolResult:
    """Symbol of the subrepresentation carried by an odometer-invariant subspace.

    Requires the subspace to be invariant under the odometer map as well
    (range-inclusion measured as the projection residual of W restricted to
    the subspace). The induced symbol is the wandering compression of W, and
    the reported residual measures W Phi - Phi W_induced on the columns the
    word budget keeps exact.
    """
    tol = resolve_tol(tol)
    space = sub.ambient
    if wmap.space != space:
        raise ValueError("odometer map and subspace live on different spaces")
    w = wmap.operator.csc
    douglas = _orthogonal_part(sub.basis, w @ sub.basis)
    if douglas > tol:
        raise InvarianceError("subspace is not invariant under the odometer map", douglas)

    fact = factorization if factorization is not None else beurling_factorize(sub, tol)
    domain = fact.domain
    lift = fact.phi.conj().T @ (w @ fact.wandering_basis)
    symbol = symbol_from_dense(domain, lift, prune=1e-13)
    induced_map = build_odometer(symbol)

    window = domain.max_level - max(symbol.support_degree, wmap.symbol.support_degree)
    ncols = domain.dim_upto(window) if window >= 0 else 0
    diff = w @ fact.phi - fact.phi @ induced_map.operator.csc
    residual = op_norm(diff[:, :ncols])
    fact_with_symbol = replace(fact, induced_symbol=symbol)
    return InducedSymbolResult(symbol, induced_map, fact_with_symbol, residual, window)


def _columns_max_level(space: TruncatedFockSpace, columns: np.ndarray) -> int:
    d = space.coeff_dim
    mass = np.abs(columns).max(axis=1) if columns.size else np.zeros(space.dim)
    live = np.nonzero(mass > 1e-14)[0]
    if live.size == 0:
        return 0
    return space.level_of_word_index(int(live.max()) // d)
