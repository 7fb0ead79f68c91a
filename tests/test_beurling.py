"""Wandering subspaces, inner factorizations, and induced subrepresentations."""

import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import haar_unitary, reference_phi, same_bits

from odofock import (
    DimensionLimitError,
    InvarianceError,
    TruncatedFockSpace,
    WindowError,
    beurling_factorize,
    build_odometer,
    constant_symbol,
    creation_operator,
    enumerate_words,
    induced_symbol,
    invariant_subspace,
    levels_subspace,
    op_norm,
    orthonormal_complement,
    scalar_symbol,
    wandering_subspace,
)


def span_equals(basis, indices, dim, tol=1e-12):
    """The column span coincides with the coordinate subspace at `indices`."""
    target = np.zeros((dim, len(indices)), dtype=complex)
    for j, idx in enumerate(indices):
        target[idx, j] = 1.0
    if basis.shape[1] != len(indices):
        return False
    proj = basis @ basis.conj().T
    return np.abs(proj @ target - target).max() <= tol


def test_wandering_of_whole_space_is_vacuum_block():
    space = TruncatedFockSpace(2, 3, 2)
    sub = levels_subspace(space, 0)
    wander = wandering_subspace(sub)
    assert span_equals(wander, list(range(2)), space.dim)


def test_wandering_of_levels_one_up_is_first_level():
    space = TruncatedFockSpace(2, 4, 1)
    sub = levels_subspace(space, 1)
    wander = wandering_subspace(sub)
    sl = space.level_slice(1)
    assert span_equals(wander, list(range(sl.start, sl.stop)), space.dim)


def test_wandering_of_shift_range_unary_alphabet():
    # over a one-letter alphabet the range of the creation operator is an
    # invariant subspace whose wandering space is the first-level slice
    space = TruncatedFockSpace(1, 4, 2)
    sub = levels_subspace(space, 1)
    wander = wandering_subspace(sub)
    sl = space.level_slice(1)
    assert span_equals(wander, list(range(sl.start, sl.stop)), space.dim)
    assert wander.shape[1] == space.coeff_dim


def test_factorize_whole_space_is_identity_up_to_wandering_rotation():
    space = TruncatedFockSpace(2, 3, 2)
    sub = levels_subspace(space, 0)
    fact = beurling_factorize(sub)
    assert fact.covers_subspace
    assert fact.inner_residual <= 1e-12
    assert fact.multi_analytic_residual <= 1e-12
    assert fact.domain.dim == space.dim
    rank = int(np.sum(np.linalg.svd(fact.phi, compute_uv=False) > 1e-10))
    assert rank == space.dim


def test_factorization_splits_through_subspace_coordinates():
    # phi = (inclusion of S) composed with pi, as matrices
    space = TruncatedFockSpace(2, 4, 2)
    sub = levels_subspace(space, 1)
    fact = beurling_factorize(sub)
    assert np.allclose(sub.basis @ fact.pi, fact.phi, atol=1e-13)
    gram = fact.pi.conj().T @ fact.pi
    assert np.abs(gram - np.eye(fact.domain.dim)).max() <= 1e-12


def test_induced_symbol_nonconstant_ambient():
    space = TruncatedFockSpace(2, 5, 1)
    ambient = scalar_symbol(space, [0.6, 0.0, 0.8])
    wmap = build_odometer(ambient)
    sub = levels_subspace(space, 1)
    result = induced_symbol(sub, wmap)
    assert result.window >= 1
    assert result.intertwining_residual <= 1e-10


def test_factorize_levels_subspace_dimension_count():
    # levels 1..M split as the orthogonal sum of words applied to level 1
    for d in (1, 2):
        space = TruncatedFockSpace(2, 5, d)
        sub = levels_subspace(space, 1)
        fact = beurling_factorize(sub)
        assert fact.wandering_dim == 2 * d
        assert fact.domain.max_level == space.max_level - 1
        assert fact.domain.dim == sub.dim
        assert fact.covers_subspace
        assert fact.inner_residual <= 1e-12
        assert fact.multi_analytic_residual <= 1e-12


def test_factorization_word_action_identities():
    space = TruncatedFockSpace(2, 4, 1)
    sub = levels_subspace(space, 1)
    fact = beurling_factorize(sub)
    screate = [creation_operator(i, space).matrix for i in (1, 2)]
    for wi, word in enumerate(enumerate_words(2, fact.domain.max_level)):
        moved = fact.wandering_basis.copy()
        for letter in reversed(word.letters):
            moved = screate[letter - 1] @ moved
        for j in range(fact.wandering_dim):
            col = fact.phi[:, wi * fact.wandering_dim + j]
            assert np.allclose(col, moved[:, j], atol=1e-12)
            back = fact.phi.conj().T @ moved[:, j]
            expected = np.zeros(fact.domain.dim, dtype=complex)
            expected[wi * fact.wandering_dim + j] = 1.0
            assert np.allclose(back, expected, atol=1e-12)


def test_induced_symbol_whole_space_reproduces_map():
    rng = np.random.default_rng(6)
    space = TruncatedFockSpace(2, 3, 2)
    symbol = constant_symbol(space, haar_unitary(2, rng))
    wmap = build_odometer(symbol)
    sub = levels_subspace(space, 0)
    result = induced_symbol(sub, wmap)
    assert result.intertwining_residual <= 1e-10
    # with S the whole space the factorization conjugates W by a unitary
    conj = result.factorization.phi.conj().T @ wmap.operator.matrix @ result.factorization.phi
    ncols = result.factorization.domain.dim_upto(result.window)
    diff = conj - build_odometer(result.symbol).operator.matrix
    assert np.abs(diff[:, :ncols]).max() <= 1e-10


def test_induced_symbol_of_levels_subspace_is_constant():
    rng = np.random.default_rng(61)
    space = TruncatedFockSpace(2, 5, 2)
    block = haar_unitary(2, rng)
    wmap = build_odometer(constant_symbol(space, block))
    sub = levels_subspace(space, 1)
    result = induced_symbol(sub, wmap)
    assert result.symbol.support_degree == 0
    assert result.intertwining_residual <= 1e-10
    # the induced level-0 block is the compression of W to the wandering space
    wander = result.factorization.wandering_basis
    oracle = wander.conj().T @ wmap.operator.matrix @ wander
    induced_block = result.symbol.matrix[: result.factorization.wandering_dim, :].toarray()
    assert np.abs(induced_block - oracle).max() <= 1e-12
    eye = np.eye(result.factorization.wandering_dim)
    assert op_norm(induced_block.conj().T @ induced_block - eye) <= 1e-12


def test_subrepresentation_unitary_equivalence():
    rng = np.random.default_rng(71)
    space = TruncatedFockSpace(2, 5, 1)
    wmap = build_odometer(constant_symbol(space, haar_unitary(1, rng)))
    sub = levels_subspace(space, 1)
    result = induced_symbol(sub, wmap)
    phi = result.factorization.phi
    dom = result.factorization.domain
    ncols = dom.dim_upto(result.window)
    w_ind = build_odometer(result.symbol).operator.matrix
    assert np.abs((wmap.operator.matrix @ phi - phi @ w_ind)[:, :ncols]).max() <= 1e-10
    low = dom.dim_upto(dom.max_level - 1)
    for i in (1, 2):
        si_dom = creation_operator(i, dom).matrix
        si_amb = creation_operator(i, space).matrix
        assert np.abs((si_amb @ phi - phi @ si_dom)[:, :low]).max() <= 1e-10


def test_two_wandering_bases_differ_by_unitary():
    rng = np.random.default_rng(77)
    space = TruncatedFockSpace(2, 5, 1)
    sub = levels_subspace(space, 1)
    fact = beurling_factorize(sub)
    rot = haar_unitary(fact.wandering_dim, rng)
    fact2 = beurling_factorize(sub, wandering_basis=fact.wandering_basis @ rot)
    overlap = fact.phi.conj().T @ fact2.phi
    wdim = fact.wandering_dim
    words = fact.domain.num_words
    tau = sum(
        overlap[wi * wdim : (wi + 1) * wdim, wi * wdim : (wi + 1) * wdim]
        for wi in range(words)
    ) / words
    assert op_norm(tau.conj().T @ tau - np.eye(wdim)) <= 1e-10
    assert op_norm(overlap - np.kron(np.eye(words), tau)) <= 1e-10
    assert op_norm(tau - rot) <= 1e-10


def test_induced_symbol_rejects_non_invariant_subspace():
    # words ending in the last letter form a creation-invariant subspace that
    # the vacuum symbol's odometer map leaves: W sends that level-1 word to a
    # word ending in 1
    space = TruncatedFockSpace(2, 3, 1)
    indices = [
        space.word_index(w)
        for w in enumerate_words(2, 3)
        if w.letters and w.letters[-1] == 2
    ]
    cols = np.zeros((space.dim, len(indices)), dtype=complex)
    for j, idx in enumerate(indices):
        cols[idx, j] = 1.0
    sub = invariant_subspace(space, cols)
    assert max(sub.invariance_residuals) <= 1e-12
    wmap = build_odometer(scalar_symbol(space, [1.0]))
    with pytest.raises(InvarianceError) as err:
        induced_symbol(sub, wmap)
    assert err.value.residual >= 0.9


def test_factorize_rejects_boundary_wandering_vectors():
    space = TruncatedFockSpace(2, 3, 1)
    sub = levels_subspace(space, 3)
    with pytest.raises(WindowError):
        beurling_factorize(sub)


def test_wandering_requires_creation_invariance():
    space = TruncatedFockSpace(2, 3, 1)
    cols = np.zeros((space.dim, 1), dtype=complex)
    cols[space.dim_upto(0), 0] = 1.0  # the single word (1): not invariant
    sub = invariant_subspace(space, cols)
    assert max(sub.invariance_residuals) > 0.9
    with pytest.raises(InvarianceError):
        wandering_subspace(sub)


def creation_generated_subspace(space, level, rng):
    """The creation-invariant subspace generated by one random vector at `level`."""
    sl = space.level_slice(level)
    size = sl.stop - sl.start
    gen = np.zeros((space.dim, 1), dtype=complex)
    gen[sl, 0] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    blocks = [gen]
    for _ in range(space.max_level - level):
        blocks.append(np.hstack([creation_operator(i, space).matrix @ blocks[-1]
                                 for i in range(1, space.n + 1)]))
    return invariant_subspace(space, np.hstack(blocks))


def test_factorization_matches_word_by_word_oracle_bit_for_bit():
    # the wandering basis spans the dense oracle's complement; Phi is the
    # word-by-word oracle fed that basis, bit for bit
    rng = np.random.default_rng(41)
    for n, d, levels in [(2, 1, range(2, 7)), (3, 2, range(2, 5))]:
        for max_level in levels:
            space = TruncatedFockSpace(n, max_level, d)
            subs = [levels_subspace(space, lo) for lo in range(max_level)]
            subs += [creation_generated_subspace(space, lv, rng) for lv in range(1, max_level)]
            dense_creations = [
                creation_operator(i, space).matrix.toarray() for i in range(1, n + 1)
            ]
            for sub in subs:
                fact = beurling_factorize(sub)
                images = np.hstack([s @ sub.basis for s in dense_creations])
                wandering = orthonormal_complement(images, sub.basis, 1e-10)
                basis = fact.wandering_basis
                assert basis.shape == wandering.shape
                assert np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
                projector_gap = basis @ basis.conj().T - wandering @ wandering.conj().T
                assert np.abs(projector_gap).max() <= 1e-12
                phi = reference_phi(space, basis, fact.domain.max_level)
                assert same_bits(fact.phi, phi)


def test_wandering_subspace_is_computed_once_per_subspace(monkeypatch):
    # three SVDs per invariant_subspace call: the basis, its part below the
    # top level and the wandering basis; the later steps read the stored basis
    calls = Counter()
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls[stage] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = np.random.default_rng(62)
    space = TruncatedFockSpace(2, 5, 2)
    wmap = build_odometer(constant_symbol(space, haar_unitary(2, rng)))
    for lo in (0, 1, 2):
        calls.clear()
        stage = "invariant_subspace"
        sub = levels_subspace(space, lo)
        stage = "later"
        wander = wandering_subspace(sub)
        fact = beurling_factorize(sub)
        result = induced_symbol(sub, wmap, factorization=fact)
        assert calls == Counter({"invariant_subspace": 3})
        assert wander is sub.wandering_basis and fact.wandering_basis is wander
        assert result.intertwining_residual <= 1e-10


def test_one_dimensional_column_is_one_generator():
    space = TruncatedFockSpace(2, 3, 1)
    e0 = np.zeros(space.dim)
    e0[0] = 1.0
    sub = invariant_subspace(space, e0)
    assert sub.dim == 1 and np.abs(sub.basis[:, 0]).tolist() == e0.tolist()
    with pytest.raises(ValueError):
        invariant_subspace(space, e0.reshape(space.dim, 1, 1))


def test_levels_subspace_rejects_ranges_outside_the_levels():
    space = TruncatedFockSpace(2, 3, 2)
    for lo, hi in [(1, 0), (2, 5), (-1, None), (4, None)]:
        with pytest.raises(ValueError):
            levels_subspace(space, lo, hi)
    assert levels_subspace(space, 2, 3).dim == space.dim - space.dim_upto(1)


def test_levels_subspace_allocates_only_its_columns():
    # D = 4094 both times: an identity of size D would take 256 MB. One letter
    # makes the top level a single row; at n = 2, d = 2 the top-level block
    # has 2048 rows, whose full U (64 MB) a thin SVD does not form
    for space, limit in [(TruncatedFockSpace(1, 4093, 1), 32), (TruncatedFockSpace(2, 10, 2), 8)]:
        tracemalloc.start()
        try:
            sub = levels_subspace(space, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.dim == space.dim_upto(1)
        assert span_equals(sub.basis, range(space.dim_upto(1)), space.dim)
        assert peak < limit * 2**20, f"levels_subspace peaked at {peak / 2**20:.1f} MB"


def test_levels_subspace_refuses_above_the_dense_limit_before_allocating():
    # D = 8193, one above the limit: the columns of all levels would take 1 GB
    space = TruncatedFockSpace(1, 8192, 1)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimitError):
            levels_subspace(space, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"levels_subspace peaked at {peak / 2**20:.1f} MB before refusing"


def test_only_linalg_calls_the_svd():
    # every rank decision goes through one routine in `linalg`
    src = Path(__file__).resolve().parents[1] / "src" / "odofock"
    callers = sorted(f.name for f in src.glob("*.py") if "np.linalg.svd" in f.read_text())
    assert callers == ["linalg.py"]
