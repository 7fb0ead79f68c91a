"""Wandering subspaces, inner factorizations, and induced subrepresentations."""

import math
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    creation_oracle,
    enumerate_words,
    haar_unitary,
    orthonormal_complement,
    random_symbol,
    reference_phi,
    same_bits,
    word_index,
)

from odofock import (
    DimensionLimitError,
    InvarianceError,
    TruncatedFockSpace,
    WindowError,
    beurling_factorize,
    build_odometer,
    constant_symbol,
    induced_symbol,
    invariant_subspace,
    levels_subspace,
    op_norm,
    scalar_symbol,
    wandering_subspace,
)
from odofock import beurling
from odofock.csc import CSC
from odofock.fock import apply_annihilation, apply_creation
from odofock.linalg import _certified_kernel, _rank_split, canonical_basis, orthonormal_columns


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
    screate = [creation_oracle(space, i) for i in (1, 2)]
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
        si_dom = creation_oracle(dom, i)
        si_amb = creation_oracle(space, i)
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
        word_index(space, w)
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
    # the words ending in 1 and the top-level word 112: a wandering vector
    # on the top level leaves no word budget, on the graded path, where the star
    # level is the highest wandering block, and on the mixed-level path, where
    # turned columns put it where the mass is
    words = [w for w in enumerate_words(2, 3) if w.letters[-1:] == (1,) or w.letters == (1, 1, 2)]
    cols = np.zeros((space.dim, len(words)), dtype=complex)
    cols[[word_index(space, w) for w in words], range(len(words))] = 1.0
    turned = cols @ haar_unitary(len(words), np.random.default_rng(3))
    for columns, graded in [(cols, True), (turned, False)]:
        assert (beurling._column_levels(space, columns) is not None) == graded
        sub = invariant_subspace(space, columns)
        assert max(sub.invariance_residuals) <= 1e-12 and sub.wandering_basis.shape[1] == 2
        with pytest.raises(WindowError, match="no room"):
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
        blocks.append(np.hstack([creation_oracle(space, i) @ blocks[-1]
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
                creation_oracle(space, i).toarray() for i in range(1, n + 1)
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
    # the identity columns are graded and their own basis: the part below the
    # top level is the blocks under it, with no kernel, and the overlap of each
    # level with the one below is an isometry, so its certified kernel is empty
    # with no eigh: invariant_subspace runs no SVD and no eigh at all; the later
    # steps read the stored basis and levels
    calls = Counter()

    def counting(name, decomposition):
        def counted(*args, **kwargs):
            calls[stage, name] += 1
            return decomposition(*args, **kwargs)
        return counted

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
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
        assert calls == Counter()
        assert wander is sub.wandering_basis and fact.wandering_basis is wander
        assert result.intertwining_residual <= 1e-10


def test_graded_subspaces_are_decided_from_the_basis_entries(monkeypatch):
    # a unit vector on level 1 and its creation images are orthonormal and graded:
    # the basis gap, the creation defects and each level's overlap come from the
    # entries, and every overlap above the generator is an isometry, so no SVD
    # and no eigh runs; the subspace stores the entries of its basis
    calls = Counter()

    def counting(name, decomposition):
        def counted(*args, **kwargs):
            calls[name] += 1
            return decomposition(*args, **kwargs)
        return counted

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(2103)
    space = TruncatedFockSpace(2, 6, 1)
    columns = mixed_level_columns(space, (1,), rng)
    columns /= np.linalg.norm(columns[:, 0])
    sub = invariant_subspace(space, columns)
    assert calls == Counter()
    assert sub.levels is not None and sub.wandering_basis.shape == (space.dim, 1)
    assert max(sub.invariance_residuals) <= 1e-12
    # the entries are those of the basis whether C was orthonormal or took an SVD
    unnormalized = invariant_subspace(space, mixed_level_columns(space, (1, 2), rng))
    for graded in (sub, levels_subspace(space, 1), unnormalized):
        entries = CSC.from_dense(graded.basis)
        for name in ("indptr", "indices"):
            assert np.array_equal(getattr(graded.entries, name), getattr(entries, name))
        assert same_bits(graded.entries.data, entries.data)
    turned = columns @ haar_unitary(columns.shape[1], rng)
    assert invariant_subspace(space, turned).entries is None


def test_graded_subspace_peaks_below_one_dense_level_gram():
    # n = 2, M = 10: the top level alone has 1024 identity columns, whose dense
    # Gram takes 16 MB; the entries hold one value per column
    space = TruncatedFockSpace(2, 10, 1)
    columns = levels_subspace(space, 1).basis
    tracemalloc.start()
    try:
        sub = invariant_subspace(space, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sub.levels is not None and max(sub.invariance_residuals) == 0.0
    assert sub.wandering_basis.shape == (space.dim, 2)
    assert peak < 1024**2 * 16, f"invariant_subspace peaked at {peak / 2**20:.1f} MB"


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


def test_factorization_and_induced_symbol_allocate_less_than_one_dense_phi():
    # the dilate_factor benchmark's levels-n2M8d1 and generated-n2M9d1 shapes.
    # The generator (1, 1) / sqrt(2) on level 1 is fixed by the odometer's carry
    # out of the all-2 words, so its creation-generated subspace is invariant
    # under the odometer of the symbol 1 too
    rng = np.random.default_rng(1604)
    levels_space = TruncatedFockSpace(2, 8, 1)
    generated_space = TruncatedFockSpace(2, 9, 1)
    generator = np.zeros((generated_space.dim, 1), dtype=complex)
    generator[generated_space.level_slice(1), 0] = 2**-0.5
    blocks = [generator]
    for _ in range(generated_space.max_level - 1):
        blocks.append(np.hstack([apply_creation(generated_space, i, blocks[-1]) for i in (1, 2)]))
    cases = [
        (levels_subspace(levels_space, 1),
         build_odometer(constant_symbol(levels_space, haar_unitary(1, rng)))),
        (invariant_subspace(generated_space, np.hstack(blocks)),
         build_odometer(scalar_symbol(generated_space, [1.0]))),
    ]
    for sub, wmap in cases:
        space = sub.ambient
        tracemalloc.start()
        try:
            fact = beurling_factorize(sub)
            induced = induced_symbol(sub, wmap, factorization=fact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        dense_phi = space.dim * fact.domain.dim * np.dtype(complex).itemsize
        assert peak < dense_phi, f"peaked at {peak / 2**20:.2f} MB"
        assert sub.levels is not None and fact.covers_subspace
        assert induced.window >= 0 and induced.intertwining_residual <= 1e-12
        phi = reference_phi(space, fact.wandering_basis, fact.domain.max_level)
        assert same_bits(fact.phi, phi)


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


# the modules that may call each np.linalg decomposition: every rank decision and
# dense norm goes through `linalg` (its certified kernels by a Gram `eigh`), each
# row contraction is decomposed by one `eigh` in `dilation`, and the gallery's
# spectra are the only eigenvalue solves: `eig` of each level's cycle product
# and `eigvals` of the symbol's level-0 block
DECOMPOSITION_CALLERS = {
    "svd": {"linalg.py"},
    "eigvalsh": {"linalg.py"},
    "eigh": {"dilation.py", "linalg.py"},
    "eig": {"gallery.py"},
    "eigvals": {"gallery.py"},
}


def test_decompositions_are_called_only_where_the_table_allows():
    src = Path(__file__).resolve().parents[1] / "src" / "odofock"
    calls = Counter()
    for module in src.glob("*.py"):
        for name in re.findall(r"np\.linalg\.(\w+)\(", module.read_text()):
            if name != "norm":
                calls[name, module.name] += 1
    callers = {}
    for name, module in calls:
        callers.setdefault(name, set()).add(module)
    assert callers == DECOMPOSITION_CALLERS
    assert calls["eigh", "dilation.py"] == 1


def test_induced_symbol_on_an_empty_window_is_vacuous():
    # support degree 3 at level 3 leaves the word budget of levels 1..3 no exact column
    space = TruncatedFockSpace(2, 3, 1)
    sub = levels_subspace(space, 1)
    vacuous = induced_symbol(sub, build_odometer(scalar_symbol(space, [0.0, 0.0, 0.0, 1.0])))
    assert vacuous.window == -1 and vacuous.vacuous
    assert math.isnan(vacuous.intertwining_residual)
    tested = induced_symbol(sub, build_odometer(scalar_symbol(space, [1.0])))
    assert tested.window >= 0 and not tested.vacuous
    assert tested.intertwining_residual <= 1e-12


def projector_gap(a, b):
    return np.abs(a @ a.conj().T - b @ b.conj().T).max()


def with_singular_values(rng, rows, cols, values):
    """A rows x cols matrix with nonzero singular values `values`, between Haar-random
    orthonormal columns and rows."""
    m = len(values)
    u = haar_unitary(rows, rng)[:, :m]
    v = haar_unitary(cols, rng)[:, :m]
    return (u * np.asarray(values)) @ v.conj().T


def test_certified_kernel_decides_the_svd_rank(monkeypatch):
    # ranks equal exactly and kernels by projector; a singular value between
    # tol and 1/2 fails the certificate and takes the SVD
    svds = Counter()

    def counting(name, decomposition):
        def counted(*args, **kwargs):
            svds[name] += 1
            return decomposition(*args, **kwargs)
        return counted

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    rng = np.random.default_rng(1103)
    space = TruncatedFockSpace(2, 4, 1)
    grams = []  # projection Grams: the top rows and the overlaps of graded subspaces
    for sub in (levels_subspace(space, lo) for lo in range(4)):
        grams.append(sub.basis[space.dim_upto(space.max_level - 1):])
        grams.append(np.vstack([sub.basis.conj().T @ apply_annihilation(space, i, sub.basis)
                                for i in (1, 2)]))
    separated = [with_singular_values(rng, rows, cols, vals) for rows, cols, vals in
                 [(12, 5, [2.0, 1.0, 0.8]), (3, 6, [1.5, 0.9]), (9, 4, [1.0] * 4),
                  (7, 3, []), (4, 9, [3.0, 1.0, 1.0, 0.75])]]
    gaussian = [rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
                for r, c in [(11, 4), (4, 11), (6, 6)]]
    planted = with_singular_values(rng, 8, 4, [1.0, 1.0, 1e-9])
    cases = [(m, 0) for m in grams + separated] + [(planted, 1)]
    cases += [(m, None) for m in gaussian]  # either path
    for mat, svds_expected in cases:
        svds.clear()
        kernel = _certified_kernel(mat, 1e-10)
        assert svds_expected is None or svds["svd"] == svds_expected
        expected = _rank_split(mat, 1e-10)[1]
        assert kernel.shape == expected.shape
        assert projector_gap(kernel, expected) <= 1e-12
    # the planted value counts toward the rank, as the SVD's s > tol decides
    assert _certified_kernel(planted, 1e-10).shape == (4, 1)
    # near-isometries: with ||G - I||_F just below tol the kernel is empty with
    # no eigh; just above, one eigh decides the same empty kernel, still with
    # no SVD; with tol >= 1/2 the certificate does not apply and the SVD decides
    for gap, tol, expected_calls in [(0.9e-10, 1e-10, {}), (1.1e-10, 1e-10, {"eigh": 1}),
                                     (0.0, 0.6, {"eigh": 1, "svd": 1})]:
        for rows, cols in [(9, 4), (4, 4), (30, 1)]:
            # cols singular values with squares 1 + gap / sqrt(cols): ||G - I||_F = gap
            values = np.sqrt(np.full(cols, 1 + gap / math.sqrt(cols)))
            mat = with_singular_values(rng, rows, cols, values)
            frobenius = np.linalg.norm(mat.conj().T @ mat - np.eye(cols))
            assert abs(frobenius - gap) <= 1e-14
            svds.clear()
            kernel = _certified_kernel(mat, tol)
            assert svds == Counter(expected_calls)
            assert kernel.shape == (cols, 0) == _rank_split(mat, tol)[1].shape
            assert kernel.dtype == complex


def mixed_level_columns(space, levels, rng):
    """Columns S_mu v for random v at each of `levels` and every word mu that fits."""
    blocks = []
    for level in levels:
        sl = space.level_slice(level)
        gen = np.zeros((space.dim, 1), dtype=complex)
        gen[sl, 0] = rng.standard_normal(sl.stop - sl.start) + 1j * rng.standard_normal(
            sl.stop - sl.start)
        blocks.append(gen)
        for _ in range(space.max_level - level):
            blocks.append(np.hstack([apply_creation(space, i, blocks[-1])
                                     for i in range(1, space.n + 1)]))
    return np.hstack(blocks)


def svd_path(space, columns, tol):
    """The subspace, residuals and wandering basis with every rank decided by an SVD."""
    basis = orthonormal_columns(columns, tol)
    interior = basis @ _rank_split(basis[space.dim_upto(space.max_level - 1):], tol)[1]
    letters = range(1, space.n + 1)
    images = [apply_creation(space, i, interior) for i in letters]
    residuals = [op_norm(x - basis @ (basis.conj().T @ x)) for x in images]
    overlap = np.vstack([basis.conj().T @ apply_annihilation(space, i, basis) for i in letters])
    return basis, residuals, basis @ _rank_split(overlap, tol)[1]


def test_certified_subspaces_match_the_svd_path_on_mixed_levels():
    rng = np.random.default_rng(77)
    tol = 1e-10
    for n, max_level, d in [(2, 7, 1), (3, 4, 2), (2, 6, 2)]:
        space = TruncatedFockSpace(n, max_level, d)
        generated = mixed_level_columns(space, (1, 2), rng)
        cases = [generated, generated[:, :-1], generated @ haar_unitary(generated.shape[1], rng),
                 levels_subspace(space, 2).basis, np.hstack([levels_subspace(space, 3).basis,
                                                              generated[:, :1]])]
        for columns in cases:
            sub = invariant_subspace(space, columns, tol)
            basis, residuals, wandering = svd_path(space, columns, tol)
            assert sub.dim == basis.shape[1] and projector_gap(sub.basis, basis) <= 1e-12
            assert sub.wandering_basis.shape == wandering.shape
            assert projector_gap(sub.wandering_basis, wandering) <= 1e-12
            assert [r <= tol for r in sub.invariance_residuals] == [r <= tol for r in residuals]
            assert np.allclose(sub.invariance_residuals, residuals, rtol=0, atol=1e-12)


def test_subspace_with_nothing_below_the_top_level_is_vacuous():
    # three random columns own three independent top-level parts, so no vector
    # of S lies below the top level: creation invariance tests nothing
    space = TruncatedFockSpace(2, 4, 1)
    columns = np.random.default_rng(5).standard_normal((space.dim, 3))
    sub = invariant_subspace(space, columns)
    assert len(sub.invariance_residuals) == 2
    assert all(math.isnan(r) for r in sub.invariance_residuals)
    for call in (wandering_subspace, beurling_factorize):
        with pytest.raises(WindowError, match="vacuous"):
            call(sub)


def on_level(space, level, count, rng):
    """`count` Gaussian columns that are exactly zero outside `level`."""
    sl = space.level_slice(level)
    shape = (sl.stop - sl.start, count)
    cols = np.zeros((space.dim, count), dtype=complex)
    cols[sl] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return cols


def graded_cases(space, rng):
    """(name, columns, graded) with each column on one level, covering the graded
    path's edge cases, and one set that a single 1e-300 entry makes mixed-level."""
    n, top = space.n, space.max_level
    closed = mixed_level_columns(space, (1,), rng)  # v, then n columns on level 2, ...
    broken = closed.copy()
    broken[:, 1 : 1 + n] = on_level(space, 2, n, rng)
    off_level = closed.copy()
    off_level[-1, 0] = 1e-300
    return [
        ("level-0 generator", mixed_level_columns(space, (0,), rng), True),
        ("two generators", mixed_level_columns(space, (1, 2), rng), True),
        ("empty middle level", np.hstack([on_level(space, 1, 2, rng),
                                          levels_subspace(space, 3).basis]), True),
        ("top level", on_level(space, top, 2, rng), True),
        ("not invariant", broken, True),
        ("repeated column", np.hstack([closed, closed[:, 1:2]]), True),
        ("off-level entry", off_level, False),
    ]


GRADED_SPACES = [(1, 7, 2), (2, 7, 1), (2, 5, 2), (3, 4, 1), (3, 3, 2)]


def test_graded_subspaces_match_the_svd_path(monkeypatch):
    runs = Counter()
    graded_parts = beurling._graded_parts

    def spy(*args):
        runs["graded"] += 1
        return graded_parts(*args)

    monkeypatch.setattr(beurling, "_graded_parts", spy)
    rng = np.random.default_rng(1601)
    tol = 1e-10
    for n, max_level, d in GRADED_SPACES:
        space = TruncatedFockSpace(n, max_level, d)
        for name, columns, graded in graded_cases(space, rng):
            runs.clear()
            sub = invariant_subspace(space, columns, tol)
            assert runs["graded"] == graded, name
            basis, residuals, wandering = svd_path(space, columns, tol)
            assert sub.dim == basis.shape[1] and projector_gap(sub.basis, basis) <= 1e-12, name
            assert sub.wandering_basis.shape == wandering.shape, name
            assert projector_gap(sub.wandering_basis, wandering) <= 1e-12, name
            if name == "top level":
                assert all(math.isnan(r) for r in sub.invariance_residuals)
                for call in (wandering_subspace, beurling_factorize):
                    with pytest.raises(WindowError, match="vacuous"):
                        call(sub)
                continue
            assert [r <= tol for r in sub.invariance_residuals] == [r <= tol for r in residuals]
            assert np.allclose(sub.invariance_residuals, residuals, rtol=0, atol=1e-12), name
            if name in ("not invariant", "empty middle level"):
                assert max(residuals) > tol
                with pytest.raises(InvarianceError):
                    wandering_subspace(sub, tol)


def test_graded_odometer_defect_matches_the_dense_check():
    # ||(I - QQ^H) W Q|| one column level at a time equals the dense D x k
    # formula of the mixed-level path, for symbols of support degree 0 to 2:
    # block diagonal at 0, placed in one sparse matrix above
    rng = np.random.default_rng(1605)
    for n, max_level, d in GRADED_SPACES:
        space = TruncatedFockSpace(n, max_level, d)
        symbols = [constant_symbol(space, haar_unitary(d, rng))]
        symbols += [random_symbol(space, s, rng) for s in range(min(3, max_level + 1))]
        columns = [c for _, c, graded in graded_cases(space, rng) if graded]
        columns.append(levels_subspace(space, 1).basis)
        for cols in columns:
            sub = invariant_subspace(space, cols)
            assert sub.levels is not None
            for symbol in symbols:
                w = build_odometer(symbol).operator.csc
                graded = beurling._graded_odometer_defect(sub, w)
                dense = beurling._orthogonal_part(sub.basis, w @ sub.basis)
                assert abs(graded - dense) <= 1e-12 * max(1.0, dense)
                # levels 1..M are invariant under every odometer map, to the bit
                if cols is columns[-1]:
                    assert graded == dense == 0.0


def factor_both_ways(space, columns, monkeypatch, wmap=None):
    """The factorization (and induced symbol) on the path the columns take and on
    the mixed-level path, forced by reporting no grading."""
    results = []
    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                patch.setattr(beurling, "_column_levels", lambda space, columns: None)
            sub = invariant_subspace(space, columns)
            fact = beurling_factorize(sub)
            induced = induced_symbol(sub, wmap, factorization=fact) if wmap else None
        results.append((sub, fact, induced))
    return results


def test_graded_factorization_matches_the_mixed_level_path(monkeypatch):
    rng = np.random.default_rng(1602)
    for n, max_level, d in GRADED_SPACES:
        space = TruncatedFockSpace(n, max_level, d)
        wmap = build_odometer(constant_symbol(space, haar_unitary(d, rng)))
        cases = [(mixed_level_columns(space, (0,), rng), None),
                 (mixed_level_columns(space, (1, 2), rng), None),
                 (levels_subspace(space, 1).basis, wmap)]
        for columns, w in cases:
            (sub, fact, induced), (sub2, fact2, induced2) = factor_both_ways(
                space, columns, monkeypatch, w)
            assert np.allclose(sub.invariance_residuals, sub2.invariance_residuals,
                               rtol=0, atol=1e-12)
            assert np.abs(sub.wandering_basis - sub2.wandering_basis).max() <= 1e-12
            assert fact.wandering_dim == fact2.wandering_dim
            assert fact.covers_subspace == fact2.covers_subspace
            assert fact.domain == fact2.domain
            assert abs(fact.inner_residual - fact2.inner_residual) <= 1e-12
            assert abs(fact.multi_analytic_residual - fact2.multi_analytic_residual) <= 1e-12
            assert np.abs(fact.phi - fact2.phi).max() <= 1e-12
            # pi is in subspace coordinates, whose gauge differs between the paths
            assert np.abs(sub.basis @ fact.pi - sub2.basis @ fact2.pi).max() <= 1e-12
            if w is not None:
                gap = induced.symbol.matrix.toarray() - induced2.symbol.matrix.toarray()
                assert np.abs(gap).max() <= 1e-12


def test_canonical_wandering_gauge_depends_on_the_span_alone():
    rng = np.random.default_rng(1603)
    for rows, k in [(9, 1), (12, 3), (40, 5)]:
        basis = haar_unitary(rows, rng)[:, :k]
        canon = canonical_basis(basis)
        assert np.abs(canon - canonical_basis(basis @ haar_unitary(k, rng))).max() <= 1e-12
        assert np.abs(canon.conj().T @ canon - np.eye(k)).max() <= 1e-12
        assert projector_gap(canon, basis) <= 1e-12
        # column j has a positive real pivot at a row where the later columns vanish
        for j in range(k):
            later = np.abs(canon[:, j + 1 :]).max(axis=1, initial=0.0)
            assert np.any((canon[:, j].imag == 0) & (canon[:, j].real > 0) & (later <= 1e-12))
    # turning the spanning columns by a unitary mixes their levels and forces the
    # mixed-level path; the induced symbol moves by rounding only
    space = TruncatedFockSpace(2, 5, 2)
    wmap = build_odometer(constant_symbol(space, haar_unitary(2, rng)))
    columns = levels_subspace(space, 1).basis
    turned = columns @ haar_unitary(columns.shape[1], rng)
    assert beurling._column_levels(space, turned) is None
    graded = induced_symbol(invariant_subspace(space, columns), wmap)
    mixed = induced_symbol(invariant_subspace(space, turned), wmap)
    assert graded.symbol.matrix.shape == mixed.symbol.matrix.shape
    gap = graded.symbol.matrix.toarray() - mixed.symbol.matrix.toarray()
    assert np.abs(gap).max() <= 1e-10
    # a sign change of a wandering column keeps the columns graded and exact:
    # the symbol is the same to the bit
    flipped = columns.copy()
    flipped[:, 0] *= -1
    again = induced_symbol(invariant_subspace(space, flipped), wmap)
    assert same_bits(graded.symbol.matrix.toarray(), again.symbol.matrix.toarray())
