"""Odometer map construction, verification, adjoints, and norm bounds."""

import tracemalloc

import numpy as np
import pytest
from helpers import (
    Word,
    basis_index,
    creation_oracle,
    haar_unitary,
    random_constant_unitary_symbol,
    random_isometric_symbol,
    random_ones_diagonal_symbol,
    random_symbol,
    reference_adjoint,
    reference_odometer,
    same_stored_bits,
    small_spaces,
    symbol_of_kind,
    word_index,
)
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from odofock import (
    NotIsometricError,
    Operator,
    TruncatedFockSpace,
    adjoint_isometric,
    build_odometer,
    check_isometric,
    constant_symbol,
    norm_bounds,
    scalar_symbol,
    symbol_from_dense,
    verify_fock_representation,
)
from odofock.csc import CSC
from odofock.odometer import _odometer_columns


def basis_vec(space, letters, p=0):
    v = np.zeros(space.dim, dtype=complex)
    v[basis_index(space, Word(tuple(letters), space.n), p)] = 1.0
    return v


def test_vacuum_symbol_gives_frozen_permutation():
    space = TruncatedFockSpace(2, 2, 1)
    w = build_odometer(scalar_symbol(space, [1.0])).operator.matrix
    mapping = {
        (): (),
        (1,): (2,),
        (2,): (1,),
        (1, 1): (2, 1),
        (2, 1): (1, 2),
        (1, 2): (2, 2),
        (2, 2): (1, 1),
    }
    for src, dst in mapping.items():
        assert np.array_equal(w @ basis_vec(space, src), basis_vec(space, dst))


def test_remark_norm_witness_vector():
    # L = (e1 + e1 e1)/sqrt2 sends x = (e2 + e2 e2)/sqrt2 to a vector of norm^2 = 3/2
    space = TruncatedFockSpace(2, 4, 1)
    symbol = scalar_symbol(space, [0.0, 2**-0.5, 2**-0.5])
    wmap = build_odometer(symbol)
    x = (basis_vec(space, (2,)) + basis_vec(space, (2, 2))) / np.sqrt(2)
    wx = wmap.operator.matrix @ x
    expected = 0.5 * (
        basis_vec(space, (1, 1))
        + 2.0 * basis_vec(space, (1, 1, 1))
        + basis_vec(space, (1, 1, 1, 1))
    )
    assert np.allclose(wx, expected, atol=1e-15)
    assert abs(np.linalg.norm(wx) ** 2 - 1.5) <= 1e-14


def test_zero_symbol_kills_all_overflow_columns():
    space = TruncatedFockSpace(2, 3, 1)
    symbol = scalar_symbol(space, [0.0])
    w = build_odometer(symbol).operator.matrix.toarray()
    for m in range(space.max_level + 1):
        col = basis_index(space, Word((2,) * m, 2))
        assert np.array_equal(w[:, col], np.zeros(space.dim, dtype=complex))
    # non-overflow columns still carry
    assert np.array_equal(w @ basis_vec(space, (1, 2)), basis_vec(space, (2, 2)))


def test_vacuum_column_is_symbol_exactly():
    rng = np.random.default_rng(11)
    space = TruncatedFockSpace(2, 4, 3)
    symbol = random_symbol(space, 3, rng)
    w = build_odometer(symbol).operator.matrix
    assert np.array_equal(w[:, : space.coeff_dim].toarray(), symbol.matrix.toarray())


def test_level_preservation_off_overflow_words():
    rng = np.random.default_rng(5)
    space = TruncatedFockSpace(3, 4, 2)
    w = build_odometer(random_symbol(space, 2, rng)).operator.matrix
    for m in range(1, space.max_level + 1):
        sl = space.level_slice(m)
        block_cols = w[:, sl]
        # drop the all-n column of the level; the rest must stay in the level
        all_n = (space.level_offset(m + 1) - 1 - space.level_offset(m)) * space.coeff_dim
        keep = np.ones(block_cols.shape[1], dtype=bool)
        keep[all_n : all_n + space.coeff_dim] = False
        outside = np.delete(np.arange(space.dim), np.arange(sl.start, sl.stop))
        assert np.abs(block_cols[np.ix_(outside, np.nonzero(keep)[0])]).max() == 0.0


def test_roundtrip_recovers_symbol_and_relations_hold():
    rng = np.random.default_rng(42)
    for n, max_level, d in [(1, 4, 2), (2, 3, 2), (3, 3, 3)]:
        space = TruncatedFockSpace(n, max_level, d)
        symbol = random_symbol(space, max_level - 1, rng)
        wmap = build_odometer(symbol)
        check = verify_fock_representation(wmap.operator)
        assert check.is_representation
        # both relation sides are copies of identical floats: exactly zero
        assert all(r == 0.0 for r in check.residuals.values())
        diff = check.symbol.matrix - symbol.matrix
        assert np.abs(diff.toarray()).max() == 0.0


def test_empty_window_is_vacuous_and_never_passes():
    # support degree M leaves exact_below = 1 and window -1: no column is tested
    space = TruncatedFockSpace(2, 3, 1)
    wmap = build_odometer(scalar_symbol(space, [0.0, 0.0, 0.0, 1.0]))
    check = verify_fock_representation(wmap.operator)
    assert check.window == -1 and check.vacuous
    assert check.residuals == {}
    assert not check.is_representation and check.symbol is None
    # one level less of support gives window 0, which is tested and passes
    wmap = build_odometer(scalar_symbol(space, [0.0, 0.0, 1.0]))
    check = verify_fock_representation(wmap.operator)
    assert check.window == 0 and not check.vacuous and check.is_representation


def test_verify_rejects_plain_creation_operator():
    space = TruncatedFockSpace(2, 3, 1)
    s1 = creation_oracle(space, 1)
    check = verify_fock_representation(Operator(s1, space, space.max_level), tol=1e-10)
    assert not check.is_representation
    assert check.residuals["carry_relation_1"] > 0.5
    assert check.symbol is None


def test_unary_alphabet_requires_commutation():
    space = TruncatedFockSpace(1, 4, 1)
    eye = Operator(np.eye(space.dim, dtype=complex), space, space.max_level + 1)
    check = verify_fock_representation(eye)
    assert check.is_representation
    assert set(check.residuals) == {"twist_relation"}
    # something that fails to commute with the shift
    mat = np.eye(space.dim, dtype=complex)
    mat[0, 0] = 2.0
    check = verify_fock_representation(Operator(mat, space, space.max_level + 1))
    assert not check.is_representation


def test_apply_matches_dense_matrix():
    # the column builder reproduces W on any column subset, entry for entry
    rng = np.random.default_rng(3)
    space = TruncatedFockSpace(2, 4, 2)
    symbol = random_symbol(space, 2, rng)
    w = build_odometer(symbol).operator.matrix.toarray()
    vec = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    for basis_cols in (np.arange(space.dim), np.sort(rng.choice(space.dim, 20, replace=False))):
        rows, cols, vals = _odometer_columns(symbol, basis_cols)
        ws = sparse.csc_array((vals, (rows, cols)), shape=(space.dim, basis_cols.size))
        assert np.array_equal(ws.toarray(), w[:, basis_cols])
        assert np.allclose(ws @ vec[basis_cols], w[:, basis_cols] @ vec[basis_cols], atol=1e-13)


@pytest.mark.parametrize("n, max_level", [(1, 6), (2, 4), (3, 3)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_build_matches_reference_bit_for_bit(n, max_level, d):
    rng = np.random.default_rng(10 * n + d)
    space = TruncatedFockSpace(n, max_level, d)
    symbols = [random_symbol(space, s, rng) for s in (0, 1, max_level)]
    symbols += [
        random_constant_unitary_symbol(space, rng),
        random_ones_diagonal_symbol(space, rng),
        # real entries conjugated: every stored imaginary part is -0.0
        symbol_from_dense(space, np.conj(random_symbol(space, 1, rng).matrix.toarray().real + 0j)),
    ]
    assert np.signbit(symbols[-1].matrix.data.imag).all()
    for symbol in symbols:
        w = build_odometer(symbol).operator.matrix
        # canonical CSC whose stored values, signed zeros included, match the oracle
        assert same_stored_bits(w, reference_odometer(symbol))
    # the oracle adds into zeros, so W stores the -0.0 imaginary parts as +0.0
    assert not np.signbit(w.data.imag).any()


symbol_kinds = st.sampled_from(["dense", "isometric", "signed"])
seeds = st.integers(0, 2**32 - 1)


@given(small_spaces, symbol_kinds, seeds)
def test_build_matches_loop_oracle_property(space, kind, seed):
    symbol = symbol_of_kind(space, kind, np.random.default_rng(seed))
    assert same_stored_bits(build_odometer(symbol).operator.matrix, reference_odometer(symbol))


@given(small_spaces, st.sampled_from(["isometric", "signed"]), seeds)
def test_adjoint_matches_loop_oracle_property(space, kind, seed):
    symbol = symbol_of_kind(space, kind, np.random.default_rng(seed))
    adjoint = adjoint_isometric(build_odometer(symbol)).matrix
    assert same_stored_bits(adjoint, reference_adjoint(symbol))
    if kind == "signed":
        # conjugated real coefficients keep their -0.0 imaginary parts
        assert adjoint.nnz == 0 or np.signbit(adjoint.data.imag).any()


def assert_adjoint_built_iff_isometric(symbol):
    try:
        adjoint_isometric(build_odometer(symbol))
    except NotIsometricError as err:
        assert not check_isometric(symbol).passed
        assert err.checks and not all(c.passed for c in err.checks)
    else:
        assert check_isometric(symbol).passed


@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 2), seeds,
       st.floats(-13.0, -9.0), st.floats(-13.0, -9.0))
def test_adjoint_is_built_iff_check_isometric_passes(n, max_level, d, seed, gram, mass):
    # an isometric symbol with a Gram defect and mass off the all-ones diagonal,
    # each of size 1e-13 to 1e-9, on both sides of the default tolerance 1e-10
    space = TruncatedFockSpace(n, max_level, d)
    rng = np.random.default_rng(seed)
    coeffs = random_isometric_symbol(space, rng).matrix.toarray()
    q = int(rng.integers(d))
    coeffs[:, q] *= np.sqrt(1.0 + rng.choice([-1.0, 1.0]) * 10.0**gram)
    words = np.arange(space.num_words)
    off = words[words != space.level_offsets()[space.word_levels(words)]]  # none for n = 1
    if off.size:
        coeffs[int(rng.choice(off)) * d + int(rng.integers(d)), q] += 10.0**mass
    assert_adjoint_built_iff_isometric(symbol_from_dense(space, coeffs))


def test_adjoint_takes_mass_within_tol_off_the_ones_diagonal():
    space = TruncatedFockSpace(2, 3, 1)
    coeffs = np.zeros((space.dim, 1), dtype=complex)
    coeffs[0, 0], coeffs[2, 0] = np.sqrt(1.0 - 1e-22), 1e-11
    symbol = symbol_from_dense(space, coeffs)
    assert_adjoint_built_iff_isometric(symbol)
    assert check_isometric(symbol).passed


def test_build_matches_reference_at_benchmark_size():
    space = TruncatedFockSpace(3, 6, 2)
    symbol = random_constant_unitary_symbol(space, np.random.default_rng(6))
    assert same_stored_bits(build_odometer(symbol).operator.matrix, reference_odometer(symbol))


def test_adjoint_scalar_formula():
    # W*(ones^m) = sum_p conj(c_{m-p}) (all-n)^p; here c_2 = i is the only term
    space = TruncatedFockSpace(2, 4, 1)
    iso = scalar_symbol(space, [0.0, 0.0, 1j])
    adj = adjoint_isometric(build_odometer(iso)).matrix.toarray()
    for m in range(space.max_level + 1):
        col = basis_index(space, Word((1,) * m, 2))
        expected = np.zeros(space.dim, dtype=complex)
        if m >= 2:
            expected[basis_index(space, Word((2,) * (m - 2), 2))] = -1j
        assert np.allclose(adj[:, col], expected, atol=1e-15)


def test_adjoint_constant_symbol_vacuum_action():
    rng = np.random.default_rng(8)
    space = TruncatedFockSpace(2, 3, 3)
    u = haar_unitary(3, rng)
    symbol = constant_symbol(space, u)
    adj = adjoint_isometric(build_odometer(symbol)).matrix.toarray()
    # W*(vacuum block) = conjugate of the level-0 block, staying at the vacuum
    vac_block = adj[:3, :3]
    assert np.allclose(vac_block, u.conj().T, atol=1e-14)
    assert np.abs(adj[3:, :3]).max() == 0.0


def test_constant_symbol_stores_the_nonzeros_of_the_padded_block():
    space = TruncatedFockSpace(2, 3, 3)
    block = haar_unitary(3, np.random.default_rng(9))
    block[0, 1] = 0.0
    block[2, 0] = complex(-0.0, 0.5)
    block.imag[1, 2] = -0.0
    padded = np.zeros((space.dim, 3), dtype=complex)
    padded[:3, :] = block
    got, want = constant_symbol(space, block).csc, CSC.from_dense(padded)
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_constant_symbol_costs_its_block_not_its_rows():
    # D = 4,194,302: a dense D x 2 copy would take 128 MB
    space = TruncatedFockSpace(2, 20, 2)
    block = np.array([[0.0, 1.0], [1j, 0.0]])
    tracemalloc.start()
    try:
        symbol = constant_symbol(space, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert symbol.csc.nnz == 2 and symbol.support_degree == 0
    assert peak < 4 * 2**20, f"constant_symbol peaked at {peak / 2**20:.1f} MB"


def test_adjoint_equals_conjugate_transpose_on_window():
    rng = np.random.default_rng(21)
    for _ in range(5):
        space = TruncatedFockSpace(2, 4, 2)
        symbol = random_ones_diagonal_symbol(space, rng)
        wmap = build_odometer(symbol)
        adj = adjoint_isometric(wmap).matrix
        rows = space.dim_upto(wmap.exact_below - 1)
        assert np.abs((adj - wmap.operator.matrix.conj().T)[:rows, :]).max() <= 1e-14
        cols = space.dim_upto(wmap.exact_below - 1)
        prod = adj @ wmap.operator.matrix
        assert np.abs((prod - np.eye(space.dim))[:, :cols]).max() <= 1e-12


def test_adjoint_refuses_non_isometric_symbols():
    space = TruncatedFockSpace(2, 4, 1)
    bad = scalar_symbol(space, [0.0, 2**-0.5, 2**-0.5])
    with pytest.raises(NotIsometricError):
        adjoint_isometric(build_odometer(bad))
    # unit norm but supported off the all-ones diagonal
    off = np.zeros((space.dim, 1), dtype=complex)
    off[word_index(space, Word((2,), 2)), 0] = 1.0
    with pytest.raises(NotIsometricError):
        adjoint_isometric(build_odometer(symbol_from_dense(space, off)))


def test_norm_bounds_examples():
    rng = np.random.default_rng(2)
    space = TruncatedFockSpace(2, 4, 2)
    iso = random_constant_unitary_symbol(space, rng)
    nb = norm_bounds(build_odometer(iso))
    assert abs(nb.symbol_norm - 1.0) <= 1e-12
    assert 1.0 - 1e-12 <= nb.map_norm <= 2.0 + 1e-12

    witness = scalar_symbol(TruncatedFockSpace(2, 4, 1), [0.0, 2**-0.5, 2**-0.5])
    nb = norm_bounds(build_odometer(witness))
    assert abs(nb.symbol_norm - 1.0) <= 1e-12
    assert nb.map_norm >= np.sqrt(1.5) - 1e-9

    zero = scalar_symbol(TruncatedFockSpace(2, 3, 1), [0.0])
    nb = norm_bounds(build_odometer(zero))
    assert nb.symbol_norm == 0.0
    assert abs(nb.map_norm - 1.0) <= 1e-12


def test_upper_norm_bound_fails_for_toeplitz_symbols():
    # Over a one-letter alphabet every basis vector overflows, so the map is
    # lower-triangular Toeplitz multiplication by the symbol. With the
    # coefficients (1, 1, 1) the multiplier has sup 3 on the circle while
    # 1 + ||L|| = 1 + sqrt(3) < 3: the idealized upper bound is falsifiable,
    # and the truncated norm (which only underestimates) already certifies it.
    space = TruncatedFockSpace(1, 12, 1)
    symbol = scalar_symbol(space, [1.0, 1.0, 1.0])
    wmap = build_odometer(symbol)
    oracle = np.zeros((13, 13), dtype=complex)
    for i in range(13):
        for j in range(max(0, i - 2), i + 1):
            oracle[i, j] = 1.0
    assert np.array_equal(wmap.operator.matrix.toarray(), oracle)
    nb = norm_bounds(wmap)
    assert nb.map_norm > 1.0 + nb.symbol_norm + 0.1
    assert nb.upper_defect > 0.1
    assert nb.map_norm <= 3.0 + 1e-12

    # the two-letter analogue violates as well: the all-n diagonal carries the
    # same Toeplitz block
    space2 = TruncatedFockSpace(2, 8, 1)
    nb2 = norm_bounds(build_odometer(scalar_symbol(space2, [1.0, 1.0, 1.0])))
    assert nb2.upper_defect > 0.1


def test_adjoint_three_letter_alphabet():
    # exercises the carry-undoing branch across distinct letters
    rng = np.random.default_rng(91)
    space = TruncatedFockSpace(3, 3, 2)
    symbol = random_ones_diagonal_symbol(space, rng)
    wmap = build_odometer(symbol)
    adj = adjoint_isometric(wmap).matrix
    rows = space.dim_upto(wmap.exact_below - 1)
    assert np.abs((adj - wmap.operator.matrix.conj().T)[:rows, :]).max() == 0.0


def test_verify_rejects_small_perturbations():
    rng = np.random.default_rng(92)
    space = TruncatedFockSpace(2, 4, 2)
    wmap = build_odometer(random_symbol(space, 2, rng))
    noise = 1e-6 * (
        rng.standard_normal((space.dim, space.dim))
        + 1j * rng.standard_normal((space.dim, space.dim))
    )
    bad = Operator(wmap.operator.matrix + noise, space, wmap.exact_below)
    check = verify_fock_representation(bad, tol=1e-10)
    assert not check.is_representation
    assert all(1e-8 < r < 1e-3 for r in check.residuals.values())
