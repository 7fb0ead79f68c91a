"""Purity, Poisson kernels, compressions, and odometer lifts."""

import itertools
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    capped_purity,
    creation_oracle,
    cp_power_at_identity,
    kernel_chain_is_pure,
    random_coisometry,
    random_conjugated_coisometry_sum,
    random_pure_row_contraction,
    random_symbol,
    random_unit_row_pure,
    unit_row_contraction,
    weighted_cycle,
    word_adjoint_oracle,
)

from odofock import (
    ContractivePair,
    MAX_DENSE_DIM,
    DimensionLimitError,
    RowContraction,
    TruncatedFockSpace,
    WindowError,
    build_odometer,
    compress_pair,
    constant_symbol,
    defect_root,
    intertwining_residuals,
    odometer_lift,
    op_norm,
    poisson_kernel,
    purity_test,
    row_contraction,
    scalar_symbol,
    symbol_from_entries,
    verify_pair,
)
from odofock.fock import apply_annihilation


def zero_row(n, dim):
    return RowContraction(tuple(np.zeros((dim, dim), dtype=complex) for _ in range(n)))


def word_adjoints(t, level):
    """Oracle: T_mu* for every word of the given length, by direct products."""
    out = []
    for letters in itertools.product(range(t.n), repeat=level):
        prod = np.eye(t.dim, dtype=complex)
        for i in letters:
            prod = prod @ t.tuples[i]
        out.append(prod.conj().T)
    return out


def test_purity_zero_row():
    result = purity_test(zero_row(2, 3))
    assert result.pure


def test_purity_compressed_creation_is_nilpotent():
    space = TruncatedFockSpace(2, 4, 1)
    pair = compress_pair(scalar_symbol(space, [1.0]), 2)
    result = purity_test(pair.t, tol=1e-30)
    assert result.pure
    assert result.residuals[-1] == 0.0
    assert len(result.residuals) == 3


def test_purity_unitary_scalar_fails():
    t = row_contraction([np.array([[1.0]])])
    result = purity_test(t)
    assert not result.pure
    assert all(abs(r - 1.0) <= 1e-14 for r in result.residuals)


def test_coisometries_are_never_pure():
    # sum T_i T_i* = I keeps every r_m at h, up to the horizon h + 1
    rng = np.random.default_rng(2024)
    for k in range(300):
        n, h = 2 + k % 2, 1 + k % 5
        result = purity_test(random_coisometry(n, h, rng))
        assert not result.pure
        assert abs(result.residuals[-1] - h) <= 1e-10
    half = np.eye(2, dtype=complex) / np.sqrt(2.0)
    result = purity_test(row_contraction([half, half]))
    assert not result.pure


def test_strict_row_contractions_are_pure_after_one_step():
    rng = np.random.default_rng(15)
    row_norm = 0.15
    for n, h in itertools.product((1, 2, 3), (1, 3, 5)):
        result = purity_test(random_pure_row_contraction(n, h, rng, row_norm=row_norm))
        assert result.pure and len(result.residuals) == 1
        # the bound is the trace of Phi(I), at most h times its top eigenvalue
        assert result.residual("purity") == result.residuals[0] <= h * row_norm**2


def test_row_norm_one_contractions_and_weighted_cycles_are_pure():
    # the row norm is 1 for all of them, and ||Phi^m(I)|| stays 1 up to m = 1
    # (contractions) or m = h - 1 (cycles); each kernel is exact at level_needed
    tol = 1e-10
    cases = [(unit_row_contraction(a), None) for a in (0.95, 0.99)]
    cases += [(unit_row_contraction(0.9), 219), (weighted_cycle(3), None)]
    cases += [(weighted_cycle(5), 101), (weighted_cycle(8), None)]
    for t, level in cases:
        result = purity_test(t, tol=tol)
        assert result.pure and len(result.residuals) <= t.dim + 1
        assert level is None or result.level_needed == level
        assert poisson_kernel(t, result.level_needed, tol).purity_residual <= tol


def differential_tuples():
    """Pure tuples with row norm 1 (h >= 2, one or two unit singular values),
    strict ones near row norm 1, and unitary conjugates of coisometry (+) strict."""
    rng = np.random.default_rng(1515)
    for k in range(240):
        n, h = 1 + k % 3, 2 + k % 5
        kind = k % 4
        if kind == 0:
            yield random_unit_row_pure(n, h, 1, rng)
        elif kind == 1:
            yield random_unit_row_pure(n, h, min(2, h - 1), rng)
        elif kind == 2:
            yield random_pure_row_contraction(n, h, rng, row_norm=0.99)
        else:
            yield random_conjugated_coisometry_sum(n, 1 + k % 2, h - 1, rng)


def test_purity_matches_the_kernel_chain_oracle():
    tol = 1e-10
    verdicts = Counter()
    for t in differential_tuples():
        result = purity_test(t, tol=tol)
        assert result.pure == kernel_chain_is_pure(t)
        assert len(result.residuals) <= t.dim + 1
        verdicts[result.pure] += 1
        if not result.pure:
            assert len(result.residuals) == t.dim + 1 and result.level_needed is None
            assert result.residual("purity") > 1.0 - tol
            continue
        # the bound holds at every multiple of the stopping step m
        m, level = len(result.residuals), result.level_needed
        for power in (m, 2 * m):
            top = np.linalg.eigvalsh(cp_power_at_identity(t, power))[-1]
            assert top <= result.residual("purity") ** (power // m) + 1e-13
        assert np.linalg.eigvalsh(cp_power_at_identity(t, level + 1))[-1] <= tol
    assert verdicts[True] == 180 and verdicts[False] == 60


def test_capped_purity_verdicts_stay_pure():
    rng = np.random.default_rng(64)
    strict = [random_pure_row_contraction(1 + k % 3, 1 + k % 5, rng, row_norm=0.15 + 0.05 * k)
              for k in range(16)]
    cases = list(differential_tuples()) + strict
    cases += [unit_row_contraction(0.9), weighted_cycle(3)]
    capped = [t for t in cases if capped_purity(t)]
    assert len(capped) >= 80
    assert all(purity_test(t).pure for t in capped)


def test_poisson_kernel_refuses_a_negative_level():
    with pytest.raises(ValueError, match="level must be >= 0"):
        poisson_kernel(zero_row(2, 3), -1)


def test_poisson_kernel_refuses_above_the_dense_limit_before_iterating(monkeypatch):
    # n = 2 at level 40 stacks 2^41 - 1 blocks; neither the tail loop nor the
    # stacking may start
    t = compress_pair(scalar_symbol(TruncatedFockSpace(2, 6, 1), [0.8, 0.6]), 2).t

    def refuse(self, x):
        raise AssertionError("the tail loop ran before the size check")

    monkeypatch.setattr(RowContraction, "cp_map", refuse)
    with pytest.raises(DimensionLimitError):
        poisson_kernel(t, 40)


def test_row_contraction_validation():
    with pytest.raises(ValueError):
        row_contraction([np.array([[1.2]]), np.array([[0.0]])])


def test_poisson_zero_row_embeds_at_vacuum():
    t = zero_row(2, 3)
    data = poisson_kernel(t, 2)
    assert data.defect_dim == 3
    assert np.array_equal(data.poisson[:3, :], np.eye(3, dtype=complex))
    assert np.abs(data.poisson[3:, :]).max() == 0.0
    assert data.purity_residual == 0.0


def test_telescoping_identity_random_contraction():
    rng = np.random.default_rng(4)
    t = random_pure_row_contraction(2, 3, rng, row_norm=0.95)
    max_level = 3
    droot = np.eye(3) - t.row_gram()
    vals, vecs = np.linalg.eigh(droot)
    droot = vecs @ np.diag(np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    for k in range(3):
        h = np.zeros(3, dtype=complex)
        h[k] = 1.0
        lhs = sum(
            np.linalg.norm(droot @ adj @ h) ** 2
            for m in range(max_level + 1)
            for adj in word_adjoints(t, m)
        )
        tail = sum(np.linalg.norm(adj @ h) ** 2 for adj in word_adjoints(t, max_level + 1))
        assert abs(lhs - (1.0 - tail)) <= 1e-12


def test_model_space_identity_reproduces_contraction():
    rng = np.random.default_rng(12)
    t = random_pure_row_contraction(2, 2, rng, row_norm=0.12)
    data = poisson_kernel(t, 6)
    pi = data.poisson
    for i in range(1, 3):
        si = creation_oracle(data.space, i)
        compressed = pi.conj().T @ si @ pi
        assert op_norm(compressed - t.tuples[i - 1]) <= 1e-10
    for res in intertwining_residuals(data, t):
        assert res <= 1e-12


def test_verify_pair_trivial_and_perturbed():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert verify_pair(ContractivePair(zero_row(2, 3), w)).passed

    space = TruncatedFockSpace(2, 5, 1)
    pair = compress_pair(scalar_symbol(space, [1.0]), 2)
    noise = rng.standard_normal(pair.w.shape) + 1j * rng.standard_normal(pair.w.shape)
    res = []
    for eps in (1e-3, 1e-5):
        perturbed = ContractivePair(pair.t, pair.w + eps * noise)
        check = verify_pair(perturbed)
        assert not check.passed
        res.append(max(check.relation_residuals))
    # the defect is exactly linear in the perturbation size
    assert abs(res[0] / res[1] - 100.0) <= 1e-6


def test_compress_frozen_example():
    space = TruncatedFockSpace(2, 3, 1)
    pair = compress_pair(scalar_symbol(space, [1.0]), 1)
    t1 = np.zeros((3, 3), dtype=complex)
    t1[1, 0] = 1.0
    t2 = np.zeros((3, 3), dtype=complex)
    t2[2, 0] = 1.0
    w = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(pair.t.tuples[0], t1)
    assert np.array_equal(pair.t.tuples[1], t2)
    assert np.array_equal(pair.w, w)
    assert verify_pair(pair).passed


def test_compress_level_zero():
    space = TruncatedFockSpace(2, 3, 2)
    rng = np.random.default_rng(1)
    symbol = random_symbol(space, 2, rng)
    pair = compress_pair(symbol, 0)
    assert all(np.abs(t).max() == 0.0 for t in pair.t.tuples)
    assert np.array_equal(pair.w, symbol.matrix.toarray()[:2, :])


def test_compress_rejects_window_violation():
    space = TruncatedFockSpace(2, 4, 1)
    symbol = scalar_symbol(space, [0.0, 0.0, 1.0])
    with pytest.raises(WindowError):
        compress_pair(symbol, 3)


def test_compress_builds_only_the_pair_above_the_dense_limit():
    # the same entries on M = 6 (D = 254) and M = 13 (D = 32766): levels <= 2 of W
    # are the same, and the M = 6 pair is the block of the whole W, bit for bit,
    # a -0.0 in the symbol stored as +0.0 there
    rng = np.random.default_rng(41)
    mat = random_symbol(TruncatedFockSpace(2, 6, 2), 2, rng).csc
    entries = [(int(r), int(c), v) for r, c, v in zip(mat.indices, mat.entry_cols, mat.data)]
    entries[3] = (*entries[3][:2], complex(-0.0, -0.0))
    small = symbol_from_entries(TruncatedFockSpace(2, 6, 2), entries)
    large = symbol_from_entries(TruncatedFockSpace(2, 13, 2), entries)
    assert large.space.dim > MAX_DENSE_DIM
    dim_k = small.space.dim_upto(2)
    whole = build_odometer(small).operator.csc[:dim_k, :dim_k].toarray()
    pairs = [compress_pair(small, 2), compress_pair(large, 2)]
    for pair in pairs:
        assert pair.w.shape == (14, 14) and pair.w.tobytes() == whole.tobytes()
        assert not np.signbit(pair.w[entries[3][:2]].real)
        assert [t.tobytes() for t in pair.t.tuples] == [t.tobytes() for t in pairs[0].t.tuples]
    with pytest.raises(DimensionLimitError):
        compress_pair(constant_symbol(large.space, np.eye(2)), 13)


def test_compress_golden_prefix_pair_verifies():
    space = TruncatedFockSpace(2, 6, 1)
    from odofock import gallery_golden_ratio

    coeffs = gallery_golden_ratio(20).coeffs[:5]
    pair = compress_pair(scalar_symbol(space, coeffs), 2)
    assert verify_pair(pair).passed


def test_lift_of_zero_row_is_vacuum_composition():
    rng = np.random.default_rng(14)
    w = 0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    pair = ContractivePair(zero_row(2, 3), w)
    lift = odometer_lift(pair, 3)
    top = lift.symbol.matrix.toarray()
    assert np.allclose(top[:3, :], w, atol=1e-12)
    assert np.abs(top[3:, :]).max() <= 1e-12
    assert lift.intertwining_residual <= 1e-12


def test_lift_roundtrip_reproduces_compression():
    rng = np.random.default_rng(33)
    space = TruncatedFockSpace(2, 6, 1)
    symbol = random_symbol(space, 3, rng)
    pair = compress_pair(symbol, 2)
    lift = odometer_lift(pair, 6)
    pi = lift.dilation.poisson
    reproduced = pi.conj().T @ lift.wmap.operator.matrix @ pi
    assert op_norm(reproduced - pair.w) <= 1e-8
    # norm sandwich through the lift
    w_norm = op_norm(pair.w)
    lift_norm = op_norm(lift.wmap.operator)
    assert w_norm <= lift_norm + 1e-10
    assert lift_norm <= 1.0 + w_norm + 1e-10


def test_residuals_taken_on_their_rows_match_the_full_products():
    # the intertwining residual gathers the rows below the top level through the
    # creation map, and the lift forms its difference on the window rows only;
    # both read as the full D-row products cut to those rows
    rng = np.random.default_rng(2101)
    t = random_pure_row_contraction(2, 3, rng, row_norm=0.1)
    data = poisson_kernel(t, 5)
    space = data.space
    rows = space.dim_upto(space.max_level - 1)
    noise = rng.standard_normal(data.poisson.shape) + 1j * rng.standard_normal(data.poisson.shape)
    for kernel in (data, replace(data, poisson=data.poisson + 1e-3 * noise)):
        pi = kernel.poisson
        full = [op_norm((pi @ t_i.conj().T - apply_annihilation(space, i, pi))[:rows])
                for i, t_i in enumerate(t.tuples, 1)]
        assert np.allclose(intertwining_residuals(kernel, t), full, rtol=1e-12, atol=1e-16)
    pair = compress_pair(random_symbol(TruncatedFockSpace(2, 6, 1), 2, rng), 2)
    tracemalloc.start()
    try:
        lift = odometer_lift(pair, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pi, window = lift.dilation.poisson, lift.window
    assert window < lift.dilation.space.max_level
    full = pi @ pair.w.conj().T - lift.wmap.operator.matrix.conj().T @ pi
    expected = op_norm(full[: lift.dilation.space.dim_upto(window)])
    assert abs(lift.intertwining_residual - expected) <= 1e-15
    # no D x h copy of the adjoint kernel, and no difference over rows outside the window
    assert peak < 5 * pi.nbytes, f"odometer_lift peaked at {peak / pi.nbytes:.1f} kernels"


def test_model_space_invariance_under_adjoints():
    rng = np.random.default_rng(37)
    space = TruncatedFockSpace(2, 6, 1)
    symbol = random_symbol(space, 2, rng)
    pair = compress_pair(symbol, 2)
    lift = odometer_lift(pair, 6)
    pi = lift.dilation.poisson
    proj = pi @ pi.conj().T
    eye = np.eye(proj.shape[0])
    gens = [creation_oracle(lift.dilation.space, i) for i in (1, 2)]
    gens.append(lift.wmap.operator.matrix)
    for x in gens:
        assert op_norm((eye - proj) @ x.conj().T @ proj) <= 1e-8


def test_minimality_of_compressed_dilation():
    # words of length <= M - K applied to the model space span everything
    space = TruncatedFockSpace(2, 5, 1)
    symbol = scalar_symbol(space, [1.0])
    k = 2
    pair = compress_pair(symbol, k)
    lift = odometer_lift(pair, 5)
    dil_space = lift.dilation.space
    pi = lift.dilation.poisson
    screate = [creation_oracle(dil_space, i) for i in (1, 2)]
    blocks = [pi]
    frontier = [pi]
    for _ in range(dil_space.max_level - k):
        frontier = [s @ f for s in screate for f in frontier]
        blocks.extend(frontier)
    stacked = np.hstack(blocks)
    rank = int(np.sum(np.linalg.svd(stacked, compute_uv=False) > 1e-10))
    assert rank == dil_space.dim


def test_poisson_rejects_non_pure_contraction():
    from odofock import DilationInexactError

    t = row_contraction([np.array([[1.0]])])
    with pytest.raises(DilationInexactError) as err:
        poisson_kernel(t, 4)
    assert err.value.residual >= 0.9


def test_lift_rejects_non_pure_pair_directly():
    from odofock import DilationInexactError

    one = np.array([[1.0 + 0.0j]])
    pair = ContractivePair(RowContraction((one,)), one)
    with pytest.raises(DilationInexactError):
        odometer_lift(pair, 4)


def oracle_contractions():
    """Strict random contractions (full defect) and compressed pairs, whose
    defect rank is below h, for n = 1, 2, 3, each with an exact kernel level."""
    rng = np.random.default_rng(909)
    for n in (1, 2, 3):
        for h in (1, 3):
            yield random_pure_row_contraction(n, h, rng, row_norm=0.08), 4
        yield compress_pair(scalar_symbol(TruncatedFockSpace(n, 4, 1), [1.0]), 2).t, 3
        yield compress_pair(constant_symbol(TruncatedFockSpace(n, 3, 2), np.eye(2)), 1).t, 2


def test_poisson_kernel_matches_the_word_product_oracle():
    tol = 1e-10
    deficient = 0
    for t, level in oracle_contractions():
        data = poisson_kernel(t, level, tol)
        square = np.eye(t.dim) - t.row_gram()
        rank = int(np.sum(np.sqrt(np.linalg.svd(square, compute_uv=False)) > tol))
        assert data.defect_dim == rank
        deficient += rank < t.dim
        k = data.defect_dim
        blocks = data.poisson.reshape(-1, k, t.dim)
        words = [adj for m in range(level + 1) for adj in word_adjoint_oracle(t, m)]
        assert len(words) == blocks.shape[0]
        for block, adj in zip(blocks, words):
            # Pi_mu^H Pi_mu = T_mu D^2 T_mu*
            expected = adj.conj().T @ square @ adj
            assert np.abs(block.conj().T @ block - expected).max() <= 1e-13
        tail = sum(adj.conj().T @ adj for adj in word_adjoint_oracle(t, level + 1))
        assert abs(data.purity_residual - np.diag(tail).real.max()) <= 1e-15
    assert deficient == 6


def test_each_row_contraction_is_decomposed_once(monkeypatch):
    strict = [0.05 * np.eye(3, dtype=complex), 0.05j * np.ones((3, 3)) / 3.0]
    compressed = compress_pair(scalar_symbol(TruncatedFockSpace(2, 4, 1), [1.0]), 2).t.tuples
    calls = Counter()
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for matrices in (strict, compressed):
        calls.clear()
        t = row_contraction(matrices)
        purity_test(t)
        defect_root(t)
        poisson_kernel(t, 4)
        assert dict(calls) == {"eigh": 1}
