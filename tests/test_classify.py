"""Isometry / Nica / unitary classification against coefficient oracles."""

import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from helpers import (
    creation_oracle,
    orthonormal_complement,
    random_constant_unitary_symbol,
    random_isometric_symbol,
    random_ones_diagonal_symbol,
    random_symbol,
    reference_level_block_residual,
    reference_probe_deviation,
    reference_shifted_columns,
    shift_word_index,
)
from scipy import sparse

from odofock import (
    NotIsometricError,
    OdometerMap,
    Operator,
    TruncatedFockSpace,
    adjoint_isometric,
    build_odometer,
    check_isometric,
    check_nica,
    check_unitary,
    classify,
    compute_E_L,
    constant_symbol,
    gallery_golden_ratio,
    off_vacuum_residual,
    scalar_symbol,
    surjectivity_defect,
    symbol_from_dense,
)
from odofock.classify import _nica_relation_residual, _probe_window_vectors, _unitary


def golden_isometric_fixture():
    # the tail correlations decay like |omega|^(2*terms - shift); keeping the
    # shift window at 4 with 28 terms pushes every residual below 1e-10, and
    # the unary alphabet keeps the space small
    return gallery_golden_ratio(28, n=1, max_level=32)


def test_E_L_of_constant_identity_contains_vacuum_block():
    space = TruncatedFockSpace(2, 3, 2)
    symbol = constant_symbol(space, np.eye(2))
    basis = compute_E_L(symbol)
    # vacuum block vectors project onto the computed space with no loss
    for p in range(2):
        v = np.zeros(space.dim, dtype=complex)
        v[p] = 1.0
        assert np.linalg.norm(v - basis @ (basis.conj().T @ v)) <= 1e-12


def test_E_L_membership_of_golden_symbol():
    gd = golden_isometric_fixture()
    basis = compute_E_L(gd.symbol)
    xi = gd.symbol.matrix.toarray()[:, 0]
    residual = np.linalg.norm(xi - basis @ (basis.conj().T @ xi))
    assert residual <= 1e-10


def test_E_L_membership_agrees_with_bruteforce_gram():
    # symbol sending the generator to e_1: membership of e_1 decided two ways
    space = TruncatedFockSpace(2, 4, 1)
    symbol = scalar_symbol(space, [0.0, 1.0])
    xi = symbol.matrix.toarray()[:, 0]
    basis = compute_E_L(symbol)
    in_computed = np.linalg.norm(xi - basis @ (basis.conj().T @ xi)) <= 1e-10
    # brute force: xi lies on the all-ones diagonal and must be orthogonal to
    # every shifted copy ones^p xi, p = 1..window
    overlaps = []
    for p in range(1, space.max_level - symbol.support_degree + 1):
        shifted = np.zeros(space.dim, dtype=complex)
        for idx in range(space.dim):
            t = shift_word_index(space, idx, p)
            if t is not None:
                shifted[t] = xi[idx]
        overlaps.append(abs(np.vdot(shifted, xi)))
    in_oracle = max(overlaps) <= 1e-10
    assert in_computed == in_oracle


def test_single_term_symbols_are_isometric():
    space = TruncatedFockSpace(2, 5, 1)
    for m, c in [(0, 1.0), (2, np.exp(0.3j)), (4, -1.0)]:
        coeffs = np.zeros(m + 1, dtype=complex)
        coeffs[m] = c
        assert check_isometric(scalar_symbol(space, coeffs)).passed


def test_golden_symbol_is_isometric():
    report = check_isometric(golden_isometric_fixture().symbol)
    assert report.passed
    assert report.e1_support_residual == 0.0


def test_sum_of_two_ones_words_fails_at_shift_one():
    space = TruncatedFockSpace(2, 4, 1)
    symbol = scalar_symbol(space, [0.0, 2**-0.5, 2**-0.5])
    report = check_isometric(symbol)
    assert not report.passed
    assert abs(report.gram_residual - 0.5) <= 1e-14


def test_nica_constant_unitary_passes_with_tiny_relation_residual():
    rng = np.random.default_rng(17)
    space = TruncatedFockSpace(2, 3, 3)
    symbol = random_constant_unitary_symbol(space, rng)
    nica = check_nica(symbol)
    assert nica.passed
    assert nica.relation_residual <= 1e-12


def test_nica_rejects_golden_symbol_with_large_residuals():
    gd = golden_isometric_fixture()
    nica = check_nica(gd.symbol)
    assert not nica.passed
    assert nica.nica_residual >= 1e-2
    assert nica.relation_residual > 0.05


def test_nica_requires_isometric_input():
    space = TruncatedFockSpace(2, 3, 1)
    with pytest.raises(NotIsometricError):
        check_nica(scalar_symbol(space, [0.5]))


def test_nica_scalar_vacuum_phase():
    space = TruncatedFockSpace(2, 3, 1)
    report = classify(scalar_symbol(space, [np.exp(1.2j)]))
    assert report.is_isometric and report.is_nica and report.is_unitary


def test_unitary_rotation_block():
    space = TruncatedFockSpace(2, 3, 2)
    theta = 0.77
    rot = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    uni = check_unitary(constant_symbol(space, rot))
    assert uni.passed
    assert uni.surjectivity_defect == 0
    assert uni.level_block_residual <= 1e-12


def test_unitary_needs_surjective_block():
    # constant isometry onto a proper subspace cannot exist at finite d, so
    # pad the boundary column and certify on the interior
    space = TruncatedFockSpace(2, 3, 4)
    block = np.zeros((4, 4), dtype=complex)
    for p in range(3):
        block[p + 1, p] = 1.0
    symbol = constant_symbol(space, block)
    uni = check_unitary(symbol, columns=range(3))
    assert not uni.passed
    assert uni.surjectivity_defect == 1


def test_classify_golden_profile():
    report = classify(golden_isometric_fixture().symbol)
    assert report.is_isometric
    assert not report.is_nica
    assert not report.is_unitary
    assert not report.is_constant_symbol


def test_classify_zero_symbol_not_isometric():
    report = classify(scalar_symbol(TruncatedFockSpace(2, 3, 1), [0.0]))
    assert not report.is_isometric
    assert not report.is_nica and not report.is_unitary


def window_column_gram_defect(symbol):
    """Oracle: orthonormality defect of the exact columns of the dense map."""
    wmap = build_odometer(symbol)
    cols = symbol.space.dim_upto(wmap.exact_below - 1)
    w = wmap.operator.matrix[:, :cols]
    return np.abs(w.conj().T @ w - np.eye(cols)).max()


def test_gram_verdict_matches_window_column_orthonormality():
    rng = np.random.default_rng(100)
    space = TruncatedFockSpace(2, 4, 2)
    agree = 0
    for trial in range(100):
        if trial % 2 == 0:
            symbol = random_isometric_symbol(space, rng)
        else:
            # random coefficients on the all-ones diagonal, usually not isometric
            c = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
            mat = np.zeros((space.dim, 2), dtype=complex)
            for r in range(3):
                mat[space.all_ones_index(r) * 2 : space.all_ones_index(r) * 2 + 2, :] = c[r]
            symbol = symbol_from_dense(space, mat)
        report = check_isometric(symbol, tol=1e-8, probes=0)
        structural = (
            report.isometry_residual <= 1e-8
            and report.e1_support_residual <= 1e-8
            and report.gram_residual <= 1e-8
        )
        direct = window_column_gram_defect(symbol) <= 1e-8
        assert structural == direct
        agree += structural == direct
    assert agree == 100


def test_finite_dimensional_equivalence_of_verdicts():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 5))
        space = TruncatedFockSpace(2, 4, d)
        symbol = random_isometric_symbol(space, rng)
        report = classify(symbol)
        assert report.is_isometric
        block = symbol.matrix[:d, :].toarray()
        constant_unitary = (
            report.residuals["nica_residual"] <= 1e-10
            and np.abs(block.conj().T @ block - np.eye(d)).max() <= 1e-10
            and np.abs(block @ block.conj().T - np.eye(d)).max() <= 1e-10
        )
        assert report.is_nica == report.is_unitary == constant_unitary


def test_monotone_implications():
    rng = np.random.default_rng(31)
    space = TruncatedFockSpace(2, 4, 2)
    for _ in range(20):
        if rng.random() < 0.5:
            symbol = random_isometric_symbol(space, rng)
        else:
            symbol = random_symbol(space, int(rng.integers(0, 4)), rng)
        report = classify(symbol)
        if report.is_unitary:
            assert report.is_isometric
        if report.is_nica:
            assert report.is_isometric


def test_scalar_specialization_matches_sequence_conditions():
    rng = np.random.default_rng(57)
    space = TruncatedFockSpace(2, 5, 1)
    for _ in range(30):
        support = int(rng.integers(0, 4))
        coeffs = rng.standard_normal(support + 1) + 1j * rng.standard_normal(support + 1)
        if rng.random() < 0.3:
            coeffs = np.zeros(support + 1, dtype=complex)
            coeffs[support] = np.exp(2j * np.pi * rng.random())
        symbol = scalar_symbol(space, coeffs)
        report = check_isometric(symbol, probes=0)
        window = space.max_level - symbol.support_degree
        norm_ok = abs(np.sum(np.abs(coeffs) ** 2) - 1.0) <= 1e-10
        corr_ok = all(
            abs(np.sum(coeffs[r:] * np.conj(coeffs[: coeffs.size - r]))) <= 1e-10
            for r in range(1, min(window, coeffs.size - 1) + 1)
        )
        assert report.passed == (norm_ok and corr_ok)


def test_columns_restriction_certifies_interior():
    space = TruncatedFockSpace(2, 3, 3)
    block = np.zeros((3, 3), dtype=complex)
    block[1, 0] = 1.0
    block[2, 1] = 1.0
    symbol = constant_symbol(space, block)
    assert not check_isometric(symbol).passed
    assert check_isometric(symbol, columns=(0, 1)).passed
    nica = check_nica(symbol, columns=(0, 1))
    assert nica.passed and nica.relation_residual <= 1e-12


def test_unitary_requires_isometric_input():
    space = TruncatedFockSpace(2, 3, 1)
    with pytest.raises(NotIsometricError):
        check_unitary(scalar_symbol(space, [0.0]))


def test_E_L_matches_reference_shifted_columns_bit_for_bit():
    # E_L is orthonormal, lies on the all-ones coordinates and spans the dense
    # oracle's complement of the shifted columns within them
    rng = np.random.default_rng(77)
    for n, max_level, d in [(1, 6, 2), (2, 4, 1), (2, 4, 3), (3, 3, 2)]:
        space = TruncatedFockSpace(n, max_level, d)
        within = np.zeros((space.dim, (max_level + 1) * d), dtype=complex)
        for m in range(max_level + 1):
            for s in range(d):
                within[space.all_ones_index(m) * d + s, m * d + s] = 1.0
        off_ones = ~within.any(axis=1)
        for symbol in (random_symbol(space, 1, rng), random_ones_diagonal_symbol(space, rng)):
            expected = orthonormal_complement(reference_shifted_columns(symbol), within, 1e-10)
            e_l = compute_E_L(symbol)
            assert e_l.shape == expected.shape
            assert np.abs(e_l.conj().T @ e_l - np.eye(e_l.shape[1])).max() <= 1e-12
            assert not e_l[off_ones].any()
            gap = e_l @ e_l.conj().T - expected @ expected.conj().T
            assert np.abs(gap).max() <= 1e-12


def padded_symbol():
    space = TruncatedFockSpace(2, 3, 3)
    block = np.zeros((3, 3), dtype=complex)
    block[1, 0] = 1.0
    block[2, 1] = 1.0
    return constant_symbol(space, block)


def dense_nica_residual(symbol, adjoint, cols):
    """Oracle: W*(S_1 x I) - (S_n x I)W* from dense matrices, normed by the SVD."""
    space = symbol.space
    s1 = creation_oracle(space, 1).toarray()
    sn = creation_oracle(space, space.n).toarray()
    adj = adjoint.toarray()
    keep = np.arange(space.dim_upto(space.max_level - 1))
    keep = keep[np.isin(keep % space.coeff_dim, cols)]
    rel = (adj @ s1 - sn @ adj)[:, keep]
    return float(np.linalg.svd(rel, compute_uv=False)[0]), float(np.linalg.norm(adj, 2))


def test_gather_nica_relation_matches_dense_products():
    rng = np.random.default_rng(5)
    golden = golden_isometric_fixture().symbol
    cases = [
        (golden, (0,)),
        (random_constant_unitary_symbol(TruncatedFockSpace(2, 3, 3), rng), (0, 1, 2)),
        (random_ones_diagonal_symbol(TruncatedFockSpace(3, 3, 2), rng), (0, 1)),
        (padded_symbol(), (0, 1)),
    ]
    for symbol, cols in cases:
        wmap = build_odometer(symbol)
        try:
            adjoint = adjoint_isometric(wmap).csc
        except NotIsometricError:
            adjoint = wmap.operator.csc.H
        gathered = _nica_relation_residual(symbol.space, adjoint, np.asarray(cols))
        expected, scale = dense_nica_residual(symbol, adjoint, cols)
        assert abs(gathered - expected) <= 1e-12 * (1 + scale)
        assert (gathered == 0.0) == (expected == 0.0)
    assert check_nica(golden).relation_residual == 0.786151377756645


def classify_cases():
    rng = np.random.default_rng(12)
    space = TruncatedFockSpace(2, 4, 2)
    return [
        # (symbol, columns, W builds expected)
        (random_constant_unitary_symbol(space, rng), None, 1),
        (random_ones_diagonal_symbol(space, rng, force_nonconstant=True), None, 1),
        (random_symbol(space, 2, rng), None, 0),
        (padded_symbol(), (0, 1), 1),
        (golden_isometric_fixture().symbol, None, 1),
        # accepted beyond the dense limit: coefficient verdicts only
        (gallery_golden_ratio(60, n=2, max_level=24).symbol, None, 0),
    ]


def test_classify_runs_one_isometry_kernel_and_at_most_one_build(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def inner(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return inner

    for module in (sys.modules["odofock.classify"], sys.modules["odofock.odometer"]):
        for name in ("structural_isometry", "build_odometer"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    classify_module = sys.modules["odofock.classify"]
    for name in ("level0_block", "off_vacuum_residual"):
        monkeypatch.setattr(classify_module, name, counting(name, getattr(classify_module, name)))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for symbol, columns, builds in classify_cases():
        calls.clear()
        classify(symbol, columns=columns)
        # one level-0 block and one SVD (its rank); the off-vacuum mass of the
        # selected columns and, for constancy, of all columns
        assert calls == Counter({
            "structural_isometry": 1,
            "build_odometer": builds,
            "level0_block": 1,
            "svd": 1,
            "off_vacuum_residual": 2,
        })


def test_classify_residuals_equal_single_checks():
    for symbol, columns, _ in classify_cases():
        report = classify(symbol, columns=columns)
        iso = check_isometric(symbol, columns=columns)
        expected = {
            "gram_residual": iso.gram_residual,
            "e1_support_residual": iso.e1_support_residual,
            "isometry_residual": iso.isometry_residual,
            "probe_residual": iso.probe_residual,
            "nica_residual": off_vacuum_residual(symbol, columns),
            "surjectivity_defect": float(surjectivity_defect(symbol)),
        }
        assert report.is_isometric == iso.passed
        if iso.passed:
            nica = check_nica(symbol, columns=columns)
            uni = check_unitary(symbol, columns=columns)
            expected["relation_residual"] = nica.relation_residual
            expected["block_unitary_residual"] = uni.block_unitary_residual
            expected["level_block_residual"] = uni.level_block_residual
            assert (report.is_nica, report.is_unitary) == (nica.passed, uni.passed)
            assert report.is_constant_symbol == uni.is_constant_symbol
        # hex spelling compares NaN residuals too, bit for bit
        assert {k: float(v).hex() for k, v in report.residuals.items()} == {
            k: float(v).hex() for k, v in expected.items()
        }


def test_constant_symbol_flag_ignores_column_selection():
    # column 1 has level-1 mass, so the symbol is not constant; column 0 at
    # the vacuum with weight 1.0 is accepted on its own, with 0.5 rejected
    space = TruncatedFockSpace(2, 3, 2)
    for scale, accepted in [(1.0, True), (0.5, False)]:
        mat = np.zeros((space.dim, 2), dtype=complex)
        mat[0, 0] = scale
        mat[space.all_ones_index(1) * 2 + 1, 1] = 1.0
        report = classify(symbol_from_dense(space, mat), columns=(0,))
        assert report.is_isometric == accepted
        assert not report.is_constant_symbol


def constant_unitary_cases():
    rng = np.random.default_rng(31)
    for n, max_level in [(1, 9), (2, 5), (3, 3)]:
        for d in (1, 2, 3):
            yield random_constant_unitary_symbol(TruncatedFockSpace(n, max_level, d), rng)


def test_level_block_residual_matches_dense_oracle():
    for symbol in constant_unitary_cases():
        uni = check_unitary(symbol)
        w = build_odometer(symbol).operator.matrix
        expected = reference_level_block_residual(symbol.space, w)
        assert uni.passed
        assert abs(uni.level_block_residual - expected) <= 1e-15


def test_level_block_residual_sees_off_level_mass_and_block_defects():
    # only a hand-made W reaches the off-level branch: W of a symbol keeps levels
    rng = np.random.default_rng(32)
    for symbol in constant_unitary_cases():
        space = symbol.space
        w = build_odometer(symbol).operator.matrix
        rows = rng.integers(space.dim, size=3)
        cols = rng.integers(space.dim, size=3)
        noise = 1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        perturbed = w + sparse.csc_array((noise, (rows, cols)), shape=w.shape)
        wmap = OdometerMap(symbol, Operator(perturbed, space, symbol.exact_below))
        uni = _unitary(symbol, 1e-10, wmap)
        expected = reference_level_block_residual(space, perturbed)
        assert abs(uni.level_block_residual - expected) <= 1e-15
        assert uni.level_block_residual > 1e-4 and not uni.passed
    space = TruncatedFockSpace(2, 3, 1)
    symbol = scalar_symbol(space, [1.0])
    w = build_odometer(symbol).operator.matrix.tolil()
    w[space.level_slice(2).start, 0] = 0.25  # vacuum column leaks to level 2
    wmap = OdometerMap(symbol, Operator(w, space, symbol.exact_below))
    uni = _unitary(symbol, 1e-10, wmap)
    assert uni.level_block_residual == reference_level_block_residual(space, sparse.csc_array(w))
    assert uni.level_block_residual == 0.25


def test_probe_matvec_matches_dense_gram_oracle():
    rng = np.random.default_rng(33)
    cases = [
        (symbol, np.arange(symbol.space.coeff_dim)) for symbol in constant_unitary_cases()
    ]
    space = TruncatedFockSpace(2, 4, 2)
    cases += [
        (random_ones_diagonal_symbol(space, rng, force_nonconstant=True), np.arange(2)),
        (random_symbol(space, 2, rng, scale=0.3), np.arange(2)),
        (padded_symbol(), np.arange(2)),
        # a window of more than 4096 columns takes the sparse random supports
        (gallery_golden_ratio(60, n=2, max_level=24).symbol, np.arange(1)),
    ]
    for symbol, cols in cases:
        for seed in (0, 1):
            probe = _probe_window_vectors(symbol, cols, 50, seed)
            assert abs(probe - reference_probe_deviation(symbol, cols, 50, seed)) <= 1e-15


def test_classify_takes_no_svd_larger_than_the_coefficient_space(monkeypatch):
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    d = 2
    symbol = random_constant_unitary_symbol(TruncatedFockSpace(3, 6, d), np.random.default_rng(34))
    assert classify(symbol).is_unitary
    assert shapes and all(rows <= d and cols <= d for rows, cols in shapes)


def test_checks_on_a_tall_symbol_cost_its_entries_not_its_rows():
    # the README's golden symbol: D = 33,554,431 rows, 25 entries. A pass over
    # the rows would allocate at least 128 MB (one int32 per row); the checks
    # and the norm read only the stored entries
    symbol = gallery_golden_ratio(60, n=2, max_level=24).symbol
    assert symbol.space.dim == 33_554_431 and symbol.csc.nnz == 25
    checks = {
        "norm": symbol.norm,
        "isometry": lambda: check_isometric(symbol),
        "nica": lambda: check_nica(symbol),
        "unitary": lambda: check_unitary(symbol),
    }
    for name, run in checks.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MB"
