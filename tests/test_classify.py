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
    reference_odometer,
    reference_shifted_columns,
    shift_word_index,
)
from scipy import sparse

from odofock import (
    Check,
    NotIsometricError,
    TruncatedFockSpace,
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
from odofock.classify import _nica, _unitary, _window
from odofock.csc import CSC
from odofock.gallery import golden_ratio_coeffs


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
    assert report.residual("ones_support") == 0.0


def test_sum_of_two_ones_words_fails_at_shift_one():
    space = TruncatedFockSpace(2, 4, 1)
    symbol = scalar_symbol(space, [0.0, 2**-0.5, 2**-0.5])
    report = check_isometric(symbol)
    assert not report.passed
    assert abs(report.residual("shifted_correlations") - 0.5) <= 1e-14


def test_nica_constant_unitary_passes_with_tiny_relation_residual():
    rng = np.random.default_rng(17)
    space = TruncatedFockSpace(2, 3, 3)
    symbol = random_constant_unitary_symbol(space, rng)
    nica = check_nica(symbol)
    assert nica.passed
    assert nica.residual("nica_relation") <= 1e-12


def test_nica_rejects_golden_symbol_with_large_residuals():
    gd = golden_isometric_fixture()
    nica = check_nica(gd.symbol)
    assert not nica.passed
    assert nica.residual("nica_residual") >= 1e-2
    assert nica.residual("nica_relation") > 0.05


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
    assert uni.residual("surjectivity_defect") == 0
    assert uni.residual("level_blocks_unitary") <= 1e-12


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
    assert uni.residual("surjectivity_defect") == 1


def test_classify_golden_profile():
    report = classify(golden_isometric_fixture().symbol)
    assert report.is_isometric
    assert not report.is_nica
    assert not report.is_unitary
    assert report.residuals["constant_symbol"] > 1e-10


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
        report = check_isometric(symbol, tol=1e-8)
        structural = (
            report.residual("isometry_gram") <= 1e-8
            and report.residual("ones_support") <= 1e-8
            and report.residual("shifted_correlations") <= 1e-8
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
        report = check_isometric(symbol)
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
    assert nica.passed and nica.residual("nica_relation") <= 1e-12


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


def window_basis_columns(symbol, cols, window_columns):
    """The basis indices of the window columns: `cols` on the first
    `window_columns // cols.size` words of the exactness window, or all of it."""
    space = symbol.space
    window_words = space.level_offset(space.max_level - symbol.support_degree + 1)
    words = np.arange(min(window_words, max(window_columns // len(cols), 1)))
    return (words[:, None] * space.coeff_dim + np.asarray(cols)).ravel()


def dense_nica_relation(space, w, basis_cols):
    """Oracle: S_1* W - W S_n* on the window columns, from `creation_oracle`
    matrices and a dense W, normed by the SVD."""
    s1 = creation_oracle(space, 1).toarray()
    sn = creation_oracle(space, space.n).toarray()
    rel = (s1.conj().T @ w - w @ sn.conj().T)[:, basis_cols]
    return float(np.linalg.svd(rel, compute_uv=False)[0])


def dense_level_blocks(space, w, basis_cols):
    """Oracle: the level-diagonal part B of the window columns of a dense W,
    ||B^H B - I|| by the SVD, and the largest mass of one level's window
    columns off their level."""
    sizes = np.diff(space.level_offsets()) * space.coeff_dim
    levels = np.repeat(np.arange(space.max_level + 1), sizes)
    cols = w[:, basis_cols]
    on = levels[:, None] == levels[basis_cols][None, :]
    b = np.where(on, cols, 0.0)
    defect = np.linalg.svd(b.conj().T @ b - np.eye(basis_cols.size), compute_uv=False)[0]
    mass = np.bincount(levels[basis_cols], weights=(np.abs(np.where(on, 0.0, cols)) ** 2).sum(0))
    return max(float(defect), float(np.sqrt(mass.max())))


def nica_cases(rng):
    space = TruncatedFockSpace(2, 6, 2)
    return [
        (golden_isometric_fixture().symbol, (0,)),
        (random_constant_unitary_symbol(TruncatedFockSpace(2, 3, 3), rng), (0, 1, 2)),
        (random_ones_diagonal_symbol(TruncatedFockSpace(3, 3, 2), rng), (0, 1)),
        (padded_symbol(), (0, 1)),
        (random_ones_diagonal_symbol(space, rng, max_support=2, force_nonconstant=True), (0, 1)),
        (random_constant_unitary_symbol(space, rng), (0, 1)),
        (scalar_symbol(TruncatedFockSpace(2, 6, 1), [0.0, 1.0]), (0,)),
    ]


def test_nica_relation_matches_the_dense_adjoint_form(monkeypatch):
    classify_module = sys.modules["odofock.classify"]
    # 16 window columns cut every n = 2, M = 6 case inside the exactness window
    for window_columns in (classify_module.WINDOW_COLUMNS, 16):
        monkeypatch.setattr(classify_module, "WINDOW_COLUMNS", window_columns)
        for symbol, cols in nica_cases(np.random.default_rng(5)):
            basis_cols = window_basis_columns(symbol, cols, window_columns)
            if window_columns == 16 and symbol.space.max_level == 6:
                assert basis_cols.size < symbol.space.dim_upto(symbol.exact_below - 1)
            nica = check_nica(symbol, columns=cols)
            expected = dense_nica_relation(symbol.space, reference_odometer(symbol), basis_cols)
            assert abs(nica.residual("nica_relation") - expected) <= 1e-12 * max(1.0, expected)
            assert (nica.residual("nica_relation") == 0.0) == (expected == 0.0)
            assert nica.window == symbol.space.word_levels(basis_cols[-1] // len(cols) + 1) - 1
        golden = check_nica(golden_isometric_fixture().symbol)
        assert golden.residual("nica_relation") == 0.786151377756645


def classify_cases():
    rng = np.random.default_rng(12)
    space = TruncatedFockSpace(2, 4, 2)
    return [
        # (symbol, columns, windows of W built): an accepted selection short
        # of every column takes a second window for the level blocks
        (random_constant_unitary_symbol(space, rng), None, 1),
        (random_ones_diagonal_symbol(space, rng, force_nonconstant=True), None, 1),
        (random_symbol(space, 2, rng), None, 1),
        (padded_symbol(), (0, 1), 2),
        (golden_isometric_fixture().symbol, None, 1),
        # accepted beyond the dense limit
        (gallery_golden_ratio(60, n=2, max_level=24).symbol, None, 1),
    ]


def test_classify_runs_one_isometry_kernel_and_builds_only_windows(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def inner(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return inner

    odometer_module = sys.modules["odofock.odometer"]
    monkeypatch.setattr(odometer_module, "build_odometer",
                        counting("build_odometer", odometer_module.build_odometer))
    classify_module = sys.modules["odofock.classify"]
    for name in ("structural_isometry", "_odometer_columns", "level0_block", "off_vacuum_residual"):
        monkeypatch.setattr(classify_module, name, counting(name, getattr(classify_module, name)))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    for symbol, columns, windows in classify_cases():
        calls.clear()
        classify(symbol, columns=columns)
        # no W; one level-0 block and one SVD (its rank); the off-vacuum mass
        # of the selected columns and, for constancy, of all columns
        assert calls == Counter({
            "structural_isometry": 1,
            "_odometer_columns": windows,
            "level0_block": 1,
            "svd": 1,
            "off_vacuum_residual": 2,
        })
        assert windows <= 2


def check_bits(checks):
    """Each check with its residual's hex spelling, so equality is bit for bit."""
    return [(c.name, float(c.residual).hex(), c.tolerance, c.window, c.passed) for c in checks]


def test_classify_checks_are_the_single_checks_bit_for_bit():
    # an isometric symbol's report lists the checks of check_isometric, check_nica
    # and check_unitary; any other symbol's the isometry checks and the three
    # that read no window of W
    rng = np.random.default_rng(13)
    cases = [(symbol, columns) for symbol, columns, _ in classify_cases()]
    cases += nica_cases(rng) + [(symbol, None) for symbol in constant_unitary_cases()]
    cases += [(random_isometric_symbol(TruncatedFockSpace(2, 4, 2), rng), None),
              (random_symbol(TruncatedFockSpace(2, 4, 2), 1, rng), None),
              (scalar_symbol(TruncatedFockSpace(2, 3, 1), [0.0]), None)]
    for symbol, columns in cases:
        report = classify(symbol, columns=columns)
        iso = check_isometric(symbol, columns=columns)
        assert report.is_isometric == iso.passed
        expected = iso.checks
        if iso.passed:
            nica = check_nica(symbol, columns=columns)
            uni = check_unitary(symbol, columns=columns)
            assert (report.is_nica, report.is_unitary) == (nica.passed, uni.passed)
            expected += nica.checks + uni.checks
        else:
            expected += (Check("nica_residual", off_vacuum_residual(symbol, columns), 1e-10),
                         Check("constant_symbol", off_vacuum_residual(symbol), 1e-10),
                         Check("surjectivity_defect", float(surjectivity_defect(symbol)), 0.0))
        assert check_bits(report.checks) == check_bits(expected)
        assert report.residuals == {c.name: c.residual for c in expected}
        assert all(np.isfinite(v) for v in report.residuals.values())


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
        assert report.residuals["constant_symbol"] > 1e-10


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
        assert abs(uni.residual("level_blocks_unitary") - expected) <= 1e-15


def test_classify_forms_one_window_gram_when_no_entry_is_off_level(monkeypatch):
    # a constant symbol's window has no entry off its level, so B is W_P and the
    # unitary check reads the isometry check's Gram W_P^H W_P - I; a symbol with
    # level-raising entries forms B^H B itself. Either way the residual is the
    # one B^H B gives, bit for bit
    products = Counter()
    matmul = CSC._matmul_csc

    def counting(self, other):
        products["sparse"] += 1
        return matmul(self, other)

    rng = np.random.default_rng(33)
    cases = [(symbol, 1) for symbol in constant_unitary_cases()]
    cases += [(random_ones_diagonal_symbol(TruncatedFockSpace(2, 5, d), rng, 2, True), 2)
              for d in (1, 2, 3)]
    for symbol, grams in cases:
        with monkeypatch.context() as patch:
            patch.setattr(CSC, "_matmul_csc", counting)
            products.clear()
            report = classify(symbol)
            assert report.is_isometric and products["sparse"] == grams
        window = _window(symbol, np.arange(symbol.space.coeff_dim))
        recomputed = _unitary(symbol, 1e-10, window).residual("level_blocks_unitary")
        assert report.residuals["level_blocks_unitary"].hex() == recomputed.hex()


def one_wrong_triplet(symbol, rng):
    """The window of every coefficient column and two faults, each with its
    dense W, on one window column below the window's top level: the value of
    one of its triplets changed, and the same entry moved one level up."""
    space, d = symbol.space, symbol.space.coeff_dim
    window = _window(symbol, np.arange(d))
    w = reference_odometer(symbol)
    col_level = space.word_levels(window.js // d)
    k = int(rng.choice(np.flatnonzero(col_level < window.level)))
    row, col, val = int(window.rows[k]), int(window.js[k]), window.vals[k]
    up = space.level_slice(space.word_levels(row // d) + 1).start + row % d
    changed_vals = window.vals.copy()
    changed_vals[k] += 1e-3 * (1 + 1j)
    moved_rows = window.rows.copy()
    moved_rows[k] = up
    changed_w, moved_w = w.copy(), w.copy()
    changed_w[row, col] += 1e-3 * (1 + 1j)
    moved_w[row, col] -= val
    moved_w[up, col] += val
    return [(window._replace(vals=changed_vals), changed_w), (window._replace(rows=moved_rows), moved_w)]


def test_one_wrong_triplet_fails_the_nica_and_level_block_checks(monkeypatch):
    classify_module = sys.modules["odofock.classify"]
    rng = np.random.default_rng(32)
    symbols = list(constant_unitary_cases())
    symbols.append(random_constant_unitary_symbol(TruncatedFockSpace(2, 6, 2), rng))
    # 16 window columns cut every case but n = 1, d = 1 inside its exactness window
    for window_columns in (classify_module.WINDOW_COLUMNS, 16):
        monkeypatch.setattr(classify_module, "WINDOW_COLUMNS", window_columns)
        for symbol in symbols:
            space = symbol.space
            basis_cols = window_basis_columns(symbol, np.arange(space.coeff_dim), window_columns)
            for wrong, w in one_wrong_triplet(symbol, rng):
                nica = _nica(symbol, 1e-10, wrong, Check("nica_residual", 0.0, 1e-10))
                expected = dense_nica_relation(space, w, basis_cols)
                assert abs(nica.residual("nica_relation") - expected) <= 1e-12 * max(1.0, expected)
                assert nica.residual("nica_relation") > 1e-4 and not nica.passed
                uni = _unitary(symbol, 1e-10, wrong)
                expected = dense_level_blocks(space, w, basis_cols)
                level_blocks = uni.residual("level_blocks_unitary")
                assert abs(level_blocks - expected) <= 1e-12 * max(1.0, expected)
                if basis_cols.size == space.dim:
                    whole = reference_level_block_residual(space, sparse.csc_array(w))
                    assert abs(level_blocks - whole) <= 1e-15
                assert level_blocks > 1e-4 and not uni.passed
    # a vacuum column that leaks to level 2
    space = TruncatedFockSpace(2, 3, 1)
    symbol = scalar_symbol(space, [1.0])
    window = _window(symbol, np.arange(1))
    row = space.level_slice(2).start
    leak = window._replace(rows=np.r_[window.rows, row], js=np.r_[window.js, 0],
                           vals=np.r_[window.vals, 0.25])
    w = reference_odometer(symbol)
    w[row, 0] = 0.25
    uni = _unitary(symbol, 1e-10, leak)
    level_blocks = uni.residual("level_blocks_unitary")
    assert level_blocks == reference_level_block_residual(space, sparse.csc_array(w))
    assert level_blocks == 0.25


def reference_window_defect(symbol, cols, window_columns):
    """Oracle: the largest entry of |G - I| for the dense Gram G of the window
    columns of `reference_odometer`, on the lowest words of the window."""
    basis_cols = window_basis_columns(symbol, cols, window_columns)
    w = reference_odometer(symbol)[:, basis_cols]
    return np.abs(w.conj().T @ w - np.eye(basis_cols.size)).max()


def test_window_defect_matches_dense_gram_oracle(monkeypatch):
    classify_module = sys.modules["odofock.classify"]
    rng = np.random.default_rng(33)
    cases = [
        (symbol, np.arange(symbol.space.coeff_dim)) for symbol in constant_unitary_cases()
    ]
    space = TruncatedFockSpace(2, 4, 2)
    cases += [
        (random_ones_diagonal_symbol(space, rng, force_nonconstant=True), np.arange(2)),
        (random_symbol(space, 2, rng, scale=0.3), np.arange(2)),
        (padded_symbol(), np.arange(2)),
    ]
    for symbol, cols in cases:
        oracle = reference_window_defect(symbol, cols, classify_module.WINDOW_COLUMNS)
        probe = check_isometric(symbol, columns=cols).residual("window_probes")
        assert abs(probe - oracle) <= 1e-14 * max(1.0, oracle)

    # support degree 24 on M = 24: the window is the vacuum column alone, so
    # the defect is | ||L h_0||^2 - 1 |, read off the symbol's entries
    golden = gallery_golden_ratio(60, n=2, max_level=24).symbol
    oracle = abs(float(np.sum(np.abs(golden.csc.data) ** 2)) - 1.0)
    probe = check_isometric(golden).residual("window_probes")
    assert abs(probe - oracle) <= 1e-14 * max(1.0, oracle)

    # a cut window: 16 columns keep levels 0..2 (d = 2) or 0..3 (d = 1) whole
    # plus one word of the next level, out of the 31 window words
    monkeypatch.setattr(classify_module, "WINDOW_COLUMNS", 16)
    space = TruncatedFockSpace(2, 6, 2)
    cut_cases = [
        (random_ones_diagonal_symbol(space, rng, max_support=2, force_nonconstant=True),
         np.arange(2)),
        (random_symbol(space, 2, rng, scale=0.3), np.arange(2)),
        (scalar_symbol(TruncatedFockSpace(2, 6, 1), [0.6, 0.0, 0.8]), np.arange(1)),
    ]
    for symbol, cols in cut_cases:
        assert symbol.space.level_offset(symbol.space.max_level - symbol.support_degree + 1) > 16
        oracle = reference_window_defect(symbol, cols, 16)
        probe = check_isometric(symbol, columns=cols).residual("window_probes")
        assert abs(probe - oracle) <= 1e-14 * max(1.0, oracle)


def test_window_defect_sees_the_shifted_correlation_on_a_large_window():
    # 8191 window words: the cut keeps levels 0..11 whole, so the shift-2
    # correlation 0.6 * 0.8 of the all-ones columns is read exactly
    symbol = scalar_symbol(TruncatedFockSpace(2, 14, 1), [0.6, 0.0, 0.8])
    iso = check_isometric(symbol)
    assert iso.residual("shifted_correlations") == pytest.approx(0.48, abs=1e-15)
    assert abs(iso.residual("window_probes") - iso.residual("shifted_correlations")) <= 1e-15
    assert not iso.passed


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
    # and the norm read only the stored entries. A constant unitary symbol on
    # the same space has all 33,554,431 words in its window, of which the
    # window check builds 4096 columns
    golden = gallery_golden_ratio(60, n=2, max_level=24).symbol
    assert golden.space.dim == 33_554_431 and golden.csc.nnz == 25
    constant = constant_symbol(golden.space, np.array([[np.exp(0.3j)]]))
    assert constant.exact_below == 25
    for symbol in (golden, constant):
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


@pytest.mark.parametrize("max_level", [12, 13, 16])
def test_cross_checks_read_a_window_above_the_dense_limit(max_level):
    # the swap symbol: above D = 8192 the cross-checks read 0.0, not a skipped NaN
    symbol = constant_symbol(TruncatedFockSpace(2, max_level, 2), np.array([[0, 1], [1, 0]]))
    report = classify(symbol)
    assert report.is_nica and report.is_unitary
    assert report.residuals["nica_relation"] == 0.0
    assert report.residuals["level_blocks_unitary"] == 0.0
    # 4096 columns of d = 2 hold the 2047 words of levels 0..10 whole
    assert check_nica(symbol).window == check_unitary(symbol).window == 10


def test_golden_relation_residual_on_the_vacuum_window():
    # support degree 24 on M = 24: the window is the vacuum, where S_1* L h_0
    # is the symbol's part above level 0
    symbol = scalar_symbol(TruncatedFockSpace(2, 24, 1), golden_ratio_coeffs(60))
    report = classify(symbol)
    assert report.is_isometric and not report.is_nica
    assert np.isfinite(report.residuals["nica_relation"])
    assert report.residuals["nica_relation"] >= 0.05
    assert check_nica(symbol).window == check_unitary(symbol).window == 0
