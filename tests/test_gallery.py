"""The named examples and the per-level spectrum reports."""

import sys
from collections import Counter

import numpy as np
import pytest
from helpers import (
    creation_oracle,
    haar_unitary,
    hausdorff_distance,
    reference_level_spectrum,
    shift_word_index,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from odofock import (
    CertificateError,
    NotIsometricError,
    NotUnitaryError,
    TruncatedFockSpace,
    build_odometer,
    constant_symbol,
    gallery_adding_machine,
    gallery_golden_ratio,
    gallery_shift_symbol,
    gallery_weak_bishift,
    golden_ratio_coeffs,
    scalar_symbol,
    spectrum_per_level,
)
from odofock.csc import CSC
from odofock.gallery import _level_cycle_spectrum, _ring_hausdorff, _roots

# The point-set oracle rounds each root it forms by a few units in the last
# place, so the two Hausdorff distances can differ by a few 1e-16
RING_HAUSDORFF_TOL = 2e-15


def test_adding_machine_untwisted_relations():
    entry = gallery_adding_machine(1.0, 16)
    assert entry.checks["carry_relation"] <= 1e-14
    assert entry.checks["twist_relation"] <= 1e-14
    assert entry.checks["nica_relation"] <= 1e-14
    assert entry.expected["nica"]


def test_adding_machine_twisted_phase():
    q = 1j
    entry = gallery_adding_machine(q, 16)
    assert entry.checks["carry_relation"] <= 1e-14
    assert entry.checks["twist_relation"] <= 1e-14
    assert entry.checks["twisted_nica_relation"] <= 1e-14
    assert entry.checks["nica_relation"] > 0.5
    assert not entry.expected["nica"]
    # spot check the defining actions
    v1, v2, w = entry.operators["v1"], entry.operators["v2"], entry.operators["w"]
    assert v1[2, 1] == np.conj(q) ** 2
    assert v2[3, 1] == np.conj(q) ** 3
    assert w[1, 0] == np.conj(q)
    # direct product oracle for W V_2 = q V_1 W on an interior column
    k = 3
    lhs = w @ v2[:, k]
    rhs = q * v1 @ w[:, k]
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_adding_machine_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gallery_adding_machine(2.0, 16)
    with pytest.raises(ValueError):
        gallery_adding_machine(1.0, 2)


def test_weak_bishift_is_isometric_not_nica():
    entry = gallery_weak_bishift(3, 4)
    report = entry.classification
    assert report.is_isometric
    assert not report.is_nica
    assert not report.is_unitary
    assert entry.checks["witness_residual"] <= 1e-14


def test_weak_bishift_single_block_is_constant_unitary():
    entry = gallery_weak_bishift(1, 3)
    report = entry.classification
    assert report.is_isometric and report.is_nica and report.is_unitary


def test_weak_bishift_blockwise_correlations_vanish():
    entry = gallery_weak_bishift(3, 5)
    symbol = entry.symbol
    dense = symbol.matrix.toarray()
    space = symbol.space
    # oracle: <L h_a, ones^r (x) L h_b> by explicit shifting
    for r in range(1, space.max_level - symbol.support_degree + 1):
        for a in range(3):
            for b in range(3):
                shifted = np.zeros(space.dim, dtype=complex)
                for idx in range(space.dim):
                    wi, s = divmod(idx, 3)
                    t = shift_word_index(space, wi, r)
                    if t is not None:
                        shifted[t * 3 + s] = dense[idx, b]
                assert abs(np.vdot(shifted, dense[:, a])) <= 1e-14
    assert entry.classification.residuals["shifted_correlations"] <= 1e-14


def test_weak_bishift_requires_room():
    with pytest.raises(ValueError):
        gallery_weak_bishift(4, 3)


def test_golden_ratio_partial_sums_within_tails():
    data = gallery_golden_ratio(40)
    assert data.unit_sum_error <= data.unit_tail_bound + 1e-15
    for corr, bound in zip(data.correlations, data.correlation_tail_bounds):
        assert abs(corr) <= bound + 1e-15
    # the infinite identities force the tails themselves to shrink
    assert data.unit_tail_bound < 1e-16


@pytest.mark.parametrize("terms", [1, 2, 3, 4, 5])
def test_golden_ratio_lags_beyond_the_terms_are_zero(terms):
    data = gallery_golden_ratio(terms)
    assert len(data.correlations) == len(data.correlation_tail_bounds) == 4
    for r, (corr, bound) in enumerate(zip(data.correlations, data.correlation_tail_bounds), 1):
        assert abs(corr) <= bound + 1e-15
        if r > terms:
            assert corr == 0 and bound == 0.0


def test_golden_ratio_coefficient_coincidence():
    coeffs = golden_ratio_coeffs(5)
    assert coeffs[0] == coeffs[1]
    assert coeffs[0] == pytest.approx(np.sqrt(2.0 / (np.sqrt(5.0) + 3.0)), abs=0)


def test_golden_ratio_symbol_truncates_to_level():
    data = gallery_golden_ratio(20, n=2, max_level=6)
    assert data.symbol.space.max_level == 6
    assert data.symbol.support_degree == 6


def test_shift_symbol_interior_nica_global_defect():
    entry = gallery_shift_symbol(5)
    report = entry.classification
    assert report.is_isometric  # on the interior columns h_0..h_3
    assert report.is_nica
    assert not report.is_unitary
    assert report.residuals["surjectivity_defect"] == 1.0


def test_shift_symbol_minimal_interior():
    entry = gallery_shift_symbol(2)
    assert entry.classification.is_nica
    assert not entry.classification.is_unitary


def test_shift_symbol_rejects_trivial_dimension():
    with pytest.raises(ValueError):
        gallery_shift_symbol(1)


def test_shift_symbol_orbit_reaches_whole_truncation():
    # breadth-first closure of the generator orbit of (vacuum, h_0)
    entry = gallery_shift_symbol(3, max_level=3)
    space = entry.symbol.space
    w = build_odometer(entry.symbol).operator.matrix
    gens = [creation_oracle(space, i) for i in (1, 2)] + [w]
    start = np.zeros((space.dim, 1), dtype=complex)
    start[0, 0] = 1.0
    collected = start
    frontier = start
    for _ in range(space.dim):
        moved = np.hstack([g @ frontier for g in gens])
        stacked = np.hstack([collected, moved])
        rank_before = np.linalg.matrix_rank(collected, tol=1e-10)
        rank_after = np.linalg.matrix_rank(stacked, tol=1e-10)
        if rank_after == rank_before:
            break
        frontier = moved
        collected = stacked
    assert np.linalg.matrix_rank(collected, tol=1e-10) == space.dim


@pytest.mark.parametrize("theta", [0.0, 2.13, -0.7])
def test_spectrum_levels_are_root_sets(theta):
    space = TruncatedFockSpace(2, 3, 1)
    report = spectrum_per_level(scalar_symbol(space, [np.exp(1j * theta)]))
    for lv in report.per_level:
        assert lv.hausdorff <= 1e-9
        assert lv.eigenvalues.size == 2**lv.level
        # oracle: the 2^m-th roots of the phase
        roots = np.exp(1j * (theta + 2 * np.pi * np.arange(2**lv.level)) / 2**lv.level)
        got = np.sort_complex(np.round(lv.eigenvalues, 10))
        want = np.sort_complex(np.round(roots, 10))
        assert np.abs(got - want).max() <= 1e-9
    assert report.unimodularity_residual <= 1e-10


def test_spectrum_level_zero_is_block_spectrum():
    rng = np.random.default_rng(2)
    from helpers import haar_unitary

    space = TruncatedFockSpace(2, 2, 3)
    u = haar_unitary(3, rng)
    report = spectrum_per_level(constant_symbol(space, u))
    lv0 = report.per_level[0]
    got = np.sort_complex(np.round(lv0.eigenvalues, 8))
    want = np.sort_complex(np.round(np.linalg.eigvals(u), 8))
    assert np.abs(got - want).max() <= 1e-9


def test_spectrum_max_gap_density():
    gaps = []
    for m in range(1, 7):
        space = TruncatedFockSpace(2, m, 1)
        report = spectrum_per_level(scalar_symbol(space, [np.exp(2.13j)]))
        gaps.append(report.max_gap)
        assert abs(report.max_gap - 2 * np.pi / 2**m) <= 1e-9
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # a two-dimensional rotation block also densifies strictly
    theta = 0.77
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    gaps = []
    for m in range(1, 6):
        space = TruncatedFockSpace(2, m, 2)
        gaps.append(spectrum_per_level(constant_symbol(space, rot)).max_gap)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # scalar phases over a three-letter alphabet hit 2 pi / n^M as well
    for m in (1, 2, 3):
        space = TruncatedFockSpace(3, m, 1)
        report = spectrum_per_level(scalar_symbol(space, [np.exp(0.9j)]))
        assert abs(report.max_gap - 2 * np.pi / 3**m) <= 1e-9


def test_level_blocks_power_down_to_base_block():
    rng = np.random.default_rng(5)
    from helpers import haar_unitary

    space = TruncatedFockSpace(2, 4, 2)
    u = haar_unitary(2, rng)
    w = build_odometer(constant_symbol(space, u)).operator.matrix
    for m in range(space.max_level + 1):
        sl = space.level_slice(m)
        block = w[sl, sl].toarray()
        eye = np.eye(block.shape[0])
        assert np.abs(block.conj().T @ block - eye).max() <= 1e-12
        power = np.linalg.matrix_power(block, 2**m)
        assert np.abs(power - np.kron(np.eye(2**m), u)).max() <= 1e-12


def test_spectrum_requires_unitary_symbol():
    # z is isometric and not unitary; 0.5 is not isometric
    space = TruncatedFockSpace(2, 3, 1)
    with pytest.raises(NotUnitaryError):
        spectrum_per_level(scalar_symbol(space, [0.0, 1.0]))
    with pytest.raises(NotIsometricError):
        spectrum_per_level(scalar_symbol(space, [0.5]))


def test_gallery_builds_w_only_for_the_spectrum(monkeypatch):
    builds = Counter()

    def counting(fn):
        def inner(*args, **kwargs):
            builds["build_odometer"] += 1
            return fn(*args, **kwargs)

        return inner

    for name in ("odofock.gallery", "odofock.odometer"):
        module = sys.modules[name]
        monkeypatch.setattr(module, "build_odometer", counting(module.build_odometer))
    space = TruncatedFockSpace(2, 6, 1)
    report = spectrum_per_level(constant_symbol(space, np.array([[np.exp(0.3j)]])))
    assert len(report.per_level) == 7
    assert builds == Counter({"build_odometer": 1})
    builds.clear()
    # the witness reads L h_m, which is W(vacuum, h_m)
    entry = gallery_weak_bishift(3, 4)
    assert entry.classification.is_isometric
    assert entry.checks["witness_residual"] == 0.0
    assert builds == Counter()


@pytest.mark.parametrize("n, max_level", [(1, 6), (2, 6), (3, 4)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cycle_spectrum_matches_dense_eigvals(n, max_level, d):
    rng = np.random.default_rng(100 * n + 10 * max_level + d)
    space = TruncatedFockSpace(n, max_level, d)
    symbol = constant_symbol(space, haar_unitary(d, rng))
    report = spectrum_per_level(symbol)
    w = build_odometer(symbol).operator.csc
    tol = 1e-10
    for lv in report.per_level:
        oracle = reference_level_spectrum(space, w, lv.level)
        assert lv.eigenvalues.size == oracle.size == d * n**lv.level
        assert hausdorff_distance(lv.eigenvalues, oracle) <= 1e-12
        points = hausdorff_distance(lv.eigenvalues, lv.predicted)
        assert abs(lv.hausdorff - points) <= RING_HAUSDORFF_TOL
        assert lv.eigpair_residual <= 1e-12
        unimodular = np.abs(np.abs(lv.eigenvalues) - 1.0).max() <= tol
        assert unimodular == (np.abs(np.abs(oracle) - 1.0).max() <= tol)


def swap_rows(w: CSC, a: int, b: int) -> CSC:
    dense = w.toarray()
    dense[[a, b]] = dense[[b, a]]
    return CSC.from_dense(dense)


@pytest.mark.parametrize("d", [1, 2])
def test_cycle_certificate_refuses_permuted_carry_rows(d):
    space = TruncatedFockSpace(2, 3, d)
    w = build_odometer(constant_symbol(space, np.eye(d, dtype=complex))).operator.csc
    for m in range(space.max_level + 1):
        _level_cycle_spectrum(space, w, m)
    # the rows of the level-2 words at positions 1 and 2, which the carry
    # reaches from positions 2 and 0
    lo = space.level_offset(2)
    tampered = swap_rows(w, (lo + 1) * d, (lo + 2) * d)
    # with d = 1 the cycle splits in two; with d > 1 one coordinate of each
    # column word moves, so the column words reach two row words
    message = "one 4-cycle" if d == 1 else "one row word"
    with pytest.raises(CertificateError, match=f"level 2: .*{message}") as err:
        _level_cycle_spectrum(space, tampered, 2)
    (check,) = err.value.checks
    assert (check.name, check.window, check.passed) == ("level_2_certificate", 2, False)
    for m in (0, 1, 3):
        _level_cycle_spectrum(space, tampered, m)


def test_spectrum_solves_only_coefficient_sized_eigenproblems(monkeypatch):
    shapes = []

    def recording(fn):
        def inner(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)

        return inner

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    rng = np.random.default_rng(4)
    space = TruncatedFockSpace(2, 6, 3)
    report = spectrum_per_level(constant_symbol(space, haar_unitary(3, rng)))
    assert len(report.per_level) == 7
    # one eigensolve per level from W and one of the symbol's level-0 block
    assert shapes == [(3, 3)] * 8


def test_spectrum_at_the_top_of_the_dense_cap():
    # n = 2, M = 12: D = 8191, the top level block has N = 4096
    space = TruncatedFockSpace(2, 12, 1)
    report = spectrum_per_level(scalar_symbol(space, [np.exp(0.77j)]))
    assert sum(lv.eigenvalues.size for lv in report.per_level) == space.dim == 8191
    assert all(lv.hausdorff <= 1e-9 for lv in report.per_level)
    assert all(lv.eigpair_residual <= 1e-10 for lv in report.per_level)
    assert report.unimodularity_residual <= 1e-10
    for lv in report.per_level:
        points = hausdorff_distance(lv.eigenvalues, lv.predicted)
        assert abs(lv.hausdorff - points) <= RING_HAUSDORFF_TOL


polar = st.tuples(st.floats(0.0, 1.0), st.floats(-np.pi, np.pi)).map(
    lambda rt: rt[0] * np.exp(1j * rt[1])
)
ring_values = st.lists(polar, min_size=1, max_size=3).map(np.array)


@st.composite
def ring_pairs(draw):
    """Values mu and u, at most three each, and a root order; one draw in two
    puts u within 1e-12 of mu, so that the rings nearly coincide."""
    mu = draw(ring_values)
    if draw(st.booleans()):
        jitter = st.complex_numbers(max_magnitude=1e-12)
        u = mu + np.array(draw(st.lists(jitter, min_size=mu.size, max_size=mu.size)))
    else:
        u = draw(ring_values)
    return mu, u, draw(st.sampled_from([1, 2, 3, 4, 27, 256]))


@settings(max_examples=200)
@given(ring_pairs())
def test_ring_hausdorff_matches_the_point_set_oracle(case):
    mu, u, order = case
    points = hausdorff_distance(_roots(mu, order), _roots(u, order))
    assert abs(_ring_hausdorff(mu, u, order) - points) <= RING_HAUSDORFF_TOL
    assert _ring_hausdorff(mu, mu, order) == 0.0


@pytest.mark.parametrize("sizes", [(1, 7), (37, 5), (300, 2000), (20000, 3)])
def test_hausdorff_distance_matches_the_one_shot_formula(sizes):
    rng = np.random.default_rng(sum(sizes))
    a, b = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in sizes)
    for x, y in ((a, b), (b, a)):
        dist = np.abs(x[:, None] - y[None, :])
        want = max(dist.min(axis=1).max(), dist.min(axis=0).max())
        assert hausdorff_distance(x, y) == want
    # a NaN point leaves the distance NaN, as it does the one-shot formula
    assert np.isnan(hausdorff_distance(np.r_[a, np.nan], b))
    assert np.isnan(hausdorff_distance(a, np.r_[np.nan, b]))
