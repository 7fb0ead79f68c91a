"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is fixed, nothing is calibrated at runtime.
"""

import time

import numpy as np
from helpers import (
    haar_unitary,
    random_constant_unitary_symbol,
    random_isometric_symbol,
    random_ones_diagonal_symbol,
    random_symbol,
    word_adjoint_oracle,
)

from odofock import (
    TruncatedFockSpace,
    adjoint_isometric,
    build_odometer,
    check_isometric,
    check_nica,
    classify,
    compress_pair,
    constant_symbol,
    gallery_adding_machine,
    gallery_golden_ratio,
    gallery_shift_symbol,
    gallery_weak_bishift,
    beurling_factorize,
    induced_symbol,
    intertwining_residuals,
    levels_subspace,
    norm_bounds,
    odometer_lift,
    op_norm,
    scalar_symbol,
    spectrum_per_level,
    verify_fock_representation,
)
from odofock import jsonio
from odofock.cli import main as cli_main


def verdict(label: str, ok: bool, note: str = ""):
    print(f"{label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"{label}{' - ' + note if note else ''}"


def test_criterion_01_golden_ratio_isometry(tmp_path, capsys):
    started = time.perf_counter()
    data = gallery_golden_ratio(60, n=2, max_level=24)
    sums_ok = data.unit_sum_error <= 1e-12 and all(
        abs(c) <= 1e-12 for c in data.correlations
    )
    iso = check_isometric(data.symbol, tol=1e-10)
    # the exact columns of the truncated map are orthonormal within 1e-10:
    # carry columns are exactly orthonormal, and the window overflow columns
    # reduce to the symbol gram and correlation residuals
    window_ok = (
        iso.residual("isometry_gram") <= 1e-10
        and iso.residual("ones_support") <= 1e-10
        and iso.residual("shifted_correlations") <= 1e-10
    )
    path = tmp_path / "golden.json"
    jsonio.dump_path(data.symbol, str(path))
    exit_code = cli_main(["check", "isometry", "--symbol", str(path)])
    capsys.readouterr()
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        verdict(
            "criterion 01 golden-ratio isometry (P=60, M=24, <5s)",
            sums_ok and window_ok and iso.passed and exit_code == 0 and elapsed < 5.0,
        )


def test_criterion_02_roundtrip_symbol_uniqueness(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        max_level = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        support = int(rng.integers(0, max_level))
        space = TruncatedFockSpace(n, max_level, d)
        symbol = random_symbol(space, support, rng)
        wmap = build_odometer(symbol)
        check = verify_fock_representation(wmap.operator)
        recovery = np.abs((check.symbol.matrix - symbol.matrix).toarray()).max()
        ok &= check.is_representation
        ok &= all(r <= 1e-13 for r in check.residuals.values())
        ok &= recovery <= 1e-14
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        verdict(
            "criterion 02 odometer relations + symbol recovery (100 random, <30s)",
            ok and elapsed < 30.0,
        )


def test_criterion_03_adjoint_formula(capsys):
    rng = np.random.default_rng(3)
    ok = True
    for trial in range(20):
        d = int(rng.integers(1, 4))
        space = TruncatedFockSpace(2, 4, d)
        if trial % 2 == 0:
            symbol = random_constant_unitary_symbol(space, rng)
        else:
            symbol = random_ones_diagonal_symbol(space, rng)
        wmap = build_odometer(symbol)
        adj = adjoint_isometric(wmap)
        rows = space.dim_upto(wmap.exact_below - 1)
        ok &= (
            np.abs((adj.matrix - wmap.operator.matrix.conj().T)[:rows, :]).max() <= 1e-12
        )
        cols = rows
        prod = adj.matrix @ wmap.operator.matrix - np.eye(space.dim)
        ok &= np.abs(prod[:, :cols]).max() <= 1e-12
    with capsys.disabled():
        verdict("criterion 03 adjoint formula matches truncated transpose", ok)


def test_criterion_04_nica_classification(capsys):
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(5):
        space = TruncatedFockSpace(2, 3, int(rng.integers(1, 4)))
        nica = check_nica(random_constant_unitary_symbol(space, rng))
        ok &= nica.passed and nica.residual("nica_relation") <= 1e-12
    golden = gallery_golden_ratio(60, n=2, max_level=24)
    nica = check_nica(golden.symbol)
    ok &= (not nica.passed) and nica.residual("nica_residual") >= 1e-2
    phase = scalar_symbol(TruncatedFockSpace(2, 3, 1), [np.exp(0.9j)])
    report = classify(phase)
    ok &= report.is_isometric and report.is_nica and report.is_unitary
    with capsys.disabled():
        verdict("criterion 04 Nica classification (constant / golden / phase)", ok)


def test_criterion_05_finite_dimensional_equivalence(capsys):
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(50):
        d = int(rng.integers(1, 5))
        space = TruncatedFockSpace(2, 4, d)
        symbol = random_isometric_symbol(space, rng)
        report = classify(symbol)
        ok &= report.is_isometric
        block = symbol.matrix[:d, :].toarray()
        eye = np.eye(d)
        constant_unitary = (
            report.residuals["nica_residual"] <= 1e-10
            and op_norm(block.conj().T @ block - eye) <= 1e-10
            and op_norm(block @ block.conj().T - eye) <= 1e-10
        )
        ok &= report.is_nica == constant_unitary == report.is_unitary
    with capsys.disabled():
        verdict("criterion 05 finite-dimensional equivalence (50 random)", ok)


def test_criterion_06_norm_facts(capsys):
    # KNOWN RED: the upper half of the sandwich is falsifiable. Over a
    # one-letter alphabet the odometer map is Toeplitz multiplication by the
    # symbol, whose norm approaches the sup of the symbol function; for
    # coefficients (1, 1, 1) that sup is 3 > 1 + sqrt(3) = 1 + ||L||, and the
    # truncated norm (an underestimate) already exceeds the claimed bound.
    # Roughly one random draw in ten violates it, so this criterion cannot
    # pass as stated; see test_upper_norm_bound_fails_for_toeplitz_symbols
    # for the green counterexample certificate.
    rng = np.random.default_rng(6)
    witness = scalar_symbol(TruncatedFockSpace(2, 4, 1), [0.0, 2**-0.5, 2**-0.5])
    nb = norm_bounds(build_odometer(witness))
    ok = abs(nb.symbol_norm - 1.0) <= 1e-12
    ok &= nb.map_norm >= np.sqrt(1.5) - 1e-9
    for _ in range(20):
        n = int(rng.integers(1, 4))
        max_level = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        space = TruncatedFockSpace(n, max_level, d)
        symbol = random_symbol(space, int(rng.integers(0, max_level + 1)), rng,
                               scale=float(rng.uniform(0.1, 2.0)))
        nb = norm_bounds(build_odometer(symbol))
        ok &= nb.symbol_norm <= nb.map_norm + 1e-12
        ok &= nb.map_norm <= 1.0 + nb.symbol_norm + 1e-12
    with capsys.disabled():
        verdict(
            "criterion 06 norm facts and sandwich (witness + 20 random)",
            ok,
            note="upper sandwich bound is false in general; "
            "see the Toeplitz counterexample test",
        )


def test_criterion_07_dilation_and_lift(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        d = int(rng.integers(1, 3))
        space = TruncatedFockSpace(2, 6, d)
        symbol = random_symbol(space, int(rng.integers(0, 5)), rng)
        pair = compress_pair(symbol, 2)
        lift = odometer_lift(pair, 6)
        data = lift.dilation
        ok &= data.purity_residual == 0.0
        ok &= data.isometry_defect <= 1e-12
        ok &= all(r <= 1e-12 for r in intertwining_residuals(data, pair.t))
        ok &= lift.intertwining_residual <= 1e-8
        # telescoping: |Pi h|^2 = |h|^2 - tail mass at level M+1, per basis h
        tail_ops = word_adjoint_oracle(pair.t, 7)
        gram = data.poisson.conj().T @ data.poisson
        for k in range(pair.t.dim):
            h = np.zeros(pair.t.dim, dtype=complex)
            h[k] = 1.0
            tail = sum(np.linalg.norm(adj @ h) ** 2 for adj in tail_ops)
            ok &= abs(gram[k, k].real - (1.0 - tail)) <= 1e-12
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        verdict(
            "criterion 07 dilation + lift round trip (20 pairs, <60s)",
            ok and elapsed < 60.0,
        )


def test_criterion_08_beurling_and_subrepresentation(capsys):
    rng = np.random.default_rng(8)
    ok = True
    for d in (1, 2):
        space = TruncatedFockSpace(2, 5, d)
        symbol = constant_symbol(space, haar_unitary(d, rng))
        wmap = build_odometer(symbol)
        sub = levels_subspace(space, 1)
        fact = beurling_factorize(sub)
        ok &= fact.inner_residual <= 1e-12
        ok &= fact.multi_analytic_residual <= 1e-12
        ok &= fact.wandering_dim == 2 * d
        ok &= fact.domain.dim == sub.dim and fact.covers_subspace
        result = induced_symbol(sub, wmap, factorization=fact)
        ncols = result.factorization.domain.dim_upto(result.window)
        diff = wmap.operator.matrix @ fact.phi - fact.phi @ build_odometer(
            result.symbol
        ).operator.matrix
        ok &= op_norm(diff[:, :ncols]) <= 1e-10
        # two wandering bases give factorizations differing by a unitary
        rot = haar_unitary(fact.wandering_dim, rng)
        fact2 = beurling_factorize(sub, wandering_basis=fact.wandering_basis @ rot)
        overlap = fact.phi.conj().T @ fact2.phi
        wdim = fact.wandering_dim
        words = fact.domain.num_words
        tau = sum(
            overlap[w * wdim : (w + 1) * wdim, w * wdim : (w + 1) * wdim]
            for w in range(words)
        ) / words
        ok &= op_norm(overlap - np.kron(np.eye(words), tau)) <= 1e-10
        ok &= op_norm(tau.conj().T @ tau - np.eye(wdim)) <= 1e-10
    with capsys.disabled():
        verdict("criterion 08 Beurling factorization + induced symbol", ok)


def test_criterion_09_spectrum_density(capsys):
    ok = True
    for theta in (0.4, 2.13, -0.7):
        space = TruncatedFockSpace(2, 6, 1)
        report = spectrum_per_level(scalar_symbol(space, [np.exp(1j * theta)]))
        ok &= all(lv.hausdorff <= 1e-9 for lv in report.per_level)
        ok &= abs(report.max_gap - 2 * np.pi / 64) <= 1e-9
    with capsys.disabled():
        verdict("criterion 09 spectrum per level + angular density", ok)


def test_criterion_10_gallery_fidelity(tmp_path, capsys):
    # each entry is driven through `gen-example` (+ `check` where a symbol
    # exists) and must reproduce its documented verdicts
    timings = {}

    started = time.perf_counter()
    adding_ok = cli_main(["gen-example", "adding-machine", "--q", "1", "--size", "16"]) == 0
    adding_ok &= cli_main(["gen-example", "adding-machine", "--q", "1j", "--size", "16"]) == 0
    plain = gallery_adding_machine(1.0, 16)
    twisted = gallery_adding_machine(1j, 16)
    adding_ok &= (
        plain.checks["carry_relation"] <= 1e-12
        and plain.checks["twist_relation"] <= 1e-12
        and plain.checks["nica_relation"] <= 1e-12
        and plain.expected["nica"]
        and twisted.checks["twisted_nica_relation"] <= 1e-12
        and twisted.checks["nica_relation"] > 1e-2
        and not twisted.expected["nica"]
    )
    timings["adding"] = time.perf_counter() - started

    started = time.perf_counter()
    bishift_path = str(tmp_path / "bishift.json")
    bishift_ok = cli_main(
        ["gen-example", "weak-bishift", "--d", "3", "--level", "4", "--out", bishift_path]
    ) == 0
    bishift_ok &= cli_main(["check", "isometry", "--symbol", bishift_path]) == 0
    bishift_ok &= cli_main(["check", "nica", "--symbol", bishift_path]) == 1
    bishift = gallery_weak_bishift(3, 4)
    bishift_ok &= (
        bishift.classification.is_isometric
        and not bishift.classification.is_nica
        and bishift.checks["witness_residual"] <= 1e-12
    )
    timings["bishift"] = time.perf_counter() - started

    started = time.perf_counter()
    shift_ok = cli_main(["gen-example", "shift-symbol", "--d", "5"]) == 0
    shift = gallery_shift_symbol(5)
    shift_ok &= (
        shift.classification.is_nica
        and not shift.classification.is_unitary
        and shift.classification.residuals["surjectivity_defect"] == 1.0
    )
    timings["shift"] = time.perf_counter() - started

    started = time.perf_counter()
    golden_path = str(tmp_path / "golden.json")
    golden_ok = cli_main(
        ["gen-example", "golden-ratio", "--terms", "60", "--level", "24",
         "--out", golden_path]
    ) == 0
    golden_ok &= cli_main(["check", "isometry", "--symbol", golden_path]) == 0
    timings["golden"] = time.perf_counter() - started
    capsys.readouterr()

    ok = adding_ok and bishift_ok and shift_ok and golden_ok
    ok &= all(t < 5.0 for t in timings.values())
    with capsys.disabled():
        verdict("criterion 10 gallery fidelity (four entries, each <5s)", ok)
