"""CLI subcommands, exit codes, and report determinism."""

import json

import numpy as np
import pytest
from helpers import (
    haar_unitary,
    oracle_operator_document,
    random_symbol,
    reference_adjoint,
    reference_odometer,
    unit_row_contraction,
    weighted_cycle,
)

from odofock import ContractivePair, RowContraction, TruncatedFockSpace, compress_pair
from odofock import constant_symbol, gallery_weak_bishift, jsonio, levels_subspace, scalar_symbol
from odofock import symbol_from_dense
from odofock.cli import main
from odofock.config import DEFAULT_TOL, resolve_tol


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


def write_symbol(tmp_path, name, symbol):
    path = tmp_path / name
    jsonio.dump_path(symbol, str(path))
    return str(path)


def test_check_unitary_on_vacuum_phase(tmp_path, capsys):
    space = TruncatedFockSpace(2, 2, 1)
    path = write_symbol(tmp_path, "vac.json", scalar_symbol(space, [1.0]))
    code, report = run(capsys, "check", "unitary", "--symbol", path)
    assert code == 0
    assert report["passed"]


def test_check_nica_fails_on_golden(tmp_path, capsys):
    code, _ = run(
        capsys, "gen-example", "golden-ratio", "--terms", "28", "--n", "1",
        "--level", "32", "--out", str(tmp_path / "golden.json"),
    )
    assert code == 0
    code, report = run(capsys, "check", "nica", "--symbol", str(tmp_path / "golden.json"))
    assert code == 1
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    assert residuals["nica_residual"] >= 1e-2


def test_malformed_input_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "symbol", "n": 2, "max_level": 2, "coeff_dim": 1, '
                   '"entries": [[0, 9, 1.0, 0.0]]}')
    code, _ = run(capsys, "check", "isometry", "--symbol", str(bad))
    assert code == 2
    code, _ = run(capsys, "check", "isometry", "--symbol", str(tmp_path / "missing.json"))
    assert code == 2


def test_unknown_arguments_exit_two(capsys):
    assert main(["check", "everything", "--symbol", "x.json"]) == 2
    capsys.readouterr()


def test_reports_are_deterministic(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 2)
    rng = np.random.default_rng(0)
    path = write_symbol(tmp_path, "sym.json", random_symbol(space, 2, rng))
    _, first = run(capsys, "check", "isometry", "--symbol", path)
    _, second = run(capsys, "check", "isometry", "--symbol", path)
    for measured in ("wall_time_s", "peak_rss_mb"):
        first.pop(measured)
        second.pop(measured)
    assert first == second
    # the window check draws nothing at random, so there is no seed to set
    assert run(capsys, "check", "isometry", "--symbol", path, "--seed", "7")[0] == 2


def test_every_report_gives_peak_memory_next_to_wall_time(tmp_path, capsys):
    path = write_symbol(tmp_path, "vac.json", scalar_symbol(TruncatedFockSpace(2, 2, 1), [1.0]))
    for argv in (["check", "unitary", "--symbol", path],
                 ["build-w", "--symbol", path],
                 ["gen-example", "shift-symbol", "--d", "3"]):
        _, report = run(capsys, *argv)
        assert report["wall_time_s"] >= 0.0
        assert isinstance(report["peak_rss_mb"], float) and report["peak_rss_mb"] > 0.0


def test_build_and_verify_pipeline(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 1)
    path = write_symbol(tmp_path, "sym.json", scalar_symbol(space, [0.6, 0.8]))
    wpath = str(tmp_path / "w.json")
    code, report = run(capsys, "build-w", "--symbol", path, "--out", wpath)
    assert code == 0
    assert report["parameters"]["exact_below"] == 3
    code, report = run(capsys, "check", "representation", "--symbol", wpath)
    assert code == 0
    assert report["passed"]
    # the symbol document itself also drives the round-trip check
    code, report = run(capsys, "check", "representation", "--symbol", path)
    assert code == 0
    assert report["passed"]


def test_representation_reports_name_size_and_storage(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 1)
    path = write_symbol(tmp_path, "sym.json", scalar_symbol(space, [0.6, 0.8]))
    wpath = str(tmp_path / "w.json")
    # 11 carry entries plus two symbol entries in each of the four all-n
    # columns, one of them truncated at the top level
    nnz = 11 + 2 * 4 - 1
    for argv in (("build-w", "--symbol", path, "--out", wpath),
                 ("check", "representation", "--symbol", wpath)):
        code, report = run(capsys, *argv)
        assert code == 0
        params = report["parameters"]
        assert (params["dim"], params["nnz"], params["storage"]) == (15, nnz, "csc")
        assert params["vacuous"] is False
        assert all(c["window"] == 1 for c in report["checks"])


def test_empty_window_is_vacuous_and_fails(tmp_path, capsys):
    # the README's golden-ratio case: support degree 8 at level 8 leaves window -1
    golden = str(tmp_path / "golden8.json")
    code, _ = run(capsys, "gen-example", "golden-ratio", "--terms", "8", "--level", "8",
                  "--out", golden)
    assert code == 0
    code, report = run(capsys, "check", "representation", "--symbol", golden)
    assert code == 1
    assert not report["passed"]
    assert report["parameters"]["vacuous"] is True
    (check,) = report["checks"]
    assert check["window"] == -1 and check["residual"] is None and not check["passed"]


def test_written_operators_match_dense_oracle_bytes(tmp_path, capsys):
    # real entries conjugated: every imaginary part of the symbol is -0.0,
    # which W stores as +0.0; the adjoint conjugates and keeps its -0.0
    space = TruncatedFockSpace(2, 4, 2)
    real = random_symbol(space, 2, np.random.default_rng(4)).matrix.toarray().real
    symbol = symbol_from_dense(space, np.conj(real + 0j))
    assert np.signbit(symbol.matrix.data.imag).all()
    path = write_symbol(tmp_path, "sym.json", symbol)
    wpath = tmp_path / "w.json"
    run(capsys, "build-w", "--symbol", path, "--out", str(wpath))
    oracle = oracle_operator_document(reference_odometer(symbol), space, symbol.exact_below)
    assert wpath.read_text() == jsonio.dumps(oracle) + "\n"

    iso = gallery_weak_bishift(2, 4).symbol
    path = write_symbol(tmp_path, "iso.json", iso)
    apath = tmp_path / "adj.json"
    code, _ = run(capsys, "adjoint", "--symbol", path, "--out", str(apath))
    assert code == 0
    oracle = oracle_operator_document(reference_adjoint(iso), iso.space, iso.space.max_level + 1)
    text = apath.read_text()
    assert "-0.0" in text
    assert text == jsonio.dumps(oracle) + "\n"


def test_adjoint_command(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 2)
    rng = np.random.default_rng(5)
    path = write_symbol(tmp_path, "iso.json", constant_symbol(space, haar_unitary(2, rng)))
    code, report = run(capsys, "adjoint", "--symbol", path, "--out", str(tmp_path / "adj.json"))
    assert code == 0
    assert report["passed"]
    # non-isometric symbol: mathematical failure, not a schema problem
    scalar_space = TruncatedFockSpace(2, 3, 1)
    bad = write_symbol(tmp_path, "bad.json", scalar_symbol(scalar_space, [0.5, 0.5]))
    code, report = run(capsys, "adjoint", "--symbol", bad)
    assert code == 1


def test_dilate_and_lift_commands(tmp_path, capsys):
    space = TruncatedFockSpace(2, 5, 1)
    pair = compress_pair(scalar_symbol(space, [0.8, 0.6]), 2)
    ppath = str(tmp_path / "pair.json")
    jsonio.dump_path(pair, ppath)
    code, report = run(capsys, "dilate", "--pair", ppath, "--level", "5")
    assert code == 0 and report["passed"]
    code, report = run(capsys, "lift", "--pair", ppath, "--level", "5",
                       "--out", str(tmp_path / "lift.json"))
    assert code == 0 and report["passed"]
    lifted = jsonio.load_path(str(tmp_path / "lift.json"))
    assert lifted.space.n == 2


def test_lift_rejects_non_pure_pair(tmp_path, capsys):
    # a unitary scalar pair: W = T_1 = 1 satisfies the n = 1 relations but is not pure
    one = np.array([[1.0 + 0.0j]])
    pair = ContractivePair(RowContraction((one,)), one)
    ppath = str(tmp_path / "unitary.json")
    jsonio.dump_path(pair, ppath)
    code, report = run(capsys, "lift", "--pair", ppath, "--level", "4")
    assert code == 1
    assert not report["passed"]


def unitary_scalar_pair(tmp_path):
    # W = T_1 = 1 satisfies the n = 1 relations, and its purity tail stays 1
    one = np.array([[1.0 + 0.0j]])
    ppath = str(tmp_path / "unitary.json")
    jsonio.dump_path(ContractivePair(RowContraction((one,)), one), ppath)
    return ppath


def test_lift_reports_the_purity_tail(tmp_path, capsys):
    code, report = run(capsys, "lift", "--pair", unitary_scalar_pair(tmp_path), "--level", "4")
    assert code == 1
    check = next(c for c in report["checks"] if c["name"] == "pair_purity")
    assert check["residual"] >= 0.9 and not check["passed"]


def test_lift_runs_one_purity_test(tmp_path, capsys, monkeypatch):
    from odofock import dilation

    calls = []
    purity_test = dilation.purity_test

    def counting(*args, **kwargs):
        calls.append(args)
        return purity_test(*args, **kwargs)

    monkeypatch.setattr(dilation, "purity_test", counting)
    space = TruncatedFockSpace(2, 5, 1)
    ppath = str(tmp_path / "pair.json")
    jsonio.dump_path(compress_pair(scalar_symbol(space, [0.8, 0.6]), 2), ppath)
    for pair in (ppath, unitary_scalar_pair(tmp_path)):
        calls.clear()
        run(capsys, "lift", "--pair", pair, "--level", "5")
        assert len(calls) == 1


def zero_w_pair(tmp_path, name, t):
    ppath = str(tmp_path / name)
    jsonio.dump_path(ContractivePair(t, np.zeros((t.dim, t.dim), dtype=complex)), ppath)
    return ppath


def test_dilate_and_lift_pass_at_the_reported_level_needed(tmp_path, capsys):
    # row norm 1 but pure: too low a level fails, and the report names the level
    # that the purity bound proves enough
    pairs = [("a09.json", unit_row_contraction(0.9), 219),
             ("a095.json", unit_row_contraction(0.95), 449),
             ("a099.json", unit_row_contraction(0.99), 2291),
             ("cycle5.json", weighted_cycle(5), 101), ("cycle8.json", weighted_cycle(8), 152)]
    for name, t, needed in pairs:
        ppath = zero_w_pair(tmp_path, name, t)
        code, report = run(capsys, "dilate", "--pair", ppath, "--level", "10")
        assert code == 1 and report["parameters"]["level_needed"] == needed
        purity = next(c for c in report["checks"] if c["name"] == "purity")
        assert purity["passed"] and purity["tolerance"] == 1.0 - 1e-10
        for command in ("dilate", "lift"):
            code, report = run(capsys, command, "--pair", ppath, "--level", str(needed))
            assert code == 0 and report["passed"]
            assert report["parameters"]["level_needed"] == needed


def test_non_pure_pair_reports_no_level_needed(tmp_path, capsys):
    for command in ("dilate", "lift"):
        code, report = run(capsys, command, "--pair", unitary_scalar_pair(tmp_path), "--level", "4")
        assert code == 1 and report["parameters"]["level_needed"] is None


def test_dilate_and_lift_refuse_a_kernel_above_the_dense_limit(tmp_path, capsys, monkeypatch):
    # n = 2 at level 40 would stack 2^41 - 1 blocks: refused before any stacking
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel was stacked before the size check")

    monkeypatch.setattr(np, "vstack", refuse)
    ppath = str(tmp_path / "pair.json")
    jsonio.dump_path(compress_pair(scalar_symbol(TruncatedFockSpace(2, 6, 1), [0.8, 0.6]), 2), ppath)
    for command in ("dilate", "lift"):
        code = main([command, "--pair", ppath, "--level", "40"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "dense-matrix limit" in captured.err


def test_dilate_at_level_zero_has_an_empty_window_and_fails(tmp_path, capsys):
    # T = (0, 0), W = 1 on h = 1 is pure and its kernel is exact at level 0, but
    # no row lies below the top level: the intertwining checks test nothing
    zero = np.zeros((1, 1), dtype=complex)
    ppath = str(tmp_path / "p0.json")
    jsonio.dump_path(ContractivePair(RowContraction((zero, zero)), np.eye(1, dtype=complex)), ppath)
    code, report = run(capsys, "dilate", "--pair", ppath, "--level", "0")
    assert code == 1 and not report["passed"]
    for check in report["checks"]:
        empty = check["name"] in ("intertwining_1", "intertwining_2")
        assert check["passed"] is not empty
        assert check.get("window") == (-1 if empty else None)


def test_negative_level_is_malformed(tmp_path, capsys):
    ppath = zero_w_pair(tmp_path, "a09.json", unit_row_contraction(0.9))
    for command in ("dilate", "lift"):
        code = main([command, "--pair", ppath, "--level", "-1"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "level must be >= 0" in captured.err


def test_factor_command(tmp_path, capsys):
    space = TruncatedFockSpace(2, 4, 1)
    sym_path = write_symbol(tmp_path, "const.json", scalar_symbol(space, [1.0]))
    cols = np.zeros((space.dim, space.dim - 1), dtype=complex)
    for j in range(space.dim - 1):
        cols[j + 1, j] = 1.0
    spath = tmp_path / "sub.json"
    spath.write_text(jsonio.dumps(jsonio.subspace_to_json(space, cols)) + "\n")
    code, report = run(capsys, "factor", "--subspace", str(spath), "--symbol", sym_path,
                       "--out", str(tmp_path / "induced.json"))
    assert code == 0 and report["passed"]
    assert report["parameters"]["wandering_dim"] == 2
    # the identity columns lie on one level each: the graded path ran
    assert report["parameters"]["path"] == "graded"


def test_factor_on_an_empty_window_is_vacuous_and_fails(tmp_path, capsys):
    # support degree 3 at level 3 leaves the induced check no exact column: the
    # word budget 3 - lo gives window -lo, and -2 is below every level
    space = TruncatedFockSpace(2, 3, 1)
    sym_path = write_symbol(tmp_path, "sym.json", scalar_symbol(space, [0.0, 0.0, 0.0, 1.0]))
    for lo in (1, 2):
        spath = str(tmp_path / f"sub{lo}.json")
        jsonio.dump_path(jsonio.subspace_to_json(space, levels_subspace(space, lo).basis), spath)
        code, report = run(capsys, "factor", "--subspace", spath, "--symbol", sym_path)
        assert code == 1
        assert not report["passed"]
        assert report["parameters"]["vacuous"] is True
        check = next(c for c in report["checks"] if c["name"] == "induced_intertwining")
        assert check["window"] == -lo and check["residual"] is None and not check["passed"]


def test_factor_with_nothing_below_the_top_level_is_vacuous_and_fails(tmp_path, capsys):
    # three random columns leave no vector below the top level: creation
    # invariance tests nothing, so it is reported with no residual and fails
    space = TruncatedFockSpace(2, 4, 1)
    sym_path = write_symbol(tmp_path, "const.json", scalar_symbol(space, [1.0]))
    columns = np.random.default_rng(5).standard_normal((space.dim, 3)).astype(complex)
    spath = str(tmp_path / "sub.json")
    jsonio.dump_path(jsonio.subspace_to_json(space, columns), spath)
    code, report = run(capsys, "factor", "--subspace", spath, "--symbol", sym_path)
    assert code == 1
    assert not report["passed"]
    assert report["parameters"]["vacuous"] is True
    assert report["parameters"]["path"] == "mixed_level"
    [check] = report["checks"]
    assert check["name"] == "creation_invariance"
    assert check["residual"] is None and not check["passed"]


def test_spectrum_command_with_histogram(tmp_path, capsys):
    space = TruncatedFockSpace(2, 4, 1)
    path = write_symbol(tmp_path, "phase.json", scalar_symbol(space, [np.exp(0.4j)]))
    code, report = run(capsys, "spectrum", "--symbol", path, "--level", "4", "--histogram")
    assert code == 0 and report["passed"]
    assert abs(report["max_gap"] - 2 * np.pi / 16) <= 1e-9
    assert len(report["histogram"]) == 24


def test_spectrum_reports_eigenpair_residuals_per_level(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 2)
    u = haar_unitary(2, np.random.default_rng(9))
    path = write_symbol(tmp_path, "u.json", constant_symbol(space, u))
    code, report = run(capsys, "spectrum", "--symbol", path)
    assert code == 0 and report["passed"]
    checks = {c["name"]: c for c in report["checks"]}
    for m in range(4):
        check = checks[f"level_{m}_eigpair_residual"]
        assert check["window"] == m
        assert check["passed"] and check["residual"] <= 1e-12


def test_spectrum_level_outside_the_truncation_is_malformed(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 1)
    path = write_symbol(tmp_path, "ph.json", scalar_symbol(space, [np.exp(0.3j)]))
    for level in ("-1", "4"):
        code = main(["spectrum", "--symbol", path, "--level", level])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert f"spectrum level {level} outside 0..3" in captured.err


def test_cli_verdict_reproducible_from_library(tmp_path, capsys):
    from odofock import check_nica, off_vacuum_residual

    space = TruncatedFockSpace(2, 4, 1)
    symbol = scalar_symbol(space, [0.0, 0.0, 1.0])
    path = write_symbol(tmp_path, "bi.json", symbol)
    _, report = run(capsys, "check", "nica", "--symbol", path)
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    nica = check_nica(symbol)
    off_vacuum = off_vacuum_residual(symbol)
    assert residuals["nica_residual"] == nica.residual("nica_residual") == off_vacuum
    assert residuals["nica_relation"] == nica.residual("nica_relation")


def test_check_reports_name_the_same_cross_checks_above_the_dense_limit(tmp_path, capsys):
    # the swap symbol at D = 8190 and D = 32766: the cross-checks run, with their window, at both
    swap = np.array([[0, 1], [1, 0]])
    names = {}
    for max_level in (11, 13):
        path = write_symbol(tmp_path, f"swap{max_level}.json",
                            constant_symbol(TruncatedFockSpace(2, max_level, 2), swap))
        for prop, cross_check in (("nica", "nica_relation"), ("unitary", "level_blocks_unitary"),
                                  ("isometry", "window_probes")):
            code, report = run(capsys, "check", prop, "--symbol", path)
            assert code == 0 and report["passed"]
            checks = {c["name"]: c for c in report["checks"]}
            assert checks[cross_check]["residual"] == 0.0
            assert checks[cross_check]["window"] == 10
            names[prop, max_level] = [c["name"] for c in report["checks"]]
    assert names["nica", 11] == names["nica", 13]
    assert names["unitary", 11] == names["unitary", 13]
    assert names["isometry", 11] == names["isometry", 13]


def test_gen_example_defaults(capsys):
    code, report = run(capsys, "gen-example", "weak-bishift", "--d", "3")
    assert code == 0 and report["passed"]
    code, report = run(capsys, "gen-example", "shift-symbol", "--d", "4")
    assert code == 0 and report["passed"]


def test_weak_bishift_witness_is_read_from_the_symbol_entries(capsys):
    # D = 24573 is above the dense limit; the witness needs one entry per column
    code, report = run(capsys, "gen-example", "weak-bishift", "--d", "3", "--level", "12")
    assert code == 0 and report["passed"]
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["witness_residual"]["residual"] == 0.0
    for d, level in [(1, 3), (2, 4), (3, 4), (3, 5), (4, 6)]:
        witness = gallery_weak_bishift(d, level).checks["witness_residual"]
        assert witness == 0.0 and not np.signbit(witness)


def test_env_tolerance_changes_neither_tol_nor_verdict(tmp_path, capsys, monkeypatch):
    # a symbol whose isometry defect sits between the loose and strict settings
    space = TruncatedFockSpace(2, 3, 1)
    coeffs = np.array([np.sqrt(1.0 - 1e-6), np.sqrt(1e-6)])
    path = write_symbol(tmp_path, "close.json", scalar_symbol(space, coeffs))
    # shifted correlation at r = 1 is ~1e-3: inside 1e-2, outside the default 1e-10
    def verdict(*flags):
        code, report = run(capsys, "check", "isometry", "--symbol", path, *flags)
        return code, report["parameters"]["tol"], [c["passed"] for c in report["checks"]]

    default = verdict()
    assert default[:2] == (1, 1e-10)
    for value in ("1e-2", "1e-12", "-1", "not a number"):
        monkeypatch.setenv("ODOFOCK_TOL", value)
        assert verdict() == default
        assert verdict("--tol", "1e-2")[:2] == (0, 1e-2)
    assert resolve_tol(None) == DEFAULT_TOL


def test_golden_ratio_with_fewer_terms_than_correlation_lags(capsys):
    code, report = run(capsys, "gen-example", "golden-ratio", "--terms", "2", "--level", "2")
    assert code == 0 and report["passed"]
    checks = {c["name"]: c["residual"] for c in report["checks"]}
    assert checks["correlation_3"] == checks["correlation_4"] == 0.0


def test_gen_example_names_and_failure(capsys):
    code, report = run(capsys, "gen-example", "adding-machine", "--q", "1", "--size", "16")
    assert code == 0 and report["passed"]
    code, report = run(capsys, "gen-example", "adding-machine", "--q", "1j", "--size", "16")
    assert code == 0 and report["passed"]
    assert main(["gen-example", "unknown-example"]) == 2
    capsys.readouterr()


def test_spectrum_payload_contains_level_data(tmp_path, capsys):
    space = TruncatedFockSpace(2, 3, 1)
    path = write_symbol(tmp_path, "ph.json", scalar_symbol(space, [np.exp(0.3j)]))
    code, report = run(capsys, "spectrum", "--symbol", path)
    assert code == 0
    levels = report["levels"]
    assert [lv["level"] for lv in levels] == [0, 1, 2, 3]
    assert len(levels[3]["eigenvalues"]) == 8
    assert len(levels[3]["predicted"]) == 8


def test_lift_and_dilate_report_the_same_purity_tail(tmp_path, capsys):
    # a09 at level 10 is pure but not yet exact: both commands refuse the kernel
    # with the tail it measured, against the tolerance
    ppath = zero_w_pair(tmp_path, "a09.json", unit_row_contraction(0.9))
    for command in ("dilate", "lift"):
        code, report = run(capsys, command, "--pair", ppath, "--level", "10")
        assert code == 1
        tail = next(c for c in report["checks"] if c["name"] == "purity_tail")
        assert tail["residual"] == 0.12157665459056936 and tail["tolerance"] == 1e-10
        assert not tail["passed"] and "purity tail" in tail["error"]


def refusal_cases(tmp_path):
    """The CLI command of each refusal path, with the library call that refuses."""
    from odofock import (
        adjoint_isometric,
        build_odometer,
        check_nica,
        check_unitary,
        induced_symbol,
        invariant_subspace,
        odometer_lift,
        poisson_kernel,
        spectrum_per_level,
    )

    space = TruncatedFockSpace(2, 3, 1)
    half = scalar_symbol(space, [0.5, 0.5])
    bad = write_symbol(tmp_path, "half.json", half)
    t09 = unit_row_contraction(0.9)
    pair = zero_w_pair(tmp_path, "a09.json", t09)
    # the words ending in 2: invariant under creation, not under the odometer map
    cols = np.zeros((space.dim, 7), dtype=complex)
    cols[[2, 4, 6, 8, 10, 12, 14], range(7)] = 1.0
    spath = str(tmp_path / "sub.json")
    jsonio.dump_path(jsonio.subspace_to_json(space, cols), spath)
    const = scalar_symbol(space, [1.0])
    shift = scalar_symbol(space, [0.0, 1.0])  # isometric, not constant
    tol = DEFAULT_TOL
    return {
        "adjoint": (["adjoint", "--symbol", bad],
                    lambda: adjoint_isometric(build_odometer(half), tol)),
        "check nica": (["check", "nica", "--symbol", bad], lambda: check_nica(half, tol)),
        "check unitary": (["check", "unitary", "--symbol", bad], lambda: check_unitary(half, tol)),
        "dilate": (["dilate", "--pair", pair, "--level", "10"],
                   lambda: poisson_kernel(t09, 10, tol)),
        "lift": (["lift", "--pair", pair, "--level", "10"],
                 lambda: odometer_lift(ContractivePair(t09, np.zeros((2, 2), dtype=complex)),
                                       10, tol)),
        "factor": (["factor", "--subspace", spath,
                    "--symbol", write_symbol(tmp_path, "const.json", const)],
                   lambda: induced_symbol(invariant_subspace(space, cols, tol),
                                          build_odometer(const), tol)),
        "spectrum": (["spectrum", "--symbol", write_symbol(tmp_path, "shift.json", shift)],
                     lambda: spectrum_per_level(shift, None, tol)),
    }


@pytest.mark.parametrize("path", ["adjoint", "check nica", "check unitary", "dilate", "lift",
                                  "factor", "spectrum"])
def test_a_refusal_reports_the_checks_that_decided_it(tmp_path, capsys, path):
    from odofock import NotUnitaryError, OdofockError

    argv, refuse = refusal_cases(tmp_path)[path]
    code, report = run(capsys, *argv)
    assert code == 1 and not report["passed"]
    with pytest.raises(OdofockError) as err:
        refuse()
    if path == "spectrum":
        # z is isometric, so the unitary checks, not the isometry checks, refuse it
        assert isinstance(err.value, NotUnitaryError)
    checks = err.value.checks
    assert checks and not all(c.passed for c in checks)
    tail = report["checks"][-len(checks):]
    assert [(c["name"], c["residual"]) for c in tail] == [(c.name, c.residual) for c in checks]
    for check in report["checks"]:
        if not check["passed"]:
            assert check["tolerance"] is not None
            assert check["residual"] is not None or check["window"] < 0
            assert check["error"] == str(err.value)


def test_adjoint_is_built_for_a_symbol_that_passes_check_isometry(tmp_path, capsys):
    # mass 1e-11 off the all-ones diagonal is within tol: isometric, so the adjoint is built
    space = TruncatedFockSpace(2, 3, 1)
    coeffs = np.zeros((space.dim, 1), dtype=complex)
    coeffs[0, 0], coeffs[2, 0] = np.sqrt(1.0 - 1e-22), 1e-11
    path = write_symbol(tmp_path, "near.json", symbol_from_dense(space, coeffs))
    assert run(capsys, "check", "isometry", "--symbol", path)[0] == 0
    code, report = run(capsys, "adjoint", "--symbol", path)
    assert code == 0
    (check,) = report["checks"]
    assert check["name"] == "adjoint_times_map_is_identity" and check["residual"] == 1e-11
