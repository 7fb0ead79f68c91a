"""Self-tests of the benchmark: seeded inputs, the correctness gate, names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import jobs  # noqa: E402
import metrics  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs_and_another_seed_other_inputs(workload):
    first = wl.canonical_bytes(wl.generate(workload, 7))
    assert first == wl.canonical_bytes(wl.generate(workload, 7))
    assert first != wl.canonical_bytes(wl.generate(workload, 8))


def test_workload_and_metric_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == list(
        metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        metrics.PER_LAYER)


def run(items, cli=None):
    return jobs.run_pass(jobs.build_items(items, cli), Tracer())


def rung(family_symbol):
    return {"id": "rung", "kind": "rung", "symbol": family_symbol, "norm": True,
            "over_limit": False}


def small_items():
    rng = np.random.default_rng(5)
    return [
        rung(wl.constant_unitary(2, 4, 1, rng)),
        rung(wl.non_isometric(2, 8, 1, rng)),
        {"id": "accepted", "kind": "classify", "symbol": wl.weak_bishift(2, 4, 2, rng)},
        {"id": "rejected", "kind": "classify", "symbol": wl.non_isometric(2, 4, 1, rng)},
        {"id": "nonpure", "kind": "nonpure_pair", "level": 4,
         "t": np.stack([np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)]),
         "w": wl.haar_unitary(2, rng)},
    ]


def test_gate_accepts_the_recorded_verdicts():
    res = run(small_items())
    assert res.failures == []
    assert res.attempted == 5 + 5 + 1 + 1 + 1
    assert res.counts["classify.accepted"] == 1 and res.counts["classify.rejected"] == 1
    assert res.counts["dilation.inexact"] == 1
    # the Toeplitz-like diagonal of the non-isometric family breaks ||W|| <= 1 + ||L||
    assert res.counts["odometer.upper_defect_max"] > 0


def flip(key):
    def mutate(item):
        item["symbol"]["expect"][key] = not item["symbol"]["expect"][key]
    return mutate


def scale_norm(item):
    item["symbol"]["expect"]["symbol_norm"] *= 1.5


def shift_support(item):
    item["symbol"]["expect"]["support"] += 1


@pytest.mark.parametrize("index, mutate, failing_job", [
    (0, flip("isometric"), "rung/adjoint"),
    (0, scale_norm, "rung/norm"),
    (1, shift_support, "rung/build"),
    (2, flip("nica"), "accepted/classify"),
    (3, flip("isometric"), "rejected/classify"),
])
def test_gate_flags_a_wrong_expected_verdict(index, mutate, failing_job):
    items = small_items()
    mutate(items[index])
    res = run(items)
    assert res.failed >= 1
    assert res.failures[0].startswith(failing_job + ":")


def test_gate_flags_a_wrong_expected_exit_code(tmp_path):
    cli = jobs.Cli(str(ROOT / "src"), str(tmp_path))
    command = {"id": "shift", "kind": "command", "out": None, "expect": {},
               "argv": ["gen-example", "shift-symbol", "--d", "5"]}
    assert run([dict(command, exit=0)], cli).failed == 0
    assert run([dict(command, exit=1)], cli).failures[0].startswith("shift/command:")


def test_dense_refusal_is_counted_not_failed():
    spec = next(i for i in wl.generate("construct", 1) if i["over_limit"])
    res = run([spec])
    assert res.failed == 0 and res.times == {}
    assert res.counts["odometer.over_limit_jobs"] == res.counts["odometer.dense_refusals"] == 1


def test_tail_has_ten_samples_beyond_it():
    value, pct = metrics.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_failed_share_is_never_zero_and_grows_with_failures():
    shares = [metrics.failed_share(k, 50) for k in range(4)]
    assert 0 < shares[0] < shares[1] < shares[2] < shares[3] < 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "construct",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
