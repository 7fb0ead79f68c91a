"""Turns workload items into program inputs, runs them and gates every verdict.

An item runs as a chain of jobs, one per public call that yields a verdict
(build W, verify it, take its norm, ...). A job's time to verdict is the
wall time of its program calls; the gate that checks the verdict against
the item's expected outcome runs after it, untimed. A job fails on an
unexpected exception, a wrong verdict or a residual above tolerance; the
rest of its item then counts as failed too.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import sparse

import odofock as of
from odofock import jsonio
from odofock.errors import DilationInexactError, DimensionLimitError, NotIsometricError

import workloads as wl
from spans import Tracer

CLI_TIMEOUT_S = 60


class GateError(Exception):
    """A verdict that disagrees with the expected outcome."""


REFUSED = "refused"


def expect(cond: bool, message: str):
    if not cond:
        raise GateError(message)


def refused(st: dict) -> bool:
    """Whether the job ended in the dense-limit refusal, which is then no failure."""
    if isinstance(st.get("raised"), DimensionLimitError):
        del st["raised"]
        return True
    return False


def expect_raised(st: dict, cls: type):
    exc = st.pop("raised", None)
    expect(isinstance(exc, cls), f"expected {cls.__name__}, got {exc!r}")


def stored(matrix) -> tuple[int, int]:
    """(bytes, entries) the program stores for an operator matrix, dense or sparse."""
    if sparse.issparse(matrix):
        m = matrix.tocsr() if matrix.format not in ("csr", "csc") else matrix
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes, m.nnz
    arr = np.asarray(matrix)
    return arr.nbytes, arr.size


@dataclass
class Step:
    name: str
    run: Callable
    check: Callable
    over_limit: bool = False


@dataclass
class Item:
    id: str
    steps: list[Step]
    state: dict = field(default_factory=dict)


@dataclass
class PassResult:
    wall_s: float
    gate_s: float
    times: dict[str, float]  # job -> time to verdict; over-limit and failed jobs left out
    attempted: int
    failed: int
    failures: list[str]
    counts: Counter


def chain(name: str, steps: list[Step]) -> Step:
    """Calls that together give one verdict, timed as one job.

    Calls of a few milliseconds swing by half their time from run to run on a
    shared machine; a job that chains them to the verdict they serve is
    steadier and is what a caller waits for.
    """

    def run(tr, st):
        for step in steps:
            step.run(tr, st)

    def check(st, counts):
        for step in steps:
            step.check(st, counts)

    return Step(name, run, check)


def run_pass(items: list[Item], tracer: Tracer) -> PassResult:
    """One pass over `items`, with the garbage collector held off as timeit does.

    Collection pauses are set off by whatever allocated last, the benchmark's
    own bookkeeping included, and would land on random jobs.
    """
    gc.collect()
    gc.disable()
    try:
        return _run_pass(items, tracer)
    finally:
        gc.enable()


def _run_pass(items: list[Item], tracer: Tracer) -> PassResult:
    counts: Counter = Counter()
    times, failures = {}, []
    attempted = gate_s = 0
    started = time.perf_counter()
    for item in items:
        st = dict(item.state)
        broken = None
        for step in item.steps:
            job = f"{item.id}/{step.name}"
            attempted += 1
            if broken:
                failures.append(f"{job}: not run after {broken}")
                continue
            tracer.job = job
            with tracer.span("job"):
                t0 = time.perf_counter()
                try:
                    step.run(tracer, st)
                except Exception as exc:  # the gate decides whether it was expected
                    st["raised"] = exc
                t1 = time.perf_counter()
                try:
                    outcome = step.check(st, counts)
                    if "raised" in st:
                        raise GateError("unexpected exception")
                except Exception as exc:  # a wrong verdict, or no verdict at all
                    cause = st.pop("raised", None) or exc
                    failures.append(f"{job}: {type(cause).__name__}: {cause}")
                    broken = job
                    outcome = None
                gate_s += time.perf_counter() - t1
            if step.over_limit:
                counts["odometer.over_limit_jobs"] += 1
            elif not broken:
                times[job] = t1 - t0
            if outcome == REFUSED:
                counts["odometer.dense_refusals"] += 1
                break
        tracer.job = None
    wall = time.perf_counter() - started - gate_s
    return PassResult(wall, gate_s, times, attempted, len(failures), failures, counts)


# --------------------------------------------------------------------------
# materializing generated data


def make_symbol(spec: dict) -> of.Symbol:
    space = of.TruncatedFockSpace(spec["n"], spec["M"], spec["d"])
    entries = [(int(r), int(c), complex(v))
               for r, c, v in zip(spec["rows"], spec["cols"], spec["vals"])]
    return of.symbol_from_entries(space, entries)


def count_window(counts: Counter, window: int):
    counts["odometer.window_checks"] += 1
    if window < 0:
        counts["odometer.vacuous_windows"] += 1


def count_w(counts: Counter, wmap, n: int, M: int):
    matrix = wmap.operator.matrix
    nbytes, entries = stored(matrix)
    counts["odometer.dim"] += matrix.shape[0]
    counts["odometer.nnz"] += (matrix.count_nonzero() if sparse.issparse(matrix)
                               else np.count_nonzero(matrix))
    counts["odometer.stored_bytes"] += nbytes
    counts["odometer.stored_entries"] += entries
    # base-n carries of the map: every word of levels 1..M except the all-n ones
    counts["words.carry_steps"] += wl.num_words(n, M) - 1 - M


def roundtrip_step(name: str, get: Callable) -> Step:
    """Dump an object and load it back, gated by `check_roundtrip`."""

    def run(tr, st):
        st[name + ".text"] = tr.call("jsonio.dump", jsonio.dumps, get(st))
        st[name + ".back"] = tr.call("jsonio.load", jsonio.loads, st[name + ".text"])

    def check(st, counts):
        check_roundtrip(st[name + ".text"], jsonio.dumps(st[name + ".back"]), counts)

    return Step(name, run, check)


def check_roundtrip(text: str, again: str, counts: Counter):
    """The reloaded document must carry the same values; byte identity is counted.

    Byte identity is a count, not a gate: at the commit that defined the
    benchmark an operator holding -0.0 reloads as +0.0 (the loader
    accumulates entries into zeros), a known defect shown in
    jsonio.roundtrip_identical against jsonio.roundtrips.
    """
    counts["jsonio.bytes"] += len(text.encode())
    counts["jsonio.roundtrips"] += 1
    expect(json.loads(again) == json.loads(text), "reloaded document differs in value")
    counts["jsonio.roundtrip_identical"] += again == text


# --------------------------------------------------------------------------
# construct


def rung_item(spec: dict) -> Item:
    sym_spec = spec["symbol"]
    exp = sym_spec["expect"]
    n, M, d = sym_spec["n"], sym_spec["M"], sym_spec["d"]
    dim = wl.space_dim(n, M, d)
    exact_below = M - exp["support"] + 1
    over = spec["over_limit"]

    def build(tr, st):
        st["w"] = tr.call("odometer.build", of.build_odometer, st["symbol"])

    def check_build(st, counts):
        if over and refused(st):
            return REFUSED
        w = st["w"]
        expect(w.operator.matrix.shape == (dim, dim), f"W has shape {w.operator.matrix.shape}")
        expect(w.exact_below == exact_below, f"exact_below {w.exact_below} != {exact_below}")
        count_w(counts, w, n, M)

    def verify(tr, st):
        st["check"] = tr.call("odometer.verify", of.verify_fock_representation,
                              st["w"].operator)

    def check_verify(st, counts):
        if over and refused(st):
            return REFUSED
        chk = st["check"]
        window = min(M - 1, exact_below - 2)
        expect(chk.window == window, f"window {chk.window} != {window}")
        count_window(counts, chk.window)
        expect(chk.is_representation, f"not a representation: {chk.residuals}")
        expect(all(r <= wl.TOL for r in chk.residuals.values()), f"residuals {chk.residuals}")
        diff = sparse.csr_array(chk.symbol.matrix) - sparse.csr_array(st["symbol"].matrix)
        expect(diff.count_nonzero() == 0, "recovered symbol differs from the input")

    def norm(tr, st):
        st["bounds"] = tr.call("odometer.norm", of.norm_bounds, st["w"])

    def check_norm(st, counts):
        nb = st["bounds"]
        ref = exp["symbol_norm"]
        expect(abs(nb.symbol_norm - ref) <= 1e-12 * max(1.0, ref),
               f"symbol norm {nb.symbol_norm} != {ref}")
        w = sparse.csr_array(st["w"].operator.matrix)
        absw = abs(w)
        col_norm = float(np.sqrt(absw.multiply(absw).sum(axis=0).max()))
        schur = float(np.sqrt(absw.sum(axis=0).max() * absw.sum(axis=1).max()))
        slack = 1e-9 * (1.0 + schur)
        expect(col_norm - slack <= nb.map_norm <= schur + slack,
               f"map norm {nb.map_norm} outside [{col_norm}, {schur}]")
        if exp["isometric"]:
            expect(abs(nb.map_norm - 1.0) <= wl.TOL, f"isometric map norm {nb.map_norm} != 1")
        defect = max(0.0, nb.map_norm - 1.0 - nb.symbol_norm)
        expect(abs(nb.upper_defect - defect) <= 1e-12, "upper defect inconsistent")
        # the criterion-06 counterexample shows here as a value, never as a failure
        counts["odometer.upper_defect_max"] = max(counts["odometer.upper_defect_max"],
                                                  nb.upper_defect)

    def adjoint(tr, st):
        st["adjoint"] = tr.call("odometer.adjoint", of.adjoint_isometric, st["w"])

    def check_adjoint(st, counts):
        if not exp["isometric"]:
            expect_raised(st, NotIsometricError)
            return
        ncols = wl.space_dim(n, exact_below - 1, d)
        w = sparse.csr_array(st["w"].operator.matrix)[:, :ncols]
        prod = sparse.csr_array(st["adjoint"].matrix) @ w
        eye = sparse.eye_array(dim, ncols, dtype=complex, format="csr")
        residual = abs(prod - eye).max() if ncols else 0.0
        expect(residual <= 1e-12, f"adjoint * W - I = {residual} on the window")

    steps = [Step("build", build, check_build, over), Step("verify", verify, check_verify, over)]
    if not over:
        if spec["norm"]:
            steps.append(Step("norm", norm, check_norm))
        steps += [Step("adjoint", adjoint, check_adjoint),
                  chain("json", [roundtrip_step("json-symbol", lambda st: st["symbol"]),
                                 roundtrip_step("json-w", lambda st: st["w"].operator)])]
    return Item(spec["id"], steps, {"symbol": make_symbol(sym_spec)})


# --------------------------------------------------------------------------
# classify


def classify_item(spec: dict) -> Item:
    sym_spec = spec["symbol"]
    exp = sym_spec["expect"]
    columns = sym_spec.get("columns")

    def run(tr, st):
        st["report"] = tr.call("classify.report", of.classify, st["symbol"], columns=columns)

    def check(st, counts):
        rep = st["report"]
        got = (rep.is_isometric, rep.is_nica, rep.is_unitary)
        want = (exp["isometric"], exp["nica"], exp["unitary"])
        expect(got == want, f"(isometric, nica, unitary) = {got}, expected {want}")
        count_window(counts, rep.window)
        counts["classify.accepted" if rep.is_isometric else "classify.rejected"] += 1
        if "surjectivity_defect" in exp:
            defect = rep.residuals["surjectivity_defect"]
            expect(defect == exp["surjectivity_defect"], f"surjectivity defect {defect}")

    return Item(spec["id"], [Step("classify", run, check)], {"symbol": make_symbol(sym_spec)})


def checks_item(spec: dict) -> Item:
    exp = spec["symbol"]["expect"]
    steps = []
    for name, fn in (("isometric", of.check_isometric), ("nica", of.check_nica),
                     ("unitary", of.check_unitary)):
        def run(tr, st, name=name, fn=fn):
            st[name] = tr.call(f"classify.{name}", fn, st["symbol"])

        def check(st, counts, name=name):
            expect(st[name].passed == exp[name], f"{name} passed={st[name].passed}")
            if hasattr(st[name], "window"):
                count_window(counts, st[name].window)

        steps.append(Step(name, run, check))
    return Item(spec["id"], steps, {"symbol": make_symbol(spec["symbol"])})


def nica_refused_item(spec: dict) -> Item:
    def run(tr, st):
        st["nica"] = tr.call("classify.nica", of.check_nica, st["symbol"])

    def check(st, counts):
        expect_raised(st, NotIsometricError)
        counts["classify.rejected"] += 1

    return Item(spec["id"], [Step("nica", run, check)], {"symbol": make_symbol(spec["symbol"])})


def spectrum_item(spec: dict) -> Item:
    sym_spec = spec["symbol"]
    n, level = sym_spec["n"], spec["level"]
    theta = float(np.angle(sym_spec["vals"][0]))

    def run(tr, st):
        st["spectrum"] = tr.call("gallery.spectrum", of.spectrum_per_level, st["symbol"], level)

    def check(st, counts):
        rep = st["spectrum"]
        expect(len(rep.per_level) == level + 1, f"{len(rep.per_level)} levels")
        for lv in rep.per_level:
            order = n**lv.level
            roots = np.exp(1j * (theta + 2 * np.pi * np.arange(order)) / order)
            expect(lv.eigenvalues.size == order, f"level {lv.level}: {lv.eigenvalues.size} eigs")
            gap = np.abs(lv.eigenvalues[:, None] - roots[None, :])
            hausdorff = max(gap.min(axis=1).max(), gap.min(axis=0).max())
            expect(hausdorff <= wl.SPECTRUM_TOL and lv.hausdorff <= wl.SPECTRUM_TOL,
                   f"level {lv.level}: Hausdorff {hausdorff}, reported {lv.hausdorff}")
            counts["gallery.eigenvalues"] += lv.eigenvalues.size
        expect(rep.unimodularity_residual <= wl.SPECTRUM_TOL, "eigenvalues off the circle")

    return Item(spec["id"], [Step("spectrum", run, check)], {"symbol": make_symbol(sym_spec)})


def gallery_item(spec: dict) -> Item:
    d, M = spec["d"], spec["M"]
    if spec["example"] == "weak_bishift":
        def run(tr, st):
            st["entry"] = tr.call("gallery.examples", of.gallery_weak_bishift, d, M)

        def check(st, counts):
            rep = st["entry"].classification
            expect(rep.is_isometric and not rep.is_nica, "weak bi-shift: isometric, not Nica")
            expect(st["entry"].checks["witness_residual"] <= wl.TOL, "witness residual")
            counts["classify.accepted"] += 1
    else:
        def run(tr, st):
            st["entry"] = tr.call("gallery.examples", of.gallery_shift_symbol, d, 2, M)

        def check(st, counts):
            rep = st["entry"].classification
            expect(rep.is_nica and not rep.is_unitary, "shift symbol: Nica, not unitary")
            expect(rep.residuals["surjectivity_defect"] == 1.0, "surjectivity defect must be 1")
            counts["classify.accepted"] += 1
    return Item(spec["id"], [Step("example", run, check)])


# --------------------------------------------------------------------------
# dilate_factor


def purity_step(expect_pure: bool) -> Step:
    def run(tr, st):
        st["purity"] = tr.call("dilation.purity", of.purity_test, st["t"])

    def check(st, counts):
        expect(st["purity"].pure == expect_pure, f"pure={st['purity'].pure}")
        counts["dilation.purity_iterations"] += len(st["purity"].residuals)

    return Step("purity", run, check)


def kernel_steps(level: int, defect_dim: int | None) -> list[Step]:
    def poisson(tr, st):
        st["kernel"] = tr.call("dilation.poisson", of.poisson_kernel, st["t"], level)

    def check_poisson(st, counts):
        data = st["kernel"]
        expect(data.purity_residual <= wl.TOL, f"purity tail {data.purity_residual}")
        expect(data.isometry_defect <= wl.TOL, f"kernel isometry defect {data.isometry_defect}")
        if defect_dim is not None:
            expect(data.defect_dim == defect_dim, f"defect dim {data.defect_dim}")

    def intertwining(tr, st):
        st["intertwining"] = tr.call("dilation.intertwining", of.intertwining_residuals,
                                     st["kernel"], st["t"])

    def check_intertwining(st, counts):
        res = st["intertwining"]
        expect(len(res) == st["t"].n and max(res) <= wl.TOL, f"intertwining {res}")

    return [Step("poisson", poisson, check_poisson),
            Step("intertwining", intertwining, check_intertwining)]


def row_contraction_item(spec: dict) -> Item:
    t = of.row_contraction(list(spec["t"]))
    steps = [chain("dilate", [purity_step(True)] + kernel_steps(spec["level"], t.dim))]
    return Item(spec["id"], steps, {"t": t})


def pair_item(spec: dict) -> Item:
    sym_spec = spec["symbol"]
    k, level = spec["k"], spec["level"]
    n, d = sym_spec["n"], sym_spec["d"]

    def compress(tr, st):
        st["pair"] = tr.call("dilation.compress", of.compress_pair, st["symbol"], k)
        st["t"] = st["pair"].t

    def check_compress(st, counts):
        t, w = st["pair"].t.tuples, st["pair"].w
        expect(w.shape[0] == wl.space_dim(n, k, d), f"pair dim {w.shape[0]}")
        res = [np.abs(w @ t[i] - t[i + 1]).max() for i in range(n - 1)]
        res.append(np.abs(w @ t[-1] - t[0] @ w).max())
        expect(max(res) <= 1e-12, f"compressed pair relations {res}")

    def lift(tr, st):
        st["lift"] = tr.call("dilation.lift", of.odometer_lift, st["pair"], level)

    def check_lift(st, counts):
        res = st["lift"]
        count_window(counts, res.window)
        expect(res.intertwining_residual <= wl.LIFT_TOL, f"lift {res.intertwining_residual}")

    dilate = [Step("compress", compress, check_compress), purity_step(True)]
    steps = [chain("dilate", dilate + kernel_steps(level, None)), Step("lift", lift, check_lift)]
    return Item(spec["id"], steps, {"symbol": make_symbol(sym_spec)})


def nonpure_pair_item(spec: dict) -> Item:
    t = of.row_contraction(list(spec["t"]))
    pair = of.ContractivePair(t, np.asarray(spec["w"]))

    def lift(tr, st):
        st["lift"] = tr.call("dilation.lift", of.odometer_lift, st["pair"], spec["level"])

    def check_lift(st, counts):
        expect_raised(st, DilationInexactError)
        counts["dilation.inexact"] += 1

    return Item(spec["id"], [chain("lift", [purity_step(False), Step("lift", lift, check_lift)])],
                {"t": t, "pair": pair})


def subspace_item(spec: dict) -> Item:
    n, M, d = spec["n"], spec["M"], spec["d"]
    space = of.TruncatedFockSpace(n, M, d)
    columns = np.asarray(spec["columns"])
    wdim = spec["expect"]["wandering_dim"]

    def invariant(tr, st):
        st["sub"] = tr.call("beurling.invariant", of.invariant_subspace, space, columns)

    def check_invariant(st, counts):
        sub = st["sub"]
        expect(sub.dim == columns.shape[1], f"subspace dim {sub.dim}")
        expect(max(sub.invariance_residuals) <= wl.TOL, f"invariance {sub.invariance_residuals}")

    def wandering(tr, st):
        st["wandering"] = tr.call("beurling.wandering", of.wandering_subspace, st["sub"])

    def check_wandering(st, counts):
        e = st["wandering"]
        expect(e.shape == (space.dim, wdim), f"wandering basis shape {e.shape}")
        expect(np.abs(e.conj().T @ e - np.eye(wdim)).max() <= wl.TOL, "not orthonormal")

    def factorize(tr, st):
        st["fact"] = tr.call("beurling.factorize", of.beurling_factorize, st["sub"])

    def check_factorize(st, counts):
        f = st["fact"]
        expect(f.wandering_dim == wdim and f.covers_subspace, "factorization misses the subspace")
        expect(f.inner_residual <= wl.TOL and f.multi_analytic_residual <= wl.TOL,
               f"inner {f.inner_residual}, multi-analytic {f.multi_analytic_residual}")
        counts["beurling.wandering_dim"] += f.wandering_dim

    steps = [Step("invariant", invariant, check_invariant),
             Step("wandering", wandering, check_wandering),
             Step("factorize", factorize, check_factorize)]
    state = {}
    if spec["symbol"] is not None:
        state["symbol"] = make_symbol(spec["symbol"])

        def build(tr, st):
            st["w"] = tr.call("odometer.build", of.build_odometer, st["symbol"])

        def check_build(st, counts):
            count_w(counts, st["w"], n, M)

        def induced(tr, st):
            st["induced"] = tr.call("beurling.induced", of.induced_symbol, st["sub"], st["w"],
                                    None, st["fact"])

        def check_induced(st, counts):
            res = st["induced"]
            count_window(counts, res.window)
            expect(res.intertwining_residual <= wl.TOL, f"induced {res.intertwining_residual}")

        steps.append(chain("induced", [Step("build", build, check_build),
                                       Step("induced", induced, check_induced)]))
    return Item(spec["id"], steps, state)


# --------------------------------------------------------------------------
# cli_session


class Cli:
    """Runs `python -m odofock.cli` in the work directory, one process per command."""

    def __init__(self, src_dir: str, work_dir: str):
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=src_dir)

    def run(self, tr: Tracer, argv: list[str]):
        with tr.span("cli.process", sub=argv[0]) as rec:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "odofock.cli", *argv],
                                  cwd=self.work_dir, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S, stdin=subprocess.DEVNULL)
            rec["process_s"] = time.perf_counter() - t0
        return proc, rec


def write_documents(docs: dict, work_dir: str):
    for name, spec in docs.items():
        path = os.path.join(work_dir, name)
        if spec.get("kind") == "pair_from_symbol":
            jsonio.dump_path(of.compress_pair(make_symbol(spec["symbol"]), spec["k"]), path)
        elif spec.get("kind") == "subspace":
            space = of.TruncatedFockSpace(spec["n"], spec["M"], spec["d"])
            jsonio.dump_path(jsonio.subspace_to_json(space, spec["columns"]), path)
        else:
            jsonio.dump_path(make_symbol(spec), path)


def command_items(spec: dict, cli: Cli) -> list[Item]:
    exp = spec["expect"]
    out = os.path.join(cli.work_dir, spec["out"]) if spec["out"] else None

    def run(tr, st):
        if out and os.path.exists(out):
            os.unlink(out)
        st["proc"], st["span"] = cli.run(tr, spec["argv"])

    def check(st, counts):
        proc, rec = st["proc"], st["span"]
        code = proc.returncode
        if spec["exit"] is not None:
            expect(code == spec["exit"], f"exit {code}, not {spec['exit']}: {proc.stderr[-300:]}")
        else:
            expect(code in (0, 1), f"exit {code}: {proc.stderr[-300:]}")
        report = json.loads(proc.stdout)
        expect(report["passed"] == (code == 0), "report verdict disagrees with the exit code")
        sub = spec["argv"][0]
        counts["cli.report_s"] += report["wall_time_s"]
        counts["cli.startup_s"] += rec["process_s"] - report["wall_time_s"]
        counts[f"cli.{sub}_s"] += rec["process_s"]
        windows = [c["window"] for c in report["checks"] if "window" in c]
        for w in windows:
            count_window(counts, w)
        if exp.get("vacuous"):
            expect(windows, "the report must name the window it measured")
            counts["cli.vacuous_exit0"] += code == 0 and min(windows) < 0
        for name, value in exp.get("residual", {}).items():
            got = next(c["residual"] for c in report["checks"] if c["name"] == name)
            expect(abs(got - value) <= 1e-9 * value, f"{name} = {got}, expected {value}")
        if "eigenvalues" in exp:
            eigs = sum(len(lv["eigenvalues"]) for lv in report["levels"])
            expect(eigs == exp["eigenvalues"], f"{eigs} eigenvalues")
            counts["gallery.eigenvalues"] += eigs

    steps = [Step("command", run, check)]
    items = [Item(spec["id"], steps)]
    if out:
        def roundtrip(tr, st):
            with open(out, encoding="utf-8") as fh:
                st["text"] = fh.read()
            obj = tr.call("jsonio.load", jsonio.loads, st["text"])
            st["back"] = tr.call("jsonio.dump", jsonio.dumps, obj)

        def check(st, counts):
            check_roundtrip(st["text"], st["back"] + "\n", counts)

        items.append(Item(spec["id"] + "-roundtrip", [Step("roundtrip", roundtrip, check)]))
    return items


# --------------------------------------------------------------------------


def build_items(workload_items: list[dict], cli: Cli | None = None) -> list[Item]:
    """Program inputs for generated items; CLI documents are written here, in set-up."""
    out = []
    for spec in workload_items:
        kind = spec["kind"]
        if kind == "documents":
            write_documents(spec["docs"], cli.work_dir)
        elif kind == "command":
            out += command_items(spec, cli)
        else:
            out.append(ITEM_KINDS[kind](spec))
    return out


ITEM_KINDS = {
    "rung": rung_item,
    "classify": classify_item,
    "checks": checks_item,
    "nica_refused": nica_refused_item,
    "spectrum": spectrum_item,
    "gallery": gallery_item,
    "row_contraction": row_contraction_item,
    "pair": pair_item,
    "nonpure_pair": nonpure_pair_item,
    "subspace": subspace_item,
}
