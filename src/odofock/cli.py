"""Command-line front end emitting machine-readable verdict reports.

Every subcommand prints one JSON report to stdout, with its wall time and
the process's peak resident memory. Exit code 0 means all checks passed, 1
means a mathematical check failed (the residuals are in the report), 2 means
the input was malformed or unusable. The default tolerance is 1e-10,
overridable with --tol.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
import time

import numpy as np

from . import jsonio
from .beurling import beurling_factorize, induced_symbol, invariant_subspace
from .classify import check_isometric, check_nica, check_unitary, off_vacuum_residual
from .config import resolve_tol
from .csc import identity
from .dilation import (
    ContractivePair,
    intertwining_residuals,
    odometer_lift,
    poisson_kernel,
    purity_test,
    verify_pair,
)
from .errors import (
    CertificateError,
    DilationInexactError,
    DimensionLimitError,
    InvarianceError,
    NotIsometricError,
    OdofockError,
    SchemaError,
)
from .fock import Operator
from .gallery import (
    angle_histogram,
    gallery_adding_machine,
    gallery_golden_ratio,
    gallery_shift_symbol,
    gallery_weak_bishift,
    spectrum_per_level,
)
from .linalg import op_norm
from .odometer import (
    Symbol,
    adjoint_isometric,
    build_odometer,
    norm_bounds,
    verify_fock_representation,
)

GALLERY_NAMES = ("adding-machine", "weak-bishift", "golden-ratio", "shift-symbol")


def _finite(x: float | None) -> float | None:
    if x is None:
        return None
    x = float(x)
    return None if math.isnan(x) else x


class Report:
    """Accumulates named checks for the JSON verdict payload."""

    def __init__(self, command: str, parameters: dict):
        self.command = command
        self.parameters = parameters
        self.checks: list[dict] = []
        self.started = time.perf_counter()

    def add(self, name: str, residual, tolerance, passed: bool | None = None,
            window: int | None = None):
        """Record a check; by default it passes iff its residual is finite and <= tolerance."""
        residual = _finite(residual)
        if passed is None:
            passed = residual is not None and residual <= tolerance
        entry = {
            "name": name,
            "residual": residual,
            "tolerance": _finite(tolerance),
            "passed": bool(passed),
        }
        if window is not None:
            entry["window"] = int(window)
        self.checks.append(entry)

    def fail(self, name: str, message: str, residual=None):
        self.add(name, residual, None, False)
        self.checks[-1]["error"] = message

    def extra(self, **fields):
        self.parameters.update(fields)

    def finish(self, payload: dict | None = None) -> int:
        passed = all(c["passed"] for c in self.checks)
        doc = {
            "command": self.command,
            "parameters": _jsonable(self.parameters),
            "checks": self.checks,
            "passed": passed,
            "wall_time_s": round(time.perf_counter() - self.started, 6),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        if payload:
            doc.update(_jsonable(payload))
        print(jsonio.dumps(doc))
        return 0 if passed else 1


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating, float)):
        return _finite(float(value))
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _load_as(path: str, kind: type, name: str):
    obj = jsonio.load_path(path)
    if not isinstance(obj, kind):
        raise SchemaError(f"{path} does not contain a {name} document")
    return obj


def _write_out(args, obj):
    if getattr(args, "out", None):
        jsonio.dump_path(obj, args.out)


def cmd_gen_example(args) -> int:
    tol = resolve_tol(args.tol)
    report = Report("gen-example", {"name": args.name, "tol": tol})
    if args.name == "adding-machine":
        entry = gallery_adding_machine(complex(args.q), args.size)
        report.extra(q=complex(args.q), size=args.size, window=entry.parameters["window"])
        for key in ("carry_relation", "twist_relation", "twisted_nica_relation"):
            report.add(key, entry.checks[key], tol)
        nica_res = entry.checks["nica_relation"]
        report.add("nica_flag_matches_phase", nica_res, tol,
                   (nica_res <= tol) == entry.expected["nica"])
    elif args.name == "weak-bishift":
        level = args.level if args.level is not None else args.d + 1
        entry = gallery_weak_bishift(args.d, level, args.n, tol)
        rep = entry.classification
        report.extra(d=args.d, level=level, n=args.n)
        report.add("isometric", rep.residuals["gram_residual"], tol, rep.is_isometric)
        report.add("nica_matches_expectation", rep.residuals["nica_residual"], tol,
                   rep.is_nica == entry.expected["nica"])
        report.add("witness_residual", entry.checks["witness_residual"], tol)
        _write_out(args, entry.symbol)
    elif args.name == "golden-ratio":
        data = gallery_golden_ratio(args.terms, args.n, args.level)
        report.extra(terms=args.terms, n=args.n, level=data.symbol.space.max_level)
        report.add("unit_sum_error", data.unit_sum_error, data.unit_tail_bound + 1e-15)
        for r, (corr, bound) in enumerate(zip(data.correlations, data.correlation_tail_bounds), 1):
            report.add(f"correlation_{r}", abs(corr), bound + 1e-15)
        _write_out(args, data.symbol)
    elif args.name == "shift-symbol":
        level = args.level if args.level is not None else 3
        entry = gallery_shift_symbol(args.d, args.n, level, tol)
        rep = entry.classification
        report.extra(d=args.d, n=args.n, level=level,
                     interior_columns=list(entry.parameters["interior_columns"]))
        report.add("nica_on_interior", rep.residuals["nica_residual"], tol, rep.is_nica)
        report.add("not_unitary", rep.residuals["surjectivity_defect"], None,
                   not rep.is_unitary and rep.residuals["surjectivity_defect"] == 1.0)
        _write_out(args, entry.symbol)
    else:
        raise SchemaError(f"unknown example {args.name!r}; choose from {GALLERY_NAMES}")
    return report.finish()


def _storage(op: Operator) -> dict:
    """Size and storage path of an operator, for the report parameters."""
    return {"dim": op.dim, "nnz": op.csc.nnz, "storage": "csc"}


def _representation_checks(report: Report, op: Operator, tol: float):
    """Relation residuals on the window; an empty window is reported as vacuous and fails."""
    check = verify_fock_representation(op, tol=tol)
    for name, res in check.residuals.items():
        report.add(name, res, tol, window=check.window)
    if check.vacuous:
        report.add("relations", None, tol, False, window=check.window)
    report.extra(vacuous=check.vacuous, **_storage(op))


def cmd_build_w(args) -> int:
    tol = resolve_tol(args.tol)
    symbol = _load_as(args.symbol, Symbol, "symbol")
    report = Report("build-w", {"symbol": args.symbol, "tol": tol})
    wmap = build_odometer(symbol)
    bounds = norm_bounds(wmap)
    _representation_checks(report, wmap.operator, tol)
    report.extra(symbol_norm=bounds.symbol_norm, map_norm=bounds.map_norm,
                 exact_below=wmap.exact_below)
    _write_out(args, wmap.operator)
    return report.finish()


def cmd_adjoint(args) -> int:
    tol = resolve_tol(args.tol)
    symbol = _load_as(args.symbol, Symbol, "symbol")
    report = Report("adjoint", {"symbol": args.symbol, "tol": tol})
    wmap = build_odometer(symbol)
    try:
        adj = adjoint_isometric(wmap, tol)
    except NotIsometricError as exc:
        report.fail("adjoint_isometric", str(exc))
        return report.finish()
    ncols = symbol.space.dim_upto(wmap.exact_below - 1)
    eye = identity(symbol.space.dim, ncols)
    residual = op_norm(adj.csc @ wmap.operator.csc[:, :ncols] - eye)
    report.add("adjoint_times_map_is_identity", residual, tol, window=wmap.exact_below - 1)
    report.extra(**_storage(adj))
    _write_out(args, adj)
    return report.finish()


def cmd_check(args) -> int:
    tol = resolve_tol(args.tol)
    obj = jsonio.load_path(args.symbol)
    report = Report(f"check {args.property}", {"symbol": args.symbol, "tol": tol,
                                               "seed": args.seed})
    if args.property == "representation":
        if isinstance(obj, Symbol):
            op = build_odometer(obj).operator
        elif isinstance(obj, Operator):
            op = obj
        else:
            raise SchemaError("representation check needs a symbol or operator document")
        _representation_checks(report, op, tol)
        return report.finish()

    if not isinstance(obj, Symbol):
        raise SchemaError("classification checks need a symbol document")
    if args.property == "isometry":
        iso = check_isometric(obj, tol, seed=args.seed)
        report.add("isometry_gram", iso.isometry_residual, tol)
        report.add("ones_support", iso.e1_support_residual, tol)
        report.add("shifted_correlations", iso.gram_residual, tol, window=iso.window)
        report.add("window_probes", iso.probe_residual, tol)
        return report.finish()
    if args.property == "nica":
        try:
            nica = check_nica(obj, tol)
        except NotIsometricError as exc:
            report.fail("nica_requires_isometric", str(exc))
            return report.finish()
        report.add("nica_residual", nica.nica_residual, tol)
        if not math.isnan(nica.relation_residual):
            report.add("nica_relation", nica.relation_residual, tol, window=nica.window)
        return report.finish()
    if args.property == "unitary":
        try:
            uni = check_unitary(obj, tol)
        except NotIsometricError as exc:
            report.fail("unitary_requires_isometric", str(exc))
            return report.finish()
        report.add("constant_symbol", off_vacuum_residual(obj), tol, uni.is_constant_symbol)
        report.add("surjectivity_defect", float(uni.surjectivity_defect), 0.0,
                   uni.surjectivity_defect == 0)
        report.add("level0_block_unitary", uni.block_unitary_residual, tol)
        if not math.isnan(uni.level_block_residual):
            report.add("level_blocks_unitary", uni.level_block_residual, tol)
        return report.finish()
    raise SchemaError(f"unknown property {args.property!r}")


def cmd_dilate(args) -> int:
    tol = resolve_tol(args.tol)
    pair = _load_as(args.pair, ContractivePair, "pair")
    report = Report("dilate", {"pair": args.pair, "level": args.level, "tol": tol})
    purity = purity_test(pair.t, tol=tol)
    report.add("purity", purity.bound, 1.0 - tol)
    report.extra(level_needed=purity.level_needed)
    if not purity.pure:
        return report.finish()
    try:
        data = poisson_kernel(pair.t, args.level, tol)
    except DilationInexactError as exc:
        report.fail("poisson_kernel", str(exc), exc.residual)
        return report.finish()
    report.add("purity_tail", data.purity_residual, tol)
    report.add("kernel_isometry_defect", data.isometry_defect, tol)
    for i, res in enumerate(intertwining_residuals(data, pair.t), 1):
        report.add(f"intertwining_{i}", res, tol, window=args.level - 1)
    report.extra(defect_dim=data.defect_dim)
    return report.finish()


def cmd_lift(args) -> int:
    tol = resolve_tol(args.tol)
    pair = _load_as(args.pair, ContractivePair, "pair")
    report = Report("lift", {"pair": args.pair, "level": args.level, "tol": tol})
    pair_check = verify_pair(pair, tol)
    worst = max(pair_check.relation_residuals)
    report.add("pair_relations", worst, tol)
    purity = pair_check.purity
    report.add("pair_purity", purity.bound, 1.0 - tol)
    report.extra(level_needed=purity.level_needed)
    if not pair_check.passed:
        return report.finish()
    try:
        lift = odometer_lift(pair, args.level, tol)
    except DilationInexactError as exc:
        report.fail("odometer_lift", str(exc))
        return report.finish()
    report.add("lift_intertwining", lift.intertwining_residual, tol, window=lift.window)
    bounds = norm_bounds(lift.wmap)
    report.extra(defect_dim=lift.dilation.defect_dim,
                 lift_symbol_norm=bounds.symbol_norm, lift_map_norm=bounds.map_norm)
    _write_out(args, lift.symbol)
    return report.finish()


def cmd_factor(args) -> int:
    tol = resolve_tol(args.tol)
    space, columns = _load_as(args.subspace, tuple, "subspace")
    symbol = _load_as(args.symbol, Symbol, "symbol")
    if symbol.space != space:
        raise SchemaError("subspace and symbol live on different spaces")
    report = Report("factor", {"subspace": args.subspace, "symbol": args.symbol, "tol": tol})
    sub = invariant_subspace(space, columns, tol)
    worst = max(sub.invariance_residuals)
    # with no vector below the top level the residuals are NaN: the check is vacuous and fails
    report.add("creation_invariance", worst, tol)
    if not worst <= tol:
        report.extra(vacuous=math.isnan(worst))
        return report.finish()
    fact = beurling_factorize(sub, tol)
    report.add("inner", fact.inner_residual, tol)
    report.add("multi_analytic", fact.multi_analytic_residual, tol)
    report.extra(wandering_dim=fact.wandering_dim, word_budget=fact.domain.max_level,
                 covers_subspace=fact.covers_subspace)
    try:
        induced = induced_symbol(sub, build_odometer(symbol), tol, fact)
    except InvarianceError as exc:
        report.fail("odometer_invariance", str(exc), exc.residual)
        return report.finish()
    # an empty window leaves a NaN residual: the check is vacuous and fails
    report.add("induced_intertwining", induced.intertwining_residual, tol, window=induced.window)
    report.extra(vacuous=induced.vacuous)
    _write_out(args, induced.symbol)
    return report.finish()


def cmd_spectrum(args) -> int:
    tol = resolve_tol(args.tol)
    symbol = _load_as(args.symbol, Symbol, "symbol")
    report = Report("spectrum", {"symbol": args.symbol, "level": args.level, "tol": tol})
    try:
        spec = spectrum_per_level(symbol, args.level, tol)
    except (NotIsometricError, CertificateError) as exc:
        report.fail("spectrum", str(exc))
        return report.finish()
    for lv in spec.per_level:
        report.add(f"level_{lv.level}_hausdorff", lv.hausdorff, tol)
        report.add(f"level_{lv.level}_eigpair_residual", lv.eigpair_residual, tol,
                   window=lv.level)
    report.add("unimodularity", spec.unimodularity_residual, tol)
    payload = {
        "max_gap": spec.max_gap,
        "levels": [
            {
                "level": lv.level,
                "eigenvalues": [[z.real, z.imag] for z in lv.eigenvalues],
                "predicted": [[z.real, z.imag] for z in lv.predicted],
            }
            for lv in spec.per_level
        ],
    }
    if args.histogram:
        payload["histogram"] = angle_histogram(
            np.concatenate([lv.eigenvalues for lv in spec.per_level])
        )
    return report.finish(payload)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="tolerance (default 1e-10)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    common.add_argument("--out", type=str, default=None,
                        help="write the produced artifact to this path")

    parser = argparse.ArgumentParser(
        prog="odofock",
        description="construct, classify, dilate, and factor odometer maps "
        "on truncated Fock spaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen-example", parents=[common], help="build a gallery example")
    p.add_argument("name", choices=GALLERY_NAMES)
    p.add_argument("--q", type=complex, default=1.0 + 0.0j, help="adding-machine phase")
    p.add_argument("--size", type=int, default=16, help="adding-machine truncation")
    p.add_argument("--d", type=int, default=3, help="coefficient dimension")
    p.add_argument("--n", type=int, default=2, help="alphabet size")
    p.add_argument("--level", type=int, default=None, help="truncation level")
    p.add_argument("--terms", type=int, default=24, help="golden-ratio term count")
    p.set_defaults(func=cmd_gen_example)

    p = sub.add_parser("build-w", parents=[common], help="build the odometer map")
    p.add_argument("--symbol", required=True)
    p.set_defaults(func=cmd_build_w)

    p = sub.add_parser("adjoint", parents=[common],
                       help="closed-form adjoint of an isometric odometer map")
    p.add_argument("--symbol", required=True)
    p.set_defaults(func=cmd_adjoint)

    p = sub.add_parser("check", parents=[common], help="run a classification check")
    p.add_argument("property", choices=("representation", "isometry", "nica", "unitary"))
    p.add_argument("--symbol", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("dilate", parents=[common], help="Poisson-kernel dilation data")
    p.add_argument("--pair", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_dilate)

    p = sub.add_parser("lift", parents=[common], help="odometer lift of a contractive pair")
    p.add_argument("--pair", required=True)
    p.add_argument("--level", type=int, required=True)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("factor", parents=[common],
                       help="Beurling factorization and induced symbol")
    p.add_argument("--subspace", required=True)
    p.add_argument("--symbol", required=True)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("spectrum", parents=[common],
                       help="per-level spectrum of a constant unitary symbol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--histogram", action="store_true")
    p.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SchemaError, DimensionLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OdofockError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
