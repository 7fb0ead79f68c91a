"""Command-line front end emitting machine-readable verdict reports.

Every subcommand loads its documents, calls the library, extends its report
with the `Check`s the library returns, or those a refusal it caught carries,
and writes what it produced. Each check in the JSON report gives its name,
residual, tolerance, window, passed and error, and the report passes when every
check does (`Check` holds the one rule). It also gives the wall time and the
process's peak resident memory. Exit code 0 means all checks passed, 1 means a
check failed (the residuals are in the report), 2 means the input was malformed
or unusable. The default tolerance is 1e-10, overridable with --tol.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

from . import jsonio
from .beurling import beurling_factorize, induced_symbol, invariant_subspace
from .classify import check_isometric, check_nica, check_unitary
from .config import Check, Verdict, resolve_tol
from .dilation import (
    ContractivePair,
    dilation_checks,
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
    NotUnitaryError,
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
from .odometer import (
    Symbol,
    adjoint_checks,
    adjoint_isometric,
    build_odometer,
    norm_bounds,
    verify_fock_representation,
)

GALLERY_NAMES = ("adding-machine", "weak-bishift", "golden-ratio", "shift-symbol")
SYMBOL_CHECKS = {"isometry": check_isometric, "nica": check_nica, "unitary": check_unitary}


class Report:
    """Accumulates the checks of one command for the JSON verdict payload; what the
    command produced is written to `out`, if given."""

    def __init__(self, command: str, parameters: dict, out: str | None = None):
        self.command = command
        self.parameters = parameters
        self.out = out
        self.checks: list[Check] = []
        self.started = time.perf_counter()

    def extend(self, checks):
        self.checks.extend(checks)

    def finish(self, artifact=None, payload: dict | None = None) -> int:
        """Writes `artifact` and prints the report; exit code 0 if every check passed."""
        if artifact is not None and self.out:
            jsonio.dump_path(artifact, self.out)
        ok = Verdict(tuple(self.checks)).passed
        doc = {
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "passed": ok,
            "wall_time_s": round(time.perf_counter() - self.started, 6),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        }
        doc.update(payload or {})
        print(jsonio.dumps(jsonio.to_plain(doc)))
        return 0 if ok else 1


def _load_as(path: str, kind: type, name: str):
    obj = jsonio.load_path(path)
    if not isinstance(obj, kind):
        raise SchemaError(f"{path} does not contain a {name} document")
    return obj


def cmd_gen_example(args) -> int:
    tol = resolve_tol(args.tol)
    report = Report("gen-example", {"name": args.name, "tol": tol}, args.out)
    if args.name == "adding-machine":
        entry = gallery_adding_machine(complex(args.q), args.size, tol)
        report.parameters.update(q=complex(args.q), size=args.size,
                                 window=entry.parameters["window"])
    elif args.name == "weak-bishift":
        level = args.level if args.level is not None else args.d + 1
        entry = gallery_weak_bishift(args.d, level, args.n, tol)
        report.parameters.update(d=args.d, level=level, n=args.n)
    elif args.name == "golden-ratio":
        entry = gallery_golden_ratio(args.terms, args.n, args.level)
        report.parameters.update(terms=args.terms, n=args.n, level=entry.symbol.space.max_level)
    elif args.name == "shift-symbol":
        level = args.level if args.level is not None else 3
        entry = gallery_shift_symbol(args.d, args.n, level, tol)
        report.parameters.update(d=args.d, n=args.n, level=level,
                                 interior_columns=list(entry.parameters["interior_columns"]))
    else:
        raise SchemaError(f"unknown example {args.name!r}; choose from {GALLERY_NAMES}")
    report.extend(entry.verdicts)
    return report.finish(entry.symbol)


def _storage(op: Operator) -> dict:
    """Size and storage path of an operator, for the report parameters."""
    return {"dim": op.dim, "nnz": op.csc.nnz, "storage": "csc"}


def _representation_checks(report: Report, op: Operator, tol: float):
    check = verify_fock_representation(op, tol=tol)
    report.extend(check.checks)
    report.parameters.update(vacuous=check.vacuous, **_storage(op))


def cmd_build_w(args) -> int:
    tol = resolve_tol(args.tol)
    symbol = _load_as(args.symbol, Symbol, "symbol")
    report = Report("build-w", {"symbol": args.symbol, "tol": tol}, args.out)
    wmap = build_odometer(symbol)
    bounds = norm_bounds(wmap)
    _representation_checks(report, wmap.operator, tol)
    report.parameters.update(symbol_norm=bounds.symbol_norm, map_norm=bounds.map_norm,
                             exact_below=wmap.exact_below)
    return report.finish(wmap.operator)


def cmd_adjoint(args) -> int:
    tol = resolve_tol(args.tol)
    symbol = _load_as(args.symbol, Symbol, "symbol")
    report = Report("adjoint", {"symbol": args.symbol, "tol": tol}, args.out)
    wmap = build_odometer(symbol)
    try:
        adj = adjoint_isometric(wmap, tol)
    except NotIsometricError as exc:
        report.extend(exc.checks)
        return report.finish()
    report.extend(adjoint_checks(wmap, adj, tol))
    report.parameters.update(**_storage(adj))
    return report.finish(adj)


def cmd_check(args) -> int:
    tol = resolve_tol(args.tol)
    obj = jsonio.load_path(args.symbol)
    report = Report(f"check {args.property}", {"symbol": args.symbol, "tol": tol})
    if args.property == "representation":
        if isinstance(obj, Symbol):
            obj = build_odometer(obj).operator
        elif not isinstance(obj, Operator):
            raise SchemaError("representation check needs a symbol or operator document")
        _representation_checks(report, obj, tol)
        return report.finish()
    if not isinstance(obj, Symbol):
        raise SchemaError("classification checks need a symbol document")
    try:
        report.extend(SYMBOL_CHECKS[args.property](obj, tol).checks)
    except NotIsometricError as exc:
        report.extend(exc.checks)
    return report.finish()


def cmd_dilate(args) -> int:
    tol = resolve_tol(args.tol)
    pair = _load_as(args.pair, ContractivePair, "pair")
    report = Report("dilate", {"pair": args.pair, "level": args.level, "tol": tol})
    purity = purity_test(pair.t, tol=tol)
    report.extend(purity.checks)
    report.parameters.update(level_needed=purity.level_needed)
    if purity.pure:
        try:
            data = poisson_kernel(pair.t, args.level, tol)
        except DilationInexactError as exc:
            report.extend(exc.checks)
        else:
            report.extend(dilation_checks(data, pair.t, tol))
            report.parameters.update(defect_dim=data.defect_dim)
    return report.finish()


def cmd_lift(args) -> int:
    tol = resolve_tol(args.tol)
    pair = _load_as(args.pair, ContractivePair, "pair")
    report = Report("lift", {"pair": args.pair, "level": args.level, "tol": tol}, args.out)
    pair_check = verify_pair(pair, tol)
    report.extend(pair_check.checks)
    report.parameters.update(level_needed=pair_check.purity.level_needed)
    if not pair_check.passed:
        return report.finish()
    try:
        lift = odometer_lift(pair, args.level, tol)
    except DilationInexactError as exc:
        report.extend(exc.checks)
        return report.finish()
    report.extend(lift.checks)
    bounds = norm_bounds(lift.wmap)
    report.parameters.update(defect_dim=lift.dilation.defect_dim,
                             lift_symbol_norm=bounds.symbol_norm, lift_map_norm=bounds.map_norm)
    return report.finish(lift.symbol)


def cmd_factor(args) -> int:
    tol = resolve_tol(args.tol)
    space, columns = _load_as(args.subspace, tuple, "subspace")
    symbol = _load_as(args.symbol, Symbol, "symbol")
    if symbol.space != space:
        raise SchemaError("subspace and symbol live on different spaces")
    report = Report("factor", {"subspace": args.subspace, "symbol": args.symbol, "tol": tol},
                    args.out)
    sub = invariant_subspace(space, columns, tol)
    report.parameters.update(path="graded" if sub.levels is not None else "mixed_level")
    report.extend(sub.checks)
    if not sub.passed:
        report.parameters.update(vacuous=sub.vacuous)
        return report.finish()
    fact = beurling_factorize(sub, tol)
    report.extend(fact.checks)
    report.parameters.update(wandering_dim=fact.wandering_dim, word_budget=fact.domain.max_level,
                             covers_subspace=fact.covers_subspace)
    try:
        induced = induced_symbol(sub, build_odometer(symbol), tol, fact)
    except InvarianceError as exc:
        report.extend(exc.checks)
        return report.finish()
    report.extend(induced.checks)
    report.parameters.update(vacuous=induced.vacuous)
    return report.finish(induced.symbol)


def cmd_spectrum(args) -> int:
    tol = resolve_tol(args.tol)
    symbol = _load_as(args.symbol, Symbol, "symbol")
    report = Report("spectrum", {"symbol": args.symbol, "level": args.level, "tol": tol})
    try:
        spec = spectrum_per_level(symbol, args.level, tol)
    except (NotIsometricError, NotUnitaryError, CertificateError) as exc:
        report.extend(exc.checks)
        return report.finish()
    report.extend(spec.checks)
    # each eigenvalue is written as [re, im]
    levels = [{"level": lv.level, "eigenvalues": lv.eigenvalues.tolist(),
               "predicted": lv.predicted.tolist()} for lv in spec.per_level]
    payload = {"max_gap": spec.max_gap, "levels": levels}
    if args.histogram:
        payload["histogram"] = angle_histogram([z for lv in levels for z in lv["eigenvalues"]])
    return report.finish(payload=payload)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="tolerance (default 1e-10)")
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
    p.add_argument("property", choices=("representation", *SYMBOL_CHECKS))
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
