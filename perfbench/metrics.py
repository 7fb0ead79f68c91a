"""Metric names, units and the statistics the benchmark reports.

End-to-end metrics come from passes with tracing off; per-layer metrics come
from the traced passes of a `--trace 1` run. Each per-layer `_s` metric is
busy seconds per pass, summed over calls, with its `_calls` count beside it.
"""

from __future__ import annotations

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("verdict_p50_s", "s", "lower", 0.25),
    ("verdict_tail_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("failed_share", "ratio", "lower", 0.1),
)

# Span names of the public calls the jobs make, one per layer operation.
LAYER_CALLS = (
    "odometer.build", "odometer.verify", "odometer.norm", "odometer.adjoint",
    "classify.report", "classify.isometric", "classify.nica", "classify.unitary",
    "gallery.spectrum", "gallery.examples",
    "dilation.purity", "dilation.poisson", "dilation.intertwining", "dilation.compress",
    "dilation.lift",
    "beurling.invariant", "beurling.wandering", "beurling.factorize", "beurling.induced",
    "jsonio.dump", "jsonio.load",
    "cli.process",
)
CLI_SUBCOMMANDS = ("gen-example", "check", "build-w", "adjoint", "dilate", "lift", "factor",
                   "spectrum")

# Counts and values recorded by the gate, per pass. Sizes of W are computed
# from the matrices the program returns.
PASS_COUNTS = (
    ("odometer.dim", "count", "lower"),
    ("odometer.nnz", "count", "lower"),
    ("odometer.stored_bytes", "bytes", "lower"),
    ("odometer.stored_entries", "count", "lower"),
    ("odometer.fill_ratio", "ratio", "higher"),  # nnz / stored entries
    ("odometer.window_checks", "count", "higher"),
    ("odometer.vacuous_windows", "count", "lower"),  # base: odometer.window_checks
    ("odometer.over_limit_jobs", "count", "lower"),
    ("odometer.dense_refusals", "count", "lower"),  # base: odometer.over_limit_jobs
    ("odometer.upper_defect_max", "norm", "lower"),
    ("words.carry_steps", "count", "lower"),
    ("classify.accepted", "count", "higher"),
    ("classify.rejected", "count", "higher"),
    ("gallery.eigenvalues", "count", "higher"),
    ("dilation.purity_iterations", "count", "lower"),
    ("dilation.inexact", "count", "lower"),
    ("beurling.wandering_dim", "count", "higher"),
    ("jsonio.bytes", "bytes", "lower"),
    ("jsonio.roundtrips", "count", "higher"),
    ("jsonio.roundtrip_identical", "count", "higher"),  # base: jsonio.roundtrips
    ("cli.report_s", "s", "lower"),  # the reports' own wall_time_s
    ("cli.startup_s", "s", "lower"),  # process time minus report time
    *((f"cli.{sub}_s", "s", "lower") for sub in CLI_SUBCOMMANDS),
    ("cli.vacuous_exit0", "count", "lower"),
)

PER_LAYER = (
    *((f"{name}_s", "s", "lower") for name in LAYER_CALLS),
    *((f"{name}_calls", "count", "lower") for name in LAYER_CALLS),
    *PASS_COUNTS,
    ("trace.overhead_s", "s", "lower"),  # traced pass wall minus untraced pass wall
    ("trace.spans", "count", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def failed_share(failed: int, attempted: int) -> float:
    """One-sided 95% upper bound of the per-job failure probability.

    The Clopper-Pearson bound is never 0, unlike failed / attempted, and it
    still moves by a whole failure's worth when one job fails.
    """
    if failed >= attempted:
        return 1.0
    if failed == 0:
        return 1.0 - 0.05 ** (1.0 / attempted)
    from scipy.stats import beta

    return float(beta.ppf(0.95, failed + 1, attempted - failed))
