"""Metric names and units, and the arithmetic that turns timings into them.

``BENCHMARK.json`` at the repository root lists the same names and units;
the benchmark's tests keep the two in step.
"""

from __future__ import annotations

import statistics

#: the workloads BENCHMARK.json lists, in its order
WORKLOADS = ("exact-mid", "census-n4")
#: runnable by name but not listed: the float backend on large graphs. It is
#: left out of the gated set because two workloads are what fit the run budget
#: at a run length that averages over the host's slow and fast stretches
EXTRA_WORKLOADS = ("float-large",)

#: end-to-end metrics, reported by untraced runs: name -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

CLI_SUBCOMMANDS = ("check", "sample", "invert", "witness", "trace", "cycle-fiber", "census")

#: functions whose calls and self time the traced run reports
TRACED_FUNCTIONS = (
    "graphs.find_directed_cycle",
    "graphs.relabel_topologically",
    "graphs.induced_subgraph",
    "criterion.check_global_identifiability",
    "criterion.find_violating_set",
    "criterion.find_violating_set_exhaustive",
    "params.phi",
    "params.i_minus_lambda_inv",
    "params.sample_parameters",
    "linalg.mat_inv",
    "linalg.matrix_rank",
    "linalg.solve_linear",
    "linalg.is_pd",
    "inversion.invert",
    "inversion.rank_condition",
    "inversion.fiber_trace",
    "witness.construct_witness",
    "cycles.cycle_fiber",
    "census.canonical_form",
    "census.injectivity_oracle",
)

#: layers whose summed self time is reported as <layer>.self_s
LAYER_TOTALS = ("graphs", "criterion", "params", "inversion", "witness", "cycles", "census")


def _per_layer() -> dict:
    units = {"graphs.queries.calls": "count", "graphs.queries.self_s": "s"}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYER_TOTALS:
        units[f"{layer}.self_s"] = "s"
    units.update(
        {
            "linalg.rational.self_s": "s",
            "linalg.float.self_s": "s",
            "witness.is_pd_per_witness": "ratio",
            "census.census_report.self_s": "s",
            "census.enumerate_graphs.self_s": "s",
            "census.oracle_calls_per_class": "ratio",
            "cli.import_s": "s",
        }
    )
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.p50_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


#: per-layer metrics, reported by traced runs: name -> unit
PER_LAYER = _per_layer()


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest percentile that still has
    at least ten samples beyond it; the maximum when there are ten or fewer."""
    return n - 11 if n > 10 else n - 1


def latency_summary(passes: list[list[float]]) -> dict:
    """Median and tail latency over the requests of a fixed list.

    Each request's latency is its mean over the passes, so every pass
    count gives the same number of samples: one per request. The mean, not
    the median, because a shared host's speed switches between a fast and a
    slow state for seconds to minutes at a time; the median of such samples
    jumps to whichever state held the majority, the mean moves with the mix.
    """
    per_request = sorted(statistics.fmean(col) for col in zip(*passes))
    n = len(per_request)
    k = tail_index(n)
    return {
        "latency_p50_ms": statistics.median(per_request) * 1e3,
        "latency_tail_ms": per_request[k] * 1e3,
        "tail_percentile": 100.0 * (k + 1) / n,
        "samples": n,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
