"""One benchmark process: set up a workload, then measure it.

``run.py`` starts this script, once per set-up probe (``--setup-only``) and
once for the measured run. Set-up covers interpreter start, ``import
semident`` from the checkout's ``src``, input generation and a warm-up that
pays lazy imports. The measured part is a closed loop: one request at a
time, each result checked outside the timed region. The last line of
standard output is a JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: a measured run stops starting new passes this long after it was spawned
WALL_BUDGET_S = 140.0
#: cold imports timed for cli.import_s
IMPORT_PROBES = 5


def _warm_up(workload: str) -> None:
    """Pay one-off costs so that the first timed request is not charged for them."""
    import semident

    if workload == "exact-mid":
        # fiber_trace imports sympy on first use (about half a second)
        g = semident.MixedGraph(m=2, directed={(1, 2)})
        lam, omega = semident.sample_parameters(g, 0, backend="rational")
        semident.fiber_trace(g, semident.phi(g, lam, omega))
    elif workload == "float-large":
        g = semident.MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(1, 3)})
        lam, omega = semident.sample_parameters(g, 0)
        semident.invert(g, semident.phi(g, lam, omega))
    elif workload == "census-n4":
        semident.census_report(2)


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None when unknown."""
    try:
        with open("/proc/self/maps") as fh:
            path = next((ln.split()[-1] for ln in fh if "openblas" in ln.lower()), None)
        if path is None:
            return None
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _cold_import_s() -> float:
    """Median time of ``import semident.cli`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import semident.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    samples = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def run_pass(reqs, workloads, failures: list, tracer=None, order=None) -> tuple[list, list]:
    """Run every request once, in ``order`` when given; return latencies and
    results indexed like ``reqs``."""
    latencies, outputs = [0.0] * len(reqs), [None] * len(reqs)
    for rid in order or range(len(reqs)):
        req = reqs[rid]
        if tracer is not None:
            tracer.begin_request(rid)
            tracer.active = True
        t0 = perf_counter()
        out = workloads.execute(req)
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        latencies[rid] = dt
        outputs[rid] = out
        reason = req.verdict(out)
        if reason:
            failures.append(f"request {rid} ({req.kind}): {reason}")
    return latencies, outputs


def layer_metrics(tracer, outputs) -> dict:
    from semident import CensusReport

    out: dict = {}
    out["graphs.queries.calls"], out["graphs.queries.self_s"] = tracer.query_totals()
    for name in metrics.TRACED_FUNCTIONS:
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.self_s"] = tracer.self_s(name)
    for layer in metrics.LAYER_TOTALS:
        out[f"{layer}.self_s"] = tracer.layer_self_s(layer)
    out["linalg.rational.self_s"] = tracer.linalg_s["rational"]
    out["linalg.float.self_s"] = tracer.linalg_s["float"]
    out["witness.is_pd_per_witness"] = metrics.ratio(tracer.pd_in_witness, tracer.witnesses)
    out["census.census_report.self_s"] = tracer.self_s("census.census_report")
    out["census.enumerate_graphs.self_s"] = tracer.self_s("census.enumerate_graphs")
    classes = sum(o.unlabeled_total for o in outputs if isinstance(o, CensusReport))
    out["census.oracle_calls_per_class"] = metrics.ratio(
        tracer.calls("census.injectivity_oracle"), classes
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter() of the parent just before it started this process")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import semident

    expected = (ROOT / "src" / "semident").resolve()
    if Path(semident.__file__).resolve().parent != expected:
        print(f"worker: imported semident from {semident.__file__}, not {expected}", file=sys.stderr)
        return 3
    import workloads

    OUT.mkdir(exist_ok=True)
    reqs = workloads.build(args.workload, args.seed)
    _warm_up(args.workload)
    setup_s = perf_counter() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    failures: list[str] = []
    result = {
        "setup_s": setup_s,
        "input_hash": workloads.input_hash(reqs),
        "requests": len(reqs),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sympy": importlib.metadata.version("sympy"),
        "blas_threads": _blas_threads(),
    }
    if args.trace:
        untraced, _ = run_pass(reqs, workloads, failures)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        origin = perf_counter()
        try:
            traced, outputs = run_pass(reqs, workloads, failures, tracer)
        finally:
            tracer.uninstall()
        per_layer = layer_metrics(tracer, outputs)
        per_layer["trace.overhead_ratio"] = sum(traced) / sum(untraced)
        # the CLI layer: cold imports, then one pass of seeded CLI requests
        per_layer["cli.import_s"] = _cold_import_s()
        cli_reqs = workloads.cli_requests(args.seed, ROOT, OUT / f"cli-inputs-{args.seed}")
        cli_lat, _ = run_pass(cli_reqs, workloads, failures)
        for sub in metrics.CLI_SUBCOMMANDS:
            times = [dt for dt, r in zip(cli_lat, cli_reqs) if r.kind == f"cli.{sub}"]
            per_layer[f"cli.{sub}.p50_ms"] = statistics.median(times) * 1e3
        stem = OUT / f"trace-{args.workload}"  # one pair of files per workload: a census trace is ~30 MB
        tracer.write(Path(f"{stem}-spans.tsv"), Path(f"{stem}-queries.tsv"), origin)
        result.update(
            metrics=per_layer, passes=2, spans=len(tracer.spans),
            cli_input_hash=workloads.input_hash(cli_reqs),
            attempted=2 * len(reqs) + len(cli_reqs),
        )
    else:
        passes: list[list[float]] = []
        measured = 0.0
        # Each pass issues the requests in its own seeded order, so a slow
        # stretch of the machine does not land on the same requests every pass.
        shuffle = random.Random(f"order/{args.seed}")
        # whole passes only, and no pass that would end past --seconds
        while not passes or measured * (1 + 1 / len(passes)) <= args.seconds:
            order = list(range(len(reqs)))
            shuffle.shuffle(order)
            t0 = perf_counter()
            lat, _ = run_pass(reqs, workloads, failures, order=order)
            passes.append(lat)
            measured += sum(lat)
            if perf_counter() - args.spawned_at + (perf_counter() - t0) > WALL_BUDGET_S:
                break
        pass_s = [sum(p) for p in passes]
        summary = metrics.latency_summary(passes)
        result.update(
            metrics={
                "ops_per_s": sum(r.ops for r in reqs) / statistics.fmean(pass_s),
                "latency_p50_ms": summary["latency_p50_ms"],
                "latency_tail_ms": summary["latency_tail_ms"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            passes=len(passes),
            pass_s=pass_s,
            tail_percentile=summary["tail_percentile"],
            samples=summary["samples"],
            attempted=len(reqs) * len(passes),
        )
    result["failures"] = failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
