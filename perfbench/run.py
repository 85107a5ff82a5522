"""Run a semident benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exact-mid --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55

Run from anywhere; the checkout is the directory above this file, and the
package is imported from its ``src``. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced pass.
``--workload all`` runs every workload BENCHMARK.json lists, untraced, and
prints one table. Raw results, run metadata and span files go to
``.perfbench_out/``.

Exit status 0 after a completed run (the ``correct`` field says whether every
result checked out), 2 when the checkout has no semident sources or a worker
failed, 1 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (the benchmark's own module, found through HERE)

#: extra set-ups per untraced run, half before and half after the measured
#: run; setup_s is the median over these and the measured run's own set-up
SETUP_PROBES = 6
#: a run is abandoned when its workers have not finished this long after it started
DEADLINE_S = 170.0
#: one BLAS thread: steadier on a small shared machine, and never more threads than cores
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    argv = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    started = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv, "--spawned-at", repr(started)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{args.workload}: worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: worker exited with status {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"{args.workload}: worker printed no result ({exc})") from exc


def run_workload(args: argparse.Namespace) -> dict:
    """Measure one workload; returns the full record written to .perfbench_out."""
    deadline = perf_counter() + DEADLINE_S
    probes = 0 if args.trace else SETUP_PROBES // 2
    setups = [_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(probes)]
    raw = _worker(args, deadline, setup_only=False)
    setups.append(raw["setup_s"])
    setups += [_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(probes)]
    if args.trace:
        names = metrics.PER_LAYER
    else:
        raw["metrics"]["setup_s"] = statistics.median(setups)
        names = metrics.END_TO_END
    missing = set(names) - set(raw["metrics"])
    if missing:
        raise BenchError(f"{args.workload}: worker did not report {sorted(missing)}")
    failed = len(raw["failures"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "nproc": _nproc(),
        "thread_env": THREAD_ENV,
        "setup_samples_s": setups,
        **{k: v for k, v in raw.items() if k != "metrics"},
        "fail_ratio": failed / raw["attempted"],
        "result": {
            "correct": failed == 0,
            "attempted": raw["attempted"],
            "failed": failed,
            "metrics": {n: {"value": raw["metrics"][n], "unit": u} for n, u in names.items()},
        },
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2))
    return record


def _print_record(rec: dict) -> None:
    print(
        f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} commit={rec['commit']}"
        f" python={rec['python']} numpy={rec['numpy']} sympy={rec['sympy']}"
        f" nproc={rec['nproc']} blas_threads={rec['blas_threads']}"
        f" inputs=sha256:{rec['input_hash']} requests={rec['requests']} passes={rec['passes']}"
    )
    res = rec["result"]
    for name, m in res["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{rec['tail_percentile']:.1f} of {rec['samples']} requests)"
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"  {'fail_ratio':42s} {rec['fail_ratio']:14.6g} ratio  ({res['failed']}/{res['attempted']})")
    for reason in rec["failures"][:20]:
        print(f"  FAILED {reason}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*metrics.WORKLOADS, *metrics.EXTRA_WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if not (ROOT / "src" / "semident" / "__init__.py").is_file():
        print(f"run.py: no semident sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = metrics.WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        args.trace = 0
    results = {}
    try:
        for name in names:
            rec = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            _print_record(rec)
            results[name] = rec["result"]
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
