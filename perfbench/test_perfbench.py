"""Tests of the benchmark itself: seeded inputs, metric names, the correctness gate.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import metrics  # noqa: E402
import semident  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", metrics.WORKLOADS + metrics.EXTRA_WORKLOADS)
def test_same_seed_same_input_hash(workload):
    first = workloads.input_hash(workloads.build(workload, 5))
    assert workloads.input_hash(workloads.build(workload, 5)) == first
    other = workloads.input_hash(workloads.build(workload, 6))
    # the census has no free inputs; every other workload draws them from the seed
    assert (other == first) == (workload == "census-n4")


def test_same_seed_same_cli_inputs(tmp_path):
    first = workloads.input_hash(workloads.cli_requests(5, ROOT, tmp_path / "a"))
    assert workloads.input_hash(workloads.cli_requests(5, ROOT, tmp_path / "b")) == first
    assert workloads.input_hash(workloads.cli_requests(6, ROOT, tmp_path / "c")) != first


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("trace, table", [("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)])
def test_run_prints_every_metric_with_its_unit(trace, table):
    proc = _run("--workload", "float-large", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_call_counts_repeat_on_a_seed():
    reqs = workloads.build("float-large", 4)

    def counts():
        tracer = Tracer()
        tracer.install()
        try:
            for rid, req in enumerate(reqs):
                tracer.begin_request(rid)
                tracer.active = True
                workloads.execute(req)
                tracer.active = False
        finally:
            tracer.uninstall()
        return {name: s[0] for name, s in tracer.stats.items()}, tracer.query_totals()[0]

    first = counts()
    assert first[0]["inversion.invert"] > 0 and first[1] > 0
    assert counts() == first
    # uninstall restores the library's own functions
    assert semident.invert.__module__ == "semident.inversion"
    assert not hasattr(semident.invert, "__wrapped__")


def test_checkout_without_sources_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "exact-mid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the correctness gate counts corrupted results as failures ------------------------


def _iv_graph():
    return semident.MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)})


def test_gate_rejects_perturbed_witness():
    req = workloads.req_witness(_iv_graph(), "rational")
    pair = workloads.execute(req)
    assert req.verdict(pair) is None
    lam_b, omega_b = pair.point_b
    lam_b = lam_b.copy()
    lam_b[1, 2] += Fraction(1, 1000)
    pair.point_b = (lam_b, omega_b)
    assert "point b" in req.verdict(pair)


def test_gate_rejects_collapsed_witness():
    req = workloads.req_witness(_iv_graph(), "float")
    pair = workloads.execute(req)
    assert req.verdict(pair) is None
    pair.point_b = pair.point_a
    assert "coincide" in req.verdict(pair)


def test_gate_rejects_wrong_inversion():
    g = semident.MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(1, 3)})
    lam, omega = semident.sample_parameters(g, 7, backend="rational")
    req = workloads.req_invert(g, lam, omega)
    got_lam, got_omega = workloads.execute(req)
    assert req.verdict((got_lam, got_omega)) is None
    got_omega = got_omega.copy()
    got_omega[0, 0] += Fraction(1, 10**9)
    assert "omega" in req.verdict((got_lam, got_omega))


def test_gate_rejects_wrong_verdict_and_uncertified_set():
    planted = workloads.planted_graph(random.Random(1), 8, 10, 3, k=3)
    req = workloads.req_check_planted(planted)
    verdict = workloads.execute(req)
    assert req.verdict(verdict) is None
    assert "reported identifiable" in req.verdict(
        semident.IdentVerdict(True, None, None, True, True, True)
    )
    a = verdict.violating_set
    # under topological labels nothing in the set reaches its smallest node
    wrong_sink = semident.IdentVerdict(False, a, min(a), True, True, True)
    assert "arborescence" in req.verdict(wrong_sink)


def test_gate_rejects_wrong_error_type_and_unexpected_errors():
    g, lam, omega = workloads.spiked_chain()
    req = workloads.req_invert_error(
        g, semident.phi(g, lam, omega), semident.errors.RankDeficientStepError
    )
    assert req.verdict(workloads.execute(req)) is None
    assert req.verdict(semident.errors.InconsistentSystemError(3)) is not None
    ok = workloads.req_census(4)
    assert "raised" in ok.verdict(RuntimeError("boom"))


def test_gate_rejects_cycle_point_off_the_fiber():
    p = workloads.random_cycle(random.Random(2), 5)
    req = workloads.req_cycle(p)
    fiber = workloads.execute(req)
    assert fiber.cardinality == 2 and req.verdict(fiber) is None
    second = fiber.points[1]
    fiber.points[1] = semident.CycleParams(
        second.m, second.lam, (second.delta[0] * 2,) + second.delta[1:]
    )
    assert "kappa_of" in req.verdict(fiber)


def test_gate_rejects_cycle_fiber_without_second_point():
    one = Fraction(1)
    p = semident.CycleParams(3, (Fraction(2), one, Fraction(-3, 2)), (one, Fraction(1, 2), one))
    req = workloads.req_cycle(p)
    fiber = workloads.execute(req)
    assert fiber.cardinality == 2 and req.verdict(fiber) is None
    del fiber.points[1]
    assert "lost its second point" in req.verdict(fiber)
    # with |prod lambda| < 1 a single point is a possible answer
    small = semident.CycleParams(3, (Fraction(1, 2), one, one), (one, one, one))
    assert gate.check_cycle_fiber(semident.CycleFiber([small], degenerate=False), small) is None


def test_gate_rejects_census_disagreement():
    report = semident.census_report(3)
    assert gate.check_census(report, 3, *workloads.CENSUS_FACTS[3]) is None
    report.disagreements.append((frozenset(), frozenset()))
    assert gate.check_census(report, 3, *workloads.CENSUS_FACTS[3]) is not None


def _cli_request(tmp_path, key: str):
    return next(r for r in workloads.cli_requests(5, ROOT, tmp_path) if r.key == key)


def test_gate_checks_cli_family_base_point(tmp_path):
    req = _cli_request(tmp_path, "trace chain-bow")
    code, stdout = workloads.execute(req)
    assert req.verdict((code, stdout)) is None
    data = json.loads(stdout)
    data["family"]["base"]["omega"]["entries"][0][0] = -1.0
    assert "not positive definite" in req.verdict((code, json.dumps(data)))
    del data["family"]
    assert "expected a one-parameter family" in req.verdict((code, json.dumps(data)))


def test_gate_checks_cli_census_counts(tmp_path):
    req = _cli_request(tmp_path, "census n=3")
    code, stdout = workloads.execute(req)
    assert req.verdict((code, stdout)) is None
    data = json.loads(stdout)
    counts = data["counts"]["unlabeled"]
    counts["identifiable"] += 1
    counts["noninjective"] -= 1
    assert "nonsimple" in req.verdict((code, json.dumps(data)))


def test_gate_validates_cli_output_against_schemas():
    schemas = gate.SchemaSet(ROOT / "schemas")
    good = {"identifiable": True, "flags": {"simple": True, "ancestral": True, "acyclic": True}}
    assert schemas.error("check", good) is None
    assert schemas.error("check", {**good, "extra": 1}) is not None
    assert schemas.error("error", {"error": {"type": "X", "message": "m"}}) is None
    assert gate.parse_cli_output(1, "{}")[1] == "exit code 1, expected 0"


def test_positive_definite_is_exact():
    a = np.array([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]], dtype=object)
    assert not gate.positive_definite(a)
    a[1, 1] += Fraction(1, 10**12)
    assert gate.positive_definite(a)
