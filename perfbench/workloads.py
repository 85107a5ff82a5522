"""Seeded request lists for the semident benchmark.

A workload turns a seed into a fixed list of requests. Each request carries
the call into the public API (or the CLI), a canonical text of its inputs
(hashed into the run metadata) and the check that decides whether its result
is correct. Sizes are fixed per workload; the seed picks the graph structure
and the parameter values, so the cost of a request list barely moves between
seeds while the inputs change.

Graphs are built with a known answer. Ancestral graphs (no bidirected edge
between a node and one of its ancestors) are globally identifiable; a graph
with a planted node set that has an arborescence converging to its largest
node and a bidirected spanning tree is not.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

import gate
import semident
from semident import graphs, linalg
from semident.errors import InconsistentSystemError, RankDeficientStepError

#: census facts from the paper on n nodes: classes, failing simple classes,
#: and whether injectivity coincides with simplicity
CENSUS_FACTS = {3: (40, 0, True), 4: (1567, 2, False)}

# Request sizes (node counts). The seed never changes these.
# Sizes sit on fine grids so that request costs form a continuum: the median
# and tail latencies then fall among many similar requests and do not jump
# between size classes from one seed to the next.
EXACT_PHI_SIZES = tuple(range(6, 31, 2))
EXACT_INVERT_SIZES = tuple(range(6, 19))
EXACT_WITNESS_SIZES = tuple(range(6, 27, 2))
EXACT_TRACE_SIZES = (3, 4, 5, 6, 7, 8)
# A block of equal cycles is the workload's typical request: it puts the median
# latency among requests of one size.
EXACT_CYCLE_SIZES = (3, 4, 6, 8, 12, 16, 20, 24) + (14,) * 20
EXACT_ERROR_SIZES = (6, 8, 10)
FLOAT_SIZES = (30, 45, 60, 75, 90, 105, 120) * 2
FLOAT_WITNESS_SIZES = (30, 60, 90, 120) * 2
# The m = 300 checks form one block of equal-size requests that holds the tail.
FLOAT_CHECK_SIZES = (300,) * 10
CLI_SIZES = (4, 5, 6)


@dataclass
class Request:
    """One timed call and the check of its result."""

    kind: str
    key: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    expect: type | None = None
    ops: int = 1

    def verdict(self, out) -> str | None:
        """None when ``out`` is the correct answer, else the reason it is not."""
        if self.expect is not None:
            if type(out) is self.expect:
                return None
            return f"expected {self.expect.__name__}, got {_describe(out)}"
        if isinstance(out, BaseException):
            return f"raised {_describe(out)}"
        return self.check(out)


def _describe(out) -> str:
    if isinstance(out, BaseException):
        return f"{type(out).__name__}: {out}"
    return type(out).__name__


def execute(req: Request):
    """Run one request, returning its result or the exception it raised."""
    try:
        return req.call()
    except Exception as exc:  # the gate decides whether this error is the answer
        return exc


def input_hash(requests: list[Request]) -> str:
    h = hashlib.sha256()
    for req in requests:
        h.update(req.kind.encode())
        h.update(b"\0")
        h.update(req.key.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- graphs with a known answer -----------------------------------------------


def _dag_edges(rng: random.Random, m: int, count: int) -> set:
    pairs = [(i, j) for j in range(2, m + 1) for i in range(1, j)]
    return set(rng.sample(pairs, min(count, len(pairs))))


def _ancestor_masks(m: int, directed) -> list[int]:
    """Bit i of masks[j] is set when i is an ancestor of j (labels topological)."""
    parents: dict[int, list[int]] = {}
    for i, j in directed:
        parents.setdefault(j, []).append(i)
    masks = [0] * (m + 1)
    for j in range(1, m + 1):
        for i in parents.get(j, ()):
            masks[j] |= masks[i] | (1 << i)
    return masks


def _ancestral_bidirected(rng: random.Random, m: int, directed, count: int) -> set:
    masks = _ancestor_masks(m, directed)
    chosen: set = set()
    for _ in range(50 * count):
        if len(chosen) >= count:
            break
        i, j = sorted(rng.sample(range(1, m + 1), 2))
        if not masks[j] >> i & 1:
            chosen.add((i, j))
    return chosen


def ancestral_graph(rng: random.Random, m: int, n_dir: int, n_bi: int):
    """A globally identifiable graph on topological labels."""
    directed = _dag_edges(rng, m, n_dir)
    bidirected = _ancestral_bidirected(rng, m, directed, n_bi)
    return semident.MixedGraph(m=m, directed=directed, bidirected=bidirected)


def planted_graph(rng: random.Random, m: int, n_dir: int, n_bi: int, k: int, low: int | None = None):
    """A noninjective graph: ancestral background plus a violating k-set.

    The planted set is drawn from the first ``low`` labels (all when None).
    """
    a = sorted(rng.sample(range(1, (low or m) + 1), k))
    directed = _dag_edges(rng, m, n_dir)
    directed |= {(x, rng.choice([z for z in a if z > x])) for x in a[:-1]}
    order = a[:]
    rng.shuffle(order)
    tree = {tuple(sorted((order[t], rng.choice(order[:t])))) for t in range(1, k)}
    bidirected = _ancestral_bidirected(rng, m, directed, n_bi) | tree
    return semident.MixedGraph(m=m, directed=directed, bidirected=bidirected)


def shuffled(rng: random.Random, g):
    """The same graph under a random node labeling."""
    labels = list(g.nodes)
    rng.shuffle(labels)
    return graphs.relabel(g, dict(zip(g.nodes, labels)))


def graph_key(g) -> str:
    return f"m={g.m} d={sorted(g.directed)} b={sorted(g.bidirected)}"


def matrix_key(a: np.ndarray) -> str:
    return ",".join(str(v) if isinstance(v, Fraction) else repr(float(v)) for v in a.flat)


@functools.lru_cache(maxsize=256)
def round_trip_error(g) -> str | None:
    """Float sample -> phi -> invert on ``g`` under topological labels.

    Cached: every pass checks the same graphs, and the answer cannot change.
    """
    topo, _ = graphs.relabel_topologically(g)
    lam, omega = semident.sample_parameters(topo, 1)
    try:
        sigma = semident.phi(topo, lam, omega)
        got = semident.invert(topo, sigma)
    except semident.SemidentError as exc:
        return f"{type(exc).__name__}: {exc}"
    return gate.check_invert(got, lam, omega, sigma)


# -- requests on the library ----------------------------------------------------


def req_phi(g, seed: int, backend: str) -> Request:
    def call():
        lam, omega = semident.sample_parameters(g, seed, backend=backend)
        return lam, omega, semident.phi(g, lam, omega)

    return Request(
        "sample+phi",
        f"{graph_key(g)} seed={seed} {backend}",
        call,
        lambda out: gate.check_phi(g, *out),
    )


def req_invert(g, lam, omega) -> Request:
    sigma = semident.phi(g, lam, omega)
    return Request(
        "invert",
        f"{graph_key(g)} sigma={matrix_key(sigma)}",
        lambda: semident.invert(g, sigma),
        lambda out: gate.check_invert(out, lam, omega, sigma),
    )


def req_check_identifiable(g) -> Request:
    return Request(
        "check",
        graph_key(g),
        lambda: semident.check_global_identifiability(g),
        lambda out: gate.check_identifiable(out, round_trip_error(g)),
    )


def req_check_planted(g) -> Request:
    return Request(
        "check",
        graph_key(g),
        lambda: semident.check_global_identifiability(g),
        lambda out: gate.check_violating_set(g, out),
    )


def req_witness(g, backend: str) -> Request:
    return Request(
        "witness",
        f"{graph_key(g)} {backend}",
        lambda: semident.construct_witness(g, backend=backend),
        lambda out: gate.check_witness(g, out),
    )


def req_trace_singleton(g, lam, omega) -> Request:
    sigma = semident.phi(g, lam, omega)
    return Request(
        "trace",
        f"{graph_key(g)} sigma={matrix_key(sigma)}",
        lambda: semident.fiber_trace(g, sigma),
        lambda out: gate.check_singleton_trace(out, lam, omega, sigma),
    )


def req_trace_family(g, lam, omega, step: int) -> Request:
    sigma = semident.phi(g, lam, omega)
    return Request(
        "trace",
        f"{graph_key(g)} sigma={matrix_key(sigma)}",
        lambda: semident.fiber_trace(g, sigma),
        lambda out: gate.check_family_trace(g, out, sigma, step),
    )


def req_cycle(p) -> Request:
    return Request(
        "cycle_fiber",
        f"lam={p.lam} delta={p.delta}",
        lambda: semident.cycle_fiber(p),
        lambda out: gate.check_cycle_fiber(out, p),
    )


def req_invert_error(g, sigma, error: type) -> Request:
    return Request(
        "invert",
        f"{graph_key(g)} sigma={matrix_key(sigma)} expect={error.__name__}",
        lambda: semident.invert(g, sigma),
        lambda out: None,
        expect=error,
    )


def req_census(n: int) -> Request:
    return Request(
        "census",
        f"census_report({n}, jobs=1)",
        lambda: semident.census_report(n, jobs=1),
        lambda out: gate.check_census(out, n, *CENSUS_FACTS[n]),
        ops=2 ** (2 * math.comb(n, 2)),
    )


# -- fixed points from the paper -----------------------------------------------


def chain_bow():
    """Five-node chain with four bidirected chords at a point whose step 4 degenerates."""
    g = semident.MixedGraph(
        m=5,
        directed={(1, 2), (2, 3), (3, 4), (4, 5)},
        bidirected={(1, 4), (1, 5), (2, 4), (3, 5)},
    )
    lam = linalg.zeros(5, 5, "rational")
    lam[0, 1], lam[1, 2], lam[2, 3], lam[3, 4] = (
        Fraction(3), Fraction(-1, 2), Fraction(1), Fraction(1),
    )
    omega = linalg.zeros(5, 5, "rational")
    for i in range(5):
        omega[i, i] = Fraction(2)
    for i, j in g.bidirected:
        omega[i - 1, j - 1] = omega[j - 1, i - 1] = Fraction(1)
    return g, lam, omega


def spiked_chain():
    """Four-node chain plus a node tied in by bidirected edges; step 3 degenerates."""
    g = semident.MixedGraph(
        m=5,
        directed={(1, 2), (2, 3), (3, 4)},
        bidirected={(1, 3), (1, 4), (1, 5), (2, 4)},
    )
    lam = linalg.zeros(5, 5, "rational")
    lam[0, 1] = lam[1, 2] = lam[2, 3] = Fraction(1)
    omega = linalg.to_array(
        [[2, 0, -1, -1, -1], [0, 1, 0, -1, 0], [-1, 0, 1, 0, 0],
         [-1, -1, 0, 3, 0], [-1, 0, 0, 0, 3]],
        "rational",
    )
    return g, lam, omega


def _edges(m: int) -> tuple[int, int]:
    return round(1.5 * m), max(1, m // 2)


def _inconsistent_case(rng: random.Random, m: int):
    """A graph whose last node has no parents or siblings, and the covariance
    of the same graph plus one edge into that node: step m-1 has no unknowns
    but a nonzero right-hand side, so the system is inconsistent."""
    base = ancestral_graph(rng, m, *_edges(m))
    g = semident.MixedGraph(
        m=m,
        directed={e for e in base.directed if e[1] != m},
        bidirected={e for e in base.bidirected if e[1] != m},
    )
    u = rng.randrange(1, m)
    sup = semident.MixedGraph(m=m, directed=g.directed | {(u, m)}, bidirected=g.bidirected)
    lam, omega = semident.sample_parameters(sup, rng.getrandbits(32), backend="rational")
    if lam[u - 1, m - 1] == 0:
        lam[u - 1, m - 1] = Fraction(1, 2)
    return g, semident.phi(sup, lam, omega)


def _deficient_case(rng: random.Random, m: int):
    """A noninjective graph at its own witness point, where some step loses rank."""
    g = planted_graph(rng, m, *_edges(m), k=3)
    pair = semident.construct_witness(g, backend="rational")
    return g, pair.sigma


# -- workloads --------------------------------------------------------------------


def exact_mid(seed: int) -> list[Request]:
    """Rational backend on mid-size graphs; Fraction arithmetic dominates."""
    rng = random.Random(f"exact-mid/{seed}")
    reqs: list[Request] = []
    for m in EXACT_PHI_SIZES:
        reqs.append(req_phi(ancestral_graph(rng, m, *_edges(m)), rng.getrandbits(32), "rational"))
    for m in EXACT_INVERT_SIZES:
        g = ancestral_graph(rng, m, *_edges(m))
        lam, omega = semident.sample_parameters(g, rng.getrandbits(32), backend="rational")
        reqs.append(req_invert(g, lam, omega))
        reqs.append(req_check_identifiable(shuffled(rng, g)))
    for m in EXACT_WITNESS_SIZES:
        g = shuffled(rng, planted_graph(rng, m, *_edges(m), k=rng.randint(2, 4)))
        reqs.append(req_check_planted(g))
        reqs.append(req_witness(g, "rational"))
    for m in EXACT_TRACE_SIZES:
        g = ancestral_graph(rng, m, *_edges(m))
        lam, omega = semident.sample_parameters(g, rng.getrandbits(32), backend="rational")
        reqs.append(req_trace_singleton(g, lam, omega))
    reqs.append(req_trace_family(*chain_bow(), step=4))
    for m in EXACT_CYCLE_SIZES:
        reqs.append(req_cycle(random_cycle(rng, m)))
    for m in EXACT_ERROR_SIZES:
        reqs.append(req_invert_error(*_deficient_case(rng, m), RankDeficientStepError))
        reqs.append(req_invert_error(*_inconsistent_case(rng, m), InconsistentSystemError))
    g, lam, omega = spiked_chain()
    reqs.append(req_invert_error(g, semident.phi(g, lam, omega), RankDeficientStepError))
    return reqs


def random_cycle(rng: random.Random, m: int):
    """Rational parameters of an m-cycle with small numerators and denominators."""
    while True:
        lam = tuple(
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 8), rng.randint(1, 8)) for _ in range(m)
        )
        delta = tuple(Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(m))
        if math.prod(lam) != 1:
            return semident.CycleParams(m, lam, delta)


def float_large(seed: int) -> list[Request]:
    """Float backend on large sparse graphs; graph scans and numpy dominate."""
    rng = random.Random(f"float-large/{seed}")
    reqs: list[Request] = []
    for m in FLOAT_SIZES:
        g = ancestral_graph(rng, m, round(1.5 * m), m // 3)
        lam, omega = semident.sample_parameters(g, rng.getrandbits(32))
        reqs.append(req_phi(g, rng.getrandbits(32), "float"))
        reqs.append(req_invert(g, lam, omega))
        reqs.append(req_check_identifiable(shuffled(rng, g)))
    for m in FLOAT_WITNESS_SIZES:
        g = shuffled(rng, planted_graph(rng, m, round(1.5 * m), m // 3, k=rng.randint(2, 4)))
        reqs.append(req_check_planted(g))
        reqs.append(req_witness(g, "float"))
    for m in FLOAT_CHECK_SIZES:
        # the violating set is nodes 1-3 under topological labels, so the
        # fixpoint search visits every other candidate sink before it finds
        # one and the cost of a check does not hinge on where the set landed
        reqs.append(req_check_planted(planted_graph(rng, m, round(1.5 * m), m // 3, k=3, low=3)))
    return reqs


def census_n4(seed: int) -> list[Request]:
    """The n = 4 census; it has no free inputs, so every seed gives the same list."""
    return [req_census(4)]


# -- the CLI ----------------------------------------------------------------------


def _matrix(data, backend: str = "rational") -> np.ndarray:
    return linalg.to_array(data["entries"], backend)


def _pair(data, backend: str = "rational") -> tuple[np.ndarray, np.ndarray]:
    return _matrix(data["lambda"], backend), _matrix(data["omega"], backend)


class Cli:
    """Runs ``python -m semident.cli`` from the checkout, one child at a time."""

    def __init__(self, root: Path, workdir: Path, schemas: gate.SchemaSet):
        self.root = root
        self.workdir = workdir
        self.schemas = schemas
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, args: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "semident.cli", *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    def file(self, name: str, obj) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(obj))
        return str(path)

    def request(self, sub: str, args: list[str], key: str, check, want_code: int = 0) -> Request:
        def verdict(out):
            data, bad = gate.parse_cli_output(*out, want_code=want_code)
            if bad:
                return bad
            schema = "error" if want_code else sub
            bad = self.schemas.error(schema, data)
            return bad or check(data)

        return Request(f"cli.{sub}", f"{sub} {key}", lambda: self.run([sub, *args]), verdict)


def cli_requests(seed: int, root: Path, workdir: Path) -> list[Request]:
    """One ``semident`` child per request on small input files written to ``workdir``."""
    rng = random.Random(f"cli/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    cli = Cli(root, workdir, gate.SchemaSet(root / "schemas"))
    reqs: list[Request] = []
    rat = ["--backend", "rational"]
    for k, m in enumerate(CLI_SIZES):
        g = ancestral_graph(rng, m, *_edges(m))
        gpath = cli.file(f"ancestral{k}.json", semident.graph_to_json(g))
        lam, omega = semident.sample_parameters(g, rng.getrandbits(32), backend="rational")
        sigma = semident.phi(g, lam, omega)
        spath = cli.file(f"sigma{k}.json", semident.matrix_to_json(sigma))
        key = graph_key(g)
        reqs.append(cli.request("check", [gpath], key, _cli_identifiable(g)))
        reqs.append(cli.request("invert", [gpath, spath, *rat], key, _cli_invert(lam, omega, sigma)))
        reqs.append(cli.request("trace", [gpath, spath, *rat], key, _cli_singleton(lam, omega, sigma)))
        s = rng.getrandbits(16)
        reqs.append(cli.request("sample", [gpath, "--seed", str(s), *rat], f"{key} seed={s}", _cli_sample(g)))
        p = planted_graph(rng, m, *_edges(m), k=rng.randint(2, 3))
        ppath = cli.file(f"planted{k}.json", semident.graph_to_json(p))
        pkey = graph_key(p)
        reqs.append(cli.request("check", [ppath], pkey, _cli_planted(p)))
        reqs.append(cli.request("witness", [ppath, *rat], pkey, _cli_witness(p)))
        c = random_cycle(rng, m)
        lam_arg = ",".join(str(v) for v in c.lam)
        delta_arg = ",".join(str(v) for v in c.delta)
        reqs.append(
            cli.request(
                "cycle-fiber", [f"--lam={lam_arg}", f"--delta={delta_arg}", *rat],
                f"lam={lam_arg} delta={delta_arg}", _cli_cycle(c),
            )
        )
    g, lam, omega = chain_bow()
    gpath = cli.file("chain_bow.json", semident.graph_to_json(g))
    sigma = semident.phi(g, lam, omega)
    spath = cli.file("chain_bow_sigma.json", semident.matrix_to_json(sigma))
    reqs.append(cli.request("trace", [gpath, spath, *rat], "chain-bow", _cli_family(g, sigma, step=4)))
    reqs.append(
        cli.request("invert", [gpath, spath, *rat], "chain-bow", _cli_error("RankDeficientStepError"), want_code=2)
    )
    for _ in range(2):
        reqs.append(cli.request("census", ["--n", "3"], "n=3", _cli_census(3)))
    return reqs


def _cli_identifiable(g):
    def check(data):
        verdict = SimpleNamespace(identifiable=data["identifiable"], violating_set=data.get("violating_set"))
        return gate.check_identifiable(verdict, round_trip_error(g))

    return check


def _cli_planted(g):
    def check(data):
        verdict = SimpleNamespace(
            identifiable=data["identifiable"],
            violating_set=tuple(data.get("violating_set") or ()) or None,
            sink=data.get("sink"),
        )
        return gate.check_violating_set(g, verdict)

    return check


def _cli_invert(lam, omega, sigma):
    return lambda data: gate.check_invert(_pair(data), lam, omega, sigma)


def _cli_singleton(lam, omega, sigma):
    def check(data):
        desc = SimpleNamespace(kind=data["kind"], points=[_pair(p, "float") for p in data["points"]])
        return gate.check_singleton_trace(desc, lam, omega, sigma)

    return check


def _cli_family(g, sigma, step: int):
    """The JSON family carries its base point only, so that is the point checked."""

    def check(data):
        fam = data.get("family")
        desc = SimpleNamespace(kind=data["kind"], family=None, deficient_step=data["deficient_step"])
        if fam is None:
            return gate.check_family_trace(g, desc, sigma, step)
        lo, hi = fam["interval"]  # null stands for an infinite end
        desc.family = SimpleNamespace(interval=(-math.inf if lo is None else lo, math.inf if hi is None else hi))
        return gate.check_family_trace(g, desc, sigma, step, points=[("the base", _pair(fam["base"], "float"))])

    return check


def _cli_sample(g):
    def check(data):
        lam, omega = _pair(data)
        return gate.check_phi(g, lam, omega, _matrix(data["sigma"]))

    return check


def _cli_witness(g):
    def check(data):
        pair = SimpleNamespace(
            point_a=_pair(data["point_a"]),
            point_b=_pair(data["point_b"]),
            sigma=_matrix(data["sigma"]),
            residual=data["residual"],
        )
        return gate.check_witness(g, pair)

    return check


def _cli_cycle(p):
    def check(data):
        points = [
            semident.CycleParams(
                data["m"],
                tuple(Fraction(v) for v in pt["lam"]),
                tuple(Fraction(v) for v in pt["delta"]),
            )
            for pt in data["points"]
        ]
        fiber = SimpleNamespace(points=points, cardinality=data["cardinality"])
        return gate.check_cycle_fiber(fiber, p)

    return check


def _cli_error(name: str):
    def check(data):
        got = data["error"]["type"]
        return None if got == name else f"error type {got}, expected {name}"

    return check


def _cli_census(n: int):
    def check(data):
        counts = data["counts"]["unlabeled"]
        by_kind = {
            (True, True): counts["simple_identifiable"],
            (True, False): counts["simple_noninjective"],
            (False, True): counts["identifiable"] - counts["simple_identifiable"],
            (False, False): counts["noninjective"] - counts["simple_noninjective"],
        }
        report = SimpleNamespace(
            disagreements=data["disagreements"],
            unlabeled_total=data["unlabeled_total"],
            unlabeled_count=lambda simple, identifiable: by_kind[simple, identifiable],
        )
        return gate.check_census(report, n, *CENSUS_FACTS[n])

    return check


def build(workload: str, seed: int) -> list[Request]:
    """The request list of ``workload`` for ``seed``."""
    if workload == "exact-mid":
        return exact_mid(seed)
    if workload == "float-large":
        return float_large(seed)
    if workload == "census-n4":
        return census_n4(seed)
    raise ValueError(f"unknown workload {workload!r}")
