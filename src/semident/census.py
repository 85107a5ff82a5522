"""Exhaustive small-graph census with independent cross-validation.

Enumerates every acyclic mixed graph on up to five nodes (directed parts as
upper-triangular DAG representatives) and classifies identifiability with
the fixpoint criterion on every representative. A representative is a pair
of pair masks ``(dmask, bmask)``, and pass 1 works on those masks alone: one
work unit per directed part takes every bidirected part's canonical key,
|Aut| and fixpoint verdict from tables built once per node count
(``_mask_tables``), and builds no graph object. Every representative's
verdict must agree with the verdict of its isomorphism class. Injectivity is
invariant under relabelling, so each class is then checked once against an
oracle built from the exhaustive induced-subgraph scan, random-point rank
conditions and an explicit witness built on the scan's own violating set.
The oracle shares nothing with the fixpoint search. Any disagreement is a
build-failing event. ``enumerate_graphs`` and ``canonical_form`` also go to
six nodes; ``census_report`` and the oracle stop at five.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, permutations
from multiprocessing import Pool
from typing import NamedTuple

import numpy as np

from . import linalg, witness
from .criterion import _violating_set, find_violating_set_exhaustive
from .errors import SemidentError, SupportViolationError
from .graphs import MixedGraph, relabel_topologically
from .inversion import _step_records
from .params import phi, sample_parameters

#: hard cap on census node counts
MAX_N = 6

#: random rank-condition probes per injective graph
DEFAULT_TRIALS = 20


def enumerate_graphs(n: int, simple_only: bool = False):
    """Yield the acyclic mixed graphs on ``n`` nodes.

    One representative per upper-triangular directed part is produced (every
    DAG is isomorphic to such a representative), crossed with all
    bidirected parts.
    """
    if not 1 <= n <= MAX_N:
        raise SemidentError(f"census supports 1 <= n <= {MAX_N}, got {n}")
    pairs = tuple(combinations(range(1, n + 1), 2))
    for dmask in range(1 << len(pairs)):
        directed = _pairs_of(pairs, dmask)
        for bmask in range(1 << len(pairs)):
            if simple_only and dmask & bmask:
                continue
            yield MixedGraph(m=n, directed=directed, bidirected=_pairs_of(pairs, bmask))


def _pairs_of(pairs: tuple, mask: int) -> tuple:
    """The pairs whose bits are set in ``mask`` (bit k stands for ``pairs[k]``), in order."""
    return tuple(p for k, p in enumerate(pairs) if mask >> k & 1)


def canonical_form(g: MixedGraph) -> tuple:
    """Lexicographically minimal edge encoding over all node permutations.

    Two graphs share a key exactly when they are isomorphic as mixed graphs.
    All n! <= 720 permutations are tried at once, through a table of edge
    images built once per node count (see ``_canonical``).
    """
    return _canonical(g)[0]


@cache
def _permutation_table(n: int) -> tuple[tuple, dict, np.ndarray]:
    """Image bits of every possible edge under every node permutation of 1..n.

    Each possible edge owns one bit: the directed pairs (i, j), i != j, sit
    above the bidirected pairs i < j, and within a kind a smaller pair sits
    on a higher bit. Returns ``(edges, row, table)``: ``edges`` lists
    ``(kind, pair)`` from the highest bit down, ``row`` maps each edge to its
    row of ``table``, and that row holds the edge's image bit under each
    permutation, one column per permutation. Every caller shares the result,
    so the table is read-only.
    """
    directed = [("d", (i, j)) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    bidirected = [("b", pair) for pair in combinations(range(1, n + 1), 2)]
    edges = tuple(directed + bidirected)
    bit = {edge: 1 << (len(edges) - 1 - k) for k, edge in enumerate(edges)}
    perms = list(permutations(range(1, n + 1)))

    def image(kind, i, j, perm):
        i, j = perm[i - 1], perm[j - 1]
        return bit[kind, (i, j) if kind == "d" else (min(i, j), max(i, j))]

    table = np.array(
        [[image(kind, i, j, perm) for perm in perms] for kind, (i, j) in edges],
        dtype=np.int64,
    ).reshape(len(edges), len(perms))
    table.flags.writeable = False
    return edges, {edge: k for k, edge in enumerate(edges)}, table


def _canonical(g: MixedGraph) -> tuple[tuple, int]:
    """``canonical_form(g)`` and |Aut(g)|.

    A permutation keeps both edge counts, and of two sorted edge tuples of
    equal length the one holding the smallest edge they do not share comes
    first. So the minimal key ``(m, directed, bidirected)`` is the
    permutation image with the largest mask in the bit order of
    ``_permutation_table``, and the edges of that mask, read from its top
    bit down, are the key's sorted tuples. The permutations that reach the
    largest mask form one coset of the automorphism group, so counting them
    gives its order.
    """
    if g.m > MAX_N:
        raise SemidentError(f"canonical_form supports m <= {MAX_N}")
    edges, row, table = _permutation_table(g.m)
    rows = [row["d", e] for e in g.directed] + [row["b", e] for e in g.bidirected]
    # the bits of one permutation's images are distinct, so their sum is their OR
    images = table[rows].sum(axis=0)
    best = int(images.max())
    return _key_of(g.m, edges, best), int(np.count_nonzero(images == best))


def _key_of(n: int, edges: tuple, best: int) -> tuple:
    """The key ``(n, directed, bidirected)`` of an image mask in the bit order of ``edges``.

    ``edges`` is ``_permutation_table(n)[0]``; the mask's edges are read from
    its top bit down, so each kind comes out sorted.
    """
    key_edges: dict[str, list] = {"d": [], "b": []}
    while best:
        top = best.bit_length() - 1
        kind, pair = edges[-1 - top]
        key_edges[kind].append(pair)
        best ^= 1 << top
    return n, tuple(key_edges["d"]), tuple(key_edges["b"])


class _MaskTables(NamedTuple):
    """Census pass 1's tables for one node count; see ``_mask_tables``."""

    pairs: tuple
    directed: np.ndarray
    bidirected: np.ndarray
    parents: tuple
    siblings: tuple


@cache
def _mask_tables(n: int) -> _MaskTables:
    """Pass 1's tables over the upper-triangular pairs of 1..n, indexed by pair mask.

    Bit k of a pair mask stands for ``pairs[k]``. Row ``mask`` of ``directed``
    holds, per permutation of ``_permutation_table(n)``, the image mask of the
    directed edges of ``mask``, and row ``mask`` of ``bidirected`` that of its
    bidirected edges: one 0/1 matrix product with the table rows of the pairs
    each. Directed bits sit above bidirected bits and one permutation's images
    are distinct bits, so ``bidirected[b] + directed[d]`` is the image mask of
    the representative ``(d, b)``. ``parents[mask]`` and ``siblings[mask]``
    are the adjacency masks a ``MixedGraph`` on the directed, or bidirected,
    edges of ``mask`` stores. Built on first use, read-only and shared.
    """
    _, row, table = _permutation_table(n)
    pairs = tuple(combinations(range(1, n + 1), 2))
    masks = range(1 << len(pairs))
    bits = np.array([[mask >> k & 1 for k in range(len(pairs))] for mask in masks], dtype=np.int64)
    directed = bits @ table[[row["d", p] for p in pairs]]
    bidirected = bits @ table[[row["b", p] for p in pairs]]
    parents, siblings = [], []
    for mask in masks:
        par, sib = [0] * (n + 1), [0] * (n + 1)
        for i, j in _pairs_of(pairs, mask):
            par[j] |= 1 << i
            sib[i] |= 1 << j
            sib[j] |= 1 << i
        parents.append(tuple(par))
        siblings.append(tuple(sib))
    for a in (directed, bidirected):
        a.flags.writeable = False
    return _MaskTables(pairs, directed, bidirected, tuple(parents), tuple(siblings))


def _seed_from_key(key: tuple) -> int:
    """Probe seed base of a class; probe k samples at ``_seed_from_key(key) ^ k``."""
    digest = hashlib.sha256(repr(key).encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SkeletonWitness(NamedTuple):
    """The oracle's witness pair on one skeleton, checked on the skeleton itself.

    ``points`` are ``witness._skeleton_points(skeleton, "rational")``
    (read-only), ``sigma`` is the read-only covariance of the first point,
    and ``residual`` and ``separation`` are the pair's exact max-norm
    differences of covariance and of parameters.
    """

    points: tuple
    sigma: np.ndarray
    residual: float
    separation: float


@cache
def _skeleton_witness(skeleton: MixedGraph) -> SkeletonWitness:
    """The memoized witness check of one skeleton, shared by every class that has it.

    ``phi`` checks each point's support, symmetry and positive definiteness
    on the skeleton. A pure function of the skeleton's edges; at most a few
    thousand entries per process, since m <= 5.
    """
    points = witness._skeleton_points(skeleton, "rational")
    sigma_a = phi(skeleton, *points[:2])
    sigma_b = phi(skeleton, *points[2:])
    sigma_a.flags.writeable = False
    separation = max(
        linalg.max_abs_diff(points[0], points[2]), linalg.max_abs_diff(points[1], points[3])
    )
    return SkeletonWitness(points, sigma_a, linalg.max_abs_diff(sigma_a, sigma_b), separation)


@dataclass
class OracleVerdict:
    """Independent injectivity verdict with the evidence that produced it."""

    injective: bool
    evidence: str


def injectivity_oracle(g: MixedGraph, trials: int = DEFAULT_TRIALS) -> OracleVerdict:
    """Decide injectivity without the fixpoint search.

    Runs the exhaustive induced-subgraph scan. An injective answer is backed
    by rank conditions at Lambda = 0, Omega = I and at ``trials`` random
    parameter points: the points are stacked and walk the inversion steps
    together, one batched rank decision per step. A noninjective answer is
    backed by an explicit witness pair built inside the set the scan found:
    the pair and its exact check are memoized per skeleton within the
    process, and each class checks that the skeleton's edges map onto its
    own (see ``_oracle_witness``).
    Internal failures raise rather than silently passing.
    """
    if g.m > 5:
        raise SemidentError("injectivity oracle supports m <= 5")
    topo, to_topo = relabel_topologically(g)
    hit = find_violating_set_exhaustive(topo)
    if hit is None:
        lam, omega = _probe_points(topo, canonical_form(g), trials)
        records = list(_step_records(topo, lam, omega))
        if not all(rec.passed.all() for rec in records):
            # report point by point, each step in order
            step = next(rec.step for k in range(len(lam)) for rec in records if not rec.passed[k])
            raise SemidentError(f"subset scan says injective but rank fails at step {step}")
        return OracleVerdict(True, f"rank conditions at {len(lam)} points")
    pair = _oracle_witness(g, topo, to_topo, hit[0])
    if pair.residual != 0 or pair.separation == 0:
        raise SemidentError("witness construction produced an invalid pair")
    return OracleVerdict(
        False, f"witness with separation {float(pair.separation):.3g}"
    )


def _probe_points(topo: MixedGraph, key: tuple, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's float probe points as stacks ``(trials + 1, m, m)`` of Lambda and Omega.

    Point 0 is Lambda = 0, Omega = I; point k + 1 is ``sample_parameters``
    at the seed ``_seed_from_key(key) ^ k``.
    """
    base = _seed_from_key(key)
    points = [(linalg.zeros(topo.m, topo.m, "float"), linalg.identity(topo.m, "float"))]
    points += [sample_parameters(topo, base ^ k) for k in range(trials)]
    lams, omegas = zip(*points)
    return np.stack(lams), np.stack(omegas)


def _oracle_witness(g: MixedGraph, topo: MixedGraph, to_topo: dict, a: tuple) -> SkeletonWitness:
    """The memoized skeleton check of ``witness_from_set(g, topo, to_topo, a, "rational")``.

    Off the skeleton the lifted points take Lambda = 0 and Omega = I, so the
    lifted I - Lambda is a permuted block diagonal diag(I - Lambda_s, I):
    the covariance on ``g`` is the skeleton's embedded in an identity, the
    lifted Omega is positive definite exactly when the skeleton's is, and
    residual and separation are the skeleton's. What is left to check on
    ``g`` is support: every skeleton edge must map onto an edge of ``g`` of
    the same kind, or ``SupportViolationError`` is raised.
    """
    skeleton, pos = witness._skeleton(topo, to_topo, a)
    for kind, edges, has_edge in (
        ("->", skeleton.directed, g.has_directed),
        ("<->", skeleton.bidirected, g.has_bidirected),
    ):
        for v, w in edges:
            i, j = pos[v - 1] + 1, pos[w - 1] + 1
            if not has_edge(i, j):
                raise SupportViolationError(
                    f"skeleton edge {v}{kind}{w} maps to {i}{kind}{j}, not an edge of the graph"
                )
    return _skeleton_witness(skeleton)


@dataclass
class CensusRow:
    """One unlabeled isomorphism class."""

    key: tuple
    directed: tuple
    bidirected: tuple
    simple: bool
    identifiable: bool
    labeled_count: int


class Disagreement(NamedTuple):
    """A graph on which two checks of the census disagree, and which check failed.

    ``reason`` is ``"verdict"`` (a representative's fixpoint verdict differs
    from its class's), ``"oracle"`` (the oracle's answer differs from the
    class's verdict) or ``"oracle error: <message>"`` (the oracle raised).
    """

    directed: tuple
    bidirected: tuple
    reason: str


@dataclass
class CensusReport:
    """Aggregate of a full census run; ``disagreements`` must stay empty."""

    n: int
    simple_only: bool
    rows: list = field(default_factory=list)
    disagreements: list = field(default_factory=list)

    @property
    def unlabeled_total(self) -> int:
        return len(self.rows)

    @property
    def labeled_total(self) -> int:
        return sum(r.labeled_count for r in self.rows)

    def unlabeled_count(self, simple: bool | None = None, identifiable: bool | None = None) -> int:
        return sum(
            1
            for r in self.rows
            if (simple is None or r.simple == simple)
            and (identifiable is None or r.identifiable == identifiable)
        )

    def labeled_count(self, simple: bool | None = None, identifiable: bool | None = None) -> int:
        return sum(
            r.labeled_count
            for r in self.rows
            if (simple is None or r.simple == simple)
            and (identifiable is None or r.identifiable == identifiable)
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "simple_only": self.simple_only,
            "unlabeled_total": self.unlabeled_total,
            "labeled_total": self.labeled_total,
            "counts": {
                "unlabeled": {
                    "identifiable": self.unlabeled_count(identifiable=True),
                    "noninjective": self.unlabeled_count(identifiable=False),
                    "simple_identifiable": self.unlabeled_count(True, True),
                    "simple_noninjective": self.unlabeled_count(True, False),
                },
                "labeled": {
                    "identifiable": self.labeled_count(identifiable=True),
                    "noninjective": self.labeled_count(identifiable=False),
                },
            },
            "disagreements": [
                {"directed": sorted(d), "bidirected": sorted(b), "reason": reason}
                for d, b, reason in self.disagreements
            ],
        }

    def to_csv(self) -> str:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["directed", "bidirected", "simple", "identifiable", "labeled_count"]
        )
        for r in sorted(self.rows, key=lambda r: r.key):
            writer.writerow(
                [
                    ";".join(f"{i}->{j}" for i, j in r.directed),
                    ";".join(f"{i}<->{j}" for i, j in r.bidirected),
                    int(r.simple),
                    int(r.identifiable),
                    r.labeled_count,
                ]
            )
        return buf.getvalue()


def _classify_directed(dmask: int, n: int, simple_only: bool) -> tuple[list, list, list, list]:
    """Pass 1, one directed part: every representative ``(dmask, bmask)``, by bmask.

    Returns the lists ``bmasks``, ``best`` (the image mask that names the
    class, see ``_canonical``), ``n_aut`` (|Aut|) and ``identifiable`` (the
    fixpoint verdict), one entry per representative. Representatives are
    upper-triangular, so they carry topological labels and the fixpoint runs
    on their masks as they are. With ``simple_only``, bidirected parts that
    share a pair with ``dmask`` are left out.
    """
    tables = _mask_tables(n)
    bmasks = np.arange(len(tables.bidirected))
    if simple_only:
        bmasks = bmasks[(bmasks & dmask) == 0]
    images = tables.bidirected[bmasks] + tables.directed[dmask]
    best = images.max(axis=1)
    n_aut = np.count_nonzero(images == best[:, None], axis=1)
    bmasks = bmasks.tolist()
    parents, siblings = tables.parents[dmask], tables.siblings
    identifiable = [_violating_set(parents, siblings[b]) is None for b in bmasks]
    return bmasks, best.tolist(), n_aut.tolist(), identifiable


def _oracle_disagreement(cls: tuple, n: int, trials: int) -> str | None:
    """Pass 2, one class: None when the oracle confirms the class's verdict.

    Otherwise the ``Disagreement.reason``: ``"oracle"`` for a different
    answer, ``"oracle error: <message>"`` when the oracle raised. Looks
    ``injectivity_oracle`` up as a module global on every call, so a
    rebinding of ``census.injectivity_oracle`` is what runs.
    """
    directed, bidirected, identifiable = cls
    g = MixedGraph(m=n, directed=directed, bidirected=bidirected)
    try:
        injective = injectivity_oracle(g, trials=trials).injective
    except SemidentError as exc:
        return f"oracle error: {exc}"
    return None if injective == identifiable else "oracle"


def census_report(
    n: int,
    simple_only: bool = False,
    trials: int = DEFAULT_TRIALS,
    jobs: int = 1,
) -> CensusReport:
    """Classify every acyclic mixed graph on ``n`` nodes (n <= 5).

    Two streamed passes. The first visits every upper-triangular
    representative as its pair masks ``(dmask, bmask)``, one work unit per
    directed part (``_classify_directed``): it runs the fixpoint criterion
    on the masks and deduplicates the representatives into unlabeled classes
    by their largest permutation image; every representative's verdict must
    agree with its class's verdict. Only a new class has its key and edges
    decoded. The second runs the oracle once per class, on the class's first
    representative, and its answer must agree with the class's verdict.
    Every conflict lands in ``disagreements``, with the check that failed
    (``Disagreement.reason``). The labeled count of a class is n! / |Aut(G)|,
    the number of distinct labelings of G. Both passes are streamed, in
    order, to at most ``min(jobs, os.cpu_count())`` worker processes.
    """
    if not 1 <= n <= 5:
        raise SemidentError(f"census_report supports 1 <= n <= 5, got {n}")
    if jobs < 1:
        raise SemidentError(f"census_report needs jobs >= 1, got {jobs}")
    if trials < 0:
        raise SemidentError(f"census_report needs trials >= 0, got {trials}")
    workers = min(jobs, os.cpu_count() or 1)
    report = CensusReport(n=n, simple_only=simple_only)
    classes: dict[int, CensusRow] = {}
    factorial = math.factorial(n)
    edges = _permutation_table(n)[0]
    pairs = _mask_tables(n).pairs
    with Pool(workers) if workers > 1 else nullcontext() as pool:

        def stream(func, items, chunksize):
            return pool.imap(func, items, chunksize=chunksize) if pool else map(func, items)

        unit = partial(_classify_directed, n=n, simple_only=simple_only)
        units = stream(unit, range(1 << len(pairs)), 4)
        for dmask, (bmasks, bests, auts, verdicts) in enumerate(units):
            for bmask, best, n_aut, identifiable in zip(bmasks, bests, auts, verdicts):
                row = classes.get(best)
                if row is None:
                    classes[best] = CensusRow(
                        key=_key_of(n, edges, best),
                        directed=_pairs_of(pairs, dmask),
                        bidirected=_pairs_of(pairs, bmask),
                        simple=not dmask & bmask,
                        identifiable=identifiable,
                        labeled_count=factorial // n_aut,
                    )
                elif row.identifiable != identifiable:
                    report.disagreements.append(
                        Disagreement(_pairs_of(pairs, dmask), _pairs_of(pairs, bmask), "verdict")
                    )
        report.rows = list(classes.values())
        check = partial(_oracle_disagreement, n=n, trials=trials)
        verdicts = ((r.directed, r.bidirected, r.identifiable) for r in report.rows)
        for row, reason in zip(report.rows, stream(check, verdicts, 8)):
            if reason is not None:
                report.disagreements.append(Disagreement(row.directed, row.bidirected, reason))
    return report
