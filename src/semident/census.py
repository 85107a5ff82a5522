"""Exhaustive small-graph census with independent cross-validation.

Enumerates every acyclic mixed graph on up to five nodes (directed parts as
upper-triangular DAG representatives) and classifies identifiability with
the fixpoint criterion on every representative. A representative is a pair
of pair masks ``(dmask, bmask)``, and pass 1 works on those masks alone: one
work unit per directed part takes every bidirected part's canonical key,
|Aut| and fixpoint verdict from tables built once per node count
(``_mask_tables``), and builds no graph object. Every representative's
verdict must agree with the verdict of its isomorphism class. Injectivity is
invariant under relabelling, so pass 2 then checks each class once, on the
key and masks pass 1 kept for its first representative, against an oracle
built from the exhaustive induced-subgraph scan, exact rank conditions and
an explicit witness built on the scan's own violating set.
The oracle kernel (``_oracle``) runs on the adjacency masks of the same
tables: representatives already carry topological labels, so nothing is
relabeled or keyed again. It builds a graph object only for an injective
class's step walk and for a skeleton the witness memo has not met yet; the
memo is keyed by the skeleton's own edges, so labeled violating sets with
one skeleton share an entry. ``injectivity_oracle``, the public entry for
any labeling, keys its graph and runs the same kernel on the canonical
graph, so its evidence does not depend on the labeling it was given.
The integer probe point of a class is drawn by a generator seeded with a
hash of the class's canonical key, so it does not depend on the order or
the process in which classes are checked. The oracle shares nothing with
the fixpoint search. Any disagreement is a build-failing event.
``enumerate_graphs`` and ``canonical_form`` also go to six nodes;
``census_report`` and the oracle stop at five.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import combinations, permutations
from multiprocessing import Pool
from numbers import Integral
from typing import NamedTuple

import numpy as np

from . import linalg, witness
from .criterion import _exhaustive_set, _violating_set
from .errors import SemidentError, SupportViolationError
from .graphs import MixedGraph, relabel_topologically, require_acyclic
from .inversion import _step_records
from .params import phi

#: hard cap on census node counts
MAX_N = 6


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
    """The census's tables for one node count; see ``_mask_tables``."""

    pairs: tuple
    edges: tuple
    directed: np.ndarray
    bidirected: np.ndarray
    parents: tuple
    siblings: tuple


@cache
def _mask_tables(n: int) -> _MaskTables:
    """The census's tables over the upper-triangular pairs of 1..n, indexed by pair mask.

    Bit k of a pair mask stands for ``pairs[k]``, and ``edges[mask]`` lists
    the pairs of ``mask`` in order. Row ``mask`` of ``directed``
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
    edges = tuple(_pairs_of(pairs, mask) for mask in masks)
    parents, siblings = [], []
    for mask_edges in edges:
        par, sib = [0] * (n + 1), [0] * (n + 1)
        for i, j in mask_edges:
            par[j] |= 1 << i
            sib[i] |= 1 << j
            sib[j] |= 1 << i
        parents.append(tuple(par))
        siblings.append(tuple(sib))
    for a in (directed, bidirected):
        a.flags.writeable = False
    return _MaskTables(pairs, edges, directed, bidirected, tuple(parents), tuple(siblings))


def _seed_from_key(key: tuple) -> int:
    """Probe seed of a class: the first 8 bytes of the SHA-256 of ``repr(key)``.

    One hash per class; ``_probe_point`` seeds its one draw with it.
    """
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
def _skeleton_witness(m: int, directed: tuple, bidirected: tuple) -> SkeletonWitness:
    """The memoized witness check of one skeleton, shared by every class that has it.

    The skeleton is given by its edges in local labels 1..m, as
    ``witness._skeleton_trees`` returns them, so every labeled violating set
    with one skeleton shares an entry, and the skeleton's ``MixedGraph`` is
    built here only, on a miss. ``phi`` checks each point's support,
    symmetry and positive definiteness on the skeleton. At most a few
    thousand entries per process, since m <= 5.
    """
    skeleton = MixedGraph(m=m, directed=directed, bidirected=bidirected)
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


def injectivity_oracle(g: MixedGraph) -> OracleVerdict:
    """Decide injectivity without the fixpoint search.

    Accepts any labeling of an acyclic graph on at most five nodes. The
    graph is keyed by ``canonical_form``, and the graph of that key,
    relabeled topologically, is handed as pair masks to the oracle kernel
    ``_oracle``, the one the census runs on its pass-1 masks. Every labeling
    of one graph therefore gets the same verdict and the same evidence:
    exact rank conditions at two points for an injective graph, an exact
    witness pair for a noninjective one. Internal failures raise rather than
    silently passing.
    """
    if g.m > 5:
        raise SemidentError("injectivity oracle supports m <= 5")
    require_acyclic(g)
    key = canonical_form(g)
    topo, _ = relabel_topologically(MixedGraph(m=g.m, directed=key[1], bidirected=key[2]))
    bit = {pair: 1 << k for k, pair in enumerate(_mask_tables(g.m).pairs)}
    dmask = sum(bit[e] for e in topo.directed)
    bmask = sum(bit[e] for e in topo.bidirected)
    return _oracle(key, g.m, dmask, bmask)


def _oracle(key: tuple, n: int, dmask: int, bmask: int) -> OracleVerdict:
    """The oracle kernel on the upper-triangular graph ``(dmask, bmask)`` of ``_mask_tables(n)``.

    ``key`` is the graph's canonical key. Runs the exhaustive
    induced-subgraph scan on the tables' adjacency masks. An injective
    answer is backed by exact rank conditions at two points. At Lambda = 0,
    Omega = I the step matrix of node j is I on the rows [j - 1] \\ S and the
    columns P, of rank |P \\ S|, so step j - 1 fails exactly when some pair
    (i, j) is both a directed and a bidirected edge. Then the inversion
    steps walk the integer point ``_probe_point`` on the rational backend;
    that walk is the only place a ``MixedGraph`` is built for the graph. The
    first failing step raises. A noninjective answer is backed by an
    explicit witness pair built inside the set the scan found, checked once
    per skeleton (``_mask_witness``). Internal failures raise rather than
    silently passing.
    """
    tables = _mask_tables(n)
    parents, siblings = tables.parents[dmask], tables.siblings[bmask]
    hit = _exhaustive_set(parents, siblings)
    if hit is None:
        failing = [j - 1 for _, j in tables.edges[dmask & bmask]]
        if not failing:
            topo = MixedGraph(m=n, directed=tables.edges[dmask], bidirected=tables.edges[bmask])
            records = _step_records(topo, *_probe_point(topo, key))
            failing = [rec.step for rec in records if not rec.passed]
        if failing:
            raise SemidentError(
                f"subset scan says injective but rank fails at step {min(failing)}"
            )
        return OracleVerdict(True, "exact rank conditions at 2 points")
    pair = _mask_witness(parents, siblings, hit[0])
    if pair.residual != 0 or pair.separation == 0:
        raise SemidentError("witness construction produced an invalid pair")
    return OracleVerdict(
        False, f"witness with separation {float(pair.separation):.3g}"
    )


def _probe_point(topo: MixedGraph, key: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's exact probe point: object arrays of Python ints Lambda and Omega.

    One draw of a ``random.Random`` seeded at ``_seed_from_key(key)``: one
    block of 64-bit words, one per edge, the directed edges' and then the
    bidirected edges', in sorted edge order. The top 17 bits of each word,
    less 2**16, give an integer in [-2**16, 2**16). Index arrays
    scatter them into Lambda and Omega, Omega symmetric, and every diagonal
    entry of Omega is 1 plus its row's absolute sum, so Omega is strictly
    diagonally dominant and positive definite (``sample_parameters``' rule).
    """
    m = topo.m
    edges = np.array(sorted(topo.directed) + sorted(topo.bidirected), dtype=np.intp)
    rows, cols = edges.reshape(-1, 2).T - 1
    n_dir = len(topo.directed)
    rng = random.Random(_seed_from_key(key))
    words = np.frombuffer(rng.randbytes(8 * len(edges)), dtype="<u8") >> np.uint64(47)
    draws = (words.astype(np.int64) - 2**16).astype(object)
    lam = np.zeros((m, m), dtype=object)
    omega = np.zeros((m, m), dtype=object)
    lam[rows[:n_dir], cols[:n_dir]] = draws[:n_dir]
    omega[rows[n_dir:], cols[n_dir:]] = draws[n_dir:]
    omega[cols[n_dir:], rows[n_dir:]] = draws[n_dir:]
    diag = np.arange(m)
    omega[diag, diag] = 1 + np.abs(omega).sum(axis=1)
    return lam, omega


def _mask_witness(parents: tuple, siblings: tuple, a: int) -> SkeletonWitness:
    """The memoized skeleton check of the witness pair built inside the violating set ``a``.

    ``a`` is a node mask of the topologically labeled graph whose adjacency
    masks are ``parents`` and ``siblings``; the pair is the one
    ``witness_from_set`` builds there. Off the skeleton the lifted points
    take Lambda = 0 and Omega = I, so the lifted I - Lambda is a permuted
    block diagonal diag(I - Lambda_s, I): the covariance on the graph is the
    skeleton's embedded in an identity, the lifted Omega is positive
    definite exactly when the skeleton's is, and residual and separation are
    the skeleton's (``_skeleton_witness``). What is left to check on the
    graph is support: every skeleton edge must map onto an edge of the same
    kind in the masks, or ``SupportViolationError`` is raised.
    """
    subset, directed, bidirected = witness._skeleton_trees(parents, siblings, a)
    for kind, edges, adj in (("->", directed, parents), ("<->", bidirected, siblings)):
        for v, w in edges:
            i, j = subset[v - 1], subset[w - 1]
            if not adj[j] >> i & 1:
                raise SupportViolationError(
                    f"skeleton edge {v}{kind}{w} maps to {i}{kind}{j}, not an edge of the graph"
                )
    return _skeleton_witness(len(subset), directed, bidirected)


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


def _oracle_disagreement(item: tuple, n: int) -> str | None:
    """Pass 2, one class: None when the oracle confirms the class's verdict.

    ``item`` is ``(key, dmask, bmask, identifiable)`` as pass 1 left it: the
    class's key, the pair masks of its first representative and its
    fixpoint verdict. The oracle kernel runs on those masks as they are; no
    graph is relabeled or keyed again. Otherwise the ``Disagreement.reason``:
    ``"oracle"`` for a different answer, ``"oracle error: <message>"`` when
    the oracle raised. Looks ``_oracle`` up as a module global on every call,
    so a rebinding of ``census._oracle`` is what runs.
    """
    key, dmask, bmask, identifiable = item
    try:
        injective = _oracle(key, n, dmask, bmask).injective
    except SemidentError as exc:
        return f"oracle error: {exc}"
    return None if injective == identifiable else "oracle"


def census_report(n: int, simple_only: bool = False, *, jobs: int = 1) -> CensusReport:
    """Classify every acyclic mixed graph on ``n`` nodes (n <= 5).

    Two streamed passes. The first visits every upper-triangular
    representative as its pair masks ``(dmask, bmask)``, one work unit per
    directed part (``_classify_directed``): it runs the fixpoint criterion
    on the masks and deduplicates the representatives into unlabeled classes
    by their largest permutation image; every representative's verdict must
    agree with its class's verdict. Only a new class has its key and edges
    decoded, its edges by table lookup. The second runs the oracle kernel
    once per class, on the key and pair masks pass 1 kept for the class's
    first representative, and its answer must agree with the class's verdict.
    Every conflict lands in ``disagreements``, with the check that failed
    (``Disagreement.reason``). The labeled count of a class is n! / |Aut(G)|,
    the number of distinct labelings of G. Both passes are streamed, in
    order, to at most ``min(jobs, os.cpu_count())`` worker processes.
    """
    if not isinstance(n, Integral) or not 1 <= n <= 5:
        raise SemidentError(f"census_report supports integers 1 <= n <= 5, got {n!r}")
    if not isinstance(jobs, Integral) or jobs < 1:
        raise SemidentError(f"census_report needs an integer jobs >= 1, got {jobs!r}")
    workers = min(jobs, os.cpu_count() or 1)
    report = CensusReport(n=n, simple_only=simple_only)
    classes: dict[int, CensusRow] = {}
    work = []  # pass 2's items, one per class in row order
    factorial = math.factorial(n)
    edges = _permutation_table(n)[0]
    tables = _mask_tables(n)
    with Pool(workers) if workers > 1 else nullcontext() as pool:

        def stream(func, items, chunksize):
            return pool.imap(func, items, chunksize=chunksize) if pool else map(func, items)

        unit = partial(_classify_directed, n=n, simple_only=simple_only)
        units = stream(unit, range(len(tables.edges)), 4)
        for dmask, (bmasks, bests, auts, verdicts) in enumerate(units):
            for bmask, best, n_aut, identifiable in zip(bmasks, bests, auts, verdicts):
                row = classes.get(best)
                if row is None:
                    key = _key_of(n, edges, best)
                    classes[best] = CensusRow(
                        key=key,
                        directed=tables.edges[dmask],
                        bidirected=tables.edges[bmask],
                        simple=not dmask & bmask,
                        identifiable=identifiable,
                        labeled_count=factorial // n_aut,
                    )
                    work.append((key, dmask, bmask, identifiable))
                elif row.identifiable != identifiable:
                    report.disagreements.append(
                        Disagreement(tables.edges[dmask], tables.edges[bmask], "verdict")
                    )
        report.rows = list(classes.values())
        check = partial(_oracle_disagreement, n=n)
        for row, reason in zip(report.rows, stream(check, work, 8)):
            if reason is not None:
                report.disagreements.append(Disagreement(row.directed, row.bidirected, reason))
    return report
