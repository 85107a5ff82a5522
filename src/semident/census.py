"""Exhaustive small-graph census with independent cross-validation.

Enumerates every acyclic mixed graph on up to five nodes (directed parts as
upper-triangular DAG representatives) and classifies identifiability with
the fixpoint criterion on every representative. A representative is a pair
of pair masks ``(dmask, bmask)``, and the census reads everything it needs
from tables built once per node count, on first use, never at import. Pass 1
takes all representatives at once, as numpy arrays, and builds no graph
object: the permutation images of ``_mask_tables`` give each one's class
and |Aut|, and the shrinking fixpoint runs on tabulated closures
(``_fixpoint_tables``), one array lookup per step for every representative
still searching. ``np.unique`` over the images deduplicates the classes.
Every representative's verdict must agree with the verdict of its
isomorphism class. Injectivity is invariant under relabelling, so pass 2
then checks each class once, on the key and masks pass 1 kept for its first
representative, against an oracle built from the exhaustive induced-subgraph
scan, exact rank conditions and an explicit witness built on the scan's own
violating set.
The oracle kernel (``_oracle``) reads the scan from two uint64 bitset tables
over the subsets the scan visits (``_scan_tables``): bit k of
``arbor[dmask]`` says the k-th subset has a converging arborescence, bit k
of ``conn[bmask]`` that its bidirected part is connected, so the first
violating set is the lowest bit of one AND. The skeleton's BFS trees are
memoized per pair mask and set, and checked against that part's edges
when an entry is filled (``_mask_tree``). Representatives already carry
topological labels, so nothing is relabeled or keyed again. An injective
class's step walk reads the adjacency masks of ``_mask_tables``, so the
kernel builds a graph object only for a skeleton the witness memo has not
met yet; the memo is keyed by the skeleton's own edges, so labeled
violating sets with one skeleton share an entry. ``injectivity_oracle``,
the public entry for any labeling, keys its graph and runs the same kernel
on the canonical graph, so its evidence does not depend on the labeling it
was given.
The integer probe point of a class is drawn by a generator seeded with a
hash of the class's canonical key, so it does not depend on the order or
the process in which classes are checked. The oracle shares nothing with
the fixpoint search but ``_closure``, from which both build their tables.
Any disagreement is a build-failing event.
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

from . import witness
from .criterion import _subsets
from .errors import SemidentError, SupportViolationError
from .graphs import (
    MixedGraph,
    _closure,
    _first_nodes,
    _members,
    relabel_topologically,
    require_acyclic,
)
from .inversion import _step_records

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


#: bits of an image mask that one lookup in ``_key_chunks`` decodes
_CHUNK_BITS = 10


@cache
def _key_chunks(n: int) -> tuple:
    """``_key_of`` on n nodes as lookups, ``_CHUNK_BITS`` bits of the image mask at a time.

    Returns ``(shift, table)`` pairs from the highest chunk of the mask down;
    ``table[v]`` holds the ``(directed, bidirected)`` edges of ``_key_of``
    for the mask ``v << shift``. Each kind's edges come out sorted when read
    from the top bit down, so a mask's key is the concatenation of its
    chunks' edges in this order (``_decode_key``). Built on first use.
    """
    edges = _permutation_table(n)[0]
    chunks = []
    for shift in reversed(range(0, len(edges), _CHUNK_BITS)):
        values = range(1 << min(_CHUNK_BITS, len(edges) - shift))
        chunks.append((shift, tuple(_key_of(n, edges, v << shift)[1:] for v in values)))
    return tuple(chunks)


def _decode_key(n: int, best: int) -> tuple:
    """``_key_of(n, _permutation_table(n)[0], best)`` by one lookup per chunk of ``best``."""
    directed, bidirected = (), ()
    for shift, table in _key_chunks(n):
        d, b = table[best >> shift & (1 << _CHUNK_BITS) - 1]
        directed += d
        bidirected += b
    return n, directed, bidirected


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


class _ScanTables(NamedTuple):
    """The oracle's subset scan for one node count; see ``_scan_tables``."""

    sets: tuple
    arbor: np.ndarray
    conn: np.ndarray


@cache
def _scan_tables(n: int) -> _ScanTables:
    """The exhaustive induced-subgraph scan on n nodes as two bitset tables over pair masks.

    ``sets`` lists the node masks of ``criterion._subsets(n)`` in scan order
    (at most 26 at n = 5). Bit k of ``arbor[dmask]`` is set when every node
    of ``sets[k]`` reaches its largest node by a directed path inside it, in
    the directed part of the pair mask ``dmask`` of ``_mask_tables(n)``, and
    bit k of ``conn[bmask]`` when the bidirected part of ``bmask`` connects
    ``sets[k]``. Upper-triangular graphs carry topological labels, so only
    the largest node of a set can be reached from all the others, and that
    node is the sink ``_exhaustive_set`` finds. uint64, read-only, built on
    first use. Shares ``_closure`` with the fixpoint search and nothing else.
    """
    tables = _mask_tables(n)
    subsets = list(_subsets(n))

    def bitset(adj: tuple) -> int:
        return sum(
            1 << k
            for k, (mask, nodes) in enumerate(subsets)
            if _closure(adj, nodes[-1], mask) == mask
        )

    arbor = np.array([bitset(parents) for parents in tables.parents], dtype=np.uint64)
    conn = np.array([bitset(siblings) for siblings in tables.siblings], dtype=np.uint64)
    for a in (arbor, conn):
        a.flags.writeable = False
    return _ScanTables(tuple(mask for mask, _ in subsets), arbor, conn)


def _table_scan(n: int, dmask: int, bmask: int) -> tuple[int, int] | None:
    """``_exhaustive_set`` on the graph ``(dmask, bmask)``: ``(set mask, sink)`` or None.

    The first violating set of the scan is the lowest bit set in both
    ``arbor[dmask]`` and ``conn[bmask]`` of ``_scan_tables(n)``, and its sink
    is its largest node.
    """
    scan = _scan_tables(n)
    both = int(scan.arbor[dmask] & scan.conn[bmask])
    if not both:
        return None
    a = scan.sets[(both & -both).bit_length() - 1]
    return a, a.bit_length() - 1


@cache
def _fixpoint_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pass 1's closure tables on n nodes: ``(reach, comp)``, indexed ``[mask, y, a]``.

    ``reach[mask, y, a]`` is ``_closure(parents, y, a)`` on the directed
    part of the pair mask ``mask`` of ``_mask_tables(n)``, and
    ``comp[mask, y, a]`` the same on its bidirected part, for every node y
    and every node mask a of nodes 1..y that holds y: the only sets the
    fixpoint search meets at sink y. The other entries are 0 and never read.
    uint8, read-only, built on first use.
    """
    tables = _mask_tables(n)
    ys, sets = zip(
        *((y, 1 << y | s << 1) for y in range(1, n + 1) for s in range(1 << (y - 1)))
    )
    out = []
    for adjs in (tables.parents, tables.siblings):
        table = np.zeros((len(adjs), n + 1, 2 << n), dtype=np.uint8)
        table[:, ys, sets] = [[_closure(adj, y, s) for y, s in zip(ys, sets)] for adj in adjs]
        table.flags.writeable = False
        out.append(table)
    return out[0], out[1]


def _fixpoint_sets(n: int, dmasks: np.ndarray, bmasks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``criterion._violating_set`` on every representative ``(dmasks[i], bmasks[i])`` at once.

    Returns ``(sets, sinks)``: each representative's violating set as a node
    mask and its sink, both 0 where it has none. The search is the same: for
    each sink y, later labels first, start from nodes 1..y and alternate the
    directed and the bidirected closure until stable; the first sink whose
    fixpoint keeps at least two nodes wins. Each closure is one lookup in
    ``_fixpoint_tables(n)`` for every representative still searching, and a
    stable set stays stable, so the step repeats until no set moves.
    """
    reach, comp = _fixpoint_tables(n)
    sets = np.zeros(len(dmasks), dtype=np.uint8)
    sinks = np.zeros(len(dmasks), dtype=np.uint8)
    todo = np.arange(len(dmasks))
    for y in range(n, 0, -1):
        d, b = dmasks[todo], bmasks[todo]
        a = np.full(len(todo), _first_nodes(y), dtype=np.uint8)
        while True:
            step = comp[b, y, reach[d, y, a]]
            if np.array_equal(step, a):
                break
            a = step
        hit = (a & (a - 1)) != 0  # at least two nodes
        sets[todo[hit]] = a[hit]
        sinks[todo[hit]] = y
        todo = todo[~hit]
    return sets, sinks


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
    and ``separation`` and ``residual`` are the pair's exact max-norm
    differences of parameters and of covariance (``witness._checked_pair``).
    """

    points: tuple
    sigma: np.ndarray
    separation: float
    residual: float


@cache
def _skeleton_witness(m: int, directed: tuple, bidirected: tuple) -> SkeletonWitness:
    """The memoized witness check of one skeleton, shared by every class that has it.

    The skeleton is given by its edges in local labels 1..m, as
    ``_mask_tree`` returns them, so every labeled violating set
    with one skeleton shares an entry, and the skeleton's ``MixedGraph`` is
    built here only, on a miss. At most a few thousand entries per process,
    since m <= 5.
    """
    skeleton = MixedGraph(m=m, directed=directed, bidirected=bidirected)
    points = witness._skeleton_points(skeleton, "rational")
    check = SkeletonWitness(points, *witness._checked_pair(skeleton, points[:2], points[2:]))
    check.sigma.flags.writeable = False
    return check


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
    return _oracle(key, g.m, *_pair_masks(topo))


def _pair_masks(g: MixedGraph) -> tuple[int, int]:
    """``(dmask, bmask)`` of an upper-triangular graph, over the pairs of ``_mask_tables(g.m)``."""
    bit = {pair: 1 << k for k, pair in enumerate(_mask_tables(g.m).pairs)}
    return sum(bit[e] for e in g.directed), sum(bit[e] for e in g.bidirected)


def _oracle(key: tuple, n: int, dmask: int, bmask: int) -> OracleVerdict:
    """The oracle kernel on the upper-triangular graph ``(dmask, bmask)`` of ``_mask_tables(n)``.

    ``key`` is the graph's canonical key. Runs the exhaustive
    induced-subgraph scan as one AND of two bitset tables (``_table_scan``).
    An injective answer is backed by exact rank conditions at two points. At
    Lambda = 0, Omega = I the step matrix of node j is I on the rows
    [j - 1] \\ S and the columns P, of rank |P \\ S|, so step j - 1 fails
    exactly when some pair (i, j) is both a directed and a bidirected edge.
    Then the inversion steps walk the integer point ``_probe_point`` on the
    rational backend, on the graph's adjacency masks. The first failing step
    raises.

    A noninjective answer is backed by the witness pair ``witness_from_set``
    builds inside the set the scan found, checked once per skeleton
    (``_skeleton_witness``). Off the skeleton the lifted points take
    Lambda = 0 and Omega = I, so the lifted I - Lambda is a permuted block
    diagonal diag(I - Lambda_s, I): the covariance on the graph is the
    skeleton's embedded in an identity, the lifted Omega is positive definite
    exactly when the skeleton's is, and residual and separation are the
    skeleton's. What is left to check on the graph is support, which
    ``_mask_tree`` checks once per tree. Internal failures raise rather than
    silently passing.
    """
    tables = _mask_tables(n)
    hit = _table_scan(n, dmask, bmask)
    if hit is None:
        failing = [j - 1 for _, j in tables.edges[dmask & bmask]]
        if not failing:
            point = _probe_point(n, tables.edges[dmask], tables.edges[bmask], key)
            records = _step_records(tables.parents[dmask], tables.siblings[bmask], *point)
            failing = [rec.step for rec in records if not rec.passed]
        if failing:
            raise SemidentError(
                f"subset scan says injective but rank fails at step {min(failing)}"
            )
        return OracleVerdict(True, "exact rank conditions at 2 points")
    a = hit[0]
    pair = _skeleton_witness(
        a.bit_count(), _mask_tree(n, "->", dmask, a), _mask_tree(n, "<->", bmask, a)
    )
    if pair.residual != 0 or pair.separation == 0:
        raise SemidentError("witness construction produced an invalid pair")
    return OracleVerdict(
        False, f"witness with separation {float(pair.separation):.3g}"
    )


def _probe_point(
    m: int, directed: tuple, bidirected: tuple, key: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's exact probe point: object arrays of Python ints Lambda and Omega.

    ``directed`` and ``bidirected`` are the sorted edges of a graph on m
    nodes. One draw of a ``random.Random`` seeded at ``_seed_from_key(key)``:
    one block of 64-bit words, one per edge, the directed edges' and then the
    bidirected edges', in that order. The top 17 bits of each word,
    less 2**16, give an integer in [-2**16, 2**16). Index arrays
    scatter them into Lambda and Omega, Omega symmetric, and every diagonal
    entry of Omega is 1 plus its row's absolute sum, so Omega is strictly
    diagonally dominant and positive definite (``sample_parameters``' rule).
    """
    edges = np.array(directed + bidirected, dtype=np.intp)
    rows, cols = edges.reshape(-1, 2).T - 1
    n_dir = len(directed)
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


@cache
def _mask_tree(n: int, kind: str, mask: int, a: int) -> tuple:
    """``witness._skeleton_tree`` of the node set ``a`` in one part of a pair mask, checked.

    ``kind`` is ``"->"`` for the directed part of the pair mask ``mask`` of
    ``_mask_tables(n)`` and ``"<->"`` for its bidirected part. So the trees
    of a class are memoized by (n, dmask, a) and (n, bmask, a), which many
    classes share: at most 2 x 1024 x 26 entries at n = 5. Every edge of the
    tree must map onto an edge of the same kind in that part's adjacency
    masks, or ``SupportViolationError`` is raised. The check reads only the
    memo's key, so it runs once per entry.
    """
    tables = _mask_tables(n)
    adj = tables.parents[mask] if kind == "->" else tables.siblings[mask]
    tree = witness._skeleton_tree(adj, a, kind == "<->")
    subset = _members(a)
    for v, w in tree:
        i, j = subset[v - 1], subset[w - 1]
        if not adj[j] >> i & 1:
            raise SupportViolationError(
                f"skeleton edge {v}{kind}{w} maps to {i}{kind}{j}, not an edge of the graph"
            )
    return tree


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


class _Representatives(NamedTuple):
    """Pass 1's answers, one entry per representative in enumeration order; see ``_classify``."""

    dmasks: np.ndarray
    bmasks: np.ndarray
    best: np.ndarray
    n_aut: np.ndarray
    identifiable: np.ndarray


def _classify(n: int, simple_only: bool) -> _Representatives:
    """Pass 1: every representative ``(dmask, bmask)`` on n nodes, as arrays.

    Representatives run dmask-major, as ``enumerate_graphs`` yields them;
    with ``simple_only``, those whose parts share a pair are left out. Per
    representative, ``best`` is the image mask that names its class (see
    ``_canonical``), ``n_aut`` its |Aut| and ``identifiable`` the fixpoint
    verdict (``_fixpoint_sets``). The permutation images of a representative
    are ``directed[dmask] + bidirected[bmask]`` in ``_mask_tables(n)``, and
    directed bits sit above bidirected bits, so the largest image is reached
    only by the permutations that maximize ``directed[dmask]``: per directed
    part, pass 1 reads the bidirected images of those columns alone.
    Representatives are upper-triangular, so they carry topological labels
    and the fixpoint runs on their masks as they are.
    """
    tables = _mask_tables(n)
    count = len(tables.edges)
    dmasks, bmasks = np.divmod(np.arange(count * count, dtype=np.int32), count)
    if simple_only:
        keep = (dmasks & bmasks) == 0
        dmasks, bmasks = dmasks[keep], bmasks[keep]
    best = np.empty(len(dmasks), dtype=np.int64)
    n_aut = np.empty(len(dmasks), dtype=np.int64)
    bounds = np.searchsorted(dmasks, np.arange(count + 1)).tolist()
    for dmask, directed in enumerate(tables.directed):
        top = directed.max()
        rows = slice(bounds[dmask], bounds[dmask + 1])
        images = tables.bidirected[np.ix_(bmasks[rows], np.flatnonzero(directed == top))]
        bidirected = images.max(axis=1)
        best[rows] = top + bidirected
        n_aut[rows] = np.count_nonzero(images == bidirected[:, None], axis=1)
    sets, _ = _fixpoint_sets(n, dmasks, bmasks)
    return _Representatives(dmasks, bmasks, best, n_aut, sets == 0)


def _dedup(n: int, simple_only: bool) -> tuple[list, _Representatives]:
    """Pass 1 on n nodes, deduplicated: ``(conflicts, firsts)``.

    ``np.unique`` over the largest images of ``_classify`` finds each
    class's first representative, and its inverse maps every representative
    to its class. ``conflicts`` lists the ``(dmask, bmask)`` of every
    representative whose verdict differs from its class's, in enumeration
    order. ``firsts`` holds ``_classify``'s columns at the first
    representative of each class, in the order classes first occur.
    """
    reps = _classify(n, simple_only)
    _, first, inverse = np.unique(reps.best, return_index=True, return_inverse=True)
    wrong = np.flatnonzero(reps.identifiable != reps.identifiable[first][inverse])
    first.sort()
    conflicts = list(zip(reps.dmasks[wrong].tolist(), reps.bmasks[wrong].tolist()))
    return conflicts, _Representatives(*(c[first] for c in reps))


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

    Two passes. The first classifies every upper-triangular representative
    at once, as arrays of its pair masks ``(dmask, bmask)`` (``_classify``):
    the fixpoint criterion on tabulated closures, and the largest
    permutation image, which names the unlabeled class. ``np.unique`` over
    those images gives each class's first representative (``_dedup``), and
    rows follow the order in which classes first occur; every
    representative's verdict must agree with its class's, and the ones that
    do not are reported in enumeration order. Only a class decodes its key
    (``_decode_key``) and edges, both by table lookup. The second runs the
    oracle kernel once per class, on the key and pair masks of the class's
    first representative, and its answer must agree with the class's
    verdict. ``simple_only`` must be a bool. Every conflict lands in
    ``disagreements``, with the check that failed (``Disagreement.reason``).
    The labeled count of a class is n! / |Aut(G)|, the number of distinct
    labelings of G. The second pass is streamed, in order, to at most
    ``min(jobs, os.cpu_count())`` worker processes.
    """
    if not isinstance(n, Integral) or not 1 <= n <= 5:
        raise SemidentError(f"census_report supports integers 1 <= n <= 5, got {n!r}")
    if not isinstance(jobs, Integral) or jobs < 1:
        raise SemidentError(f"census_report needs an integer jobs >= 1, got {jobs!r}")
    if not isinstance(simple_only, (bool, np.bool_)):
        raise SemidentError(f"census_report needs a boolean simple_only, got {simple_only!r}")
    workers = min(jobs, os.cpu_count() or 1)
    report = CensusReport(n=int(n), simple_only=bool(simple_only))
    factorial = math.factorial(n)
    edges = _mask_tables(n).edges
    conflicts, firsts = _dedup(n, simple_only)
    for dmask, bmask in conflicts:
        report.disagreements.append(Disagreement(edges[dmask], edges[bmask], "verdict"))
    work = []  # pass 2's items, one per class in row order
    for dmask, bmask, best, n_aut, identifiable in zip(*(c.tolist() for c in firsts)):
        key = _decode_key(n, best)
        report.rows.append(
            CensusRow(
                key=key,
                directed=edges[dmask],
                bidirected=edges[bmask],
                simple=not dmask & bmask,
                identifiable=identifiable,
                labeled_count=factorial // n_aut,
            )
        )
        work.append((key, dmask, bmask, identifiable))
    _scan_tables(n)  # built before the pool starts, so forked workers inherit it
    check = partial(_oracle_disagreement, n=n)
    # four chunks per worker, as Pool.map sizes them: a class costs microseconds
    chunksize = -(-len(work) // (4 * workers))
    with Pool(workers) if workers > 1 else nullcontext() as pool:
        reasons = pool.imap(check, work, chunksize=chunksize) if pool else map(check, work)
        for row, reason in zip(report.rows, reasons):
            if reason is not None:
                report.disagreements.append(Disagreement(row.directed, row.bidirected, reason))
    return report
