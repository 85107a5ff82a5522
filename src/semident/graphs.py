"""Mixed graphs (directed + bidirected edges) and structural queries.

Nodes are internally labeled 1..m. External node names from parsed files are
kept in a symbol table on the graph. All values are immutable; every operation
is a pure function.

Each graph stores its adjacency once, on construction, as one Python-int
bitmask per node: ``_parents[v]``, ``_children[v]`` and ``_siblings[v]`` have
bit w set when w is a parent, child or sibling of v (bit 0 and index 0 are
unused). This module alone decides how adjacency is stored. It alone decides
acyclicity too (``require_acyclic``, ``topological_order``): no other module
runs the directed-cycle search. Set-valued walks (reachability, connectivity,
the fixpoint criterion) are one ``_closure`` of masks. Walks whose tree is
read go through ``_bfs``, which visits neighbours in ascending order: witness
construction reads its BFS trees, so its output depends on that order.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable

from .errors import (
    CyclicDirectedPartError,
    EmptySubsetError,
    GraphParseError,
    SelfLoopError,
)

_TOKEN = re.compile(r"^[A-Za-z0-9_]+$")


@dataclass(frozen=True)
class MixedGraph:
    """A mixed graph (V, D, B) on nodes 1..m.

    ``directed`` holds ordered pairs (i, j) meaning i -> j; ``bidirected``
    holds pairs stored canonically as (min, max) meaning i <-> j. The two edge
    sets may overlap (non-simple graphs are representable). Self-loops are
    rejected on construction.
    """

    m: int
    directed: frozenset = frozenset()
    bidirected: frozenset = frozenset()
    names: tuple = field(default=None, compare=False)
    _parents: tuple = field(init=False, repr=False, compare=False)
    _children: tuple = field(init=False, repr=False, compare=False)
    _siblings: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.m
        parents, children, siblings = [0] * (m + 1), [0] * (m + 1), [0] * (m + 1)
        directed, bidirected = set(), set()
        for i, j in self.directed:
            i, j = int(i), int(j)
            if i == j or not (0 < i <= m and 0 < j <= m):
                _reject_edge(i, j, m)
            directed.add((i, j))
            children[i] |= 1 << j
            parents[j] |= 1 << i
        for i, j in self.bidirected:
            i, j = int(i), int(j)
            if i > j:
                i, j = j, i
            if not 0 < i < j <= m:
                _reject_edge(i, j, m)
            bidirected.add((i, j))
            siblings[i] |= 1 << j
            siblings[j] |= 1 << i
        object.__setattr__(self, "directed", frozenset(directed))
        object.__setattr__(self, "bidirected", frozenset(bidirected))
        object.__setattr__(self, "_parents", tuple(parents))
        object.__setattr__(self, "_children", tuple(children))
        object.__setattr__(self, "_siblings", tuple(siblings))
        if self.names is not None:
            names = tuple(str(n) for n in self.names)
            if len(names) != self.m:
                raise GraphParseError("names length does not match node count")
            object.__setattr__(self, "names", names)

    # -- basic queries -------------------------------------------------

    @property
    def nodes(self) -> range:
        return range(1, self.m + 1)

    def has_directed(self, i: int, j: int) -> bool:
        return (i, j) in self.directed

    def has_bidirected(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.bidirected

    def parents(self, i: int) -> frozenset:
        return self._node_set(self._parents, i)

    def children(self, i: int) -> frozenset:
        return self._node_set(self._children, i)

    def siblings(self, i: int) -> frozenset:
        return self._node_set(self._siblings, i)

    def _node_set(self, adj: tuple, i: int) -> frozenset:
        """The nodes of ``adj[i]``; empty, as for an isolated node, when i is not in 1..m."""
        return frozenset(_members(adj[i])) if 0 < i <= self.m else frozenset()

    def name_of(self, i: int) -> str:
        return self.names[i - 1] if self.names is not None else str(i)


def _reject_edge(i: int, j: int, m: int):
    """Raise the error for an edge (i, j) that is a self-loop or leaves 1..m."""
    if i == j:
        raise SelfLoopError(f"self-loop at node {i}")
    raise GraphParseError(f"edge ({i},{j}) outside node range 1..{m}")


def siblings_below(g: MixedGraph, i: int) -> frozenset:
    """S(i): siblings of node i+1 among the first i nodes.

    Assumes topologically relabeled nodes (as all stepwise formulas do).
    """
    return frozenset(j for j in g.siblings(i + 1) if j <= i)


def is_simple(g: MixedGraph) -> bool:
    """True iff at most one edge joins any pair of nodes."""
    return not any(
        c & (p | s) for p, c, s in zip(g._parents, g._children, g._siblings)
    )


def find_directed_cycle(g: MixedGraph) -> tuple | None:
    """Return one directed cycle as a node tuple, or None if acyclic."""
    color = {v: 0 for v in g.nodes}  # 0 unvisited, 1 on stack, 2 done
    parent: dict[int, int] = {}
    for start in g.nodes:
        if color[start]:
            continue
        stack = [(start, iter(_members(g._children[start])))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for child in it:
                if color[child] == 0:
                    color[child] = 1
                    parent[child] = node
                    stack.append((child, iter(_members(g._children[child]))))
                    advanced = True
                    break
                if color[child] == 1:
                    cycle = [node]
                    cur = node
                    while cur != child:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return tuple(cycle)
            if not advanced:
                color[node] = 2
                stack.pop()
    return None


def require_acyclic(g: MixedGraph) -> None:
    """Raise CyclicDirectedPartError (carrying one cycle) unless g is acyclic.

    Every directed cycle has an edge i -> j with i >= j, so on topologically
    labeled graphs this is one scan of the edges and no search.
    """
    if any(i >= j for i, j in g.directed):
        cycle = find_directed_cycle(g)
        if cycle is not None:
            raise CyclicDirectedPartError(cycle)


def topological_order(g: MixedGraph) -> tuple:
    """Nodes in a deterministic topological order of the directed part.

    Kahn's algorithm with ties broken by smallest original label. Raises
    CyclicDirectedPartError (carrying one cycle) when no order exists.
    """
    indeg = [p.bit_count() for p in g._parents]
    heap = [v for v in g.nodes if indeg[v] == 0]
    heapify(heap)
    order = []
    while heap:
        v = heappop(heap)
        order.append(v)
        for c in _members(g._children[v]):
            indeg[c] -= 1
            if indeg[c] == 0:
                heappush(heap, c)
    if len(order) != g.m:
        cycle = find_directed_cycle(g)
        raise CyclicDirectedPartError(cycle)
    return tuple(order)


def relabel(g: MixedGraph, new_label: dict) -> MixedGraph:
    """Apply a node relabeling {old: new}; names follow the nodes."""
    names = None
    if g.names is not None:
        names = [None] * g.m
        for old, new in new_label.items():
            names[new - 1] = g.names[old - 1]
        names = tuple(names)
    return MixedGraph(
        m=g.m,
        directed=frozenset((new_label[i], new_label[j]) for i, j in g.directed),
        bidirected=frozenset(
            (new_label[i], new_label[j]) for i, j in g.bidirected
        ),
        names=names,
    )


def relabel_topologically(g: MixedGraph) -> tuple[MixedGraph, dict]:
    """Relabel nodes so every directed edge goes from lower to higher label.

    Returns (relabeled graph, mapping old -> new). Ties are broken by
    original label, so a graph that already carries topological labels comes
    back itself (graphs are frozen) with the identity mapping.
    """
    if all(i < j for i, j in g.directed):
        return g, {v: v for v in g.nodes}
    order = topological_order(g)
    mapping = {old: pos + 1 for pos, old in enumerate(order)}
    return relabel(g, mapping), mapping


def _members(mask: int) -> list:
    """The nodes of a mask, in ascending order."""
    nodes = []
    while mask:
        low = mask & -mask
        nodes.append(low.bit_length() - 1)
        mask ^= low
    return nodes


def _first_nodes(k: int) -> int:
    """The mask of nodes 1..k."""
    return (2 << k) - 2


def _node_mask(g: MixedGraph, nodes: Iterable[int]) -> int:
    """The mask of a node set of ``g``; a node outside 1..m raises EmptySubsetError."""
    mask = 0
    for v in nodes:
        if not 1 <= v <= g.m:
            raise EmptySubsetError(f"node {v} outside 1..{g.m}")
        mask |= 1 << v
    return mask


def _closure(adj: tuple, start: int, within: int = -1) -> int:
    """Mask of the nodes reachable from ``start`` along the masks ``adj``.

    Only nodes in the mask ``within`` are entered (-1, every bit set, enters
    all); ``start`` itself is always in the result.
    """
    seen = frontier = 1 << start
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = step & within & ~seen
        seen |= frontier
    return seen


def _bfs(adj: tuple, start: int, within: int = -1) -> dict:
    """Breadth-first walk from ``start`` along the masks ``adj``.

    Only nodes in the mask ``within`` are entered. The queue is FIFO and
    neighbours are visited in ascending order. Returns {visited node:
    predecessor}, in visiting order, with the start mapped to None, so the
    items are the edges of a BFS tree.
    """
    pred = {start: None}
    seen = 1 << start
    queue = [start]
    for v in queue:  # the queue grows while it is read
        new = adj[v] & within & ~seen
        seen |= new
        for w in _members(new):
            pred[w] = v
            queue.append(w)
    return pred


def is_ancestral(g: MixedGraph) -> bool:
    """True iff no bidirected edge joins a node to one of its descendants."""
    require_acyclic(g)
    children = g._children
    return not any(
        _closure(children, i) >> j & 1 or _closure(children, j) >> i & 1
        for i, j in g.bidirected
    )


def bidirected_connected(g: MixedGraph, nodes: Iterable[int]) -> bool:
    """True iff (A, B_A) is a connected undirected graph (singletons connect)."""
    subset = _node_mask(g, nodes)
    if not subset:
        raise EmptySubsetError("connectivity of the empty set")
    return _closure(g._siblings, subset.bit_length() - 1, subset) == subset


def has_converging_arborescence(g: MixedGraph, nodes: Iterable[int], sink: int) -> bool:
    """True iff every node of the subset reaches ``sink`` by a directed path
    inside the subset (equivalently D_A contains an arborescence converging
    to the sink)."""
    subset = _node_mask(g, nodes)
    if not (1 <= sink <= g.m and subset >> sink & 1) or subset.bit_count() < 2:
        raise EmptySubsetError("need sink in subset and at least two nodes")
    return _closure(g._parents, sink, subset) == subset


# -- parsing and serialization ----------------------------------------


def parse_graph(text: str) -> MixedGraph:
    """Parse the edge-list text format (`a -> b`, `a <-> b`, `#` comments).

    Node names are alphanumeric tokens, assigned internal labels in order of
    first appearance. Duplicate edges collapse silently (edge sets, not
    multisets).
    """
    names: list[str] = []
    index: dict[str, int] = {}

    def intern(tok: str, lineno: int) -> int:
        if not _TOKEN.match(tok):
            raise GraphParseError(f"bad node name {tok!r}", lineno)
        if tok not in index:
            names.append(tok)
            index[tok] = len(names)
        return index[tok]

    directed = set()
    bidirected = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3 or parts[1] not in ("->", "<->"):
            raise GraphParseError(f"expected 'a -> b' or 'a <-> b', got {raw!r}", lineno)
        a = intern(parts[0], lineno)
        b = intern(parts[2], lineno)
        if a == b:
            raise SelfLoopError(f"self-loop at node {parts[0]!r}", lineno)
        if parts[1] == "->":
            directed.add((a, b))
        else:
            bidirected.add((min(a, b), max(a, b)))
    return MixedGraph(
        m=len(names),
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        names=tuple(names),
    )


def _json_list(data: dict, key: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, (list, tuple)):
        raise GraphParseError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


def parse_graph_json(data) -> MixedGraph:
    """Parse the JSON graph format.

    ``{"nodes": [...], "directed": [[a, b], ...], "bidirected": [[a, b], ...]}``
    """
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise GraphParseError("graph JSON must be an object")
    names = [str(n) for n in _json_list(data, "nodes")]
    index = {n: k + 1 for k, n in enumerate(names)}
    if len(index) != len(names):
        raise GraphParseError("duplicate node names")

    def intern(tok) -> int:
        tok = str(tok)
        if tok not in index:
            raise GraphParseError(f"edge endpoint {tok!r} not in nodes list")
        return index[tok]

    def edges(key: str):
        for edge in _json_list(data, key):
            if not isinstance(edge, (list, tuple)) or len(edge) != 2:
                raise GraphParseError(f"{key} edge {edge!r} is not a pair of nodes")
            yield edge

    directed = set()
    bidirected = set()
    for a, b in edges("directed"):
        i, j = intern(a), intern(b)
        if i == j:
            raise SelfLoopError(f"self-loop at node {a!r}")
        directed.add((i, j))
    for a, b in edges("bidirected"):
        i, j = intern(a), intern(b)
        if i == j:
            raise SelfLoopError(f"self-loop at node {a!r}")
        bidirected.add((min(i, j), max(i, j)))
    return MixedGraph(
        m=len(names),
        directed=frozenset(directed),
        bidirected=frozenset(bidirected),
        names=tuple(names),
    )


def graph_to_text(g: MixedGraph) -> str:
    lines = [
        f"{g.name_of(i)} -> {g.name_of(j)}" for i, j in sorted(g.directed)
    ] + [f"{g.name_of(i)} <-> {g.name_of(j)}" for i, j in sorted(g.bidirected)]
    return "\n".join(lines) + ("\n" if lines else "")


def graph_to_json(g: MixedGraph) -> dict:
    return {
        "nodes": [g.name_of(i) for i in g.nodes],
        "directed": sorted([g.name_of(i), g.name_of(j)] for i, j in g.directed),
        "bidirected": sorted([g.name_of(i), g.name_of(j)] for i, j in g.bidirected),
    }


def load_graph(path: str) -> MixedGraph:
    """Load a graph from a file, dispatching on a leading '{' for JSON."""
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph(text)
