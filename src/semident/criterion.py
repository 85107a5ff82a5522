"""Graphical criterion for global identifiability.

An acyclic mixed graph has an injective covariance parametrization exactly
when no induced subgraph has both a converging arborescence in its directed
part and a connected bidirected part. Cyclic directed parts rule out
injectivity outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CyclicDirectedPartError
from .graphs import (
    MixedGraph,
    _closure,
    _first_nodes,
    _members,
    is_ancestral,
    is_simple,
    relabel_topologically,
    require_acyclic,
)


@dataclass(frozen=True)
class IdentVerdict:
    """Outcome of the global identifiability check.

    When not identifiable, ``violating_set`` holds a node set A whose induced
    subgraph certifies noninjectivity and ``sink`` the arborescence sink
    (omitted for cyclic graphs, where the set is one directed cycle).
    """

    identifiable: bool
    violating_set: tuple | None
    sink: int | None
    simple: bool
    ancestral: bool
    acyclic: bool

    def to_json(self, g: MixedGraph | None = None) -> dict:
        def fmt(v):
            if g is None:
                return v
            name = g.name_of(v)
            return int(name) if name.isdigit() else name

        out = {"identifiable": self.identifiable}
        if self.violating_set is not None:
            out["violating_set"] = [fmt(v) for v in self.violating_set]
        if self.sink is not None:
            out["sink"] = fmt(self.sink)
        out["flags"] = {
            "simple": self.simple,
            "ancestral": self.ancestral,
            "acyclic": self.acyclic,
        }
        return out


def find_violating_set(g: MixedGraph) -> tuple[tuple, int] | None:
    """Search for a violating induced subgraph by a shrinking fixpoint.

    Requires a topologically labeled acyclic graph. For each candidate sink y
    (later labels first) start from nodes 1..y and alternately drop nodes with
    no directed path to y inside the current set and nodes outside y's
    bidirected component, until stable. The first sink whose fixpoint keeps at
    least two nodes yields the (maximal for that sink) violating set.
    """
    require_acyclic(g)
    hit = _violating_set(g._parents, g._siblings)
    if hit is None:
        return None
    a, y = hit
    return tuple(_members(a)), y


def _violating_set(parents: tuple, siblings: tuple) -> tuple[int, int] | None:
    """``find_violating_set`` on adjacency masks: ``(set mask, sink)`` or None.

    ``parents`` and ``siblings`` are per-node masks as ``MixedGraph`` stores
    them (index 0 unused) of a topologically labeled acyclic graph; nothing
    here checks that. The census runs the same search on tabulated closures
    (``census._fixpoint_sets``), and its tests pin that to this one.
    """
    for y in range(len(parents) - 1, 0, -1):
        a = _first_nodes(y)  # only nodes 1..y can reach y
        while True:
            reach = _closure(parents, y, a)
            comp = _closure(siblings, y, reach)
            if comp == a:
                break
            a = comp
        if a & (a - 1):  # at least two nodes
            return a, y
    return None


def find_violating_set_exhaustive(g: MixedGraph) -> tuple[tuple, int] | None:
    """Scan every induced subgraph for the criterion's two conditions.

    Exponential in the node count; retained as the independent oracle that
    cross-validates the fixpoint search (the census reads the same scan from
    bitset tables up to five nodes).
    Each subset's mask is built once and both closure tests run on it: the
    bidirected part connects the subset, and some node of it is reached from
    every other inside it.
    """
    require_acyclic(g)
    hit = _exhaustive_set(g._parents, g._siblings)
    if hit is None:
        return None
    a, y = hit
    return tuple(_members(a)), y


def _exhaustive_set(parents: tuple, siblings: tuple) -> tuple[int, int] | None:
    """``find_violating_set_exhaustive`` on adjacency masks: ``(set mask, sink)`` or None.

    ``parents`` and ``siblings`` are per-node masks as ``MixedGraph`` stores
    them (index 0 unused); nothing here checks acyclicity. The census oracle
    reads the same scan from bitset tables (``census._table_scan``), and its
    tests pin that to this one. Shares ``_closure`` with the fixpoint search
    and nothing else.
    """
    m = len(parents) - 1
    for mask, nodes in _subsets(m):
        if _closure(siblings, nodes[-1], mask) != mask:
            continue
        for y in nodes:
            if _closure(parents, y, mask) == mask:
                return mask, y
    return None


def _subsets(m: int):
    """``(mask, nodes)`` of every subset of 1..m with at least two nodes, the
    largest first and each size in ``combinations`` order."""
    nodes = range(1, m + 1)
    bits = [1 << v for v in nodes]
    for size in range(m, 1, -1):
        yield from zip(map(sum, combinations(bits, size)), combinations(nodes, size))


def check_global_identifiability(g: MixedGraph) -> IdentVerdict:
    """Decide injectivity of the covariance parametrization of the graph.

    Accepts any labeling; the fixpoint search runs on a topologically
    relabeled copy and the violating set is mapped back to the input labels.
    """
    simple = is_simple(g)
    try:
        topo, mapping = relabel_topologically(g)
    except CyclicDirectedPartError as exc:
        return IdentVerdict(
            identifiable=False,
            violating_set=tuple(sorted(exc.cycle)),
            sink=None,
            simple=simple,
            ancestral=False,
            acyclic=False,
        )
    ancestral = is_ancestral(topo)
    back = {new: old for old, new in mapping.items()}
    hit = find_violating_set(topo)
    if hit is None:
        return IdentVerdict(True, None, None, simple, ancestral, True)
    a, y = hit
    return IdentVerdict(
        identifiable=False,
        violating_set=tuple(sorted(back[v] for v in a)),
        sink=back[y],
        simple=simple,
        ancestral=ancestral,
        acyclic=True,
    )
