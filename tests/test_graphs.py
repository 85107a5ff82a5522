"""Graph structure, validation, traversal, and serialization."""

from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semident.criterion import (
    check_global_identifiability,
    find_violating_set,
    find_violating_set_exhaustive,
)
from semident.errors import (
    CyclicDirectedPartError,
    EmptySubsetError,
    GraphParseError,
    SelfLoopError,
)
from semident.graphs import (
    MixedGraph,
    _bfs,
    bidirected_connected,
    find_directed_cycle,
    graph_to_json,
    graph_to_text,
    has_converging_arborescence,
    is_ancestral,
    is_simple,
    parse_graph,
    parse_graph_json,
    relabel,
    relabel_topologically,
    require_acyclic,
    topological_order,
)
from semident.inversion import _step_indices


def test_basic_accessors(iv_graph):
    assert list(iv_graph.nodes) == [1, 2, 3]
    assert iv_graph.parents(3) == frozenset({2})
    assert iv_graph.children(1) == frozenset({2})
    assert iv_graph.siblings(3) == frozenset({2})
    assert iv_graph.has_directed(1, 2)
    assert not iv_graph.has_directed(2, 1)
    assert iv_graph.has_bidirected(3, 2)


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError):
        MixedGraph(m=2, directed={(1, 1)})
    with pytest.raises(SelfLoopError):
        MixedGraph(m=2, bidirected={(2, 2)})


def test_out_of_range_node_rejected():
    with pytest.raises(GraphParseError):
        MixedGraph(m=2, directed={(1, 3)})


def test_bidirected_stored_unordered():
    g = MixedGraph(m=3, bidirected={(3, 1)})
    assert g.has_bidirected(1, 3)
    assert g.has_bidirected(3, 1)


def test_simplicity_and_ancestrality(iv_graph):
    # 2 -> 3 and 2 <-> 3 together break simplicity
    assert not is_simple(iv_graph)
    assert not is_ancestral(iv_graph)
    g = MixedGraph(m=3, directed={(1, 2)}, bidirected={(1, 3)})
    assert is_simple(g)
    assert is_ancestral(g)
    # ancestral fails when a directed path connects bidirected endpoints
    h = MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(1, 3)})
    assert is_simple(h)
    assert not is_ancestral(h)


def test_ancestral_implies_simple_exhaustively():
    from semident.census import enumerate_graphs

    for n in (2, 3, 4):
        for g in enumerate_graphs(n):
            if is_ancestral(g):
                assert is_simple(g)


def test_topological_order_chain(iv_graph):
    order = topological_order(iv_graph)
    assert order.index(1) < order.index(2) < order.index(3)


def test_topological_order_rejects_cycle():
    g = MixedGraph(m=3, directed={(1, 2), (2, 3), (3, 1)})
    assert find_directed_cycle(g) is not None
    with pytest.raises(CyclicDirectedPartError) as exc:
        topological_order(g)
    assert set(exc.value.cycle) == {1, 2, 3}


def test_relabel_topologically():
    g = MixedGraph(m=3, directed={(3, 1), (1, 2)}, bidirected={(2, 3)})
    topo, mapping = relabel_topologically(g)
    assert all(i < j for i, j in topo.directed)
    assert relabel(g, mapping).directed == topo.directed


def test_relabel_topologically_returns_a_topological_graph_itself():
    g = MixedGraph(m=4, directed={(1, 3), (2, 3), (3, 4)}, bidirected={(1, 4)}, names="abcd")
    topo, mapping = relabel_topologically(g)
    assert topo is g
    assert mapping == {1: 1, 2: 2, 3: 3, 4: 4}
    # on every upper-triangular directed part the tie-broken order is 1..m
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for mask in range(1 << len(pairs)):
        h = MixedGraph(m=4, directed={e for k, e in enumerate(pairs) if mask >> k & 1})
        assert topological_order(h) == (1, 2, 3, 4)
        assert relabel_topologically(h)[0] is h


def test_relabel_topologically_moves_names_with_their_nodes():
    g = MixedGraph(m=3, directed={(3, 1), (1, 2)}, bidirected={(2, 3)}, names=("x", "y", "z"))
    topo, mapping = relabel_topologically(g)
    assert topo is not g
    assert mapping == {3: 1, 1: 2, 2: 3}
    assert topo.directed == frozenset({(1, 2), (2, 3)})
    assert topo.bidirected == frozenset({(1, 3)})
    assert topo.names == ("z", "x", "y")
    for old, new in mapping.items():
        assert topo.name_of(new) == g.name_of(old)


def test_bidirected_connected():
    g = MixedGraph(m=4, bidirected={(1, 2), (3, 4)})
    assert bidirected_connected(g, [1, 2])
    assert not bidirected_connected(g, [1, 2, 3])
    assert bidirected_connected(g, [3, 4])


def test_converging_arborescence(iv_graph):
    assert has_converging_arborescence(iv_graph, [2, 3], 3)
    assert not has_converging_arborescence(iv_graph, [1, 2, 3], 1)
    # the subset must carry the connecting edges itself
    assert not has_converging_arborescence(iv_graph, [1, 3], 3)


def test_parse_graph_text():
    g = parse_graph("# comment\n1 -> 2\n2 <-> 3\n\n3 -> 2\n")
    assert g.m == 3
    assert g.directed == frozenset({(1, 2), (3, 2)})
    assert g.bidirected == frozenset({(2, 3)})


def test_parse_graph_named_nodes():
    g = parse_graph("x -> y\ny <-> z\n")
    assert g.m == 3
    assert sorted(g.names) == ["x", "y", "z"]


def test_parse_graph_bad_line():
    with pytest.raises(GraphParseError) as exc:
        parse_graph("1 -> 2\n2 => 3\n")
    assert exc.value.line == 2


def test_text_roundtrip(chain_bow_graph):
    text = graph_to_text(chain_bow_graph)
    back = parse_graph(text)
    assert back.directed == chain_bow_graph.directed
    assert back.bidirected == chain_bow_graph.bidirected


def test_parse_graph_json_rejects_malformed_structure():
    for data in (
        {"nodes": ["a", "b"], "directed": [["a"]]},
        {"nodes": ["a", "b"], "bidirected": [["a", "b", "a"]]},
        {"nodes": 5},
        {"nodes": ["a"], "directed": 7},
    ):
        with pytest.raises(GraphParseError):
            parse_graph_json(data)


def test_json_roundtrip(spiked_chain_graph):
    data = graph_to_json(spiked_chain_graph)
    back = parse_graph_json(data)
    assert back.directed == spiked_chain_graph.directed
    assert back.bidirected == spiked_chain_graph.bidirected


@st.composite
def mixed_graphs(draw, max_m=6):
    m = draw(st.integers(2, max_m))
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    directed = frozenset(
        p for p in pairs if draw(st.booleans())
    )
    bidirected = frozenset(p for p in pairs if draw(st.booleans()))
    return MixedGraph(m=m, directed=directed, bidirected=bidirected)


@settings(max_examples=60, deadline=None)
@given(mixed_graphs())
def test_topological_order_is_valid(g):
    order = topological_order(g)
    position = {v: k for k, v in enumerate(order)}
    for i, j in g.directed:
        assert position[i] < position[j]


@settings(max_examples=60, deadline=None)
@given(mixed_graphs(), st.randoms(use_true_random=False))
def test_relabel_preserves_structure(g, rnd):
    perm = list(range(1, g.m + 1))
    rnd.shuffle(perm)
    mapping = {i + 1: perm[i] for i in range(g.m)}
    h = relabel(g, mapping)
    assert len(h.directed) == len(g.directed)
    assert len(h.bidirected) == len(g.bidirected)
    assert is_simple(h) == is_simple(g)
    assert is_ancestral(h) == is_ancestral(g)


@st.composite
def any_mixed_graphs(draw, max_m=6, acyclic=False):
    """Mixed graphs with arbitrary directed edges, directed cycles included.

    With ``acyclic`` every directed edge goes from a lower to a higher label.
    """
    m = draw(st.integers(1, max_m))
    nodes = range(1, m + 1)
    directed = frozenset(
        (i, j)
        for i in nodes
        for j in nodes
        if (i < j if acyclic else i != j) and draw(st.booleans())
    )
    bidirected = frozenset(
        (i, j) for i in nodes for j in nodes if i < j and draw(st.booleans())
    )
    return MixedGraph(m=m, directed=directed, bidirected=bidirected)


def _scan_reach(steps, start, within=None):
    """Nodes reachable from ``start`` along the pairs (from, to) in ``steps``,
    by repeated scans of the pairs, entering only nodes of ``within``."""
    seen, frontier = {start}, {start}
    while frontier:
        frontier = {
            k for j, k in steps if j in frontier and (within is None or k in within)
        } - seen
        seen |= frontier
    return seen


def _sorted_frozenset_walk(step, start, within=None):
    """Breadth-first walk along ``step(node)`` (a frozenset), as ``graphs._bfs``
    walked before adjacency was stored as bitmasks: FIFO, ascending neighbours."""
    pred = {start: None}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for w in sorted(step(v)):
            if w not in pred and (within is None or w in within):
                pred[w] = v
                queue.append(w)
    return pred


def _mask(nodes):
    return sum(1 << v for v in set(nodes))


@settings(max_examples=80, deadline=None)
@given(any_mixed_graphs(max_m=12))
def test_adjacency_index_matches_edge_scan(g):
    for i in g.nodes:
        assert g.parents(i) == frozenset(j for j, k in g.directed if k == i)
        assert g.children(i) == frozenset(k for j, k in g.directed if j == i)
        assert g.siblings(i) == frozenset(
            (a if b == i else b) for a, b in g.bidirected if i in (a, b)
        )
        if i < g.m:
            # the inversion steps read P(i) and S(i) off the same masks
            p, s = _step_indices(g._parents, g._siblings, i)
            assert p == sorted(j - 1 for j, k in g.directed if k == i + 1)
            assert s == sorted(j - 1 for j, k in g.bidirected if k == i + 1)


@settings(max_examples=80, deadline=None)
@given(any_mixed_graphs(max_m=12), st.data())
def test_bfs_matches_the_sorted_frozenset_walk(g, data):
    for step, adj in (
        (g.parents, g._parents),
        (g.children, g._children),
        (g.siblings, g._siblings),
    ):
        start = data.draw(st.sampled_from(g.nodes))
        within = data.draw(st.one_of(st.none(), st.sets(st.sampled_from(g.nodes))))
        expected = _sorted_frozenset_walk(step, start, within)
        got = _bfs(adj, start) if within is None else _bfs(adj, start, _mask(within))
        assert list(got.items()) == list(expected.items())


@settings(max_examples=80, deadline=None)
@given(any_mixed_graphs(max_m=12), st.data())
def test_closure_queries_match_edge_scans(g, data):
    reversed_directed = {(j, i) for i, j in g.directed}
    undirected = g.bidirected | {(j, i) for i, j in g.bidirected}
    assert is_simple(g) == all(
        (i, j) not in g.bidirected and (j, i) not in g.bidirected and (j, i) not in g.directed
        for i, j in g.directed
    )
    if find_directed_cycle(g) is None:
        assert is_ancestral(g) == all(
            j not in _scan_reach(g.directed, i) and i not in _scan_reach(g.directed, j)
            for i, j in g.bidirected
        )
    else:
        with pytest.raises(CyclicDirectedPartError):
            is_ancestral(g)
    subset = data.draw(st.sets(st.sampled_from(g.nodes), min_size=1))
    start = min(subset)
    assert bidirected_connected(g, subset) == (_scan_reach(undirected, start, subset) == subset)
    if len(subset) >= 2:
        sink = data.draw(st.sampled_from(sorted(subset)))
        assert has_converging_arborescence(g, subset, sink) == (
            _scan_reach(reversed_directed, sink, subset) == subset
        )


def _scan_with_public_queries(g):
    """``find_violating_set_exhaustive`` through the public subset queries, as it once ran."""
    for size in range(g.m, 1, -1):
        for subset in combinations(g.nodes, size):
            if bidirected_connected(g, subset):
                for y in subset:
                    if has_converging_arborescence(g, subset, y):
                        return subset, y
    return None


@settings(max_examples=150, deadline=None)
@given(any_mixed_graphs(max_m=7, acyclic=True))
def test_fixpoint_and_exhaustive_scan_agree_on_random_acyclic_graphs(g):
    hit = find_violating_set(g)
    exhaustive = find_violating_set_exhaustive(g)
    assert exhaustive == _scan_with_public_queries(g)
    assert (hit is None) == (exhaustive is None)
    if hit is not None:
        a, y = hit
        assert bidirected_connected(g, a)
        assert has_converging_arborescence(g, a, y)


def test_nodes_outside_the_graph(iv_graph):
    for i in (-1, 0, 4):
        assert iv_graph.parents(i) == iv_graph.children(i) == iv_graph.siblings(i) == frozenset()
    with pytest.raises(EmptySubsetError):
        bidirected_connected(iv_graph, [2, 4])
    with pytest.raises(EmptySubsetError):
        has_converging_arborescence(iv_graph, [0, 3], 3)
    with pytest.raises(EmptySubsetError):
        has_converging_arborescence(iv_graph, [2, 3], 4)


@settings(max_examples=120, deadline=None)
@given(any_mixed_graphs())
def test_cyclic_verdict_names_the_searched_cycle(g):
    cycle = find_directed_cycle(g)
    verdict = check_global_identifiability(g)
    assert verdict.acyclic == (cycle is None)
    if cycle is None:
        require_acyclic(g)
        return
    with pytest.raises(CyclicDirectedPartError) as exc:
        require_acyclic(g)
    assert exc.value.cycle == cycle
    assert verdict.violating_set == tuple(sorted(cycle))
    assert verdict.sink is None
