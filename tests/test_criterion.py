"""Graphical criterion: fixpoint search, exhaustive oracle, invariances."""

import random

import numpy as np
import pytest

import semident.graphs
from semident import linalg
from semident.census import enumerate_graphs, injectivity_oracle
from semident.criterion import (
    check_global_identifiability,
    find_violating_set,
    find_violating_set_exhaustive,
)
from semident.errors import CyclicDirectedPartError
from semident.graphs import (
    MixedGraph,
    find_directed_cycle,
    is_simple,
    relabel,
    relabel_topologically,
)
from semident.inversion import rank_condition
from semident.witness import construct_witness


def all_subgraphs(g: MixedGraph):
    """Yield every (not necessarily induced) subgraph on the same node set."""
    directed = sorted(g.directed)
    bidirected = sorted(g.bidirected)
    for dmask in range(1 << len(directed)):
        dsub = frozenset(e for k, e in enumerate(directed) if dmask >> k & 1)
        for bmask in range(1 << len(bidirected)):
            bsub = frozenset(e for k, e in enumerate(bidirected) if bmask >> k & 1)
            yield MixedGraph(m=g.m, directed=dsub, bidirected=bsub, names=g.names)


def is_generically_identifiable_simple(g: MixedGraph) -> bool:
    """Sufficient condition for generic identifiability: simple and acyclic.

    Additionally confirms, at Lambda = 0 and Omega = I, that every stepwise
    rank condition holds (the identity covariance always has a singleton
    fiber for simple acyclic graphs).
    """
    if find_directed_cycle(g) is not None or not is_simple(g):
        return False
    topo, _ = relabel_topologically(g)
    lam = linalg.zeros(topo.m, topo.m, "float")
    omega = np.eye(topo.m)
    for i in range(1, topo.m):
        rec = rank_condition(topo, lam, omega, i)
        if not rec.passed:
            return False
    return True


def test_instrumental_variable(iv_graph):
    verdict = check_global_identifiability(iv_graph)
    assert not verdict.identifiable
    assert verdict.violating_set == (2, 3)
    assert verdict.sink == 3
    assert verdict.acyclic and not verdict.simple


def test_chain_bow_graph(chain_bow_graph):
    verdict = check_global_identifiability(chain_bow_graph)
    assert not verdict.identifiable
    assert verdict.violating_set == (1, 2, 3, 4, 5)
    assert verdict.sink == 5
    assert verdict.simple and not verdict.ancestral


def test_spiked_chain_graph(spiked_chain_graph):
    verdict = check_global_identifiability(spiked_chain_graph)
    assert not verdict.identifiable
    assert verdict.violating_set == (1, 2, 3, 4)
    assert verdict.sink == 4


def test_cyclic_graph_never_identifiable():
    g = MixedGraph(m=4, directed={(1, 2), (2, 3), (3, 1)})
    verdict = check_global_identifiability(g)
    assert not verdict.identifiable
    assert not verdict.acyclic
    assert verdict.sink is None
    assert set(verdict.violating_set) == {1, 2, 3}


def test_empty_and_tiny_graphs():
    assert check_global_identifiability(MixedGraph(m=1)).identifiable
    assert check_global_identifiability(MixedGraph(m=3)).identifiable
    # a lone bidirected edge is fine; adding the parallel directed edge is not
    assert check_global_identifiability(
        MixedGraph(m=2, bidirected={(1, 2)})
    ).identifiable
    assert not check_global_identifiability(
        MixedGraph(m=2, directed={(1, 2)}, bidirected={(1, 2)})
    ).identifiable


def test_fixpoint_requires_acyclic():
    g = MixedGraph(m=2, directed={(1, 2), (2, 1)})
    with pytest.raises(CyclicDirectedPartError):
        find_violating_set(g)


def test_topological_labels_skip_the_cycle_search(count_calls):
    # an edge scan settles acyclicity when every edge points to a higher label
    calls = count_calls(semident.graphs, "find_directed_cycle")
    witnesses = 0
    for g in enumerate_graphs(3):
        if not check_global_identifiability(g).identifiable:
            construct_witness(g, backend="rational")
            witnesses += 1
        injectivity_oracle(g)
    assert witnesses > 0
    assert calls == []


def test_fixpoint_matches_exhaustive_small_census():
    for n in (2, 3, 4):
        for g in enumerate_graphs(n):
            topo, _ = relabel_topologically(g)
            fix = find_violating_set(topo)
            exh = find_violating_set_exhaustive(topo)
            assert (fix is None) == (exh is None), (g.directed, g.bidirected)


def test_violating_set_certifies_itself():
    from semident.graphs import bidirected_connected, has_converging_arborescence

    rng = random.Random(3)
    graphs = [g for g in enumerate_graphs(4)]
    rng.shuffle(graphs)
    for g in graphs[:400]:
        topo, _ = relabel_topologically(g)
        hit = find_violating_set(topo)
        if hit is not None:
            a, y = hit
            assert bidirected_connected(topo, a)
            assert has_converging_arborescence(topo, a, y)


def test_relabeling_invariance():
    rng = random.Random(9)
    for g in list(enumerate_graphs(4))[:300]:
        perm = list(range(1, 5))
        rng.shuffle(perm)
        h = relabel(g, {i + 1: perm[i] for i in range(4)})
        assert (
            check_global_identifiability(g).identifiable
            == check_global_identifiability(h).identifiable
        )


def test_subgraph_monotonicity():
    # an injective graph keeps injectivity on every subgraph
    for n in (2, 3):
        for g in enumerate_graphs(n):
            if not check_global_identifiability(g).identifiable:
                continue
            for h in all_subgraphs(g):
                assert check_global_identifiability(h).identifiable


def test_subgraph_monotonicity_n4_sample():
    rng = random.Random(17)
    injective = [
        g for g in enumerate_graphs(4) if check_global_identifiability(g).identifiable
    ]
    rng.shuffle(injective)
    for g in injective[:40]:
        for h in all_subgraphs(g):
            assert check_global_identifiability(h).identifiable


def test_generic_identifiability_simple(iv_graph, chain_bow_graph):
    assert not is_generically_identifiable_simple(iv_graph)  # not simple
    assert is_generically_identifiable_simple(chain_bow_graph)


def test_verdict_json(iv_graph):
    data = check_global_identifiability(iv_graph).to_json(iv_graph)
    assert data == {
        "identifiable": False,
        "violating_set": [2, 3],
        "sink": 3,
        "flags": {"simple": False, "ancestral": False, "acyclic": True},
    }
