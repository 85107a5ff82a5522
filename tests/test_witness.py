"""Witness pairs: arborescence Lambda, Laplacian Omega, full construction."""

from fractions import Fraction

import pytest

import semident.criterion
from semident import linalg
from semident.census import enumerate_graphs
from semident.criterion import check_global_identifiability
from semident.errors import (
    NotArborescenceError,
    NotSpanningTreeError,
    SemidentError,
    ZeroCoordinateError,
)
from semident.graphs import MixedGraph
from semident.params import phi
from semident.witness import (
    build_arborescence_lambda,
    build_laplacian_omega,
    construct_witness,
)


def test_arborescence_lambda_ratios():
    arb = MixedGraph(m=3, directed={(1, 2), (2, 3)})
    x = [Fraction(2), Fraction(4)]
    lam = build_arborescence_lambda(arb, x)
    assert lam[0, 1] == Fraction(1, 2)  # x_1 / x_2
    assert lam[1, 2] == 0  # edges into the sink stay zero
    # (I - Lambda)^{-1} applied to x over the sink's parents reproduces x
    ginv = linalg.mat_inv(linalg.identity(2, "rational") - lam[:2, :2])
    assert list(ginv[:, 1] * x[1]) == x


def test_arborescence_lambda_rejects_bad_shapes():
    with pytest.raises(ZeroCoordinateError):
        build_arborescence_lambda(
            MixedGraph(m=3, directed={(1, 3), (2, 3)}), [Fraction(0), Fraction(1)]
        )
    with pytest.raises(NotArborescenceError):
        # node 1 has two outgoing edges
        build_arborescence_lambda(
            MixedGraph(m=3, directed={(1, 2), (1, 3), (2, 3)}),
            [Fraction(1), Fraction(1)],
        )
    with pytest.raises(NotArborescenceError):
        # node 2 has no outgoing edge
        build_arborescence_lambda(
            MixedGraph(m=3, directed={(1, 3)}), [Fraction(1), Fraction(1)]
        )
    with pytest.raises(NotArborescenceError):
        # nodes 1 and 2 point at each other and never reach the sink
        build_arborescence_lambda(
            MixedGraph(m=3, directed={(1, 2), (2, 1)}), [Fraction(1), Fraction(1)]
        )


def test_laplacian_omega_row_sums():
    gp = MixedGraph(m=4, directed={(1, 2), (2, 4), (3, 4)}, bidirected={(1, 2), (2, 3), (3, 4)})
    omega = build_laplacian_omega(gp)
    assert linalg.is_pd(omega)
    # rows over the non-siblings of the sink annihilate all-ones over 1..3
    s = {v for v in range(1, 4) if gp.has_bidirected(v, 4)}
    for i in range(1, 4):
        if i not in s:
            assert sum(omega[i - 1, j] for j in range(3)) == 0


def test_laplacian_omega_requires_spanning_tree():
    with pytest.raises(NotSpanningTreeError):
        build_laplacian_omega(MixedGraph(m=3, bidirected={(1, 2)}))


def test_witness_two_node_bow():
    g = MixedGraph(m=2, directed={(1, 2)}, bidirected={(1, 2)})
    pair = construct_witness(g, backend="rational")
    assert pair.residual == 0
    assert pair.separation >= Fraction(1, 1000)
    lam_a, om_a = pair.point_a
    lam_b, om_b = pair.point_b
    assert (lam_a[0, 1], lam_b[0, 1]) == (0, 1)
    assert linalg.max_abs_diff(phi(g, lam_a, om_a), phi(g, lam_b, om_b)) == 0


def test_witness_instrumental_variable(iv_graph):
    pair = construct_witness(iv_graph, backend="rational")
    assert pair.residual == 0
    assert pair.separation > 0
    for lam, omega in (pair.point_a, pair.point_b):
        assert linalg.is_pd(omega)
        assert linalg.max_abs_diff(phi(iv_graph, lam, omega), pair.sigma) == 0
    # the perturbation lives inside the violating set {2, 3}
    assert pair.point_a[0][0, 1] == pair.point_b[0][0, 1]


def test_witness_full_five_node(chain_bow_graph):
    pair = construct_witness(chain_bow_graph, backend="rational")
    assert pair.residual == 0
    assert pair.separation >= Fraction(1, 1000)


def test_witness_float_backend(iv_graph):
    pair = construct_witness(iv_graph, backend="float")
    assert pair.residual <= 1e-9
    assert pair.separation >= 1e-3


def test_witness_refused_for_identifiable_graph():
    # cyclic graphs are refused too; both refusals keep their exact type and message
    refusals = (
        (MixedGraph(m=2, directed={(1, 2)}), "graph is identifiable; no witness exists"),
        (
            MixedGraph(m=3, directed={(1, 2), (2, 3), (3, 1)}, bidirected={(1, 2)}),
            "cyclic graph: use the cycle-fiber machinery instead",
        ),
    )
    for g, message in refusals:
        for backend in linalg.BACKENDS:
            with pytest.raises(SemidentError) as exc:
                construct_witness(g, backend=backend)
            assert type(exc.value) is SemidentError
            assert str(exc.value) == message


def test_witness_on_all_noninjective_three_node_graphs():
    for g in enumerate_graphs(3):
        verdict = check_global_identifiability(g)
        if verdict.identifiable:
            continue
        pair = construct_witness(g, backend="rational")
        assert pair.residual == 0
        assert pair.separation >= Fraction(1, 1000)
        assert linalg.is_pd(pair.point_a[1])
        assert linalg.is_pd(pair.point_b[1])


def test_witness_diamond_tie_break():
    # node 1 reaches the sink through 2 and through 3; BFS trees take the
    # lower-labelled neighbour first, which pins lambda_12 = 1 and 1 <-> 2
    g = MixedGraph(
        m=4,
        directed={(1, 2), (1, 3), (2, 4), (3, 4)},
        bidirected={(1, 2), (1, 3), (2, 4), (3, 4)},
    )
    lam, omega = construct_witness(g, backend="rational").point_a
    expected_lam = linalg.zeros(4, 4, "rational")
    expected_lam[0, 1] = Fraction(1)
    expected_omega = linalg.to_array(
        [[1, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "rational"
    )
    assert linalg.max_abs_diff(lam, expected_lam) == 0
    assert linalg.max_abs_diff(omega, expected_omega) == 0


def test_witness_runs_fixpoint_once(monkeypatch, iv_graph, chain_bow_graph):
    calls = []
    search = semident.criterion.find_violating_set

    def counting(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(semident.criterion, "find_violating_set", counting)
    for g in (iv_graph, chain_bow_graph):
        calls.clear()
        construct_witness(g, backend="rational")
        assert len(calls) == 1
