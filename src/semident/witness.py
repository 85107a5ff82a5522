"""Explicit counterexamples to injectivity.

For a graph failing the identifiability criterion, build two distinct
parameter points with identical covariance: a converging arborescence fixes
Lambda so that the all-ones vector spans the critical column space, a
Laplacian-based Omega kills it from the left, and perturbing along the
resulting kernel direction of the final inversion step leaves the forward
image untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import criterion, linalg
from .errors import (
    CyclicDirectedPartError,
    EmptySubsetError,
    NotArborescenceError,
    NotSpanningTreeError,
    PDPerturbationFailedError,
    SemidentError,
    ZeroCoordinateError,
)
from .graphs import (
    MixedGraph,
    _bfs,
    _closure,
    _first_nodes,
    _members,
    _node_mask,
    bidirected_connected,
    relabel_topologically,
)
from .inversion import _omega_remainder, _step_indices
from .params import path_inverse, phi


@dataclass
class WitnessPair:
    """Two parameter points with equal forward image.

    ``separation`` is the max-norm distance between the points and
    ``residual`` the max-norm difference of their covariances (exactly zero
    on the rational backend).
    """

    point_a: tuple
    point_b: tuple
    sigma: np.ndarray
    separation: float
    residual: float


def build_arborescence_lambda(arb: MixedGraph, x) -> np.ndarray:
    """Lambda whose critical column space contains the given vector.

    ``arb`` must have a directed part that is an arborescence converging to
    its last node; ``x`` is an all-nonzero vector over the non-sink nodes.
    Each non-sink node i with unique outgoing edge i -> j (j below the sink)
    gets lambda_ij = x_i / x_j; edges into the sink stay zero. Then
    (I - Lambda)^{-1}_{[m], P(m)} x_{P(m)} = x holds exactly.
    """
    mm = arb.m
    n = mm - 1
    if len(x) != n:
        raise SemidentError(f"x must have length {n}")
    backend = "rational" if any(isinstance(v, Fraction) for v in x) else "float"
    for v in x:
        if v == 0:
            raise ZeroCoordinateError("x must have all-nonzero coordinates")
    if arb.children(mm) or any(len(arb.children(i)) != 1 for i in range(1, mm)):
        raise NotArborescenceError("every non-sink node needs exactly one outgoing edge")
    if _closure(arb._parents, mm) != _first_nodes(mm):
        raise NotArborescenceError("outgoing edges do not converge to the sink")
    lam = linalg.zeros(mm, mm, backend)
    for i, j in arb.directed:
        if j != mm:
            lam[i - 1, j - 1] = x[i - 1] / x[j - 1]
    return lam


def build_laplacian_omega(gp: MixedGraph) -> np.ndarray:
    """Omega in PD(B) whose rows off the sink's siblings annihilate all-ones.

    Requires the bidirected part of ``gp`` to be a spanning tree with the
    sink as the last node. Over R = non-siblings, the block is the Laplacian
    of the induced bidirected graph plus the indicator diagonal of nodes
    touching a sibling; the R x S block splits each required row sum of -1
    equally over the available sibling neighbors. The sibling-and-sink
    diagonal starts at dominance and doubles until a PD factorization
    succeeds. Exact rational arithmetic throughout.
    """
    mm = gp.m
    n = mm - 1
    tree = gp.bidirected
    if len(tree) != mm - 1 or not bidirected_connected(gp, gp.nodes):
        raise NotSpanningTreeError("bidirected part must be a spanning tree")
    s = sorted(gp.siblings(mm))
    r = [v for v in range(1, mm + 1 - 1) if v not in s]
    omega = linalg.zeros(mm, mm, "rational")
    # Laplacian of the induced bidirected graph on R
    for i in r:
        deg = sum(1 for j in r if j != i and gp.has_bidirected(i, j))
        omega[i - 1, i - 1] = Fraction(deg)
        for j in r:
            if j != i and gp.has_bidirected(i, j):
                omega[i - 1, j - 1] = Fraction(-1)
    # indicator diagonal and the -1 row sums toward the siblings
    for i in r:
        s_neighbors = [j for j in s if gp.has_bidirected(i, j)]
        if s_neighbors:
            omega[i - 1, i - 1] += 1
            share = Fraction(-1, len(s_neighbors))
            for j in s_neighbors:
                omega[i - 1, j - 1] = share
                omega[j - 1, i - 1] = share
    # dominance diagonal over siblings and sink, doubled until PD
    for i in s + [mm]:
        row_sum = sum(abs(omega[i - 1, j]) for j in range(mm) if j != i - 1)
        omega[i - 1, i - 1] = row_sum + 1
    while not linalg.is_pd(omega):
        for i in s + [mm]:
            omega[i - 1, i - 1] *= 2
    # rows over R annihilate the all-ones vector over the non-sink nodes
    for i in r:
        if sum(omega[i - 1, j] for j in range(n)) != 0:
            raise SemidentError(f"Laplacian row {i} does not sum to zero over the non-sink nodes")
    return omega


def construct_witness(g: MixedGraph, backend: str = "float") -> WitnessPair:
    """Build a verified pair of distinct points with equal covariance.

    Precondition: the graph is acyclic and fails the identifiability
    criterion. The fixpoint search supplies the violating set; see
    ``witness_from_set`` for the construction.
    """
    linalg.check_backend(backend)
    try:
        gt, to_topo = relabel_topologically(g)
    except CyclicDirectedPartError as exc:
        raise SemidentError("cyclic graph: use the cycle-fiber machinery instead") from exc
    hit = criterion.find_violating_set(gt)
    if hit is None:
        raise SemidentError("graph is identifiable; no witness exists")
    return witness_from_set(g, gt, to_topo, hit[0], backend)


def witness_from_set(
    g: MixedGraph, gt: MixedGraph, to_topo: dict, a: tuple, backend: str
) -> WitnessPair:
    """Witness pair of ``g`` built inside the violating set ``a``.

    ``gt`` is ``g`` relabeled by ``to_topo`` (old -> new) into topological
    labels, and ``a`` is a violating set of ``gt``: its bidirected part is
    connected and every node reaches its largest node by a directed path
    inside it. The construction works inside a skeleton of the induced
    subgraph (arborescence + bidirected spanning tree, ``_skeleton``),
    perturbs along the kernel of the final step system
    (``_skeleton_points``), and zero-pads back to the full graph
    (``_lifted_witness``).
    """
    skeleton, pos = _skeleton(gt, to_topo, a)
    return _lifted_witness(g, pos, _skeleton_points(skeleton, backend))


def _skeleton(gt: MixedGraph, to_topo: dict, a: tuple) -> tuple[MixedGraph, list[int]]:
    """The skeleton of the violating set ``a`` of ``gt``, and where its nodes sit in ``g``.

    The skeleton depends only on the subgraph that ``a`` induces, so it is
    memoized per induced subgraph (``_induced_skeleton``); ``pos`` is worked
    out per call. ``pos[k]`` is the 0-based index in ``g`` of skeleton node
    k + 1, the (k + 1)-th smallest node of ``a``.
    """
    mask = _node_mask(gt, a)
    if not mask:
        raise EmptySubsetError("induced subgraph of the empty set")
    subset = _members(mask)
    skeleton = _induced_skeleton(
        mask,
        tuple(gt._parents[v] & mask for v in subset),
        tuple(gt._siblings[v] & mask for v in subset),
    )
    to_orig = {new: old for old, new in to_topo.items()}
    return skeleton, [to_orig[v] - 1 for v in subset]


@lru_cache(maxsize=4096)
def _induced_skeleton(mask: int, parents: tuple, siblings: tuple) -> MixedGraph:
    """The skeleton of the subgraph induced on the nodes of ``mask``, labeled 1..|mask|.

    ``parents`` and ``siblings`` are the adjacency masks of those nodes, in
    ascending order, cut to ``mask``; ``_skeleton_trees`` walks them. Bounded,
    since ``witness_from_set`` serves graphs of any size; the census oracle
    keys its own memo by the skeleton's edges instead.
    """
    subset = _members(mask)
    _, directed, bidirected = _skeleton_trees(
        dict(zip(subset, parents)), dict(zip(subset, siblings)), mask
    )
    return MixedGraph(m=len(subset), directed=directed, bidirected=bidirected)


def _skeleton_trees(parents, siblings, mask: int) -> tuple[list, tuple, tuple]:
    """The BFS trees of the skeleton of the subgraph induced on ``mask``.

    ``parents`` and ``siblings`` map each node of ``mask`` (at least) to its
    adjacency mask. The skeleton holds BFS trees toward the set's sink: a
    shortest-path arborescence and a bidirected spanning tree. Every node of
    a violating set is an ancestor of its sink, so the sink is the largest
    node. Returns ``(subset, directed, bidirected)``: the nodes of ``mask`` in
    ascending order, and the trees' edges in local labels (node ``subset[k]``
    is k + 1), sorted, bidirected pairs as ``(min, max)``. Relabeling in
    order keeps the ascending neighbour order of ``_bfs``, so the local trees
    are those a walk of the relabeled subgraph gives.
    """
    subset = _members(mask)
    local = {v: k for k, v in enumerate(subset, 1)}
    sink = subset[-1]
    arb, tree = _bfs(parents, sink, mask), _bfs(siblings, sink, mask)
    del arb[sink], tree[sink]  # the roots, mapped to None
    directed = sorted([(local[v], local[w]) for v, w in arb.items()])
    bidirected = sorted(
        [(local[v], local[w]) if v < w else (local[w], local[v]) for v, w in tree.items()]
    )
    return subset, tuple(directed), tuple(bidirected)


def _skeleton_points(skeleton: MixedGraph, backend: str) -> tuple[np.ndarray, ...]:
    """(Lambda, Omega, Lambda_b, Omega_b): two points of the skeleton with equal covariance.

    A pure function of the skeleton's edges and the backend; the arrays are
    read-only, so callers may share them. Point a is the arborescence Lambda
    and Laplacian Omega. Point b moves it along the kernel of the final step
    system and takes omega_mm from the skeleton's covariance, halving the
    step until Omega_b is positive definite.
    """
    mm = skeleton.m
    n = mm - 1
    one = linalg.parse_entry(1, backend)
    lam = build_arborescence_lambda(skeleton, [one] * n)  # the ones set the backend
    omega = build_laplacian_omega(skeleton)  # exact
    if backend == "float":
        omega = linalg.as_float(omega)
    inv = path_inverse(skeleton, lam)
    sigma = linalg.congruence(inv, omega)

    # kernel direction of the final step system
    p, s = _step_indices(skeleton, n)
    alpha = linalg.to_array([1] * len(p), backend)
    beta = inv[:n, p] @ alpha
    d_omega = -(omega[:n, :n] @ beta)[s]

    t = one
    while True:
        lam_b = lam.copy()
        omega_b = omega.copy()
        for k, col in enumerate(p):
            lam_b[col, n] = lam[col, n] + t * alpha[k]
        for k, col in enumerate(s):
            omega_b[col, n] = omega[col, n] + t * d_omega[k]
            omega_b[n, col] = omega_b[col, n]
        omega_b[n, n] = _omega_remainder(sigma, inv, lam_b[:n, n], omega_b[:n, n], n)
        if linalg.is_pd(omega_b):
            break
        t = t / 2
        if float(t) < 1e-8:
            raise PDPerturbationFailedError("perturbation step size underflowed")
    points = (lam, omega, lam_b, omega_b)
    for a in points:
        a.flags.writeable = False
    return points


def _lifted_witness(g: MixedGraph, pos: list[int], points: tuple) -> WitnessPair:
    """The skeleton's two points lifted to ``g`` and checked there.

    Off the skeleton's nodes both points take zero Lambda and identity
    Omega. ``phi`` checks each lifted point's support and positive
    definiteness on ``g``; the residual and separation are taken on ``g``.
    The census oracle checks the same thing once per skeleton instead
    (``census._mask_witness``): the lifted covariance is the skeleton's
    embedded in an identity, so only the support on ``g`` is left per graph.
    """
    block = np.ix_(pos, pos)
    backend = linalg.backend_of(points[0])

    def lift(lam_s, omega_s):
        lam_full = linalg.zeros(g.m, g.m, backend)
        omega_full = linalg.identity(g.m, backend)
        lam_full[block] = lam_s
        omega_full[block] = omega_s
        return lam_full, omega_full

    point_a, point_b = lift(*points[:2]), lift(*points[2:])
    sigma_a = phi(g, *point_a)
    sigma_b = phi(g, *point_b)
    residual = linalg.max_abs_diff(sigma_a, sigma_b)
    separation = max(
        linalg.max_abs_diff(point_a[0], point_b[0]),
        linalg.max_abs_diff(point_a[1], point_b[1]),
    )
    return WitnessPair(point_a, point_b, sigma_a, separation, residual)
