"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line with its measured quantities so the log doubles
as a release report.
"""

import random
import time
from fractions import Fraction
from math import prod

import numpy as np

from semident import linalg
from semident.census import census_report, enumerate_graphs
from semident.criterion import (
    check_global_identifiability,
    find_violating_set,
    find_violating_set_exhaustive,
)
from semident.cycles import CycleParams, cycle_fiber, det_K_minus_i, kappa_of
from semident.graphs import MixedGraph, is_ancestral, relabel_topologically
from semident.inversion import fiber_trace, invert, rank_condition
from semident.params import path_inverse, phi, sample_parameters
from semident.witness import construct_witness


def _random_mixed(rng, m, p_dir=0.4, p_bi=0.3):
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return MixedGraph(
        m=m,
        directed=frozenset(p for p in pairs if rng.random() < p_dir),
        bidirected=frozenset(p for p in pairs if rng.random() < p_bi),
    )


def test_criterion_1_small_graph_census():
    """n=3: injective iff simple; n=4 simple-only: exactly 2 noninjective classes."""
    start = time.monotonic()
    r3 = census_report(3)
    assert not r3.disagreements
    assert r3.unlabeled_count(simple=True, identifiable=False) == 0
    assert r3.unlabeled_count(simple=False, identifiable=True) == 0
    r4 = census_report(4, simple_only=True)
    assert not r4.disagreements
    noninjective = r4.unlabeled_count(identifiable=False)
    assert noninjective == 2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS criterion 1: n=3 injective<=>simple, n=4 simple-only noninjective "
        f"classes = {noninjective}, runtime {elapsed:.1f}s < 60s"
    )


def test_criterion_2_fixpoint_equals_exhaustive_oracle():
    """Fixpoint criterion agrees with the 2^n subset scan on n<=5."""
    checked = 0
    for n in (2, 3, 4):
        for g in enumerate_graphs(n):
            topo, _ = relabel_topologically(g)
            assert (find_violating_set(topo) is None) == (
                find_violating_set_exhaustive(topo) is None
            ), (g.directed, g.bidirected)
            checked += 1
    rng = random.Random(55)
    pairs5 = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    for _ in range(10_000):
        g = MixedGraph(
            m=5,
            directed=frozenset(p for p in pairs5 if rng.random() < 0.5),
            bidirected=frozenset(p for p in pairs5 if rng.random() < 0.5),
        )
        assert (find_violating_set(g) is None) == (
            find_violating_set_exhaustive(g) is None
        ), (g.directed, g.bidirected)
        checked += 1
    print(f"PASS criterion 2: zero disagreements over {checked} graphs (n<=5)")


def test_criterion_3_roundtrip_inversion():
    """500 identifiable graphs m<=7: exact rational recovery, float <= 1e-8."""
    rng = random.Random(20260824)
    start = time.monotonic()
    worst = 0.0
    for _ in range(500):
        while True:
            g = _random_mixed(rng, rng.randint(2, 7))
            if check_global_identifiability(g).identifiable:
                break
        lam, omega = sample_parameters(g, rng.randint(0, 10**9), backend="rational")
        lam2, omega2 = invert(g, phi(g, lam, omega))
        assert linalg.max_abs_diff(lam, lam2) == 0
        assert linalg.max_abs_diff(omega, omega2) == 0
        lam_f, omega_f = linalg.as_float(lam), linalg.as_float(omega)
        lam3, omega3 = invert(g, phi(g, lam_f, omega_f))
        err = max(
            linalg.max_abs_diff(lam_f, lam3), linalg.max_abs_diff(omega_f, omega3)
        )
        assert err <= 1e-8
        worst = max(worst, err)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"PASS criterion 3: 500 exact rational round trips, worst float error "
        f"{worst:.3g} <= 1e-8, runtime {elapsed:.1f}s < 120s"
    )


def test_criterion_4_witness_validity():
    """Every noninjective acyclic graph on n<=4 admits a verified witness."""
    count = 0
    for n in (2, 3, 4):
        for g in enumerate_graphs(n):
            if check_global_identifiability(g).identifiable:
                continue
            pair = construct_witness(g, backend="rational")
            assert pair.residual == 0
            assert pair.separation >= Fraction(1, 1000)
            assert linalg.is_pd(pair.point_a[1])
            assert linalg.is_pd(pair.point_b[1])
            count += 1
    # float-backend spot checks at the stated tolerance
    rng = random.Random(2)
    noninjective4 = [
        g
        for g in enumerate_graphs(4)
        if not check_global_identifiability(g).identifiable
    ]
    for g in rng.sample(noninjective4, 25):
        pair = construct_witness(g, backend="float")
        assert pair.residual <= 1e-9
        assert pair.separation >= 1e-3
    print(f"PASS criterion 4: witnesses for all {count} noninjective graphs (n<=4)")


def test_criterion_5_chain_bow_reproduction(chain_bow_graph, chain_bow_point):
    """Deficient final step and a genuinely non-singleton fiber structure."""
    lam, omega = chain_bow_point
    failing = [
        i
        for i in range(1, 5)
        if not rank_condition(chain_bow_graph, lam, omega, i).passed
    ]
    assert failing == [4]
    sigma = phi(chain_bow_graph, lam, omega)
    desc = fiber_trace(chain_bow_graph, sigma)
    assert desc.kind == "family"
    assert desc.deficient_step == 4
    lo, hi = desc.family.interval
    sig_f = linalg.as_float(sigma)
    probes = np.linspace(max(lo, -2.0), min(hi, 2.0), 9)[1:-1]
    for t in probes:
        lam_t, omega_t = desc.family.evaluate(float(t))
        assert linalg.is_pd(omega_t)
        assert linalg.max_abs_diff(phi(chain_bow_graph, lam_t, omega_t), sig_f) <= 1e-9
    print(
        "PASS criterion 5: rank condition fails at step 4, fiber is a "
        "one-parameter family through the printed point"
    )


def test_criterion_6_spiked_chain_reproduction(spiked_chain_graph, spiked_chain_point):
    """Step-3 failure with the 1x1 zero matrix; singleton fiber; family at omega15=0."""
    lam, omega = spiked_chain_point
    rec = rank_condition(spiked_chain_graph, lam, omega, 3)
    assert rec.matrix.shape == (1, 1) and rec.matrix[0, 0] == 0
    assert not rec.passed
    desc = fiber_trace(spiked_chain_graph, phi(spiked_chain_graph, lam, omega))
    assert desc.kind == "singleton" and desc.deficient_step == 3
    lam_r, omega_r = desc.points[0]
    assert linalg.max_abs_diff(lam_r, linalg.as_float(lam)) <= 1e-9
    assert linalg.max_abs_diff(omega_r, linalg.as_float(omega)) <= 1e-9

    omega15 = omega.copy()
    omega15[0, 4] = Fraction(0)
    omega15[4, 0] = Fraction(0)
    sigma15 = phi(spiked_chain_graph, lam, omega15)
    desc15 = fiber_trace(spiked_chain_graph, sigma15)
    assert desc15.kind == "family"
    lo, hi = desc15.family.interval
    sig_f = linalg.as_float(sigma15)
    for t in np.linspace(max(lo, -1.0), min(hi, 1.0), 9)[1:-1]:
        lam_t, omega_t = desc15.family.evaluate(float(t))
        assert linalg.is_pd(omega_t)
        assert (
            linalg.max_abs_diff(phi(spiked_chain_graph, lam_t, omega_t), sig_f) <= 1e-9
        )
    print(
        "PASS criterion 6: step 3 fails with [[0]], fiber singleton at the "
        "printed point, one-parameter family once omega_15 = 0"
    )


def test_criterion_7_cycle_fibers():
    """200 random cycles m in 3..8: fiber points agree under kappa to 1e-10."""
    rng = random.Random(777)
    checked = degenerate_count = 0
    for _ in range(200):
        m = rng.randint(3, 8)
        while True:
            lam = tuple(rng.uniform(-2, 2) for _ in range(m))
            if prod(lam) != 1:
                break
        delta = tuple(rng.uniform(0.25, 4.0) for _ in range(m))
        p0 = CycleParams(m, lam, delta)
        k0 = kappa_of(p0)
        scale = max(1.0, linalg.max_abs(k0))
        fiber = cycle_fiber(p0)
        for p in fiber.points:
            assert linalg.max_abs_diff(k0, kappa_of(p)) <= 1e-10 * scale
        # closed-form deleted-minor determinant against the direct minor
        kf = np.array([[float(k0[i, j]) for j in range(m)] for i in range(m)])
        for i in range(1, m + 1):
            rows = [r for r in range(m) if r != i - 1]
            direct = np.linalg.det(kf[np.ix_(rows, rows)])
            assert abs(det_K_minus_i(p0, i) - direct) <= 1e-10 * max(1.0, abs(direct))
        checked += 1
    # the degenerate product -1 case must collapse to a singleton
    for m in (3, 4, 5, 6, 7, 8):
        lam = [Fraction(1)] * m
        lam[0] = Fraction(-1)
        p0 = CycleParams(m, tuple(lam), tuple(Fraction(k + 1) for k in range(m)))
        fiber = cycle_fiber(p0)
        assert fiber.degenerate and fiber.cardinality == 1
        degenerate_count += 1
    print(
        f"PASS criterion 7: {checked} random cycles verified to 1e-10, "
        f"{degenerate_count} degenerate product -1 singletons"
    )


def _descendants(g, i):
    """The nodes reachable from i by directed paths, i excluded."""
    seen, todo = set(), [i]
    while todo:
        new = g.children(todo.pop()) - seen
        seen |= new
        todo += new
    return seen


def test_criterion_8_ancestral_sufficiency():
    """200 random ancestral graphs m<=8: identifiable, rank conditions hold."""
    rng = random.Random(4242)
    for _ in range(200):
        m = rng.randint(2, 8)
        pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
        directed = frozenset(p for p in pairs if rng.random() < 0.35)
        g_dir = MixedGraph(m=m, directed=directed)
        allowed = [
            (i, j)
            for i, j in pairs
            if j not in _descendants(g_dir, i) and i not in _descendants(g_dir, j)
        ]
        bidirected = frozenset(p for p in allowed if rng.random() < 0.4)
        g = MixedGraph(m=m, directed=directed, bidirected=bidirected)
        assert is_ancestral(g)
        assert check_global_identifiability(g).identifiable
        topo, _ = relabel_topologically(g)
        for k in range(20):
            lam, omega = sample_parameters(topo, rng.randint(0, 10**9))
            for i in range(1, m):
                assert rank_condition(topo, lam, omega, i).passed
    print(
        "PASS criterion 8: 200 ancestral graphs identifiable with rank "
        "conditions holding at 20 random points each"
    )


def test_criterion_9_path_sum_oracle():
    """path_inverse equals numeric inversion of I - Lambda to 1e-12."""
    rng = random.Random(31415)
    worst = 0.0
    for _ in range(200):
        g = _random_mixed(rng, rng.randint(2, 8), p_dir=0.5, p_bi=0.0)
        lam, _ = sample_parameters(g, rng.randint(0, 10**9))
        direct = np.linalg.inv(np.eye(g.m) - lam)
        err = float(np.max(np.abs(path_inverse(g, lam) - direct)))
        assert err <= 1e-12
        worst = max(worst, err)
    print(f"PASS criterion 9: 200 path-sum inverses, worst error {worst:.3g} <= 1e-12")
