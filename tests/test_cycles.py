"""Directed-cycle fibers: closed forms against brute-force elimination."""

import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
import sympy as sp

from semident import linalg
from semident.cycles import (
    CycleFiber,
    CycleParams,
    _minors,
    cycle_fiber,
    cycle_graph,
    det_K_minus_i,
    kappa_of,
    lift_to_phi_fiber,
)
from semident.errors import InvalidCycleParamsError, SemidentError


def _random_params(rng, m, backend="rational", allow_product_one_retry=True):
    while True:
        if backend == "rational":
            lam = tuple(Fraction(rng.randint(-16, 16), 8) for _ in range(m))
            delta = tuple(Fraction(rng.randint(1, 32), 8) for _ in range(m))
        else:
            lam = tuple(rng.uniform(-2, 2) for _ in range(m))
            delta = tuple(rng.uniform(0.25, 4.0) for _ in range(m))
        if prod(lam) != 1:
            return CycleParams(m, lam, delta)


def test_param_validation():
    with pytest.raises(SemidentError):
        CycleParams(2, (1, 1), (1, 1))
    with pytest.raises(SemidentError):
        CycleParams(3, (1, 1), (1, 1, 1))
    with pytest.raises(SemidentError):
        CycleParams(3, (1, 1, 1), (1, -1, 1))
    with pytest.raises(InvalidCycleParamsError):
        CycleParams(3, (Fraction(1), Fraction(2), Fraction(1, 2)), (1, 1, 1))


def test_cycle_graph_shape():
    g = cycle_graph(4)
    assert g.directed == frozenset({(1, 2), (2, 3), (3, 4), (4, 1)})
    assert not g.bidirected


def test_kappa_tridiagonal_with_corner():
    p = CycleParams(3, (Fraction(2), Fraction(3), Fraction(1, 2)), (Fraction(1),) * 3)
    k = kappa_of(p)
    assert k[0, 0] == 1 + 4  # delta_1 + delta_2 lam_1^2
    assert k[0, 1] == -2
    assert k[2, 0] == -Fraction(1, 2)
    a = np.array([[float(k[i, j]) for j in range(3)] for i in range(3)])
    assert np.allclose(a, a.T)


def test_det_closed_form_matches_minor():
    rng = random.Random(31)
    for _ in range(50):
        m = rng.randint(3, 7)
        p = _random_params(rng, m)
        k = kappa_of(p)
        i = rng.randint(1, m)
        rows = [r for r in range(m) if r != i - 1]
        minor = k[np.ix_(rows, rows)]
        expected = _exact_det(minor)
        assert det_K_minus_i(p, i) == expected


def test_recurrence_minors_match_closed_form():
    one = Fraction(1)
    cases = [
        CycleParams(3, (Fraction(2), Fraction(3), Fraction(1, 2)), (one, Fraction(2), one)),
        CycleParams(3, (Fraction(-2), Fraction(1, 3), Fraction(5, 7)), (Fraction(1, 3), one, Fraction(9, 4))),
        # prod(lambda) = -1: the recurrence's inhomogeneous term vanishes
        CycleParams(4, (one, -one, one, one), (Fraction(2), one, one, Fraction(3))),
        CycleParams(5, (Fraction(-1, 2), Fraction(2), -one, -one, one), (Fraction(1, 5),) * 5),
        # a zero coefficient: no division by lambda anywhere
        CycleParams(4, (Fraction(0), Fraction(3), Fraction(-1, 4), one), (one, Fraction(7), one, one)),
    ]
    rng = random.Random(57)
    cases += [_random_params(rng, rng.randint(3, 12)) for _ in range(30)]
    for p in cases:
        assert _minors(p) == [det_K_minus_i(p, i) for i in range(1, p.m + 1)]


def test_rational_fiber_at_m96_passes_its_exact_check():
    rng = random.Random(96)
    m = 96
    # |lambda_i| > 1 everywhere, so |prod lambda| > 1 and a second point exists
    lam = tuple(Fraction(rng.choice((-1, 1)) * rng.randint(9, 16), 8) for _ in range(m))
    delta = tuple(Fraction(rng.randint(1, 32), 8) for _ in range(m))
    p0 = CycleParams(m, lam, delta)
    fiber = cycle_fiber(p0)  # raises unless kappa agrees exactly at the second point
    assert fiber.cardinality == 2 and not fiber.degenerate
    assert fiber.points[1] != p0
    assert linalg.max_abs_diff(kappa_of(p0), kappa_of(fiber.points[1])) == 0


def _exact_det(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = Fraction(0)
    for j in range(n):
        if a[0, j] == 0:
            continue
        rows = list(range(1, n))
        cols = [c for c in range(n) if c != j]
        total += (-1) ** j * a[0, j] * _exact_det(a[np.ix_(rows, cols)])
    return total


def test_fiber_two_points_exact():
    p0 = CycleParams(
        3,
        (Fraction(2), Fraction(3), Fraction(1, 2)),
        (Fraction(1), Fraction(1), Fraction(1)),
    )
    fiber = cycle_fiber(p0)
    assert fiber.cardinality == 2
    assert not fiber.degenerate
    p1 = fiber.points[1]
    assert linalg.max_abs_diff(kappa_of(p0), kappa_of(p1)) == 0
    # the companion point is a genuinely different parameter vector
    assert p1.lam != p0.lam


def test_fiber_matches_symbolic_elimination_m3():
    # solve the defining equations of the fiber directly and compare
    p0 = CycleParams(
        3,
        (Fraction(2), Fraction(3), Fraction(1, 2)),
        (Fraction(1), Fraction(2), Fraction(1)),
    )
    k0 = kappa_of(p0)
    l1, l2, l3, d1, d2, d3 = sp.symbols("l1 l2 l3 d1 d2 d3")
    lam = (l1, l2, l3)
    delta = (d1, d2, d3)
    eqs = []
    for i in range(3):
        j = (i + 1) % 3
        eqs.append(sp.Eq(delta[i] + delta[j] * lam[i] ** 2, sp.Rational(k0[i, i])))
        eqs.append(sp.Eq(-delta[j] * lam[i], sp.Rational(k0[i, j])))
    solutions = sp.solve(eqs, [l1, l2, l3, d1, d2, d3], dict=True)
    real = []
    for s in solutions:
        vals = [s[v] for v in (l1, l2, l3, d1, d2, d3)]
        if all(v.is_real for v in vals) and all(s[d] > 0 for d in (d1, d2, d3)):
            real.append(tuple(Fraction(str(v)) for v in vals))
    fiber = cycle_fiber(p0)
    got = {tuple(p.lam) + tuple(p.delta) for p in fiber.points}
    assert got == set(real)


def test_degenerate_product_minus_one():
    p0 = CycleParams(
        4,
        (Fraction(1), Fraction(-1), Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(1), Fraction(1), Fraction(3)),
    )
    fiber = cycle_fiber(p0)
    assert fiber.degenerate
    assert fiber.cardinality == 1


def test_zero_coefficient_gives_singleton():
    p0 = CycleParams(
        3, (Fraction(0), Fraction(2), Fraction(3)), (Fraction(1),) * 3
    )
    fiber = cycle_fiber(p0)
    assert fiber.cardinality == 1


def test_float_backend_agreement():
    rng = random.Random(8)
    for _ in range(40):
        m = rng.randint(3, 8)
        p0 = _random_params(rng, m, backend="float")
        fiber = cycle_fiber(p0)
        k0 = kappa_of(p0)
        for p in fiber.points:
            assert linalg.max_abs_diff(k0, kappa_of(p)) <= 1e-10 * max(
                1.0, linalg.max_abs(k0)
            )


def test_rational_second_point_verified_exactly():
    rng = random.Random(123)
    for _ in range(40):
        m = rng.randint(3, 8)
        p0 = _random_params(rng, m)
        fiber = cycle_fiber(p0)
        for p in fiber.points:
            assert linalg.max_abs_diff(kappa_of(p0), kappa_of(p)) == 0


def test_lift_to_phi_fiber():
    g = cycle_graph(3)
    p0 = CycleParams(
        3, (Fraction(2), Fraction(3), Fraction(1, 2)), (Fraction(1),) * 3
    )
    pairs = lift_to_phi_fiber(g, cycle_fiber(p0))
    assert len(pairs) == 2
    from semident.params import phi

    sigmas = [phi(g, lam, omega) for lam, omega in pairs]
    assert linalg.max_abs_diff(sigmas[0], sigmas[1]) == 0
