"""Forward maps, support validation, sampling, and the path-sum oracle."""

import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semident import linalg
from semident.errors import (
    NotPositiveDefiniteError,
    SemidentError,
    SingularIminusLambdaError,
    SupportViolationError,
)
from semident.graphs import MixedGraph
from semident.params import (
    check_lambda_support,
    check_omega_support,
    i_minus_lambda_inv,
    kappa,
    matrix_from_json,
    matrix_to_json,
    path_inverse,
    phi,
    sample_parameters,
)


def _random_dag(m, rng, p=0.5):
    directed = frozenset(
        (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < p
    )
    bidirected = frozenset(
        (i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1) if rng.random() < p
    )
    return MixedGraph(m=m, directed=directed, bidirected=bidirected)


def test_support_checks(iv_graph):
    lam = np.zeros((3, 3))
    lam[0, 2] = 1.0  # 1 -> 3 is not an edge
    with pytest.raises(SupportViolationError):
        check_lambda_support(iv_graph, lam)
    omega = np.eye(3)
    omega[0, 1] = omega[1, 0] = 0.5  # 1 <-> 2 is not an edge
    with pytest.raises(SupportViolationError):
        check_omega_support(iv_graph, omega)
    omega = np.eye(3)
    omega[1, 2] = 0.5  # asymmetric
    with pytest.raises(SupportViolationError):
        check_omega_support(iv_graph, omega)


def test_omega_must_be_pd(iv_graph):
    omega = np.eye(3)
    omega[1, 2] = omega[2, 1] = 2.0
    with pytest.raises(NotPositiveDefiniteError):
        check_omega_support(iv_graph, omega)


def test_phi_two_node_closed_form():
    g = MixedGraph(m=2, directed={(1, 2)})
    lam = np.array([[0.0, 0.7], [0.0, 0.0]])
    omega = np.diag([2.0, 3.0])
    sigma = phi(g, lam, omega)
    # (I - Lambda)^{-T} Omega (I - Lambda)^{-1} worked out by hand
    assert sigma == pytest.approx(
        np.array([[2.0, 1.4], [1.4, 3.0 + 2.0 * 0.49]])
    )


def test_kappa_is_inverse_of_phi():
    rng = random.Random(11)
    for _ in range(20):
        g = _random_dag(rng.randint(2, 6), rng)
        lam, _ = sample_parameters(g, rng.randint(0, 10**6))
        delta = [rng.uniform(0.5, 2.0) for _ in range(g.m)]
        # kappa(L, D) must equal phi(L, D^{-1})^{-1} on the bidirected-free graph
        bare = MixedGraph(m=g.m, directed=g.directed)
        k = kappa(bare, lam, delta)
        omega_inv = np.diag([1.0 / d for d in delta])
        assert np.allclose(k, np.linalg.inv(phi(bare, lam, omega_inv)), atol=1e-10)


def test_kappa_rejects_nonpositive_delta(iv_graph):
    lam = np.zeros((3, 3))
    with pytest.raises(NotPositiveDefiniteError):
        kappa(iv_graph, lam, [1.0, -1.0, 1.0])


def test_path_inverse_exact_chain():
    g = MixedGraph(m=3, directed={(1, 2), (2, 3)})
    lam = linalg.zeros(3, 3, "rational")
    lam[0, 1] = Fraction(2)
    lam[1, 2] = Fraction(3)
    inv = path_inverse(g, lam)
    # single path 1 -> 2 -> 3 contributes the product 6
    assert inv[0, 2] == Fraction(6)
    assert inv[0, 1] == Fraction(2)
    assert all(inv[i, i] == 1 for i in range(3))


def test_path_inverse_matches_numeric_inverse():
    rng = random.Random(5)
    for _ in range(50):
        g = _random_dag(rng.randint(2, 7), rng)
        lam, _ = sample_parameters(g, rng.randint(0, 10**6))
        direct = np.linalg.inv(np.eye(g.m) - lam)
        assert np.max(np.abs(path_inverse(g, lam) - direct)) <= 1e-12


def test_sample_parameters_deterministic_and_valid():
    g = MixedGraph(m=4, directed={(1, 2), (2, 4)}, bidirected={(1, 3), (3, 4)})
    lam1, om1 = sample_parameters(g, 42)
    lam2, om2 = sample_parameters(g, 42)
    assert np.array_equal(lam1, lam2) and np.array_equal(om1, om2)
    check_lambda_support(g, lam1)
    check_omega_support(g, om1)


@pytest.mark.parametrize("backend", linalg.BACKENDS)
@pytest.mark.parametrize("scale", [float("nan"), float("inf"), float("-inf")])
def test_sample_parameters_rejects_non_finite_scale(iv_graph, backend, scale):
    with pytest.raises(SemidentError, match="scale must be finite"):
        sample_parameters(iv_graph, 1, scale=scale, backend=backend)


def test_sample_parameters_rational_backend():
    g = MixedGraph(m=3, directed={(1, 2)}, bidirected={(2, 3)})
    lam, om = sample_parameters(g, 7, backend="rational")
    assert isinstance(lam[0, 1], Fraction)
    assert linalg.is_pd(om)


def test_matrix_json_roundtrip_rational():
    a = linalg.to_array([[Fraction(1, 3), 2], [2, Fraction(5)]], "rational")
    data = matrix_to_json(a)
    assert data["entries"][0][0] == "1/3"
    back = matrix_from_json(data, "rational")
    assert back[0, 0] == Fraction(1, 3)
    assert back[1, 1] == Fraction(5)


def test_matrix_json_roundtrip_float():
    a = np.array([[1.5, 0.25], [0.25, 2.0]])
    back = matrix_from_json(matrix_to_json(a), "float")
    assert np.array_equal(a, back)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 6))
def test_phi_rational_matches_float(seed, m):
    rng = random.Random(seed)
    g = _random_dag(m, rng)
    lam, om = sample_parameters(g, seed, backend="rational")
    exact = phi(g, lam, om)
    approx = phi(g, linalg.as_float(lam), linalg.as_float(om))
    assert linalg.max_abs_diff(linalg.as_float(exact), approx) <= 1e-9 * max(
        1.0, linalg.max_abs(exact)
    )


def _reference_phi(g, lam, omega):
    """Rational ``phi`` as composed before its integer path: the congruence
    of ``mat_inv(identity - Lambda)``, with the same errors."""
    check_lambda_support(g, lam)
    check_omega_support(g, omega)
    try:
        inv = linalg.mat_inv(linalg.identity(g.m, "rational") - lam)
    except SemidentError as exc:
        raise SingularIminusLambdaError("I - Lambda is singular") from exc
    return linalg.congruence(inv, omega)


def _outcome(call):
    """A call's exact result, or the type and message of the error it raised."""
    try:
        out = call()
    except SemidentError as exc:
        return type(exc).__name__, str(exc)
    assert all(type(v) is Fraction for v in out.flat)
    return out.tolist()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 7), st.integers(0, 3))
def test_rational_phi_matches_mat_inv_reference(seed, m, cycle_len):
    # arbitrary directed parts, cycles included; a planted cycle of cycle_len
    # nodes whose weights multiply to 1 makes I - Lambda singular
    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    cycle = [(k, k % cycle_len + 1) for k in range(1, cycle_len + 1)] if 2 <= cycle_len <= m else []
    g = MixedGraph(
        m=m,
        directed={p for p in pairs if rng.random() < 0.3} | set(cycle),
        bidirected={p for p in pairs if p[0] < p[1] and rng.random() < 0.4},
    )
    lam, omega = sample_parameters(g, seed, backend="rational")
    if cycle:
        weights = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 4))) for _ in cycle]
        weights[-1] = 1 / prod(weights[:-1])
        for (i, j), w in zip(cycle, weights):
            lam[i - 1, j - 1] = w
    if rng.random() < 0.2:
        omega[0, 0] = -omega[0, 0]  # not positive definite
    assert _outcome(lambda: phi(g, lam, omega)) == _outcome(
        lambda: _reference_phi(g, lam, omega)
    )
    identity = linalg.identity(m, "rational")
    reference_inv = _outcome(lambda: linalg.mat_inv(identity - lam))
    if isinstance(reference_inv, tuple):
        reference_inv = ("SingularIminusLambdaError", "I - Lambda is singular")
    assert _outcome(lambda: i_minus_lambda_inv(g, lam)) == reference_inv
    delta = [omega[i, i] if omega[i, i] > 0 else Fraction(1) for i in range(m)]
    dmat = linalg.to_array([[delta[i] if i == j else 0 for j in range(m)] for i in range(m)], "rational")
    assert kappa(g, lam, delta).tolist() == linalg.congruence((identity - lam).T, dmat).tolist()


def test_i_minus_lambda_inv_cyclic_ok():
    g = MixedGraph(m=3, directed={(1, 2), (2, 3), (3, 1)})
    lam = np.zeros((3, 3))
    lam[0, 1] = lam[1, 2] = lam[2, 0] = 0.5
    inv = i_minus_lambda_inv(g, lam)
    assert np.allclose(inv @ (np.eye(3) - lam), np.eye(3))


def _three_cycle(backend, weights):
    g = MixedGraph(m=3, directed={(1, 2), (2, 3), (3, 1)}, bidirected={(1, 3)})
    lam = linalg.zeros(3, 3, backend)
    for (i, j), w in zip(((1, 2), (2, 3), (3, 1)), weights):
        lam[i - 1, j - 1] = linalg.parse_entry(w, backend)
    omega = linalg.to_array([[2, 0, "1/3"], [0, 1, 0], ["1/3", 0, "3/2"]], backend)
    return g, lam, omega


def test_phi_on_three_cycle():
    weights = ("1/2", -3, "2/5")
    g, lam, omega = _three_cycle("rational", weights)
    sigma = phi(g, lam, omega)
    a = linalg.identity(3, "rational") - lam
    assert all(type(v) is Fraction for v in sigma.flat)
    assert (a.T @ sigma @ a == omega).all()
    g, lam, omega = _three_cycle("float", weights)
    assert np.allclose(phi(g, lam, omega), linalg.as_float(sigma), rtol=1e-12)


def test_singular_i_minus_lambda_rejected():
    # lambda_12 = lambda_21 = 1 makes I - Lambda singular on both backends
    g = MixedGraph(m=2, directed={(1, 2), (2, 1)})
    for backend in linalg.BACKENDS:
        lam = linalg.to_array([[0, 1], [1, 0]], backend)
        with pytest.raises(SingularIminusLambdaError):
            i_minus_lambda_inv(g, lam)
        with pytest.raises(SingularIminusLambdaError):
            phi(g, lam, linalg.identity(2, backend))
    # a 3-cycle whose weights multiply to 1
    g3, lam3, omega3 = _three_cycle("rational", (2, "1/2", 1))
    for call in (lambda: i_minus_lambda_inv(g3, lam3), lambda: phi(g3, lam3, omega3)):
        with pytest.raises(SingularIminusLambdaError) as exc:
            call()
        assert str(exc.value) == "I - Lambda is singular"
    with pytest.raises(SingularIminusLambdaError):
        kappa(g, linalg.to_array([[0, 1], [1, 0]], "float"), [1.0, 1.0])
