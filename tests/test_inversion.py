"""Stepwise inversion, rank conditions, and fiber tracing."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semident
from semident import linalg
from semident.census import enumerate_graphs
from semident.criterion import check_global_identifiability
from semident.errors import (
    CyclicDirectedPartError,
    InconsistentSystemError,
    NotPositiveDefiniteError,
    RankDeficientStepError,
    SemidentError,
)
from semident.graphs import MixedGraph
from semident.inversion import (
    _pmul,
    _real_roots,
    _step_records,
    fiber_trace,
    invert,
    rank_condition,
)
from semident.params import i_minus_lambda_inv, phi, sample_parameters


def _random_graph(rng, m, p_dir=0.4, p_bi=0.3):
    pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    return MixedGraph(
        m=m,
        directed=frozenset(p for p in pairs if rng.random() < p_dir),
        bidirected=frozenset(p for p in pairs if rng.random() < p_bi),
    )


def _random_identifiable(rng, max_m=6, min_m=2, p_dir=0.4, p_bi=0.3):
    while True:
        g = _random_graph(rng, rng.randint(min_m, max_m), p_dir, p_bi)
        if check_global_identifiability(g).identifiable:
            return g


def _reference_rank_matrix(g, lam, omega, i):
    """Omega_{[i] minus S(i), [i]} (I - Lambda)^{-1}_{[i], P(i)} from a full inverse."""
    p = sorted(v - 1 for v in g.parents(i + 1))
    rows = [r for r in range(i) if not g.has_bidirected(r + 1, i + 1)]
    inv = i_minus_lambda_inv(g, lam)
    return omega[np.ix_(rows, range(i))] @ inv[np.ix_(range(i), p)]


def test_roundtrip_rational_exact():
    rng = random.Random(2024)
    for _ in range(40):
        g = _random_identifiable(rng)
        lam, omega = sample_parameters(g, rng.randint(0, 10**6), backend="rational")
        lam2, omega2 = invert(g, phi(g, lam, omega))
        assert linalg.max_abs_diff(lam, lam2) == 0
        assert linalg.max_abs_diff(omega, omega2) == 0


def test_roundtrip_rational_exact_m40():
    rng = random.Random(40)
    g = _random_identifiable(rng, max_m=40, min_m=40, p_dir=0.1, p_bi=0.03)
    lam, omega = sample_parameters(g, 40, backend="rational")
    lam2, omega2 = invert(g, phi(g, lam, omega))
    assert linalg.max_abs_diff(lam, lam2) == 0
    assert linalg.max_abs_diff(omega, omega2) == 0


def test_step_gram_block_equals_sigma_block():
    # the identity the step system rests on: Gamma^{-T} Omega Gamma^{-1} = Sigma
    # on every leading block, Gamma = I - Lambda restricted to that block
    rng = random.Random(11)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(2, 7))
        lam, omega = sample_parameters(g, rng.randint(0, 10**6), backend="rational")
        sigma = phi(g, lam, omega)
        for i in range(1, g.m + 1):
            ginv = linalg.mat_inv(linalg.identity(i, "rational") - lam[:i, :i])
            gram = ginv.T @ omega[:i, :i] @ ginv
            assert (gram == sigma[:i, :i]).all()


def test_rank_condition_matches_full_inverse_formula(
    spiked_chain_graph, spiked_chain_point, chain_bow_graph, chain_bow_point
):
    rng = random.Random(5)
    cases = [(spiked_chain_graph, *spiked_chain_point), (chain_bow_graph, *chain_bow_point)]
    for _ in range(40):
        g = _random_graph(rng, rng.randint(2, 7))
        cases.append((g, *sample_parameters(g, rng.randint(0, 10**6), backend="rational")))
    for g, lam, omega in cases:
        for i in range(1, g.m):
            rec = rank_condition(g, lam, omega, i)
            ref = _reference_rank_matrix(g, lam, omega, i)
            assert rec.matrix.shape == ref.shape
            assert (rec.matrix == ref).all()
            assert rec.rank == linalg.matrix_rank(ref)
    # the failing steps of both reference points are reproduced
    assert not rank_condition(spiked_chain_graph, *spiked_chain_point, 3).passed
    assert not rank_condition(chain_bow_graph, *chain_bow_point, 4).passed


def test_step_records_match_rank_condition(
    spiked_chain_graph, spiked_chain_point, chain_bow_graph, chain_bow_point
):
    # one kernel pass per point yields what one rank_condition call per step gives
    rng = random.Random(8)
    cases = [(spiked_chain_graph, *spiked_chain_point), (chain_bow_graph, *chain_bow_point)]
    for k in range(40):
        g = _random_graph(rng, rng.randint(1, 7))
        backend = ("float", "rational")[k % 2]
        cases.append((g, *sample_parameters(g, rng.randint(0, 10**6), backend=backend)))
    for g, lam, omega in cases:
        records = list(_step_records(g, lam, omega))
        assert [rec.step for rec in records] == list(range(1, g.m))
        for rec in records:
            ref = rank_condition(g, lam, omega, rec.step)
            assert rec.matrix.shape == ref.matrix.shape
            assert (rec.matrix == ref.matrix).all()
            assert (rec.rank, rec.required_rank) == (ref.rank, ref.required_rank)
    spiked = list(_step_records(spiked_chain_graph, *spiked_chain_point))
    bow = list(_step_records(chain_bow_graph, *chain_bow_point))
    assert [rec.step for rec in spiked if not rec.passed] == [3]
    assert [rec.step for rec in bow if not rec.passed] == [4]


def test_roundtrip_float_tolerance():
    rng = random.Random(99)
    for _ in range(40):
        g = _random_identifiable(rng)
        lam, omega = sample_parameters(g, rng.randint(0, 10**6))
        lam2, omega2 = invert(g, phi(g, lam, omega))
        scale = max(1.0, linalg.max_abs(lam), linalg.max_abs(omega))
        assert linalg.max_abs_diff(lam, lam2) <= 1e-8 * scale
        assert linalg.max_abs_diff(omega, omega2) <= 1e-8 * scale


def test_rank_condition_reports_matrix(spiked_chain_graph, spiked_chain_point):
    lam, omega = spiked_chain_point
    rec = rank_condition(spiked_chain_graph, lam, omega, 3)
    assert rec.matrix.shape == (1, 1)
    assert rec.matrix[0, 0] == 0
    assert rec.rank == 0 and rec.required_rank == 1
    assert not rec.passed
    # the earlier steps all pass at the same point
    for i in (1, 2, 4):
        assert rank_condition(spiked_chain_graph, lam, omega, i).passed


def test_invert_raises_on_deficient_step(spiked_chain_graph, spiked_chain_point):
    lam, omega = spiked_chain_point
    sigma = phi(spiked_chain_graph, lam, omega)
    with pytest.raises(RankDeficientStepError) as exc:
        invert(spiked_chain_graph, sigma)
    assert exc.value.step == 3


def test_invert_inconsistent_sigma():
    # empty graph: sigma must be diagonal, so any correlation is off-image
    g = MixedGraph(m=2)
    sigma = linalg.to_array([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(2)]], "rational")
    with pytest.raises(InconsistentSystemError):
        invert(g, sigma)


def test_fiber_singleton_despite_deficiency(spiked_chain_graph, spiked_chain_point):
    lam, omega = spiked_chain_point
    sigma = phi(spiked_chain_graph, lam, omega)
    desc = fiber_trace(spiked_chain_graph, sigma)
    assert desc.kind == "singleton"
    assert desc.deficient_step == 3
    lam_r, omega_r = desc.points[0]
    assert linalg.max_abs_diff(lam_r, linalg.as_float(lam)) <= 1e-9
    assert linalg.max_abs_diff(omega_r, linalg.as_float(omega)) <= 1e-9


def test_fiber_becomes_family(spiked_chain_graph, spiked_chain_point):
    lam, omega = spiked_chain_point
    omega = omega.copy()
    omega[0, 4] = Fraction(0)
    omega[4, 0] = Fraction(0)
    sigma = phi(spiked_chain_graph, lam, omega)
    desc = fiber_trace(spiked_chain_graph, sigma)
    assert desc.kind == "family"
    lo, hi = desc.family.interval
    assert lo < hi
    sig_f = linalg.as_float(sigma)
    for t in np.linspace(max(lo, -2.0), min(hi, 2.0), 9)[1:-1]:
        lam_t, omega_t = desc.family.evaluate(float(t))
        assert linalg.is_pd(omega_t)
        assert (
            linalg.max_abs_diff(phi(spiked_chain_graph, lam_t, omega_t), sig_f) <= 1e-9
        )


def test_fiber_family_scan_steps_over_a_pole():
    # t = -0.586..., a double root of an entry's denominator, is a pole
    # and so an end of the interval
    g = MixedGraph(m=4, directed={(1, 2), (2, 3)}, bidirected={(1, 2), (1, 3), (3, 4)})
    sigma = phi(g, *sample_parameters(g, 17, backend="rational"))
    desc = fiber_trace(g, sigma)
    assert desc.kind == "family"
    assert desc.deficient_step == 1
    lo, hi = desc.family.interval
    assert lo == pytest.approx(-0.5861561119, abs=1e-9)
    assert hi == np.inf
    for t in (lo + 0.1, 0.0, 1.0, 10.0):
        lam_t, omega_t = desc.family.evaluate(t)
        assert linalg.is_pd(omega_t)
        assert linalg.max_abs_diff(phi(g, lam_t, omega_t), linalg.as_float(sigma)) <= 1e-9


def test_fiber_family_interval_ends_at_an_exact_double_pole():
    # the pole -444/589 of an entry is a double root of a leading minor's
    # denominator; a float root finder splits it into two nearby roots
    g = MixedGraph(m=4, directed={(1, 3), (2, 3), (3, 4)}, bidirected={(1, 4), (2, 3), (2, 4)})
    desc = fiber_trace(g, phi(g, *sample_parameters(g, 2716, backend="rational")))
    assert (desc.kind, desc.deficient_step) == ("family", 2)
    assert desc.family.interval == (float(Fraction(-444, 589)), np.inf)


def test_fiber_finite_two_points():
    g = MixedGraph(m=4, directed={(1, 2), (1, 3), (1, 4)}, bidirected={(1, 2), (1, 3), (1, 4)})
    sigma = phi(g, *sample_parameters(g, 455, backend="rational"))
    desc = fiber_trace(g, sigma)
    assert (desc.kind, desc.deficient_step, desc.note) == ("finite", 1, "")
    expected = [
        (-3.625, 2.0, -0.375),
        (-4.139285714285714, 1.8285714285714285, -1.2321428571428572),
    ]
    assert [tuple(lam[0, 1:]) for lam, _ in desc.points] == pytest.approx(expected, abs=1e-12)
    for lam, omega in desc.points:
        assert linalg.is_pd(omega)
        assert linalg.max_abs_diff(phi(g, lam, omega), linalg.as_float(sigma)) <= 1e-9


_SMALL_RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=50)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_SMALL_RATIONALS, max_size=5, unique=True),
    st.lists(st.fractions(min_value=0, max_value=20, max_denominator=50), max_size=2, unique=True),
    st.booleans(),
)
def test_real_roots_are_exact_when_rational_and_within_width_otherwise(roots, squares, sqrt2):
    # (t - r) for each root, t^2 + c with c > 0 (no real root), and t^2 - 2
    factors = [(-r, Fraction(1)) for r in roots]
    factors += [(c + Fraction(1, 7), Fraction(0), Fraction(1)) for c in squares]
    factors += [(Fraction(-2), Fraction(0), Fraction(1))] * sqrt2
    f = (Fraction(1),)
    for factor in factors:
        f = _pmul(f, factor)
    found = _real_roots(f)
    assert found == sorted(found)
    assert [r for r in found if r in roots] == sorted(roots)
    irrational = [r for r in found if r not in roots]
    assert len(irrational) == 2 * sqrt2
    for r in irrational:
        # r is within w of the root +-sqrt(2): (|r| - w)^2 < 2 < (|r| + w)^2
        w = max(1, abs(r)) / 2**64
        assert (abs(r) - w) ** 2 < 2 < (abs(r) + w) ** 2


def test_real_roots_take_a_root_at_zero_exactly():
    # t^2 + c t with a denominator of c far below bisection's 2**-64 grid
    c = Fraction(3, 4 * 10**33 + 1)
    low, zero = _real_roots((Fraction(0), c, Fraction(1)))
    assert zero == 0
    assert abs(low + c) <= Fraction(1, 2**64)
    assert _real_roots((Fraction(0), Fraction(1))) == [0]


def test_float_trace_with_a_pole_at_zero_is_a_family():
    g = MixedGraph(
        m=4, directed={(1, 2), (2, 3), (1, 4)}, bidirected={(1, 2), (1, 3), (3, 4), (1, 4)}
    )
    sigma = phi(g, *sample_parameters(g, 11))
    desc = fiber_trace(g, sigma)
    assert (desc.kind, desc.deficient_step) == ("family", 1)
    assert desc.family.interval == (-np.inf, 0.0)
    for t in (-1e-3, -0.5, -2.0):
        lam, omega = desc.family.evaluate(t)
        assert linalg.max_abs_diff(phi(g, lam, omega), sigma) < 1e-12


def test_float_trace_of_chain_is_the_inverted_point_bit_for_bit():
    # three equations for two unknowns at step 2: decided with invert's
    # tolerance, not on a snapped rational copy that misses the image
    g = MixedGraph(m=3, directed={(1, 2), (2, 3)})
    sigma = phi(g, *sample_parameters(g, 3))
    desc = fiber_trace(g, sigma)
    assert (desc.kind, desc.deficient_step) == ("singleton", None)
    [(lam_t, omega_t)] = desc.points
    lam, omega = invert(g, sigma)
    assert lam_t.tobytes() == lam.tobytes()
    assert omega_t.tobytes() == omega.tobytes()


def test_traces_of_every_kind_leave_sympy_unimported():
    # the exact fiber trace needs numpy and fractions only
    script = "\n".join(
        [
            "import sys",
            "from semident.graphs import MixedGraph",
            "from semident.inversion import fiber_trace",
            "from semident.params import phi, sample_parameters",
            "def trace(d, b, seed, backend='rational'):",
            "    g = MixedGraph(m=max(max(e) for e in d | b), directed=d, bidirected=b)",
            "    desc = fiber_trace(g, phi(g, *sample_parameters(g, seed, backend=backend)))",
            "    assert 'sympy' not in sys.modules, desc.kind",
            "    return desc.kind, desc.deficient_step",
            "d = {(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)}",
            "for backend in ('float', 'rational'):",
            "    assert trace(d, {(3, 4)}, 3, backend) == ('singleton', None)",
            "assert trace({(1, 2), (2, 3)}, {(1, 2), (1, 3), (3, 4)}, 17) == ('family', 1)",
            "star = {(1, 2), (1, 3), (1, 4)}",
            "assert trace(star, star, 455) == ('finite', 1)",
            "full = {(1, 2), (1, 3), (2, 3)}",
            "assert trace(full, full, 63) == ('unresolved', 1)",
            "print('sympy' in sys.modules)",
        ]
    )
    src = str(Path(semident.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_singleton_trace_point_is_the_inverted_point_bit_for_bit():
    rng = random.Random(31)
    for _ in range(40):
        g = _random_identifiable(rng, max_m=7)
        sigma = phi(g, *sample_parameters(g, rng.randint(0, 10**6), backend="rational"))
        desc = fiber_trace(g, sigma)
        assert (desc.kind, desc.deficient_step, desc.note) == ("singleton", None, "")
        [(lam_t, omega_t)] = desc.points
        lam, omega = invert(g, sigma)
        assert lam_t.dtype == omega_t.dtype == np.float64
        assert lam_t.tobytes() == linalg.as_float(lam).tobytes()
        assert omega_t.tobytes() == linalg.as_float(omega).tobytes()


def _outcome(call, g, sigma):
    """(value, None) when ``call(g, sigma)`` returns, (None, error) on a domain error."""
    try:
        return call(g, sigma), None
    except SemidentError as exc:
        return None, exc


def _error_key(exc):
    return type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "residual", None)


@pytest.mark.parametrize("backend", linalg.BACKENDS)
def test_trace_and_invert_raise_equal_inconsistency_errors(backend):
    # empty graph: any correlation is off-image at step 1
    cases = [(MixedGraph(m=2), linalg.to_array([[2, 1], [1, 2]], backend), 1)]
    # chain 1 -> 2 -> 3: a moved sigma_13 contradicts step 2's two equations
    chain = MixedGraph(m=3, directed={(1, 2), (2, 3)})
    sigma = phi(chain, *sample_parameters(chain, 4, backend=backend))
    sigma[0, 2] = sigma[2, 0] = sigma[0, 2] + 1
    cases.append((chain, sigma, 2))
    for g, sigma, step in cases:
        errors = [_outcome(call, g, sigma)[1] for call in (invert, fiber_trace)]
        assert _error_key(errors[0]) == _error_key(errors[1])
        exc = errors[0]
        assert isinstance(exc, InconsistentSystemError)
        assert exc.step == step
        # a float step reports its residual; an exact one has none
        assert (exc.residual is None) == (backend == "rational")
        suffix = "" if exc.residual is None else f" (residual {exc.residual:.3g})"
        assert str(exc) == f"inversion step {step} is inconsistent{suffix}"


def test_float_trace_decides_rank_as_invert_does_at_any_scale():
    # the raw step system [Sigma_{[i],P} | (I - Lambda)^{-T}_{[i],S}] mixes a
    # block that scales with Sigma and one that does not; its SVD saw a
    # false deficiency here, and the trace answered 'unresolved'
    g = MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(1, 3)})
    sigma = phi(g, *sample_parameters(g, 544915)) * 1e-12
    desc = fiber_trace(g, sigma)
    assert (desc.kind, desc.deficient_step) == ("singleton", None)
    [(lam_t, omega_t)] = desc.points
    lam, omega = invert(g, sigma)
    assert lam_t.tobytes() == lam.tobytes()
    assert omega_t.tobytes() == omega.tobytes()


def test_trace_skips_a_root_whose_omega_is_not_pd():
    # off the image: step 2 is deficient and the one root of the constraints
    # has an Omega that is not PD, which phi refuses, so it is tested first
    g = MixedGraph(m=4, directed={(1, 3)}, bidirected={(1, 3), (1, 4)})
    f = Fraction
    sigma = linalg.to_array(
        [
            [f(13, 4), 0, f(147, 32), f(-1, 2)],
            [0, 1, 0, 0],
            [f(147, 32), 0, f(1157, 256), f(-3, 16)],
            [f(-1, 2), 0, f(-3, 16), f(3, 2)],
        ],
        "rational",
    )
    with pytest.raises(RankDeficientStepError):
        invert(g, sigma)
    with pytest.raises(InconsistentSystemError) as exc:
        fiber_trace(g, sigma)
    assert str(exc.value) == "inversion step 2 is inconsistent"


def _walk_cases(rng, count):
    """(graph, backend, sigma) on random upper-triangular graphs with m <= 7:
    image points, float ones scaled by 1 and 1e+-6, 1e+-12, and moved copies."""
    for _ in range(count):
        g = _random_graph(rng, rng.randint(2, 7), p_dir=rng.random(), p_bi=rng.random())
        seed = rng.randint(0, 10**6)
        exact = phi(g, *sample_parameters(g, seed, backend="rational"))
        sigmas = [("rational", exact)]
        point = phi(g, *sample_parameters(g, seed))
        sigmas += [("float", point * c) for c in (1.0, 1e6, 1e-6, 1e12, 1e-12)]
        i, j = sorted(rng.sample(range(g.m), 2))
        for backend, sigma in sigmas[:2]:
            moved = sigma.copy()
            moved[i, j] = moved[j, i] = moved[i, j] + sigma[i, i] / 2
            sigmas.append((backend, moved))
        for backend, sigma in sigmas:
            yield g, backend, sigma


def test_invert_and_trace_walk_the_same_steps():
    for g, backend, sigma in _walk_cases(random.Random(18), 40):
        point, error = _outcome(invert, g, sigma)
        desc, trace_error = _outcome(fiber_trace, g, sigma)
        solved = error is None or isinstance(error, NotPositiveDefiniteError)
        plain = desc is not None and (desc.kind, desc.deficient_step) == ("singleton", None)
        assert solved == (plain or isinstance(trace_error, NotPositiveDefiniteError)), g
        if error is None:
            lam, omega = (linalg.as_float(a) for a in point)
            [(lam_t, omega_t)] = desc.points
            assert lam_t.tobytes() == lam.tobytes()
            assert omega_t.tobytes() == omega.tobytes()
        elif not isinstance(error, RankDeficientStepError):
            # inconsistent, or not PD after every step: the same error
            assert desc is None and _error_key(trace_error) == _error_key(error), g
        elif backend == "rational":
            # the exact trace goes on from invert's deficient step
            if desc is not None:
                assert desc.deficient_step == error.step, g
            elif isinstance(trace_error, InconsistentSystemError):
                assert trace_error.step == error.step, g


@pytest.mark.parametrize("backend", linalg.BACKENDS)
def test_singleton_trace_with_non_pd_omega_raises_like_invert(backend):
    # 1 -> 2 with sigma = [[1, 2], [2, 1]] recovers lambda_12 = 2, omega = diag(1, -3)
    g = MixedGraph(m=2, directed={(1, 2)})
    sigma = linalg.to_array([[1, 2], [2, 1]], backend)
    messages = []
    for call in (invert, fiber_trace):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            call(g, sigma)
        messages.append(str(exc.value))
    assert messages == ["recovered omega is not positive definite"] * 2


def test_trace_deficiency_two_is_unresolved():
    # node 3 has parents and siblings {1, 2}: four unknowns, two equations
    g = MixedGraph(m=3, directed={(1, 3), (2, 3)}, bidirected={(1, 3), (2, 3)})
    for backend in linalg.BACKENDS:
        desc = fiber_trace(g, phi(g, *sample_parameters(g, 6, backend=backend)))
        assert (desc.kind, desc.deficient_step) == ("unresolved", 2)
        assert desc.note == "deficiency exceeds one"
        assert desc.points == [] and desc.family is None


def test_fiber_of_singleton_graph():
    g = MixedGraph(m=2, directed={(1, 2)})
    lam, omega = sample_parameters(g, 5, backend="rational")
    desc = fiber_trace(g, phi(g, lam, omega))
    assert desc.kind == "singleton"
    assert desc.deficient_step is None


def test_rank_condition_passes_on_identifiable_graphs():
    rng = random.Random(7)
    for _ in range(30):
        g = _random_identifiable(rng, max_m=5)
        lam, omega = sample_parameters(g, rng.randint(0, 10**6))
        for i in range(1, g.m):
            assert rank_condition(g, lam, omega, i).passed


def test_noninjective_census_graph_has_failing_point():
    # at the witness base point the final reduced matrix loses rank
    from semident.witness import construct_witness

    for g in enumerate_graphs(3):
        verdict = check_global_identifiability(g)
        if verdict.identifiable:
            continue
        pair = construct_witness(g, backend="rational")
        lam, omega = pair.point_a
        assert any(
            not rank_condition(g, lam, omega, i).passed for i in range(1, g.m)
        )


def test_entry_points_reject_cycles_and_unsorted_labels():
    cyclic = MixedGraph(m=3, directed={(1, 2), (2, 3), (3, 1)})
    unsorted = MixedGraph(m=3, directed={(2, 1), (2, 3)}, bidirected={(1, 3)})
    sigma = linalg.identity(3, "rational")
    calls = (
        lambda g: invert(g, sigma),
        lambda g: rank_condition(g, linalg.zeros(3, 3, "float"), np.eye(3), 1),
        lambda g: fiber_trace(g, sigma),
    )
    for call in calls:
        with pytest.raises(CyclicDirectedPartError) as exc:
            call(cyclic)
        assert set(exc.value.cycle) == {1, 2, 3}
        with pytest.raises(SemidentError) as exc:
            call(unsorted)
        assert not isinstance(exc.value, CyclicDirectedPartError)
