"""Stepwise inversion of the covariance parametrization.

Walks the topological order one node at a time: at step i the column
Sigma_{[i],{i+1}} pins down the parent coefficients and sibling covariances
of node i+1 through a linear system whose solvability is exactly the rank
condition

    rank( Omega_{[i] \\ S(i), [i]} (I - Lambda)^{-1}_{[i], P(i)} ) = |P(i)|.

Two facts of topological labels keep every step cheap. Once the first i
nodes are recovered, Gamma = I - Lambda_{[i],[i]} has Gram matrix
Gamma^{-T} Omega_{[i],[i]} Gamma^{-1} equal to Sigma_{[i],[i]}, so the step
system reads

    [ Sigma_{[i], P(i)} | (Gamma^{-T})_{[i], S(i)} ] x = Sigma_{[i], i+1}.

And (I - Lambda)^{-1} grows by one column per step: column i+1 is e_{i+1}
plus lambda_{k,i+1} times column k summed over the parents k in P(i), the
path-sum recurrence of ``params.path_inverse``. No step inverts a matrix.

``fiber_trace`` runs the same two step functions as ``invert`` (one solve,
one state update) on an exact ``Fraction`` copy of Sigma. Only when a step is
rank deficient by one does it import sympy, follow the solution line in a
parameter t through the later steps, and report the structure of the fiber.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable

import numpy as np

from . import linalg
from .errors import (
    InconsistentSystemError,
    NotPositiveDefiniteError,
    RankDeficientStepError,
    SemidentError,
    UnresolvedFiberError,
)
from .graphs import MixedGraph, require_acyclic, siblings_below
from .params import phi

#: relative residual threshold deciding whether a step system is consistent
CONSISTENCY_REL_TOL = 1e-8

#: largest degree in t that fiber tracing follows before giving up
MAX_DEGREE = 32


def _require_topological(g: MixedGraph) -> None:
    if any(i >= j for i, j in g.directed):
        require_acyclic(g)
        raise SemidentError("graph must carry topological labels (i -> j only for i < j)")


@dataclass
class StepRecord:
    """Rank condition evaluated at one inversion step.

    ``matrix`` is Omega_{[i] \\ S(i), [i]} (I - Lambda)^{-1}_{[i], P(i)};
    the step passes iff its rank equals |P(i)|. For a float stack of
    parameter points (see ``_step_records``) ``matrix`` is the stack of
    their matrices and ``rank`` and ``passed`` are arrays over the points.
    """

    step: int
    matrix: np.ndarray
    rank: int
    required_rank: int

    @property
    def passed(self) -> bool:
        return self.rank == self.required_rank


# -- the step kernel ----------------------------------------------------


def _step_indices(g: MixedGraph, i: int) -> tuple[list[int], list[int]]:
    """P(i) and S(i) of step i as sorted 0-based indices."""
    p = sorted(v - 1 for v in g.parents(i + 1))
    s = sorted(v - 1 for v in siblings_below(g, i))
    return p, s


def _grow_inverse(inv, lam, i: int, p: list[int]) -> None:
    """Fill column i of (I - Lambda)^{-1} from the columns of its parents p.

    Works on numpy and sympy matrices alike, and on numpy stacks that carry
    their points on a trailing axis, ``(m, m, points)``. Only rows above i
    change: under topological labels the inverse is unit upper triangular.
    """
    for k in p:
        inv[:i, i] = inv[:i, i] + inv[:i, k] * lam[k, i]


def _step_record(omega: np.ndarray, inv: np.ndarray, p, s, i: int) -> StepRecord:
    """Reduced rank matrix of step i; ``inv`` needs its leading i columns only.

    ``omega`` and ``inv`` may be float stacks ``(points, m, m)``.
    """
    rows = [r for r in range(i) if r not in s]
    mat = linalg.matmul(omega[..., rows, :i], inv[..., :i, p])
    return StepRecord(step=i, matrix=mat, rank=linalg.matrix_rank(mat), required_rank=len(p))


def _omega_remainder(sigma: np.ndarray, inv: np.ndarray, lamv, wv, i: int):
    """omega_{i+1,i+1} left over once lambda_{[i],i+1} and omega_{[i],i+1} are fixed.

    ``inv`` needs its leading i columns only; Sigma_{[i],[i]} stands in for
    the Gram matrix of the first i nodes.
    """
    return (
        sigma[i, i]
        - linalg.matmul(lamv, sigma[:i, :i], lamv)
        - 2 * linalg.matmul(wv, inv[:i, :i], lamv)
    )


def _initial_state(sigma: np.ndarray):
    """(Lambda, Omega, (I - Lambda)^{-1}) before step 1: only omega_11 is known."""
    backend = linalg.backend_of(sigma)
    m = sigma.shape[0]
    lam = linalg.zeros(m, m, backend)
    omega = linalg.zeros(m, m, backend)
    omega[0, 0] = sigma[0, 0]
    return lam, omega, linalg.identity(m, backend)


def _step_solve(sigma: np.ndarray, inv: np.ndarray, p, s, i: int) -> linalg.SolveResult:
    """Solve the step-i system; ``inv`` needs its leading i columns only."""
    a = np.concatenate([sigma[:i, p], inv[s, :i].T], axis=1)
    return linalg.solve_linear(a, sigma[:i, i])


def _step_update(sigma: np.ndarray, state, p, s, i: int, x) -> None:
    """Enter the step-i solution x into ``state`` and grow the inverse by column i."""
    lam, omega, inv = state
    lam[p, i] = x[: len(p)]
    omega[s, i] = omega[i, s] = x[len(p) :]
    omega[i, i] = _omega_remainder(sigma, inv, lam[:i, i], omega[:i, i], i)
    _grow_inverse(inv, lam, i, p)


def _require_pd(omega: np.ndarray) -> None:
    if not linalg.is_pd(omega):
        raise NotPositiveDefiniteError("recovered omega is not positive definite")


def _step_records(g: MixedGraph, lam: np.ndarray, omega: np.ndarray):
    """Yield the rank-condition record of every step 1..m-1 in order.

    One pass of the kernel: (I - Lambda)^{-1} grows by one column per step.
    ``g`` must carry topological labels. ``lam`` and ``omega`` may also be
    float stacks ``(points, m, m)`` of parameter points: every step then
    runs once for all of them, and each record holds one rank per point.
    """
    inv = linalg.identity(g.m, linalg.backend_of(lam))
    if lam.ndim == 3:
        inv = np.repeat(inv[None], len(lam), axis=0)
    # _grow_inverse indexes the two matrix axes first: points go last
    inv_t, lam_t = (np.moveaxis(a, 0, -1) if a.ndim == 3 else a for a in (inv, lam))
    for i in range(1, g.m):
        p, s = _step_indices(g, i)
        yield _step_record(omega, inv, p, s, i)
        _grow_inverse(inv_t, lam_t, i, p)


def rank_condition(g: MixedGraph, lam: np.ndarray, omega: np.ndarray, i: int) -> StepRecord:
    """Evaluate the step-i rank condition at a parameter pair.

    ``lam`` is read on the directed support only.
    """
    _require_topological(g)
    if not 1 <= i <= g.m - 1:
        raise SemidentError(f"step index {i} out of range 1..{g.m - 1}")
    return next(islice(_step_records(g, lam, omega), i - 1, None))


def invert(g: MixedGraph, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the unique (Lambda, Omega) with forward image ``sigma``.

    The backend follows the dtype of ``sigma``; on the rational backend the
    round trip through the forward map is an exact identity.

    Raises:
        RankDeficientStepError: a step system is underdetermined (the fiber
            may contain more than one point; see ``fiber_trace``).
        InconsistentSystemError: ``sigma`` is not in the model's image.
        NotPositiveDefiniteError: the recovered Omega is not PD.
    """
    _require_topological(g)
    backend = linalg.backend_of(sigma)
    state = lam, omega, inv = _initial_state(sigma)
    scale = max(1.0, linalg.max_abs(sigma))
    for i in range(1, g.m):
        p, s = _step_indices(g, i)
        # rank decision on the reduced matrix, not the raw step system
        if not _step_record(omega, inv, p, s, i).passed:
            raise RankDeficientStepError(i)
        res = _step_solve(sigma, inv, p, s, i)
        if res.solution is None or (
            backend == "float" and res.residual > CONSISTENCY_REL_TOL * scale
        ):
            raise InconsistentSystemError(i, res.residual)
        _step_update(sigma, state, p, s, i, res.solution)
    _require_pd(omega)
    return lam, omega


# -- fiber tracing ----------------------------------------------------


@dataclass
class FiberFamily:
    """One-parameter family of fiber points.

    ``evaluate(t)`` returns the float (Lambda, Omega) at parameter value t;
    the open ``interval`` is where Omega(t) stays positive definite.
    """

    base: tuple
    direction: dict
    interval: tuple
    evaluate: Callable = field(repr=False, default=None)


@dataclass
class FiberDescription:
    """Structure of the fiber of a covariance matrix.

    ``kind`` is one of 'singleton', 'finite', 'family', 'unresolved'.
    """

    kind: str
    points: list
    family: FiberFamily | None = None
    deficient_step: int | None = None
    note: str = ""


def _exact_sigma(sigma: np.ndarray) -> np.ndarray:
    if linalg.backend_of(sigma) == "rational":
        return sigma
    # snap floats to nearby rationals; exact image membership is assumed
    snapped = [[Fraction(float(v)).limit_denominator(10**9) for v in row] for row in sigma]
    return linalg.to_array(snapped, "rational")


def fiber_trace(g: MixedGraph, sigma: np.ndarray) -> FiberDescription:
    """Describe the fiber of ``sigma`` under the forward map.

    Runs the exact stepwise inversion of ``invert`` on ``sigma`` as a
    ``Fraction`` matrix (float entries snap to nearby rationals). Without a
    rank-deficient step the fiber is the single recovered point, and, as in
    ``invert``, a recovered Omega that is not positive definite raises
    ``NotPositiveDefiniteError`` (the fiber is empty). At the first
    deficient step, deficiency two gives 'unresolved'; deficiency one
    parametrizes the solution line by a scalar t, and only then is the rest
    of the inversion followed symbolically (see ``_follow_line``).
    """
    _require_topological(g)
    sig = _exact_sigma(sigma)
    state = lam, omega, inv = _initial_state(sig)
    for i in range(1, g.m):
        p, s = _step_indices(g, i)
        res = _step_solve(sig, inv, p, s, i)
        if res.solution is None:
            raise InconsistentSystemError(i)
        if len(res.nullspace) > 1:
            return FiberDescription(
                "unresolved", [], deficient_step=i, note="deficiency exceeds one"
            )
        if res.nullspace:
            return _follow_line(g, sigma, sig, state, i, res)
        _step_update(sig, state, p, s, i, res.solution)
    _require_pd(omega)
    return FiberDescription("singleton", [(linalg.as_float(lam), linalg.as_float(omega))])


def _follow_line(g: MixedGraph, sigma, sig, state, deficient_step: int, res):
    """Follow the solution line of the deficiency-one step through the later steps.

    ``state`` is the exact (Lambda, Omega, (I - Lambda)^{-1}) of the steps
    before ``deficient_step``. From there on the entries are rational
    functions of the line parameter t, held in sympy; every later step
    contributes polynomial constraints on t. The real roots of their greatest
    common divisor, intersected with positive definiteness of Omega(t), give
    the fiber points. No surviving constraint means a one-parameter family; a
    second deficient step gives 'unresolved'.
    """
    import sympy as sp

    m = g.m
    t = sp.Symbol("t")
    sig, lam_s, omg_s, inv_s = (sp.Matrix(a) for a in (sig, *state))
    kernel = res.nullspace[0]
    direction = _direction_dict(*_step_indices(g, deficient_step), kernel, deficient_step)
    x = sp.Matrix(res.solution) + t * sp.Matrix(kernel)
    constraints: list = []

    for i in range(deficient_step, m):
        p, s = _step_indices(g, i)
        ginv = inv_s[:i, :i]
        # not Sigma's block: past a deficient step Omega(t) matches Sigma
        # only at the roots of the constraints
        gtpg = (ginv.T * omg_s[:i, :i] * ginv).applyfunc(sp.cancel)
        if i > deficient_step:
            cols = [gtpg[:, c] for c in p] + [ginv[r, :].T for r in s]
            a = sp.Matrix.hstack(*cols) if cols else sp.zeros(i, 0)
            x, new_constraints, ok = _solve_later_phase(sp, a, sig[:i, i], a.shape[1], t)
            if not ok:
                return FiberDescription(
                    "unresolved",
                    [],
                    deficient_step=deficient_step,
                    note=f"second rank-deficient step at {i}",
                )
            constraints.extend(new_constraints)

        for idx, col in enumerate(p):
            lam_s[col, i] = sp.cancel(x[idx])
        for idx, col in enumerate(s):
            omg_s[col, i] = sp.cancel(x[len(p) + idx])
            omg_s[i, col] = omg_s[col, i]
        lamv = lam_s[:i, i]
        wv = omg_s[:i, i]
        omg_s[i, i] = sp.cancel(
            sig[i, i] - (lamv.T * gtpg * lamv)[0, 0] - 2 * (wv.T * ginv * lamv)[0, 0]
        )
        _grow_inverse(inv_s, lam_s, i, p)
        inv_s[:i, i] = inv_s[:i, i].applyfunc(sp.cancel)
        degs = [
            _expr_degree(sp, e, t)
            for e in list(lam_s[:, i]) + list(omg_s[:, i]) + [omg_s[i, i]]
        ]
        if max(degs, default=0) > MAX_DEGREE:
            return FiberDescription(
                "unresolved", [], deficient_step=deficient_step, note="degree cap hit"
            )

    constraints = [c for c in constraints if not c.is_zero]
    if not constraints:
        return _describe_family(sp, lam_s, omg_s, t, m, deficient_step, direction)

    gcd_poly = constraints[0]
    for c in constraints[1:]:
        gcd_poly = sp.gcd(gcd_poly, c)
    gcd_poly = sp.Poly(gcd_poly, t)
    if gcd_poly.degree() == 0:
        raise InconsistentSystemError(deficient_step)
    coeffs = [float(c) for c in gcd_poly.all_coeffs()]
    roots = np.roots(coeffs)
    real_roots = sorted(r.real for r in roots if abs(r.imag) < 1e-8)

    scale = max(1.0, linalg.max_abs(sigma))
    points = []
    for r in real_roots:
        try:
            lam_f, omg_f = _numeric_point(sp, lam_s, omg_s, t, r, m)
        except (ZeroDivisionError, ValueError):
            continue
        if not linalg.is_pd(omg_f):
            continue
        residual = linalg.max_abs_diff(phi(g, lam_f, omg_f), linalg.as_float(sigma))
        if residual > 1e-9 * scale:
            continue
        if any(
            linalg.max_abs_diff(lam_f, q[0]) < 1e-8
            and linalg.max_abs_diff(omg_f, q[1]) < 1e-8
            for q in points
        ):
            continue
        points.append((lam_f, omg_f))
    if not points:
        raise InconsistentSystemError(deficient_step)
    kind = "singleton" if len(points) == 1 else "finite"
    return FiberDescription(kind, points, deficient_step=deficient_step)


def _expr_degree(sp, expr, t) -> int:
    num, den = sp.fraction(sp.cancel(expr))
    return max(sp.degree(num, t), sp.degree(den, t)) if expr.has(t) else 0


def _solve_later_phase(sp, a, b, k, t):
    """Solve a step system with polynomial coefficients in t.

    Returns (solution vector of rational functions, constraint polynomials,
    ok flag). ok is False when the system is generically rank deficient
    (a second deficient step).
    """
    if k == 0:
        cons = [sp.Poly(sp.together(-e), t) for e in b if sp.simplify(e) != 0]
        return sp.zeros(0, 1), cons, True
    t0 = sp.Rational(3, 7)  # generic probe point
    a0 = a.subs(t, t0)
    if a0.rank() < k:
        # retry one more probe before declaring generic deficiency
        a0 = a.subs(t, sp.Rational(11, 13))
        if a0.rank() < k:
            return None, [], False
    # pick k generically independent rows via the probe's transpose pivots
    _, piv = a0.T.rref()
    rows = list(piv[:k])
    a_sq = a[rows, :]
    det_s = sp.cancel(a_sq.det())
    adj = a_sq.adjugate()
    b_sq = sp.Matrix([b[r] for r in rows])
    x_num = (adj * b_sq).applyfunc(sp.cancel)
    x = (x_num / det_s).applyfunc(sp.cancel)
    constraints = []
    for r in range(a.shape[0]):
        if r in rows:
            continue
        expr = sp.cancel(sp.expand((a[r, :] * x_num)[0, 0] - b[r] * det_s))
        num, _ = sp.fraction(sp.together(expr))
        num = sp.expand(num)
        if num != 0:
            constraints.append(sp.Poly(num, t))
    return x, constraints, True


def _direction_dict(p, s, kernel, i) -> dict:
    dlam = {(col + 1, i + 1): float(kernel[k]) for k, col in enumerate(p)}
    domg = {(col + 1, i + 1): float(kernel[len(p) + k]) for k, col in enumerate(s)}
    return {"lambda": dlam, "omega": domg, "step": i}


def _numeric_point(sp, lam_s, omg_s, t, tval, m):
    """Float (Lambda, Omega) at t = tval; ZeroDivisionError at a pole of an entry."""
    lam = np.zeros((m, m))
    omg = np.zeros((m, m))
    sub = {t: sp.Float(tval, 30)} if isinstance(tval, float) else {t: tval}
    for num, sym in ((lam, lam_s), (omg, omg_s)):
        for i in range(m):
            for j in range(m):
                if sym[i, j] != 0:
                    v = sym[i, j].subs(sub)
                    if not v.is_finite:
                        raise ZeroDivisionError(f"pole of entry ({i + 1},{j + 1}) at t = {tval}")
                    num[i, j] = float(v)
    omg = (omg + omg.T) / 2
    return lam, omg


def _describe_family(sp, lam_s, omg_s, t, m, deficient_step, direction):
    """Locate the open PD interval of Omega(t) and package the family."""
    breakpoints: set[float] = set()
    denominators = []
    for i in range(m):
        for j in range(m):
            for e in (lam_s[i, j], omg_s[i, j]):
                if e != 0 and e.has(t):
                    _, den = sp.fraction(sp.together(e))
                    if den.has(t):
                        denominators.append(den)
    for k in range(1, m + 1):
        minor = sp.cancel(omg_s[:k, :k].det())
        num, den = sp.fraction(sp.together(minor))
        for poly_expr in (num, den):
            if poly_expr.has(t):
                denominators.append(poly_expr)
    for expr in denominators:
        try:
            coeffs = [float(c) for c in sp.Poly(sp.expand(expr), t).all_coeffs()]
        except sp.PolynomialError:
            continue
        if len(coeffs) > 1:
            for r in np.roots(coeffs):
                if abs(r.imag) < 1e-8:
                    breakpoints.add(float(r.real))
    marks = sorted(breakpoints)

    def pd_at(tv: float) -> bool:
        try:
            _, om = _numeric_point(sp, lam_s, omg_s, t, tv, m)
        except (ZeroDivisionError, ValueError):
            return False
        return linalg.is_pd(om)

    intervals = []
    edges = [-np.inf] + marks + [np.inf]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        if np.isinf(lo) and np.isinf(hi):
            mid = 0.0
        elif np.isinf(lo):
            mid = hi - 1.0
        elif np.isinf(hi):
            mid = lo + 1.0
        else:
            mid = (lo + hi) / 2
        if pd_at(mid):
            intervals.append((lo, hi, mid))
    if not intervals:
        raise UnresolvedFiberError("no PD interval found for the family")
    chosen = next((iv for iv in intervals if iv[0] < 0.0 < iv[1] and pd_at(0.0)), intervals[0])
    lo, hi, mid = chosen
    t0 = 0.0 if lo < 0.0 < hi and pd_at(0.0) else mid

    def evaluate(tv: float):
        return _numeric_point(sp, lam_s, omg_s, t, float(tv), m)

    base_point = evaluate(t0)
    return FiberDescription(
        "family",
        [],
        family=FiberFamily(
            base=base_point, direction=direction, interval=(lo, hi), evaluate=evaluate
        ),
        deficient_step=deficient_step,
    )
