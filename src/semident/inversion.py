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

``invert`` and ``fiber_trace`` run one walk over the steps (``_walk``): one
rank rule, the rank of the reduced matrix above, which is homogeneous in
Sigma, and one ``InconsistentSystemError``, which carries the residual of a
float step and none for an exact one. Only when a step is rank deficient by
one does ``fiber_trace`` follow the solution line in a parameter t through
the later steps, exactly, in rational functions of t, and report the
structure of the fiber.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from itertools import islice, zip_longest
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
    the step passes iff its rank equals |P(i)|.
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

    Works on float and object arrays, whose entries may be rational
    functions of t. Only rows above i change: under topological labels the
    inverse is unit upper triangular.
    """
    for k in p:
        inv[:i, i] = inv[:i, i] + inv[:i, k] * lam[k, i]


def _step_record(omega: np.ndarray, inv: np.ndarray, p, s, i: int) -> StepRecord:
    """Reduced rank matrix of step i; ``inv`` needs its leading i columns only."""
    rows = [r for r in range(i) if r not in s]
    mat = linalg.matmul(omega[rows, :i], inv[:i, p])
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
    ``g`` must carry topological labels.
    """
    inv = linalg.identity(g.m, linalg.backend_of(lam))
    for i in range(1, g.m):
        p, s = _step_indices(g, i)
        yield _step_record(omega, inv, p, s, i)
        _grow_inverse(inv, lam, i, p)


def rank_condition(g: MixedGraph, lam: np.ndarray, omega: np.ndarray, i: int) -> StepRecord:
    """Evaluate the step-i rank condition at a parameter pair.

    ``lam`` is read on the directed support only.
    """
    _require_topological(g)
    if not 1 <= i <= g.m - 1:
        raise SemidentError(f"step index {i} out of range 1..{g.m - 1}")
    return next(islice(_step_records(g, lam, omega), i - 1, None))


def _require_consistent(res: linalg.SolveResult, i: int, scale: float) -> None:
    """Raise ``InconsistentSystemError`` unless the step-i solve has a solution.

    A float solution counts when its residual is within
    ``CONSISTENCY_REL_TOL * scale`` and the error carries that residual; an
    exact system without a solution has no residual to report.
    """
    if res.solution is None:
        raise InconsistentSystemError(i)
    if res.residual > CONSISTENCY_REL_TOL * scale:
        raise InconsistentSystemError(i, res.residual)


def _walk(g: MixedGraph, sigma: np.ndarray):
    """Run the inversion steps on ``sigma`` in its own backend.

    Each step's rank is decided on its reduced matrix (``_step_record``),
    which scales with Sigma as a whole; a full-rank step is solved and
    checked by ``_require_consistent``. Returns (state, i): the state
    (Lambda, Omega, (I - Lambda)^{-1}) as it stands before the first
    rank-deficient step i, or after the last step with i = None when every
    step was solved.
    """
    _require_topological(g)
    state = lam, omega, inv = _initial_state(sigma)
    scale = max(1.0, linalg.max_abs(sigma))
    for i in range(1, g.m):
        p, s = _step_indices(g, i)
        if not _step_record(omega, inv, p, s, i).passed:
            return state, i
        res = _step_solve(sigma, inv, p, s, i)
        _require_consistent(res, i, scale)
        _step_update(sigma, state, p, s, i, res.solution)
    return state, None


def invert(g: MixedGraph, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover the unique (Lambda, Omega) with forward image ``sigma``.

    The backend follows the dtype of ``sigma``; on the rational backend the
    round trip through the forward map is an exact identity. The steps are
    ``_walk``'s, shared with ``fiber_trace``.

    Raises:
        RankDeficientStepError: a step system is underdetermined (the fiber
            may contain more than one point; see ``fiber_trace``).
        InconsistentSystemError: ``sigma`` is not in the model's image; a
            float step reports its residual, an exact one none.
        NotPositiveDefiniteError: the recovered Omega is not PD.
    """
    (lam, omega, _), i = _walk(g, sigma)
    if i is not None:
        raise RankDeficientStepError(i)
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
    # snap floats to nearby rationals; exact image membership is assumed
    snapped = [[Fraction(float(v)).limit_denominator(10**9) for v in row] for row in sigma]
    return linalg.to_array(snapped, "rational")


def _unresolved(step: int, note: str) -> FiberDescription:
    return FiberDescription("unresolved", [], deficient_step=step, note=note)


def fiber_trace(g: MixedGraph, sigma: np.ndarray) -> FiberDescription:
    """Describe the fiber of ``sigma`` under the forward map.

    Runs ``invert``'s steps (``_walk``) on ``sigma`` in its own backend, with
    the same rank rule and the same ``InconsistentSystemError``. Without a
    rank-deficient step the fiber is ``invert``'s point, and, as in
    ``invert``, a recovered Omega that is not positive definite raises
    ``NotPositiveDefiniteError`` (the fiber is empty). A float trace that
    meets a deficient step starts over exactly, on ``sigma`` snapped to
    nearby rationals. At the first deficient step, deficiency two gives
    'unresolved'; deficiency one parametrizes the solution line by a scalar
    t, and only then is the rest of the inversion followed in rational
    functions of t (see ``_follow_line``).
    """
    state, i = _walk(g, sigma)
    lam, omega, inv = state
    if i is None:
        _require_pd(omega)
        return FiberDescription("singleton", [(linalg.as_float(lam), linalg.as_float(omega))])
    if linalg.backend_of(sigma) == "float":
        return fiber_trace(g, _exact_sigma(sigma))
    res = _step_solve(sigma, inv, *_step_indices(g, i), i)
    _require_consistent(res, i, max(1.0, linalg.max_abs(sigma)))
    if len(res.nullspace) > 1:
        return _unresolved(i, "deficiency exceeds one")
    return _follow_line(g, sigma, state, i, res)


def _follow_line(g: MixedGraph, sigma, state, deficient_step: int, res):
    """Follow the solution line of the deficiency-one step through the later steps.

    ``state`` is the exact (Lambda, Omega, (I - Lambda)^{-1}) of the steps
    before ``deficient_step``. From there on the entries are rational
    functions of the line parameter t (``_RatFun``), and every later step is
    solved over Q(t); the residuals of its rows beyond the rank are
    polynomial constraints on t. The real roots of their greatest common
    divisor that are no pole of an entry, intersected with positive
    definiteness of Omega(t), give the fiber points. No surviving constraint
    means a one-parameter family; a second deficient step gives 'unresolved'.
    """
    lam, omega, inv = state
    [kernel] = res.nullspace
    direction = _direction_dict(*_step_indices(g, deficient_step), kernel, deficient_step)
    x = res.solution + kernel * _RatFun((Fraction(0), Fraction(1)))
    constraints = []
    for i in range(deficient_step, g.m):
        p, s = _step_indices(g, i)
        ginv = inv[:i, :i]
        # not Sigma's block: past a deficient step Omega(t) matches Sigma
        # only at the roots of the constraints
        gram = ginv.T @ omega[:i, :i] @ ginv
        if i > deficient_step:
            x, residuals = _solve(np.concatenate([gram[:, p], ginv[s].T], axis=1), sigma[:i, i])
            if x is None:
                return _unresolved(deficient_step, f"second rank-deficient step at {i}")
            constraints += [r.num for r in map(_lift, residuals) if r]
        lam[p, i] = x[: len(p)]
        omega[s, i] = omega[i, s] = x[len(p) :]
        lamv, wv = lam[:i, i], omega[:i, i]
        omega[i, i] = sigma[i, i] - lamv @ gram @ lamv - 2 * (wv @ ginv @ lamv)
        _grow_inverse(inv, lam, i, p)
        if max(_lift(e).degree for e in (*lam[:, i], *omega[:, i])) > MAX_DEGREE:
            return _unresolved(deficient_step, "degree cap hit")

    poles = (Fraction(1),)  # the lcm of the entries' denominators
    for den in {_lift(e).den for e in (*lam.flat, *omega.flat)}:
        poles = _pmul(poles, _pdivmod(den, _pgcd(poles, den))[0])
    poles = _squarefree(poles)
    if not constraints:
        return _describe_family(lam, omega, poles, deficient_step, direction)
    # a root of the constraints at a pole of an entry is no fiber point
    f = _squarefree(reduce(_pgcd, constraints))
    f = _pdivmod(f, _pgcd(f, poles))[0]
    scale = max(1.0, linalg.max_abs(sigma))
    points = []
    for r in _real_roots(f):
        lam_f, omg_f = (linalg.as_float(_value(a, r)) for a in (lam, omega))
        # phi refuses an Omega that is not PD: test that first
        if linalg.is_pd(omg_f) and (
            linalg.max_abs_diff(phi(g, lam_f, omg_f), linalg.as_float(sigma)) <= 1e-9 * scale
        ):
            points.append((lam_f, omg_f))
    if not points:
        raise InconsistentSystemError(deficient_step)
    kind = "singleton" if len(points) == 1 else "finite"
    return FiberDescription(kind, points, deficient_step=deficient_step)


def _solve(a: np.ndarray, b: np.ndarray):
    """Solve a x = b over Q(t) by Gauss-Jordan elimination.

    Returns (x, residuals): ``residuals`` are the right-hand sides left in
    the rows beyond the rank. x is None when a column has no pivot, i.e.
    when a has generic rank below its column count.
    """
    k = a.shape[1]
    rows = [[*row, v] for row, v in zip(a, b)]
    for c in range(k):
        r = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if r is None:
            return None, []
        rows[c], rows[r] = rows[r], rows[c]
        pivot, lead = rows[c], rows[c][c]
        pivot[:] = [v / lead for v in pivot]
        for row in rows:
            if row is not pivot and row[c]:
                f = row[c]
                row[:] = [v - f * w for v, w in zip(row, pivot)]
    return [row[k] for row in rows[:k]], [row[k] for row in rows[k:]]


def _direction_dict(p, s, kernel, i) -> dict:
    dlam = {(col + 1, i + 1): float(kernel[k]) for k, col in enumerate(p)}
    domg = {(col + 1, i + 1): float(kernel[len(p) + k]) for k, col in enumerate(s)}
    return {"lambda": dlam, "omega": domg, "step": i}


def _value(a: np.ndarray, t: Fraction) -> np.ndarray:
    """The exact matrix a at t; ZeroDivisionError at a pole of an entry."""
    return np.array([[_lift(e)(t) for e in row] for row in a], dtype=object)


def _describe_family(lam, omega, poles, deficient_step, direction):
    """Locate the open PD interval of Omega(t) and package the family.

    Every point of the family maps to Sigma, so det Omega(t) = det Sigma for
    all t: Omega(t) can change definiteness only at a pole, and one exact
    test at a sample point decides each interval between poles.
    """
    edges = [-math.inf, *_real_roots(poles), math.inf]
    intervals = []
    for lo, hi in zip(edges, edges[1:]):
        # the base point too: t = 0 when the interval holds it
        if lo < 0 < hi:
            mid = 0
        else:
            mid = hi - 1 if lo == -math.inf else lo + 1 if hi == math.inf else (lo + hi) / 2
        if linalg.is_pd(_value(omega, mid)):
            intervals.append((lo, hi, mid))
    if not intervals:
        raise UnresolvedFiberError("no PD interval found for the family")
    lo, hi, t0 = next((iv for iv in intervals if iv[0] < 0 < iv[1]), intervals[0])

    def evaluate(tv: float):
        return tuple(linalg.as_float(_value(a, Fraction(tv))) for a in (lam, omega))

    family = FiberFamily(evaluate(t0), direction, (float(lo), float(hi)), evaluate)
    return FiberDescription("family", [], family=family, deficient_step=deficient_step)


# -- polynomials and rational functions in t ------------------------------
# A polynomial is a tuple of Fraction coefficients, constant term first, with
# no trailing zeros; () is the zero polynomial. Integer coefficients must not
# get in: int / int is a float, and on floats a remainder that should vanish
# keeps rounding residue, so Euclid's algorithm returns a wrong gcd.


def _trim(c) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a: tuple, b: tuple) -> tuple:
    return _trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def _pmul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _pdivmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    q, r = [], list(a)
    while len(r) >= len(b):
        f = r[-1] / b[-1]
        q.append(f)
        for j, y in enumerate(b[:-1], len(r) - len(b)):
            r[j] -= f * y
        r.pop()
    return tuple(reversed(q)), _trim(r)


def _monic(a: tuple) -> tuple:
    return tuple(c / a[-1] for c in a) if a else a


def _pgcd(a: tuple, b: tuple) -> tuple:
    """The monic greatest common divisor, by Euclid's algorithm."""
    while b:
        a, b = b, _monic(_pdivmod(a, b)[1])
    return _monic(a)


def _peval(a: tuple, t: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(a):
        v = v * t + c
    return v


def _derivative(a: tuple) -> tuple:
    return tuple(k * c for k, c in enumerate(a))[1:]


def _squarefree(a: tuple) -> tuple:
    return _pdivmod(a, _pgcd(a, _derivative(a)))[0]


def _real_roots(f: tuple) -> list[Fraction]:
    """The real roots of a squarefree polynomial, sorted, by Sturm bisection.

    A rational root comes back exactly; any other root as a rational within
    2**-64 * max(1, |root|) of it.
    """
    if len(f) < 2:
        return []
    if not f[0]:
        # the root 0 exactly, and the others from f / t: bisection cannot
        # snap a root to the grid 1/den when den is large
        return sorted([Fraction(0), *_real_roots(f[1:])])
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        seq.append(tuple(-c for c in _pdivmod(seq[-2], seq[-1])[1]))

    def changes(t: Fraction) -> int:
        signs = [v > 0 for v in (_peval(p, t) for p in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # a rational root p/q of f has q | den, and all roots lie in (-bound, bound)
    den = math.lcm(*(c.denominator for c in _monic(f)))
    bound = Fraction(2 + int(max(map(abs, f)) / abs(f[-1])))
    roots, todo = [], [(-bound, bound, changes(-bound), changes(bound))]
    while todo:
        lo, hi, vlo, vhi = todo.pop()
        mid = (lo + hi) / 2
        if vlo - vhi == 1 and (hi - lo) * 2**64 <= max(1, abs(lo), abs(hi)):
            exact = Fraction(round(mid * den), den)
            roots.append(exact if lo < exact <= hi and not _peval(f, exact) else mid)
        elif vlo > vhi:
            vmid = changes(mid)
            todo += [(lo, mid, vlo, vmid), (mid, hi, vmid, vhi)]
    return sorted(roots)


class _RatFun:
    """A rational function num(t) / den(t) in lowest terms with den monic.

    Mixes with ``Fraction`` in + - * /, so numpy object arrays, ``@`` and
    ``_grow_inverse`` run on it. A product with a constant, and a sum with a
    polynomial, are in lowest terms already and skip the gcd.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: tuple, den: tuple = (Fraction(1),), cancel: bool = False):
        if cancel and num and len(den) > 1:
            g = _pgcd(num, den)
            num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
        lead = den[-1]
        if lead != 1:
            num, den = tuple(c / lead for c in num), tuple(c / lead for c in den)
        self.num, self.den = num, den if num else (Fraction(1),)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __bool__(self) -> bool:
        return bool(self.num)

    def __call__(self, t: Fraction) -> Fraction:
        return _peval(self.num, t) / _peval(self.den, t)

    def __add__(self, other):
        a, b = sorted((self, _lift(other)), key=lambda e: len(e.den))
        if not a.num or not b.num:
            return a if a.num else b
        if len(a.den) == 1:
            return _RatFun(_padd(b.num, _pmul(a.num, b.den)), b.den)
        return _RatFun(
            _padd(_pmul(a.num, b.den), _pmul(b.num, a.den)), _pmul(a.den, b.den), cancel=True
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + -1 * other

    def __rsub__(self, other):
        return -1 * self + other

    def __mul__(self, other):
        a, b = sorted((self, _lift(other)), key=lambda e: len(e.num) + len(e.den))
        if not a.num:
            return a
        if len(a.num) + len(a.den) == 2:
            return _RatFun(tuple(a.num[0] * c for c in b.num), b.den)
        return _RatFun(_pmul(a.num, b.num), _pmul(a.den, b.den), cancel=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        return self * _RatFun(other.den, other.num)

    def __rtruediv__(self, other):
        return _lift(other) / self


def _lift(x) -> _RatFun:
    """x as a ``_RatFun``; ``Fraction`` and int constants become constant functions."""
    return x if isinstance(x, _RatFun) else _RatFun((Fraction(x),) if x else ())
