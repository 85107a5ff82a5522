"""Fibers of simple directed cycles.

A directed m-cycle is never globally identifiable: each fiber of the
inverse-covariance map (Lambda, Delta) -> (I - Lambda) Delta (I - Lambda)^T
contains at most two points, with a closed form for the second point. This
is the constructive core of the cyclic-case impossibility result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from . import linalg
from .errors import InvalidCycleParamsError, SemidentError
from .graphs import MixedGraph

#: agreement tolerance for float fiber verification
KAPPA_TOL = 1e-10


@dataclass(frozen=True)
class CycleParams:
    """Parameters of the cycle 1 -> 2 -> ... -> m -> 1.

    ``lam[i]`` sits on the edge i+1 -> i+2 (indices mod m), ``delta[i]`` is
    the inverse error variance of node i+1. Membership in the regular set
    requires prod(lam) != 1.
    """

    m: int
    lam: tuple
    delta: tuple

    def __post_init__(self):
        if self.m < 3:
            raise SemidentError("cycle length must be at least 3")
        if len(self.lam) != self.m or len(self.delta) != self.m:
            raise SemidentError("lam and delta must have length m")
        if any(d <= 0 for d in self.delta):
            raise SemidentError("delta entries must be positive")
        if prod(self.lam) == 1:
            raise InvalidCycleParamsError("prod(lambda) = 1 makes I - Lambda singular")

    @property
    def backend(self) -> str:
        return "rational" if isinstance(self.lam[0], Fraction) else "float"


def cycle_graph(m: int) -> MixedGraph:
    return MixedGraph(
        m=m, directed=frozenset((i, i % m + 1) for i in range(1, m + 1))
    )


def kappa_of(p: CycleParams) -> np.ndarray:
    """Inverse covariance K = (I - Lambda) Delta (I - Lambda)^T of the cycle."""
    m = p.m
    k = linalg.zeros(m, m, p.backend)
    for i in range(m):
        j = (i + 1) % m
        k[i, i] = p.delta[i] + p.delta[j] * p.lam[i] ** 2
        k[i, j] = -p.delta[j] * p.lam[i]
        k[j, i] = k[i, j]
    return k


def det_K_minus_i(p: CycleParams, i: int):
    """Closed form for det of K with row and column i removed (1-based i).

    Equals (prod delta) * (1/delta_i + sum_{j<i} ... + sum_{j>i} ...) with
    cyclically wrapped lambda products; cross-checked in tests against the
    direct minor determinant. O(m^2) per index: this is the single-index
    reference, and ``cycle_fiber`` gets all m minors from the O(m)
    recurrence of ``_minors`` instead.
    """
    if not 1 <= i <= p.m:
        raise SemidentError(f"index {i} out of range 1..{p.m}")
    m = p.m
    lam = p.lam
    delta = p.delta
    total = 1 / linalg.parse_entry(delta[i - 1], p.backend)
    for j in range(1, i):
        term = 1 / linalg.parse_entry(delta[j - 1], p.backend)
        for kk in range(j, i):
            term *= lam[kk - 1] ** 2
        total += term
    for j in range(i + 1, m + 1):
        term = 1 / linalg.parse_entry(delta[j - 1], p.backend)
        for kk in range(j, m + i):
            term *= lam[(kk - 1) % m] ** 2
        total += term
    return prod(delta) * total


def _minors(p: CycleParams) -> list:
    """``det_K_minus_i(p, i)`` for i = 1..m in O(m) operations.

    The bracket of ``det_K_minus_i`` sums 1/delta_j times the product of
    lambda_k^2 along the cycle from j to i. Stepping i -> i+1 multiplies
    every such path by lambda_i^2, except the path of j = i+1, which becomes
    empty:

        total[i+1] = lambda_i^2 total[i] + (1 - prod lambda^2) / delta_{i+1}.

    total[1] is a sum over suffix products of lambda^2.
    """
    m = p.m
    w = [1 / linalg.parse_entry(d, p.backend) for d in p.delta]
    sq = [v * v for v in p.lam]
    tail, total = 1, w[0]
    for j in range(m - 1, 0, -1):
        tail *= sq[j]
        total += w[j] * tail
    gap = 1 - prod(sq)
    totals = [total]
    for i in range(1, m):
        total = sq[i - 1] * total + gap * w[i]
        totals.append(total)
    prod_delta = prod(p.delta)
    return [prod_delta * t for t in totals]


@dataclass
class CycleFiber:
    """All parameter points sharing the inverse covariance of the input.

    ``degenerate`` marks the double-root case (prod lambda = -1) where the
    closed-form second point collapses onto the first.
    """

    points: list
    degenerate: bool

    @property
    def cardinality(self) -> int:
        return len(self.points)


def cycle_fiber(p0: CycleParams) -> CycleFiber:
    """Compute the full fiber (one or two points) through ``p0``.

    A zero edge coefficient reduces the problem to an acyclic chain with a
    singleton fiber. Otherwise the closed-form candidate point is computed,
    verified under the inverse-covariance map, and dropped when it collapses
    onto the input or falls outside the parameter domain.
    """
    m = p0.m
    prod_lam = prod(p0.lam)
    degenerate = prod_lam == -1

    if any(v == 0 for v in p0.lam):
        return CycleFiber([p0], degenerate=False)

    # the numerator factor is (prod lambda)^2 - 1: it vanishes exactly when
    # prod(lambda) = -1, matching the double-root characterization, and is
    # confirmed by direct elimination on small cycles. Floats convert to
    # Fractions without loss, so the candidate point is always computed in
    # exact arithmetic and only the output is rounded back.
    pe = _params_on(m, p0.lam, p0.delta, "rational")
    ke = kappa_of(pe)
    prod_lam_e = prod(pe.lam)
    prod_delta = prod(pe.delta)
    shift = prod_delta * (prod_lam_e**2 - 1)
    delta1 = tuple(d + shift / minor for d, minor in zip(pe.delta, _minors(pe)))
    if any(d <= 0 for d in delta1):
        return CycleFiber([p0], degenerate=degenerate)
    # the new point satisfies -delta_{i+1} lambda_i = K_{i,i+1} at its own delta
    lam1 = tuple(-ke[i, (i + 1) % m] / delta1[(i + 1) % m] for i in range(m))
    if prod(lam1) == 1:
        return CycleFiber([p0], degenerate=degenerate)

    p1e = CycleParams(m, lam1, delta1)
    if p1e == pe:
        return CycleFiber([p0], degenerate=degenerate)
    mismatch = linalg.max_abs_diff(ke, kappa_of(p1e))
    if mismatch != 0:
        raise SemidentError(f"closed-form point left the fiber (mismatch {mismatch})")
    if p0.backend == "rational":
        return CycleFiber([p0, p1e], degenerate=False)
    p1 = _params_on(m, lam1, delta1, "float")
    k0 = kappa_of(p0)
    drift = linalg.max_abs_diff(k0, kappa_of(p1))
    if drift > KAPPA_TOL * max(1.0, linalg.max_abs(k0)):
        raise SemidentError(f"rounded point left the fiber (drift {drift})")
    return CycleFiber([p0, p1], degenerate=False)


def _params_on(m: int, lam, delta, backend: str) -> CycleParams:
    entries = (tuple(linalg.parse_entry(v, backend) for v in w) for w in (lam, delta))
    return CycleParams(m, *entries)


def lift_to_phi_fiber(g: MixedGraph, fiber: CycleFiber) -> list:
    """Map cycle fiber points to (Lambda, Omega) pairs of the covariance map.

    Omega is the inverse of the diagonal Delta; the forward covariances of
    all returned pairs coincide.
    """
    if g.bidirected:
        raise SemidentError("cycle graph must have no bidirected edges")
    out = []
    for p in fiber.points:
        backend = p.backend
        lam = linalg.zeros(g.m, g.m, backend)
        for i in range(g.m):
            lam[i, (i + 1) % g.m] = p.lam[i]
        omega = linalg.zeros(g.m, g.m, backend)
        for i in range(g.m):
            omega[i, i] = 1 / linalg.parse_entry(p.delta[i], backend)
        out.append((lam, omega))
    return out
