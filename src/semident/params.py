"""Parameter matrices and the covariance parametrizations.

The forward map sends a pair (Lambda, Omega) with supports given by the
directed and bidirected edges to the covariance matrix

    Sigma = (I - Lambda)^{-T} Omega (I - Lambda)^{-1},

and its companion sends (Lambda, Delta) with diagonal Delta to the inverse
covariance (I - Lambda) Delta (I - Lambda)^T. Everything is generic over the
float/rational backend (see linalg).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import (
    NotPositiveDefiniteError,
    SemidentError,
    SingularIminusLambdaError,
    SupportViolationError,
)
from .graphs import MixedGraph, topological_order


def check_lambda_support(g: MixedGraph, lam: np.ndarray) -> None:
    """Raise unless lambda is zero off the directed-edge support."""
    if lam.shape != (g.m, g.m):
        raise SupportViolationError(
            f"lambda has shape {lam.shape}, expected {(g.m, g.m)}"
        )
    for i in range(g.m):
        for j in range(g.m):
            if lam[i, j] != 0 and not g.has_directed(i + 1, j + 1):
                raise SupportViolationError(
                    f"lambda[{i + 1},{j + 1}] nonzero but {i + 1}->{j + 1} not an edge"
                )


def check_omega_support(g: MixedGraph, omega: np.ndarray) -> None:
    """Raise unless omega is symmetric, supported on B, and PD."""
    if omega.shape != (g.m, g.m):
        raise SupportViolationError(
            f"omega has shape {omega.shape}, expected {(g.m, g.m)}"
        )
    for i in range(g.m):
        for j in range(i + 1, g.m):
            if omega[i, j] != omega[j, i]:
                raise SupportViolationError("omega is not symmetric")
            if omega[i, j] != 0 and not g.has_bidirected(i + 1, j + 1):
                raise SupportViolationError(
                    f"omega[{i + 1},{j + 1}] nonzero but {i + 1}<->{j + 1} not an edge"
                )
    if not linalg.is_pd(omega):
        raise NotPositiveDefiniteError("omega is not positive definite")


def _i_minus_lambda(g: MixedGraph, lam: np.ndarray) -> np.ndarray:
    """Float I - Lambda; raises SingularIminusLambdaError when it is near singular."""
    a = linalg.identity(g.m, "float") - lam
    if abs(np.linalg.det(a)) < 1e-12:
        raise SingularIminusLambdaError("I - Lambda is singular")
    return a


def _i_minus_lambda_scaled(lam: np.ndarray) -> tuple[np.ndarray, int]:
    """(a, d) with I - Lambda == a / d for a rational Lambda.

    ``a`` is the object array of Python ints d * I - N, where Lambda == N / d
    over its common denominator d.
    """
    ints, d = linalg._scaled(lam)
    a = -ints
    for i in range(len(a)):
        a[i, i] += d
    return a, d


def _inverse_scaled(lam: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, den) with (I - Lambda)^{-1} == x / den for a rational Lambda."""
    a, d = _i_minus_lambda_scaled(lam)
    try:
        rows, den = linalg._inverse(a)
    except SemidentError as exc:
        raise SingularIminusLambdaError("I - Lambda is singular") from exc
    # (a / d)^{-1} == d * a^{-1}, over its smallest common denominator
    x = np.array(rows, dtype=object).reshape(a.shape) * d
    k = math.gcd(den, *x.flat)
    return x // k, den // k


def i_minus_lambda_inv(g: MixedGraph, lam: np.ndarray) -> np.ndarray:
    """(I - Lambda)^{-1}, raising SingularIminusLambdaError when singular."""
    if linalg.backend_of(lam) == "rational":
        return linalg._fractions(*_inverse_scaled(lam))
    return linalg.mat_inv(_i_minus_lambda(g, lam))


def phi(g: MixedGraph, lam: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Forward covariance map (I - Lambda)^{-T} Omega (I - Lambda)^{-1}.

    Rational: the congruence is taken on the integer inverse of
    ``_inverse_scaled``, so no ``Fraction`` is built before the output's.
    """
    check_lambda_support(g, lam)
    check_omega_support(g, omega)
    if linalg.backend_of(lam) == "rational":
        return linalg._congruence(*_inverse_scaled(lam), omega)
    return linalg.congruence(i_minus_lambda_inv(g, lam), omega)


def kappa(g: MixedGraph, lam: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Inverse-covariance map (I - Lambda) Delta (I - Lambda)^T.

    ``delta`` is a length-m vector of positive reals; satisfies
    kappa(g, L, D) = phi(g, L, D^{-1})^{-1}.
    """
    check_lambda_support(g, lam)
    backend = linalg.backend_of(lam)
    if any(d <= 0 for d in delta):
        raise NotPositiveDefiniteError("delta entries must be positive")
    if backend == "rational":
        a, d = _i_minus_lambda_scaled(lam)
    else:
        a = _i_minus_lambda(g, lam)
    dmat = linalg.zeros(g.m, g.m, backend)
    for i in range(g.m):
        dmat[i, i] = linalg.parse_entry(delta[i], backend)
    if backend == "rational":
        return linalg._congruence(a.T, d, dmat)
    return linalg.congruence(a.T, dmat)


def path_inverse(g: MixedGraph, lam: np.ndarray) -> np.ndarray:
    """(I - Lambda)^{-1} computed by summing path products over directed paths.

    Entry (i, j) is the sum over directed paths from i to j of the product of
    lambda entries along the path; computed by dynamic programming in
    topological order (no explicit path enumeration). Must agree with the
    numerically inverted I - Lambda; used as a cross-check oracle.
    """
    order = topological_order(g)
    check_lambda_support(g, lam)
    backend = linalg.backend_of(lam)
    inv = linalg.identity(g.m, backend)
    for j in order:
        for k in g.parents(j):
            # every path into j ends with an edge k -> j
            inv[:, j - 1] = inv[:, j - 1] + inv[:, k - 1] * lam[k - 1, j - 1]
    return inv


def sample_parameters(
    g: MixedGraph,
    seed: int,
    scale: float = 1.0,
    backend: str = "float",
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a random (Lambda, Omega) pair valid for the graph.

    Lambda entries are uniform on [-scale, scale] over the directed support.
    Omega takes uniform off-diagonal entries on the bidirected support and a
    diagonal of (row absolute sum + 1) so that positive definiteness holds by
    diagonal dominance. Deterministic per seed. The rational backend draws
    fractions with denominator 8 so that exact round-trips stay cheap.
    """
    linalg.check_backend(backend)
    if not math.isfinite(scale):
        raise SemidentError(f"scale must be finite, got {scale}")
    rng = random.Random(seed)
    if backend == "float":
        return _sample_float(g, rng, scale)

    def draw():
        num = rng.randint(-8 * 4, 8 * 4)
        val = Fraction(num, 8)
        return val * Fraction(scale).limit_denominator(10**6)

    lam = linalg.zeros(g.m, g.m, backend)
    for i, j in sorted(g.directed):
        lam[i - 1, j - 1] = draw()
    omega = linalg.zeros(g.m, g.m, backend)
    for i, j in sorted(g.bidirected):
        v = draw()
        omega[i - 1, j - 1] = v
        omega[j - 1, i - 1] = v
    one = linalg.parse_entry(1, backend)
    for i in range(g.m):
        row_sum = sum(abs(omega[i, j]) for j in range(g.m) if j != i)
        omega[i, i] = row_sum + one
    return lam, omega


def _sample_float(g: MixedGraph, rng: random.Random, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """``sample_parameters``' float draw, into flat lists; each array is built once.

    One ``rng.uniform`` per directed edge, then one per bidirected edge, each
    in sorted order; a diagonal entry is its row's absolute sum, taken in
    column order, plus one.
    """
    m = g.m
    lam, omega, row_sum = [0.0] * (m * m), [0.0] * (m * m), [0.0] * m
    for i, j in sorted(g.directed):
        lam[(i - 1) * m + j - 1] = rng.uniform(-scale, scale)
    for i, j in sorted(g.bidirected):
        v = omega[(i - 1) * m + j - 1] = omega[(j - 1) * m + i - 1] = rng.uniform(-scale, scale)
        # in sorted pair order every row meets its columns in ascending order
        row_sum[i - 1] += abs(v)
        row_sum[j - 1] += abs(v)
    omega[:: m + 1] = [r + 1.0 for r in row_sum]
    return np.array(lam).reshape(m, m), np.array(omega).reshape(m, m)


# -- serialization -----------------------------------------------------


def matrix_to_json(a: np.ndarray, labels: list[str] | None = None) -> dict:
    """Row-major JSON form with a labels field; Fractions become 'p/q' strings."""
    n = a.shape[0]
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    return {
        "labels": list(labels),
        "entries": [[linalg.entry_to_json(v) for v in row] for row in a],
    }


def matrix_from_json(data, backend: str = "float") -> np.ndarray:
    """Inverse of matrix_to_json; accepts either the dict form or a bare list."""
    rows = data["entries"] if isinstance(data, dict) else data
    return linalg.to_array(rows, backend)
