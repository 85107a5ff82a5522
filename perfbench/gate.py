"""Correctness checks behind the benchmark's fail count.

Every check returns ``None`` when a result is correct and a one-line reason
when it is not. The checks recompute what they can without the code under
test: the forward map is verified through the identity
``(I - Lambda)^T Sigma (I - Lambda) = Omega``, positive definiteness by an
elimination written here, and CLI output against the repository's JSON
schemas. The certifiers of a violating set (``bidirected_connected``,
``has_converging_arborescence``) and of a cycle fiber (``kappa_of``) are the
library's own.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
from semident.cycles import kappa_of
from semident.graphs import bidirected_connected, has_converging_arborescence

#: relative tolerance for float results (scaled by the largest |Sigma| entry)
FLOAT_REL_TOL = 1e-8


def is_rational(a: np.ndarray) -> bool:
    return a.dtype == object


def scale_of(sigma: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(sigma.astype(float)))))


def max_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs((a - b).astype(float))))


def same(a: np.ndarray, b: np.ndarray, scale: float) -> bool:
    """Exact equality on rational arrays, scale-relative closeness on float."""
    if a.shape != b.shape:
        return False
    if is_rational(a) and is_rational(b):
        return bool(np.all(a == b))
    return max_diff(a, b) <= FLOAT_REL_TOL * scale


def positive_definite(a: np.ndarray) -> bool:
    """Exact pivot test for rational matrices, Cholesky for float ones."""
    if not is_rational(a):
        try:
            np.linalg.cholesky(a.astype(float))
            return True
        except np.linalg.LinAlgError:
            return False
    n = a.shape[0]
    work = [[Fraction(v) for v in row] for row in a]
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for r in range(k + 1, n):
            f = work[r][k] / pivot
            if f:
                row, top = work[r], work[k]
                for c in range(k, n):
                    row[c] -= f * top[c]
    return True


def support_error(g, lam: np.ndarray, omega: np.ndarray) -> str | None:
    """Reason why (Lambda, Omega) is not supported on the graph, or None."""
    m = g.m
    if lam.shape != (m, m) or omega.shape != (m, m):
        return f"parameter shape {lam.shape}/{omega.shape}, expected {(m, m)}"
    for i, j in zip(*np.nonzero(lam != 0)):
        if (i + 1, j + 1) not in g.directed:
            return f"lambda[{i + 1},{j + 1}] off the directed support"
    for i, j in zip(*np.nonzero(omega != 0)):
        if i != j and (min(i, j) + 1, max(i, j) + 1) not in g.bidirected:
            return f"omega[{i + 1},{j + 1}] off the bidirected support"
    if not same(omega, omega.T, 1.0):
        return "omega is not symmetric"
    return None


def _times_i_minus(mat: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """mat @ (I - lam), one column update per edge since lam is sparse."""
    out = mat.copy()
    for k, j in zip(*np.nonzero(lam != 0)):
        out[:, j] = out[:, j] - mat[:, k] * lam[k, j]
    return out


def forward_error(g, lam, omega, sigma) -> str | None:
    """Reason why ``sigma`` is not the forward image of (Lambda, Omega)."""
    bad = support_error(g, lam, omega)
    if bad:
        return bad
    scale = scale_of(sigma)
    if not same(sigma, sigma.T, scale):
        return "sigma is not symmetric"
    back = _times_i_minus(_times_i_minus(sigma, lam).T, lam).T
    if not same(back, omega, scale):
        return f"(I-L)^T Sigma (I-L) misses Omega by {max_diff(back, omega):.3g}"
    return None


def point_error(got: tuple, want: tuple, scale: float) -> str | None:
    for name, a, b in zip(("lambda", "omega"), got, want):
        if not same(np.asarray(a), np.asarray(b), scale):
            return f"{name} differs from the generating point by {max_diff(a, b):.3g}"
    return None


def check_phi(g, lam, omega, sigma) -> str | None:
    bad = forward_error(g, lam, omega, sigma)
    if bad is None and not positive_definite(omega):
        return "sampled omega is not positive definite"
    return bad


def check_invert(result, lam, omega, sigma) -> str | None:
    return point_error(result, (lam, omega), scale_of(sigma))


def check_violating_set(g, verdict) -> str | None:
    """A noninjective verdict must carry a certified violating set."""
    if verdict.identifiable:
        return "graph with a planted violating set reported identifiable"
    a, y = verdict.violating_set, verdict.sink
    if a is None or y is None or y not in a or len(a) < 2:
        return f"malformed violating set {a} with sink {y}"
    if not bidirected_connected(g, a):
        return f"violating set {a} is not bidirected-connected"
    if not has_converging_arborescence(g, a, y):
        return f"violating set {a} has no arborescence converging to {y}"
    return None


def check_identifiable(verdict, round_trip_error: str | None) -> str | None:
    """An identifiable verdict must agree with a round trip on the same graph."""
    if not verdict.identifiable:
        return f"ancestral graph reported noninjective via {verdict.violating_set}"
    if round_trip_error:
        return f"identifiable verdict not backed by a round trip: {round_trip_error}"
    return None


def check_witness(g, pair) -> str | None:
    """Both points supported, PD, mapping to one Sigma, and distinct."""
    sigma = pair.sigma
    for label, (lam, omega) in (("a", pair.point_a), ("b", pair.point_b)):
        bad = forward_error(g, lam, omega, sigma)
        if bad:
            return f"point {label}: {bad}"
        if not positive_definite(omega):
            return f"point {label}: omega is not positive definite"
    separation = max(
        max_diff(pair.point_a[0], pair.point_b[0]),
        max_diff(pair.point_a[1], pair.point_b[1]),
    )
    if separation == 0:
        return "the two witness points coincide"
    if is_rational(sigma) and pair.residual != 0:
        return f"rational witness reports residual {pair.residual}"
    return None


def check_singleton_trace(desc, lam, omega, sigma) -> str | None:
    if desc.kind != "singleton" or len(desc.points) != 1:
        return f"expected a singleton fiber, got {desc.kind} with {len(desc.points)} points"
    lam_f, omega_f = (np.asarray(x, dtype=float) for x in desc.points[0])
    return point_error((lam_f, omega_f), (lam.astype(float), omega.astype(float)), scale_of(sigma))


def check_family_trace(g, desc, sigma, step: int, points=None) -> str | None:
    """A family at ``step`` with a nonempty PD interval whose points map to Sigma.

    ``points`` are ``(label, (Lambda, Omega))`` family points to verify; by
    default three points inside the interval, from ``desc.family.evaluate``.
    """
    if desc.kind != "family" or desc.family is None:
        return f"expected a one-parameter family, got {desc.kind}"
    if desc.deficient_step != step:
        return f"family at step {desc.deficient_step}, expected step {step}"
    lo, hi = desc.family.interval
    if not lo < hi:
        return f"empty PD interval {desc.family.interval}"
    if points is None:
        ts = np.linspace(max(lo, -1.0), min(hi, 1.0), 5)[1:-1]
        points = [(f"t={t:.3g}", desc.family.evaluate(float(t))) for t in ts]
    sig = sigma.astype(float)
    for label, (lam_t, omega_t) in points:
        if not positive_definite(omega_t):
            return f"family point at {label} is not positive definite"
        bad = forward_error(g, lam_t, omega_t, sig)
        if bad:
            return f"family point at {label}: {bad}"
    return None


def check_cycle_fiber(fiber, p0) -> str | None:
    """Points are distinct, the first is the input, all share kappa_of.

    With every lambda nonzero and |prod lambda| > 1 the closed-form second
    point has delta_i > 0 and differs from the input, so the fiber must
    hold exactly two points.
    """
    pts = fiber.points
    if not 1 <= len(pts) <= 2 or fiber.cardinality != len(pts):
        return f"cycle fiber with {len(pts)} points"
    if len(pts) == 1 and all(p0.lam) and abs(math.prod(p0.lam)) > 1:
        return "cycle fiber lost its second point (|prod lambda| > 1)"
    if (pts[0].lam, pts[0].delta) != (p0.lam, p0.delta):
        return "first fiber point is not the input point"
    if len(pts) == 2:
        if (pts[1].lam, pts[1].delta) == (p0.lam, p0.delta):
            return "second fiber point repeats the first"
        k0, k1 = kappa_of(pts[0]), kappa_of(pts[1])
        if not np.all(k0 == k1):
            return f"kappa_of differs between the fiber points by {max_diff(k0, k1):.3g}"
    return None


def check_census(report, n: int, classes: int, failing_simple: int, simple_iff_injective: bool) -> str | None:
    """No disagreements, and the paper's class counts on ``n`` nodes.

    ``simple_iff_injective``: no nonsimple class is identifiable either.
    """
    if report.disagreements:
        return f"{len(report.disagreements)} criterion/oracle disagreements"
    if report.unlabeled_total != classes:
        return f"{report.unlabeled_total} unlabeled classes, expected {classes}"
    got = report.unlabeled_count(simple=True, identifiable=False)
    if got != failing_simple:
        return f"{got} simple unlabeled graphs fail on {n} nodes, expected {failing_simple}"
    if simple_iff_injective and report.unlabeled_count(simple=False, identifiable=True):
        return f"identifiable nonsimple classes on {n} nodes, expected none"
    return None


# -- CLI output -----------------------------------------------------------


class SchemaSet:
    """Validators for the CLI's JSON schemas, resolved against each other."""

    def __init__(self, schema_dir: Path):
        import jsonschema
        from referencing import Registry, Resource

        docs = {
            p.name[: -len(".schema.json")]: json.loads(p.read_text())
            for p in sorted(schema_dir.glob("*.schema.json"))
        }
        if not docs:
            raise FileNotFoundError(f"no *.schema.json files in {schema_dir}")
        registry = Registry().with_resources(
            (doc["$id"], Resource.from_contents(doc)) for doc in docs.values()
        )
        self._error_type = jsonschema.ValidationError
        self._validators = {
            name: jsonschema.Draft202012Validator(doc, registry=registry)
            for name, doc in docs.items()
        }
        # domain errors print the shared error object, exit code 2
        self._validators["error"] = jsonschema.Draft202012Validator(
            {"$ref": docs["common"]["$id"] + "#/$defs/error"}, registry=registry
        )

    def error(self, schema: str, data) -> str | None:
        try:
            self._validators[schema].validate(data)
        except self._error_type as exc:
            return f"{schema} schema: {exc.message}"
        return None


def parse_cli_output(code: int, stdout: str, want_code: int = 0):
    """(data, None) for a clean exit with JSON output, else (None, reason)."""
    if code != want_code:
        return None, f"exit code {code}, expected {want_code}"
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"
