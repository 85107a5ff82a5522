"""One SHA-256 over the exact outputs of the rational backend on seeded inputs.

The rational backend reproduces the paper's constructions bit for bit, so a
change to its arithmetic (integer kernels in place of ``Fraction`` loops,
say) must leave every value it returns unchanged. This test hashes the
rational outputs of ``phi``, ``invert`` (error types and messages included),
``rank_condition``, ``is_pd``, ``construct_witness``, ``cycle_fiber``,
``fiber_trace`` kinds and deficient steps, and ``census_report(3)`` JSON, and
compares the hash with the one stored in ``tests/data/golden_digest.sha256``.
Only exact values and floats converted from them enter the hash, so it does
not depend on the BLAS build.

After an intended change of output, regenerate the stored hash with
``python tests/test_golden_digest.py > tests/data/golden_digest.sha256``.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import prod
from pathlib import Path

from semident import linalg
from semident.census import census_report
from semident.criterion import check_global_identifiability
from semident.cycles import CycleParams, cycle_fiber
from semident.errors import SemidentError
from semident.graphs import MixedGraph
from semident.inversion import fiber_trace, invert, rank_condition
from semident.params import phi, sample_parameters
from semident.witness import construct_witness

DIGEST_FILE = Path(__file__).parent / "data" / "golden_digest.sha256"


def _mat(a):
    return [[str(v) for v in row] for row in a]


def _random_graph(rng, m, p_dir, p_bi):
    pairs = list(combinations(range(1, m + 1), 2))
    return MixedGraph(
        m=m,
        directed=frozenset(p for p in pairs if rng.random() < p_dir),
        bidirected=frozenset(p for p in pairs if rng.random() < p_bi),
    )


def _perturbed(sigma, rng):
    """sigma with one symmetric pair of entries moved: mostly off the image."""
    out = sigma.copy()
    i, j = sorted(rng.sample(range(sigma.shape[0]), 2))
    out[i, j] = out[j, i] = out[i, j] + Fraction(rng.randint(1, 9), 4)
    return out


def _invert_record(g, sigma):
    try:
        lam, omega = invert(g, sigma)
    except SemidentError as exc:
        return [type(exc).__name__, str(exc)]
    return [_mat(lam), _mat(omega)]


def _graph_records():
    rng = random.Random(20261018)
    shapes = [(rng.randint(2, 9), 0.5, 0.35) for _ in range(40)]
    shapes += [(14, 0.3, 0.6), (18, 0.25, 0.5), (20, 0.2, 0.7)]
    for k, (m, p_dir, p_bi) in enumerate(shapes):
        g = _random_graph(rng, m, p_dir, p_bi)
        lam, omega = sample_parameters(g, seed=k, backend="rational")
        sigma = phi(g, lam, omega)
        rec = {
            "graph": [sorted(g.directed), sorted(g.bidirected)],
            "sigma": _mat(sigma),
            "invert": _invert_record(g, sigma),
            "invert_perturbed": _invert_record(g, _perturbed(sigma, rng)),
            "steps": [],
        }
        for i in range(1, m):
            step = rank_condition(g, lam, omega, i)
            rec["steps"].append([step.rank, step.required_rank, _mat(step.matrix)])
        if not check_global_identifiability(g).identifiable:
            pair = construct_witness(g, backend="rational")
            rec["witness"] = [
                *(_mat(a) for a in (*pair.point_a, *pair.point_b, pair.sigma)),
                repr(pair.separation),
                repr(pair.residual),
            ]
        yield rec


def _is_pd_records():
    rng = random.Random(5)
    for k in range(60):
        n = rng.randint(0, 12)
        entries = [
            [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 8))) for _ in range(n)]
            for _ in range(n)
        ]
        a = linalg.to_array(entries, "rational") if n else linalg.zeros(0, 0, "rational")
        if k % 3:
            # symmetric, and every other one pushed toward definiteness
            a = a + a.T
            for i in range(n):
                a[i, i] += Fraction(rng.randint(0, 8 * n), 2) * (k % 2)
        yield linalg.is_pd(a)


def _cycle_records():
    rng = random.Random(99)
    cases = []
    for m in list(range(3, 31)) + [40, 48]:
        while True:
            lam = tuple(Fraction(rng.randint(-16, 16), rng.choice((4, 8, 3))) for _ in range(m))
            delta = tuple(Fraction(rng.randint(1, 32), 8) for _ in range(m))
            if prod(lam) != 1:
                break
        cases.append((m, lam, delta))
    one = Fraction(1)
    cases.append((4, (one, -one, one, one), (Fraction(2), one, one, Fraction(3))))
    cases.append((3, (Fraction(0), Fraction(2), Fraction(3)), (one, one, one)))
    cases.append((5, (Fraction(-1, 2), Fraction(2), one, one, one), (one,) * 5))
    for m, lam, delta in cases:
        fiber = cycle_fiber(CycleParams(m, lam, delta))
        yield [
            fiber.degenerate,
            [[[str(v) for v in p.lam], [str(v) for v in p.delta]] for p in fiber.points],
        ]


def _trace_records():
    spiked = MixedGraph(
        m=5, directed={(1, 2), (2, 3), (3, 4)}, bidirected={(1, 3), (1, 4), (1, 5), (2, 4)}
    )
    spiked_lam = linalg.zeros(5, 5, "rational")
    for i in range(3):
        spiked_lam[i, i + 1] = Fraction(1)
    spiked_omega = linalg.to_array(
        [
            [2, 0, -1, -1, -1],
            [0, 1, 0, -1, 0],
            [-1, 0, 1, 0, 0],
            [-1, -1, 0, 3, 0],
            [-1, 0, 0, 0, 3],
        ],
        "rational",
    )
    family_omega = spiked_omega.copy()
    family_omega[0, 4] = family_omega[4, 0] = Fraction(0)
    pole = MixedGraph(m=4, directed={(1, 2), (2, 3)}, bidirected={(1, 2), (1, 3), (3, 4)})
    iv = MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)})
    sigmas = [
        (spiked, phi(spiked, spiked_lam, spiked_omega)),
        (spiked, phi(spiked, spiked_lam, family_omega)),
        (pole, phi(pole, *sample_parameters(pole, 17, backend="rational"))),
        (iv, phi(iv, *sample_parameters(iv, 3, backend="rational"))),
    ]
    for g, sigma in sigmas:
        desc = fiber_trace(g, sigma)
        yield [desc.kind, desc.deficient_step, len(desc.points), desc.note]


def golden_digest() -> str:
    """SHA-256 of every record, serialized as canonical JSON."""
    h = hashlib.sha256()
    sections = (
        ("graphs", _graph_records()),
        ("is_pd", _is_pd_records()),
        ("cycles", _cycle_records()),
        ("trace", _trace_records()),
        ("census", [census_report(3).to_json()]),
    )
    for name, records in sections:
        for rec in records:
            h.update(json.dumps([name, rec], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_rational_outputs_match_golden_digest():
    expected = DIGEST_FILE.read_text().split()[0]
    assert golden_digest() == expected


if __name__ == "__main__":
    print(golden_digest())
