"""Shared fixtures: the three reference graphs, their printed points, and a
call counter."""

import sys
from fractions import Fraction

import pytest

from semident import linalg
from semident.graphs import MixedGraph


@pytest.fixture
def iv_graph():
    """Instrumental-variable graph: 1 -> 2 -> 3 with 2 <-> 3."""
    return MixedGraph(m=3, directed={(1, 2), (2, 3)}, bidirected={(2, 3)})


@pytest.fixture
def chain_bow_graph():
    """Five-node chain with four bidirected chords; noninjective but simple."""
    return MixedGraph(
        m=5,
        directed={(1, 2), (2, 3), (3, 4), (4, 5)},
        bidirected={(1, 4), (1, 5), (2, 4), (3, 5)},
    )


@pytest.fixture
def chain_bow_point():
    """A parameter point where the final step of the inversion degenerates."""
    lam = linalg.zeros(5, 5, "rational")
    lam[0, 1] = Fraction(3)
    lam[1, 2] = Fraction(-1, 2)
    lam[2, 3] = Fraction(1)
    lam[3, 4] = Fraction(1)
    omega = linalg.zeros(5, 5, "rational")
    for i in range(5):
        omega[i, i] = Fraction(2)
    for i, j in [(1, 4), (1, 5), (2, 4), (3, 5)]:
        omega[i - 1, j - 1] = Fraction(1)
        omega[j - 1, i - 1] = Fraction(1)
    return lam, omega


@pytest.fixture
def spiked_chain_graph():
    """Four-node chain plus an extra node tied in by bidirected edges."""
    return MixedGraph(
        m=5,
        directed={(1, 2), (2, 3), (3, 4)},
        bidirected={(1, 3), (1, 4), (1, 5), (2, 4)},
    )


@pytest.fixture
def spiked_chain_point():
    """Point whose fiber is a singleton despite a rank-deficient step."""
    lam = linalg.zeros(5, 5, "rational")
    lam[0, 1] = Fraction(1)
    lam[1, 2] = Fraction(1)
    lam[2, 3] = Fraction(1)
    omega = linalg.to_array(
        [
            [2, 0, -1, -1, -1],
            [0, 1, 0, -1, 0],
            [-1, 0, 1, 0, 0],
            [-1, -1, 0, 3, 0],
            [-1, 0, 0, 0, 3],
        ],
        "rational",
    )
    return lam, omega


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) swaps module.name, and every other semident
    binding of the same function, for a wrapper that records each call's
    arguments in the returned list."""

    def install(module, name):
        fn = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if mod.__name__.startswith("semident") and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install
