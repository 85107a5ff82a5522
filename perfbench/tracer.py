"""Layer tracing for the benchmark's traced run, done from outside the library.

``Tracer.install`` wraps every public function of each layer module of
``semident`` and rebinds every module attribute that refers to it, including
names other modules bound with ``from .x import y`` (``semident.witness.phi``,
``semident.census.construct_witness`` ...). The ``MixedGraph`` query methods
are wrapped too, but they are far too frequent for one span per call, so
their calls and time are summed per request instead. ``uninstall`` puts the
original functions back. No file of the library changes.

Each recorded span holds its name, start, end, parent span and request id.
Spans stay in memory until ``write`` runs at the end of the run. Self
time is a call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("graphs", "criterion", "params", "linalg", "inversion", "witness", "cycles", "census")
QUERY_METHODS = ("parents", "children", "siblings", "has_directed", "has_bidirected")

#: small helpers that are counted and timed but leave no span record, so the
#: trace of a census run stays a few megabytes
UNRECORDED = frozenset(
    {
        "graphs.siblings_below", "graphs.parents", "graphs.is_acyclic", "graphs.is_simple",
        "linalg.backend_of", "linalg.check_backend", "linalg.zeros", "linalg.identity",
        "linalg.parse_entry", "linalg.entry_to_json", "linalg.to_array", "linalg.as_float",
        "linalg.max_abs", "linalg.max_abs_diff", "linalg.symmetrize",
    }
)


def _backend(args) -> str:
    """Split linalg time by the dtype of the first array argument."""
    for a in args:
        if isinstance(a, np.ndarray):
            return "rational" if a.dtype == object else "float"
        if a in ("float", "rational"):
            return a
    return "float"


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.linalg_s = {"float": 0.0, "rational": 0.0}
        self.queries: dict[int, list] = {}  # request id -> [calls, seconds]
        self.spans: list[tuple] = []  # (id, name, parent id, request id, start, end)
        self.pd_in_witness = 0
        self.witnesses = 0
        self._request = -1
        self._query_acc = [0, 0.0]
        self._stack: list[list] = [[0.0, 0]]  # frames of [child seconds, span id]
        self._next_id = 0
        self._in_witness = 0
        self._undo: list[tuple] = []

    # -- request bookkeeping ---------------------------------------------------

    def begin_request(self, rid: int) -> None:
        self._request = rid
        self._query_acc = self.queries.setdefault(rid, [0, 0.0])

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        mods = [importlib.import_module(f"semident.{layer}") for layer in LAYERS]
        holders = [
            mod for name, mod in sys.modules.items()
            if name == "semident" or name.startswith("semident.")
        ]
        for layer, mod in zip(LAYERS, mods):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, wrapper)
                            self._undo.append((holder, key, fn))
        cls = sys.modules["semident.graphs"].MixedGraph
        for meth in QUERY_METHODS:
            fn = cls.__dict__[meth]
            setattr(cls, meth, self._wrap_query(fn))
            self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        self.active = False
        for holder, key, fn in reversed(self._undo):
            setattr(holder, key, fn)
        self._undo.clear()

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0])
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(stat, fn)
        record = name not in UNRECORDED
        is_linalg = name.startswith("linalg.")
        is_pd = name == "linalg.is_pd"
        is_witness = name == "witness.construct_witness"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            if record:
                tracer._next_id += 1
                sid = tracer._next_id
            else:
                sid = parent[1]
            if is_pd and tracer._in_witness:
                tracer.pd_in_witness += 1
            if is_witness:
                tracer._in_witness += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[0]
                parent[0] += dur
                stat[0] += 1
                stat[1] += own
                if is_linalg:
                    tracer.linalg_s[_backend(args)] += own
                if is_witness:
                    tracer._in_witness -= 1
                if record:
                    tracer.spans.append((sid, name, parent[1], tracer._request, t0, t1))
            if is_witness:
                tracer.witnesses += 1
            return out

        return wrapper

    def _wrap_generator(self, stat, fn):
        """Count the call; time each step of the generator as the function's own."""
        tracer = self

        def steps(gen):
            while True:
                if not tracer.active:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    yield item
                    continue
                parent = tracer._stack[-1]
                frame = [0.0, parent[1]]
                tracer._stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    tracer._stack.pop()
                    parent[0] += dur
                    stat[1] += dur - frame[0]
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                stat[0] += 1
            return steps(fn(*args, **kwargs))

        return wrapper

    def _wrap_query(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(g, *args):
            if not tracer.active:
                return fn(g, *args)
            t0 = perf_counter()
            out = fn(g, *args)
            dur = perf_counter() - t0
            tracer._stack[-1][0] += dur
            acc = tracer._query_acc
            acc[0] += 1
            acc[1] += dur
            return out

        return wrapper

    # -- results ---------------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def layer_self_s(self, layer: str) -> float:
        total = sum(s[1] for name, s in self.stats.items() if name.startswith(layer + "."))
        if layer == "graphs":
            total += self.query_totals()[1]
        return total

    def query_totals(self) -> tuple[int, float]:
        return (
            sum(q[0] for q in self.queries.values()),
            sum(q[1] for q in self.queries.values()),
        )

    def write(self, spans_path: Path, queries_path: Path, origin: float) -> None:
        """Spans and per-request query totals as tab-separated text.

        Times are seconds from ``origin``.
        """
        with open(spans_path, "w") as fh:
            fh.write("id\tname\tparent\trequest\tstart_s\tend_s\n")
            for sid, name, parent, rid, t0, t1 in self.spans:
                fh.write(f"{sid}\t{name}\t{parent}\t{rid}\t{t0 - origin:.7f}\t{t1 - origin:.7f}\n")
        with open(queries_path, "w") as fh:
            fh.write("request\tcalls\tseconds\n")
            for rid, (n, secs) in sorted(self.queries.items()):
                fh.write(f"{rid}\t{n}\t{secs:.7f}\n")
