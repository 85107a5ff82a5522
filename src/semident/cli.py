"""Command-line interface.

Batch, non-interactive front end: each subcommand reads graph/matrix files,
runs one analysis, and prints JSON (CSV available for the census). Exit
status 0 on success, 2 on domain errors such as a rank-deficient inversion
step, 1 on usage errors, and 141 (128 + SIGPIPE, what a shell reports for a
writer killed by a closed pipe) when the reader closes standard output
early; that last case prints nothing to stderr. Identical configuration and
seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import linalg
from .census import census_report
from .criterion import check_global_identifiability
from .cycles import CycleParams, cycle_fiber
from .errors import (
    GraphParseError,
    InconsistentSystemError,
    RankDeficientStepError,
    SemidentError,
)
from .graphs import load_graph
from .inversion import fiber_trace, invert
from .params import matrix_from_json, matrix_to_json, phi, sample_parameters
from .witness import construct_witness


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1 (argparse's default of 2 is reserved for domain errors)
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _checked(convert, ok, what: str):
    """An argparse type: ``convert`` the text, and accept it only if ``ok``."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_finite_float = _checked(float, math.isfinite, "a finite number")


#: exit status when the reader closes standard output early (128 + SIGPIPE)
EXIT_BROKEN_PIPE = 141


class UsageError(SemidentError):
    """Invalid input that is the caller's fault (bad file, wrong shape)."""


def _read_graph(path: str):
    try:
        return load_graph(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read graph file {path}: {exc}") from exc
    except (GraphParseError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot parse graph file {path}: {exc}") from exc


def _read_matrix(path: str, backend: str, m: int):
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read matrix file {path}: {exc}") from exc
    try:
        mat = matrix_from_json(data, backend)
    except (ArithmeticError, KeyError, TypeError, ValueError, SemidentError) as exc:
        raise UsageError(f"cannot parse matrix file {path}: {exc}") from exc
    if mat.shape != (m, m):
        raise UsageError(
            f"matrix in {path} has shape {'x'.join(map(str, mat.shape))}, "
            f"expected {m}x{m} to match the graph"
        )
    return mat


def _finite(v: float) -> float | None:
    return None if math.isinf(v) else v


def _pair_json(lam, omega) -> dict:
    return {"lambda": matrix_to_json(lam), "omega": matrix_to_json(omega)}


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_check(args) -> int:
    g = _read_graph(args.graph)
    _emit(check_global_identifiability(g).to_json(g))
    return 0


def _cmd_invert(args) -> int:
    g = _read_graph(args.graph)
    sigma = _read_matrix(args.sigma, args.backend, g.m)
    lam, omega = invert(g, sigma)
    _emit(_pair_json(lam, omega))
    return 0


def _cmd_witness(args) -> int:
    g = _read_graph(args.graph)
    pair = construct_witness(g, backend=args.backend)
    _emit(
        {
            "point_a": _pair_json(*pair.point_a),
            "point_b": _pair_json(*pair.point_b),
            "sigma": matrix_to_json(pair.sigma),
            "separation": float(pair.separation),
            "residual": float(pair.residual),
        }
    )
    return 0


def _cmd_trace(args) -> int:
    g = _read_graph(args.graph)
    sigma = _read_matrix(args.sigma, args.backend, g.m)
    desc = fiber_trace(g, sigma)
    out = {
        "kind": desc.kind,
        "deficient_step": desc.deficient_step,
        "note": desc.note,
        "points": [_pair_json(l, o) for l, o in desc.points],
    }
    if desc.family is not None:
        fam = desc.family
        out["family"] = {
            "base": _pair_json(*fam.base),
            "direction": {
                "step": fam.direction["step"],
                "lambda": [[i, j, v] for (i, j), v in sorted(fam.direction["lambda"].items())],
                "omega": [[i, j, v] for (i, j), v in sorted(fam.direction["omega"].items())],
            },
            "interval": [_finite(fam.interval[0]), _finite(fam.interval[1])],
        }
    _emit(out)
    return 0


def _parse_scalar_list(text: str, backend: str) -> tuple:
    try:
        return tuple(linalg.parse_entry(v, backend) for v in text.split(","))
    except (ArithmeticError, ValueError) as exc:
        raise UsageError(f"cannot parse scalar list {text!r}: {exc}") from exc


def _cmd_cycle_fiber(args) -> int:
    lam = _parse_scalar_list(args.lam, args.backend)
    delta = _parse_scalar_list(args.delta, args.backend)
    if len(lam) != len(delta):
        raise UsageError("--lam and --delta must have the same length")
    params = CycleParams(len(lam), lam, delta)
    fiber = cycle_fiber(params)
    _emit(
        {
            "m": params.m,
            "degenerate": fiber.degenerate,
            "cardinality": fiber.cardinality,
            "points": [
                {
                    "lam": [linalg.entry_to_json(v) for v in p.lam],
                    "delta": [linalg.entry_to_json(v) for v in p.delta],
                }
                for p in fiber.points
            ],
        }
    )
    return 0


def _cmd_sample(args) -> int:
    g = _read_graph(args.graph)
    lam, omega = sample_parameters(g, args.seed, scale=args.scale, backend=args.backend)
    sigma = phi(g, lam, omega)
    out = _pair_json(lam, omega)
    out["sigma"] = matrix_to_json(sigma)
    _emit(out)
    return 0


def _cmd_census(args) -> int:
    if not 1 <= args.n <= 5:
        raise UsageError(f"--n must be between 1 and 5, got {args.n}")
    report = census_report(args.n, simple_only=args.simple_only, jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        _emit(report.to_json())
    return 0 if not report.disagreements else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="semident", description=__doc__)
    default_backend = os.environ.get("SEMIDENT_BACKEND", "float")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, backend=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        if backend:
            p.add_argument(
                "--backend",
                choices=("float", "rational"),
                default=default_backend,
                help="arithmetic backend (default from SEMIDENT_BACKEND, else float)",
            )
        return p

    p = add("check", _cmd_check, backend=False, help="decide global identifiability of a graph")
    p.add_argument("graph", help="graph file (edge-list text or JSON)")

    p = add("invert", _cmd_invert, help="recover (Lambda, Omega) from a covariance")
    p.add_argument("graph")
    p.add_argument("sigma", help="covariance matrix as JSON")

    p = add("witness", _cmd_witness, help="construct two points with equal covariance")
    p.add_argument("graph")

    p = add("trace", _cmd_trace, help="describe the fiber of a covariance")
    p.add_argument("graph")
    p.add_argument("sigma")

    p = add("cycle-fiber", _cmd_cycle_fiber, help="fiber of a directed cycle")
    p.add_argument("--lam", required=True, help="comma-separated edge coefficients")
    p.add_argument("--delta", required=True, help="comma-separated error precisions")

    p = add("sample", _cmd_sample, help="draw a random valid parameter pair")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=_finite_float, default=1.0)

    p = add("census", _cmd_census, backend=False, help="enumerate and classify small graphs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--simple-only", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_BROKEN_PIPE
    return status


def _run(args) -> int:
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"semident: error: {exc}", file=sys.stderr)
        return 1
    except SemidentError as exc:
        _emit({"error": _error_json(exc)})
        return 2


def _discard_stdout() -> None:
    """Point standard output's file descriptor at the null device.

    The recipe of Python's ``signal`` documentation for SIGPIPE: output still
    buffered then goes nowhere when the interpreter flushes it on exit,
    instead of raising a second ``BrokenPipeError`` there. A stand-in stdout
    without a descriptor is left as it is.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _error_json(exc: SemidentError) -> dict:
    """The error object of a domain error; an inversion step error adds its step
    and, when it has one, its residual."""
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, (RankDeficientStepError, InconsistentSystemError)):
        error["step"] = exc.step
        residual = getattr(exc, "residual", None)
        if residual is not None:
            error["residual"] = residual
    return error


if __name__ == "__main__":
    raise SystemExit(main())
