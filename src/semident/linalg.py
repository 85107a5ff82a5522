"""Small backend-generic linear algebra layer.

Matrices live in numpy arrays with one of two element types:

* ``float`` backend: ordinary ``float64`` arrays, numpy/LAPACK routines.
* ``rational`` backend: ``object`` arrays holding ``fractions.Fraction``.
  Elimination, products and the positive-definiteness test run on Python
  integers (rows or matrices scaled by a common denominator) and build each
  ``Fraction`` once, at the end.

The rational backend exists because the inverse of the covariance
parametrization is a rational map, so exact round-trips are possible on
rational inputs and serve as ground truth when float tolerances are in doubt.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import SemidentError

BACKENDS = ("float", "rational")

#: relative singular-value threshold for numeric rank decisions
RANK_REL_TOL = 1e-10


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise SemidentError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


def backend_of(a: np.ndarray) -> str:
    """Infer the backend from an array's dtype."""
    return "rational" if a.dtype == object else "float"


def parse_entry(value, backend: str):
    """Convert a scalar (int, float, Fraction, or 'p/q' string) to the backend type.

    NaN and infinite floats raise SemidentError on both backends.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise SemidentError(f"entry {value} is not finite")
    if backend == "rational":
        return Fraction(value)
    return float(Fraction(value)) if isinstance(value, str) else float(value)


def entry_to_json(value):
    """JSON-friendly form of a matrix entry ('p/q' string for Fractions)."""
    if isinstance(value, Fraction):
        return str(value) if value.denominator != 1 else str(value.numerator)
    return float(value)


#: numpy element type of each backend
_DTYPE = {"float": float, "rational": object}


def to_array(rows, backend: str) -> np.ndarray:
    """Build a backend matrix (or vector) from nested scalars."""
    check_backend(backend)
    rows = list(rows)
    is_row = [isinstance(row, (list, tuple, np.ndarray)) for row in rows]
    if any(is_row):
        if not all(is_row):
            raise SemidentError("matrix mixes rows and scalars")
        if len({len(row) for row in rows}) > 1:
            raise SemidentError("matrix rows have different lengths")
        entries = [[parse_entry(v, backend) for v in row] for row in rows]
    else:
        entries = [parse_entry(v, backend) for v in rows]
    return np.array(entries, dtype=_DTYPE[backend])


def zeros(nrows: int, ncols: int, backend: str) -> np.ndarray:
    return np.full((nrows, ncols), parse_entry(0, backend), dtype=_DTYPE[backend])


def identity(n: int, backend: str) -> np.ndarray:
    a = zeros(n, n, backend)
    np.fill_diagonal(a, parse_entry(1, backend))
    return a


def as_float(a: np.ndarray) -> np.ndarray:
    if a.ndim == 1:
        return np.array([float(v) for v in a], dtype=float)
    return np.array([[float(v) for v in row] for row in a], dtype=float)


def max_abs(a: np.ndarray) -> float:
    """Largest absolute entry as a float (0.0 for an empty array).

    Rational: the exact maximum over a common denominator, rounded once.
    Rounding is monotone, so this is the largest rounded entry.
    """
    if a.size == 0:
        return 0.0
    if backend_of(a) == "float":
        return float(np.max(np.abs(a)))
    ints, d = _integers(a.flat)
    return max(map(abs, ints)) / d


def max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """``max_abs(a - b)``; exact on two rational arrays, as ``max_abs`` is."""
    a, b = np.broadcast_arrays(np.atleast_2d(a), np.atleast_2d(b))
    if "float" in (backend_of(a), backend_of(b)):
        return max_abs(a.astype(float) - b.astype(float))
    ai, da = _integers(a.flat)
    bi, db = _integers(b.flat)
    d = math.lcm(da, db)
    fa, fb = d // da, d // db
    return max((abs(x * fa - y * fb) for x, y in zip(ai, bi)), default=0) / d


def mat_inv(a: np.ndarray) -> np.ndarray:
    """Matrix inverse: LAPACK (float) or exact reduction of [A | I] (rational)."""
    if backend_of(a) == "float":
        return np.linalg.inv(a)
    rows, den = _inverse(a)
    return _fractions(np.array(rows, dtype=object).reshape(a.shape), den)


def _inverse(a: np.ndarray) -> tuple[list[list[int]], int]:
    """(rows, den) with a^{-1} == rows / den, by exact reduction of [A | I].

    ``a`` is a square object array of ``Fraction``s or Python ints. Raises
    ``SemidentError`` when ``a`` is singular.
    """
    n = len(a)
    aug = []
    for i, row in enumerate(a.tolist()):
        ints, d = _integers(row)
        aug.append(ints + [d if k == i else 0 for k in range(n)])  # row i of [A | I], scaled
    rows, den, pivots = _row_echelon(aug)
    # [A | I] has rank n; A is invertible iff its own columns hold every pivot
    if pivots != list(range(n)):
        raise SemidentError("matrix is singular")
    return [row[n:] for row in rows], den


def matrix_rank(a: np.ndarray) -> int:
    """Rank of a matrix: SVD threshold (float) or exact elimination (rational).

    Float: the singular values above ``RANK_REL_TOL`` times the largest one
    (none when the matrix is zero).
    """
    if a.size == 0:
        return 0
    if backend_of(a) == "float":
        sv = np.linalg.svd(a, compute_uv=False)
        return int(np.count_nonzero(sv > RANK_REL_TOL * sv[0]))
    return len(_row_echelon(_integer_rows(a))[2])


def _integers(values) -> tuple[list[int], int]:
    """(ints, d) with values == ints / d, d the lcm of the denominators."""
    pairs = [v.as_integer_ratio() for v in values]
    d = math.lcm(*{q for _, q in pairs})
    return [n if q == d else n * (d // q) for n, q in pairs], d


def _integer_rows(a: np.ndarray) -> list[list[int]]:
    """Each row of a rational matrix scaled to integers by its own common denominator."""
    return [_integers(row)[0] for row in a.tolist()]


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(ints, d) with a == ints / d: an object array of Python ints of a's shape."""
    ints, d = _integers(a.flat)
    return np.array(ints, dtype=object).reshape(a.shape), d


def _fractions(ints: np.ndarray, den: int) -> np.ndarray:
    """The object array ``ints / den``, one ``Fraction`` per entry."""
    return np.array([Fraction(v, den) for v in ints.flat], dtype=object).reshape(ints.shape)


def _row_echelon(rows: list[list[int]]) -> tuple[list[list[int]], int, list[int]]:
    """Reduced row echelon form of a rational matrix by fraction-free elimination.

    ``rows`` are the matrix's rows scaled to integers (``_integer_rows``);
    scaling a row keeps the row space, and so the reduced form. Gauss-Jordan
    elimination then runs on the Python integers (Bareiss 1968), in place: the
    update ``(p * row - a * pivot_row) // d`` of every other row by the pivot
    ``p`` divides exactly by the previous pivot ``d``, so entries stay minors
    of the integer matrix instead of growing geometrically.

    Returns ``(rows, den, pivots)``. The reduced form is ``rows / den``: the
    first ``len(pivots)`` rows hold ``den`` at their pivot column, the others
    are zero. ``pivots`` lists the pivot columns in order.
    """
    nrows = len(rows)
    pivots: list[int] = []
    d = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        if top == nrows:
            break
        pivot_row = next((r for r in range(top, nrows) if rows[r][col]), None)
        if pivot_row is None:
            continue
        rows[top], rows[pivot_row] = rows[pivot_row], rows[top]
        prow = rows[top]
        p = prow[col]
        for r, row in enumerate(rows):
            if r == top:
                continue
            a = row[col]
            if a:
                rows[r] = [(p * x - a * y) // d for x, y in zip(row, prow)]
            elif p != d:
                rows[r] = [p * x // d for x in row]
        pivots.append(col)
        d = p
    return rows, d, pivots


def matmul(*operands: np.ndarray):
    """The product of matrices and vectors, associated from the left.

    Float: the chained ``@``, in the same order. Rational: one common
    denominator per operand, an integer matmul, and one ``Fraction`` per
    output entry (a ``Fraction`` when the product is a scalar).
    """
    if backend_of(operands[0]) == "float":
        return reduce(operator.matmul, operands)
    scaled = [_scaled(a) for a in operands]
    s = reduce(operator.matmul, (ints for ints, _ in scaled))
    den = math.prod(d for _, d in scaled)
    if np.ndim(s) == 0:
        return Fraction(s, den)
    return _fractions(s, den)


def congruence(x: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The symmetric part of x^T omega x (the congruence of a symmetric omega).

    Float: ``(s + s.T) / 2`` of the matmul product ``s``, which removes the
    rounding asymmetry. Rational: one common denominator per matrix, an
    integer matmul, and one ``Fraction`` per upper-triangle entry, mirrored.
    """
    if backend_of(x) == "float":
        s = x.T @ omega @ x
        return (s + s.T) / 2.0
    return _congruence(*_scaled(x), omega)


def _congruence(xi: np.ndarray, dx: int, omega: np.ndarray) -> np.ndarray:
    """``congruence(xi / dx, omega)`` for an object array ``xi`` of Python ints."""
    oi, do = _scaled(omega)
    s = xi.T @ oi @ xi
    den = 2 * dx * dx * do
    n = s.shape[0]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            out[i, j] = out[j, i] = Fraction(s[i, j] + s[j, i], den)
    return out


@dataclass
class SolveResult:
    """Outcome of solving A x = b in the least structured sense.

    Attributes:
        solution: a particular solution (free variables set to zero), or None
            when the system is inconsistent (rational backend only; the float
            backend always returns the least-squares solution).
        rank: rank of A.
        nullspace: basis vectors of the kernel of A.
        residual: max-norm of A x - b at the returned solution.
    """

    solution: np.ndarray | None
    rank: int
    nullspace: list[np.ndarray]
    residual: float


def solve_linear(a: np.ndarray, b: np.ndarray) -> SolveResult:
    """Solve a (possibly non-square, possibly singular) linear system."""
    nrows, ncols = a.shape
    if backend_of(a) == "float":
        if ncols == 0:
            res = float(np.max(np.abs(b))) if b.size else 0.0
            return SolveResult(np.zeros(0), 0, [], res)
        u, sv, vt = np.linalg.svd(a, full_matrices=True)
        rank = int(np.sum(sv > RANK_REL_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
        x = np.zeros(ncols)
        for k in range(rank):
            x += (u[:, k] @ b) / sv[k] * vt[k]
        null = [vt[k] for k in range(rank, ncols)]
        residual = float(np.max(np.abs(a @ x - b))) if nrows else 0.0
        return SolveResult(x, rank, null, residual)

    aug = zeros(nrows, ncols + 1, "rational")
    aug[:, :ncols] = a
    aug[:, ncols] = b
    rows, den, pivots = _row_echelon(_integer_rows(aug))
    if ncols in pivots:
        # a pivot in the b column means 0 = nonzero: inconsistent
        rank = len(pivots) - 1
        return SolveResult(None, rank, [], float("inf"))
    rank = len(pivots)
    x = np.full(ncols, Fraction(0), dtype=object)
    for row, col in zip(rows, pivots):
        x[col] = Fraction(row[ncols], den)
    free_cols = [c for c in range(ncols) if c not in pivots]
    null: list[np.ndarray] = []
    for fc in free_cols:
        v = np.full(ncols, Fraction(0), dtype=object)
        v[fc] = Fraction(1)
        for row, col in zip(rows, pivots):
            v[col] = Fraction(-row[fc], den)
        null.append(v)
    return SolveResult(x, rank, null, 0.0)


def is_pd(a: np.ndarray) -> bool:
    """Positive definiteness: Cholesky (float) or exact leading minors (rational).

    Rational: the rows are scaled to integers and eliminated below the
    diagonal without row swaps (Bareiss 1968). Pivot k is then the k-th
    leading principal minor of the scaled matrix, a positive multiple of the
    matrix's own, and elimination stops at the first pivot that is not
    positive. The answer is whether every leading principal minor is
    positive, which for a symmetric matrix is positive definiteness
    (Sylvester's criterion).
    """
    n = a.shape[0]
    if n == 0:
        return True
    if backend_of(a) == "float":
        try:
            np.linalg.cholesky(a)
            return True
        except np.linalg.LinAlgError:
            return False
    # rows[k:] hold the trailing columns k.. of the rows not yet eliminated
    rows = _integer_rows(a)
    d = 1
    for k in range(n):
        p, *tail = rows[k]
        if p <= 0:
            return False
        rows[k + 1 :] = [
            [(p * x - row[0] * y) // d for x, y in zip(row[1:], tail)]
            for row in rows[k + 1 :]
        ]
        d = p
    return True
