"""Dual-backend linear algebra kernels."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from semident import linalg
from semident.errors import SemidentError


def test_backend_of():
    assert linalg.backend_of(np.zeros((2, 2))) == "float"
    assert linalg.backend_of(linalg.zeros(2, 2, "rational")) == "rational"


def test_parse_entry():
    assert linalg.parse_entry("3/4", "rational") == Fraction(3, 4)
    assert linalg.parse_entry("-2", "rational") == Fraction(-2)
    assert linalg.parse_entry(0.5, "float") == 0.5


@pytest.mark.parametrize("backend", linalg.BACKENDS)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan")])
def test_parse_entry_rejects_non_finite(backend, value):
    with pytest.raises(SemidentError, match="not finite"):
        linalg.parse_entry(value, backend)
    with pytest.raises(SemidentError, match="not finite"):
        linalg.to_array([[1.0, value], [value, 1.0]], backend)


def test_entry_to_json():
    assert linalg.entry_to_json(Fraction(1, 3)) == "1/3"
    assert linalg.entry_to_json(Fraction(4)) == "4"
    assert linalg.entry_to_json(0.25) == 0.25


def test_mat_inv_exact():
    a = linalg.to_array([[Fraction(2), 1], [1, Fraction(1)]], "rational")
    inv = linalg.mat_inv(a)
    prod = a @ inv
    assert prod[0, 0] == 1 and prod[0, 1] == 0 and prod[1, 1] == 1


def _gauss_jordan_inverse(a):
    """Exact inverse by Gauss-Jordan on a separate identity, as linalg once did."""
    n = a.shape[0]
    work = a.copy()
    inv = linalg.identity(n, "rational")
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r, col] != 0), None)
        if pivot_row is None:
            raise SemidentError("matrix is singular")
        if pivot_row != col:
            work[[col, pivot_row]] = work[[pivot_row, col]]
            inv[[col, pivot_row]] = inv[[pivot_row, col]]
        p = work[col, col]
        work[col] = work[col] / p
        inv[col] = inv[col] / p
        for r in range(n):
            if r != col and work[r, col] != 0:
                f = work[r, col]
                work[r] = work[r] - f * work[col]
                inv[r] = inv[r] - f * inv[col]
    return inv


@st.composite
def rational_square(draw):
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    rows = [[draw(st.one_of(st.just(0), entry)) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # a repeated row or a zero column makes the matrix singular
        if draw(st.booleans()):
            rows[-1] = list(rows[0])
        else:
            for row in rows:
                row[draw(st.integers(0, n - 1))] = 0
    return linalg.to_array(rows, "rational")


@settings(max_examples=150, deadline=None)
@given(rational_square())
def test_mat_inv_matches_gauss_jordan_reference(a):
    try:
        expected = _gauss_jordan_inverse(a)
    except SemidentError as exc:
        with pytest.raises(SemidentError) as got:
            linalg.mat_inv(a)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    inv = linalg.mat_inv(a)
    assert inv.shape == expected.shape
    assert inv.dtype == object
    assert all(type(v) is Fraction for v in inv.flat)
    assert (inv == expected).all()


def _fraction_row_echelon(m):
    """In-place Fraction reduced row echelon form, as linalg once computed it."""
    nrows, ncols = m.shape
    pivots = []
    row = 0
    for col in range(ncols):
        pivot_row = next((r for r in range(row, nrows) if m[r, col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            m[[row, pivot_row]] = m[[pivot_row, row]]
        m[row] = m[row] / m[row, col]
        for r in range(nrows):
            if r != row and m[r, col] != 0:
                m[r] = m[r] - m[r, col] * m[row]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return m, pivots


def _reference_solve(a, b):
    """(solution, rank, nullspace) of A x = b from the Fraction reduction."""
    nrows, ncols = a.shape
    aug = linalg.zeros(nrows, ncols + 1, "rational")
    aug[:, :ncols] = a
    aug[:, ncols] = b
    ech, pivots = _fraction_row_echelon(aug)
    if ncols in pivots:
        return None, len(pivots) - 1, []
    x = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        x[col] = ech[r, ncols]
    null = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            v[col] = -ech[r, fc]
        null.append(v)
    return x, len(pivots), null


@st.composite
def rational_matrix(draw):
    """Tall, wide, square or empty; mixed denominators; often rank-deficient."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    rows = [[draw(st.one_of(st.just(0), entry)) for _ in range(ncols)] for _ in range(nrows)]
    for r in range(1, nrows):
        kind = draw(st.sampled_from(("free", "zero", "multiple")))
        if kind == "zero":
            rows[r] = [0] * ncols
        elif kind == "multiple":
            f = draw(entry)
            rows[r] = [f * v for v in rows[draw(st.integers(0, r - 1))]]
    a = linalg.to_array(rows, "rational") if nrows else linalg.zeros(0, ncols, "rational")
    b = linalg.to_array([draw(entry) for _ in range(nrows)], "rational")
    return a, b


@settings(max_examples=300, deadline=None)
@given(rational_matrix())
def test_exact_kernels_match_fraction_reference(ab):
    a, b = ab
    _, pivots = _fraction_row_echelon(a.copy())
    assert linalg.matrix_rank(a) == len(pivots)

    x, rank, null = _reference_solve(a, b)
    res = linalg.solve_linear(a, b)
    assert res.rank == rank
    assert (None if res.solution is None else list(res.solution)) == x
    assert [list(v) for v in res.nullspace] == null
    for v in ([] if res.solution is None else [res.solution, *res.nullspace]):
        assert all(type(e) is Fraction for e in v)

    square = a[:, : a.shape[0]] if a.shape[1] >= a.shape[0] else a[: a.shape[1]]
    try:
        expected = _gauss_jordan_inverse(square)
    except SemidentError as exc:
        with pytest.raises(SemidentError) as got:
            linalg.mat_inv(square)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        return
    inv = linalg.mat_inv(square)
    assert inv.shape == expected.shape
    assert all(type(v) is Fraction for v in inv.flat)
    assert (inv == expected).all()


def _symmetrize(a):
    """(a + a^T) / 2, as linalg once applied it after every forward product."""
    return (a + a.T) / linalg.parse_entry(2, linalg.backend_of(a))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.randoms(use_true_random=False))
def test_congruence_matches_symmetrized_product(k, n, rng):
    entries = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 8))) for _ in range(k * n + k * k)]
    x_rows = [entries[i * n:(i + 1) * n] for i in range(k)]
    o = [entries[k * n + i * k:k * n + (i + 1) * k] for i in range(k)]
    o_rows = [[o[i][j] if i <= j else o[j][i] for j in range(k)] for i in range(k)]
    for backend in linalg.BACKENDS:
        x = linalg.to_array(x_rows, backend) if k else linalg.zeros(0, n, backend)
        omega = linalg.to_array(o_rows, backend) if k else linalg.zeros(0, 0, backend)
        got = linalg.congruence(x, omega)
        expected = _symmetrize(x.T @ omega @ x)
        assert got.shape == (n, n)
        if backend == "float":
            assert got.dtype == np.float64 and np.array_equal(got, expected)
        else:
            assert all(type(v) is Fraction for v in got.flat)
            assert (got == expected).all()


def test_builders_keep_backend_types():
    for backend, kind in (("float", float), ("rational", Fraction)):
        for a in (
            linalg.zeros(2, 3, backend),
            linalg.identity(3, backend),
            linalg.to_array([[1, "1/4"], [0.5, -2]], backend),
            linalg.to_array([3, "2/3"], backend),
        ):
            assert linalg.backend_of(a) == backend
            assert all(isinstance(v, kind) for v in a.flat)
        assert (linalg.identity(3, backend) == np.eye(3)).all()
        assert linalg.to_array([], backend).shape == (0,)
        assert linalg.to_array([[1, "1/4"], [0.5, -2]], backend)[0, 1] == 0.25


def test_to_array_rejects_ragged_rows():
    for backend in linalg.BACKENDS:
        for rows in ([[1, 2], [3]], [[1, 2], 3], [3, [1, 2]]):
            with pytest.raises(SemidentError):
                linalg.to_array(rows, backend)


def test_matrix_rank_exact_vs_float():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert linalg.matrix_rank(np.array(rows, dtype=float)) == 2
    assert linalg.matrix_rank(linalg.to_array(rows, "rational")) == 2


def test_matrix_rank_near_singular_float():
    # rank decisions use a relative threshold, not exact zero tests
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    assert linalg.matrix_rank(a) == 1


def test_solve_linear_unique():
    a = linalg.to_array([[Fraction(1), 1], [0, Fraction(1)]], "rational")
    b = linalg.to_array([3, 1], "rational")
    res = linalg.solve_linear(a, b)
    assert res.solution[0] == 2 and res.solution[1] == 1
    assert res.rank == 2
    assert not res.nullspace


def test_solve_linear_underdetermined():
    a = linalg.to_array([[1, 1]], "rational")
    b = linalg.to_array([2], "rational")
    res = linalg.solve_linear(a, b)
    assert res.rank == 1
    assert len(res.nullspace) == 1
    kern = res.nullspace[0]
    assert a[0, 0] * kern[0] + a[0, 1] * kern[1] == 0


def test_solve_linear_inconsistent():
    a = linalg.to_array([[1, 1], [1, 1]], "rational")
    b = linalg.to_array([1, 2], "rational")
    res = linalg.solve_linear(a, b)
    assert res.solution is None


def test_is_pd():
    assert linalg.is_pd(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not linalg.is_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    a = linalg.to_array([[Fraction(2), 1], [1, Fraction(2)]], "rational")
    assert linalg.is_pd(a)
    b = linalg.to_array([[Fraction(1), 2], [2, Fraction(1)]], "rational")
    assert not linalg.is_pd(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_is_pd_is_false_on_a_non_finite_float_entry(bad):
    # Cholesky does not notice a NaN on the diagonal, so it is checked first
    for k in range(2):
        a = np.eye(2)
        a.flat[3 * k] = bad
        assert not linalg.is_pd(a)
    assert not linalg.is_pd(np.array([[2.0, bad], [bad, 2.0]]))


def _fraction_is_pd(a):
    """Positive definiteness by Fraction pivot signs, as linalg once decided it."""
    n = a.shape[0]
    work = a.copy()
    for k in range(n):
        if work[k, k] <= 0:
            return False
        for r in range(k + 1, n):
            if work[r, k] != 0:
                f = work[r, k] / work[k, k]
                work[r, k:] = work[r, k:] - f * work[k, k:]
    return True


@st.composite
def pd_candidate(draw):
    """Square rational matrices on both sides of the PD boundary and on it."""
    n = draw(st.integers(0, 6))
    entry = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    kind = draw(st.sampled_from(("any", "symmetric", "gram", "singular gram", "zero pivot")))
    if kind == "any":
        # not symmetric: the pivots are still the leading minor ratios
        rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    elif kind in ("symmetric", "zero pivot"):
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = draw(entry)
        if kind == "zero pivot" and n:
            rows[draw(st.integers(0, n - 1))][0] = 0
            rows[0][0] = 0
    else:
        # B B^T is PSD, and singular when B has fewer columns than rows
        k = n if kind == "gram" else draw(st.integers(0, max(n - 1, 0)))
        b = [[draw(entry) for _ in range(k)] for _ in range(n)]
        rows = [[sum(x * y for x, y in zip(bi, bj)) for bj in b] for bi in b]
    return linalg.to_array(rows, "rational") if n else linalg.zeros(0, 0, "rational")


@settings(max_examples=200, deadline=None)
@given(pd_candidate())
@example(linalg.zeros(0, 0, "rational"))
@example(linalg.to_array([[-1]], "rational"))
@example(linalg.to_array([[0]], "rational"))
@example(linalg.to_array([["1/2", 1], [1, 2]], "rational"))  # singular PSD
@example(linalg.to_array([[1, 1, 0], [1, 1, 0], [0, 0, 5]], "rational"))  # zero 2nd pivot
def test_is_pd_matches_fraction_pivot_signs(a):
    assert linalg.is_pd(a) is _fraction_is_pd(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.randoms(use_true_random=False))
def test_rational_and_float_is_pd_agree_on_well_conditioned_matrices(n, rng):
    b = [[Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))) for _ in range(n)] for _ in range(n)]
    rows = [[b[i][j] + b[j][i] for j in range(n)] for i in range(n)]
    shift = Fraction(rng.randint(-40, 40), 2)
    for i in range(n):
        rows[i][i] += shift
    eig = np.linalg.eigvalsh(np.array(rows, dtype=float))
    # far from the boundary relative to scale, so float Cholesky decides correctly
    assume(np.min(np.abs(eig)) > 1e-6 * np.max(np.abs(eig)))
    exact = linalg.to_array(rows, "rational")
    assert linalg.is_pd(exact) == linalg.is_pd(linalg.as_float(exact)) == (eig[0] > 0)


def test_check_backend():
    with pytest.raises(Exception):
        linalg.check_backend("decimal")


def test_as_float_and_diff():
    a = linalg.to_array([[Fraction(1, 2), 0], [0, 1]], "rational")
    f = linalg.as_float(a)
    assert f.dtype == np.float64
    assert linalg.max_abs_diff(f, np.array([[0.5, 0.0], [0.0, 1.0]])) == 0.0
    assert linalg.max_abs(a) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.randoms(use_true_random=False))
def test_max_abs_rounds_the_exact_maximum_once(nrows, ncols, rng):
    def draw():
        return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**25))

    a = np.array([[draw() for _ in range(ncols)] for _ in range(nrows)], dtype=object)
    b = np.array([[draw() for _ in range(ncols)] for _ in range(nrows)], dtype=object)
    a = a.reshape(nrows, ncols)
    b = b.reshape(nrows, ncols)
    # the float array of the converted entries, as linalg once built it
    assert linalg.max_abs(a) == (float(np.max(np.abs(linalg.as_float(a)))) if a.size else 0.0)
    diff = a - b
    expected = float(np.max(np.abs(linalg.as_float(diff)))) if diff.size else 0.0
    assert linalg.max_abs_diff(a, b) == expected
    if a.size:
        # a float operand: Fraction - float subtracts in floats
        mixed = float(np.max(np.abs(linalg.as_float(a) - linalg.as_float(b))))
        assert linalg.max_abs_diff(a, linalg.as_float(b)) == mixed


def test_max_abs_overflow_still_raises():
    huge = linalg.to_array([[Fraction(10**400), 1]], "rational")
    for call in (lambda: linalg.max_abs(huge), lambda: linalg.max_abs_diff(huge, -huge)):
        with pytest.raises(OverflowError):
            call()
    assert linalg.max_abs(linalg.to_array([[Fraction(1, 10**400)]], "rational")) == 0.0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.randoms(use_true_random=False))
def test_matmul_matches_fraction_and_float_products(k, n, p, rng):
    def draw(rows, cols):
        return [[Fraction(rng.randint(-40, 40), rng.choice((1, 3, 8))) for _ in range(cols)] for _ in range(rows)]

    a, b, v = draw(k, n), draw(n, p), draw(1, p)[0]
    for backend in linalg.BACKENDS:
        ma = linalg.to_array(a, backend) if k else linalg.zeros(0, n, backend)
        mb = linalg.to_array(b, backend) if n else linalg.zeros(0, p, backend)
        vv = linalg.to_array(v, backend)
        got, expected = linalg.matmul(ma, mb), ma @ mb
        assert got.shape == expected.shape
        if backend == "float":
            assert np.array_equal(got, expected)
            assert linalg.matmul(ma, mb, vv).tolist() == (ma @ mb @ vv).tolist()
        else:
            assert all(type(e) is Fraction for e in got.flat)
            assert (got == expected).all()
            assert linalg.matmul(vv, vv) == vv @ vv
            assert type(linalg.matmul(vv, vv)) is Fraction
