from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from conftest import fraction_kernel_basis, fraction_rref, fraction_solve
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackycones.linalg import (
    _combination,
    canonical_line_direction,
    cone_inverse,
    det,
    dot,
    inverse,
    kernel_basis,
    mat_vec,
    primitive_direction,
    rank,
    rref,
    solve_square,
)


def test_solve_square_identity():
    assert solve_square(((1, 0), (0, 1)), (3, -1)) == (3, -1)


def test_solve_square_diagonal():
    assert solve_square(((1, 0), (0, -2)), (0, -3)) == (0, Fraction(3, 2))


def test_solve_square_singular():
    assert solve_square(((1, 1), (1, 1)), (1, 0)) is None


def test_solve_square_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_square(((1, 0), (0, 1)), (1, 2, 3))
    with pytest.raises(ValueError):
        solve_square(((1, 0, 0), (0, 1, 0)), (1, 2))


def test_kernel_basis_p1_map():
    assert kernel_basis(((1, -1),)) == ((1, 1),)


def test_kernel_basis_injective():
    assert kernel_basis(((1, 0), (0, 1))) == ()


def test_kernel_basis_sum_form():
    assert kernel_basis(((1, 1, 1),)) == ((1, -1, 0), (1, 0, -1))


def test_kernel_of_no_rows_is_standard_basis():
    assert kernel_basis((), ncols=2) == ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="explicit column count"):
        kernel_basis(())


def test_det_examples():
    assert det(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    assert det(((1, 0), (0, -2))) == -2
    assert det(()) == 1


def test_det_rational_entries():
    assert det(((Fraction(1, 2), 0), (0, Fraction(2, 3)))) == Fraction(1, 3)


def test_det_non_square():
    with pytest.raises(ValueError):
        det(((1, 0, 0), (0, 1, 0)))


def test_rank_examples():
    assert rank(((1, -1), (-2, 2))) == 1
    assert rank(((1, 0), (0, 1))) == 2
    assert rank(((0, 0), (0, 0))) == 0


def test_primitive_direction_rational():
    assert primitive_direction((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert canonical_line_direction((0, Fraction(-1, 3))) == (0, 1)
    with pytest.raises(ValueError, match="zero vector"):
        canonical_line_direction((0, 0))


def test_dot_length_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        dot((1,), (1, 2))


# zeros are drawn often so that pivot searches have to swap rows
entries = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9),
                    st.fractions(min_value=-9, max_value=9, max_denominator=4))


@st.composite
def matrices(draw, nrows, ncols):
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        # a dependent last row makes singular and rank-deficient inputs common
        c = draw(entries)
        rows[-1] = [a + c * b for a, b in zip(rows[0], rows[-2])]
    return tuple(tuple(r) for r in rows)


sizes = st.integers(min_value=1, max_value=5)
rat_matrices = st.tuples(sizes, sizes).flatmap(lambda shape: matrices(*shape))


@given(rat_matrices)
@settings(max_examples=120, deadline=None)
def test_kernel_property(rows):
    basis = kernel_basis(rows)
    for k in basis:
        assert all(dot(row, k) == 0 for row in rows)
    assert len(basis) == len(rows[0]) - rank(rows)
    # Gauss-Jordan in Fraction arithmetic is an independent oracle for the
    # fraction-free reduced form, the canonical kernel and the rank
    assert rref(rows) == fraction_rref(rows)
    assert basis == fraction_kernel_basis(rows, len(rows[0]))
    assert rank(rows) == len(fraction_rref(rows)[1])
    # so is sympy, which also gives the kernel to compare spans with
    oracle = sympy.Matrix(rows)
    assert rank(rows) == oracle.rank()
    null = oracle.nullspace()
    assert len(basis) == len(null)
    if basis:
        assert sympy.Matrix(basis).rank() == len(basis)
        assert sympy.Matrix(list(basis) + [tuple(v) for v in null]).rank() == len(basis)


def _fraction_primitive_direction(v):
    # the Fraction route every vector took before the integer fast path
    if all(a == 0 for a in v):
        raise ValueError("zero vector has no direction")
    fracs = [Fraction(a) for a in v]
    mul = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mul) for f in fracs]
    g = gcd(*(abs(a) for a in ints))
    return tuple(a // g for a in ints)


# small and zero entries make common factors likely; the wide range reaches
# integers past 64 bits
int_entries = st.one_of(st.just(0), st.integers(min_value=-12, max_value=12),
                        st.integers(min_value=-2 ** 80, max_value=2 ** 80))
fraction_entries = st.fractions(min_value=-9, max_value=9, max_denominator=6)
direction_vectors = st.one_of(
    st.lists(int_entries, max_size=7),
    st.lists(fraction_entries, max_size=7),
    st.lists(st.one_of(int_entries, fraction_entries), max_size=7),
    # a common factor past 64 bits over small multipliers
    st.tuples(st.integers(min_value=2 ** 64, max_value=2 ** 90),
              st.lists(st.integers(min_value=-6, max_value=6), max_size=7)
              ).map(lambda fv: [fv[0] * a for a in fv[1]]),
)


@given(direction_vectors)
@settings(max_examples=300, deadline=None)
def test_primitive_direction_matches_fraction_route(v):
    try:
        expected = _fraction_primitive_direction(v)
    except ValueError:
        with pytest.raises(ValueError):
            primitive_direction(v)
        return
    got = primitive_direction(v)
    assert got == expected
    assert all(type(a) is int for a in got)
    assert primitive_direction(tuple(v)) == expected


def _combination_cases(n):
    # (s, v, t, w) with v and w either free or multiples a x, b x of one x,
    # so that s v - t w = (s a - t b) x is zero now and then
    vec = st.lists(int_entries, min_size=n, max_size=n)
    small = st.integers(min_value=-3, max_value=3)
    parallel = st.tuples(small, small, vec).map(
        lambda abx: ([abx[0] * y for y in abx[2]], [abx[1] * y for y in abx[2]]))
    return st.tuples(small | int_entries, st.tuples(vec, vec) | parallel, small | int_entries)


@given(st.integers(min_value=0, max_value=6).flatmap(_combination_cases))
@example((2, ([1, -2], [2, -4]), 1))
@example((0, ([5], [3]), 0))
@settings(max_examples=300, deadline=None)
def test_combination_is_the_primitive_vector_on_s_v_minus_t_w(case):
    # the one combination step of the echelon form and the DD loop: None
    # exactly on a zero s v - t w, else that vector made primitive
    s, (v, w), t = case
    u = [s * x - t * y for x, y in zip(v, w)]
    got = _combination(s, v, t, w)
    if any(u):
        assert got == primitive_direction(u)
    else:
        assert got is None


square_systems = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.tuples(matrices(n, n),
                        st.lists(entries, min_size=n, max_size=n)))


@given(square_systems)
@settings(max_examples=120, deadline=None)
def test_solve_round_trip(data):
    rows, x = data
    oracle = sympy.Matrix(rows)
    assert det(rows) == oracle.det()
    y = mat_vec(rows, x)
    if oracle.det() == 0:
        assert solve_square(rows, y) is None
        assert inverse(rows) is None
        return
    assert solve_square(rows, y) == tuple(Fraction(a) for a in x)
    inv = inverse(rows)
    assert sympy.Matrix(inv) == oracle.inv()
    assert mat_vec(inv, y) == tuple(Fraction(a) for a in x)


int_squares = st.integers(min_value=0, max_value=4).flatmap(lambda n: st.lists(
    st.lists(st.integers(min_value=-4, max_value=4), min_size=n, max_size=n),
    min_size=n, max_size=n))


@given(int_squares)
@settings(max_examples=100, deadline=None)
def test_cone_inverse_is_least_integral_multiple_of_inverse(vectors):
    # the vectors are the columns of B; fraction_solve gives B^-1
    b = tuple(zip(*vectors))
    inv = fraction_solve(b, [[int(i == j) for j in range(len(b))] for i in range(len(b))])
    result = cone_inverse(vectors)
    if inv is None:
        assert result is None
        return
    m, adj = result
    assert m == lcm(*(x.denominator for row in inv for x in row))
    assert adj == [[m * x for x in row] for row in inv]


@st.composite
def square_cases(draw):
    # (A, y): A rational, or each row cleared to integers (which keeps a
    # dependent last row dependent), of size 0 to 5
    n = draw(st.integers(min_value=0, max_value=5))
    rows = draw(matrices(n, n))
    if draw(st.booleans()):
        rows = tuple(tuple(int(a * lcm(*(x.denominator for x in row))) for a in row)
                     for row in rows)
    return rows, draw(st.lists(entries, min_size=n, max_size=n))


@given(square_cases())
@settings(max_examples=150, deadline=None)
def test_inverse_and_solve_square_match_fraction_gauss_jordan(case):
    # inverse reads the right half off rref([A | I]); fraction_solve and
    # sympy are independent oracles, on integer, rational and singular A
    rows, y = case
    n = len(rows)
    inv = inverse(rows)
    assert inv == fraction_solve(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    solution = fraction_solve(rows, [(a,) for a in y])
    assert solve_square(rows, y) == (None if solution is None else
                                     tuple(a for a, in solution))
    if inv is not None:
        assert all(type(x) is Fraction for row in inv for x in row)
    if n:
        oracle = sympy.Matrix(rows)
        assert (inv is None) == (oracle.det() == 0)
        if inv is not None:
            assert sympy.Matrix(inv) == oracle.inv()
