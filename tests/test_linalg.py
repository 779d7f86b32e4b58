from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from conftest import fraction_kernel_basis, fraction_rref, fraction_solve
from hypothesis import given, settings
from hypothesis import strategies as st

from stackycones.linalg import (
    canonical_line_direction,
    cone_inverse,
    det,
    dot,
    inverse,
    kernel_basis,
    mat_vec,
    primitive,
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


def test_primitive_examples():
    assert primitive((2, -4)) == ((1, -2), 2)
    assert primitive((1, 0, 0)) == ((1, 0, 0), 1)
    assert primitive((-6,)) == ((-1,), 6)


def test_primitive_zero_vector():
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_primitive_direction_rational():
    assert primitive_direction((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert canonical_line_direction((0, Fraction(-1, 3))) == (0, 1)


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


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=6))
@settings(max_examples=120, deadline=None)
def test_primitive_recomposition(coords):
    if not any(coords):
        with pytest.raises(ValueError):
            primitive(tuple(coords))
        return
    w, c = primitive(tuple(coords))
    assert c > 0
    assert gcd(*(abs(a) for a in w)) == 1
    assert tuple(c * a for a in w) == tuple(coords)


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
