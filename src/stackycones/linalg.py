"""Exact rational linear algebra on small dense matrices.

Scalars are Python ints and ``fractions.Fraction`` (already canonical:
reduced form, positive denominator).  Vectors are tuples, matrices are
tuples of row tuples.  There is no floating point anywhere in this
package: cone membership and strict inequalities downstream must be
decided exactly.

Elimination is fraction-free, in two integer loops: ``_echelon``
(Gauss-Jordan) behind ``rref`` (through it ``inverse`` and
``solve_square``), ``kernel_basis``, ``cone_inverse`` (the chart table
StackyFan.charts, read by fan validation, the box walk, point location and
the reduction q) and the cone engine, ``_bareiss`` behind ``rank`` and
``det``.
Rows are cleared of denominators first; only results are ``Fraction``s.

Tuples built on every call of the sector pipeline are made from lists,
``tuple([...])``.  CPython builds ``tuple(<generator>)`` by resizing, so it
never takes a tuple from the free list of its final size but frees into
it; over many calls the free lists of small sizes fill up (2,000 entries
each) and grow the process's resident memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Optional, Sequence, Union

Number = Union[int, Fraction]
IntVec = tuple  # tuple[int, ...]
RatVec = tuple  # tuple[Number, ...]
Matrix = tuple  # tuple[RatVec, ...], rows


def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v) if a and b)


def vneg(v: Sequence[Number]) -> RatVec:
    return tuple(-a for a in v)


def unit_vector(dim: int, i: int) -> IntVec:
    v = [0] * dim
    v[i] = 1
    return tuple(v)


def mat_vec(rows: Sequence[Sequence[Number]], x: Sequence[Number]) -> RatVec:
    return tuple(dot(row, x) for row in rows)


def primitive_direction(v: Sequence[Number]) -> IntVec:
    """Scale a nonzero rational vector to the primitive integer vector on
    the same ray (direction preserved), without building a Fraction."""
    ints = v if all(type(a) is int for a in v) else _clear_denominators(v)[0]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple([a // g for a in ints])


def canonical_line_direction(v: Sequence[Number]) -> IntVec:
    """Primitive integer vector spanning the same line, first nonzero
    coordinate positive."""
    w = primitive_direction(v)
    for a in w:
        if a != 0:
            return w if a > 0 else vneg(w)
    raise ValueError("zero vector has no direction")


def _clear_denominators(v: Sequence[Number]) -> tuple[list[int], int]:
    # (mul * v, mul) for the least mul > 0 making v integral, read off
    # numerators and denominators (ints have both) without a Fraction
    mul = lcm(*(a.denominator for a in v))
    return [a.numerator * (mul // a.denominator) for a in v], mul


def _int_rows(rows: Sequence[Sequence[Number]]) -> tuple[list[list[int]], int]:
    # Row scaling by positive numbers preserves rank, pivots and the
    # solutions of an augmented system; the scale's product is for det.
    if all(type(a) is int for row in rows for a in row):
        return [list(row) for row in rows], 1
    cleared = [_clear_denominators(row) for row in rows]
    return [ints for ints, _ in cleared], prod([mul for _, mul in cleared])


def _echelon(rows: Sequence[Sequence[int]], columns: Sequence[int]
             ) -> list[tuple[int, Sequence[int]]]:
    """Reduced echelon form of integer rows, fraction-free, taking pivots
    in the given column order.

    Returns (pivot column, row) pairs in pivot order: each row is positive
    at its own pivot and zero at every other pivot.  Every row is a
    positive multiple of the corresponding row of the rational reduced
    echelon form: _combination(q[c], r, r[c], q), q[c] > 0, only scales r
    by positive numbers.
    """
    rest = [list(r) for r in rows]
    done: list[tuple[int, Sequence[int]]] = []
    for c in columns:
        if not rest:
            break
        k = next((i for i, r in enumerate(rest) if r[c]), None)
        if k is None:
            continue
        q = rest.pop(k)
        if q[c] < 0:
            q = [-y for y in q]
        rest = [_combination(q[c], r, r[c], q) if r[c] else r for r in rest]
        rest = [r for r in rest if r is not None]
        done = [(p, _combination(q[c], r, r[c], q) if r[c] else r) for p, r in done]
        done.append((c, q))
    return done


def _combination(s: int, v: Sequence[int], t: int, w: Sequence[int]) -> Optional[IntVec]:
    """The primitive vector on s v - t w, by one gcd; None when it is zero.
    Elimination drops a None row.  The DD loop gets none, as it combines two
    basis vectors, a ray outside the lineality with a lineality vector, or
    two distinct extreme rays of a pointed cone positively."""
    u = [s * x - t * y for x, y in zip(v, w)]
    g = gcd(*u)
    return tuple([x // g for x in u]) if g else None


def _bareiss(m: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns (rank, sign of the row permutation).  On a nonsingular square
    matrix the last diagonal entry ends as sign * determinant.
    """
    if not m or not m[0]:
        return 0, 1
    nrows, ncols = len(m), len(m[0])
    r = 0
    sign = 1
    prev = 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            mi, mr = m[i], m[r]
            f = mi[col]
            for j in range(col + 1, ncols):
                mi[j] = (mi[j] * mr[col] - f * mr[j]) // prev
            mi[col] = 0
        prev = m[r][col]
        r += 1
        if r == nrows:
            break
    return r, sign


def rank(rows: Sequence[Sequence[Number]]) -> int:
    """Rank of a rational matrix, by fraction-free (Bareiss) elimination."""
    return _bareiss(_int_rows(rows)[0])[0]


def det(rows: Sequence[Sequence[Number]]) -> Fraction:
    """Exact determinant of a square rational matrix (Bareiss)."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det of a non-square matrix")
    if n == 0:
        return Fraction(1)
    m, scale = _int_rows(rows)
    r, sign = _bareiss(m)
    if r < n:
        return Fraction(0)
    return Fraction(sign * m[n - 1][n - 1], scale)


def rref(rows: Sequence[Sequence[Number]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals: the rows of _echelon
    divided by their pivots.

    Returns (nonzero rows, pivot column indices).
    """
    m = _int_rows(rows)[0]
    done = _echelon(m, range(len(m[0]) if m else 0))
    return ([[Fraction(x, row[p]) for x in row] for p, row in done],
            [p for p, _ in done])


def kernel_basis(rows: Sequence[Sequence[Number]], ncols: Optional[int] = None) -> tuple[IntVec, ...]:
    """Canonical basis of the right kernel {x : A x = 0}.

    Each basis vector is scaled to a primitive integer vector whose first
    nonzero coordinate is positive; the basis is sorted lexicographically.
    There is one vector per free column j of the echelon form: it is
    nonzero at j and zero at every other free column.  A matrix with no
    rows needs ``ncols`` and gives the standard basis in index order.
    """
    if not rows:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs an explicit column count")
        return tuple(unit_vector(ncols, i) for i in range(ncols))
    n = len(rows[0])
    done = _echelon(_int_rows(rows)[0], range(n))
    pivots = {p for p, _ in done}
    basis = []
    for j in range(n):
        if j in pivots:
            continue
        # x_j = 1 and x_p = -row[j] / row[p], scaled by the pivots' lcm
        mul = lcm(*(row[p] for p, row in done if row[j]))
        v = [0] * n
        v[j] = mul
        for p, row in done:
            v[p] = -row[j] * (mul // row[p])
        basis.append(canonical_line_direction(v))
    return tuple(sorted(basis))


def cone_inverse(vectors: Sequence[Sequence[int]]) -> Optional[tuple[int, list[list[int]]]]:
    """(m, m B^-1) for the least m > 0 making it integral, B the square integer
    matrix with the given vectors as columns, by one elimination of [B | I];
    None when B is singular.  Row k pairs to m with vector k and to 0 with the
    others: the inner normal of the facet of cone(vectors) opposite vector k."""
    d = len(vectors)
    done = _echelon([row + unit_vector(d, j) for j, row in enumerate(zip(*vectors))], range(d))
    if len(done) < d:
        return None
    m = lcm(*(row[p] for p, row in done))
    return m, [[x * (m // row[p]) for x in row[d:]] for p, row in done]


def inverse(rows: Sequence[Sequence[Number]]) -> Optional[Matrix]:
    """Exact inverse of a square rational matrix A: the right half of
    rref([A | I]).  None when A is singular, i.e. unless the pivots are
    exactly the columns 0..n-1 of A."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    reduced, pivots = rref([[*row, *unit_vector(n, i)] for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return tuple([tuple(row[n:]) for row in reduced])


def solve_square(rows: Sequence[Sequence[Number]], y: Sequence[Number]) -> Optional[RatVec]:
    """Solve A x = y for square A, as A^-1 y (inverse checks that A is
    square); None when A is singular."""
    if len(y) != len(rows):
        raise ValueError(f"dimension mismatch: matrix has {len(rows)} rows, "
                         f"rhs has length {len(y)}")
    inv = inverse(rows)
    return None if inv is None else tuple([sum([a * b for a, b in zip(row, y)], Fraction(0))
                                           for row in inv])
