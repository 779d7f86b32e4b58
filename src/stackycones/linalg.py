"""Exact rational linear algebra on small dense matrices.

Scalars are Python ints and ``fractions.Fraction`` (already canonical:
reduced form, positive denominator).  Vectors are tuples, matrices are
tuples of row tuples.  There is no floating point anywhere in this
package: cone membership and strict inequalities downstream must be
decided exactly.

Tuples built on every call of the sector pipeline are made from lists,
``tuple([...])``.  CPython builds ``tuple(<generator>)`` by resizing, so it
never takes a tuple from the free list of its final size but frees into
it; over many calls the free lists of small sizes fill up (2,000 entries
each) and grow the process's resident memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

Number = Union[int, Fraction]
IntVec = tuple  # tuple[int, ...]
RatVec = tuple  # tuple[Number, ...]
Matrix = tuple  # tuple[RatVec, ...], rows


def dot(u: Sequence[Number], v: Sequence[Number]) -> Number:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v) if a and b)


def vadd(u: Sequence[Number], v: Sequence[Number]) -> RatVec:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vscale(c: Number, v: Sequence[Number]) -> RatVec:
    return tuple(c * a for a in v)


def vneg(v: Sequence[Number]) -> RatVec:
    return tuple(-a for a in v)


def is_zero_vec(v: Sequence[Number]) -> bool:
    return all(a == 0 for a in v)


def unit_vector(dim: int, i: int) -> IntVec:
    v = [0] * dim
    v[i] = 1
    return tuple(v)


def mat_vec(rows: Sequence[Sequence[Number]], x: Sequence[Number]) -> RatVec:
    return tuple(dot(row, x) for row in rows)


def primitive(v: Sequence[int]) -> tuple[IntVec, int]:
    """Split a nonzero integer vector as c * w with w primitive and c > 0.

    Returns (w, c) where c = gcd of the absolute coordinate values.  The
    direction of v is preserved in w.
    """
    if not any(v):
        raise ValueError("primitive() of the zero vector is undefined")
    c = gcd(*(abs(a) for a in v))
    return tuple(a // c for a in v), c


def primitive_direction(v: Sequence[Number]) -> IntVec:
    """Scale a nonzero rational vector to the primitive integer vector on
    the same ray (direction preserved).  An all-int vector is divided by
    its gcd without building a Fraction."""
    if all(type(a) is int for a in v):
        g = gcd(*v)
        if g == 0:
            raise ValueError("zero vector has no direction")
        return tuple([a // g for a in v])
    if all(a == 0 for a in v):
        raise ValueError("zero vector has no direction")
    fracs = [Fraction(a) for a in v]
    mul = lcm(*(f.denominator for f in fracs))
    ints = [int(f * mul) for f in fracs]
    g = gcd(*(abs(a) for a in ints))
    return tuple(a // g for a in ints)


def canonical_line_direction(v: Sequence[Number]) -> IntVec:
    """Primitive integer vector spanning the same line, first nonzero
    coordinate positive."""
    w = primitive_direction(v)
    for a in w:
        if a != 0:
            return w if a > 0 else vneg(w)
    raise ValueError("zero vector has no direction")


def _int_rows(rows: Sequence[Sequence[Number]]) -> tuple[list[list[int]], int]:
    # Row scaling (by positive numbers) preserves rank and pivot structure;
    # the product of the scale factors is returned for det.  Entries are int
    # or Fraction, both of which have a denominator.
    out = []
    scale = 1
    for row in rows:
        mul = lcm(*(a.denominator for a in row))
        scale *= mul
        out.append([int(a * mul) for a in row])
    return out, scale


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
    """Reduced row echelon form over the rationals.

    Returns (nonzero rows, pivot column indices).
    """
    m = [[Fraction(a) for a in row] for row in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [a * inv for a in m[r]]
        for i in range(nrows):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def kernel_basis(rows: Sequence[Sequence[Number]], ncols: Optional[int] = None) -> tuple[IntVec, ...]:
    """Canonical basis of the right kernel {x : A x = 0}.

    Each basis vector is scaled to a primitive integer vector whose first
    nonzero coordinate is positive; the basis is sorted lexicographically.
    ``ncols`` must be given for a matrix with no rows.
    """
    if not rows:
        if ncols is None:
            raise ValueError("kernel of an empty matrix needs an explicit column count")
        return tuple(unit_vector(ncols, i) for i in range(ncols))
    n = len(rows[0])
    reduced, pivots = rref(rows)
    free_cols = [j for j in range(n) if j not in pivots]
    basis = []
    for j in free_cols:
        v = [Fraction(0)] * n
        v[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[j]
        basis.append(canonical_line_direction(v))
    return tuple(sorted(basis))


def solve_square(rows: Sequence[Sequence[Number]], y: Sequence[Number]) -> Optional[RatVec]:
    """Solve A x = y for square A; None when A is singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("solve_square needs a square matrix")
    if len(y) != n:
        raise ValueError(f"dimension mismatch: matrix is {n}x{n}, rhs has length {len(y)}")
    reduced, pivots = rref([list(row) + [b] for row, b in zip(rows, y)])
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in reduced)


def inverse(rows: Sequence[Sequence[Number]]) -> Optional[Matrix]:
    """Exact inverse of a square rational matrix; None when singular."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("inverse needs a square matrix")
    reduced, pivots = rref([list(row) + [int(i == j) for j in range(n)]
                            for i, row in enumerate(rows)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)
