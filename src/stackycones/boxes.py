"""Barycentric ray coefficients, the fractional-part reduction map, and
enumeration of box elements (= sectors; the nonzero ones are the twisted
sectors).

A lattice point y decomposes uniquely as y = sum_rho a_rho(y) * b_rho with
a_rho(y) >= 0 supported on the rays of the minimal cone containing y.  In
the integer chart (m, m B^-1) of a full-dimensional maximal cone with ray
matrix B (fan.charts, built once per fan), y lies in the cone iff
c = m B^-1 y >= 0; then a(y) = c / m, and q takes the residues c mod m.
Box elements are the y with every a_rho(y) < 1, crossed with the torsion
part of the group.  Those of one cone represent the group Z^d / B Z^d of
order |det B|, walked in the same chart (Borisov, Chen and Smith, "The
orbifold Chow ring of toric Deligne-Mumford stacks", 2005); coefficients
are built only for the points kept.  The canonical ordering (rig part
lexicographic, then torsion lexicographic) is the index order of every
downstream coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from operator import mul
from typing import Sequence

from .cones import EnumerationLimitError
from .fan import NElement, StackyFan
from .linalg import IntVec

# the box walks refuse a fan past this many box elements, counted cone by
# cone: walking them takes seconds; the largest fixture, test or benchmark input has 522
ENUMERATION_LIMIT = 10 ** 5


class IncompleteFanError(RuntimeError):
    """No maximal cone contains the requested point; the fan cannot be
    complete (validation escape hatch)."""


# a_rho(y) on the rays of y's minimal cone: (ray index, value) pairs, sorted
# by ray, positive values only
Coeffs = tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class BoxElement:
    """One sector: a box lattice point with its coefficients, plus a torsion
    component.  (0, 0) is the untwisted sector."""

    rig: IntVec
    torsion: tuple[int, ...]
    coeffs: Coeffs

    @property
    def is_untwisted(self) -> bool:
        return not any(self.rig) and not any(self.torsion)


def _locate(fan: StackyFan, y: Sequence[int]) -> tuple[tuple[int, ...], list[int], int]:
    """(cone, c, m) for the first maximal cone, in input order, that contains
    y: with (m, m B^-1) its chart in fan.charts, c = m B^-1 y >= 0, so y has
    the coefficients c / m on the cone's rays."""
    y = tuple(y)
    if len(y) != fan.dim:
        raise ValueError(f"point has length {len(y)}, fan has dimension {fan.dim}")
    for cone, chart in zip(fan.max_cones, fan.charts):
        if chart is not None:
            m, rows = chart
            c = [sum(map(mul, row, y)) for row in rows]
            if all(x >= 0 for x in c):
                return cone, c, m
    raise IncompleteFanError(f"fan not complete at {y}: no maximal cone contains it")


class _Fractions(dict):
    # x / m under the key (x, m), each built once, on first use
    def __missing__(self, key: tuple[int, int]) -> Fraction:
        value = self[key] = Fraction(*key)
        return value


def _coeffs(rays: Sequence[tuple[int, int]], c: Sequence[int], m: int, fractions: _Fractions
            ) -> Coeffs:
    # c / m on a cone's rays, positive entries; rays: the cone's (ray index,
    # position) pairs, sorted (_ray_order)
    return tuple([(i, fractions[c[k], m]) for i, k in rays if c[k]])


def _ray_order(cone: Sequence[int]) -> list[tuple[int, int]]:
    # the (ray index, position) pairs of a cone, sorted by ray: _coeffs' order
    return sorted(zip(cone, range(len(cone))))


def minimal_cone_coeffs(fan: StackyFan, y: Sequence[int]) -> Coeffs:
    """Coefficients of y on the rays of its minimal cone: c / m in the chart of
    the first maximal cone containing y, positive entries only.  The result
    is independent of which containing cone was hit because the
    minimal-cone expression is unique."""
    cone, c, m = _locate(fan, y)
    return _coeffs(_ray_order(cone), c, m, _Fractions())


def _box_point(fan: StackyFan, cone: Sequence[int], c: Sequence[int], m: int
               ) -> tuple[list[int], IntVec]:
    """(r, point) for the lattice point of q: from the chart coordinates c of
    a point in cone, r = c mod m, and the box point B r / m."""
    r = [x % m for x in c]
    rows = zip(*[fan.rays[i].free for i in cone])
    return r, tuple([sum(map(mul, row, r)) // m for row in rows])


def q_reduce(fan: StackyFan, b: NElement) -> BoxElement:
    """Reduce an element of N to its box element: the fractional parts of the
    free part's coefficients, c mod m in its chart; torsion passes through."""
    cone, c, m = _locate(fan, b.free)
    r, point = _box_point(fan, cone, c, m)
    return BoxElement(rig=point, torsion=fan.group.reduce_torsion(b.torsion),
                      coeffs=_coeffs(_ray_order(cone), r, m, _Fractions()))


def _cone_group(fan: StackyFan, k: int, room: int
                ) -> tuple[int, list[IntVec], list[IntVec]]:
    # cone_parallelepiped_points' walk of maximal cone k: m, the elements c and
    # their points, in one order; raises once the points pass room.  The first
    # generator g's cyclic subgroup {j g mod m : 0 <= j < ord g} is built in one
    # pass, at most room + 1 elements of it; each later generator adds cosets
    d, cone, chart = fan.dim, fan.max_cones[k], fan.charts[k]
    if len(cone) != d:
        raise ValueError("parallelepiped enumeration needs a full-dimensional cone")
    if chart is None:
        raise ValueError(f"cone {cone} is not simplicial")
    m, adj = chart
    if m == 1 and room:  # a unimodular cone: the trivial group, its apex B 0 / 1 = 0
        apex = (0,) * d
        return m, [apex], [apex]
    # (in rank 0 there are no columns, and the group is the apex alone)
    first, *rest = list(zip(*[[x % m for x in row] for row in adj])) or [()]
    group = {tuple([j * x % m for x in first])
             for j in range(min(m // gcd(m, *first), room + 1))}
    for g in rest:
        # add the cosets H + k g (k = 1, 2, ...) of the subgroup H built
        # so far, until k g lies in H or the group outgrows the room
        subgroup, step = list(group), g
        while step not in group and len(group) <= room:
            group.update([tuple([(x + y) % m for x, y in zip(c, step)]) for c in subgroup])
            step = tuple([(x + y) % m for x, y in zip(step, g)])
    if len(group) > room:
        raise EnumerationLimitError(f"fan '{fan.name}' is too large to enumerate: over "
                                    f"{ENUMERATION_LIMIT} box elements, counted cone by cone")
    rows, elements = tuple(zip(*[fan.rays[i].free for i in cone])), list(group)
    return m, elements, [tuple([sum(map(mul, row, c)) // m for row in rows]) for c in elements]


def _room(fan: StackyFan) -> int:
    # the box points a walk may visit: ENUMERATION_LIMIT // |torsion|
    return ENUMERATION_LIMIT // prod(fan.group.torsion_orders)


def cone_parallelepiped_points(fan: StackyFan, cone: Sequence[int]
                               ) -> list[tuple[IntVec, Coeffs]]:
    """Integer points of the half-open parallelepiped spanned by the b_rho
    of one maximal cone, i.e. {sum a_rho b_rho : 0 <= a_rho < 1}, sorted.

    The cone's chart (m, adj = m B^-1) in fan.charts, B the ray matrix, gives
    a point p the coefficients adj p / m; a cone not in fan.max_cones has no
    chart there and raises ValueError.  So p -> adj p mod m maps Z^d / B Z^d
    onto the subgroup of (Z/m)^d that adj's columns generate, and each
    element c of it, taken in [0, m)^d, gives the point B c / m.  The walk
    builds that subgroup, exactly |det B| elements, and raises
    EnumerationLimitError past ENUMERATION_LIMIT // |torsion| of them.
    """
    cone = tuple(cone)
    if cone not in fan.max_cones:
        raise ValueError(f"cone {cone} is not a maximal cone of fan '{fan.name}'")
    m, elements, points = _cone_group(fan, fan.max_cones.index(cone), _room(fan))
    rays, fractions = _ray_order(cone), _Fractions()
    return [(point, _coeffs(rays, c, m, fractions)) for point, c in sorted(zip(points, elements))]


def enumerate_box(fan: StackyFan) -> tuple[BoxElement, ...]:
    """All box elements in canonical order (rig lexicographic, then torsion
    lexicographic).  The untwisted element (0, 0) is included.

    Every box element lies in the half-open parallelepiped of some maximal
    cone (points with zero coefficients included, since any subset of a
    simplicial cone's rays spans a face), so the union over maximal cones
    is exhaustive.  Each cone is walked once, in integers; the first cone
    to reach a point keeps it (the minimal-cone expression is unique), and
    coefficients are built once per kept point.  Raises
    EnumerationLimitError once the walks, of |det B| points each, pass
    ENUMERATION_LIMIT // |torsion| in all: iff sum |det B| |torsion| > limit.
    """
    kept: dict[IntVec, Coeffs] = {}
    room, fractions = _room(fan), _Fractions()
    for k, cone in enumerate(fan.max_cones):
        m, elements, points = _cone_group(fan, k, room)
        room -= len(points)
        fresh = [(point, c) for point, c in zip(points, elements) if point not in kept]
        if fresh:  # the cone keeps a point: the origin, or one no earlier cone walked
            rays = _ray_order(cone)
            for point, c in fresh:
                kept[point] = _coeffs(rays, c, m, fractions)
    torsion = tuple(fan.group.torsion_elements())
    return tuple([BoxElement(rig, t, kept[rig]) for rig in sorted(kept) for t in torsion])


def twisted_sectors(fan: StackyFan) -> tuple[BoxElement, ...]:
    """enumerate_box minus the untwisted element; this order defines the
    sector index used by all downstream coordinates."""
    return tuple([e for e in enumerate_box(fan) if not e.is_untwisted])
