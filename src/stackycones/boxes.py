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
orbifold Chow ring of toric Deligne-Mumford stacks", 2005); a point and
its coefficients are built only in the first cone holding its support.
The canonical ordering (rig part lexicographic, then torsion
lexicographic) is the index order of every downstream coordinate system.
BoxElement is a ``typing.NamedTuple``, by the record rule in
:mod:`stackycones.fan`.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, prod
from operator import and_, attrgetter, mul
from typing import NamedTuple, Sequence

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


class BoxElement(NamedTuple):
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
            if not c or min(c) >= 0:  # (in rank 0, c is empty)
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


def _box_point(fan: StackyFan, cone: Sequence[int], r: Sequence[int], m: int) -> IntVec:
    """The box point B r / m of a cone's chart residues r (each in [0, m)),
    B the cone's ray matrix."""
    return tuple([sum(map(mul, row, r)) // m for row in zip(*[fan.rays[i].free for i in cone])])


def _box_points(fan: StackyFan, cone: Sequence[int], residues: Sequence[Sequence[int]], m: int
                ) -> list[IntVec]:
    """_box_point of each residue vector, in order, built row by row of B: a
    third faster than point by point at d = 2."""
    columns = [[sum(map(mul, row, r)) // m for r in residues]
               for row in zip(*[fan.rays[i].free for i in cone])]
    return list(zip(*columns)) or [()] * len(residues)  # in rank 0, each point is the apex


def q_reduce(fan: StackyFan, b: NElement) -> BoxElement:
    """Reduce an element of N to its box element: the fractional parts of the
    free part's coefficients, c mod m in its chart; torsion passes through."""
    cone, c, m = _locate(fan, b.free)
    r = [x % m for x in c]
    return BoxElement(rig=_box_point(fan, cone, r, m),
                      torsion=fan.group.reduce_torsion(b.torsion),
                      coeffs=_coeffs(_ray_order(cone), r, m, _Fractions()))


def _cone_group(fan: StackyFan, k: int, room: int) -> tuple[int, list[IntVec]]:
    # cone_parallelepiped_points' walk of maximal cone k: m and the elements c,
    # each giving the point B c / m; raises once they pass room.  The first
    # generator g's cyclic subgroup {j g mod m : 0 <= j < ord g} is built in one
    # pass, at most room + 1 elements of it; each later generator adds cosets
    d, cone, chart = fan.dim, fan.max_cones[k], fan.charts[k]
    if len(cone) != d:
        raise ValueError("parallelepiped enumeration needs a full-dimensional cone")
    if chart is None:
        raise ValueError(f"cone {cone} is not simplicial")
    m, adj = chart
    if m == 1 and room:  # a unimodular cone: the trivial group, its apex B 0 / 1 = 0
        return m, [(0,) * d]
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
    return m, list(group)


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
    m, elements = _cone_group(fan, fan.max_cones.index(cone), _room(fan))
    rays, fractions = _ray_order(cone), _Fractions()
    return sorted([(point, _coeffs(rays, c, m, fractions))
                   for point, c in zip(_box_points(fan, cone, elements, m), elements)])


def enumerate_box(fan: StackyFan) -> tuple[BoxElement, ...]:
    """All box elements in canonical order (rig lexicographic, then torsion
    lexicographic).  The untwisted element (0, 0) is included.

    Every box element lies in the half-open parallelepiped of some maximal
    cone (points with zero coefficients included, since any subset of a
    simplicial cone's rays spans a face), so the union over maximal cones
    is exhaustive.  Each cone is walked once, in integers.  A walked element
    c has its point B c / m and its coefficients computed only in the cone
    that owns it: the first maximal cone holding every ray of its support
    (the rays with c_rho > 0), read off per-ray bitmasks of the cones
    holding each ray, as in fan._non_face_pairs.  This keeps what a dict
    over every walked point kept, the first cone to reach each point: the
    owner reaches the point too, with the same coefficients, since they sit
    on rays it holds and are below 1, so no cone before the owner reaches
    it.  On a valid fan the minimal-cone expression is unique and each point
    is computed once; where cones overlap, two cones can own one point under
    different expressions, and setdefault keeps the first.  Raises
    EnumerationLimitError once the walks, of |det B| points each, pass
    ENUMERATION_LIMIT // |torsion| in all: iff sum |det B| |torsion| > limit.
    """
    holders = [0] * fan.n_rays  # holders[j]: the cones holding ray j, as a bitmask
    for k, cone in enumerate(fan.max_cones):
        for j in cone:
            holders[j] |= 1 << k
    kept: dict[IntVec, Coeffs] = {}
    room, fractions = _room(fan), _Fractions()
    for k, cone in enumerate(fan.max_cones):
        m, elements = _cone_group(fan, k, room)
        room -= len(elements)
        if k:  # cone 0 owns every element it walks
            earlier = (1 << k) - 1
            held = [holders[j] for j in cone]
            # the earlier cones holding every ray of c's support, which with
            # no zero in c is every ray of the cone
            interior = reduce(and_, held, earlier)
            elements = [c for c in elements if not (
                reduce(and_, compress(held, c), earlier) if 0 in c else interior)]
        if elements:
            rays = _ray_order(cone)
            for point, c in zip(_box_points(fan, cone, elements, m), elements):
                kept.setdefault(point, _coeffs(rays, c, m, fractions))
    torsion = tuple(fan.group.torsion_elements())
    return tuple([BoxElement(rig, t, kept[rig]) for rig in sorted(kept) for t in torsion])


def twisted_sectors(fan: StackyFan) -> tuple[BoxElement, ...]:
    """enumerate_box minus the untwisted element; this order defines the
    sector index used by all downstream coordinates.  The untwisted element
    is found by bisection: it is the first element whose rig is the origin,
    since torsion (0, ..., 0) comes first."""
    box = enumerate_box(fan)
    j = bisect_left(box, (0,) * fan.dim, key=attrgetter("rig"))
    return box[:j] + box[j + 1:]
