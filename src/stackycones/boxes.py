"""Barycentric ray coefficients, the fractional-part reduction map, and
enumeration of box elements (= sectors; the nonzero ones are the twisted
sectors).

A lattice point y decomposes uniquely as y = sum_rho a_rho(y) * b_rho with
a_rho(y) >= 0 supported on the rays of the minimal cone containing y.  Box
elements are the y with every a_rho(y) < 1, crossed with the torsion part
of the group.  Those of one full-dimensional maximal cone with ray matrix
B represent the group Z^d / B Z^d of order |det B|, and are walked as that
group (Borisov, Chen and Smith, "The orbifold Chow ring of toric
Deligne-Mumford stacks", 2005), once per cone and in integers; coefficients
are built only for the points kept.  The canonical ordering fixed here (rig
part lexicographic, then torsion lexicographic) is the index order used by
every downstream coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm, prod
from operator import mul
from typing import Sequence

from .fan import NElement, StackyFan, coeffs_in_cone
from .linalg import IntVec, _bareiss, _echelon, unit_vector

# enumerate_box refuses fans with more box elements: walking that many takes
# seconds; the largest fixture, test or benchmark input has 522
ENUMERATION_LIMIT = 10 ** 5


class IncompleteFanError(RuntimeError):
    """No maximal cone contains the requested point; the fan cannot be
    complete (validation escape hatch)."""


class EnumerationLimitError(ValueError):
    """The box of a fan could have more than ENUMERATION_LIMIT elements, or
    its class spaces more than neron_severi.CLASS_SPACE_LIMIT coordinates."""


@dataclass(frozen=True)
class ACoeffs:
    """Sparse ray-indexed coefficient vector; only positive entries stored."""

    entries: tuple[tuple[int, Fraction], ...]  # (ray index, value), sorted

    def get(self, ray: int) -> Fraction:
        for i, v in self.entries:
            if i == ray:
                return v
        return Fraction(0)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self.entries

    @staticmethod
    def from_pairs(pairs) -> "ACoeffs":
        entries = tuple(sorted((i, v) for i, v in pairs if v != 0))
        if any(v <= 0 for _, v in entries):
            raise ValueError("barycentric coefficients must be positive where present")
        return ACoeffs(entries)


@dataclass(frozen=True)
class BoxElement:
    """One sector: a box lattice point with its coefficients, plus a torsion
    component.  (0, 0) is the untwisted sector."""

    rig: IntVec
    torsion: tuple[int, ...]
    coeffs: ACoeffs

    @property
    def is_untwisted(self) -> bool:
        return not any(self.rig) and not any(self.torsion)

    def as_n_element(self) -> NElement:
        return NElement(self.rig, self.torsion)


def minimal_cone_coeffs(fan: StackyFan, y: Sequence[int]) -> ACoeffs:
    """Coefficients of y on the rays of its minimal cone.

    Scans maximal cones in input order, solves y = sum a_rho b_rho over the
    first cone containing y, and keeps the strictly positive entries.  The
    result is independent of which containing cone was hit because the
    minimal-cone expression is unique.
    """
    y = tuple(y)
    if len(y) != fan.dim:
        raise ValueError(f"point has length {len(y)}, fan has dimension {fan.dim}")
    for cone in fan.max_cones:
        sol = coeffs_in_cone(fan, cone, y)
        if sol is not None:
            return ACoeffs.from_pairs(zip(cone, sol))
    raise IncompleteFanError(f"fan not complete at {y}: no maximal cone contains it")


def q_reduce(fan: StackyFan, b: NElement) -> BoxElement:
    """Reduce an element of N to its box element: take fractional parts of
    the ray coefficients of the free part; the torsion part passes through."""
    return _fractional_part(fan, b, minimal_cone_coeffs(fan, b.free))


def _fractional_part(fan: StackyFan, b: NElement, coeffs: ACoeffs) -> BoxElement:
    # q_reduce of b, given the ray coefficients of its free part
    rig = list(b.free)
    frac_pairs = []
    for i, a in coeffs.items():
        n = floor(a)
        if n:
            b_rig = fan.rays[i].free
            rig = [x - n * v for x, v in zip(rig, b_rig)]
        if a - n > 0:
            frac_pairs.append((i, a - n))
    return BoxElement(rig=tuple(rig),
                      torsion=fan.group.reduce_torsion(b.torsion),
                      coeffs=ACoeffs.from_pairs(frac_pairs))


def _cone_group(fan: StackyFan, cone: Sequence[int]
                ) -> tuple[int, list[tuple[IntVec, IntVec]]]:
    # the walk of cone_parallelepiped_points: m and the (point, c) pairs
    d = fan.dim
    vectors = [fan.rays[i].free for i in cone]
    if len(vectors) != d:
        raise ValueError("parallelepiped enumeration needs a full-dimensional cone")
    rows = tuple(zip(*vectors))
    done = _echelon([row + unit_vector(d, j) for j, row in enumerate(rows)], range(d))
    if len(done) < d:
        raise ValueError(f"cone {tuple(cone)} is not simplicial")
    m = lcm(*(row[p] for p, row in done))
    adj = [[x * (m // row[p]) % m for x in row[d:]] for p, row in done]
    group = {(0,) * d}
    for g in zip(*adj):
        # add the cosets H + k g (k = 1, 2, ...) of the subgroup H built so
        # far, until k g lies in H
        subgroup, step = list(group), g
        while step not in group:
            group.update([tuple([(x + y) % m for x, y in zip(c, step)]) for c in subgroup])
            step = tuple([(x + y) % m for x, y in zip(step, g)])
    return m, [(tuple([sum(map(mul, row, c)) // m for row in rows]), c) for c in group]


def _coeffs(cone: Sequence[int], c: IntVec, m: int, fractions: dict) -> ACoeffs:
    # c / m on the cone's rays, positive entries; fractions: (x, m) -> x / m
    return ACoeffs(tuple([(i, fractions.get((x, m)) or fractions.setdefault((x, m), Fraction(x, m)))
                          for i, x in sorted(zip(cone, c)) if x]))


def cone_parallelepiped_points(fan: StackyFan, cone: Sequence[int]
                               ) -> list[tuple[IntVec, ACoeffs]]:
    """Integer points of the half-open parallelepiped spanned by the b_rho
    of one maximal cone, i.e. {sum a_rho b_rho : 0 <= a_rho < 1}, sorted.

    One integer elimination of [B | I], B the ray matrix, gives rows
    k_p (e_p | row p of B^-1); with m the lcm of the pivots, adj = m B^-1 is
    integral and a point p has coefficients adj p / m.  So p -> adj p mod m
    maps Z^d / B Z^d onto the subgroup of (Z/m)^d that adj's columns
    generate, and each element c of it, taken in [0, m)^d, gives the point
    B c / m.  The walk builds that subgroup, exactly |det B| elements.
    """
    m, points = _cone_group(fan, cone)
    return [(point, _coeffs(cone, c, m, {})) for point, c in sorted(points)]


def _enumeration_size(fan: StackyFan) -> int:
    """An upper bound on the number of box elements: the parallelepiped
    point counts |det| of the full-dimensional maximal cones, summed, times
    the torsion group's order; [1] stands for the rank-0 cone {0}."""
    points = 0
    for cone in fan.max_cones:
        if len(cone) == fan.dim:
            m = [list(fan.rays[i].free) for i in cone] or [[1]]
            points += abs(m[-1][-1]) if _bareiss(m)[0] == len(m) else 0
    return points * prod(fan.group.torsion_orders)


def enumerate_box(fan: StackyFan) -> tuple[BoxElement, ...]:
    """All box elements in canonical order (rig lexicographic, then torsion
    lexicographic).  The untwisted element (0, 0) is included.

    Every box element lies in the half-open parallelepiped of some maximal
    cone (points with zero coefficients included, since any subset of a
    simplicial cone's rays spans a face), so the union over maximal cones
    is exhaustive.  Each cone is walked once, in integers; the first cone
    to reach a point keeps it (the minimal-cone expression is unique), and
    coefficients are built once per kept point.  Raises
    EnumerationLimitError, before enumerating, when the box could have more
    than ENUMERATION_LIMIT elements, which also bounds the points walked.
    """
    elements = _enumeration_size(fan)
    if elements > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"fan '{fan.name}' is too large to enumerate: up to {elements} "
            f"box elements (limit {ENUMERATION_LIMIT})")
    kept: dict[IntVec, tuple] = {}
    for cone in fan.max_cones:
        m, points = _cone_group(fan, cone)
        for point, c in points:
            kept.setdefault(point, (cone, c, m))
    torsion = tuple(fan.group.torsion_elements())
    out, fractions = [], {}
    for rig in sorted(kept):
        coeffs = _coeffs(*kept[rig], fractions)
        out.extend([BoxElement(rig, t, coeffs) for t in torsion])
    return tuple(out)


def twisted_sectors(fan: StackyFan) -> tuple[BoxElement, ...]:
    """enumerate_box minus the untwisted element; this order defines the
    sector index used by all downstream coordinates."""
    return tuple([e for e in enumerate_box(fan) if not e.is_untwisted])
