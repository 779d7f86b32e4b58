"""Barycentric ray coefficients, the fractional-part reduction map, and
enumeration of box elements (= sectors; the nonzero ones are the twisted
sectors).

A lattice point y decomposes uniquely as y = sum_rho a_rho(y) * b_rho with
a_rho(y) >= 0 supported on the rays of the minimal cone containing y.  Box
elements are the y with every a_rho(y) < 1, crossed with the torsion part
of the group.  The canonical ordering fixed here (rig part lexicographic,
then torsion lexicographic) is the index order used by every downstream
coordinate system.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, prod
from typing import Sequence

from .fan import NElement, StackyFan, coeffs_in_cone
from .linalg import IntVec, det, inverse, mat_vec

# enumerate_box refuses more bounding-box candidates or box elements: a scan
# that long takes seconds; the largest fixture, test or benchmark input needs 812
ENUMERATION_LIMIT = 10 ** 5


class IncompleteFanError(RuntimeError):
    """No maximal cone contains the requested point; the fan cannot be
    complete (validation escape hatch)."""


class EnumerationLimitError(ValueError):
    """The box of a fan is too large to enumerate within ENUMERATION_LIMIT."""


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
        entries = tuple(sorted((i, Fraction(v)) for i, v in pairs if v != 0))
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
    coeffs = minimal_cone_coeffs(fan, b.free)
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


def cone_parallelepiped_points(fan: StackyFan, cone: Sequence[int]
                               ) -> list[tuple[IntVec, ACoeffs]]:
    """Integer points of the half-open parallelepiped spanned by the b_rho
    of one maximal cone, i.e. {sum a_rho b_rho : 0 <= a_rho < 1}.

    The integer bounding box of the closed parallelepiped is scanned and
    every candidate is accepted or rejected in integers: with size = |det|
    of the ray matrix and the integer matrix adj = size * inverse, a
    candidate p has coefficients adj * p / size, so it lies in the
    parallelepiped iff 0 <= (adj * p)_i < size for every i.  Fractions are
    built for accepted points only; the number of points returned is size.
    """
    d = fan.dim
    vectors = [fan.rays[i].free for i in cone]
    if len(vectors) != d:
        raise ValueError("parallelepiped enumeration needs a full-dimensional cone")
    rows = tuple(zip(*vectors))
    inv = inverse(rows)
    if inv is None:
        raise ValueError(f"cone {tuple(cone)} is not simplicial")
    size = abs(int(det(rows)))
    adj = tuple([tuple([int(x * size) for x in row]) for row in inv])
    lo = [sum(min(0, v[j]) for v in vectors) for j in range(d)]
    hi = [sum(max(0, v[j]) for v in vectors) for j in range(d)]
    out = []
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        a = mat_vec(adj, point)
        if all(0 <= x < size for x in a):
            out.append((point, ACoeffs.from_pairs(
                (i, Fraction(x, size)) for i, x in zip(cone, a))))
    return out


def _enumeration_size(fan: StackyFan) -> tuple[int, int]:
    """Bounding-box candidates summed over maximal cones, and the sum of
    |det| over full-dimensional ones times the torsion group's order (an
    upper bound on the number of box elements)."""
    candidates = points = 0
    for cone in fan.max_cones:
        vectors = [fan.rays[i].free for i in cone]
        # the bounding box's side j is the sum of |v[j]| (see the scan)
        candidates += prod(1 + sum(abs(v[j]) for v in vectors) for j in range(fan.dim))
        if len(cone) == fan.dim:
            points += int(abs(det(tuple(zip(*vectors)))))
    return candidates, points * prod(fan.group.torsion_orders)


def enumerate_box(fan: StackyFan) -> tuple[BoxElement, ...]:
    """All box elements in canonical order (rig lexicographic, then torsion
    lexicographic).  The untwisted element (0, 0) is included.

    Every box element lies in the half-open parallelepiped of some maximal
    cone (points with zero coefficients included, since any subset of a
    simplicial cone's rays spans a face), so the union over maximal cones
    is exhaustive.  Raises EnumerationLimitError, before enumerating, when
    the bounding-box scan or the box itself would exceed ENUMERATION_LIMIT.
    """
    candidates, elements = _enumeration_size(fan)
    if max(candidates, elements) > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"fan '{fan.name}' is too large to enumerate: {candidates} "
            f"bounding-box candidates, up to {elements} box elements "
            f"(limit {ENUMERATION_LIMIT})")
    rig_points: dict[IntVec, ACoeffs] = {}
    for cone in fan.max_cones:
        for point, coeffs in cone_parallelepiped_points(fan, cone):
            rig_points.setdefault(point, coeffs)
    out = []
    for rig in sorted(rig_points):
        for torsion in fan.group.torsion_elements():
            out.append(BoxElement(rig=rig, torsion=torsion,
                                  coeffs=rig_points[rig]))
    return tuple(out)


def twisted_sectors(fan: StackyFan) -> tuple[BoxElement, ...]:
    """enumerate_box minus the untwisted element; this order defines the
    sector index used by all downstream coordinates."""
    return tuple([e for e in enumerate_box(fan) if not e.is_untwisted])
