"""Stacky fan input model: a complete simplicial fan together with the map
beta from the ray lattice into N = Z^d x prod Z/l_i and the table of its
maximal cones' charts (built once, read by every stage), plus validation.

Rays are identified with their beta images: the geometric ray of index rho
is the half-line spanned by the free part of beta(v_rho), so the condition
"beta(v_rho) lies on rho" holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd
from operator import mul
from typing import Iterator, Optional, Sequence

from . import linalg
from .cones import _dual_generators
from .linalg import IntVec, primitive_direction


# validate names the pairs of maximal cones that meet outside a face only up to
# this many pairs: the pass is quadratic (P^1^8 less a cone: 32,385 pairs, 2 s)
PAIRWISE_LIMIT = 5 * 10 ** 4


class FanStructureError(ValueError):
    """Raised for structurally malformed input (bad indices, bad residues);
    semantic fan defects are reported through ValidationReport instead."""


@dataclass(frozen=True)
class AbelianGroupSpec:
    """The group N = Z^rank x prod Z/l_i with its fixed decomposition."""

    rank: int
    torsion_orders: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise FanStructureError("rank must be non-negative")
        if any(l < 2 for l in self.torsion_orders):
            raise FanStructureError("torsion orders must be >= 2")

    @property
    def torsion_rank(self) -> int:
        return len(self.torsion_orders)

    def torsion_elements(self) -> Iterator[tuple[int, ...]]:
        """All torsion tuples, in lexicographic order."""
        return itertools.product(*(range(l) for l in self.torsion_orders))

    def reduce_torsion(self, residues: Sequence[int]) -> tuple[int, ...]:
        if len(residues) != self.torsion_rank:
            raise FanStructureError(
                f"expected {self.torsion_rank} residues, got {len(residues)}")
        return tuple(r % l for r, l in zip(residues, self.torsion_orders))


@dataclass(frozen=True)
class NElement:
    """An element of N, split into free and torsion coordinates."""

    free: tuple[int, ...]
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free", tuple(self.free))
        object.__setattr__(self, "torsion", tuple(self.torsion))

    def reduced(self, group: AbelianGroupSpec) -> "NElement":
        torsion = group.reduce_torsion(self.torsion)
        return self if torsion == self.torsion else NElement(self.free, torsion)


@dataclass(frozen=True)
class RayData:
    """Derived data of one ray: b = c * w with w primitive."""

    index: int
    b_rig: IntVec
    w: IntVec
    c: int
    torsion: tuple[int, ...]


@dataclass(frozen=True)
class StackyFan:
    """A stacky fan: the group spec, beta(v_rho) per ray, and the maximal
    cones of the simplicial fan as sets of ray indices."""

    group: AbelianGroupSpec
    rays: tuple[NElement, ...]
    max_cones: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(self.rays))
        object.__setattr__(self, "max_cones",
                           tuple(tuple(c) for c in self.max_cones))
        self._check_structure()

    def _check_structure(self) -> None:
        d, s = self.group.rank, self.group.torsion_rank
        for i, ray in enumerate(self.rays):
            if len(ray.free) != d:
                raise FanStructureError(
                    f"ray {i}: free part has length {len(ray.free)}, expected {d}")
            if len(ray.torsion) != s:
                raise FanStructureError(
                    f"ray {i}: torsion part has length {len(ray.torsion)}, expected {s}")
            for r, l in zip(ray.torsion, self.group.torsion_orders):
                if not 0 <= r < l:
                    raise FanStructureError(
                        f"ray {i}: residue {r} out of range [0, {l})")
        n = len(self.rays)
        for cone in self.max_cones:
            if len(set(cone)) != len(cone):
                raise FanStructureError(f"maximal cone {cone} repeats a ray index")
            for idx in cone:
                if not 0 <= idx < n:
                    raise FanStructureError(f"ray index {idx} out of range [0, {n})")

    @property
    def dim(self) -> int:
        return self.group.rank

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @cached_property
    def charts(self) -> tuple[Optional[tuple[int, list[list[int]]]], ...]:
        """Per maximal cone, in input order: its chart (m, m B^-1), B the ray
        matrix (linalg.cone_inverse), or None if not full-dimensional and simplicial."""
        return tuple([linalg.cone_inverse([self.rays[i].free for i in cone])
                      if len(cone) == self.dim else None for cone in self.max_cones])


def ray_data(fan: StackyFan) -> tuple[RayData, ...]:
    """Per-ray (b_rig, w, c, torsion) with b_rig = c * w, w primitive."""
    out = []
    for i, ray in enumerate(fan.rays):
        if not any(ray.free):
            raise FanStructureError(f"ray {i} has zero free part (degenerate ray)")
        out.append(RayData(index=i, b_rig=tuple(ray.free), w=primitive_direction(ray.free),
                           c=gcd(*ray.free), torsion=ray.torsion))
    return tuple(out)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    fan_name: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"check {c.name}: {'PASS' if c.passed else 'FAIL'}"
               + (f" ({c.detail})" if c.detail else "") for c in self.checks]
        out.append(f"validation: {'PASS' if self.ok else 'FAIL'}")
        return out


def validate(fan: StackyFan) -> ValidationReport:
    """Run the validation checks and report pass/fail per check.

    Checks: (a) nonzero rays, (b) simpliciality, (c) pairwise intersections
    of maximal cones are common faces, (d) completeness, (e) finite cokernel
    of beta.  Each full-dimensional maximal cone's chart (fan.charts, one
    integer elimination) decides (b) and gives the cone's facet normals.  (d)
    is certified from the ridges (De Loera, Rambau and Santos,
    "Triangulations", 2010, 4.5): if each ridge lies in exactly two maximal
    cones, on opposite sides of it (the sign of one facet normal), the cones
    cover every generic point k >= 1 times.  One generic point gives k; k = 1
    also proves (c).  Otherwise the fan is invalid (incomplete, or k >= 2 and
    cones overlap) and a pass over the pairs names the culprits; past
    PAIRWISE_LIMIT pairs (c) fails unchecked.  A pair that a facet hyperplane
    separates meets in a face (Cox, Little and Schenck, "Toric Varieties",
    Lemma 1.2.13).  Each facet normal's near side, the used rays it puts
    strictly inside its half-space or on it off its cone, is read as a
    bitmask of the cones holding those rays, from one pass over the used
    rays per facet hyperplane (neighbouring cones share one); the cones
    outside that mask are the ones the facet separates (_separated).  Any
    other pair is intersected by one double description run on the two
    cones' inequality rows, made primitive once per cone, with no Cone built; the
    two meet in a face iff that intersection is the cone on their common
    rays, so the run's canonical generators must be those rays, primitive
    and sorted.  The ridge map is keyed by ray bitmasks, and a fan with a
    chart has a ray matrix of rank d, so (e) needs no elimination then.
    """
    checks: list[CheckResult] = []
    d = fan.dim

    nonzero = [i for i, ray in enumerate(fan.rays) if not any(ray.free)]
    checks.append(CheckResult(
        "nonzero_rays", not nonzero,
        "" if not nonzero else f"rays with zero free part: {nonzero}"))
    if nonzero:
        return ValidationReport(fan.name, tuple(checks) + (
            CheckResult("simplicial", False, "skipped: zero rays"),
            CheckResult("pairwise_intersections", False, "skipped: zero rays"),
            CheckResult("complete", False, "skipped: zero rays"),
            CheckResult("finite_cokernel", False, "skipped: zero rays")))

    bad_simplicial = [cone for cone, chart in zip(fan.max_cones, fan.charts)
                      if chart is None and (len(cone) == d or linalg.rank(
                          [fan.rays[i].free for i in cone]) != len(cone))]
    simplicial = not bad_simplicial
    checks.append(CheckResult(
        "simplicial", simplicial,
        "" if simplicial else f"linearly dependent cones: {bad_simplicial}"))

    if simplicial:
        complete, covers = _completeness_check(fan)
        if covers != 1 and (pairs := comb(len(fan.max_cones), 2)) > PAIRWISE_LIMIT:
            detail = f"not checked: {pairs} pairs of maximal cones (limit {PAIRWISE_LIMIT})"
        else:
            bad_pairs = [] if covers == 1 else _non_face_pairs(fan)
            detail = f"non-face intersections: {bad_pairs}" if bad_pairs else ""
        checks.append(CheckResult("pairwise_intersections", not detail, detail))
        checks.append(complete)
    else:
        checks.append(CheckResult("pairwise_intersections", False,
                                  "skipped: not simplicial"))
        checks.append(CheckResult("complete", False, "skipped: not simplicial"))

    if any(fan.charts):  # a chart's d rays are independent
        b_rank = d
    else:
        b_rank = linalg.rank([ray.free for ray in fan.rays]) if fan.rays else 0
    checks.append(CheckResult(
        "finite_cokernel", b_rank == d,
        "" if b_rank == d else f"rank of ray matrix is {b_rank}, expected {d}"))

    return ValidationReport(fan.name, tuple(checks))


def _non_face_pairs(fan: StackyFan) -> list[tuple[tuple, tuple]]:
    """The pairs of maximal cones, in combinations order, that do not meet in
    a common face, on a fan the ridges did not certify and with at most
    PAIRWISE_LIMIT pairs.  holders[j] is the int bitmask of the cones that
    hold ray j, and separated[k] (_separated) marks the cones that a facet
    hyperplane of cone k separates from it.  Any other pair is intersected by
    cones._dual_generators on the two cones' inequalities: primitive chart
    rows (x in it iff m B^-1 x >= 0), or with no chart the dual generators of
    its primitive rays.  Both cones are simplicial, so pointed, and the
    intersection contains the cone on their common rays, which are
    independent: the pair meets in a face iff the run returns exactly those
    rays, primitive and sorted."""
    n = len(fan.max_cones)
    holders = [0] * fan.n_rays
    for b, cone in enumerate(fan.max_cones):
        for j in cone:
            holders[j] |= 1 << b
    ineqs: dict[int, Sequence[IntVec]] = {
        k: [primitive_direction(h) for h in chart[1]]
        for k, chart in enumerate(fan.charts) if chart is not None}
    separated = _separated(fan, holders, ineqs)
    bad_pairs = []
    for a, b in itertools.combinations(range(n), 2):
        if separated[a] >> b & 1 or separated[b] >> a & 1:
            continue
        for k in (a, b):
            if k not in ineqs:
                ineqs[k] = _dual_generators(fan.dim, [primitive_direction(fan.rays[i].free)
                                                      for i in fan.max_cones[k]])
        face = tuple(sorted([primitive_direction(fan.rays[i].free)
                             for i in fan.max_cones[a] if holders[i] >> b & 1]))
        if _dual_generators(fan.dim, [*ineqs[a], *ineqs[b]]) != face:
            bad_pairs.append((fan.max_cones[a], fan.max_cones[b]))
    return bad_pairs


def _separated(fan: StackyFan, holders: Sequence[int], rows: dict[int, Sequence[IntVec]]
               ) -> list[int]:
    """Per maximal cone k, the bitmask of the cones that a facet hyperplane of
    k separates from it: those holding no ray on the near side of a facet
    normal of k, rows[k] being cone k's primitive chart rows.  Neighbouring
    cones share hyperplanes, so each row is keyed by its hyperplane (the row
    with its first nonzero coordinate positive), and each hyperplane takes
    one pass over the used rays: the cones holding a ray strictly on either
    side, and the holders of the rays on it.  A facet's near side is the side
    its normal points to plus the holders of the on-plane rays outside k."""
    everyone, separated = (1 << len(fan.max_cones)) - 1, [0] * len(fan.max_cones)
    planes: dict[IntVec, list[tuple[int, bool]]] = {}
    for k, hs in rows.items():
        for h in hs:
            up = next(x for x in h if x) > 0
            planes.setdefault(h if up else tuple([-x for x in h]), []).append((k, up))
    used = [(held, fan.rays[j].free) for j, held in enumerate(holders) if held]
    for h, facets in planes.items():
        above = below = 0
        on: list[int] = []
        for held, v in used:
            p = sum(map(mul, h, v))
            if p > 0:
                above |= held
            elif p < 0:
                below |= held
            else:
                on.append(held)
        for k, up in facets:
            near = above if up else below
            for held in on:
                if not held >> k & 1:
                    near |= held
            separated[k] |= everyone ^ near
    return separated


def _rays_of(mask: int) -> tuple[int, ...]:
    """The ray indices of a mask, ascending."""
    return tuple([i for i in range(mask.bit_length()) if mask >> i & 1])


def _completeness_check(fan: StackyFan) -> tuple[CheckResult, int]:
    """The completeness check, from the facet normals in fan.charts, and how
    many maximal cones contain one generic point (0 unless the ridges certify)."""
    d = fan.dim
    if not fan.max_cones:
        return CheckResult("complete", False, "no maximal cones"), 0
    problems: list[str] = []
    impure = [c for c in fan.max_cones if len(c) != d]
    if impure:
        problems.append(f"maximal cones not of dimension {d}: {impure}")
    unused = sorted(set(range(fan.n_rays)).difference(*fan.max_cones))
    if unused:
        problems.append(f"rays in no maximal cone: {unused}")

    if not problems:
        # every ridge (facet of a maximal cone) must lie in exactly two maximal
        # cones, with apexes on opposite sides: its normal in one is < 0 on the
        # other; a ridge is keyed by its ray mask, its cone's less the dropped
        # ray, and the reports list ridges sorted by their ray tuples
        ridges: dict[int, list[tuple[list[int], IntVec]]] = {}
        frees = [ray.free for ray in fan.rays]
        for cone, (_, hs) in zip(fan.max_cones, fan.charts):
            mask = sum([1 << i for i in cone])  # its rays are distinct
            for drop, h in zip(cone, hs):
                ridges.setdefault(mask ^ 1 << drop, []).append((h, frees[drop]))
        bad_ridges = dict(sorted([(_rays_of(r), len(a)) for r, a in ridges.items()
                                  if len(a) != 2]))
        if bad_ridges:
            problems.append(f"ridges not shared by exactly 2 cones: {bad_ridges}")
        one_sided = [] if bad_ridges else sorted([
            _rays_of(r) for r, ((h, _), (_, b)) in ridges.items()
            if sum(map(mul, h, b)) > 0])
        if one_sided:
            problems.append(f"ridges whose two cones lie on one side: {one_sided}")

    covers = 0
    if not problems:
        # a moment-curve point (1, s, s^2, ...) off every ridge's hyperplane:
        # h.p is a nonzero integer polynomial in s, and by Cauchy's bound its
        # roots are below 1 + max |h_j|
        s = 1 + max([abs(x) for (h, _), _ in ridges.values() for x in h], default=0)
        point = tuple([s ** j for j in range(d)])
        covers = sum([all([sum(map(mul, h, point)) >= 0 for h in hs]) for _, hs in fan.charts])
        if d == 0 and covers > 1:  # no ridges glue them, and {0} is one cone
            problems.append(f"{covers} maximal cones in rank 0")
    return CheckResult("complete", not problems, "; ".join(problems)), covers
