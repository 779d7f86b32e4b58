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
from operator import mul
from typing import Iterator, Optional, Sequence

from . import linalg
from .cones import _dual_generators
from .linalg import IntVec, primitive, primitive_direction


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
        return NElement(self.free, group.reduce_torsion(self.torsion))


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
        w, c = primitive(ray.free)
        out.append(RayData(index=i, b_rig=tuple(ray.free), w=w, c=c,
                           torsion=ray.torsion))
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
    also proves (c).  Otherwise a pair that a facet hyperplane separates
    meets in a face (Cox, Little and Schenck, "Toric Varieties", Lemma
    1.2.13).  Each facet normal's far side, the used rays it puts on or
    beyond its hyperplane, is one set built once per call, so a pair's test
    is a set inclusion (_non_face_pairs).  Any other pair is intersected by
    one double description run on the two cones' inequality rows, made
    primitive once per cone, with no Cone built; the two meet in a face iff
    that intersection is the cone on their common rays, so the run's
    canonical generators must be those rays, primitive and sorted.
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
        bad_pairs = [] if covers == 1 else _non_face_pairs(fan)
        checks.append(CheckResult(
            "pairwise_intersections", not bad_pairs,
            "" if not bad_pairs else f"non-face intersections: {bad_pairs}"))
        checks.append(complete)
    else:
        checks.append(CheckResult("pairwise_intersections", False,
                                  "skipped: not simplicial"))
        checks.append(CheckResult("complete", False, "skipped: not simplicial"))

    b_rank = linalg.rank([ray.free for ray in fan.rays]) if fan.rays else 0
    checks.append(CheckResult(
        "finite_cokernel", b_rank == d,
        "" if b_rank == d else f"rank of ray matrix is {b_rank}, expected {d}"))

    return ValidationReport(fan.name, tuple(checks))


def _non_face_pairs(fan: StackyFan) -> list[tuple[tuple, tuple]]:
    """The pairs of maximal cones, in combinations order, that do not meet in
    a common face.  far[k] has one far side per facet normal h of cone k:
    the used rays j with h.v_j < 0, or = 0 and j in cone k.  If another
    cone's rays all lie there, the two meet in h's hyperplane, in a face.
    Any other pair is intersected by cones._dual_generators on the two
    cones' inequalities: primitive chart rows (x in it iff m B^-1 x >= 0),
    or with no chart the dual generators of its primitive rays.  Both cones
    are simplicial, so pointed, and the intersection contains the cone on
    their common rays, which are independent: the pair meets in a face iff
    the run returns exactly those rays, primitive and sorted."""
    rays = [frozenset(cone) for cone in fan.max_cones]
    used = [(j, fan.rays[j].free) for j in set().union(*rays)]
    far = [() if chart is None else [
        frozenset([j for j, v in used if (p := sum(map(mul, h, v))) < 0 or p == 0 and j in cone])
        for h in chart[1]] for cone, chart in zip(rays, fan.charts)]
    ineqs: dict[int, Sequence[IntVec]] = {}
    bad_pairs = []
    for a, b in itertools.combinations(range(len(rays)), 2):
        if any(rays[b] <= s for s in far[a]) or any(rays[a] <= s for s in far[b]):
            continue
        for k in (a, b):
            if k not in ineqs:
                chart = fan.charts[k]
                ineqs[k] = [primitive_direction(h) for h in chart[1]] if chart else \
                    _dual_generators(fan.dim, [primitive_direction(fan.rays[i].free)
                                               for i in fan.max_cones[k]])
        face = tuple(sorted([primitive_direction(fan.rays[i].free) for i in rays[a] & rays[b]]))
        if _dual_generators(fan.dim, [*ineqs[a], *ineqs[b]]) != face:
            bad_pairs.append((fan.max_cones[a], fan.max_cones[b]))
    return bad_pairs


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
        # cones, with apexes on opposite sides: its normal in one is < 0 on the other
        ridges: dict[frozenset, list[tuple[list[int], IntVec]]] = {}
        for cone, (_, hs) in zip(fan.max_cones, fan.charts):
            facets, cs = dict(zip(cone, hs)), frozenset(cone)
            for drop in cs:
                ridges.setdefault(cs - {drop}, []).append((facets[drop], fan.rays[drop].free))
        bad_ridges = {tuple(sorted(r)): len(a) for r, a in ridges.items() if len(a) != 2}
        if bad_ridges:
            problems.append(f"ridges not shared by exactly 2 cones: {bad_ridges}")
        one_sided = [] if bad_ridges else [
            tuple(sorted(r)) for r, ((h, _), (_, b)) in ridges.items()
            if sum(map(mul, h, b)) > 0]
        if one_sided:
            problems.append(f"ridges whose two cones lie on one side: {one_sided}")

    covers = 0
    if not problems:
        # a moment-curve point (1, s, s^2, ...) off every ridge's hyperplane;
        # the curve lies in no hyperplane, so only finitely many s fail
        curve = (tuple(s ** j for j in range(d)) for s in itertools.count(2))
        point = next(p for p in curve if all(sum(map(mul, h, p)) for (h, _), _ in ridges.values()))
        covers = sum(all(sum(map(mul, h, point)) >= 0 for h in hs) for _, hs in fan.charts)
        if d == 0 and covers > 1:  # no ridges glue them, and {0} is one cone
            problems.append(f"{covers} maximal cones in rank 0")
    return CheckResult("complete", not problems, "; ".join(problems)), covers
