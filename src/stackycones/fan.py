"""Stacky fan input model: a complete simplicial fan together with the map
beta from the ray lattice into N = Z^d x prod Z/l_i, plus validation.

Rays are identified with their beta images: the geometric ray of index rho
is the half-line spanned by the free part of beta(v_rho), so the condition
"beta(v_rho) lies on rho" holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Iterator, Optional, Sequence

from . import linalg
from .cones import Cone, intersect
from .linalg import IntVec, RatVec, primitive, solve_square


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

    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


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


def _cone_of(fan: StackyFan, ray_indices: Sequence[int]) -> Cone:
    return Cone(fan.dim, [fan.rays[i].free for i in ray_indices])


def coeffs_in_cone(fan: StackyFan, cone: Sequence[int], y: Sequence[int]
                   ) -> Optional[RatVec]:
    """The coefficients of y on the rays of a full-dimensional simplicial
    cone when y lies in it (all of them >= 0); None otherwise."""
    if len(cone) != fan.dim:
        return None
    rows = tuple(zip(*(fan.rays[i].free for i in cone)))
    sol = solve_square(rows, tuple(y))
    return sol if sol is not None and all(a >= 0 for a in sol) else None


def validate(fan: StackyFan) -> ValidationReport:
    """Run the validation checks and report pass/fail per check.

    Checks: (a) nonzero rays, (b) simpliciality, (c) pairwise intersections
    of maximal cones are common faces, (d) completeness, (e) finite cokernel
    of beta.  One integer elimination per full-dimensional maximal cone,
    linalg.cone_inverse, decides (b) and gives the cone's facet normals.  (d)
    is certified from the ridges (De Loera, Rambau and Santos,
    "Triangulations", 2010, 4.5): if each ridge lies in exactly two maximal
    cones, on opposite sides of it (the sign of one facet normal), the cones
    cover every generic point k >= 1 times.  One generic point gives k; k = 1
    also proves (c).  Otherwise a pair that a facet hyperplane separates
    meets in a face (Cox, Little and Schenck, "Toric Varieties", Lemma
    1.2.13), and each other pair runs a double description test.
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

    normals: list = []  # rows of m B^-1 per full-dimensional cone, else None
    bad_simplicial = []
    for cone in fan.max_cones:
        vectors = [fan.rays[i].free for i in cone]
        inverse = linalg.cone_inverse(vectors) if len(cone) == d else None
        normals.append(inverse[1] if inverse else None)
        if inverse is None and (len(cone) == d or linalg.rank(vectors) != len(cone)):
            bad_simplicial.append(cone)
    simplicial = not bad_simplicial
    checks.append(CheckResult(
        "simplicial", simplicial,
        "" if simplicial else f"linearly dependent cones: {bad_simplicial}"))

    if simplicial:
        complete, covers = _completeness_check(fan, normals)
        bad_pairs = []
        if covers != 1:
            cones = [_cone_of(fan, c) for c in fan.max_cones]
            for a, b in itertools.combinations(range(len(fan.max_cones)), 2):
                ca, cb = fan.max_cones[a], fan.max_cones[b]
                if _facet_separates(fan, normals[a], ca, cb) or \
                        _facet_separates(fan, normals[b], cb, ca):
                    continue
                # the cone on the common rays lies in both cones, so the two
                # meet in it iff their intersection lies in it
                face = _cone_of(fan, sorted(set(ca) & set(cb)))
                if not all(face.contains(g)
                           for g in intersect(cones[a], cones[b]).generators):
                    bad_pairs.append((ca, cb))
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


def _facet_separates(fan: StackyFan, normals: Optional[list], sigma: tuple, tau: tuple) -> bool:
    """Whether some inner facet normal h of the maximal cone sigma has h.v <= 0
    on every ray v of tau, = 0 only on rays of sigma.  Then sigma and tau
    meet in h's hyperplane, where tau is the cone on their common rays."""
    rays = [(i in sigma, fan.rays[i].free) for i in tau]
    return normals is not None and any(
        all((p := sum(map(mul, h, v))) < 0 or p == 0 and common for common, v in rays)
        for h in normals)


def _completeness_check(fan: StackyFan, normals: list) -> tuple[CheckResult, int]:
    """The completeness check, from the facet normals of the maximal cones, and
    how many of them contain one generic point (0 unless the ridges certify)."""
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
        for cone, hs in zip(fan.max_cones, normals):
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
        covers = sum(all(sum(map(mul, h, point)) >= 0 for h in hs) for hs in normals)
        if d == 0 and covers > 1:  # no ridges glue them, and {0} is one cone
            problems.append(f"{covers} maximal cones in rank 0")
    return CheckResult("complete", not problems, "; ".join(problems)), covers
