"""Stacky fan input model: a complete simplicial fan together with the map
beta from the ray lattice into N = Z^d x prod Z/l_i, plus validation.

Rays are identified with their beta images: the geometric ray of index rho
is the half-line spanned by the free part of beta(v_rho), so the condition
"beta(v_rho) lies on rho" holds by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import linalg
from .cones import Cone, intersect
from .linalg import IntVec, primitive, solve_square


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


def _point_in_simplicial_cone(fan: StackyFan, cone: Sequence[int],
                              y: Sequence) -> bool:
    rows = tuple(zip(*(fan.rays[i].free for i in cone)))
    sol = solve_square(rows, tuple(y)) if len(cone) == fan.dim else None
    return sol is not None and all(a >= 0 for a in sol)


def validate(fan: StackyFan) -> ValidationReport:
    """Run the validation battery and report pass/fail per check.

    Checks: (a) nonzero rays, (b) simpliciality, (c) pairwise intersections
    of maximal cones are common faces, (d) completeness, (e) finite cokernel
    of beta.  The completeness check is a battery of exact necessary
    conditions (purity, ridge counts, connected dual graph, anti-barycenter
    coverage); it is not a certified decision procedure for arbitrary fans
    but is exact and correct for fans of the kind accepted here.
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

    bad_simplicial = []
    for cone in fan.max_cones:
        vectors = [fan.rays[i].free for i in cone]
        if linalg.rank(vectors) != len(cone):
            bad_simplicial.append(cone)
    simplicial = not bad_simplicial
    checks.append(CheckResult(
        "simplicial", simplicial,
        "" if simplicial else f"linearly dependent cones: {bad_simplicial}"))

    if simplicial:
        bad_pairs = []
        cones = [_cone_of(fan, c) for c in fan.max_cones]
        for a, b in itertools.combinations(range(len(fan.max_cones)), 2):
            ca, cb = fan.max_cones[a], fan.max_cones[b]
            common = sorted(set(ca) & set(cb))
            geometric = intersect(cones[a], cones[b])
            if not geometric.equals(_cone_of(fan, common)):
                bad_pairs.append((ca, cb))
        checks.append(CheckResult(
            "pairwise_intersections", not bad_pairs,
            "" if not bad_pairs else f"non-face intersections: {bad_pairs}"))
        checks.append(_completeness_check(fan))
    else:
        checks.append(CheckResult("pairwise_intersections", False,
                                  "skipped: not simplicial"))
        checks.append(CheckResult("complete", False, "skipped: not simplicial"))

    b_rank = linalg.rank([ray.free for ray in fan.rays]) if fan.rays else 0
    checks.append(CheckResult(
        "finite_cokernel", b_rank == d,
        "" if b_rank == d else f"rank of ray matrix is {b_rank}, expected {d}"))

    return ValidationReport(fan.name, tuple(checks))


def _completeness_check(fan: StackyFan) -> CheckResult:
    d = fan.dim
    problems: list[str] = []

    if not fan.max_cones:
        return CheckResult("complete", False, "no maximal cones")
    impure = [c for c in fan.max_cones if len(c) != d]
    if impure:
        problems.append(f"maximal cones not of dimension {d}: {impure}")
    used = {i for c in fan.max_cones for i in c}
    unused = sorted(set(range(fan.n_rays)) - used)
    if unused:
        problems.append(f"rays in no maximal cone: {unused}")

    if not problems:
        # every ridge (facet of a maximal cone) must lie in exactly two
        # maximal cones, and the resulting dual graph must be connected
        cone_sets = [frozenset(c) for c in fan.max_cones]
        ridge_count: dict[frozenset, int] = {}
        for cs in cone_sets:
            for drop in cs:
                ridge = cs - {drop}
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        bad_ridges = {tuple(sorted(r)): k for r, k in ridge_count.items() if k != 2}
        if bad_ridges:
            problems.append(f"ridges not shared by exactly 2 cones: {bad_ridges}")
        else:
            seen = {0}
            frontier = [0]
            while frontier:
                cur = frontier.pop()
                for j in range(len(cone_sets)):
                    if j not in seen and len(cone_sets[cur] & cone_sets[j]) == d - 1:
                        seen.add(j)
                        frontier.append(j)
            if len(seen) != len(cone_sets):
                problems.append("dual graph of maximal cones is disconnected")

    if not problems:
        rd = ray_data(fan)
        for cone in fan.max_cones:
            anti = tuple(-sum(rd[i].w[j] for i in cone) for j in range(d))
            if not any(_point_in_simplicial_cone(fan, c, anti)
                       for c in fan.max_cones):
                problems.append(
                    f"-(sum of primitive rays of {cone}) is not covered")
                break

    return CheckResult("complete", not problems, "; ".join(problems))
