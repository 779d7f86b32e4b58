"""Shared test helpers: fixture loading and randomized beta-variants."""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest

from stackycones import (AbelianGroupSpec, NElement, StackyFan, boxes, cli, cones,
                         linalg, load_fan, orbcones)
from stackycones.boxes import BoxElement, twisted_sectors
from stackycones.cones import Cone, intersect
from stackycones.fan import CheckResult, ValidationReport, ray_data

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FIXTURE_NAMES = (
    "p1",
    "p2",
    "hirzebruch-f1",
    "football",
    "gerby-p1",
    "p1xfootball",
    "p2-c2",
)

CLASSICAL_FIXTURES = ("p1", "p2", "hirzebruch-f1")

# Verification-heavy tests sample beta-variants whose orbifold curve space
# has at most this dimension.  The polyhedral engine is exact at desk scale;
# this cap keeps every verification instance well under its runtime budget
# (worst observed ~0.2 s at cap 16) while still exercising multipliers up
# to 4 and randomized torsion.
VERIFY_CURVE_DIM_CAP = 16


def fixture_path(name: str) -> Path:
    return FIXTURES_DIR / f"{name}.json"


def fixture_fan(name: str) -> StackyFan:
    return load_fan(fixture_path(name))


def all_fixture_fans() -> list[StackyFan]:
    return [fixture_fan(name) for name in FIXTURE_NAMES]


def beta_variant(fan: StackyFan, rng: random.Random,
                 max_curve_dim: int | None = None) -> StackyFan:
    """A random beta over the same fan shape: every ray image is scaled by
    an independent positive integer <= 4 and torsion residues are
    re-randomized; occasionally one extra Z/l torsion factor is attached.
    The underlying fan (primitive ray directions and maximal cones) is
    unchanged, so validity is preserved.

    With ``max_curve_dim`` set, candidates whose orbifold curve space
    exceeds that dimension are redrawn: the polyhedral engine's exactness
    envelope is desk-scale, so verification-heavy tests sample inside it
    (the c > 1 and torsion regimes are still fully exercised).
    """
    from stackycones import enumerate_box

    while True:
        orders = list(fan.group.torsion_orders)
        if rng.random() < 1 / 3:
            orders.append(rng.choice((2, 3)))
        group = AbelianGroupSpec(fan.group.rank, tuple(orders))
        rays = []
        for ray in fan.rays:
            m = rng.randint(1, 4)
            free = tuple(m * x for x in ray.free)
            torsion = tuple(rng.randrange(l) for l in orders)
            rays.append(NElement(free, torsion))
        candidate = StackyFan(group, tuple(rays), fan.max_cones,
                              name=fan.name + "-variant")
        if max_curve_dim is None:
            return candidate
        t = len(enumerate_box(candidate)) - 1
        if candidate.n_rays - candidate.dim + t <= max_curve_dim:
            return candidate


def polygon_rays(rng: random.Random, m: int) -> list[tuple[int, int]]:
    """m primitive vectors in [-3, 3]^2 in counter-clockwise order with every
    angular gap below pi, so consecutive pairs make a complete fan."""
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]
    while True:
        dirs = set()
        while len(dirs) < m:
            v = (rng.randint(-3, 3), rng.randint(-3, 3))
            if math.gcd(*v) == 1:
                dirs.add(v)
        rays = sorted(dirs, key=lambda v: math.atan2(v[1], v[0]))
        if all(cross(rays[i], rays[(i + 1) % m]) > 0 for i in range(m)):
            return rays


def polygon_fan(rng: random.Random, kind: str, m: int) -> StackyFan:
    """A complete fan over polygon_rays(rng, m): the m cones over
    consecutive rays (d = 2) for kind "polygon", or for kind "prism" the 2m
    cones of the P^1 x polygon prism (d = 3), whose extra rays are +-e_3."""
    polygon = polygon_rays(rng, m)
    if kind == "polygon":
        return StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in polygon),
                         tuple((i, (i + 1) % m) for i in range(m)), name=f"polygon{m}")
    rays = [v + (0,) for v in polygon] + [(0, 0, 1), (0, 0, -1)]
    return StackyFan(AbelianGroupSpec(3), tuple(NElement(v) for v in rays),
                     tuple((i, (i + 1) % m, m + s) for i in range(m) for s in (0, 1)),
                     name=f"prism{m}")


def weighted_projective_fan(w) -> StackyFan:
    """P(1, w_1, ..., w_d): rays e_1, ..., e_d and -w, and every d of them
    span a maximal cone."""
    d = len(w)
    rays = [linalg.unit_vector(d, i) for i in range(d)] + [tuple(-x for x in w)]
    return StackyFan(AbelianGroupSpec(d), tuple(NElement(v) for v in rays),
                     tuple(itertools.combinations(range(d + 1), d)), name=f"P(1,{w})")


def product_fan(f: StackyFan, g: StackyFan) -> StackyFan:
    """The product stacky fan over N_f x N_g."""
    group = AbelianGroupSpec(f.dim + g.dim, f.group.torsion_orders + g.group.torsion_orders)
    rays = ([NElement(r.free + (0,) * g.dim, r.torsion + (0,) * g.group.torsion_rank)
             for r in f.rays]
            + [NElement((0,) * f.dim + r.free, (0,) * f.group.torsion_rank + r.torsion)
               for r in g.rays])
    cones = tuple(a + tuple(f.n_rays + i for i in b)
                  for a in f.max_cones for b in g.max_cones)
    return StackyFan(group, tuple(rays), cones, name=f"{f.name}x{g.name}")


def vadd(u, v):
    """The sum of two vectors of equal length, as a tuple."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, v):
    """The vector v times the scalar c, as a tuple."""
    return tuple(c * a for a in v)


def integer_rows(vectors) -> list:
    """Dense rational rows in the form orbcones keeps Xi and Xi* in: per
    row, the lcm of its entries' denominators and the (column, integer
    numerator) pair of each nonzero entry."""
    rows = []
    for v in vectors:
        den = math.lcm(*[Fraction(x).denominator for x in v])
        rows.append((den, tuple((k, int(x * den)) for k, x in enumerate(v) if x)))
    return rows


def v_orb_of_curve(spaces, coords):
    """The V_orb vector of the curve class with these coordinates in the
    fixed curve basis: the combination of the basis vectors."""
    v = [0] * (spaces.n + spaces.t)
    for c, k in zip(coords, spaces.curve_basis):
        if c != 0:
            v = [x + c * y for x, y in zip(v, k)]
    return tuple(v)


def random_n_element(fan: StackyFan, rng: random.Random, bound: int = 20) -> NElement:
    free = tuple(rng.randint(-bound, bound) for _ in range(fan.dim))
    torsion = tuple(rng.randrange(l) for l in fan.group.torsion_orders)
    return NElement(free, torsion)


def _count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` with a wrapper recording each call's
    arguments, under every name a stackycones module binds the function to
    (modules import each other's functions by name)."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "stackycones" or mod_name.startswith("stackycones."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counting)
    return calls


@pytest.fixture
def dd_runs(monkeypatch) -> list:
    """One entry per double description run (call of
    cones._halfspace_description) made while the test runs."""
    return _count_calls(monkeypatch, cones, "_halfspace_description")


@contextmanager
def counted_dd_runs():
    """The dd_runs list, for one block of a hypothesis test: hypothesis
    prints a fixture argument with a failure, and dd_runs grows over the
    examples to tens of kB."""
    with pytest.MonkeyPatch.context() as patch:
        yield _count_calls(patch, cones, "_halfspace_description")


@pytest.fixture
def drop_last_dual_of_mov_ray(monkeypatch):
    """Make the second DD run inside each verify_duality call, dual(Mov),
    lose its last ray, so the verifier has a mismatch to find.  Returns
    verify_duality wrapped to count those runs; the CLI calls the wrapper."""
    real_dd, real_verify = cones._halfspace_description, orbcones.verify_duality
    runs = None  # the DD runs of the verify_duality call in progress

    def dd(dim, constraints):
        lin, rays = real_dd(dim, constraints)
        if runs is not None:
            runs.append(None)
            if len(runs) == 2:
                return lin, rays[:-1]
        return lin, rays

    def verify(*args, **kwargs):
        nonlocal runs
        runs = []
        try:
            return real_verify(*args, **kwargs)
        finally:
            runs = None

    monkeypatch.setattr(cones, "_halfspace_description", dd)
    monkeypatch.setattr(cli, "verify_duality", verify)
    return verify


@pytest.fixture
def linalg_fractions(monkeypatch) -> list:
    """One entry per Fraction that stackycones.linalg constructs by name
    while the test runs (results of rref, solve_square, inverse and det;
    the integer eliminations build none)."""
    built = []
    original = linalg.Fraction

    def counting(*args):
        value = original(*args)
        built.append(value)
        return value

    monkeypatch.setattr(linalg, "Fraction", counting)
    return built


def fraction_rref(rows):
    """Reduced row echelon form by Gauss-Jordan elimination in Fraction
    arithmetic, an oracle that shares no code with linalg's fraction-free
    elimination.  Returns (nonzero rows, pivot column indices)."""
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


def fraction_kernel_basis(rows, ncols):
    """The canonical kernel basis of linalg.kernel_basis, read off
    fraction_rref: one vector per free column, primitive with first
    nonzero coordinate positive, sorted; with no rows, the standard basis
    in index order."""
    if not rows:
        return tuple(linalg.unit_vector(ncols, i) for i in range(ncols))
    reduced, pivots = fraction_rref(rows)
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[j]
        basis.append(linalg.canonical_line_direction(v))
    return tuple(sorted(basis))


def fraction_solve(rows, rhs):
    """X with A X = B for square A, through fraction_rref, given the rows
    of A and of B (B = I gives the inverse); None when A is singular."""
    n = len(rows)
    reduced, pivots = fraction_rref([list(a) + list(b) for a, b in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in reduced)


def dedupe_enumerate_box(fan: StackyFan) -> tuple[BoxElement, ...]:
    """The box walk that computes every point each cone walks and keeps the
    first cone's coefficients for each, by a dict over the points: an
    oracle for boxes.enumerate_box's ownership rule, which computes a point
    only in the first cone holding its support."""
    kept: dict = {}
    room, fractions = boxes._room(fan), boxes._Fractions()
    for k, cone in enumerate(fan.max_cones):
        m, elements = boxes._cone_group(fan, k, room)
        room -= len(elements)
        rows = tuple(zip(*[fan.rays[i].free for i in cone]))
        points = [tuple(sum(map(mul, row, c)) // m for row in rows) for c in elements]
        rays = boxes._ray_order(cone)
        for point, c in zip(points, elements):
            if point not in kept:
                kept[point] = boxes._coeffs(rays, c, m, fractions)
    torsion = tuple(fan.group.torsion_elements())
    return tuple(BoxElement(rig, t, kept[rig]) for rig in sorted(kept) for t in torsion)


def sectors_pool() -> list[StackyFan]:
    """The 40 fixed beta-variants of the benchmark's sectors workload, from
    perfbench/workloads.py, loaded by path (sys.path is untouched)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [variant for variant, _ in workloads.generate_sectors(REPO_ROOT, 1)]


def coeffs_in_cone(fan: StackyFan, cone, y):
    """The coefficients of y on the rays of a full-dimensional simplicial
    cone when y lies in it (all of them >= 0), through fraction_solve; None
    otherwise.  An oracle for the integer charts of boxes and fan."""
    if len(cone) != fan.dim:
        return None
    rows = tuple(zip(*(fan.rays[i].free for i in cone)))
    sol = fraction_solve(rows, [(a,) for a in y])
    return None if sol is None or any(a < 0 for a, in sol) else tuple(a for a, in sol)


def acoeffs_from_pairs(pairs) -> tuple:
    """The box coefficients a_rho of rational (ray index, coefficient)
    pairs: zeros dropped, sorted by ray, every kept coefficient checked
    positive."""
    entries = tuple(sorted((i, v) for i, v in pairs if v != 0))
    if any(v <= 0 for _, v in entries):
        raise ValueError("barycentric coefficients must be positive where present")
    return entries


def intersect_with_subspace_oracle(cone: Cone, equations) -> Cone:
    """Cone.intersect_with_subspace as it was before the Cone constructor
    normalized the equations, kept as an oracle: each nonzero equation is
    checked and made primitive here, and goes in with its negation."""
    constraints = list(cone.inequalities)
    for e in equations:
        if len(e) != cone.ambient_dim:
            raise ValueError("equation dimension mismatch")
        if not any(e):
            continue
        w = linalg.primitive_direction(e)
        constraints.append(w)
        constraints.append(linalg.vneg(w))
    return Cone(cone.ambient_dim, constraints).dual()


def tight_set_rays(peff, mov) -> tuple:
    """The extremal rays of the cone on the functionals peff, read off the
    rays mov of its dual with no double description run: the primitive
    nonzero functionals whose set of vanishing mov rays is maximal by
    inclusion, sorted.  Exact when that cone is pointed, i.e. its dual is
    full-dimensional: distinct facets of the dual vanish on incomparable
    ray sets, and any other functional of the cone vanishes on the
    intersection of the ray sets of two or more facets."""
    tight = {}
    for g in peff:
        if any(g):
            w = linalg.primitive_direction(g)
            tight[w] = frozenset(i for i, r in enumerate(mov) if linalg.dot(w, r) == 0)
    return tuple(sorted(w for w, rays in tight.items()
                        if not any(rays < other for other in tight.values())))


def rank_two_mov_count(fan: StackyFan) -> int:
    """|Mov| of a valid rank-2 stacky fan, counted with no double description
    run: the positive circuits of M, whose columns are the ray images b_rho
    and then the twisted sectors' box points.  That is the zero columns, plus
    |A||B| over each pair of opposite directions A, B of nonzero columns, plus
    |A||B||C| over each triple of directions with 0 strictly inside their
    cone, decided by exact cross-product signs."""
    assert fan.dim == 2
    columns = [ray.free for ray in fan.rays] + [e.rig for e in twisted_sectors(fan)]
    sizes = Counter(linalg.primitive_direction(v) for v in columns if any(v))
    count = len(columns) - sum(sizes.values())
    directions = list(sizes)
    for u, v in itertools.combinations(directions, 2):
        if u == linalg.vneg(v):
            count += sizes[u] * sizes[v]
    for u, v, w in itertools.combinations(directions, 3):
        signs = {(a[0] * b[1] > a[1] * b[0]) - (a[0] * b[1] < a[1] * b[0])
                 for a, b in ((u, v), (v, w), (w, u))}
        if signs in ({1}, {-1}):
            count += sizes[u] * sizes[v] * sizes[w]
    return count


def cone_on_rays(fan: StackyFan, ray_indices) -> Cone:
    """The Cone generated by the free parts of these rays of the fan."""
    return Cone(fan.dim, [fan.rays[i].free for i in ray_indices])


def battery_validate(fan: StackyFan) -> ValidationReport:
    """The validation battery that fan.validate's ridge certificate
    replaced, kept verbatim as an oracle: checks (a)-(e) of fan.validate,
    with (c) a double description run per pair of maximal cones and (d) a
    battery of exact necessary conditions (purity, ridge counts, a connected
    dual graph, anti-barycenter coverage), not a certified decision
    procedure."""
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
        cones = [cone_on_rays(fan, c) for c in fan.max_cones]
        for a, b in itertools.combinations(range(len(fan.max_cones)), 2):
            ca, cb = fan.max_cones[a], fan.max_cones[b]
            # the cone on the common rays lies in both cones, so the two
            # meet in it iff their intersection lies in it
            face = cone_on_rays(fan, sorted(set(ca) & set(cb)))
            if not all(face.contains(g)
                       for g in intersect(cones[a], cones[b]).generators):
                bad_pairs.append((ca, cb))
        checks.append(CheckResult(
            "pairwise_intersections", not bad_pairs,
            "" if not bad_pairs else f"non-face intersections: {bad_pairs}"))
        checks.append(_battery_completeness_check(fan))
    else:
        checks.append(CheckResult("pairwise_intersections", False,
                                  "skipped: not simplicial"))
        checks.append(CheckResult("complete", False, "skipped: not simplicial"))

    b_rank = linalg.rank([ray.free for ray in fan.rays]) if fan.rays else 0
    checks.append(CheckResult(
        "finite_cokernel", b_rank == d,
        "" if b_rank == d else f"rank of ray matrix is {b_rank}, expected {d}"))

    return ValidationReport(fan.name, tuple(checks))


def facet_separates(fan: StackyFan, normals, sigma: tuple, tau: tuple) -> bool:
    """The per-pair facet test that fan.validate's far-side sets replaced,
    kept as an oracle: whether some inner facet normal h of the maximal cone
    sigma (a row of its chart, or None without one) has h.v <= 0 on every
    ray v of tau, = 0 only on rays of sigma.  Then sigma and tau meet in
    h's hyperplane, where tau is the cone on their common rays."""
    rays = [(i in sigma, fan.rays[i].free) for i in tau]
    return normals is not None and any(
        all((p := sum(map(mul, h, v))) < 0 or p == 0 and common for common, v in rays)
        for h in normals)


def unseparated_pairs(fan: StackyFan) -> list[tuple[int, int]]:
    """The positions (a, b), a < b, of the pairs of maximal cones that no
    facet hyperplane of either separates (facet_separates both ways)."""
    normals = [None if chart is None else chart[1] for chart in fan.charts]
    return [(a, b) for a, b in itertools.combinations(range(len(fan.max_cones)), 2)
            if not facet_separates(fan, normals[a], fan.max_cones[a], fan.max_cones[b])
            and not facet_separates(fan, normals[b], fan.max_cones[b], fan.max_cones[a])]


def far_side_non_face_pairs(fan: StackyFan) -> list[tuple[tuple, tuple]]:
    """fan._non_face_pairs as it was before ray bitmasks, kept as an oracle:
    far[k] has one frozenset per facet normal h of cone k, the used rays j
    with h.v_j < 0, or = 0 and j in cone k, and a pair is separated when one
    cone's rays all lie in a far side of the other.  Every other pair goes
    through _oracle_pair_pass."""
    rays = [frozenset(cone) for cone in fan.max_cones]
    used = [(j, fan.rays[j].free) for j in set().union(*rays)]
    far = [() if chart is None else [
        frozenset([j for j, v in used if (p := sum(map(mul, h, v))) < 0 or p == 0 and j in cone])
        for h in chart[1]] for cone, chart in zip(rays, fan.charts)]
    return _oracle_pair_pass(fan, lambda a, b: any(rays[b] <= s for s in far[a])
                             or any(rays[a] <= s for s in far[b]))


def per_facet_separated(fan: StackyFan) -> list[int]:
    """fan._separated as it was before one pass per facet hyperplane, kept as
    an oracle: per facet normal h (a chart row) of cone k, one dot product
    per used ray outside cone k.  Its near side is the cones holding the ray
    h drops or a ray outside cone k with h.v >= 0, and bit b of
    separated[k] marks each cone b outside it."""
    n = len(fan.max_cones)
    holders = [0] * fan.n_rays
    for b, cone in enumerate(fan.max_cones):
        for j in cone:
            holders[j] |= 1 << b
    used = [(held, fan.rays[j].free) for j, held in enumerate(holders) if held]
    everyone, separated = (1 << n) - 1, [0] * n
    for k, (cone, chart) in enumerate(zip(fan.max_cones, fan.charts)):
        if chart is not None:
            outside = [(held, v) for held, v in used if not held >> k & 1]
            for i, h in zip(cone, chart[1]):
                near = holders[i]
                for held, v in outside:
                    if sum(map(mul, h, v)) >= 0:
                        near |= held
                separated[k] |= everyone ^ near
    return separated


def per_facet_non_face_pairs(fan: StackyFan) -> list[tuple[tuple, tuple]]:
    """fan._non_face_pairs on per_facet_separated's masks."""
    separated = per_facet_separated(fan)
    return _oracle_pair_pass(fan, lambda a, b: separated[a] >> b & 1 or separated[b] >> a & 1)


def _oracle_pair_pass(fan: StackyFan, is_separated) -> list[tuple[tuple, tuple]]:
    """The pairs of maximal cones at positions (a, b), in combinations order
    and not is_separated(a, b), that do not meet in a face: each goes to
    cones._dual_generators, looked up on the module at each call so that a
    test can record the calls, on the two cones' primitive chart rows (or,
    with no chart, the dual generators of its primitive rays), and meets in
    a face iff the run returns the sorted primitive common rays."""
    rays = [frozenset(cone) for cone in fan.max_cones]
    ineqs = {}
    bad_pairs = []
    for a, b in itertools.combinations(range(len(rays)), 2):
        if is_separated(a, b):
            continue
        for k in (a, b):
            if k not in ineqs:
                chart = fan.charts[k]
                ineqs[k] = [linalg.primitive_direction(h) for h in chart[1]] if chart else \
                    cones._dual_generators(fan.dim, [linalg.primitive_direction(fan.rays[i].free)
                                                     for i in fan.max_cones[k]])
        face = tuple(sorted([linalg.primitive_direction(fan.rays[i].free)
                             for i in rays[a] & rays[b]]))
        if cones._dual_generators(fan.dim, [*ineqs[a], *ineqs[b]]) != face:
            bad_pairs.append((fan.max_cones[a], fan.max_cones[b]))
    return bad_pairs


def pairwise_oracle(fan: StackyFan) -> CheckResult:
    """fan.validate's pairwise_intersections check on a simplicial fan, the
    way it ran before far-side sets: every unseparated pair intersected by
    one double description run, on a Cone per cone built up front, and its
    intersection tested against the face Cone on the common rays."""
    cones = [cone_on_rays(fan, c) for c in fan.max_cones]
    bad_pairs = []
    for a, b in unseparated_pairs(fan):
        ca, cb = fan.max_cones[a], fan.max_cones[b]
        face = cone_on_rays(fan, sorted(set(ca) & set(cb)))
        if not all(face.contains(g) for g in intersect(cones[a], cones[b]).generators):
            bad_pairs.append((ca, cb))
    return CheckResult("pairwise_intersections", not bad_pairs,
                       "" if not bad_pairs else f"non-face intersections: {bad_pairs}")


def meets_in_a_face(fan: StackyFan, a: int, b: int) -> bool:
    """The face test that fan._non_face_pairs ran before it compared the
    intersection with the cone on the common rays, kept as an oracle: the
    maximal cones at positions a and b (simplicial) meet in a face iff their
    intersection lies in the span of their common rays.  With a chart, a
    cone's coordinates at its rays that the other lacks must vanish on every
    generator of the intersection; with neither chart, adding a generator to
    the common rays must not raise their rank."""
    ca, cb = fan.max_cones[a], fan.max_cones[b]
    meet = intersect(cone_on_rays(fan, ca), cone_on_rays(fan, cb)).generators
    k, other = (b, a) if fan.charts[b] else (a, b)
    if fan.charts[k]:
        off = [h for i, h in zip(fan.max_cones[k], fan.charts[k][1])
               if i not in fan.max_cones[other]]
        return not any(sum(map(mul, h, g)) for g in meet for h in off)
    common = [fan.rays[i].free for i in set(ca) & set(cb)]
    return all(linalg.rank(common + [g]) == len(common) for g in meet)


def _battery_completeness_check(fan: StackyFan) -> CheckResult:
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
        bad_ridges = dict(sorted([(tuple(sorted(r)), k) for r, k in ridge_count.items()
                                  if k != 2]))
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
            if all(coeffs_in_cone(fan, c, anti) is None
                   for c in fan.max_cones):
                problems.append(
                    f"-(sum of primitive rays of {cone}) is not covered")
                break

    return CheckResult("complete", not problems, "; ".join(problems))


def pytest_addoption(parser):
    parser.addoption("--update-goldens", action="store_true", default=False,
                     help="rewrite the golden CLI output files")
