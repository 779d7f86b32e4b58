import random
from collections import Counter

import pytest
from conftest import (
    FIXTURE_NAMES,
    all_fixture_fans,
    battery_validate,
    fixture_fan,
    polygon_rays,
)
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stackycones.cones import intersect
from stackycones.fan import (
    AbelianGroupSpec,
    FanStructureError,
    NElement,
    StackyFan,
    _cone_of,
    _facet_separates,
    ray_data,
    validate,
)
from stackycones.linalg import cone_inverse
from stackycones.boxes import minimal_cone_coeffs


def _p1():
    return StackyFan(AbelianGroupSpec(1), (NElement((1,)), NElement((-1,))),
                     ((0,), (1,)), name="p1")


def test_p1_validates():
    report = validate(_p1())
    assert report.ok
    assert [c.name for c in report.checks] == [
        "nonzero_rays", "simplicial", "pairwise_intersections", "complete",
        "finite_cokernel"]


def test_half_line_fails_completeness():
    fan = StackyFan(AbelianGroupSpec(1), (NElement((1,)), NElement((-1,))),
                    ((0,),), name="half")
    report = validate(fan)
    assert not report.ok
    by_name = {c.name: c for c in report.checks}
    assert not by_name["complete"].passed
    assert by_name["simplicial"].passed


def test_p2_validates():
    assert validate(fixture_fan("p2")).ok


# double description runs of validate: the ridge certificate of a valid fan
# makes none
VALIDATE_DD_RUNS = dict.fromkeys(FIXTURE_NAMES, 0)


def test_all_shipped_fixtures_validate(dd_runs):
    for fan in all_fixture_fans():
        before = len(dd_runs)
        assert validate(fan).ok, fan.name
        assert len(dd_runs) - before == VALIDATE_DD_RUNS[fan.name], fan.name


def test_overlapping_cones_fail_face_check():
    fan = StackyFan(
        AbelianGroupSpec(2),
        (NElement((1, 0)), NElement((0, 1)), NElement((1, 1))),
        ((0, 1), (2, 1)),
        name="overlap")
    report = validate(fan)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["pairwise_intersections"].passed


HEXAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
HEXAGON_RING = [(i, (i + 1) % 6) for i in range(6)]
PRISM_RING = [(i, (i + 1) % 6, 6 + s) for i in range(6) for s in (0, 1)]


def _hexagon(cones):
    return StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in HEXAGON),
                     cones)


def _prism(cones):
    rays = [(x, y, 0) for x, y in HEXAGON] + [(0, 0, 1), (0, 0, -1)]
    return StackyFan(AbelianGroupSpec(3), tuple(NElement(v) for v in rays),
                     cones)


@pytest.mark.parametrize("fan, failed", [
    (_hexagon(HEXAGON_RING[:2] + HEXAGON_RING[3:]), {
        "complete": "ridges not shared by exactly 2 cones: {(2,): 1, (3,): 1}"}),
    (_hexagon([(0, 2)] + HEXAGON_RING[1:]), {
        "pairwise_intersections": "non-face intersections: [((0, 2), (1, 2))]",
        "complete": "ridges not shared by exactly 2 cones: {(2,): 3, (1,): 1}"}),
    (_hexagon([(0, 2), (2, 4), (4, 0), (1, 2)]), {
        "pairwise_intersections": "non-face intersections: [((0, 2), (1, 2))]",
        "complete": "rays in no maximal cone: [3, 5]"}),
    (_prism(PRISM_RING[1:]), {
        "complete": "ridges not shared by exactly 2 cones: "
                    "{(0, 1): 1, (1, 6): 1, (0, 6): 1}"}),
    (_prism([(0, 2, 6)] + PRISM_RING[1:]), {
        "pairwise_intersections": "non-face intersections: [((0, 2, 6), "
        "(0, 1, 7)), ((0, 2, 6), (1, 2, 6)), ((0, 2, 6), (1, 2, 7))]",
        "complete": "ridges not shared by exactly 2 cones: "
                    "{(2, 6): 3, (0, 2): 1, (0, 1): 1, (1, 6): 1}"}),
], ids=["hexagon-dropped", "hexagon-overlap", "hexagon-overlap-triangle",
        "prism-dropped", "prism-overlap"])
def test_polygon_fans_with_dropped_or_overlapping_cones(fan, failed):
    # a dropped cone fails completeness only; an overlap also fails the
    # face check, which names every pair whose intersection is not a face
    report = validate(fan)
    assert {c.name: c.detail for c in report.checks if not c.passed} == failed


def test_zero_ray_fails():
    fan = StackyFan(AbelianGroupSpec(1), (NElement((0,)), NElement((-1,))),
                    ((0,), (1,)))
    report = validate(fan)
    assert not report.checks[0].passed


def test_dependent_cone_fails_simpliciality():
    fan = StackyFan(
        AbelianGroupSpec(2),
        (NElement((1, 0)), NElement((2, 0)), NElement((0, 1))),
        ((0, 1), (1, 2)),
        name="dependent")
    by_name = {c.name: c for c in validate(fan).checks}
    assert not by_name["simplicial"].passed


def test_structural_errors_are_hard():
    with pytest.raises(FanStructureError):
        StackyFan(AbelianGroupSpec(1), (NElement((1,)),), ((0, 1),))
    with pytest.raises(FanStructureError):
        StackyFan(AbelianGroupSpec(1, (2,)), (NElement((1,), (5,)),), ((0,),))
    with pytest.raises(FanStructureError):
        StackyFan(AbelianGroupSpec(1, (2,)), (NElement((1,), ()),), ((0,),))
    with pytest.raises(FanStructureError):
        AbelianGroupSpec(1, (1,))


def test_ray_data_football():
    rd = ray_data(fixture_fan("football"))
    assert (rd[0].b_rig, rd[0].w, rd[0].c) == ((1,), (1,), 1)
    assert (rd[1].b_rig, rd[1].w, rd[1].c) == ((-2,), (-1,), 2)


def test_ray_data_p2_all_primitive():
    for r in ray_data(fixture_fan("p2")):
        assert r.c == 1
        assert r.w == r.b_rig


def test_ray_data_gerby():
    rd = ray_data(fixture_fan("gerby-p1"))
    assert [r.c for r in rd] == [1, 1]
    assert [r.torsion for r in rd] == [(1,), (0,)]


def test_validation_is_deterministic():
    fan = fixture_fan("p1xfootball")
    assert validate(fan) == validate(fan)


def test_sample_directions_covered_on_complete_fixtures():
    for fan in all_fixture_fans():
        d = fan.dim
        rd = ray_data(fan)
        samples = []
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            samples.append(e)
            samples.append(tuple(-x for x in e))
        samples.append((1,) * d)
        samples.append((-1,) * d)
        for cone in fan.max_cones:
            samples.append(tuple(-sum(rd[i].w[j] for i in cone) for j in range(d)))
        for y in samples:
            # raises IncompleteFanError if no maximal cone contains y
            minimal_cone_coeffs(fan, y)


def _fan(d, rays, cones):
    return StackyFan(AbelianGroupSpec(d), tuple(NElement(v) for v in rays),
                     tuple(cones))


# the two kinds of input on which the ridge certificate and the old battery
# fail different checks, with the same verdict: a folded polygon, whose
# cones (0, 1) and (1, 2) lie on one side of ray 1 ...
FOLDED = _fan(2, [(1, 0), (-1, 1), (0, 1), (-1, 0), (0, -1)],
              [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
# ... and two copies of the fan of P^2 on duplicated rays, which cover the
# plane twice with a disconnected dual graph
P2_RAYS = [(1, 0), (0, 1), (-1, -1)]
TWO_P2 = _fan(2, P2_RAYS + P2_RAYS,
              [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])


def test_folded_fan_fails_the_certificate():
    assert validate(FOLDED).lines() == [
        "check nonzero_rays: PASS",
        "check simplicial: PASS",
        "check pairwise_intersections: FAIL (non-face intersections: "
        "[((0, 1), (1, 2)), ((0, 1), (2, 3)), ((1, 2), (2, 3))])",
        "check complete: FAIL (ridges whose two cones lie on one side: "
        "[(1,), (2,)])",
        "check finite_cokernel: PASS",
        "validation: FAIL"]


def test_double_cover_is_complete_but_not_a_fan():
    pairs = [(a, b) for a in [(0, 1), (1, 2), (2, 0)]
             for b in [(3, 4), (4, 5), (5, 3)]]
    assert validate(TWO_P2).lines() == [
        "check nonzero_rays: PASS",
        "check simplicial: PASS",
        f"check pairwise_intersections: FAIL (non-face intersections: {pairs})",
        "check complete: PASS",
        "check finite_cokernel: PASS",
        "validation: FAIL"]


@pytest.mark.parametrize("rays, cones, failed", [
    ([(2,), (-3,)], [(0,), (1,)], {}),
    ([(1,), (2,)], [(0,), (1,)], {
        "pairwise_intersections": "non-face intersections: [((0,), (1,))]",
        "complete": "ridges whose two cones lie on one side: [()]"}),
    ([(1,), (-1,), (2,)], [(0,), (1,), (2,)], {
        "pairwise_intersections": "non-face intersections: [((0,), (2,))]",
        "complete": "ridges not shared by exactly 2 cones: {(): 3}"}),
], ids=["p1", "one-side", "three-half-lines"])
def test_rank_one_fans(rays, cones, failed):
    # the ridge of a half-line is {0}, and its side is the sign of the ray
    report = validate(_fan(1, rays, cones))
    assert {c.name: c.detail for c in report.checks if not c.passed} == failed


@pytest.mark.parametrize("cones, failed", [
    ([], {"complete": "no maximal cones"}),
    ([()], {}),
    ([(), ()], {"complete": "2 maximal cones in rank 0"}),
])
def test_rank_zero_fans(cones, failed):
    report = validate(_fan(0, [], cones))
    assert {c.name: c.detail for c in report.checks if not c.passed} == failed


MUTATIONS = ("none", "drop", "widen", "duplicate", "negate", "fold", "twice",
             "wind")


def _mutated_fan(rng, kind, m, mutation):
    """A polygon fan (d = 2) or a P^1 x polygon prism (d = 3) over m rays of
    the polygon, changed by one mutation."""
    polygon = polygon_rays(rng, m)
    extra = [] if kind == "polygon" else [(0, 0, 1), (0, 0, -1)]
    lift = (lambda v: v) if kind == "polygon" else (lambda v: v + (0,))
    apexes = [()] if kind == "polygon" else [(m,), (m + 1,)]

    def ring(order):  # the cones over consecutive rays of a cyclic order
        return [(order[i], order[(i + 1) % len(order)]) + a
                for i in range(len(order)) for a in apexes]
    rays = [lift(v) for v in polygon] + extra
    cones = ring(list(range(m)))
    i = rng.randrange(m)
    if mutation == "drop":
        cones.pop(rng.randrange(len(cones)))
    elif mutation == "widen":
        k = rng.randrange(len(cones))
        cones[k] = (cones[k][0], (cones[k][0] + 2) % m) + cones[k][2:]
    elif mutation == "duplicate":
        cones.append(rng.choice(cones))
    elif mutation == "negate":
        rays[i] = tuple(-x for x in rays[i])
    elif mutation == "fold":  # swap two neighbours in the cyclic order
        order = list(range(m))
        order[i], order[(i + 1) % m] = order[(i + 1) % m], order[i]
        cones = ring(order)
    elif mutation in ("twice", "wind"):  # a second copy of every ray
        n = len(rays)
        rays = rays + rays
        if mutation == "twice":  # a disconnected second copy of the fan
            cones += [tuple(j + n for j in c) for c in cones]
        else:  # one cycle around the polygon twice
            cones = ring(list(range(m)) + list(range(n, n + m)))
    return _fan(len(rays[0]), rays, cones)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(["polygon", "prism"]),
       mutation=st.sampled_from(MUTATIONS), m=st.integers(3, 6))
def test_certificate_matches_the_battery(dd_runs, seed, kind, mutation, m):
    fan = _mutated_fan(random.Random(seed), kind, m, mutation)
    before = len(dd_runs)
    report = validate(fan)
    runs = len(dd_runs) - before
    oracle = battery_validate(fan)
    assert report.ok == oracle.ok
    if report.ok:
        assert runs == 0
    new = {c.name: c for c in report.checks}
    old = {c.name: c for c in oracle.checks}
    # the certificate either proves the face check or runs it unchanged
    assert [c for c in report.checks if c.name != "complete"] == [
        c for c in oracle.checks if c.name != "complete"]
    if new["complete"].passed != old["complete"].passed:
        folded = new["complete"].detail.startswith(
            "ridges whose two cones lie on one side")
        covered_twice = old["complete"].detail == \
            "dual graph of maximal cones is disconnected"
        assert folded or covered_twice, (fan, report, oracle)
        assert not new["pairwise_intersections"].passed


@st.composite
def _cone_pairs(draw):
    """A fan of two simplicial cones of dimension d = 2..4 on rays with
    entries in [-3, 3], sharing k = 0..d-1 ray indices, each cone's rays in a
    drawn order.  Rays may repeat a vector under another index."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(0, d - 1))
    vector = st.tuples(*[st.integers(-3, 3)] * d).filter(any)
    rays = draw(st.lists(vector, min_size=2 * d - k, max_size=2 * d - k))
    sigma = draw(st.permutations(range(d)))
    tau = draw(st.permutations(list(range(k)) + list(range(d, 2 * d - k))))
    return _fan(d, rays, [tuple(sigma), tuple(tau)])


def test_facet_shortcut_agrees_with_double_description():
    # validate passes a pair without a DD run when a facet hyperplane of one
    # cone separates them; the DD test must then find a face intersection
    certified = Counter()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fan=_cone_pairs())
    def check(fan):
        sigma, tau = fan.max_cones
        inverses = [cone_inverse([fan.rays[i].free for i in c]) for c in (sigma, tau)]
        assume(None not in inverses)
        separated = (_facet_separates(fan, inverses[0][1], sigma, tau)
                     or _facet_separates(fan, inverses[1][1], tau, sigma))
        certified[separated] += 1
        if separated:
            face = _cone_of(fan, sorted(set(sigma) & set(tau)))
            meet = intersect(_cone_of(fan, sigma), _cone_of(fan, tau))
            assert all(face.contains(g) for g in meet.generators), fan

    check()
    # both outcomes occur, so neither branch passes vacuously
    assert certified[True] > 0 and certified[False] > 0, certified


@pytest.mark.parametrize("kind, m, mutation, runs", [
    ("polygon", 12, "drop", 3),
    ("prism", 6, "widen", 59),
])
def test_facet_normals_spare_pairwise_dd_runs(dd_runs, kind, m, mutation, runs):
    # a 12-cone polygon with a dropped cone and a 6-prism with two
    # overlapping cones; battery_validate runs the DD test on every pair
    fan = _mutated_fan(random.Random(1), kind, m, mutation)
    assert not validate(fan).ok
    assert len(dd_runs) == runs
    battery_validate(fan)
    assert runs < len(dd_runs) - runs
