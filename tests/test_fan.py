import pytest
from conftest import FIXTURE_NAMES, all_fixture_fans, fixture_fan

from stackycones.fan import (
    AbelianGroupSpec,
    FanStructureError,
    NElement,
    StackyFan,
    ray_data,
    validate,
)
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


# double description runs of validate: one per maximal cone, then per pair
# the intersection and the dual of the common face its generators are tested
# against (none when the intersection is the zero cone)
VALIDATE_DD_RUNS = {"p1": 3, "p2": 9, "hirzebruch-f1": 14, "football": 3,
                    "gerby-p1": 3, "p1xfootball": 14, "p2-c2": 9}


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
