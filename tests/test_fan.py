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
# the intersection and the two duals its equality test with the common face
# needs (neither when the intersection is the zero cone)
VALIDATE_DD_RUNS = {"p1": 3, "p2": 12, "hirzebruch-f1": 18, "football": 3,
                    "gerby-p1": 3, "p1xfootball": 18, "p2-c2": 12}


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
