import itertools
import random
from fractions import Fraction

import pytest
from conftest import (
    all_fixture_fans,
    beta_variant,
    fixture_fan,
    fraction_solve,
    random_n_element,
)

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stackycones.boxes import (
    ACoeffs,
    IncompleteFanError,
    cone_parallelepiped_points,
    enumerate_box,
    minimal_cone_coeffs,
    q_reduce,
    twisted_sectors,
)
from stackycones.fan import AbelianGroupSpec, NElement, StackyFan
from stackycones.linalg import det, mat_vec, unit_vector


def test_football_coeffs_positive_side():
    coeffs = minimal_cone_coeffs(fixture_fan("football"), (5,))
    assert coeffs.items() == ((0, Fraction(5)),)


def test_football_coeffs_negative_side():
    coeffs = minimal_cone_coeffs(fixture_fan("football"), (-3,))
    assert coeffs.items() == ((1, Fraction(3, 2)),)


def test_origin_has_empty_support():
    for fan in all_fixture_fans():
        assert minimal_cone_coeffs(fan, (0,) * fan.dim).items() == ()


def test_incomplete_fan_error():
    half = StackyFan(AbelianGroupSpec(1), (NElement((1,)),), ((0,),), name="half")
    with pytest.raises(IncompleteFanError):
        minimal_cone_coeffs(half, (-1,))


def test_q_reduce_football_negative():
    box = q_reduce(fixture_fan("football"), NElement((-3,)))
    assert box.rig == (-1,)
    assert box.coeffs.items() == ((1, Fraction(1, 2)),)
    assert not box.is_untwisted


def test_q_reduce_football_untwisted():
    box = q_reduce(fixture_fan("football"), NElement((5,)))
    assert box.rig == (0,)
    assert box.is_untwisted


def test_q_reduce_gerby_torsion_passthrough():
    box = q_reduce(fixture_fan("gerby-p1"), NElement((0,), (1,)))
    assert box.rig == (0,)
    assert box.torsion == (1,)
    assert box.coeffs.items() == ()
    assert not box.is_untwisted


def test_enumerate_box_p2_trivial():
    box = enumerate_box(fixture_fan("p2"))
    assert len(box) == 1
    assert box[0].rig == (0, 0)
    assert box[0].is_untwisted
    assert twisted_sectors(fixture_fan("p2")) == ()


def test_enumerate_box_football():
    fan = fixture_fan("football")
    box = enumerate_box(fan)
    assert [b.rig for b in box] == [(-1,), (0,)]
    sectors = twisted_sectors(fan)
    assert len(sectors) == 1
    assert sectors[0].rig == (-1,)
    assert sectors[0].coeffs.items() == ((1, Fraction(1, 2)),)
    # brute-force oracle on the window [-3, 3]: for y > 0 the coefficient
    # is y, for y < 0 it is |y|/2; box elements need it < 1
    expected = sorted((y,) for y in range(-3, 4)
                      if (y >= 0 and y < 1) or (y < 0 and Fraction(-y, 2) < 1))
    assert [b.rig for b in box] == expected


def test_enumerate_box_gerby():
    fan = fixture_fan("gerby-p1")
    box = enumerate_box(fan)
    assert [(b.rig, b.torsion) for b in box] == [((0,), (0,)), ((0,), (1,))]
    sectors = twisted_sectors(fan)
    assert [(b.rig, b.torsion) for b in sectors] == [((0,), (1,))]
    assert sectors[0].coeffs.items() == ()


def test_enumerate_box_p2_c2():
    fan = fixture_fan("p2-c2")
    sectors = twisted_sectors(fan)
    assert [(b.rig, b.coeffs.items()) for b in sectors] == [
        ((1, 0), ((0, Fraction(1, 2)),))]


def test_box_count_identity_fixtures():
    for fan in all_fixture_fans():
        for cone in fan.max_cones:
            points = cone_parallelepiped_points(fan, cone)
            volume = abs(det(tuple(zip(*(fan.rays[i].free for i in cone)))))
            assert len(points) == volume, (fan.name, cone)


def test_parallelepiped_points_satisfy_strict_bounds():
    fan = fixture_fan("p1xfootball")
    for cone in fan.max_cones:
        for _, coeffs in cone_parallelepiped_points(fan, cone):
            for _, a in coeffs.items():
                assert 0 < a < 1


def test_q_reduce_is_retraction_on_box():
    for fan in all_fixture_fans():
        for element in enumerate_box(fan):
            again = q_reduce(fan, element.as_n_element())
            assert again.rig == element.rig
            assert again.torsion == element.torsion
            assert again.coeffs == element.coeffs


def test_reconstruction_of_random_points():
    rng = random.Random(1729)
    for fan in all_fixture_fans():
        for _ in range(25):
            y = random_n_element(fan, rng).free
            coeffs = minimal_cone_coeffs(fan, y)
            recon = [Fraction(0)] * fan.dim
            for i, a in coeffs.items():
                assert a > 0
                recon = [r + a * b for r, b in zip(recon, fan.rays[i].free)]
            assert tuple(recon) == tuple(Fraction(v) for v in y)


def test_enumeration_is_order_independent():
    for fan in all_fixture_fans():
        reversed_fan = StackyFan(fan.group, fan.rays,
                                 tuple(reversed(fan.max_cones)), name=fan.name)
        original = {(b.rig, b.torsion, b.coeffs) for b in enumerate_box(fan)}
        flipped = {(b.rig, b.torsion, b.coeffs) for b in enumerate_box(reversed_fan)}
        assert original == flipped


def test_box_count_identity_variants():
    rng = random.Random(777)
    fans = all_fixture_fans()
    for k in range(30):
        fan = beta_variant(fans[k % len(fans)], rng)
        for cone in fan.max_cones:
            points = cone_parallelepiped_points(fan, cone)
            volume = abs(det(tuple(zip(*(fan.rays[i].free for i in cone)))))
            assert len(points) == volume


def _rational_parallelepiped_points(vectors):
    # the scan before it went integer-only: solve every bounding-box
    # candidate over the rationals
    d = len(vectors)
    inv = fraction_solve(tuple(zip(*vectors)), [unit_vector(d, i) for i in range(d)])
    lo = [sum(min(0, v[j]) for v in vectors) for j in range(d)]
    hi = [sum(max(0, v[j]) for v in vectors) for j in range(d)]
    out = []
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        a = mat_vec(inv, point)
        if all(0 <= x < 1 for x in a):
            out.append((point, ACoeffs.from_pairs(zip(range(d), a))))
    return out


@given(st.integers(min_value=1, max_value=3).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(min_value=-3, max_value=3)] * d),
    min_size=d, max_size=d))
    | st.lists(st.tuples(*[st.integers(min_value=-12, max_value=12)] * 2),
               min_size=2, max_size=2))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_parallelepiped_points_match_rational_scan(vectors):
    # either orientation of the ray matrix, so det < 0 is covered; the
    # d = 2 family with entries up to 12 walks groups of up to 288 points
    assume(det(vectors) != 0)
    fan = StackyFan(AbelianGroupSpec(len(vectors)),
                    tuple(NElement(v) for v in vectors),
                    (tuple(range(len(vectors))),))
    points = cone_parallelepiped_points(fan, range(len(vectors)))
    assert points == _rational_parallelepiped_points(vectors)


def test_smooth_fan_with_huge_rays_has_trivial_box():
    # F_N for N = 10^9: four unimodular cones whose rays span a huge box
    rays = ((1, 0), (0, 1), (-1, 10 ** 9), (0, -1))
    fan = StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in rays),
                    ((0, 1), (1, 2), (2, 3), (3, 0)), name="F_1e9")
    box = enumerate_box(fan)
    assert [(b.rig, b.torsion) for b in box] == [((0, 0), ())]
    assert box[0].is_untwisted
