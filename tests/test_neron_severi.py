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

from stackycones.boxes import twisted_sectors
from stackycones.linalg import dot, rank, unit_vector
from stackycones.neron_severi import (
    OrbCurveClass,
    build_spaces,
    curve_class_from_v_orb,
    curve_class_to_v_orb,
    lambda_orb,
    pair,
    ray_divisor_classes,
)
from stackycones.orbcones import build_xi


def _spaces(name):
    fan = fixture_fan(name)
    sectors = twisted_sectors(fan)
    return fan, sectors, build_spaces(fan, sectors)


def test_p1_kernel_and_dimension():
    _, _, spaces = _spaces("p1")
    assert spaces.ker_beta_prime == ((1, 1),)
    assert spaces.dim_ns == 1


def test_p2_dimension():
    _, _, spaces = _spaces("p2")
    assert spaces.dim_ns == 1
    assert spaces.ker_beta_prime == ((1, 1, 1),)


def test_football_orbifold_dimension():
    _, _, spaces = _spaces("football")
    assert spaces.dim_ns_orb == 2
    assert spaces.curve_basis == ((1, 1, 0), (0, 0, 1))


def test_lambda_orb_football_ray():
    _, _, spaces = _spaces("football")
    assert lambda_orb(spaces, (1, 0, 0)).pairing == (1, 0)


def test_lambda_orb_football_sector_unit():
    _, _, spaces = _spaces("football")
    assert lambda_orb(spaces, (0, 0, 1)).pairing == (0, 1)


def test_lambda_orb_kills_alpha_image():
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        for j in range(spaces.d):
            column = tuple(row[j] for row in spaces.alpha) + (0,) * spaces.t
            assert lambda_orb(spaces, column).is_zero()


def test_lambda_orb_dimension_mismatch():
    _, _, spaces = _spaces("football")
    with pytest.raises(ValueError):
        lambda_orb(spaces, (1, 0))


def test_pairing_examples():
    _, _, spaces = _spaces("football")
    e1 = OrbCurveClass((1, 0))
    d0 = lambda_orb(spaces, (1, 0, 0))
    dy = lambda_orb(spaces, (0, 0, 1))
    assert pair(d0, e1) == 1
    assert pair(dy, e1) == 0
    zero = lambda_orb(spaces, (0, 0, 0))
    assert pair(zero, OrbCurveClass((3, -2))) == 0


def test_ray_divisor_classes_football():
    _, _, spaces = _spaces("football")
    coarse0, stacky0 = ray_divisor_classes(spaces, 0)
    coarse1, stacky1 = ray_divisor_classes(spaces, 1)
    assert coarse0.pairing == (1, 0)
    assert stacky0.pairing == (1, 0)
    assert coarse1.pairing == (1, 0)
    assert stacky1.pairing == (Fraction(1, 2), 0)


def test_coarse_class_is_multiple_of_stacky_class():
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        for i in range(spaces.n):
            coarse, stacky = ray_divisor_classes(spaces, i)
            assert coarse.pairing == tuple(spaces.ray_cs[i] * x
                                           for x in stacky.pairing)


def test_p2_all_ray_classes_equal():
    _, _, spaces = _spaces("p2")
    classes = [ray_divisor_classes(spaces, i)[0].pairing for i in range(3)]
    assert classes[0] == classes[1] == classes[2]


def test_exactness_battery():
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        assert rank(spaces.alpha) == spaces.d
        assert len(spaces.curve_basis) == spaces.dim_ns_orb
        for k in spaces.curve_basis:
            assert all(dot(row, k) == 0 for row in spaces.beta_prime_orb)
        for row in spaces.beta_prime_orb:
            assert all(x == 0 for x in row[spaces.n:])


def test_duality_of_pairing_with_u_v_pairing():
    rng = random.Random(5)
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        dim = spaces.n + spaces.t
        for _ in range(10):
            u = tuple(rng.randint(-5, 5) for _ in range(dim))
            coords = tuple(rng.randint(-5, 5) for _ in range(spaces.dim_ns_orb))
            curve = OrbCurveClass(coords)
            v = curve_class_to_v_orb(spaces, curve)
            assert pair(lambda_orb(spaces, u), curve) == dot(u, v)


def _gram_coordinates(spaces, v):
    # the Gram normal equations of the curve basis, solved by Fraction
    # Gauss-Jordan: the coordinates of v when it lies in the basis's span
    basis = spaces.curve_basis
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    x = fraction_solve(gram, [(dot(a, v),) for a in basis])
    return None if x is None else tuple(row[0] for row in x)


def test_curve_class_round_trip():
    _, _, spaces = _spaces("p1xfootball")
    curve = OrbCurveClass((2, Fraction(1, 3), -1))
    v = curve_class_to_v_orb(spaces, curve)
    back = curve_class_from_v_orb(spaces, v)
    assert back.coords == tuple(Fraction(x) for x in curve.coords)
    rng = random.Random(11)
    fans = all_fixture_fans()
    fans += [beta_variant(fans[k % len(fans)], rng) for k in range(20)]
    for fan in fans:
        spaces = build_spaces(fan, twisted_sectors(fan))
        for _ in range(3):
            coords = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(spaces.dim_ns_orb))
            v = curve_class_to_v_orb(spaces, OrbCurveClass(coords))
            back = curve_class_from_v_orb(spaces, v)
            assert back.coords == coords, fan.name
            assert back.coords == _gram_coordinates(spaces, v), fan.name


def test_curve_class_from_v_orb_rejects_non_kernel_vectors():
    _, _, spaces = _spaces("p1")
    with pytest.raises(ValueError):
        curve_class_from_v_orb(spaces, unit_vector(2, 0))


def test_lambda_orb_matches_dense_curve_basis_dot():
    # oracle: the dense pairing of u with every curve-basis vector, which
    # lambda_orb reads off the basis's layout instead; types are compared
    # too, since printed classes show an int and a Fraction differently
    rng = random.Random(23)
    fans = all_fixture_fans()
    fans += [beta_variant(fans[k % len(fans)], rng) for k in range(20)]
    for fan in fans:
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        dim = spaces.n + spaces.t
        xi = build_xi(fan, sectors, spaces)
        for u in xi.xi_star + tuple(unit_vector(dim, i) for i in range(dim)):
            got = lambda_orb(spaces, u).pairing
            dense = tuple(dot(u, k) for k in spaces.curve_basis)
            assert got == dense, (fan.name, u)
            assert [type(x) for x in got] == [type(x) for x in dense], (fan.name, u)
