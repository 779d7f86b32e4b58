import math
import random
import re
from fractions import Fraction

import pytest
from conftest import (
    FIXTURE_NAMES,
    _count_calls,
    all_fixture_fans,
    beta_variant,
    fixture_fan,
    fraction_kernel_basis,
    fraction_solve,
    v_orb_of_curve,
)

from stackycones import AbelianGroupSpec, NElement, StackyFan, linalg, neron_severi
from stackycones.boxes import twisted_sectors
from stackycones.fan import FanStructureError
from stackycones.linalg import dot, rank, unit_vector
from stackycones.neron_severi import (
    build_spaces,
    eta_labels,
    lambda_orb,
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
    assert lambda_orb(spaces, (1, 0, 0)) == (1, 0)


def test_lambda_orb_football_sector_unit():
    _, _, spaces = _spaces("football")
    assert lambda_orb(spaces, (0, 0, 1)) == (0, 1)


def test_lambda_orb_kills_alpha_image():
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        alpha = tuple(zip(*spaces.beta_prime))  # alpha = beta' transposed
        for j in range(spaces.d):
            column = tuple(row[j] for row in alpha) + (0,) * spaces.t
            assert lambda_orb(spaces, column) == (0,) * spaces.dim_ns_orb


def test_lambda_orb_dimension_mismatch():
    _, _, spaces = _spaces("football")
    with pytest.raises(ValueError):
        lambda_orb(spaces, (1, 0))


def test_pairing_examples():
    _, _, spaces = _spaces("football")
    e1 = (1, 0)
    d0 = lambda_orb(spaces, (1, 0, 0))
    dy = lambda_orb(spaces, (0, 0, 1))
    assert dot(d0, e1) == 1
    assert dot(dy, e1) == 0
    zero = lambda_orb(spaces, (0, 0, 0))
    assert dot(zero, (3, -2)) == 0


def test_ray_divisor_classes_football():
    _, _, spaces = _spaces("football")
    coarse0, stacky0 = ray_divisor_classes(spaces, 0)
    coarse1, stacky1 = ray_divisor_classes(spaces, 1)
    assert coarse0 == (1, 0)
    assert stacky0 == (1, 0)
    assert coarse1 == (1, 0)
    assert stacky1 == (Fraction(1, 2), 0)
    with pytest.raises(ValueError, match="out of range"):
        ray_divisor_classes(spaces, spaces.n)


def test_coarse_class_is_multiple_of_stacky_class():
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        for i in range(spaces.n):
            coarse, stacky = ray_divisor_classes(spaces, i)
            assert coarse == tuple(spaces.ray_cs[i] * x for x in stacky)


def test_p2_all_ray_classes_equal():
    _, _, spaces = _spaces("p2")
    classes = [ray_divisor_classes(spaces, i)[0] for i in range(3)]
    assert classes[0] == classes[1] == classes[2]


def test_exactness_battery():
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        alpha = tuple(zip(*spaces.beta_prime))  # alpha = beta' transposed
        # beta'_orb: beta' padded with zero sector columns
        beta_prime_orb = tuple(row + (0,) * spaces.t for row in spaces.beta_prime)
        assert rank(alpha) == spaces.d
        assert len(spaces.curve_basis) == spaces.dim_ns_orb
        for k in spaces.curve_basis:
            assert all(dot(row, k) == 0 for row in beta_prime_orb)
        for row in beta_prime_orb:
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
            v = v_orb_of_curve(spaces, coords)
            assert dot(lambda_orb(spaces, u), coords) == dot(u, v)


def _gram_coordinates(spaces, v):
    # the Gram normal equations of the curve basis, solved by Fraction
    # Gauss-Jordan: the coordinates of v when it lies in the basis's span
    basis = spaces.curve_basis
    gram = tuple(tuple(dot(a, b) for b in basis) for a in basis)
    x = fraction_solve(gram, [(dot(a, v),) for a in basis])
    return None if x is None else tuple(row[0] for row in x)


def test_curve_class_round_trip():
    # the conftest map from curve coordinates to V_orb, against the Gram
    # normal equations of the curve basis: each round trip gives the
    # coordinates back
    _, _, spaces = _spaces("p1xfootball")
    curve = (2, Fraction(1, 3), -1)
    assert _gram_coordinates(spaces, v_orb_of_curve(spaces, curve)) == curve
    rng = random.Random(11)
    fans = all_fixture_fans()
    fans += [beta_variant(fans[k % len(fans)], rng) for k in range(20)]
    for fan in fans:
        spaces = build_spaces(fan, twisted_sectors(fan))
        for _ in range(3):
            coords = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(spaces.dim_ns_orb))
            v = v_orb_of_curve(spaces, coords)
            assert _gram_coordinates(spaces, v) == coords, fan.name


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
            got = lambda_orb(spaces, u)
            dense = tuple(dot(u, k) for k in spaces.curve_basis)
            assert got == dense, (fan.name, u)
            assert [type(x) for x in got] == [type(x) for x in dense], (fan.name, u)


@pytest.mark.parametrize("corrupt, message", [
    (lambda ker: ((ker[0][0] + 1,) + ker[0][1:],) + ker[1:], "lambda_orb . alpha_orb != 0"),
    (lambda ker: ker[:-1], "kernel dimension disagrees with rank-nullity"),
], ids=["wrong-vector", "vector-missing"])
def test_build_spaces_checks_the_kernel(monkeypatch, corrupt, message):
    real = neron_severi.kernel_basis
    monkeypatch.setattr(neron_severi, "kernel_basis",
                        lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
    for fan in all_fixture_fans():
        with pytest.raises(AssertionError, match=re.escape(message)):
            build_spaces(fan, twisted_sectors(fan))


def test_build_spaces_eliminates_beta_prime_once(monkeypatch):
    # the kernel's size decides the rank: no rank call, one kernel_basis
    ranks = _count_calls(monkeypatch, linalg, "rank")
    kernels = _count_calls(monkeypatch, linalg, "kernel_basis")
    for fan in all_fixture_fans():
        sectors = twisted_sectors(fan)
        ranks.clear()
        kernels.clear()
        build_spaces(fan, sectors)
        assert (len(ranks), len(kernels)) == (0, 1), fan.name
    # rays on one line of the plane: beta' has rank 1 < d = 2
    flat = StackyFan(AbelianGroupSpec(2), (NElement((1, 0)), NElement((-1, 0)),
                                           NElement((2, 0))), ((0,), (1,), (2,)))
    with pytest.raises(ValueError, match="does not have full rank"):
        build_spaces(flat, ())


def test_curve_basis_is_the_padded_kernel_then_the_sector_units():
    # oracle: the dense basis build_spaces stored before it became a view,
    # from Fraction Gauss-Jordan; sorted, it is the canonical kernel basis
    # of beta'_orb, which pads beta' with zero sector columns
    rng = random.Random(29)
    fans = all_fixture_fans()
    fans += [beta_variant(fans[k % len(fans)], rng) for k in range(14)]
    for fan in fans:
        spaces = build_spaces(fan, twisted_sectors(fan))
        n, t = spaces.n, spaces.t
        ker = fraction_kernel_basis(spaces.beta_prime, n)
        assert spaces.curve_basis == tuple([k + (0,) * t for k in ker]
                                           + [unit_vector(n + t, n + j) for j in range(t)])
        beta_prime_orb = [row + (0,) * t for row in spaces.beta_prime]
        assert sorted(spaces.curve_basis) == list(fraction_kernel_basis(beta_prime_orb, n + t))
        assert spaces.curve_basis is spaces.curve_basis


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_labels_are_built_on_first_read(name):
    # only printed output reads the labels, so build_spaces leaves them out
    _, sectors, spaces = _spaces(name)
    assert "labels" not in vars(spaces)
    assert spaces.labels == eta_labels(spaces.n, len(sectors))
    assert "labels" in vars(spaces)
    assert spaces.labels is spaces.labels


def test_build_spaces_reads_w_and_c_off_the_rays():
    # beta' has the primitive w_rho as columns, and c_rho is the gcd of b_rho
    rng = random.Random(30)
    for fan in [beta_variant(fixture_fan(name), rng) for name in FIXTURE_NAMES]:
        spaces = build_spaces(fan, twisted_sectors(fan))
        for rho, (ray, c) in enumerate(zip(fan.rays, spaces.ray_cs)):
            w = tuple(row[rho] for row in spaces.beta_prime)
            assert c >= 1 and tuple(c * x for x in w) == ray.free
            assert math.gcd(*w) == 1


def test_build_spaces_rejects_a_zero_ray():
    fan = StackyFan(AbelianGroupSpec(1), (NElement((1,)), NElement((0,))), ((0,), (1,)))
    with pytest.raises(FanStructureError, match="ray 1 has zero free part"):
        build_spaces(fan, ())
