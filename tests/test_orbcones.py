import random
from fractions import Fraction

from conftest import (
    VERIFY_CURVE_DIM_CAP,
    all_fixture_fans,
    beta_variant,
    fixture_fan,
    random_n_element,
)

from stackycones.boxes import twisted_sectors
from stackycones.cones import Cone
from stackycones.fan import NElement
from stackycones.linalg import dot, vadd, vscale
from stackycones.neron_severi import build_spaces
from stackycones.orbcones import (
    build_xi,
    mov_cone,
    one_ps_class,
    peff_generators,
    restricted_functionals,
    sector_index,
    verify_duality,
)


def _pipeline(fan):
    sectors = twisted_sectors(fan)
    spaces = build_spaces(fan, sectors)
    xi = build_xi(fan, sectors, spaces)
    return sectors, spaces, xi


def test_xi_football():
    fan = fixture_fan("football")
    _, _, xi = _pipeline(fan)
    assert xi.xi[0] == (1, 0, 0)
    assert xi.xi[1] == (0, 2, 0)
    assert tuple(xi.xi[2]) == (0, 1, 1)
    assert tuple(xi.xi_star[1]) == (0, Fraction(1, 2), Fraction(-1, 2))
    assert dot(xi.xi_star[1], xi.xi[2]) == 0


def test_xi_p2_trivial():
    fan = fixture_fan("p2")
    _, _, xi = _pipeline(fan)
    assert xi.xi == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert tuple(tuple(v) for v in xi.xi_star) == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_dual_basis_identity_all_fixtures():
    for fan in all_fixture_fans():
        _, _, xi = _pipeline(fan)
        for a, star in enumerate(xi.xi_star):
            for b, v in enumerate(xi.xi):
                assert dot(star, v) == (1 if a == b else 0), (fan.name, a, b)


def test_one_ps_class_football_negative():
    fan = fixture_fan("football")
    sectors, spaces, xi = _pipeline(fan)
    cls = one_ps_class(fan, sectors, spaces, NElement((-3,)))
    assert tuple(cls.class_vector) == (0, 3, 1)
    assert cls.ray_multiplicities == (0, 1)
    assert cls.sector.rig == (-1,)


def test_one_ps_class_football_positive():
    fan = fixture_fan("football")
    sectors, spaces, xi = _pipeline(fan)
    cls = one_ps_class(fan, sectors, spaces, NElement((5,)))
    assert tuple(cls.class_vector) == (5, 0, 0)
    assert cls.sector.is_untwisted
    assert cls.ray_multiplicities == (5, 0)


def test_one_ps_class_zero():
    fan = fixture_fan("p2")
    sectors, spaces, xi = _pipeline(fan)
    cls = one_ps_class(fan, sectors, spaces, NElement((0, 0)))
    assert all(x == 0 for x in cls.class_vector)
    assert cls.sector.is_untwisted
    assert cls.ray_multiplicities == (0, 0, 0)


def test_mov_cone_football():
    fan = fixture_fan("football")
    _, spaces, xi = _pipeline(fan)
    assert mov_cone(spaces, xi).generators == ((1, 0), (1, 1))


def test_mov_cone_p2_and_p1():
    fan = fixture_fan("p2")
    _, spaces, xi = _pipeline(fan)
    assert mov_cone(spaces, xi).generators == ((1,),)
    fan = fixture_fan("p1")
    _, spaces, xi = _pipeline(fan)
    assert mov_cone(spaces, xi).generators == ((1,),)


def test_peff_generators_football():
    fan = fixture_fan("football")
    _, spaces, xi = _pipeline(fan)
    classes = peff_generators(spaces, xi)
    assert [tuple(c.pairing) for c in classes] == [
        (1, 0), (Fraction(1, 2), Fraction(-1, 2)), (0, 1)]
    cone = Cone(2, [c.pairing for c in classes])
    assert cone.canonical_generators() == ((0, 1), (1, -1))


def test_peff_generators_gerby():
    fan = fixture_fan("gerby-p1")
    _, spaces, xi = _pipeline(fan)
    classes = peff_generators(spaces, xi)
    # the purely-torsion sector has all a coefficients zero, so the ray
    # classes carry no sector corrections
    assert [tuple(c.pairing) for c in classes] == [(1, 0), (1, 0), (0, 1)]


def test_verify_duality_fixtures(dd_runs):
    for fan in all_fixture_fans():
        before = len(dd_runs)
        report = verify_duality(fan)
        assert report.equal, fan.name
        assert report.separating is None
        # Mov, dual(Mov) and the dual of dual(Mov), once each
        assert len(dd_runs) - before == 3, fan.name


def test_verify_duality_football_extremal_rays():
    report = verify_duality(fixture_fan("football"))
    assert report.corollary_generators == ((0, 1), (1, -1))
    assert report.dual_of_mov_generators == ((0, 1), (1, -1))
    # the corollary cone's canonical form is dual(Mov), cached
    assert report.corollary_generators is report.dual_of_mov_generators


def test_decomposition_reconstructs_class():
    rng = random.Random(31337)
    for fan in all_fixture_fans():
        sectors, spaces, xi = _pipeline(fan)
        for _ in range(20):
            b = random_n_element(fan, rng)
            cls = one_ps_class(fan, sectors, spaces, b)
            total = [Fraction(0)] * (spaces.n + spaces.t)
            if not cls.sector.is_untwisted:
                j = sector_index(sectors, cls.sector)
                total = vadd(total, xi.xi[spaces.n + j])
            for i, m in enumerate(cls.ray_multiplicities):
                assert m >= 0
                if m:
                    total = vadd(total, vscale(m, xi.xi[i]))
            assert tuple(total) == tuple(Fraction(x) for x in cls.class_vector)


def test_one_ps_class_of_eta_lift_equals_xi():
    # rays are lifted into N with zero torsion part (the free generator
    # image); sectors are their own lifts
    for fan in all_fixture_fans():
        sectors, spaces, xi = _pipeline(fan)
        for i in range(spaces.n):
            b = NElement(fan.rays[i].free, (0,) * fan.group.torsion_rank)
            cls = one_ps_class(fan, sectors, spaces, b)
            assert tuple(Fraction(x) for x in cls.class_vector) == \
                tuple(Fraction(x) for x in xi.xi[i]), (fan.name, i)
        for j, sector in enumerate(sectors):
            cls = one_ps_class(fan, sectors, spaces, sector.as_n_element())
            assert tuple(Fraction(x) for x in cls.class_vector) == \
                tuple(Fraction(x) for x in xi.xi[spaces.n + j]), (fan.name, j)


def test_classical_projection_consistency():
    # dropping the sector coordinates of the peff classes recovers the cone
    # generated by the classical coarse ray classes
    from stackycones.neron_severi import ray_divisor_classes

    for fan in all_fixture_fans():
        sectors, spaces, xi = _pipeline(fan)
        classes = peff_generators(spaces, xi)
        dropped = [c.pairing[:spaces.dim_ns] for c in classes]
        projected = Cone(spaces.dim_ns, [v for v in dropped if any(v)])
        classical = Cone(spaces.dim_ns,
                         [ray_divisor_classes(spaces, i)[0].pairing[:spaces.dim_ns]
                          for i in range(spaces.n)])
        assert projected.equals(classical), fan.name


def test_verify_duality_on_variants_smoke():
    rng = random.Random(271828)
    for fan in all_fixture_fans():
        for _ in range(3):
            variant = beta_variant(fan, rng, max_curve_dim=VERIFY_CURVE_DIM_CAP)
            report = verify_duality(variant)
            assert report.equal, (fan.name, [r.free for r in variant.rays])
