import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    VERIFY_CURVE_DIM_CAP,
    all_fixture_fans,
    beta_variant,
    fixture_fan,
    random_n_element,
    vadd,
    vscale,
)

from stackycones.boxes import BoxElement, twisted_sectors
from stackycones.cones import Cone
from stackycones.fan import NElement, validate
from stackycones.fanfile import fan_from_dict
from stackycones.linalg import dot
from stackycones.neron_severi import build_spaces
from stackycones.orbcones import (
    _check_dual_basis,
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


def _dense_identity_holds(xi, xi_star):
    return all(dot(star, v) == (1 if a == b else 0)
               for a, star in enumerate(xi_star) for b, v in enumerate(xi))


def _with_entry(vectors, a, k, value):
    out = [list(v) for v in vectors]
    out[a][k] = value
    return [tuple(v) for v in out]


def test_check_dual_basis_rejects_mutated_bases():
    for name in ("football", "gerby-p1", "p1xfootball"):
        _, _, xi = _pipeline(fixture_fan(name))
        xi_star = xi.xi_star
        dim = len(xi_star)
        _check_dual_basis(xi.xi, xi_star)
        for a in range(dim):
            # every off-diagonal Xi* entry, zero or not, perturbed
            for k in range(dim):
                if k != a:
                    mutated = _with_entry(xi_star, a, k, xi_star[a][k] + Fraction(1, 3))
                    with pytest.raises(AssertionError):
                        _check_dual_basis(xi.xi, mutated)
            # every diagonal entry scaled
            mutated = _with_entry(xi_star, a, a, 2 * xi_star[a][a])
            with pytest.raises(AssertionError):
                _check_dual_basis(xi.xi, mutated)
        for b in range(dim):
            # Xi_b's support misses Xi*_b, so no pair of nonzeros reaches the
            # diagonal entry (b, b); the check must still visit it
            mutated = list(xi.xi)
            mutated[b] = (0,) * dim
            with pytest.raises(AssertionError, match=rf"fails at \({b}, {b}\)"):
                _check_dual_basis(mutated, xi_star)


# zero in 5 draws of 12, so the pairs are sparse
sparse_entries = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3,
                                  Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)))


@st.composite
def square_pairs(draw):
    """A Xi* and a Xi of one size: either drawn independently, or Xi the
    exact inverse of Xi* (by sympy), perhaps with one entry perturbed."""
    n = draw(st.integers(min_value=1, max_value=6))
    star = [[draw(sparse_entries) for _ in range(n)] for _ in range(n)]
    if not draw(st.booleans()):
        xi = [[draw(sparse_entries) for _ in range(n)] for _ in range(n)]
        return [tuple(v) for v in xi], [tuple(v) for v in star]
    # triangular with a nonzero diagonal, then rows and columns permuted:
    # sparse and always invertible
    for i in range(n):
        star[i][:i] = [0] * i
        star[i][i] = draw(sparse_entries.filter(bool))
    rows, cols = draw(st.permutations(range(n))), draw(st.permutations(range(n)))
    star = [[star[r][c] for c in cols] for r in rows]
    inv = sympy.Matrix(star).inv()
    xi = [[Fraction(int(inv[i, b].p), int(inv[i, b].q)) for i in range(n)]
          for b in range(n)]
    if draw(st.booleans()):
        side = xi if draw(st.booleans()) else star
        a, k = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        side[a][k] += draw(st.sampled_from((1, -1, Fraction(1, 2))))
    return [tuple(v) for v in xi], [tuple(v) for v in star]


@given(square_pairs())
@settings(max_examples=300, deadline=None)
def test_check_dual_basis_agrees_with_dense_product(pair):
    xi, xi_star = pair
    if _dense_identity_holds(xi, xi_star):
        _check_dual_basis(xi, xi_star)
    else:
        with pytest.raises(AssertionError):
            _check_dual_basis(xi, xi_star)


def test_build_xi_on_torsion_heavy_fan():
    # 8 rig points times the torsion group Z/3 x Z/4 give 95 twisted sectors
    fan = fan_from_dict({
        "name": "torsion-heavy", "rank": 1, "torsion": [3, 4],
        "rays": [{"beta_free": [5], "beta_torsion": [0, 0]},
                 {"beta_free": [-4], "beta_torsion": [0, 0]}],
        "max_cones": [[0], [1]]})
    assert validate(fan).ok
    _, spaces, xi = _pipeline(fan)
    assert spaces.t == 95
    assert _dense_identity_holds(xi.xi, xi.xi_star)


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


def test_mov_and_its_dual_make_no_fraction_elimination(dd_runs, linalg_fractions):
    # the DD engine and the elimination it shares with linalg are
    # integer-only: a Fraction built in linalg on the way would show here
    for fan in all_fixture_fans():
        _, spaces, xi = _pipeline(fan)
        linalg_fractions.clear()
        before = len(dd_runs)
        mov_cone(spaces, xi).dual()
        assert len(dd_runs) - before == 2, fan.name
        assert linalg_fractions == [], fan.name


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


def test_verify_duality_reports_a_mismatch(drop_last_dual_of_mov_ray, dd_runs):
    report = drop_last_dual_of_mov_ray(fixture_fan("football"))
    assert report.equal is False
    assert report.dual_of_mov_generators == ((0, 1),)
    assert report.separating == ("corollary_only", (1, 0))
    assert len(dd_runs) == 3


def _scan_index(sectors, sector):
    # the linear scan sector_index replaced
    return next(j for j, s in enumerate(sectors)
                if (s.rig, s.torsion) == (sector.rig, sector.torsion))


def test_sector_index_matches_linear_scan():
    rng = random.Random(4242)
    fans = all_fixture_fans()
    fans += [beta_variant(fans[k % len(fans)], rng) for k in range(20)]
    for fan in fans:
        sectors = twisted_sectors(fan)
        for sector in sectors:
            # a fresh element, so equality of keys is what is looked up
            probe = BoxElement(tuple(sector.rig), tuple(sector.torsion), sector.coeffs)
            assert sector_index(sectors, probe) == _scan_index(sectors, sector)
    # the one twisted sector of p1xfootball is ((0, -1), ()); look up one
    # key before it and one after it
    sectors = twisted_sectors(fixture_fan("p1xfootball"))
    for rig in ((-1, 0), (0, 1)):
        with pytest.raises(KeyError, match=re.escape(
                f"sector ({rig}, ()) missing from the canonical list; "
                "box enumeration and q disagree")):
            sector_index(sectors, BoxElement(rig, (), sectors[0].coeffs))
