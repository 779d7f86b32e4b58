import math
import random
import re
from fractions import Fraction
from functools import reduce

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import (
    CLASSICAL_FIXTURES,
    FIXTURE_NAMES,
    VERIFY_CURVE_DIM_CAP,
    _count_calls,
    all_fixture_fans,
    beta_variant,
    fixture_fan,
    integer_rows,
    product_fan,
    random_n_element,
    rank_two_mov_count,
    tight_set_rays,
    vadd,
    vscale,
    weighted_projective_fan,
)

from stackycones import linalg, orbcones
from stackycones.boxes import (
    BoxElement,
    enumerate_box,
    minimal_cone_coeffs,
    q_reduce,
    twisted_sectors,
)
from stackycones.cones import Cone
from stackycones.fan import AbelianGroupSpec, NElement, StackyFan, validate
from stackycones.fanfile import fan_from_dict
from stackycones.linalg import dot, rank
from stackycones.neron_severi import build_spaces
from stackycones.orbcones import (
    Analysis,
    _check_dual_basis,
    build_xi,
    mov_cone,
    one_ps_class,
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
        rows = integer_rows(xi.xi)
        _check_dual_basis(rows, integer_rows(xi_star))
        for a in range(dim):
            # every off-diagonal Xi* entry, zero or not, perturbed
            for k in range(dim):
                if k != a:
                    mutated = _with_entry(xi_star, a, k, xi_star[a][k] + Fraction(1, 3))
                    with pytest.raises(AssertionError):
                        _check_dual_basis(rows, integer_rows(mutated))
            # every diagonal entry scaled
            mutated = _with_entry(xi_star, a, a, 2 * xi_star[a][a])
            with pytest.raises(AssertionError):
                _check_dual_basis(rows, integer_rows(mutated))
        for b in range(dim):
            # Xi_b's support misses Xi*_b, so no pair of nonzeros reaches the
            # diagonal entry (b, b); the check must still visit it
            mutated = list(xi.xi)
            mutated[b] = (0,) * dim
            with pytest.raises(AssertionError, match=rf"fails at \({b}, {b}\)"):
                _check_dual_basis(integer_rows(mutated), integer_rows(xi_star))


def _replaced(rows, a, row):
    out = list(rows)
    out[a] = row
    return out


def test_check_dual_basis_rejects_mutated_integer_rows():
    # the rows build_xi keeps, mutated in their own form
    for name in ("football", "gerby-p1", "p1xfootball", "p2-c2"):
        _, spaces, xi = _pipeline(fixture_fan(name))
        dim = spaces.n + spaces.t
        assert spaces.t > 0
        for a in range(dim):
            for which in ("xi", "star"):
                rows = xi.xi_rows if which == "xi" else xi.star_rows
                den, nonzeros = rows[a]
                # a wrong row denominator, and each nonzero dropped
                wrong = [(den + 1, nonzeros)] + [
                    (den, nonzeros[:k] + nonzeros[k + 1:]) for k in range(len(nonzeros))]
                for row in wrong:
                    mutated = _replaced(rows, a, row)
                    pair = (mutated, xi.star_rows) if which == "xi" else (xi.xi_rows, mutated)
                    with pytest.raises(AssertionError, match="dual-basis identity fails at"):
                        _check_dual_basis(*pair)
        for y in range(spaces.n, dim):
            # an extra nonzero in Xi*_Y, at every other column
            den, nonzeros = xi.star_rows[y]
            for k in range(dim):
                if k != y:
                    mutated = _replaced(xi.star_rows, y, (den, tuple(sorted(nonzeros + ((k, 1),)))))
                    with pytest.raises(AssertionError, match="dual-basis identity fails at"):
                        _check_dual_basis(xi.xi_rows, mutated)


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
        _check_dual_basis(integer_rows(xi), integer_rows(xi_star))
    else:
        with pytest.raises(AssertionError):
            _check_dual_basis(integer_rows(xi), integer_rows(xi_star))


def torsion_heavy_fan() -> StackyFan:
    # 8 rig points times the torsion group Z/3 x Z/4 give 95 twisted sectors
    return fan_from_dict({
        "name": "torsion-heavy", "rank": 1, "torsion": [3, 4],
        "rays": [{"beta_free": [5], "beta_torsion": [0, 0]},
                 {"beta_free": [-4], "beta_torsion": [0, 0]}],
        "max_cones": [[0], [1]]})


def test_build_xi_on_torsion_heavy_fan():
    fan = torsion_heavy_fan()
    assert validate(fan).ok
    _, spaces, xi = _pipeline(fan)
    assert spaces.t == 95
    assert _dense_identity_holds(xi.xi, xi.xi_star)


def test_check_reads_the_rows_build_xi_returns(monkeypatch):
    # Xi*_Y is unit_vector(dim, n + j); a stray nonzero in the next column,
    # which nothing in the construction of Xi*_Y sets, must reach the check
    def with_stray(dim, i):
        v = [0] * dim
        v[i], v[(i + 1) % dim] = 1, 7
        return tuple(v)

    monkeypatch.setattr(orbcones, "unit_vector", with_stray)
    for name in ("football", "gerby-p1", "p1xfootball", "p2-c2"):
        fan = fixture_fan(name)
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        assert spaces.t > 0
        with pytest.raises(AssertionError, match="dual-basis identity fails"):
            build_xi(fan, sectors, spaces)


def weighted_projective_box_size(w) -> int:
    """|Box(P(1, w))|: the distinct fractions k / w_i in [0, 1), w_0 = 1
    (Coates, Corti, Lee and Tseng, Acta Math. 2009)."""
    return len({Fraction(k, wi) for wi in (1,) + tuple(w) for k in range(wi)})


@st.composite
def _rank_four_to_six_fans(draw):
    # (fan, w): P(1, w) for d = 4..6, or a product of two fixtures of
    # dimension 2 (w None); then perhaps an extra Z/2 or Z/3 torsion factor
    # with random residues
    if draw(st.booleans()):
        w = tuple(draw(st.lists(st.integers(1, 5), min_size=4, max_size=6)
                       .filter(lambda w: math.gcd(*w) == 1)))
        fan = weighted_projective_fan(w)
    else:
        w = None
        names = st.sampled_from(("p2", "hirzebruch-f1", "p1xfootball", "p2-c2"))
        fan = product_fan(fixture_fan(draw(names)), fixture_fan(draw(names)))
    extra = draw(st.sampled_from(((), (2,), (3,))))
    if extra:
        fan = StackyFan(AbelianGroupSpec(fan.dim, fan.group.torsion_orders + extra),
                        tuple(NElement(r.free, r.torsion + (draw(st.integers(0, extra[0] - 1)),))
                              for r in fan.rays),
                        fan.max_cones, name=fan.name + f"xZ/{extra[0]}")
    return fan, w


@given(_rank_four_to_six_fans())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_xi_in_rank_four_to_six(fan_w):
    fan, w = fan_w
    assert 4 <= fan.dim <= 6 and validate(fan).ok
    _, spaces, xi = _pipeline(fan)
    n, d = spaces.n, spaces.d
    assert _dense_identity_holds(xi.xi, xi.xi_star)
    for j in range(spaces.t):
        assert sum(1 for x in xi.xi[n + j] if x) <= d + 1
        assert sum(1 for x in xi.xi_star[n + j] if x) == 1
    if w is not None:
        # each box point of P(w) carries every torsion element
        assert len(enumerate_box(fan)) == weighted_projective_box_size(w) * math.prod(
            fan.group.torsion_orders)


# |Box| of each fixture, as its golden `box` output lists
FIXTURE_BOX_SIZES = {"p1": 1, "p2": 1, "hirzebruch-f1": 1, "football": 2,
                     "gerby-p1": 2, "p1xfootball": 2, "p2-c2": 2}


def _weights(d: int):
    # w_1, ..., w_d of P(1, w) with -w primitive; all ones is P^d, smooth
    return st.just((1,) * d) | st.lists(st.integers(1, 4), min_size=d, max_size=d).map(
        tuple).filter(lambda w: math.gcd(*w) == 1)


@st.composite
def _product_fans(draw):
    # (X, Y): P(w) x P(w') or P(w) x a fixture, of dimension at most 6, each
    # factor with its |Box| and smoothness read off its weights or its name
    w = draw(_weights(draw(st.integers(1, 4))))
    first = (weighted_projective_fan(w), weighted_projective_box_size(w), set(w) == {1})
    if draw(st.booleans()):
        v = draw(_weights(draw(st.integers(1, 6 - len(w)))))
        return first, (weighted_projective_fan(v), weighted_projective_box_size(v),
                       set(v) == {1})
    name = draw(st.sampled_from(FIXTURE_NAMES))
    return first, (fixture_fan(name), FIXTURE_BOX_SIZES[name], name in CLASSICAL_FIXTURES)


@given(_product_fans())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_products_against_closed_forms(factors):
    (x, box_x, smooth_x), (y, box_y, smooth_y) = factors
    fan = product_fan(x, y)
    assert fan.dim <= 6 and validate(fan).ok
    sectors = twisted_sectors(fan)
    assert len(enumerate_box(fan)) == box_x * box_y
    t = box_x * box_y - 1
    spaces = build_spaces(fan, sectors)
    dim = x.n_rays + y.n_rays - fan.dim + t
    assert spaces.t == t and len(spaces.curve_basis) == dim
    assert rank(spaces.curve_basis) == dim
    if smooth_x and smooth_y:
        assert sectors == ()


def _closed_form_xi(spaces, sectors):
    """Xi and Xi* laid out dense in Fraction, straight from the formulas
    Xi_rho = c_rho v_rho, Xi_Y = v_Y + sum a_rho(Y) c_rho v_rho,
    Xi*_rho = u_rho / c_rho - sum a_rho(Y) u_Y and Xi*_Y = u_Y."""
    n, dim = spaces.n, spaces.n + spaces.t
    xi = [[Fraction(0)] * dim for _ in range(dim)]
    star = [[Fraction(0)] * dim for _ in range(dim)]
    for i, c in enumerate(spaces.ray_cs):
        xi[i][i], star[i][i] = Fraction(c), Fraction(1, c)
    for j, sector in enumerate(sectors):
        xi[n + j][n + j] = star[n + j][n + j] = Fraction(1)
        for i, a in sector.coeffs:
            xi[n + j][i] = a * spaces.ray_cs[i]
            star[i][n + j] = -a
    return tuple(map(tuple, xi)), tuple(map(tuple, star))


_variant_fans = st.builds(lambda name, seed: beta_variant(fixture_fan(name), random.Random(seed)),
                          st.sampled_from(FIXTURE_NAMES), st.integers(0, 2 ** 32))


@given(st.one_of(_variant_fans,
                 _rank_four_to_six_fans().map(lambda fan_w: fan_w[0]),
                 _product_fans().map(lambda factors: product_fan(factors[0][0], factors[1][0]))))
@example(torsion_heavy_fan())
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
def test_rational_views_equal_the_closed_form(fan):
    sectors, spaces, xi = _pipeline(fan)
    expected = _closed_form_xi(spaces, sectors)
    for view, rows in zip((xi.xi, xi.xi_star), expected):
        assert len(view) == len(rows)
        for v, w in zip(view, rows):
            assert len(v) == len(w)
            assert all(x == y for x, y in zip(v, w))
            assert [str(x) for x in v] == [str(y) for y in w]


def test_build_xi_builds_no_fraction(monkeypatch):
    # the rows are integers all through; only the rational views, read
    # after build_xi returns, make Fractions
    built = []
    original = orbcones.Fraction

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(orbcones, "Fraction", counting)
    for fan in all_fixture_fans() + [torsion_heavy_fan()]:
        sectors = twisted_sectors(fan)
        spaces = build_spaces(fan, sectors)
        xi = build_xi(fan, sectors, spaces)
        assert built == [], fan.name
    assert xi.xi_star and built


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


@pytest.mark.parametrize("name", ["football", "hirzebruch-f1", "p1xfootball", "p2-c2", "P1^6"])
def test_one_fan_builds_each_chart_once(monkeypatch, name):
    # validate, the box walk, point location and q share the fan's chart
    # table: one integer elimination per maximal cone for the whole run
    rng = random.Random(name)
    fan = reduce(product_fan, [fixture_fan("p1")] * 6) if name == "P1^6" \
        else beta_variant(fixture_fan(name), rng)
    charts = _count_calls(monkeypatch, linalg, "cone_inverse")
    assert validate(fan).ok
    sectors, spaces, _ = _pipeline(fan)
    for _ in range(8):
        one_ps_class(fan, sectors, spaces, random_n_element(fan, rng))
    assert len(charts) == len(fan.max_cones)


def test_one_ps_class_zero():
    fan = fixture_fan("p2")
    sectors, spaces, xi = _pipeline(fan)
    cls = one_ps_class(fan, sectors, spaces, NElement((0, 0)))
    assert all(x == 0 for x in cls.class_vector)
    assert cls.sector.is_untwisted
    assert cls.ray_multiplicities == (0, 0, 0)


def test_one_ps_class_takes_its_sector_from_the_list():
    # a twisted q(b) is the caller's sector element itself; the untwisted
    # one is built, with no coefficients; either equals q_reduce's
    rng = random.Random(24)
    fans = all_fixture_fans()
    fans += [beta_variant(fans[k % len(fans)], rng) for k in range(14)]
    twisted = 0
    for fan in fans:
        sectors, spaces, _ = _pipeline(fan)
        for _ in range(20):
            b = random_n_element(fan, rng)
            cls = one_ps_class(fan, sectors, spaces, b)
            assert cls.sector == q_reduce(fan, b)
            if cls.sector_index is None:
                assert cls.sector.is_untwisted and cls.sector.coeffs == ()
            else:
                assert cls.sector is sectors[cls.sector_index]
                twisted += 1
        for j, sector in enumerate(sectors):
            b = NElement(sector.rig, sector.torsion)
            assert one_ps_class(fan, sectors, spaces, b).sector is sectors[j]
    assert twisted > 0


@st.composite
def _fans_with_elements(draw):
    # a fixture beta-variant with a batch of elements b of N; torsion
    # residues are drawn past their orders, which one_ps_class reduces
    fan = beta_variant(fixture_fan(draw(st.sampled_from(FIXTURE_NAMES))),
                       draw(st.randoms(use_true_random=False)))
    elements = draw(st.lists(st.builds(
        NElement, st.tuples(*[st.integers(-20, 20)] * fan.dim),
        st.tuples(*[st.integers(0, 2 * l) for l in fan.group.torsion_orders])),
        min_size=1, max_size=6))
    return fan, elements


@given(_fans_with_elements())
@settings(max_examples=80, derandomize=True, database=None, deadline=None)
def test_one_ps_class_matches_the_q_and_coefficient_oracle(fan_elements):
    # the class vector is a_rho(b) c_rho on the rays of b's minimal cone,
    # each a Fraction, int 1 at q(b)'s sector if twisted and int 0 elsewhere;
    # the multiplicities are floor(a_rho(b)) and the sector is q(b)
    fan, elements = fan_elements
    sectors, spaces, _ = _pipeline(fan)
    n = fan.n_rays
    for b in elements:
        cls = one_ps_class(fan, sectors, spaces, b)
        q = q_reduce(fan, b)
        a = dict(minimal_cone_coeffs(fan, b.free))
        j = None if q.is_untwisted else sectors.index(q)
        expected = [a[i] * math.gcd(*fan.rays[i].free) if i in a else 0 for i in range(n)]
        expected += [int(k == j) for k in range(len(sectors))]
        assert cls.class_vector == tuple(expected)
        assert [type(x) for x in cls.class_vector] == [
            Fraction if k in a else int for k in range(n + len(sectors))]
        assert cls.ray_multiplicities == tuple(math.floor(a.get(i, 0)) for i in range(n))
        assert cls.sector == q and cls.sector_index == j
        assert cls.b == NElement(b.free, fan.group.reduce_torsion(b.torsion))


def test_one_ps_class_raises_on_a_sector_list_without_q():
    # q(-3) of the football is its one twisted sector, rig (-1,)
    fan = fixture_fan("football")
    sectors, spaces, _ = _pipeline(fan)
    assert [s.rig for s in sectors] == [(-1,)]
    with pytest.raises(KeyError, match=re.escape(
            "sector ((-1,), ()) missing from the canonical list; "
            "box enumeration and q disagree")):
        one_ps_class(fan, (), spaces, NElement((-3,)))
    # an untwisted q needs no list
    assert one_ps_class(fan, (), spaces, NElement((5,))).sector_index is None


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
    classes = restricted_functionals(spaces, xi)
    assert [tuple(c) for c in classes] == [
        (1, 0), (Fraction(1, 2), Fraction(-1, 2)), (0, 1)]
    cone = Cone(2, classes)
    assert cone.canonical_generators() == ((0, 1), (1, -1))


def test_peff_generators_gerby():
    fan = fixture_fan("gerby-p1")
    _, spaces, xi = _pipeline(fan)
    classes = restricted_functionals(spaces, xi)
    # the purely-torsion sector has all a coefficients zero, so the ray
    # classes carry no sector corrections
    assert [tuple(c) for c in classes] == [(1, 0), (1, 0), (0, 1)]


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
            cls = one_ps_class(fan, sectors, spaces, NElement(sector.rig, sector.torsion))
            assert tuple(Fraction(x) for x in cls.class_vector) == \
                tuple(Fraction(x) for x in xi.xi[spaces.n + j]), (fan.name, j)


def test_classical_projection_consistency():
    # dropping the sector coordinates of the peff classes recovers the cone
    # generated by the classical coarse ray classes
    from stackycones.neron_severi import ray_divisor_classes

    for fan in all_fixture_fans():
        sectors, spaces, xi = _pipeline(fan)
        classes = restricted_functionals(spaces, xi)
        dropped = [c[:spaces.dim_ns] for c in classes]
        projected = Cone(spaces.dim_ns, [v for v in dropped if any(v)])
        classical = Cone(spaces.dim_ns,
                         [ray_divisor_classes(spaces, i)[0][:spaces.dim_ns]
                          for i in range(spaces.n)])
        assert projected.equals(classical), fan.name


def test_verify_duality_on_variants_smoke():
    rng = random.Random(271828)
    for fan in all_fixture_fans():
        for _ in range(3):
            variant = beta_variant(fan, rng, max_curve_dim=VERIFY_CURVE_DIM_CAP)
            report = verify_duality(variant)
            assert report.equal, (fan.name, [r.free for r in variant.rays])


def _curve_dim(fan):
    return fan.n_rays - fan.dim + len(twisted_sectors(fan))


@given(st.one_of(
    st.sampled_from(FIXTURE_NAMES).map(fixture_fan),
    st.builds(lambda name, seed: beta_variant(fixture_fan(name), random.Random(seed),
                                              max_curve_dim=VERIFY_CURVE_DIM_CAP),
              st.sampled_from(FIXTURE_NAMES), st.integers(0, 2 ** 32)),
    _product_fans().map(lambda factors: product_fan(factors[0][0], factors[1][0]))
    .filter(lambda fan: _curve_dim(fan) <= VERIFY_CURVE_DIM_CAP)))
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_peff_extremal_rays_are_the_tight_set_rays(fan):
    # an oracle with no DD run of its own: PEff's extremal rays are the
    # functionals whose tight sets on the rays of Mov are maximal, which is
    # exact because Mov is full-dimensional
    analysis = Analysis(fan)
    mov = analysis.peff.dual().generators
    assert rank(mov) == analysis.spaces.dim_ns_orb
    assert tight_set_rays(analysis.functionals, mov) == \
        analysis.peff.canonical_generators(), fan.name


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


RANK_TWO_FIXTURES = tuple(name for name in FIXTURE_NAMES if fixture_fan(name).dim == 2)


def _scaled_p2(k):
    # P^2 with its rays scaled by k, no torsion: |Mov| grows as k^6
    return StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in ((k, 0), (0, k), (-k, -k))),
                     ((0, 1), (1, 2), (2, 0)), name=f"{k}p2")


@pytest.mark.parametrize("k, rays", [(1, 1), (2, 15), (3, 217), (4, 1726)])
def test_mov_of_scaled_p2_counts_the_positive_circuits(k, rays):
    # Mov's rays by DD against a circuit count that shares no engine with it
    fan = _scaled_p2(k)
    assert rank_two_mov_count(fan) == rays
    assert len(Analysis(fan).peff.dual().generators) == rays


@given(st.one_of(
    st.sampled_from(RANK_TWO_FIXTURES).map(fixture_fan),
    st.builds(lambda name, seed: beta_variant(fixture_fan(name), random.Random(seed),
                                              max_curve_dim=VERIFY_CURVE_DIM_CAP),
              st.sampled_from(RANK_TWO_FIXTURES), st.integers(0, 2 ** 32))))
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_mov_of_rank_two_fans_counts_the_positive_circuits(fan):
    assert len(Analysis(fan).peff.dual().generators) == rank_two_mov_count(fan)
