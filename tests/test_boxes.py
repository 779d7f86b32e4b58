import io
import itertools
import json
import math
import operator
import random
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    FIXTURE_NAMES,
    _count_calls,
    acoeffs_from_pairs,
    all_fixture_fans,
    beta_variant,
    coeffs_in_cone,
    fixture_fan,
    fraction_solve,
    polygon_fan,
    random_n_element,
    weighted_projective_fan,
)

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stackycones import boxes, linalg
from stackycones.boxes import (
    BoxElement,
    IncompleteFanError,
    cone_parallelepiped_points,
    enumerate_box,
    minimal_cone_coeffs,
    _locate,
    q_reduce,
    twisted_sectors,
)
from stackycones.cli import main
from stackycones.fan import AbelianGroupSpec, NElement, StackyFan
from stackycones.fanfile import fan_to_dict
from stackycones.linalg import det, mat_vec, unit_vector
from stackycones.neron_severi import build_spaces
from stackycones.orbcones import one_ps_class


def test_football_coeffs_positive_side():
    coeffs = minimal_cone_coeffs(fixture_fan("football"), (5,))
    assert coeffs == ((0, Fraction(5)),)


def test_football_coeffs_negative_side():
    coeffs = minimal_cone_coeffs(fixture_fan("football"), (-3,))
    assert coeffs == ((1, Fraction(3, 2)),)


def test_origin_has_empty_support():
    for fan in all_fixture_fans():
        assert minimal_cone_coeffs(fan, (0,) * fan.dim) == ()


def test_incomplete_fan_error():
    half = StackyFan(AbelianGroupSpec(1), (NElement((1,)),), ((0,),), name="half")
    with pytest.raises(IncompleteFanError):
        minimal_cone_coeffs(half, (-1,))


@pytest.mark.parametrize("free", [(), (1,), (1, 2, 3)])
def test_points_of_the_wrong_length_raise(free):
    # without the length check, zip would silently cut a long point short
    # and read () as the origin
    fan = fixture_fan("p2-c2")
    sectors = twisted_sectors(fan)
    spaces = build_spaces(fan, sectors)
    b = NElement(free)
    with pytest.raises(ValueError, match="point has length"):
        minimal_cone_coeffs(fan, free)
    with pytest.raises(ValueError, match="point has length"):
        q_reduce(fan, b)
    with pytest.raises(ValueError, match="point has length"):
        one_ps_class(fan, sectors, spaces, b)


def test_q_reduce_football_negative():
    box = q_reduce(fixture_fan("football"), NElement((-3,)))
    assert box.rig == (-1,)
    assert box.coeffs == ((1, Fraction(1, 2)),)
    assert not box.is_untwisted


def test_q_reduce_football_untwisted():
    box = q_reduce(fixture_fan("football"), NElement((5,)))
    assert box.rig == (0,)
    assert box.is_untwisted


def test_q_reduce_gerby_torsion_passthrough():
    box = q_reduce(fixture_fan("gerby-p1"), NElement((0,), (1,)))
    assert box.rig == (0,)
    assert box.torsion == (1,)
    assert box.coeffs == ()
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
    assert sectors[0].coeffs == ((1, Fraction(1, 2)),)
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
    assert sectors[0].coeffs == ()


def test_enumerate_box_p2_c2():
    fan = fixture_fan("p2-c2")
    sectors = twisted_sectors(fan)
    assert [(b.rig, b.coeffs) for b in sectors] == [
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
            for _, a in coeffs:
                assert 0 < a < 1


def test_q_reduce_is_retraction_on_box():
    for fan in all_fixture_fans():
        for element in enumerate_box(fan):
            again = q_reduce(fan, NElement(element.rig, element.torsion))
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
            for i, a in coeffs:
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
            out.append((point, acoeffs_from_pairs(zip(range(d), a))))
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


@pytest.mark.parametrize("cone", [(1, 0), (0,), (0, 1, 2)])
def test_parallelepiped_points_take_a_listed_maximal_cone_only(cone):
    # the cone's chart is read from fan.charts, which has none for a cone
    # that is not one of fan.max_cones, rays in the listed order
    with pytest.raises(ValueError, match="is not a maximal cone"):
        cone_parallelepiped_points(fixture_fan("p2"), cone)


@pytest.mark.parametrize("cones, message", [
    (((0,), (1, 2)), "needs a full-dimensional cone"),
    (((0, 3), (1, 2)), r"cone \(0, 3\) is not simplicial"),
])
def test_parallelepiped_points_of_a_degenerate_maximal_cone_raise(cones, message):
    rays = ((1, 0), (0, 1), (-1, -1), (2, 0))
    fan = StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in rays), cones)
    with pytest.raises(ValueError, match=message):
        cone_parallelepiped_points(fan, cones[0])


def test_location_reads_the_chart_of_each_listed_position():
    # p2 with its cone (0, 1) listed first as (1, 0): the first listed
    # position that contains y gives the cone and c, in that ray order
    p2 = fixture_fan("p2")
    fan = StackyFan(p2.group, p2.rays, ((1, 0),) + p2.max_cones, name="p2-twice")
    assert _locate(fan, (2, 3)) == ((1, 0), [3, 2], 1)
    assert _locate(p2, (2, 3)) == ((0, 1), [2, 3], 1)
    for y in itertools.product(range(-3, 4), repeat=2):
        assert minimal_cone_coeffs(fan, y) == minimal_cone_coeffs(p2, y)
        assert q_reduce(fan, NElement(y)) == q_reduce(p2, NElement(y))


def test_smooth_fan_with_huge_rays_has_trivial_box():
    # F_N for N = 10^9: four unimodular cones whose rays span a huge box
    rays = ((1, 0), (0, 1), (-1, 10 ** 9), (0, -1))
    fan = StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in rays),
                    ((0, 1), (1, 2), (2, 3), (3, 0)), name="F_1e9")
    box = enumerate_box(fan)
    assert [(b.rig, b.torsion) for b in box] == [((0, 0), ())]
    assert box[0].is_untwisted


def _box_oracle(fan):
    # the union over maximal cones of the rational scan (first cone wins),
    # crossed with the torsion elements
    points = {}
    for cone in fan.max_cones:
        vectors = [fan.rays[i].free for i in cone]
        for point, coeffs in _rational_parallelepiped_points(vectors):
            points.setdefault(point, acoeffs_from_pairs(
                (cone[k], a) for k, a in coeffs))
    return tuple(BoxElement(rig, torsion, points[rig]) for rig in sorted(points)
                 for torsion in fan.group.torsion_elements())


@st.composite
def _beta_variants(draw):
    # a fixture shape with every ray scaled by a multiplier <= 6, torsion
    # residues redrawn, and sometimes an extra Z/2 or Z/3
    shape = fixture_fan(draw(st.sampled_from(FIXTURE_NAMES)))
    orders = shape.group.torsion_orders + draw(st.sampled_from([(), (2,), (3,)]))
    rays = tuple(NElement(tuple(draw(st.integers(1, 6)) * x for x in ray.free),
                          tuple(draw(st.integers(0, l - 1)) for l in orders))
                 for ray in shape.rays)
    return StackyFan(AbelianGroupSpec(shape.group.rank, orders), rays,
                     shape.max_cones, name=shape.name + "-variant")


# P^2 with rays 2e_1, 2e_2, -2(e_1 + e_2): each cone's group Z^2 / B Z^2 is
# Z/2 x Z/2, which no single generator walks
SCALED_P2 = StackyFan(AbelianGroupSpec(2), tuple(NElement(v) for v in ((2, 0), (0, 2), (-2, -2))),
                      ((0, 1), (1, 2), (2, 0)), name="2p2")


@st.composite
def _unimodular_heavy_polygons(draw):
    # a polygon fan over 3..8 of the primitive vectors of [-1, 1]^2 in angular
    # order, gaps below pi: neighbours among the 8 span unimodular cones, and
    # a cone that skips one has |det| <= 2; torsion Z/2 sometimes
    ring = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
    picks = draw(st.lists(st.sampled_from(range(8)), min_size=3, max_size=8, unique=True)
                 .map(sorted).filter(lambda p: all(
                     (b - a) % 8 < 4 for a, b in zip(p, p[1:] + p[:1]))))
    orders = draw(st.sampled_from([(), (2,)]))
    rays = tuple(NElement(ring[i], tuple(draw(st.integers(0, l - 1)) for l in orders))
                 for i in picks)
    n = len(rays)
    return StackyFan(AbelianGroupSpec(2, orders), rays,
                     tuple((i, (i + 1) % n) for i in range(n)), name="unimodular-heavy")


@given(_beta_variants()
       | st.builds(polygon_fan, st.randoms(use_true_random=False),
                   st.sampled_from(["polygon", "prism"]), st.integers(3, 6))
       | _unimodular_heavy_polygons() | st.just(SCALED_P2))
@example(SCALED_P2)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
def test_enumerate_box_matches_rational_scan(fan):
    assert enumerate_box(fan) == _box_oracle(fan)


def test_enumerate_box_of_rank_zero_fan_with_torsion():
    fan = StackyFan(AbelianGroupSpec(0, (2, 3)), (), ((),), name="point")
    box = enumerate_box(fan)
    assert box == _box_oracle(fan)
    assert [(b.rig, b.torsion) for b in box] == [
        ((), (a, b)) for a in range(2) for b in range(3)]
    assert all(b.coeffs == () for b in box)


@pytest.mark.parametrize("fan", [
    fixture_fan("p1xfootball"), polygon_fan(random.Random(12), "polygon", 12)],
    ids=["p1xfootball", "polygon12"])
def test_coefficients_built_once_per_box_point(monkeypatch, fan):
    # every maximal cone walks the origin, and neighbouring cones walk the
    # points of their common face; coefficients are built for the kept
    # point only
    built = []
    original = boxes._coeffs

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(boxes, "_coeffs", counting)
    box = enumerate_box(fan)
    assert len(built) == len({b.rig for b in box})


@st.composite
def _fans_with_points(draw):
    # a fixture beta-variant or a polygon/prism fan, with the origin, a ray,
    # a positive combination of the rays of a proper face of a maximal cone
    # (a face that neighbouring cones share) and a random point
    fan = draw(_beta_variants() | st.builds(
        polygon_fan, st.randoms(use_true_random=False),
        st.sampled_from(["polygon", "prism"]), st.integers(3, 6)))
    d = fan.dim
    cone = draw(st.sampled_from(fan.max_cones))
    face = draw(st.lists(st.sampled_from(cone), unique=True, max_size=d - 1))
    ks = [draw(st.integers(1, 3)) for _ in face]
    frees = [(0,) * d, fan.rays[draw(st.sampled_from(cone))].free,
             tuple(sum(k * fan.rays[i].free[j] for k, i in zip(ks, face)) for j in range(d)),
             draw(st.tuples(*[st.integers(-20, 20)] * d))]
    return fan, [NElement(free, tuple(draw(st.integers(0, l - 1))
                                      for l in fan.group.torsion_orders))
                 for free in frees]


@given(_fans_with_points())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_chart_route_matches_the_rational_oracle(fan_points):
    fan, points = fan_points
    box = set(enumerate_box(fan))
    for b in points:
        cone, sol = next((c, s) for c in fan.max_cones
                         if (s := coeffs_in_cone(fan, c, b.free)) is not None)
        assert minimal_cone_coeffs(fan, b.free) == acoeffs_from_pairs(zip(cone, sol))
        reduced = q_reduce(fan, b)
        assert reduced in box
        # b.free - rig is the integer part: sum of floor(a_rho) b_rho
        assert tuple(x - y for x, y in zip(b.free, reduced.rig)) == tuple(
            sum(math.floor(a) * fan.rays[i].free[j] for i, a in zip(cone, sol))
            for j in range(fan.dim))


def _leibniz_det(rows):
    # the permutation expansion: shares no code with linalg
    n = len(rows)
    return sum((-1) ** sum(p[i] > p[j] for i, j in itertools.combinations(range(n), 2))
               * math.prod(rows[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def _walk_size(fan):
    # sum |det B| over the maximal cones, times the torsion group's order
    return sum(abs(_leibniz_det([fan.rays[i].free for i in cone]))
               for cone in fan.max_cones) * math.prod(fan.group.torsion_orders)


def test_the_guard_refuses_exactly_past_the_limit(monkeypatch):
    # the box walks refuse a fan iff sum |det B| * |torsion| exceeds the
    # limit: enumerate_box, twisted_sectors and the CLI's box command (exit 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fan.json")

        @given(_beta_variants()
               | st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
                   lambda w: weighted_projective_fan(tuple(w))),
               st.integers(-3, 3))
        @settings(max_examples=60, derandomize=True, database=None, deadline=None)
        def check(fan, offset):
            size = _walk_size(fan)
            limit = max(size + offset, 0)
            monkeypatch.setattr(boxes, "ENUMERATION_LIMIT", limit)
            refused = size > limit
            for walk in (enumerate_box, twisted_sectors):
                try:
                    walk(fan)
                    assert not refused, (walk.__name__, fan, limit)
                except boxes.EnumerationLimitError as err:
                    assert refused, (walk.__name__, fan, limit, err)
            Path(path).write_text(json.dumps(fan_to_dict(fan)))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(["box", path])
            assert code == (2 if refused else 0), (fan, limit)
            if refused:
                assert "too large to enumerate" in err.getvalue()
                assert err.getvalue().count("\n") == 1

        check()


def _chart_group(fan, k):
    # the subgroup of (Z/m)^d that cone k's chart columns generate, by brute
    # force over the coefficients [0, m)^d of those columns
    m, adj = fan.charts[k]
    return {tuple(sum(map(operator.mul, row, p)) % m for row in adj)
            for p in itertools.product(range(m), repeat=fan.dim)}


@pytest.mark.parametrize("fan, k, order", [
    *[(StackyFan(AbelianGroupSpec(1), (NElement((n,)), NElement((-1,))), ((0,), (1,))),
       0, n) for n in (2, 7, 1000)],
    (SCALED_P2, 0, 4), (SCALED_P2, 1, 4), (SCALED_P2, 2, 4),
    (StackyFan(AbelianGroupSpec(0), (), ((),)), 0, 1),
], ids=["rays-2-and-minus-1", "rays-7-and-minus-1", "rays-1000-and-minus-1",
        "2p2-cone0", "2p2-cone1", "2p2-cone2", "rank-0"])
def test_walk_guard_at_the_cyclic_cap(fan, k, order):
    # the first generator's cyclic subgroup is built at most room + 1 elements
    # long: the walk refuses at room order - 1 and returns the whole group
    # at room order and order + 1; on 2p2 the cyclic part is Z/2 of Z/2 x Z/2,
    # and in rank 0 the group is the apex, refused at room 0
    group = _chart_group(fan, k)
    assert len(group) == order
    with pytest.raises(boxes.EnumerationLimitError):
        boxes._cone_group(fan, k, order - 1)
    for room in (order, order + 1):
        m, elements, points = boxes._cone_group(fan, k, room)
        assert len(elements) == order and set(elements) == group
        assert sorted(points) == sorted(
            tuple(sum(map(operator.mul, row, c)) // m for row in zip(*[
                fan.rays[i].free for i in fan.max_cones[k]])) for c in group)


def test_walk_guard_builds_no_more_than_the_room():
    # a cone of order 2 * 10^5 refused at room 100 allocates a few kB, not
    # the 10^5-element set an uncapped cyclic subgroup would
    fan = StackyFan(AbelianGroupSpec(1), (NElement((200000,)), NElement((-1,))),
                    ((0,), (1,)), "far-p1")
    tracemalloc.start()
    try:
        with pytest.raises(boxes.EnumerationLimitError):
            boxes._cone_group(fan, 0, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("fan", [
    fixture_fan("p1xfootball"), polygon_fan(random.Random(3), "prism", 6),
    weighted_projective_fan((2, 3, 5))], ids=["p1xfootball", "prism6", "P(1,2,3,5)"])
def test_twisted_sectors_eliminates_once_per_cone(monkeypatch, fan):
    # the walk is its own size guard: no determinant pre-pass
    charts = _count_calls(monkeypatch, linalg, "cone_inverse")
    dets = _count_calls(monkeypatch, linalg, "det")
    twisted_sectors(fan)
    assert len(charts) == len(fan.max_cones)
    assert dets == []
