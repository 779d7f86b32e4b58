import itertools
import random
from collections import Counter
from operator import mul

import pytest
from conftest import (
    FIXTURE_NAMES,
    all_fixture_fans,
    battery_validate,
    cone_on_rays,
    counted_dd_runs,
    facet_separates,
    fixture_fan,
    meets_in_a_face,
    pairwise_oracle,
    polygon_rays,
    unseparated_pairs,
)
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from stackycones import fan as fan_module
from stackycones.cones import Cone, intersect
from stackycones.fan import (
    AbelianGroupSpec,
    FanStructureError,
    NElement,
    StackyFan,
    ray_data,
    validate,
)
from stackycones.boxes import minimal_cone_coeffs
from stackycones.linalg import primitive_direction


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


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(["polygon", "prism"]),
       mutation=st.sampled_from(MUTATIONS), m=st.integers(3, 6))
def test_certificate_matches_the_battery(seed, kind, mutation, m):
    fan = _mutated_fan(random.Random(seed), kind, m, mutation)
    with counted_dd_runs() as dd_runs:
        report = validate(fan)
    runs = len(dd_runs)
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
    # cone separates them, and tests any other pair's intersection against
    # the span of the common rays; on every pair its verdict must be the DD
    # face test's: the intersection lies in the cone on the common rays
    outcomes = Counter()

    # opposite quadrants and octants: no facet separates them, yet they meet
    # in the cone on their common rays ({0}, then the ray e3)
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(fan=_cone_pairs())
    @example(fan=_fan(2, [(1, 0), (0, 1), (-1, 0), (0, -1)], [(0, 1), (2, 3)]))
    @example(fan=_fan(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0)],
                      [(0, 1, 2), (2, 3, 4)]))
    def check(fan):
        sigma, tau = fan.max_cones
        inverses = fan.charts
        assume(None not in inverses)
        separated = (facet_separates(fan, inverses[0][1], sigma, tau)
                     or facet_separates(fan, inverses[1][1], tau, sigma))
        face = cone_on_rays(fan, sorted(set(sigma) & set(tau)))
        meet = intersect(cone_on_rays(fan, sigma), cone_on_rays(fan, tau))
        is_face = all(face.contains(g) for g in meet.generators)
        outcomes[separated, is_face] += 1
        if separated:
            assert is_face, fan
        checks = {c.name: c.passed for c in validate(fan).checks}
        assert checks["pairwise_intersections"] == is_face, fan

    check()
    # every outcome occurs, so no branch passes vacuously
    assert set(outcomes) == {(True, True), (False, True), (False, False)}, outcomes


CHANGES = ("none", "lower", "unused", "alias")


@st.composite
def _varied_fans(draw):
    """(change, fan): a _mutated_fan changed in one way: not at all, one cone
    cut down to a lower-dimensional face, one or two rays that no cone
    uses, or one cone's ray listed again under a new index that the cone
    uses in its place."""
    fan = _mutated_fan(random.Random(draw(st.integers(0, 2 ** 32))),
                       draw(st.sampled_from(["polygon", "prism"])),
                       draw(st.integers(3, 6)), draw(st.sampled_from(MUTATIONS)))
    rays, cones = [ray.free for ray in fan.rays], list(fan.max_cones)
    change = draw(st.sampled_from(CHANGES))
    k = draw(st.integers(0, len(cones) - 1))
    if change == "lower":
        drop = draw(st.sampled_from(cones[k]))
        cones[k] = tuple(i for i in cones[k] if i != drop)
    elif change == "unused":
        vector = st.tuples(*[st.integers(-3, 3)] * fan.dim).filter(any)
        rays += draw(st.lists(vector, min_size=1, max_size=2))
    elif change == "alias":
        i = draw(st.sampled_from(cones[k]))
        rays.append(rays[i])
        cones[k] = tuple(len(rays) - 1 if j == i else j for j in cones[k])
    return change, _fan(fan.dim, rays, cones)


def test_far_side_sets_agree_with_the_pair_oracle():
    # validate's pairwise check, verdict and detail, equals the per-pair
    # facet test plus a DD face test on every unseparated pair
    outcomes = Counter()

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(varied=_varied_fans())
    def check(varied):
        change, fan = varied
        checks = {c.name: c for c in validate(fan).checks}
        assume(checks["simplicial"].passed)
        assert checks["pairwise_intersections"] == pairwise_oracle(fan), fan
        outcomes[change, checks["pairwise_intersections"].passed] += 1

    check()
    # each change meets both verdicts, so none passes vacuously
    assert set(outcomes) == {(c, v) for c in CHANGES for v in (True, False)}, outcomes


def _orthants(k):
    """The rays and cones of P^1^k: e_i at index 2i, -e_i at 2i + 1, and
    the 2^k orthants."""
    rays = [tuple(s if j == i else 0 for j in range(k)) for i in range(k) for s in (1, -1)]
    return rays, [tuple(2 * i + s for i, s in enumerate(signs))
                  for signs in itertools.product((0, 1), repeat=k)]


def test_validate_builds_no_cone(monkeypatch, dd_runs):
    # one DD run per unseparated pair, plus one per chart-less cone among
    # them, on its primitive rays, made once; no Cone is built, and nothing
    # runs when the ridge certificate holds or every pair is separated
    rays, orthants = _orthants(3)
    fans = all_fixture_fans() + [
        StackyFan(fan.group, fan.rays, fan.max_cones[1:], name=fan.name + "-drop")
        for fan in all_fixture_fans()] + [
        _mutated_fan(random.Random(1), "polygon", 12, "drop"),
        _mutated_fan(random.Random(1), "prism", 6, "widen"),
        _fan(3, rays, [orthants[0][:2]] + orthants[1:]),
        _fan(3, rays, [orthants[0][:2]] + orthants[1:-1] + [orthants[-1][:1]])]

    expected = []
    for fan in fans:
        pairs = [] if validate(fan).ok else unseparated_pairs(fan)
        chartless = {k for pair in pairs for k in pair if fan.charts[k] is None}
        expected.append((Counter((fan.dim, tuple(sorted(
            {primitive_direction(fan.rays[i].free) for i in fan.max_cones[k]})))
            for k in chartless), len(pairs) + len(chartless)))
    built = []
    real_init, real_of_canonical = Cone.__init__, Cone._of_canonical.__func__
    monkeypatch.setattr(Cone, "__init__", lambda self, *args: built.append(
        args) or real_init(self, *args))
    monkeypatch.setattr(Cone, "_of_canonical", classmethod(
        lambda cls, *args: built.append(args) or real_of_canonical(cls, *args)))
    counts = []
    for fan, (chartless, runs) in zip(fans, expected):
        dd_runs.clear()
        report = validate(fan)
        assert built == [], fan.name
        assert len(dd_runs) == runs, fan.name
        ray_runs = Counter((dim, tuple(sorted(set(constraints))))
                           for dim, constraints in dd_runs)
        assert {key: ray_runs[key] for key in chartless} == chartless, fan.name
        counts.append((report.ok, bool(dd_runs), bool(chartless)))
    assert set(counts) == {(True, False, False), (False, False, False),
                           (False, True, False), (False, True, True)}, counts


@pytest.mark.parametrize("kind, m, mutation, runs", [
    ("polygon", 12, "drop", 1),
    ("prism", 6, "widen", 32),
], ids=["polygon-12-drop", "prism-6-widen"])
def test_facet_normals_spare_pairwise_dd_runs(dd_runs, kind, m, mutation, runs):
    # a 12-cone polygon with a dropped cone and a 6-prism with two
    # overlapping cones: one DD run per unseparated pair and none per cone;
    # battery_validate runs the DD test on every pair
    fan = _mutated_fan(random.Random(1), kind, m, mutation)
    assert not validate(fan).ok
    assert len(dd_runs) == runs == len(unseparated_pairs(fan))
    battery_validate(fan)
    assert runs < len(dd_runs) - runs


def _orthants_drop(k):
    rays, cones = _orthants(k)
    return _fan(k, rays, cones[:5] + cones[6:])


@pytest.mark.parametrize("fan", [
    _mutated_fan(random.Random(1), "polygon", 12, "drop"),
    _mutated_fan(random.Random(1), "prism", 6, "widen"),
    _orthants_drop(5),
], ids=["polygon-12-drop", "prism-6-widen", "p1-5-drop"])
def test_each_pairwise_dd_run_gets_the_pairs_primitive_chart_rows(dd_runs, fan):
    # the pairwise check's DD runs receive, per unseparated pair in order, the
    # two cones' chart rows as primitive tuples; the run starts by sorting and
    # deduplicating them, which gives exactly the constraints it had when a
    # Cone normalized them for every pair
    assert all(fan.charts) and not validate(fan).ok
    pairs = unseparated_pairs(fan)
    assert len(dd_runs) == len(pairs) > 0
    for (dim, constraints), (a, b) in zip(dd_runs, pairs):
        rows = fan.charts[a][1] + fan.charts[b][1]
        assert dim == fan.dim
        assert constraints == [primitive_direction(h) for h in rows]
        assert sorted(set(constraints)) == sorted({primitive_direction(h) for h in rows})


ORTHANT_CHANGES = ("drop", "twice", "lower", "two-lower")


@st.composite
def _orthant_fans(draw, change):
    """P^1^k for k = 4..6 with one cone dropped, one cone
    listed twice, one cone cut to a face of lower dimension (a cone with no
    chart), or two cones cut so that a pair has no chart.  If drawn, one
    orthant s is skewed first: its ray v_p is swapped for a new ray
    w = v_p - v_q, so it overlaps the orthant n across its facet opposite
    v_q in more than a face; two cut cones are then s and n, cut to faces
    that keep w and v_p, -v_q, which overlap in the same way."""
    k = draw(st.integers(4, 6))
    rays, cones = _orthants(k)
    picks = draw(st.lists(st.integers(0, len(cones) - 1), min_size=2, max_size=2, unique=True))
    keep = [(), ()]
    if draw(st.booleans()):
        s = draw(st.integers(0, len(cones) - 1))
        p, q = draw(st.permutations(cones[s]))[:2]
        rays.append(tuple(x - y for x, y in zip(rays[p], rays[q])))
        n = cones.index(tuple(j ^ 1 if j == q else j for j in cones[s]))
        cones[s] = tuple(len(rays) - 1 if j == p else j for j in cones[s])
        if change == "two-lower":
            picks, keep = [s, n], [(len(rays) - 1,), (p, q ^ 1)]
    if change == "drop":
        cones.pop(picks[0])
    elif change == "twice":
        cones.append(cones[picks[0]])
    else:
        for c, kept in list(zip(picks, keep))[:1 if change == "lower" else 2]:
            rest = draw(st.permutations([j for j in cones[c] if j not in kept]))
            cones[c] = kept + tuple(rest[:draw(st.integers(not kept, k - 1 - len(kept)))])
    return _fan(k, rays, cones)


@pytest.mark.parametrize("change", ORTHANT_CHANGES)
def test_pairwise_check_agrees_with_the_oracle_in_rank_4_to_6(change):
    # the chart-row intersections and the comparison with the common rays
    # give the oracle's pairwise check, verdict and detail, on products of P^1
    verdicts = Counter()

    # no shrink phase: a P^1^6 example takes about 0.4 s, and shrinking a
    # failure ran for minutes
    @settings(max_examples=8, derandomize=True, database=None, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @given(fan=_orthant_fans(change))
    def check(fan):
        checks = {c.name: c for c in validate(fan).checks}
        assert checks["simplicial"].passed and not checks["complete"].passed
        assert checks["pairwise_intersections"] == pairwise_oracle(fan), fan
        verdicts[checks["pairwise_intersections"].passed] += 1

    check()
    # both verdicts occur, so neither passes vacuously
    assert set(verdicts) == {True, False}, verdicts


@st.composite
def _facet_fans(draw):
    """(source, fan): P^1^k for k = 3..6, one orthant skewed or not as in
    _orthant_fans, or a _mutated_fan; then one or two maximal cones
    replaced by one of their facets, which has no chart, and each ray
    scaled by 1, 2 or 3, so that not every ray is primitive."""
    source = draw(st.sampled_from(["orthants", "mutated"]))
    if source == "orthants":
        rays, cones = _orthants(draw(st.integers(3, 6)))
        if draw(st.booleans()):
            s = draw(st.integers(0, len(cones) - 1))
            p, q = draw(st.permutations(cones[s]))[:2]
            rays.append(tuple(x - y for x, y in zip(rays[p], rays[q])))
            cones[s] = tuple(len(rays) - 1 if j == p else j for j in cones[s])
    else:
        fan = _mutated_fan(random.Random(draw(st.integers(0, 2 ** 32))),
                           draw(st.sampled_from(["polygon", "prism"])),
                           draw(st.integers(3, 6)), draw(st.sampled_from(MUTATIONS)))
        rays, cones = [ray.free for ray in fan.rays], list(fan.max_cones)
    for k in draw(st.lists(st.integers(0, len(cones) - 1), min_size=1, max_size=2,
                           unique=True)):
        drop = draw(st.sampled_from(cones[k]))
        cones[k] = tuple(i for i in cones[k] if i != drop)
    scales = draw(st.lists(st.integers(1, 3), min_size=len(rays), max_size=len(rays)))
    return source, _fan(len(rays[0]), [tuple(c * x for x in v) for c, v in zip(scales, rays)],
                        cones)


def test_face_verdict_agrees_with_the_span_oracle():
    # on every unseparated pair, comparing the intersection's DD output with
    # the common rays gives the verdict of the chart-coordinate and rank tests
    verdicts = Counter()

    # no shrink phase: a P^1^6 example takes about 0.4 s
    @settings(max_examples=30, derandomize=True, database=None, deadline=None,
              phases=[Phase.explicit, Phase.generate])
    @given(drawn=_facet_fans())
    def check(drawn):
        source, fan = drawn
        assume({c.name: c.passed for c in validate(fan).checks}["simplicial"])
        faces = {(a, b): meets_in_a_face(fan, a, b) for a, b in unseparated_pairs(fan)}
        assert fan_module._non_face_pairs(fan) == [
            (fan.max_cones[a], fan.max_cones[b]) for (a, b), face in faces.items()
            if not face], fan
        verdicts.update((source, face) for face in faces.values())

    check()
    # both verdicts occur on both sources, so neither passes vacuously
    assert set(verdicts) == {(s, v) for s in ("orthants", "mutated")
                             for v in (True, False)}, verdicts


@pytest.mark.parametrize("cones", [
    ((1, 0), (2, 1), (0, 2)),
    ((0, 1), (1, 2), (0, 2), (0, 1)),
    ((1, 0), (1, 2), (0, 2), (0, 1)),
], ids=["reordered", "twice", "twice-reordered"])
def test_validate_reads_the_chart_of_each_listed_position(cones):
    # p2 with its cones' rays in another order, or a cone listed twice:
    # fan.charts has one chart per listed position, rows in its ray order
    p2 = fixture_fan("p2")
    fan = StackyFan(p2.group, p2.rays, cones, name="p2-relisted")
    for cone, (m, rows) in zip(cones, fan.charts):
        for i, row in zip(cone, rows):
            assert [sum(map(mul, row, fan.rays[j].free)) for j in cone] == \
                [m if j == i else 0 for j in cone]
    report = validate(fan)
    assert report.ok == (len(cones) == 3)
    assert report.checks == battery_validate(fan).checks
