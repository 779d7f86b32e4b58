import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    counted_dd_runs,
    fraction_kernel_basis,
    fraction_rref,
    intersect_with_subspace_oracle,
)

from stackycones import cones, linalg
from stackycones.cones import Cone, intersect
from stackycones.linalg import dot, primitive_direction


def test_dual_quadrant_self_dual():
    q = Cone(2, [(1, 0), (0, 1)])
    assert q.dual().generators == ((0, 1), (1, 0))


def test_dual_zero_cone_is_full_space():
    z = Cone(2, [])
    assert z.dual().generators == ((-1, 0), (0, -1), (0, 1), (1, 0))


def test_dual_halfplane_pair():
    # hand computation; this is the Mov/PEff pair of the football fixture
    c = Cone(2, [(1, 0), (1, 1)])
    assert c.dual().generators == ((0, 1), (1, -1))


def test_dual_of_line_is_orthogonal_line():
    line = Cone(2, [(1, 0), (-1, 0)])
    assert line.dual().generators == ((0, -1), (0, 1))
    assert line.dual().dual().equals(line)


def test_zero_ambient_dimension():
    c = Cone(0, [])
    assert c.dual().generators == ()
    assert c.contains(())


def test_contains_examples():
    q = Cone(2, [(1, 0), (0, 1)])
    assert q.contains((2, 3))
    assert not q.contains((-1, 0))
    c = Cone(2, [(1, 0), (1, 1)])
    assert not c.contains((1, -1))  # violates <(0,1), .> >= 0


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        Cone(2, [(1, 0)]).contains((1, 0, 0))


def test_cone_guards():
    with pytest.raises(ValueError, match="non-negative"):
        Cone(-1)
    c = Cone(2, [(2, 0)])
    with pytest.raises(AttributeError, match="Cone is immutable"):
        c.generators = ()
    assert repr(c) == "Cone(dim=2, generators=[(1, 0)])"
    assert not Cone(1, [(1,)]).equals(Cone(2))
    with pytest.raises(ValueError, match="different ambient spaces"):
        intersect(Cone(1), Cone(2))


def test_generators_are_primitivized_and_deduped():
    c = Cone(2, [(2, 4), (1, 2), (3, 0)])
    assert c.generators == ((1, 2), (1, 0))


def test_cone_equal_up_to_scaling_and_redundancy():
    a = Cone(2, [(1, 0), (0, 1)])
    b = Cone(2, [(3, 0), (1, 1), (0, 5)])
    assert a.equals(b)
    assert not a.equals(Cone(2, [(1, 0), (1, 1)]))


def test_intersect_with_subspace_diagonal():
    q = Cone(2, [(1, 0), (0, 1)])
    assert q.intersect_with_subspace([(1, -1)]).generators == ((1, 1),)


def test_intersect_with_subspace_football_shape():
    c = Cone(3, [(1, 0, 0), (0, 2, 0), (0, 1, 1)])
    got = c.intersect_with_subspace([(1, -1, 0)])
    assert got.equals(Cone(3, [(2, 2, 0), (1, 1, 1)]))
    assert got.generators == ((1, 1, 0), (1, 1, 1))


def test_intersect_with_no_equations_is_identity():
    c = Cone(3, [(1, 2, 0), (0, 0, 1)])
    assert c.intersect_with_subspace([]).equals(c)


def test_intersect_of_cones():
    a = Cone(2, [(1, 0), (1, 1)])
    b = Cone(2, [(0, 1), (1, 1)])
    assert intersect(a, b).generators == ((1, 1),)


def test_canonical_generators_drop_redundant():
    c = Cone(2, [(1, 0), (1, 1), (0, 1), (2, 1)])
    assert c.canonical_generators() == ((0, 1), (1, 0))


def _random_cone(rng: random.Random) -> Cone:
    dim = rng.randint(1, 6)
    gens = []
    for _ in range(rng.randint(0, 10)):
        v = tuple(rng.randint(-5, 5) for _ in range(dim))
        if any(v):
            gens.append(v)
    return Cone(dim, gens)


def test_dual_dual_round_trip_random():
    rng = random.Random(20240811)
    for _ in range(80):
        c = _random_cone(rng)
        assert c.dual().dual().equals(c)


def test_dual_membership_characterization_random():
    rng = random.Random(4242)
    for _ in range(60):
        c = _random_cone(rng)
        d = c.dual()
        for _ in range(6):
            u = tuple(rng.randint(-4, 4) for _ in range(c.ambient_dim))
            assert d.contains(u) == all(dot(u, g) >= 0 for g in c.generators)


def test_subspace_intersection_properties_random():
    rng = random.Random(99)
    for _ in range(40):
        c = _random_cone(rng)
        eqs = []
        for _ in range(rng.randint(0, 2)):
            e = tuple(rng.randint(-3, 3) for _ in range(c.ambient_dim))
            if any(e):
                eqs.append(e)
        cut = c.intersect_with_subspace(eqs)
        for g in cut.generators:
            assert c.contains(g)
            assert all(dot(e, g) == 0 for e in eqs)


@st.composite
def _cones_and_equations(draw):
    # a cone and equations with rational entries, among them zero equations,
    # repeats and multiples of one another
    dim = draw(st.integers(min_value=1, max_value=5))
    vectors = st.lists(st.one_of(st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)),
                       min_size=dim, max_size=dim).map(tuple)
    equations = draw(st.lists(vectors, max_size=3))
    if equations and draw(st.booleans()):
        equations.append(tuple(2 * x for x in draw(st.sampled_from(equations))))
    if draw(st.booleans()):
        equations.append((0,) * dim)
    return Cone(dim, draw(st.lists(vectors, max_size=8))), draw(st.permutations(equations))


@given(_cones_and_equations())
@settings(max_examples=100, deadline=None)
def test_intersect_with_subspace_matches_the_normalizing_loop(case):
    # the constructor's normalization gives the DD run the same sorted
    # constraints as the loop that made each equation primitive first
    cone, equations = case
    cone.dual()  # the cone's own DD run, made before the counted ones
    with counted_dd_runs() as runs:
        got = cone.intersect_with_subspace(equations)
        expected = intersect_with_subspace_oracle(cone, equations)
    assert got.generators == expected.generators
    (dim, constraints), (oracle_dim, oracle_constraints) = runs
    assert dim == oracle_dim == cone.ambient_dim
    assert sorted(set(constraints)) == sorted(set(oracle_constraints))
    with pytest.raises(ValueError):
        cone.intersect_with_subspace([(0,) * (cone.ambient_dim + 1)])


def test_inequality_cache_is_consistent_with_generators(dd_runs):
    c = Cone(3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
    ineqs = c.inequalities
    for g in c.generators:
        assert all(dot(h, g) >= 0 for h in ineqs)
    assert c.inequalities is ineqs  # write-once cache
    assert c.dual() is c.dual()
    assert c.dual().generators is ineqs
    assert c.contains((2, 1, 5))
    assert len(dd_runs) == 1  # dual, inequalities and contains share one run
    assert c.canonical_generators() == ((0, 0, 1), (1, 0, 0), (1, 1, 0))
    assert c.canonical_generators() is c.dual().dual().generators
    assert len(dd_runs) == 2


def _fraction_reduce_mod_lineality(rays, lineality):
    # the Fraction reduction the DD engine used before it went integer-only:
    # zero each ray at the pivots of the lineality's rational rref
    if not lineality or not rays:
        return list(rays)
    reduced, pivots = fraction_rref(lineality)
    out = []
    for r in rays:
        v = list(r)
        for row, p in zip(reduced, pivots):
            f = v[p]
            if f != 0:
                v = [x - f * y for x, y in zip(v, row)]
        out.append(primitive_direction(v))
    return out


@st.composite
def constraint_systems(draw):
    """(dim, constraints): small integer systems, zero rows allowed; a third
    of them closed under negation, so the cone is all lineality."""
    dim = draw(st.integers(min_value=0, max_value=7))
    rows = draw(st.lists(st.tuples(*[st.integers(min_value=-4, max_value=4)] * dim),
                         max_size=9))
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        rows += [tuple(-x for x in r) for r in rows]
    return dim, rows


@given(constraint_systems())
@example((0, []))
@example((3, []))
@example((3, [(0, 0, 0)]))
@example((3, [(1, -2, 0), (-1, 2, 0)]))
@example((4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]))
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_halfspace_description_matches_fraction_oracle(system):
    dim, rows = system
    raw = []
    reduce = cones._reduce_mod_lineality

    def spy(rays, lineality):
        raw.extend(rays)
        return reduce(rays, lineality)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_reduce_mod_lineality", spy)
        lineality, rays = cones._halfspace_description(dim, rows)
    expected = fraction_kernel_basis(sorted(set(rows)), dim)
    assert lineality == expected
    assert len(set(raw)) == len(raw)  # the loop keeps each extreme ray once
    assert rays == tuple(sorted(set(_fraction_reduce_mod_lineality(raw, expected))))
    for r in rays:
        assert all(dot(a, r) >= 0 for a in rows)


@st.composite
def pointed_systems(draw):
    """(dim, rows): dim 1-4, up to 8 distinct integer rows of rank dim, so
    the cone {x : <a, x> >= 0} has no lineality."""
    dim = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim),
                         min_size=dim, max_size=8, unique=True))
    assume(len(fraction_rref(rows)[1]) == dim)
    return dim, rows


@given(pointed_systems())
@example((1, [(1,), (-1,)]))
@example((2, [(2, 0), (1, 0), (0, 1)]))
@example((3, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]))
# the zero row is tight at every ray, so non-adjacent pairs pass the tight
# count and only the adjacency test keeps them from adding rays
@example((4, [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 1), (0, 1, 1, 0),
              (0, 2, 0, 0), (1, 0, 0, 0)]))
@settings(max_examples=500, derandomize=True, database=None, deadline=None)
def test_pointed_halfspace_description_matches_brute_force(system):
    # an extreme ray of a pointed cone in dim d is a line cut out by d - 1 of
    # its rows, on the side where every row is >= 0: the Fraction kernel of
    # every (d - 1)-subset, an elimination the DD engine does not use
    dim, rows = system
    brute = set()
    for subset in itertools.combinations(rows, dim - 1):
        kernel = fraction_kernel_basis(list(subset), dim)
        if len(kernel) == 1:
            brute.update(v for v in (kernel[0], linalg.vneg(kernel[0]))
                         if all(dot(a, v) >= 0 for a in rows))
    assert cones._halfspace_description(dim, rows) == ((), tuple(sorted(brute)))


@st.composite
def unnormalized_systems(draw):
    """constraint_systems with rows that a Cone would normalize first: some
    scaled by 2 or 3, some repeated at another scale, and some paired with
    their negation (an equation), all shuffled."""
    dim, rows = draw(constraint_systems())
    scale = st.integers(min_value=2, max_value=3)
    rows = [tuple(draw(scale) * x for x in r) if draw(st.booleans()) else r for r in rows]
    if rows:
        rows += [tuple(draw(scale) * x for x in r)
                 for r in draw(st.lists(st.sampled_from(rows), max_size=3))]
        rows += [tuple(-x for x in r)
                 for r in draw(st.lists(st.sampled_from(rows), max_size=2))]
    return dim, draw(st.permutations(rows))


@given(unnormalized_systems())
@example((3, [(2, 0, 0), (1, 0, 0), (0, 3, -3), (0, -1, 1)]))
@example((2, [(1, 1), (3, 3), (-2, -2), (0, 2)]))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_dd_output_needs_no_normalization(system):
    # Cone.dual() and fan.validate take the DD run's generators as they come:
    # already sorted, primitive and distinct, on any integer rows
    dim, rows = system
    gens = cones._dual_generators(dim, rows)
    lineality, rays = cones._halfspace_description(dim, rows)
    assert set(gens) == {*rays, *lineality, *map(linalg.vneg, lineality)}
    assert gens == cones._dedup_primitive(dim, gens)
    assert list(gens) == sorted(set(gens))
    assert all(primitive_direction(g) == g for g in gens)
    assert Cone(dim, rows).dual().generators == gens


@given(st.integers(min_value=1, max_value=6).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(min_value=-5, max_value=5)] * n), max_size=6)))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
def test_integer_echelon_is_positive_multiple_of_rref(rows):
    # _echelon on any integer rows, in either column order, against the
    # rational rref (the backward order is rref of the mirrored columns)
    if not rows:
        return
    n = len(rows[0])
    for columns in (list(range(n)), list(range(n - 1, -1, -1))):
        reduced, pivots = fraction_rref([[r[c] for c in columns] for r in rows])
        got = linalg._echelon(rows, columns)
        assert [p for p, _ in got] == [columns[p] for p in pivots]
        for (_, row), ref in zip(got, reduced):
            assert primitive_direction([row[c] for c in columns]) == \
                primitive_direction(ref)
