import random

import pytest

from stackycones.cones import Cone, intersect
from stackycones.linalg import dot


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
