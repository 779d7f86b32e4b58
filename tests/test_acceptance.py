"""Acceptance criteria, one test per criterion.

Every check is exact (no tolerances beyond the stated per-instance runtime
budget).  Each test prints one pass/fail line; run with ``pytest
tests/test_acceptance.py -v -s`` to see them.
"""

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from conftest import (
    CLASSICAL_FIXTURES,
    FIXTURE_NAMES,
    VERIFY_CURVE_DIM_CAP,
    all_fixture_fans,
    beta_variant,
    fixture_fan,
    random_n_element,
    vadd,
    vscale,
)

from stackycones.boxes import cone_parallelepiped_points, enumerate_box, twisted_sectors
from stackycones.cli import main as cli_main
from stackycones.cones import Cone
from stackycones.fan import NElement
from stackycones.linalg import det, dot, rank
from stackycones.neron_severi import build_spaces, ray_divisor_classes
from stackycones.orbcones import (
    build_xi,
    one_ps_class,
    restricted_functionals,
    sector_index,
    verify_duality,
)


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


def test_criterion_1_theorem_verification():
    def check():
        rng = random.Random(11)
        budget = 1.0
        slowest = 0.0
        instances = 0
        for fan in all_fixture_fans():
            cases = [fan] + [beta_variant(fan, rng, max_curve_dim=VERIFY_CURVE_DIM_CAP)
                             for _ in range(50)]
            for case in cases:
                start = time.monotonic()
                report = verify_duality(case)
                elapsed = time.monotonic() - start
                instances += 1
                slowest = max(slowest, elapsed)
                assert report.equal, (case.name, [r.free for r in case.rays])
                assert elapsed < budget, (case.name, elapsed)
        assert instances == 7 * 51
        print(f"  ({instances} instances, slowest {slowest:.3f}s)")

    _report(1, "verify passes on all fixtures and 50 beta-variants per "
               "shape, < 1 s per instance", check)


def test_criterion_2_football_end_to_end():
    def check():
        fan = fixture_fan("football")
        box = enumerate_box(fan)
        assert [b.rig for b in box] == [(-1,), (0,)]
        sectors = twisted_sectors(fan)
        assert len(sectors) == 1
        assert sectors[0].coeffs == ((1, Fraction(1, 2)),)
        spaces = build_spaces(fan, sectors)
        assert spaces.dim_ns_orb == 2
        xi = build_xi(fan, sectors, spaces)
        from stackycones.orbcones import mov_cone
        assert mov_cone(spaces, xi).generators == ((1, 0), (1, 1))
        report = verify_duality(fan)
        assert report.corollary_generators == ((0, 1), (1, -1))
        assert report.equal

    _report(2, "football fixture end-to-end exact values", check)


def test_criterion_3_box_count_identity():
    def check():
        rng = random.Random(33)
        fans = all_fixture_fans()
        cases = list(fans)
        while len(cases) < len(fans) + 100:
            cases.append(beta_variant(fans[len(cases) % len(fans)], rng))
        for fan in cases:
            for cone in fan.max_cones:
                points = cone_parallelepiped_points(fan, cone)
                volume = abs(det(tuple(zip(*(fan.rays[i].free for i in cone)))))
                assert len(points) == volume, (fan.name, cone)

    _report(3, "parallelepiped point count equals |det| on every maximal "
               "cone of every fixture and 100 variants", check)


def test_criterion_4_dual_basis_identity():
    def check():
        rng = random.Random(44)
        fans = all_fixture_fans()
        cases = list(fans)
        while len(cases) < len(fans) + 100:
            cases.append(beta_variant(fans[len(cases) % len(fans)], rng))
        for fan in cases:
            sectors = twisted_sectors(fan)
            spaces = build_spaces(fan, sectors)
            xi = build_xi(fan, sectors, spaces)  # asserts the identity too
            for a, star in enumerate(xi.xi_star):
                for b, v in enumerate(xi.xi):
                    assert dot(star, v) == (1 if a == b else 0)

    _report(4, "dual-basis identity <Xi*, Xi> = delta, exact, on all "
               "fixtures and variants", check)


def test_criterion_5_one_ps_decomposition():
    def check():
        rng = random.Random(55)
        for fan in all_fixture_fans():
            sectors = twisted_sectors(fan)
            spaces = build_spaces(fan, sectors)
            xi = build_xi(fan, sectors, spaces)
            for _ in range(100):
                b = random_n_element(fan, rng, bound=20)
                cls = one_ps_class(fan, sectors, spaces, b)
                total = [Fraction(0)] * (spaces.n + spaces.t)
                if not cls.sector.is_untwisted:
                    total = vadd(total, xi.xi[spaces.n + sector_index(sectors, cls.sector)])
                for i, m in enumerate(cls.ray_multiplicities):
                    assert isinstance(m, int) and m >= 0
                    if m:
                        total = vadd(total, vscale(m, xi.xi[i]))
                assert tuple(total) == tuple(Fraction(x) for x in cls.class_vector)
            # the one-parameter subgroup attached to each index eta has
            # orbifold class exactly Xi_eta (rays lifted with zero torsion)
            for i in range(spaces.n):
                b = NElement(fan.rays[i].free, (0,) * fan.group.torsion_rank)
                cls = one_ps_class(fan, sectors, spaces, b)
                assert tuple(Fraction(x) for x in cls.class_vector) == \
                    tuple(Fraction(x) for x in xi.xi[i])
            for j, sector in enumerate(sectors):
                cls = one_ps_class(fan, sectors, spaces, NElement(sector.rig, sector.torsion))
                assert tuple(Fraction(x) for x in cls.class_vector) == \
                    tuple(Fraction(x) for x in xi.xi[spaces.n + j])

    _report(5, "one-parameter-subgroup classes decompose with non-negative "
               "integer ray multiplicities and reconstruct exactly; the "
               "class of each index eta equals Xi_eta", check)


def test_criterion_6_classical_reduction():
    def check():
        for name in CLASSICAL_FIXTURES:
            fan = fixture_fan(name)
            box = enumerate_box(fan)
            assert len(box) == 1 and box[0].is_untwisted, name
            sectors = twisted_sectors(fan)
            spaces = build_spaces(fan, sectors)
            report = verify_duality(fan)
            assert report.equal
            classical = Cone(spaces.dim_ns,
                             [ray_divisor_classes(spaces, i)[0]
                              for i in range(spaces.n)])
            corollary = Cone(spaces.dim_ns, report.corollary_classes)
            assert corollary.equals(classical), name
        # projection consistency on every fixture with twisted sectors
        for name in FIXTURE_NAMES:
            fan = fixture_fan(name)
            sectors = twisted_sectors(fan)
            if not sectors:
                continue
            spaces = build_spaces(fan, sectors)
            xi = build_xi(fan, sectors, spaces)
            dropped = [c[:spaces.dim_ns]
                       for c in restricted_functionals(spaces, xi)]
            projected = Cone(spaces.dim_ns, [v for v in dropped if any(v)])
            classical = Cone(spaces.dim_ns,
                             [ray_divisor_classes(spaces, i)[0][:spaces.dim_ns]
                              for i in range(spaces.n)])
            assert projected.equals(classical), name

    _report(6, "classical fixtures have Box = {0} and PEff equal to the "
               "coarse ray-class cone; sector coordinates project "
               "consistently", check)


def test_criterion_7_polyhedral_engine():
    def check():
        rng = random.Random(77)
        for _ in range(200):
            dim = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(0, 10)):
                v = tuple(rng.randint(-6, 6) for _ in range(dim))
                if any(v):
                    gens.append(v)
            cone = Cone(dim, gens)
            assert cone.dual().dual().equals(cone)
        for fan in all_fixture_fans():
            sectors = twisted_sectors(fan)
            spaces = build_spaces(fan, sectors)
            alpha = tuple(zip(*spaces.beta_prime))  # alpha = beta' transposed
            assert rank(alpha) == spaces.d
            assert len(spaces.curve_basis) == spaces.n - spaces.d + spaces.t
            for j in range(spaces.d):
                col = tuple(row[j] for row in alpha) + (0,) * spaces.t
                assert all(dot(col, k) == 0 for k in spaces.curve_basis)

    _report(7, "dual(dual(C)) = C on 200 random cones; exactness battery "
               "on all fixtures", check)


def test_criterion_8_cli_determinism():
    def check():
        from test_golden import CASES, _argv, _golden_path

        for command, fixture, as_json in CASES:
            argv = _argv(command, fixture, as_json)
            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_main(list(argv))
                assert code == 0
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1], argv
            golden = _golden_path(command, fixture, as_json)
            assert outputs[0] == golden.read_text(encoding="utf-8"), argv

    _report(8, "every CLI command is byte-identical across runs and "
               "matches its golden file", check)
