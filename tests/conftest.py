"""Shared test helpers: fixture loading and randomized beta-variants."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from stackycones import AbelianGroupSpec, NElement, StackyFan, cones, load_fan

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = REPO_ROOT / "fixtures"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

FIXTURE_NAMES = (
    "p1",
    "p2",
    "hirzebruch-f1",
    "football",
    "gerby-p1",
    "p1xfootball",
    "p2-c2",
)

CLASSICAL_FIXTURES = ("p1", "p2", "hirzebruch-f1")

# Verification-heavy tests sample beta-variants whose orbifold curve space
# has at most this dimension.  The polyhedral engine is exact at desk scale;
# this cap keeps every verification instance well under its runtime budget
# (worst observed ~0.2 s at cap 16) while still exercising multipliers up
# to 4 and randomized torsion.
VERIFY_CURVE_DIM_CAP = 16


def fixture_path(name: str) -> Path:
    return FIXTURES_DIR / f"{name}.json"


def fixture_fan(name: str) -> StackyFan:
    return load_fan(fixture_path(name))


def all_fixture_fans() -> list[StackyFan]:
    return [fixture_fan(name) for name in FIXTURE_NAMES]


def beta_variant(fan: StackyFan, rng: random.Random,
                 max_curve_dim: int | None = None) -> StackyFan:
    """A random beta over the same fan shape: every ray image is scaled by
    an independent positive integer <= 4 and torsion residues are
    re-randomized; occasionally one extra Z/l torsion factor is attached.
    The underlying fan (primitive ray directions and maximal cones) is
    unchanged, so validity is preserved.

    With ``max_curve_dim`` set, candidates whose orbifold curve space
    exceeds that dimension are redrawn: the polyhedral engine's exactness
    envelope is desk-scale, so verification-heavy tests sample inside it
    (the c > 1 and torsion regimes are still fully exercised).
    """
    from stackycones import enumerate_box

    while True:
        orders = list(fan.group.torsion_orders)
        if rng.random() < 1 / 3:
            orders.append(rng.choice((2, 3)))
        group = AbelianGroupSpec(fan.group.rank, tuple(orders))
        rays = []
        for ray in fan.rays:
            m = rng.randint(1, 4)
            free = tuple(m * x for x in ray.free)
            torsion = tuple(rng.randrange(l) for l in orders)
            rays.append(NElement(free, torsion))
        candidate = StackyFan(group, tuple(rays), fan.max_cones,
                              name=fan.name + "-variant")
        if max_curve_dim is None:
            return candidate
        t = len(enumerate_box(candidate)) - 1
        if candidate.n_rays - candidate.dim + t <= max_curve_dim:
            return candidate


def random_n_element(fan: StackyFan, rng: random.Random, bound: int = 20) -> NElement:
    free = tuple(rng.randint(-bound, bound) for _ in range(fan.dim))
    torsion = tuple(rng.randrange(l) for l in fan.group.torsion_orders)
    return NElement(free, torsion)


@pytest.fixture
def dd_runs(monkeypatch) -> list:
    """One entry per double description run (call of
    cones._halfspace_description) made while the test runs."""
    runs = []
    original = cones._halfspace_description

    def counting(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(cones, "_halfspace_description", counting)
    return runs


def pytest_addoption(parser):
    parser.addoption("--update-goldens", action="store_true", default=False,
                     help="rewrite the golden CLI output files")
