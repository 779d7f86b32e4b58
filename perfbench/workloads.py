"""The four benchmark workloads: seeded input generators, one operation
each, and the correctness gate that judges every operation's result.

A workload turns a seed into a list of operations (``generate``), runs one
operation against the library or the CLI (``run``) and checks the result
(``check``).  Gates use only plain Python arithmetic, never the library's
own helpers, so a broken layer cannot vouch for itself.  Inputs are plain
values (frozen dataclasses, tuples, strings), so two generations can be
compared for equality.
"""

from __future__ import annotations

import io
import math
import random
import signal
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from stackycones import boxes, cli, fan, neron_severi, orbcones
from stackycones.fan import AbelianGroupSpec, NElement, StackyFan
from stackycones.fanfile import load_fan

FIXTURE_NAMES = ("p1", "p2", "hirzebruch-f1", "football", "gerby-p1",
                 "p1xfootball", "p2-c2")
COMMANDS = ("validate", "rays", "box", "sectors", "ns", "xi", "mov", "peff",
            "verify", "class-of-1ps")
# the --b argument the golden class-of-1ps outputs were made with
B_FOR_FIXTURE = {"p1": "2", "p2": "1,1", "hirzebruch-f1": "1,1",
                 "football": "-3", "gerby-p1": "0;1", "p1xfootball": "0,-3",
                 "p2-c2": "1,0"}

# sectors: exact twisted-sector counts t, each with this many beta-variants.
# build_xi grows as ~t^3 (0.2 s at t=29, 10 s at t=119), so the counts stop
# where every input still repeats several times in a run.  They are odd
# because the generator makes odd t about ten times as often as even t.
SECTOR_T = (11, 17, 23, 29)
SECTOR_PER_T = 10
SECTOR_B_BATCH = 8
# At one t, the cost of build_xi still varies 2x between variants, so
# variants drawn per seed would make the figures a property of the seed.
# As for dd-ladder, the variants are drawn once from a fixed seed; the run
# seed draws the batches of b and orders the inputs.
SECTOR_POOL_SEED = "sectors"

# dd-ladder: rungs of dim N_1,orb, each with a fixed number of instances
# and a per-instance time budget.  The budget is 20x clear of every pool
# instance's time on the current code (the slowest takes ~0.5 s), so a miss
# means the code got slower, not that the machine was busy.  Rungs 22-28
# would add ~20 s per pass, so the ladder stops at 21; README.md records
# where the current code stops finishing (rung 29).
LADDER_RUNGS = tuple(range(8, 22))
LADDER_PER_RUNG = 2
LADDER_BUDGET_S = 10.0
# The DD cost of one rung varies up to 20x between instances, so instances
# drawn per seed would make the ladder's figures a property of the seed.
# The instance set is therefore drawn once from this fixed seed and the run
# seed only orders it; failed_frac and ladder_top_dim then repeat exactly.
LADDER_POOL_SEED = "dd-ladder"

# wide-fans: (kind, polygon size m, coordinate bound R).  A polygon fan has
# m cones, a P^1 x polygon prism 2m.  Small R keeps the box scan of valid
# fans from outweighing validate.
WIDE_SIZES = (("polygon", 12, 3), ("polygon", 16, 3), ("polygon", 24, 4),
              ("prism", 6, 3), ("prism", 8, 3))
# per size: half valid, a quarter with a dropped cone, a quarter with two
# overlapping cones
WIDE_VERDICTS = ("valid", "valid", "dropped", "overlap") * 2
EXPECTED_FAILED_CHECKS = {"valid": (), "dropped": ("complete",),
                          "overlap": ("pairwise_intersections", "complete")}


class BudgetExceeded(Exception):
    """An operation ran past its per-instance time budget."""


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], bool]
    # None, or the budget in seconds after which an operation is abandoned
    budget_s: float | None = None


# --- shared generators -----------------------------------------------------

def beta_variant(shape: StackyFan, rng: random.Random, max_mult: int,
                 torsion_prob: float) -> StackyFan:
    """The fan shape with every ray image scaled by a random positive
    integer, torsion residues redrawn, and sometimes one extra Z/2 or Z/3."""
    orders = list(shape.group.torsion_orders)
    if rng.random() < torsion_prob:
        orders.append(rng.choice((2, 3)))
    rays = tuple(NElement(tuple(rng.randint(1, max_mult) * x for x in ray.free),
                          tuple(rng.randrange(l) for l in orders))
                 for ray in shape.rays)
    return StackyFan(AbelianGroupSpec(shape.group.rank, tuple(orders)), rays,
                     shape.max_cones, name=shape.name + "-variant")


def _draw_variants(shapes, rng, max_mult, torsion_prob, slots, slot_of, quota):
    """Draw beta-variants until each of ``slots`` holds ``quota`` of them.
    ``slot_of(variant, t)`` names the slot of a variant with t twisted
    sectors; variants of a full slot or of no slot are discarded."""
    filled = {slot: [] for slot in slots}
    missing = len(slots) * quota
    while missing:
        variant = beta_variant(rng.choice(shapes), rng, max_mult, torsion_prob)
        slot = slot_of(variant, len(boxes.enumerate_box(variant)) - 1)
        if slot in filled and len(filled[slot]) < quota:
            filled[slot].append(variant)
            missing -= 1
    return filled


def _shapes(root: Path) -> list[StackyFan]:
    return [load_fan(root / "fixtures" / f"{name}.json") for name in FIXTURE_NAMES]


# --- fixtures --------------------------------------------------------------

def generate_fixtures(root: Path, seed: int) -> list:
    """Every command on every fixture, text and --json, with its golden
    output; the seed fixes the order."""
    ops = []
    for command in COMMANDS:
        for name in FIXTURE_NAMES:
            for as_json in (False, True):
                argv = [command, str(root / "fixtures" / f"{name}.json")]
                if command == "class-of-1ps":
                    argv.append(f"--b={B_FOR_FIXTURE[name]}")
                if as_json:
                    argv.append("--json")
                golden = root / "tests" / "golden" / (
                    f"{name}__{command}{'__json' if as_json else ''}.txt")
                ops.append((tuple(argv), golden.read_text(encoding="utf-8")))
    random.Random(seed).shuffle(ops)
    return ops


def run_fixtures(op) -> tuple[int, str]:
    argv, _ = op
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def check_fixtures(op, result) -> bool:
    code, output = result
    return code == 0 and output == op[1]


# --- sectors ---------------------------------------------------------------

def generate_sectors(root: Path, seed: int) -> list:
    """The fixed beta-variants (multipliers <= 6, extra torsion half the
    time) with each count t of twisted sectors, plus a seeded batch of
    elements b of N each."""
    filled = _draw_variants(_shapes(root), random.Random(SECTOR_POOL_SEED), 6,
                            0.5, SECTOR_T, lambda variant, t: t, SECTOR_PER_T)
    rng = random.Random(seed)
    ops = []
    for t in SECTOR_T:
        for variant in filled[t]:
            batch = tuple(NElement(tuple(rng.randint(-20, 20) for _ in range(variant.dim)),
                                   tuple(rng.randrange(l) for l in variant.group.torsion_orders))
                          for _ in range(SECTOR_B_BATCH))
            ops.append((variant, batch))
    rng.shuffle(ops)
    return ops


def run_sectors(op):
    variant, batch = op
    sectors = boxes.twisted_sectors(variant)
    spaces = neron_severi.build_spaces(variant, sectors)
    orbcones.build_xi(variant, sectors, spaces)  # raises if Xi*.Xi != I
    classes = tuple(orbcones.one_ps_class(variant, sectors, spaces, b)
                    for b in batch)
    return spaces.beta_prime, classes


def check_sectors(op, result) -> bool:
    """beta' . class_vector[:n] == b.free for every one-parameter subgroup."""
    beta_prime, classes = result
    if len(classes) != len(op[1]):
        return False
    n = len(beta_prime[0])
    for b, cls in zip(op[1], classes):
        image = tuple(sum(Fraction(w) * x for w, x in zip(row, cls.class_vector[:n]))
                      for row in beta_prime)
        if image != b.free:
            return False
    return True


# --- dd-ladder -------------------------------------------------------------

def _rung_of(variant, t):
    return variant.n_rays - variant.dim + t


def ladder_pool(root: Path, rungs=LADDER_RUNGS) -> list:
    """The fixed instance set: per rung, LADDER_PER_RUNG beta-variants
    (multipliers <= 4, extra torsion a third of the time), as (rung, fan)."""
    filled = _draw_variants(_shapes(root), random.Random(LADDER_POOL_SEED), 4,
                            1 / 3, rungs, _rung_of, LADDER_PER_RUNG)
    return [(rung, variant) for rung in rungs for variant in filled[rung]]


def generate_dd_ladder(root: Path, seed: int) -> list:
    ops = ladder_pool(root)
    random.Random(seed).shuffle(ops)
    return ops


def run_dd_ladder(op):
    return orbcones.verify_duality(op[1])


def check_dd_ladder(op, report) -> bool:
    """report.equal, and every corollary class pairs >= 0 with every Mov
    generator (the defining property of the dual, checked without DD)."""
    if not report.equal:
        return False
    return all(sum(Fraction(c) * g for c, g in zip(cls, gen)) >= 0
               for cls in report.corollary_classes
               for gen in report.mov_generators)


# --- wide-fans -------------------------------------------------------------

def _polygon_rays(rng: random.Random, m: int, bound: int) -> list[tuple]:
    """m primitive vectors in [-bound, bound]^2 in counter-clockwise order,
    with every angular gap below pi, so consecutive pairs make a complete
    simplicial fan."""
    while True:
        dirs: set = set()
        while len(dirs) < m:
            v = (rng.randint(-bound, bound), rng.randint(-bound, bound))
            if v != (0, 0) and math.gcd(*v) == 1:
                dirs.add(v)
        rays = sorted(dirs, key=lambda v: math.atan2(v[1], v[0]))
        if all(_cross(rays[i], rays[(i + 1) % m]) > 0 for i in range(m)):
            return rays


def _cross(u, v) -> int:
    return u[0] * v[1] - u[1] * v[0]


def wide_fan(rng: random.Random, kind: str, m: int, bound: int,
             verdict: str) -> StackyFan:
    rays = _polygon_rays(rng, m, bound)
    if kind == "polygon":
        free = rays
        cones = [(i, (i + 1) % m) for i in range(m)]
    else:
        free = [(x, y, 0) for x, y in rays] + [(0, 0, 1), (0, 0, -1)]
        cones = [(i, (i + 1) % m, m + s) for i in range(m) for s in (0, 1)]
    if verdict == "dropped":
        cones.pop(rng.randrange(len(cones)))
    elif verdict == "overlap":
        # widen one polygon cone over the next ray; the widened cone must
        # stay strictly convex to overlap its neighbour rather than wrap
        wide = [k for k, c in enumerate(cones)
                if _cross(rays[c[0]], rays[(c[0] + 2) % m]) > 0]
        k = rng.choice(wide)
        cones[k] = (cones[k][0], (cones[k][0] + 2) % m) + cones[k][2:]
    d = 2 if kind == "polygon" else 3
    return StackyFan(AbelianGroupSpec(d), tuple(NElement(v) for v in free),
                     tuple(cones), name=f"{kind}{m}-{verdict}")


def generate_wide_fans(root: Path, seed: int) -> list:
    rng = random.Random(seed)
    ops = [(verdict, wide_fan(rng, kind, m, bound, verdict))
           for kind, m, bound in WIDE_SIZES for verdict in WIDE_VERDICTS]
    rng.shuffle(ops)
    return ops


def run_wide_fans(op):
    report = fan.validate(op[1])
    sectors = boxes.twisted_sectors(op[1]) if report.ok else None
    return report, sectors


def check_wide_fans(op, result) -> bool:
    report, sectors = result
    failed = tuple(c.name for c in report.checks if not c.passed)
    if failed != EXPECTED_FAILED_CHECKS[op[0]]:
        return False
    return op[0] != "valid" or sectors is not None


WORKLOADS = {
    "fixtures": Workload("fixtures", generate_fixtures, run_fixtures,
                         check_fixtures),
    "sectors": Workload("sectors", generate_sectors, run_sectors, check_sectors),
    "dd-ladder": Workload("dd-ladder", generate_dd_ladder, run_dd_ladder,
                          check_dd_ladder, budget_s=LADDER_BUDGET_S),
    "wide-fans": Workload("wide-fans", generate_wide_fans, run_wide_fans,
                          check_wide_fans),
}


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def run_with_budget(workload: Workload, op):
    """Run one operation, abandoning it with BudgetExceeded past the
    workload's budget (SIGALRM, so it interrupts pure-Python loops)."""
    if workload.budget_s is None:
        return workload.run(op)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, workload.budget_s)
    try:
        return workload.run(op)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
