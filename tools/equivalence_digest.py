"""Print one SHA-256 over the outputs of the double description (DD) engine
and of the stages built on it, so that two checkouts can be compared.

Run from anywhere: ``python tools/equivalence_digest.py``.  Equal digests
mean byte-identical ``repr``s, in order, of:

- ``fan.validate``'s report on the 400 ``wide-fans`` benchmark inputs of
  seeds 1-10, and ``boxes.twisted_sectors`` of each valid fan among them;
- every ``_dual_generators`` call those reports make, inputs and outputs;
- ``orbcones.verify_duality`` on the ``dd-ladder`` benchmark's pool;
- ``cones._halfspace_description`` on 3,000 seeded random systems
  (dimension 0-6, up to 9 rows with entries in [-4, 4]).

The inputs come from ``perfbench/workloads.py``.  Standard library only;
the count of values in each part goes to stderr.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (imports stackycones)
from stackycones import boxes, cones, fan, orbcones  # noqa: E402

WIDE_SEEDS = range(1, 11)
RANDOM_SYSTEMS = 3000


def wide_fans_part() -> tuple[list, list]:
    """validate (and twisted_sectors if valid) on every wide-fans input,
    with the _dual_generators calls the validate runs make."""
    fans = [stacky for seed in WIDE_SEEDS
            for _, stacky in workloads.generate_wide_fans(ROOT, seed)]
    calls: list = []
    dual_generators = cones._dual_generators

    def spy(dim, constraints):
        out = dual_generators(dim, constraints)
        calls.append((dim, tuple(constraints), out))
        return out

    fan._dual_generators = cones._dual_generators = spy
    try:
        reports = [fan.validate(stacky) for stacky in fans]
    finally:
        fan._dual_generators = cones._dual_generators = dual_generators
    sectors = [boxes.twisted_sectors(stacky)
               for stacky, report in zip(fans, reports) if report.ok]
    return reports + sectors, calls


def ladder_part() -> list:
    return [orbcones.verify_duality(variant) for _, variant in workloads.ladder_pool(ROOT)]


def random_systems_part() -> list:
    rng = random.Random("equivalence-digest")
    values = []
    for _ in range(RANDOM_SYSTEMS):
        dim = rng.randint(0, 6)
        rows = [tuple(rng.randint(-4, 4) for _ in range(dim))
                for _ in range(rng.randint(0, 9))]
        values.append((dim, rows, cones._halfspace_description(dim, rows)))
    return values


def main() -> int:
    wide, calls = wide_fans_part()
    parts = {"wide-fans reports and sectors": wide,
             "_dual_generators calls": calls,
             "dd-ladder verify_duality": ladder_part(),
             "random _halfspace_description": random_systems_part()}
    digest = hashlib.sha256()
    for name, values in parts.items():
        print(f"{name}: {len(values)}", file=sys.stderr)
        digest.update(f"== {name}\n".encode())
        for value in values:
            digest.update(repr(value).encode() + b"\n")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
