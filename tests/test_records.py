"""The records of fan, boxes and neron_severi are named tuples.  Each keeps
the contract it had as a frozen dataclass: the same repr (pinned here),
equality and hash by value, fields that cannot be assigned, the
constructor's checks, and the stages cached on the instance built once."""

import pytest

from stackycones.boxes import twisted_sectors
from stackycones.fan import (AbelianGroupSpec, CheckResult, FanStructureError, NElement,
                             StackyFan, ray_data, validate)
from stackycones.neron_severi import build_spaces


def _football() -> StackyFan:
    # the football P(2, 3) with a Z/2 factor; lists are normalised to tuples
    return StackyFan(AbelianGroupSpec(1, (2,)), [NElement([2], [1]), NElement([-3], [0])],
                     [[0], [1]], "football")


CHECKS = ", ".join(f"CheckResult(name='{name}', passed=True, detail='')"
                   for name in ("nonzero_rays", "simplicial", "pairwise_intersections",
                                "complete", "finite_cokernel"))
# record -> (a function building one, its repr)
RECORDS = {
    "AbelianGroupSpec": (lambda: AbelianGroupSpec(1, (2,)),
                         "AbelianGroupSpec(rank=1, torsion_orders=(2,))"),
    "NElement": (lambda: NElement([1, -2], [1]), "NElement(free=(1, -2), torsion=(1,))"),
    "RayData": (lambda: ray_data(_football())[0],
                "RayData(index=0, b_rig=(2,), w=(1,), c=2, torsion=(1,))"),
    "StackyFan": (_football,
                  "StackyFan(group=AbelianGroupSpec(rank=1, torsion_orders=(2,)), "
                  "rays=(NElement(free=(2,), torsion=(1,)), NElement(free=(-3,), "
                  "torsion=(0,))), max_cones=((0,), (1,)), name='football')"),
    "CheckResult": (lambda: CheckResult("complete", True),
                    "CheckResult(name='complete', passed=True, detail='')"),
    "ValidationReport": (lambda: validate(_football()),
                         f"ValidationReport(fan_name='football', checks=({CHECKS}))"),
    "BoxElement": (lambda: twisted_sectors(_football())[-1],
                   "BoxElement(rig=(1,), torsion=(1,), coeffs=((0, Fraction(1, 2)),))"),
    "AmbientSpaces": (lambda: build_spaces(_football(), twisted_sectors(_football())),
                      "AmbientSpaces(n=2, d=1, t=7, beta_prime=((1, -1),), "
                      "ker_beta_prime=((1, 1),), ray_cs=(2, 3))"),
}
# record -> the constructions it refuses, with their messages
REFUSED = {
    "AbelianGroupSpec": [(lambda: AbelianGroupSpec(-1), "rank must be non-negative"),
                         (lambda: AbelianGroupSpec(1, (1,)), "torsion orders must be >= 2")],
    "StackyFan": [
        (lambda: StackyFan(AbelianGroupSpec(2), (NElement((1,)),), ()),
         "ray 0: free part has length 1, expected 2"),
        (lambda: StackyFan(AbelianGroupSpec(1, (2,)), (NElement((1,)),), ((0,),)),
         "ray 0: torsion part has length 0, expected 1"),
        (lambda: StackyFan(AbelianGroupSpec(1, (2,)), (NElement((1,), (5,)),), ((0,),)),
         r"ray 0: residue 5 out of range \[0, 2\)"),
        (lambda: StackyFan(AbelianGroupSpec(1), (NElement((1,)),), ((0, 0),)),
         r"maximal cone \(0, 0\) repeats a ray index"),
        (lambda: StackyFan(AbelianGroupSpec(1), (NElement((1,)),), ((0, 1),)),
         r"ray index 1 out of range \[0, 1\)")],
}
# record -> the stage it caches on the instance
CACHED = {"StackyFan": "charts", "AmbientSpaces": "labels"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(monkeypatch, name):
    make, pinned = RECORDS[name]
    record, again = make(), make()
    assert type(record).__name__ == name and repr(record) == pinned
    assert record is not again and record == again and hash(record) == hash(again)
    for field in record._fields:
        assert record != record._replace(**{field: None})
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    for build, message in REFUSED.get(name, ()):
        with pytest.raises(FanStructureError, match=f"^{message}$"):
            build()
    if name in CACHED:
        stage = vars(type(record))[CACHED[name]]
        built = []
        monkeypatch.setattr(stage, "func", lambda obj, func=stage.func:
                            built.append(obj) or func(obj))
        assert getattr(record, stage.attrname) is getattr(record, stage.attrname)
        assert len(built) == 1
