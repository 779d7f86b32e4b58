"""Loading stacky fans from JSON documents, and their dict form.

Schema::

    {
      "name": "football",
      "rank": 1,
      "torsion": [2, ...],          # optional, defaults to []
      "rays": [
        {"beta_free": [1], "beta_torsion": [0]},   # beta_torsion optional
        ...
      ],
      "max_cones": [[0], [1], ...]
    }

Torsion residues are reduced into [0, l_i) on load.  Exact rationals never
appear in this format; fan data is integral by definition.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .fan import AbelianGroupSpec, FanStructureError, NElement, StackyFan


# load_fan reads at most this many bytes of a fan file and refuses a longer
# one, so a file like /dev/zero cannot fill the memory: the largest fixture
# has 315, a polygon fan of 500 rays (CLASS_SPACE_LIMIT) about 30 k and
# P^1^14 (16,384 cones), written compactly, about 870 k
FAN_FILE_LIMIT = 2 ** 20


class FanFileError(ValueError):
    """The document is not a structurally well-formed fan file."""


def fan_from_dict(doc: dict, default_name: str = "") -> StackyFan:
    """The fan a document describes, named default_name if it has no name."""
    if not isinstance(doc, dict):
        raise FanFileError("fan file must contain a JSON object")
    try:
        rank = doc["rank"]
        rays_doc = doc["rays"]
        max_cones = doc["max_cones"]
    except KeyError as missing:
        raise FanFileError(f"missing required key {missing}") from None
    torsion = doc.get("torsion", [])
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise FanFileError("name must be a string")
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise FanFileError("rank must be an integer")
    if not _int_list(torsion):
        raise FanFileError("torsion must be a list of integers")
    if not isinstance(rays_doc, list) or not isinstance(max_cones, list):
        raise FanFileError("rays and max_cones must be lists")
    try:
        group = AbelianGroupSpec(rank, tuple(torsion))
    except FanStructureError as err:
        raise FanFileError(str(err)) from None
    rays = []
    for i, ray_doc in enumerate(rays_doc):
        if not isinstance(ray_doc, dict) or "beta_free" not in ray_doc:
            raise FanFileError(f"ray {i} must be an object with beta_free")
        free = ray_doc["beta_free"]
        residues = ray_doc.get("beta_torsion", [0] * group.torsion_rank)
        if not _int_list(free) or not _int_list(residues):
            raise FanFileError(f"ray {i}: coordinates must be integers")
        if len(residues) != group.torsion_rank:
            raise FanFileError(
                f"ray {i}: beta_torsion has length {len(residues)}, "
                f"expected {group.torsion_rank}")
        rays.append(NElement(tuple(free), group.reduce_torsion(residues)))
    cones = []
    for c in max_cones:
        if not _int_list(c):
            raise FanFileError("max_cones must be lists of ray indices")
        cones.append(tuple(c))
    try:
        return StackyFan(group=group, rays=tuple(rays), max_cones=tuple(cones),
                         name=name or default_name)
    except FanStructureError as err:
        raise FanFileError(str(err)) from None


def _int_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value)


def fan_to_dict(fan: StackyFan) -> dict:
    return {
        "name": fan.name,
        "rank": fan.group.rank,
        "torsion": list(fan.group.torsion_orders),
        "rays": [{"beta_free": list(r.free), "beta_torsion": list(r.torsion)}
                 for r in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
    }


def load_fan(path: Union[str, Path]) -> StackyFan:
    try:
        with open(path, "rb") as file:
            data = file.read(FAN_FILE_LIMIT + 1)
        if len(data) > FAN_FILE_LIMIT:
            raise FanFileError(f"cannot read {path}: longer than {FAN_FILE_LIMIT} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise FanFileError(f"cannot read {path}: {err}") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise FanFileError(f"{path} is not valid JSON: {err}") from None
    return fan_from_dict(doc, Path(path).stem)


def fraction_json(value) -> dict:
    """Exact rational (an int or a Fraction) as {"num": ..., "den": ...}
    with decimal strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}
