"""Command-line frontend.

Exit codes: 0 success, 2 validation failure or a fan too large to
enumerate, 3 theorem-verification mismatch, 64 usage or parse error.
Every command takes a fan file and an optional ``--json`` flag switching
from the human-readable tables to a machine-readable document in which
exact rationals appear as ``{"num": "...", "den": "..."}`` decimal
strings (never floats).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .boxes import EnumerationLimitError, enumerate_box, twisted_sectors
from .cones import Cone
from .fan import NElement, StackyFan, validate
from .fan import ray_data as fan_ray_data
from .fanfile import FanFileError, fraction_json, load_fan
from .neron_severi import build_spaces, eta_labels, ray_divisor_classes
from .orbcones import (
    build_xi,
    mov_cone,
    one_ps_class,
    peff_generators,
    sector_index,
    verify_duality,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt_num(x) -> str:
    return str(Fraction(x)) if not isinstance(x, int) else str(x)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(_fmt_num(x) for x in v) + ")"


def _fmt_coeffs(coeffs, labels) -> str:
    inner = ", ".join(f"{labels[i]}: {_fmt_num(a)}" for i, a in coeffs.items())
    return "{" + inner + "}"


def _rat_vec_json(v) -> list:
    return [fraction_json(x) for x in v]


def _int_vec_json(v) -> list:
    return [int(x) for x in v]


def _emit(doc: dict, as_json: bool, lines: Sequence[str]) -> None:
    if as_json:
        print(json.dumps(doc, indent=2))
    else:
        for line in lines:
            print(line)


class _InvalidFan(Exception):
    """The fan failed validation; the error line is already on stderr."""


def _load_valid_fan(path: str) -> StackyFan:
    fan = load_fan(path)
    report = validate(fan)
    if not report.ok:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"error: fan '{fan.name}' fails validation: {', '.join(failed)}",
              file=sys.stderr)
        raise _InvalidFan
    return fan


def _sectors_and_spaces(fan: StackyFan):
    sectors = twisted_sectors(fan)
    return sectors, build_spaces(fan, sectors)


def _spaces_and_xi(fan: StackyFan):
    sectors, spaces = _sectors_and_spaces(fan)
    return spaces, build_xi(fan, sectors, spaces)  # dual-basis identity asserted inside


def cmd_validate(args) -> int:
    fan = load_fan(args.file)
    report = validate(fan)
    doc = {
        "fan": fan.name,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "ok": report.ok,
    }
    _emit(doc, args.json, [f"fan: {fan.name}"] + report.lines())
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_rays(args) -> int:
    fan = _load_valid_fan(args.file)
    rd = fan_ray_data(fan)
    labels = eta_labels(len(rd), 0)
    doc = {
        "fan": fan.name,
        "rays": [{"index": r.index, "label": labels[r.index],
                  "b_rig": _int_vec_json(r.b_rig), "w": _int_vec_json(r.w),
                  "c": r.c, "torsion": _int_vec_json(r.torsion)}
                 for r in rd],
    }
    lines = [f"fan: {fan.name}", "ray  b_rig  w  c  torsion"]
    for r in rd:
        lines.append(f"{labels[r.index]}  {_fmt_vec(r.b_rig)}  {_fmt_vec(r.w)}"
                     f"  {r.c}  {_fmt_vec(r.torsion)}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def _box_entry_json(element, sector_label, labels):
    return {
        "rig": _int_vec_json(element.rig),
        "torsion": _int_vec_json(element.torsion),
        "coeffs": [{"ray": i, "label": labels[i], "value": fraction_json(a)}
                   for i, a in element.coeffs.items()],
        "untwisted": element.is_untwisted,
        "label": sector_label,
    }


def cmd_box(args) -> int:
    fan = _load_valid_fan(args.file)
    box = enumerate_box(fan)
    t = sum(not e.is_untwisted for e in box)
    labels = eta_labels(fan.n_rays, t)
    # twisted elements appear in the canonical sector order
    sector_labels = iter(labels[fan.n_rays:])
    box_labels = [None if e.is_untwisted else next(sector_labels) for e in box]
    doc = {
        "fan": fan.name,
        "box": [_box_entry_json(e, label, labels) for e, label in zip(box, box_labels)],
        "twisted_count": t,
    }
    lines = [f"fan: {fan.name}"]
    if not t:
        lines.append("Box = {0}; no twisted sectors")
    else:
        for k, (e, label) in enumerate(zip(box, box_labels)):
            tag = "untwisted" if label is None else f"sector={label}"
            lines.append(f"box[{k}]: rig={_fmt_vec(e.rig)} torsion={_fmt_vec(e.torsion)}"
                         f" a={_fmt_coeffs(e.coeffs, labels)} {tag}")
        lines.append(f"twisted sectors: {t}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_sectors(args) -> int:
    fan = _load_valid_fan(args.file)
    sectors = twisted_sectors(fan)
    labels = eta_labels(fan.n_rays, len(sectors))
    sector_labels = labels[fan.n_rays:]
    doc = {
        "fan": fan.name,
        "sectors": [_box_entry_json(e, label, labels)
                    for e, label in zip(sectors, sector_labels)],
    }
    lines = [f"fan: {fan.name}"]
    if not sectors:
        lines.append("no twisted sectors")
    for e, label in zip(sectors, sector_labels):
        lines.append(f"{label}: rig={_fmt_vec(e.rig)} torsion={_fmt_vec(e.torsion)}"
                     f" a={_fmt_coeffs(e.coeffs, labels)}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_ns(args) -> int:
    fan = _load_valid_fan(args.file)
    _, spaces = _sectors_and_spaces(fan)
    classes = [ray_divisor_classes(spaces, i) for i in range(spaces.n)]
    doc = {
        "fan": fan.name,
        "n": spaces.n, "d": spaces.d, "t": spaces.t,
        "dim_ns": spaces.dim_ns, "dim_ns_orb": spaces.dim_ns_orb,
        "curve_basis": [_int_vec_json(k) for k in spaces.curve_basis],
        "ray_classes": [{"label": spaces.labels[i],
                         "E": _rat_vec_json(coarse.pairing),
                         "E_stacky": _rat_vec_json(stacky.pairing)}
                        for i, (coarse, stacky) in enumerate(classes)],
    }
    lines = [
        f"fan: {fan.name}",
        f"n = {spaces.n} rays, d = {spaces.d}, twisted sectors t = {spaces.t}",
        f"dim N^1 = dim N_1 = {spaces.dim_ns}",
        f"dim N^1_orb = dim N_1,orb = {spaces.dim_ns_orb}",
        "curve basis (kernel of beta'_orb):",
    ]
    for j, k in enumerate(spaces.curve_basis):
        lines.append(f"  e{j + 1} = {_fmt_vec(k)}")
    lines.append("divisor classes (pairing vectors on the curve basis):")
    for i, (coarse, stacky) in enumerate(classes):
        lines.append(f"  E[{spaces.labels[i]}] = {_fmt_vec(coarse.pairing)}"
                     f"   Es[{spaces.labels[i]}] = {_fmt_vec(stacky.pairing)}")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_xi(args) -> int:
    fan = _load_valid_fan(args.file)
    _, xi = _spaces_and_xi(fan)
    doc = {
        "fan": fan.name,
        "labels": list(xi.labels),
        "xi": [_rat_vec_json(v) for v in xi.xi],
        "xi_star": [_rat_vec_json(v) for v in xi.xi_star],
        "dual_basis_ok": True,
    }
    lines = [f"fan: {fan.name}"]
    for label, v in zip(xi.labels, xi.xi):
        lines.append(f"Xi[{label}] = {_fmt_vec(v)}")
    for label, v in zip(xi.labels, xi.xi_star):
        lines.append(f"Xi*[{label}] = {_fmt_vec(v)}")
    lines.append("dual basis check: PASS")
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_mov(args) -> int:
    fan = _load_valid_fan(args.file)
    spaces, xi = _spaces_and_xi(fan)
    mov = mov_cone(spaces, xi)
    doc = {
        "fan": fan.name,
        "dim": spaces.dim_ns_orb,
        "coordinates": "curve-basis",
        "generators": [_int_vec_json(g) for g in mov.generators],
    }
    lines = [f"fan: {fan.name}",
             f"coordinates: curve basis (dim {spaces.dim_ns_orb})",
             "Mov_1,orb generators (extremal):"]
    lines += [f"  {_fmt_vec(g)}" for g in mov.generators]
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_peff(args) -> int:
    fan = _load_valid_fan(args.file)
    spaces, xi = _spaces_and_xi(fan)
    classes = peff_generators(spaces, xi)
    cone = Cone(spaces.dim_ns_orb, [c.pairing for c in classes])
    extremal = cone.canonical_generators()
    doc = {
        "fan": fan.name,
        "dim": spaces.dim_ns_orb,
        "coordinates": "curve-basis-dual",
        "classes": [{"label": spaces.labels[i], "vector": _rat_vec_json(c.pairing)}
                    for i, c in enumerate(classes)],
        "extremal_rays": [_int_vec_json(g) for g in extremal],
    }
    lines = [f"fan: {fan.name}",
             f"coordinates: dual curve basis (dim {spaces.dim_ns_orb})",
             "generator classes:"]
    for i, c in enumerate(classes):
        lines.append(f"  peff[{spaces.labels[i]}] = {_fmt_vec(c.pairing)}")
    lines.append("PEff_orb extremal rays:")
    lines += [f"  {_fmt_vec(g)}" for g in extremal]
    _emit(doc, args.json, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    fan = _load_valid_fan(args.file)
    report = verify_duality(fan)
    doc = {
        "fan": fan.name,
        "equal": report.equal,
        "mov_generators": [_int_vec_json(g) for g in report.mov_generators],
        "peff_dual_extremal_rays": [_int_vec_json(g)
                                    for g in report.dual_of_mov_generators],
        "corollary_classes": [{"label": report.labels[i],
                               "vector": _rat_vec_json(v)}
                              for i, v in enumerate(report.corollary_classes)],
        "corollary_extremal_rays": [_int_vec_json(g)
                                    for g in report.corollary_generators],
        "separating": None if report.separating is None else
            {"side": report.separating[0],
             "vector": _int_vec_json(report.separating[1])},
    }
    lines = [f"fan: {fan.name}",
             "Mov_1,orb generators: " + (", ".join(_fmt_vec(g) for g in report.mov_generators) or "(zero cone)"),
             "dual(Mov) extremal rays: " + (", ".join(_fmt_vec(g) for g in report.dual_of_mov_generators) or "(zero cone)"),
             "corollary cone extremal rays: " + (", ".join(_fmt_vec(g) for g in report.corollary_generators) or "(zero cone)")]
    if report.equal:
        lines.append("PEff_orb extremal rays: "
                     + (", ".join(_fmt_vec(g) for g in report.corollary_generators) or "(zero cone)"))
        lines.append("theorem verification: PASS (cones equal)")
    else:
        side, vector = report.separating
        lines.append(f"theorem verification: FAIL (separating vector {_fmt_vec(vector)} on side {side})")
    _emit(doc, args.json, lines)
    return EXIT_OK if report.equal else EXIT_MISMATCH


def _parse_b(text: str, fan: StackyFan) -> NElement:
    parts = text.split(";")
    if len(parts) > 2:
        raise ValueError("expected at most one ';' in --b")
    try:
        free = tuple(int(x) for x in parts[0].split(",") if x.strip() != "")
    except ValueError:
        raise ValueError(f"cannot parse free part {parts[0]!r}") from None
    torsion: tuple[int, ...]
    if len(parts) == 2 and parts[1].strip():
        try:
            torsion = tuple(int(x) for x in parts[1].split(",") if x.strip() != "")
        except ValueError:
            raise ValueError(f"cannot parse torsion part {parts[1]!r}") from None
    else:
        torsion = (0,) * fan.group.torsion_rank
    if len(free) != fan.dim:
        raise ValueError(f"free part has {len(free)} coordinates, fan has rank {fan.dim}")
    if len(torsion) != fan.group.torsion_rank:
        raise ValueError(f"torsion part has {len(torsion)} residues, "
                         f"group has {fan.group.torsion_rank} factors")
    return NElement(free, fan.group.reduce_torsion(torsion))


def cmd_class_of_1ps(args) -> int:
    fan = _load_valid_fan(args.file)
    try:
        b = _parse_b(args.b, fan)
    except ValueError as parse_err:
        print(f"error: {parse_err}", file=sys.stderr)
        return EXIT_USAGE
    sectors, spaces = _sectors_and_spaces(fan)
    cls = one_ps_class(fan, sectors, spaces, b)
    sec_idx = None if cls.sector.is_untwisted else sector_index(sectors, cls.sector)
    class_terms = []
    for i, x in enumerate(cls.class_vector):
        if x != 0:
            label = spaces.labels[i]
            class_terms.append(f"v[{label}]" if x == 1 else f"{_fmt_num(x)}*v[{label}]")
    doc = {
        "fan": fan.name,
        "b": {"free": _int_vec_json(b.free), "torsion": _int_vec_json(b.torsion)},
        "class_vector": _rat_vec_json(cls.class_vector),
        "sector": None if sec_idx is None else {
            "label": spaces.labels[spaces.n + sec_idx],
            "rig": _int_vec_json(cls.sector.rig),
            "torsion": _int_vec_json(cls.sector.torsion)},
        "untwisted": sec_idx is None,
        "decomposition": {
            "sector_label": None if sec_idx is None else spaces.labels[spaces.n + sec_idx],
            "ray_multiplicities": list(cls.ray_multiplicities)},
    }
    sector_line = "sector = untwisted" if sec_idx is None else (
        f"sector = {spaces.labels[spaces.n + sec_idx]} "
        f"(rig={_fmt_vec(cls.sector.rig)}, torsion={_fmt_vec(cls.sector.torsion)})")
    lines = [f"fan: {fan.name}",
             f"b = {_fmt_vec(b.free)};{_fmt_vec(b.torsion)}",
             "class = " + (" + ".join(class_terms) if class_terms else "0"),
             sector_line,
             "decomposition = " + cls.decomposition_label(spaces.labels, sec_idx)]
    _emit(doc, args.json, lines)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stackycones",
                     description="Cones of curves and divisors of split toric "
                                 "Deligne-Mumford stacks, over exact rationals.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text, with_b=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="stacky fan JSON file")
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        if with_b:
            p.add_argument("--b", required=True, metavar="FREE[;TORSION]",
                           help="element of N, e.g. --b=-3 or --b=0,-1;1")
        p.set_defaults(func=func)
        return p

    add("validate", cmd_validate, "run the validation battery")
    add("rays", cmd_rays, "per-ray data b, w, c and torsion")
    add("box", cmd_box, "all box elements in canonical order")
    add("sectors", cmd_sectors, "twisted sectors in canonical order")
    add("ns", cmd_ns, "divisor/curve space dimensions, curve basis, ray classes")
    add("xi", cmd_xi, "the distinguished dual pair of bases")
    add("mov", cmd_mov, "movable cone of orbifold curve classes")
    add("peff", cmd_peff, "orbifold pseudo-effective cone generators")
    add("verify", cmd_verify, "check the generator description against a "
                              "generic dual-cone computation")
    add("class-of-1ps", cmd_class_of_1ps,
        "orbifold class of a one-parameter subgroup", with_b=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_err:
        return exit_err.code if isinstance(exit_err.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except FanFileError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _InvalidFan:
        return EXIT_VALIDATION
    except EnumerationLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
