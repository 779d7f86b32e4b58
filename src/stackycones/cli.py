"""Command-line frontend.

Exit codes: 0 success, 2 validation failure or a fan too large to
enumerate or to build class spaces for, 3 theorem-verification mismatch,
64 usage or parse error.
Every command takes a fan file and an optional ``--json`` flag switching
from the human-readable tables to a machine-readable document in which
exact rationals appear as ``{"num": "...", "den": "..."}`` decimal
strings (never floats).

``main`` is the only place that loads the fan, validates it, turns errors
into exit codes and prints, and it prints only once every stage a command
needs has been built.  Each ``cmd_*`` is a renderer: ``cmd_validate``
takes the validation report, every other command the ``Analysis`` of a
valid fan (and ``class-of-1ps`` the parsed ``--b``), and each returns its
document body, its text lines and its exit code; ``main`` adds the fan's
name to both.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .boxes import EnumerationLimitError, enumerate_box
from .fan import NElement, StackyFan, ValidationReport, validate
from .fan import ray_data as fan_ray_data
from .fanfile import FanFileError, fraction_json, load_fan
from .neron_severi import eta_labels, ray_divisor_classes
from .orbcones import Analysis, one_ps_class, sector_index, verify_duality

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """An option value that the parser accepts but the fan rejects."""


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


# a renderer's document body, text lines and exit code
Rendered = tuple[dict, list[str], int]


def cmd_validate(report: ValidationReport) -> Rendered:
    body = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
        "ok": report.ok,
    }
    return body, report.lines(), EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_rays(analysis: Analysis) -> Rendered:
    rd = fan_ray_data(analysis.fan)
    labels = eta_labels(len(rd), 0)
    body = {
        "rays": [{"index": r.index, "label": labels[r.index],
                  "b_rig": _int_vec_json(r.b_rig), "w": _int_vec_json(r.w),
                  "c": r.c, "torsion": _int_vec_json(r.torsion)}
                 for r in rd],
    }
    lines = ["ray  b_rig  w  c  torsion"]
    for r in rd:
        lines.append(f"{labels[r.index]}  {_fmt_vec(r.b_rig)}  {_fmt_vec(r.w)}"
                     f"  {r.c}  {_fmt_vec(r.torsion)}")
    return body, lines, EXIT_OK


def _box_entry_json(element, sector_label, labels):
    return {
        "rig": _int_vec_json(element.rig),
        "torsion": _int_vec_json(element.torsion),
        "coeffs": [{"ray": i, "label": labels[i], "value": fraction_json(a)}
                   for i, a in element.coeffs.items()],
        "untwisted": element.is_untwisted,
        "label": sector_label,
    }


def cmd_box(analysis: Analysis) -> Rendered:
    fan = analysis.fan
    box = enumerate_box(fan)
    t = sum(not e.is_untwisted for e in box)
    labels = eta_labels(fan.n_rays, t)
    # twisted elements appear in the canonical sector order
    sector_labels = iter(labels[fan.n_rays:])
    box_labels = [None if e.is_untwisted else next(sector_labels) for e in box]
    body = {
        "box": [_box_entry_json(e, label, labels) for e, label in zip(box, box_labels)],
        "twisted_count": t,
    }
    lines = []
    if not t:
        lines.append("Box = {0}; no twisted sectors")
    else:
        for k, (e, label) in enumerate(zip(box, box_labels)):
            tag = "untwisted" if label is None else f"sector={label}"
            lines.append(f"box[{k}]: rig={_fmt_vec(e.rig)} torsion={_fmt_vec(e.torsion)}"
                         f" a={_fmt_coeffs(e.coeffs, labels)} {tag}")
        lines.append(f"twisted sectors: {t}")
    return body, lines, EXIT_OK


def cmd_sectors(analysis: Analysis) -> Rendered:
    sectors = analysis.sectors
    labels = eta_labels(analysis.fan.n_rays, len(sectors))
    sector_labels = labels[analysis.fan.n_rays:]
    body = {
        "sectors": [_box_entry_json(e, label, labels)
                    for e, label in zip(sectors, sector_labels)],
    }
    lines = []
    if not sectors:
        lines.append("no twisted sectors")
    for e, label in zip(sectors, sector_labels):
        lines.append(f"{label}: rig={_fmt_vec(e.rig)} torsion={_fmt_vec(e.torsion)}"
                     f" a={_fmt_coeffs(e.coeffs, labels)}")
    return body, lines, EXIT_OK


def cmd_ns(analysis: Analysis) -> Rendered:
    spaces = analysis.spaces
    classes = [ray_divisor_classes(spaces, i) for i in range(spaces.n)]
    body = {
        "n": spaces.n, "d": spaces.d, "t": spaces.t,
        "dim_ns": spaces.dim_ns, "dim_ns_orb": spaces.dim_ns_orb,
        "curve_basis": [_int_vec_json(k) for k in spaces.curve_basis],
        "ray_classes": [{"label": spaces.labels[i],
                         "E": _rat_vec_json(coarse.pairing),
                         "E_stacky": _rat_vec_json(stacky.pairing)}
                        for i, (coarse, stacky) in enumerate(classes)],
    }
    lines = [
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
    return body, lines, EXIT_OK


def cmd_xi(analysis: Analysis) -> Rendered:
    xi = analysis.xi
    body = {
        "labels": list(xi.labels),
        "xi": [_rat_vec_json(v) for v in xi.xi],
        "xi_star": [_rat_vec_json(v) for v in xi.xi_star],
        "dual_basis_ok": True,
    }
    lines = [f"Xi[{label}] = {_fmt_vec(v)}" for label, v in zip(xi.labels, xi.xi)]
    lines += [f"Xi*[{label}] = {_fmt_vec(v)}" for label, v in zip(xi.labels, xi.xi_star)]
    lines.append("dual basis check: PASS")
    return body, lines, EXIT_OK


def cmd_mov(analysis: Analysis) -> Rendered:
    dim = analysis.spaces.dim_ns_orb
    mov = analysis.peff.dual()
    body = {
        "dim": dim,
        "coordinates": "curve-basis",
        "generators": [_int_vec_json(g) for g in mov.generators],
    }
    lines = [f"coordinates: curve basis (dim {dim})",
             "Mov_1,orb generators (extremal):"]
    lines += [f"  {_fmt_vec(g)}" for g in mov.generators]
    return body, lines, EXIT_OK


def cmd_peff(analysis: Analysis) -> Rendered:
    spaces, functionals = analysis.spaces, analysis.functionals
    extremal = analysis.peff.canonical_generators()
    body = {
        "dim": spaces.dim_ns_orb,
        "coordinates": "curve-basis-dual",
        "classes": [{"label": spaces.labels[i], "vector": _rat_vec_json(v)}
                    for i, v in enumerate(functionals)],
        "extremal_rays": [_int_vec_json(g) for g in extremal],
    }
    lines = [f"coordinates: dual curve basis (dim {spaces.dim_ns_orb})",
             "generator classes:"]
    for i, v in enumerate(functionals):
        lines.append(f"  peff[{spaces.labels[i]}] = {_fmt_vec(v)}")
    lines.append("PEff_orb extremal rays:")
    lines += [f"  {_fmt_vec(g)}" for g in extremal]
    return body, lines, EXIT_OK


def cmd_verify(analysis: Analysis) -> Rendered:
    # called by its module-level name, so a wrapper of verify_duality sees it
    report = verify_duality(analysis.fan)
    body = {
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
    lines = ["Mov_1,orb generators: " + (", ".join(_fmt_vec(g) for g in report.mov_generators) or "(zero cone)"),
             "dual(Mov) extremal rays: " + (", ".join(_fmt_vec(g) for g in report.dual_of_mov_generators) or "(zero cone)"),
             "corollary cone extremal rays: " + (", ".join(_fmt_vec(g) for g in report.corollary_generators) or "(zero cone)")]
    if report.equal:
        lines.append("PEff_orb extremal rays: "
                     + (", ".join(_fmt_vec(g) for g in report.corollary_generators) or "(zero cone)"))
        lines.append("theorem verification: PASS (cones equal)")
    else:
        side, vector = report.separating
        lines.append(f"theorem verification: FAIL (separating vector {_fmt_vec(vector)} on side {side})")
    return body, lines, EXIT_OK if report.equal else EXIT_MISMATCH


def _parse_ints(text: str, part: str) -> tuple[int, ...]:
    # blank is the empty list; an empty field in a non-empty one is an error
    try:
        return tuple([int(x) for x in text.split(",")]) if text.strip() else ()
    except ValueError:
        raise _UsageError(f"cannot parse {part} part {text!r}") from None


def _parse_b(text: str, fan: StackyFan) -> NElement:
    parts = text.split(";")
    if len(parts) > 2:
        raise _UsageError("expected at most one ';' in --b")
    free = _parse_ints(parts[0], "free")
    # a blank torsion part means zero residues
    torsion = ((_parse_ints(parts[1], "torsion") if len(parts) == 2 else ())
               or (0,) * fan.group.torsion_rank)
    if len(free) != fan.dim:
        raise _UsageError(f"free part has {len(free)} coordinates, fan has rank {fan.dim}")
    if len(torsion) != fan.group.torsion_rank:
        raise _UsageError(f"torsion part has {len(torsion)} residues, "
                          f"group has {fan.group.torsion_rank} factors")
    return NElement(free, fan.group.reduce_torsion(torsion))


def cmd_class_of_1ps(analysis: Analysis, b: NElement) -> Rendered:
    sectors, spaces = analysis.sectors, analysis.spaces
    cls = one_ps_class(analysis.fan, sectors, spaces, b)
    sec_idx = None if cls.sector.is_untwisted else sector_index(sectors, cls.sector)
    class_terms = []
    for i, x in enumerate(cls.class_vector):
        if x != 0:
            label = spaces.labels[i]
            class_terms.append(f"v[{label}]" if x == 1 else f"{_fmt_num(x)}*v[{label}]")
    body = {
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
    lines = [f"b = {_fmt_vec(b.free)};{_fmt_vec(b.torsion)}",
             "class = " + (" + ".join(class_terms) if class_terms else "0"),
             sector_line,
             "decomposition = " + cls.decomposition_label(spaces.labels, sec_idx)]
    return body, lines, EXIT_OK


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
        p.set_defaults(func=func, b=None)  # None for a command without --b
        return p

    add("validate", cmd_validate, "certify that the fan is simplicial and complete")
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
        fan = load_fan(args.file)
        report = validate(fan)
        if args.func is cmd_validate:
            body, lines, code = cmd_validate(report)
        elif not report.ok:
            failed = [c.name for c in report.checks if not c.passed]
            print(f"error: fan '{fan.name}' fails validation: {', '.join(failed)}",
                  file=sys.stderr)
            return EXIT_VALIDATION
        else:
            # --b is parsed against the valid fan and before any stage is built
            b = () if args.b is None else (_parse_b(args.b, fan),)
            body, lines, code = args.func(Analysis(fan), *b)
    except (FanFileError, _UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit({"fan": fan.name, **body}, args.json, [f"fan: {fan.name}", *lines])
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
