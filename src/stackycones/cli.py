"""Command-line frontend.

Exit codes: 0 success, 2 validation failure or a fan too large to
enumerate or to build class spaces for, or a cone too large to dualize,
3 theorem-verification mismatch, 64 usage or parse error.
Every command takes a fan file and an optional ``--json`` flag switching
from the human-readable tables to a machine-readable document in which
exact rationals appear as ``{"num": "...", "den": "..."}`` decimal
strings (never floats).

``main`` is the only place that loads the fan, validates it, turns errors
into exit codes and prints, and it prints only once every stage a command
needs has been built.  Each ``cmd_*`` is a renderer: ``cmd_validate``
takes the validation report, every other command the ``Analysis`` of a
valid fan (and ``class-of-1ps`` the parsed ``--b``), then whether JSON was
asked for, and each returns its exit code and only the form that gets
printed: the document body or the text lines.  ``_emit`` adds the fan's
name to it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Union

from .boxes import EnumerationLimitError, enumerate_box
from .fan import NElement, StackyFan, ValidationReport, validate
from .fan import ray_data as fan_ray_data
from .fanfile import FanFileError, fraction_json, load_fan
from .neron_severi import eta_labels, ray_divisor_classes
from .orbcones import Analysis, one_ps_class, verify_duality

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


def _fmt_vec(v) -> str:
    return "(" + ", ".join(map(str, v)) + ")"


def _fmt_coeffs(coeffs, labels) -> str:
    inner = ", ".join(f"{labels[i]}: {a}" for i, a in coeffs)
    return "{" + inner + "}"


# one shared object for every zero entry: rows of Xi and Xi* are mostly zeros
_ZERO_JSON = {"num": "0", "den": "1"}


def _rat_vec_json(v) -> list:
    return [fraction_json(x) if x else _ZERO_JSON for x in v]


def _int_vec_json(v) -> list:
    return [int(x) for x in v]


def _emit(fan: StackyFan, rendered: Union[dict, list[str]], as_json: bool) -> None:
    document = (json.dumps({"fan": fan.name, **rendered}, indent=2) if as_json
                else "\n".join([f"fan: {fan.name}", *rendered]))
    try:
        print(document, flush=True)
    except BrokenPipeError:  # the reader left (`| head`): drop the rest and the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# a renderer's JSON body (as_json) or text lines, and its exit code
Rendered = tuple[Union[dict, list[str]], int]


def cmd_validate(report: ValidationReport, as_json: bool) -> Rendered:
    code = EXIT_OK if report.ok else EXIT_VALIDATION
    if as_json:
        return {"checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in report.checks],
                "ok": report.ok}, code
    return report.lines(), code


def cmd_rays(analysis: Analysis, as_json: bool) -> Rendered:
    rd = fan_ray_data(analysis.fan)
    labels = eta_labels(len(rd), 0)
    if as_json:
        return {"rays": [{"index": r.index, "label": labels[r.index],
                          "b_rig": _int_vec_json(r.b_rig), "w": _int_vec_json(r.w),
                          "c": r.c, "torsion": _int_vec_json(r.torsion)}
                         for r in rd]}, EXIT_OK
    lines = ["ray  b_rig  w  c  torsion"]
    for r in rd:
        lines.append(f"{labels[r.index]}  {_fmt_vec(r.b_rig)}  {_fmt_vec(r.w)}"
                     f"  {r.c}  {_fmt_vec(r.torsion)}")
    return lines, EXIT_OK


def _box_entry_json(element, sector_label, labels):
    return {
        "rig": _int_vec_json(element.rig),
        "torsion": _int_vec_json(element.torsion),
        "coeffs": [{"ray": i, "label": labels[i], "value": fraction_json(a)}
                   for i, a in element.coeffs],
        "untwisted": element.is_untwisted,
        "label": sector_label,
    }


def cmd_box(analysis: Analysis, as_json: bool) -> Rendered:
    fan = analysis.fan
    box = enumerate_box(fan)
    t = sum(not e.is_untwisted for e in box)
    labels = eta_labels(fan.n_rays, t)
    # twisted elements appear in the canonical sector order
    sector_labels = iter(labels[fan.n_rays:])
    box_labels = [None if e.is_untwisted else next(sector_labels) for e in box]
    if as_json:
        return {"box": [_box_entry_json(e, label, labels)
                        for e, label in zip(box, box_labels)],
                "twisted_count": t}, EXIT_OK
    if not t:
        return ["Box = {0}; no twisted sectors"], EXIT_OK
    lines = []
    for k, (e, label) in enumerate(zip(box, box_labels)):
        tag = "untwisted" if label is None else f"sector={label}"
        lines.append(f"box[{k}]: rig={_fmt_vec(e.rig)} torsion={_fmt_vec(e.torsion)}"
                     f" a={_fmt_coeffs(e.coeffs, labels)} {tag}")
    lines.append(f"twisted sectors: {t}")
    return lines, EXIT_OK


def cmd_sectors(analysis: Analysis, as_json: bool) -> Rendered:
    sectors = analysis.sectors
    labels = eta_labels(analysis.fan.n_rays, len(sectors))
    sector_labels = labels[analysis.fan.n_rays:]
    if as_json:
        return {"sectors": [_box_entry_json(e, label, labels)
                            for e, label in zip(sectors, sector_labels)]}, EXIT_OK
    lines = [] if sectors else ["no twisted sectors"]
    for e, label in zip(sectors, sector_labels):
        lines.append(f"{label}: rig={_fmt_vec(e.rig)} torsion={_fmt_vec(e.torsion)}"
                     f" a={_fmt_coeffs(e.coeffs, labels)}")
    return lines, EXIT_OK


def cmd_ns(analysis: Analysis, as_json: bool) -> Rendered:
    spaces = analysis.spaces
    classes = [ray_divisor_classes(spaces, i) for i in range(spaces.n)]
    if as_json:
        return {
            "n": spaces.n, "d": spaces.d, "t": spaces.t,
            "dim_ns": spaces.dim_ns, "dim_ns_orb": spaces.dim_ns_orb,
            "curve_basis": [_int_vec_json(k) for k in spaces.curve_basis],
            "ray_classes": [{"label": spaces.labels[i],
                             "E": _rat_vec_json(coarse),
                             "E_stacky": _rat_vec_json(stacky)}
                            for i, (coarse, stacky) in enumerate(classes)],
        }, EXIT_OK
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
        lines.append(f"  E[{spaces.labels[i]}] = {_fmt_vec(coarse)}"
                     f"   Es[{spaces.labels[i]}] = {_fmt_vec(stacky)}")
    return lines, EXIT_OK


def cmd_xi(analysis: Analysis, as_json: bool) -> Rendered:
    xi, labels = analysis.xi, analysis.spaces.labels
    if as_json:
        return {"labels": list(labels),
                "xi": [_rat_vec_json(v) for v in xi.xi],
                "xi_star": [_rat_vec_json(v) for v in xi.xi_star],
                "dual_basis_ok": True}, EXIT_OK
    lines = [f"Xi[{label}] = {_fmt_vec(v)}" for label, v in zip(labels, xi.xi)]
    lines += [f"Xi*[{label}] = {_fmt_vec(v)}" for label, v in zip(labels, xi.xi_star)]
    lines.append("dual basis check: PASS")
    return lines, EXIT_OK


def cmd_mov(analysis: Analysis, as_json: bool) -> Rendered:
    dim = analysis.spaces.dim_ns_orb
    mov = analysis.peff.dual()
    if as_json:
        return {"dim": dim, "coordinates": "curve-basis",
                "generators": [_int_vec_json(g) for g in mov.generators]}, EXIT_OK
    lines = [f"coordinates: curve basis (dim {dim})",
             "Mov_1,orb generators (extremal):"]
    lines += [f"  {_fmt_vec(g)}" for g in mov.generators]
    return lines, EXIT_OK


def cmd_peff(analysis: Analysis, as_json: bool) -> Rendered:
    spaces, functionals = analysis.spaces, analysis.functionals
    extremal = analysis.peff.canonical_generators()
    if as_json:
        return {"dim": spaces.dim_ns_orb, "coordinates": "curve-basis-dual",
                "classes": [{"label": spaces.labels[i], "vector": _rat_vec_json(v)}
                            for i, v in enumerate(functionals)],
                "extremal_rays": [_int_vec_json(g) for g in extremal]}, EXIT_OK
    lines = [f"coordinates: dual curve basis (dim {spaces.dim_ns_orb})",
             "generator classes:"]
    for i, v in enumerate(functionals):
        lines.append(f"  peff[{spaces.labels[i]}] = {_fmt_vec(v)}")
    lines.append("PEff_orb extremal rays:")
    lines += [f"  {_fmt_vec(g)}" for g in extremal]
    return lines, EXIT_OK


def cmd_verify(analysis: Analysis, as_json: bool) -> Rendered:
    # called by its module-level name, so a wrapper of verify_duality sees it
    report = verify_duality(analysis.fan)
    code = EXIT_OK if report.equal else EXIT_MISMATCH
    if as_json:
        return {
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
        }, code
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
    return lines, code


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


def cmd_class_of_1ps(analysis: Analysis, b: NElement, as_json: bool) -> Rendered:
    spaces = analysis.spaces
    cls = one_ps_class(analysis.fan, analysis.sectors, spaces, b)
    sec_idx = cls.sector_index
    label = None if sec_idx is None else spaces.labels[spaces.n + sec_idx]
    if as_json:
        return {
            "b": {"free": _int_vec_json(b.free), "torsion": _int_vec_json(b.torsion)},
            "class_vector": _rat_vec_json(cls.class_vector),
            "sector": None if sec_idx is None else {
                "label": label,
                "rig": _int_vec_json(cls.sector.rig),
                "torsion": _int_vec_json(cls.sector.torsion)},
            "untwisted": sec_idx is None,
            "decomposition": {"sector_label": label,
                              "ray_multiplicities": list(cls.ray_multiplicities)},
        }, EXIT_OK
    class_terms = []
    for i, x in enumerate(cls.class_vector):
        if x != 0:
            term = spaces.labels[i]
            class_terms.append(f"v[{term}]" if x == 1 else f"{x}*v[{term}]")
    sector_line = "sector = untwisted" if sec_idx is None else (
        f"sector = {label} "
        f"(rig={_fmt_vec(cls.sector.rig)}, torsion={_fmt_vec(cls.sector.torsion)})")
    return [f"b = {_fmt_vec(b.free)};{_fmt_vec(b.torsion)}",
            "class = " + (" + ".join(class_terms) if class_terms else "0"),
            sector_line,
            "decomposition = " + cls.decomposition_label(spaces.labels)], EXIT_OK


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
            rendered, code = cmd_validate(report, args.json)
        elif not report.ok:
            failed = [c.name for c in report.checks if not c.passed]
            print(f"error: fan '{fan.name}' fails validation: {', '.join(failed)}",
                  file=sys.stderr)
            return EXIT_VALIDATION
        else:
            # --b is parsed against the valid fan and before any stage is built
            b = () if args.b is None else (_parse_b(args.b, fan),)
            rendered, code = args.func(Analysis(fan), *b, args.json)
    except (FanFileError, _UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    _emit(fan, rendered, args.json)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
