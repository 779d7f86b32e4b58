"""Per-layer tracing of the stackycones package from outside it.

The layers are the package's modules.  ``Tracer.install`` wraps their
public entry points (plus the double-description routine behind every
``Cone`` dual, canonical form and intersection) and binds each wrapper
under every name the package knows the function by, because modules import
each other's functions with ``from .linalg import ...``.  A spanned call
records (name, start, end, parent span, operation id); a counted call only
bumps a counter keyed by the name of the span it ran inside.  Spans stay
in memory until ``write`` is called.

A span's self time is its duration minus the time covered by its direct
children, which nest properly because the benchmark is single-threaded.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# module -> entry points that get a span ("Cone.x" is a method)
SPANNED = {
    "cli": ("main",),
    "fanfile": ("load_fan",),
    "fan": ("validate",),
    "boxes": ("twisted_sectors", "enumerate_box", "cone_parallelepiped_points",
              "minimal_cone_coeffs", "q_reduce"),
    "neron_severi": ("build_spaces", "lambda_orb"),
    "orbcones": ("verify_duality", "build_xi", "one_ps_class", "sector_index",
                 "restricted_functionals", "mov_cone"),
    "cones": ("intersect", "_halfspace_description", "Cone.dual", "Cone.equals",
              "Cone.canonical_generators", "Cone.intersect_with_subspace"),
    "linalg": ("rank", "det", "rref", "solve_square", "inverse", "kernel_basis"),
}
# hot entry points: counted, never spanned
COUNTED = {
    "cones": ("Cone.contains",),
    "linalg": ("dot", "primitive_direction", "mat_vec"),
}
LINALG_SPANNED = SPANNED["linalg"]

# (metric name, unit), in the order they are reported
METRICS = (
    ("cli.self_ms", "ms/op"), ("cli.output_bytes", "bytes/op"),
    ("cli.import_ms", "ms"), ("fanfile.load_ms", "ms/op"),
    ("fan.validate_ms", "ms/op"), ("fan.validate_calls", "count/op"),
    ("boxes.enumerate_ms", "ms/op"), ("boxes.scan_candidates", "count/op"),
    ("boxes.box_points", "count/op"), ("boxes.scan_yield", "ratio"),
    ("boxes.cone_solves", "count/op"),
    ("neron_severi.build_spaces_ms", "ms/op"),
    ("neron_severi.lambda_orb_ms", "ms/op"),
    ("orbcones.build_xi_ms", "ms/op"), ("orbcones.xi_dot_calls", "count/op"),
    ("orbcones.xi_dot_terms", "count/op"),
    ("orbcones.xi_dot_nonzero_share", "ratio"), ("orbcones.det_ms", "ms/op"),
    ("orbcones.sector_index_ms", "ms/op"),
    ("orbcones.sector_index_probes", "count/op"),
    ("orbcones.one_ps_class_ms", "ms/op"), ("orbcones.mov_cone_ms", "ms/op"),
    ("cones.intersect_calls", "count/op"), ("cones.dual_ms", "ms/op"),
    ("cones.equals_ms", "ms/op"), ("cones.contains_calls", "count/op"),
    ("cones.canonical_ms", "ms/op"), ("cones.dd_runs", "count/op"),
    ("cones.dd_ms", "ms/op"), ("cones.dd_constraints_in", "count/op"),
    ("cones.dd_rays_out", "count/op"), ("cones.dd_peak_rays_out", "count"),
    ("cones.primitive_direction_calls", "count/op"),
    ("cones.kernel_basis_ms", "ms/op"),
) + tuple((f"linalg.{fn}_{kind}", "count/op" if kind == "calls" else "ms/op")
          for fn in LINALG_SPANNED for kind in ("calls", "ms")) + (
    ("linalg.dot_calls", "count/op"),
    ("trace.spans", "count/op"), ("trace.overhead_pct", "%"),
)

_PACKAGE = "stackycones"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.calls: Counter = Counter()   # (counted name, enclosing span name)
        self.totals: Counter = Counter()  # quantities read off arguments/results
        self.peak_rays_out = 0
        self._undo: list = []

    # -- wrappers ----------------------------------------------------------

    def _enclosing(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    def _spanned(self, name, fn, after):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name, fn, before):
        calls = self.calls

        def wrapper(*args, **kwargs):
            enclosing = self._enclosing()
            calls[name, enclosing] += 1
            if before is not None:
                before(args, enclosing)
            return fn(*args, **kwargs)

        return wrapper

    # -- quantities read off arguments and results -------------------------

    def _after_dd(self, args, result):
        lineality, rays = result
        self.totals["dd_constraints_in"] += len(set(args[1]))
        out = len(lineality) + len(rays)
        self.totals["dd_rays_out"] += out
        self.peak_rays_out = max(self.peak_rays_out, out)

    def _after_parallelepiped(self, args, result):
        self.totals["box_points"] += len(result)

    def _after_sector_index(self, args, result):
        self.totals["sector_index_probes"] += result + 1

    def _after_cli_main(self, args, result):
        # the benchmark runs the CLI with stdout redirected to a StringIO
        getvalue = getattr(sys.stdout, "getvalue", None)
        if getvalue is not None:
            self.totals["cli_output_bytes"] += len(getvalue().encode())

    def _before_dot(self, args, enclosing):
        if enclosing == "orbcones.build_xi":
            u, v = args
            self.totals["xi_dot_terms"] += len(u)
            self.totals["xi_dot_nonzero"] += sum(1 for a, b in zip(u, v) if a and b)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {"cones._halfspace_description": self._after_dd,
                 "boxes.cone_parallelepiped_points": self._after_parallelepiped,
                 "orbcones.sector_index": self._after_sector_index,
                 "cli.main": self._after_cli_main,
                 "linalg.dot": self._before_dot}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, entries in table.items():
                module = sys.modules[f"{_PACKAGE}.{module_name}"]
                for entry in entries:
                    name = f"{module_name}.{entry}"
                    hook = hooks.get(name)
                    self._replace(module, entry, lambda fn: make(name, fn, hook))

    def _replace(self, module, entry, make_wrapper) -> None:
        if entry.startswith("Cone."):
            cls, attr = module.Cone, entry[len("Cone."):]
            original = cls.__dict__[attr]
            setattr(cls, attr, make_wrapper(original))
            self._undo.append((cls, attr, original))
            return
        original = getattr(module, entry)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != _PACKAGE and not mod_name.startswith(_PACKAGE + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time in ns summed per span name, and per (span name, name of
        the parent span's module)."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        by_name: Counter = Counter()
        by_parent_layer: Counter = Counter()
        for (name, start, end, parent, _), child_ns in zip(self.spans, covered):
            own = end - start - child_ns
            by_name[name] += own
            parent_layer = self.spans[parent][0].split(".")[0] if parent >= 0 else ""
            by_parent_layer[name, parent_layer] += own
        return by_name, by_parent_layer

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-operation layer metrics over ``ops`` traced operations (all
        but trace.overhead_pct and cli.import_ms, which the caller
        measures)."""
        self_ns, self_ns_under = self.self_times()
        span_calls = Counter(span[0] for span in self.spans)
        counted = Counter()
        for (name, _), n in self.calls.items():
            counted[name] += n

        def ms(*names):
            return sum(self_ns[n] for n in names) / 1e6 / ops

        def ms_under(name, layer):
            return self_ns_under[name, layer] / 1e6 / ops

        def per_op(x):
            return x / ops

        def calls_under(name, enclosing_names):
            return sum(n for (c, e), n in self.calls.items()
                       if c == name and e in enclosing_names)

        scan = calls_under("linalg.mat_vec",
                           {f"boxes.{e}" for e in SPANNED["boxes"]})
        t = self.totals
        out = {
            "cli.self_ms": ms(*(f"cli.{e}" for e in SPANNED["cli"])),
            "cli.output_bytes": per_op(t["cli_output_bytes"]),
            "fanfile.load_ms": ms("fanfile.load_fan"),
            "fan.validate_ms": ms("fan.validate"),
            "fan.validate_calls": per_op(span_calls["fan.validate"]),
            "boxes.enumerate_ms": ms("boxes.twisted_sectors", "boxes.enumerate_box",
                                     "boxes.cone_parallelepiped_points"),
            "boxes.scan_candidates": per_op(scan),
            "boxes.box_points": per_op(t["box_points"]),
            "boxes.scan_yield": t["box_points"] / scan if scan else 0.0,
            "boxes.cone_solves": per_op(sum(
                n for (name, layer), n in self._span_calls_under().items()
                if name == "linalg.solve_square"
                and layer in ("boxes.minimal_cone_coeffs", "boxes.q_reduce"))),
            "neron_severi.build_spaces_ms": ms("neron_severi.build_spaces"),
            "neron_severi.lambda_orb_ms": ms("neron_severi.lambda_orb"),
            "orbcones.build_xi_ms": ms("orbcones.build_xi"),
            "orbcones.xi_dot_calls": per_op(calls_under("linalg.dot",
                                                        {"orbcones.build_xi"})),
            "orbcones.xi_dot_terms": per_op(t["xi_dot_terms"]),
            "orbcones.xi_dot_nonzero_share":
                t["xi_dot_nonzero"] / t["xi_dot_terms"] if t["xi_dot_terms"] else 0.0,
            "orbcones.det_ms": ms_under("linalg.det", "orbcones"),
            "orbcones.sector_index_ms": ms("orbcones.sector_index"),
            "orbcones.sector_index_probes": per_op(t["sector_index_probes"]),
            "orbcones.one_ps_class_ms": ms("orbcones.one_ps_class"),
            "orbcones.mov_cone_ms": ms("orbcones.mov_cone"),
            "cones.intersect_calls": per_op(span_calls["cones.intersect"]
                                            + span_calls["cones.Cone.intersect_with_subspace"]),
            "cones.dual_ms": ms("cones.Cone.dual"),
            "cones.equals_ms": ms("cones.Cone.equals"),
            "cones.contains_calls": per_op(counted["cones.Cone.contains"]),
            "cones.canonical_ms": ms("cones.Cone.canonical_generators"),
            "cones.dd_runs": per_op(span_calls["cones._halfspace_description"]),
            "cones.dd_ms": ms("cones._halfspace_description"),
            "cones.dd_constraints_in": per_op(t["dd_constraints_in"]),
            "cones.dd_rays_out": per_op(t["dd_rays_out"]),
            "cones.dd_peak_rays_out": float(self.peak_rays_out),
            "cones.primitive_direction_calls": per_op(calls_under(
                "linalg.primitive_direction", {f"cones.{e}" for e in SPANNED["cones"]})),
            "cones.kernel_basis_ms": self._inclusive_ms_under(
                "linalg.kernel_basis", "cones") / ops,
            "linalg.dot_calls": per_op(counted["linalg.dot"]),
            "trace.spans": per_op(len(self.spans)),
        }
        for fn in LINALG_SPANNED:
            out[f"linalg.{fn}_calls"] = per_op(span_calls[f"linalg.{fn}"])
            out[f"linalg.{fn}_ms"] = ms(f"linalg.{fn}")
        return out

    def _inclusive_ms_under(self, name: str, layer: str) -> float:
        """Total duration, children included, of ``name`` spans whose parent
        span belongs to ``layer``."""
        spans = self.spans
        return sum(end - start for n, start, end, parent, _ in spans
                   if n == name and parent >= 0
                   and spans[parent][0].startswith(layer + ".")) / 1e6

    def _span_calls_under(self) -> Counter:
        """Spanned calls counted per (name, parent span name)."""
        spans = self.spans
        return Counter((name, spans[parent][0] if parent >= 0 else "")
                       for name, _, _, parent, _ in spans)

    def write(self, path: Path) -> None:
        """Write every span as one JSON array per line:
        [name, start_ns, end_ns, parent index, operation id]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
