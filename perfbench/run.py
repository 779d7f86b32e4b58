"""Benchmark of the stackycones pipeline: one workload per run, closed loop,
one client, one thread.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0

Run from anywhere inside a stackycones checkout; the package is imported
from its ``src/``.  The seed makes the inputs; the operations run back to
back for ``--seconds`` and every result passes a correctness gate.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer (see tracing.py), prints the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_build/perfbench/``.  The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/stackycones/__init__.py", "fixtures/p1.json", "tests/golden")
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
CLI_PROBE_FIXTURE = "p2"
CLI_PROBE_REPEATS = 4
IMPORT_PROBE_SPAWNS = 7
# a repeat this many times faster than the input's first run is taken for a
# cache hit on an earlier result, not for the program's cost
MEMO_RATIO = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import stackycones.cli; "
                "print(time.perf_counter() - t)")

END_TO_END = (("best_op_ms_p50", "ms"), ("best_op_ms_tail", "ms"),
              ("best_ops_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cli_process_ms_p50", "ms"))


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile); the maximum when there are 10 samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Loop:
    """The closed loop: operations back to back, each timed and gated.

    Besides every latency, the loop keeps each input's first and best
    latency over its repeats; ``costs`` turns those into one cost per input.
    The machines this runs on are shared, and their speed was seen to swing
    by up to 2x within seconds, which the best of an input's repeats (spread
    over the run) filters out while slow inputs still read slow."""

    def __init__(self, workload, workloads_module):
        self.workload = workload
        self.w = workloads_module
        self.latencies: list[float] = []
        self.outcomes: list[tuple[object, str]] = []  # (op, ok|wrong|error|budget)
        self.first: dict[int, float] = {}  # id(op) -> first latency
        self.best: dict[int, float] = {}  # id(op) -> best latency
        self.seconds = 0.0  # loop time of run_for

    def run_one(self, op) -> None:
        start = time.perf_counter()
        try:
            result = self.w.run_with_budget(self.workload, op)
        except self.w.BudgetExceeded:
            outcome = "budget"
        except Exception as err:  # any exception is a failed operation
            print(f"error in {self.workload.name}: {type(err).__name__}: {err}",
                  file=sys.stderr)
            outcome = "error"
        else:
            outcome = None
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        self.first.setdefault(id(op), latency)
        self.best[id(op)] = min(latency, self.best.get(id(op), latency))
        if outcome is None:
            outcome = "ok" if self.workload.check(op, result) else "wrong"
        self.outcomes.append((op, outcome))

    def run_for(self, ops: list, seconds: float, interludes=()) -> None:
        """Run ``ops`` cyclically for ``seconds`` of loop time, calling the
        ``interludes`` at even intervals in between.  Interlude time is not
        loop time, so probes spread over the run do not shorten it."""
        start = time.perf_counter()
        paused = 0.0
        done = i = 0
        while (elapsed := time.perf_counter() - start - paused) < seconds:
            if done < len(interludes) and elapsed >= done * seconds / len(interludes):
                begin = time.perf_counter()
                interludes[done]()
                paused += time.perf_counter() - begin
                done += 1
            else:
                self.run_one(ops[i % len(ops)])
                i += 1
        self.seconds = elapsed

    def costs(self) -> list[float]:
        """Each input's best latency, or its first when the best is more
        than MEMO_RATIO times faster: a repeat that fast reused an earlier
        result, and only the first run did the work."""
        return [first if self.best[key] * MEMO_RATIO < first else self.best[key]
                for key, first in self.first.items()]

    @property
    def memo_hits(self) -> int:
        return sum(best * MEMO_RATIO < self.first[key]
                   for key, best in self.best.items())

    @property
    def failed(self) -> int:
        return sum(outcome != "ok" for _, outcome in self.outcomes)

    @property
    def correct(self) -> bool:
        return all(outcome in ("ok", "budget") for _, outcome in self.outcomes)


def ladder_top_dim(outcomes, rungs, per_rung: int) -> int:
    """Highest rung whose every instance was run and finished correctly
    within budget; 0 when there is none."""
    ran = Counter(rung for rung, _ in {op for op, _ in outcomes})
    bad = {op[0] for op, outcome in outcomes if outcome != "ok"}
    return max((r for r in rungs if ran[r] == per_rung and r not in bad), default=0)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliProbe:
    """Wall time of fresh ``python -m stackycones`` processes, one at a
    time: every command on one fixture, in text form, in the seed's order.
    Each command is spawned several times over the run; its best time
    counts.  The cases are the same for every seed, so the figure does not
    depend on which commands a seed picks."""

    def __init__(self, w, seed: int):
        self.cases = [case for case in w.generate_fixtures(ROOT, seed)
                      if Path(case[0][1]).stem == CLI_PROBE_FIXTURE
                      and "--json" not in case[0]]
        self.times: list[list[float]] = [[] for _ in self.cases]
        self.wrong = 0

    def spawn(self, k: int) -> None:
        argv, golden = self.cases[k]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "stackycones", *argv],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=60)
        self.times[k].append(time.perf_counter() - start)
        self.wrong += proc.returncode != 0 or proc.stdout != golden

    def interludes(self) -> list:
        return [functools.partial(self.spawn, k)
                for _ in range(CLI_PROBE_REPEATS) for k in range(len(self.cases))]

    @property
    def spawns(self) -> int:
        return sum(len(t) for t in self.times)

    def best_ms(self) -> list[float]:
        return [min(t) * 1000 for t in self.times if t]


def import_time() -> float:
    """``import stackycones.cli`` time measured inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout)


class Setup:
    """The inputs, and the set-up time: ``import stackycones.cli`` in a
    fresh interpreter, plus generating the inputs and warming up on the
    smallest operation.  Both are repeated at even intervals over the run,
    because the machine's speed changes from one stretch of seconds to the
    next: the best import counts, as for the CLI probe, and the median
    set-up.  Every repeat must generate the same inputs and pass the gate
    on its warm-up."""

    def __init__(self, w, workload, seed: int):
        self.w, self.workload, self.seed = w, workload, seed
        self.import_times: list[float] = []
        self.times: list[float] = []
        self.ops = None
        self.ok = True
        self.set_up()

    def set_up(self) -> None:
        start = time.perf_counter()
        generated = self.workload.generate(ROOT, self.seed)
        smallest = min(generated, key=lambda op: len(repr(op)))
        self.ok &= self.workload.check(
            smallest, self.w.run_with_budget(self.workload, smallest))
        self.times.append(time.perf_counter() - start)
        if self.ops is None:
            self.ops = generated
        self.ok &= generated == self.ops

    def spawn(self) -> None:
        self.import_times.append(import_time())

    def interludes(self) -> list:
        return ([self.set_up] * (SETUP_REPEATS - 1)
                + [self.spawn] * IMPORT_PROBE_SPAWNS)

    def seconds(self) -> float:
        return min(self.import_times) + statistics.median(self.times)


def spread(*calls: list) -> list:
    """Merge lists of calls so that each list's calls are evenly spread."""
    placed = [((k + 0.5) / len(group), g, call)
              for g, group in enumerate(calls) for k, call in enumerate(group)]
    return [call for _, _, call in sorted(placed, key=lambda x: x[:2])]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(w, workload, args) -> dict:
    setup = Setup(w, workload, args.seed)
    loop = Loop(workload, w)
    probe = CliProbe(w, args.seed)
    # the probes are spread over the run, so they see the same machine as
    # the operations do
    loop.run_for(setup.ops, args.seconds,
                 spread(probe.interludes(), setup.interludes()))

    costs_ms = [x * 1000 for x in loop.costs()]
    runs_ms = [x * 1000 for x in loop.latencies]
    best_tail_ms, best_tail_pct = tail(costs_ms)
    tail_ms, tail_pct = tail(runs_ms)
    values = {
        "best_op_ms_p50": statistics.median(costs_ms),
        "best_op_ms_tail": best_tail_ms,
        "best_ops_per_s": 1000 * len(costs_ms) / sum(costs_ms),
        "setup_s": setup.seconds(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_process_ms_p50": statistics.median(probe.best_ms()),
    }
    attempted = len(loop.outcomes) + probe.spawns
    failed = loop.failed + probe.wrong
    runs = len(loop.outcomes)
    notes = {"best_op_ms_p50": f"over {len(costs_ms)} inputs, each its best of "
                               f"{runs / len(costs_ms):.1f} runs ({loop.memo_hits} "
                               "taken at their first run)",
             "best_op_ms_tail": f"p{best_tail_pct:.2f} over the same inputs",
             "best_ops_per_s": "inputs over the sum of their best runs",
             "setup_s": f"best of {IMPORT_PROBE_SPAWNS} fresh-process imports "
                        f"{min(setup.import_times):.3f} s + median of "
                        f"{SETUP_REPEATS} generate+warm-up",
             "cli_process_ms_p50": f"median over {len(probe.cases)} commands, "
                                   f"best of {CLI_PROBE_REPEATS} spawns each"}
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}")
    for name, unit in END_TO_END:
        print(f"  {name:20s} {values[name]:12.4f} {unit:4s}  {notes.get(name, '')}")
    # over every run, so they move with the machine's speed as well as the
    # program's; printed, but not reported as metrics
    print(f"  {'op_ms_p50':20s} {statistics.median(runs_ms):12.4f} ms    "
          f"over all {runs} runs")
    print(f"  {'op_ms_tail':20s} {tail_ms:12.4f} ms    p{tail_pct:.2f} over all "
          f"{runs} runs")
    print(f"  {'ops_per_s':20s} {runs / loop.seconds:12.4f} 1/s   {runs} runs in "
          f"{loop.seconds:.2f} s")
    print(f"  {'failed_frac':20s} {failed / attempted:12.4f}       "
          f"{failed} of {attempted} (budget misses "
          f"{sum(o == 'budget' for _, o in loop.outcomes)})")
    if workload.name == "dd-ladder":
        print(f"  {'ladder_top_dim':20s} {ladder_top_dim(loop.outcomes, w.LADDER_RUNGS, w.LADDER_PER_RUNG):12d} dim"
              f"   rungs {w.LADDER_RUNGS[0]}..{w.LADDER_RUNGS[-1]}, "
              f"{w.LADDER_PER_RUNG} instances each, budget {w.LADDER_BUDGET_S:g} s")
    return {"correct": loop.correct and setup.ok and probe.wrong == 0,
            "attempted": attempted, "failed": failed,
            "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END}}


def run_traced(w, workload, args) -> dict:
    from tracing import METRICS, Tracer

    setup = Setup(w, workload, args.seed)
    ops = setup.ops
    tracer = Tracer()
    traced, untraced = Loop(workload, w), Loop(workload, w)
    # each operation runs traced and then untraced, so both see the same
    # machine and the overhead is not swamped by the machine's swings
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < args.seconds:
        op = ops[i % len(ops)]
        tracer.install()
        try:
            traced.run_one(op)
        finally:
            tracer.uninstall()
        tracer.op += 1
        untraced.run_one(op)
        i += 1
    values = tracer.metrics(len(traced.outcomes))
    values["cli.import_ms"] = statistics.median(
        import_time() for _ in range(IMPORT_PROBE_SPAWNS)) * 1000
    values["trace.overhead_pct"] = 100 * (
        sum(traced.costs()) / sum(untraced.costs()) - 1)
    trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(trace_file)

    print(f"workload {workload.name}  seed {args.seed}  traced ops "
          f"{len(traced.outcomes)}  spans -> {trace_file}")
    for name, unit in METRICS:
        print(f"  {name:34s} {values[name]:14.4f} {unit}")
    loops = (traced, untraced)
    return {"correct": setup.ok and all(loop.correct for loop in loops),
            "attempted": sum(len(loop.outcomes) for loop in loops),
            "failed": sum(loop.failed for loop in loops),
            "metrics": {name: metric(values[name], unit) for name, unit in METRICS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fixtures", "sectors", "dd-ladder", "wide-fans"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: not inside a stackycones checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w  # imports stackycones

    workload = w.WORKLOADS[args.workload]
    result = (run_traced(w, workload, args) if args.trace
              else run_untraced(w, workload, args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
