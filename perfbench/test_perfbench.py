"""Tests of the benchmark itself: seeded inputs, correctness gates, tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import argparse
import dataclasses
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as w  # noqa: E402

ROOT = HERE.parent


@pytest.mark.parametrize("name", sorted(w.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    generate = w.WORKLOADS[name].generate
    first = generate(ROOT, 7)
    assert generate(ROOT, 7) == first
    other = generate(ROOT, 8)
    assert other != first
    if name in ("fixtures", "dd-ladder"):  # fixed inputs, seeded order
        assert Counter(other) == Counter(first)
    if name == "sectors":  # fixed variants, seeded batches of b
        assert Counter(op[0] for op in other) == Counter(op[0] for op in first)


def _smallest(name, seed=1):
    workload = w.WORKLOADS[name]
    op = min(workload.generate(ROOT, seed), key=lambda op: len(repr(op)))
    result = workload.run(op)
    assert workload.check(op, result)
    return workload, op, result


def test_fixtures_gate_rejects_corruption():
    workload, op, (code, output) = _smallest("fixtures")
    assert not workload.check(op, (code, output + " "))
    assert not workload.check(op, (2, output))


def test_sectors_gate_rejects_corrupt_class():
    workload, op, (beta_prime, classes) = _smallest("sectors")
    cls = classes[0]
    bad = dataclasses.replace(cls, class_vector=(cls.class_vector[0] + 1,)
                              + cls.class_vector[1:])
    assert not workload.check(op, (beta_prime, (bad,) + classes[1:]))


def test_sectors_loop_counts_failed_xi_identity(monkeypatch):
    # a wrong Xi* makes build_xi's own identity check raise; the loop must
    # count that operation as failed and the run as incorrect
    workload, op, _ = _smallest("sectors")
    monkeypatch.setattr(w.orbcones, "unit_vector",
                        lambda dim, i: tuple(2 * int(j == i) for j in range(dim)))
    loop = run.Loop(workload, w)
    loop.run_one(op)
    assert loop.failed == 1 and not loop.correct


def test_dd_ladder_gate_rejects_corruption():
    workload, op, report = _smallest("dd-ladder")
    assert not workload.check(op, dataclasses.replace(report, equal=False))
    k = next(i for i, cls in enumerate(report.corollary_classes)
             if any(sum(c * g for c, g in zip(cls, gen)) > 0
                    for gen in report.mov_generators))
    classes = list(report.corollary_classes)
    classes[k] = tuple(-c for c in classes[k])
    assert not workload.check(op, dataclasses.replace(
        report, corollary_classes=tuple(classes)))


def test_wide_fans_gate_rejects_wrong_verdict():
    workload = w.WORKLOADS["wide-fans"]
    ops = workload.generate(ROOT, 1)
    valid = next(op for op in ops if op[0] == "valid")
    dropped = next(op for op in ops if op[0] == "dropped")
    valid_result, dropped_result = workload.run(valid), workload.run(dropped)
    assert workload.check(valid, valid_result)
    assert workload.check(dropped, dropped_result)
    assert not workload.check(("valid", dropped[1]), dropped_result)
    assert not workload.check(("dropped", valid[1]), valid_result)
    assert not workload.check(valid, (valid_result[0], None))


def test_budget_miss_is_a_failure_not_a_wrong_result(monkeypatch):
    workload, op, _ = _smallest("dd-ladder")
    monkeypatch.setattr(w.orbcones, "verify_duality", lambda fan: _spin())
    loop = run.Loop(dataclasses.replace(workload, budget_s=0.05), w)
    loop.run_one(op)
    assert loop.outcomes[0][1] == "budget"
    assert loop.failed == 1 and loop.correct
    assert run.ladder_top_dim(loop.outcomes, (op[0],), 1) == 0


def _spin():
    while True:
        pass


def test_memoised_repeat_is_not_taken_for_the_cost():
    # a program that caches results by input would make every repeat free;
    # the input's cost must then be its first run, which did the work
    done = set()

    def run_memoised(op):
        if op not in done:
            done.add(op)
            time.sleep(0.02)
        return op

    loop = run.Loop(w.Workload("memo", None, run_memoised, lambda op, r: True), w)
    loop.run_for(["a", "b"], 0.1)
    assert len(loop.outcomes) > 4 and loop.memo_hits == 2
    assert min(loop.costs()) >= 0.02


def test_tail_has_ten_samples_beyond_it():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)


def test_traced_sectors_run_makes_no_dd_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    original_dot = w.orbcones.dot
    args = argparse.Namespace(workload="sectors", seed=1, seconds=1.0, trace=1)
    result = run.run_traced(w, w.WORKLOADS["sectors"], args)
    metrics = result["metrics"]
    assert result["correct"] and result["failed"] == 0
    assert metrics["cones.dd_runs"]["value"] == 0
    assert metrics["orbcones.build_xi_ms"]["value"] > 0
    assert w.orbcones.dot is original_dot  # wrappers removed afterwards
    assert list(tmp_path.iterdir())


def test_refuses_to_run_outside_a_checkout(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "fixtures", "--seed", "1",
                     "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
