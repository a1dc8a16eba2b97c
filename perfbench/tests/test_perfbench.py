"""Tests of the benchmark itself: transparent tracing, consistent self times,
the meaning of its counts, and checks that catch wrong answers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial

import pytest

import run
import workloads
from tracing import TASK_SPAN, Tracer, layer_points

from twep import verify
from twep.stabilizer import StabilizerSet, min_normalizer_weight
from twep.pauli import parse

SEED = 7
# Quick tasks of each workload; nine-pair and hamming-m7 take seconds each.
QUICK = {
    "verify-registry": lambda label: not label.startswith("nine-pair"),
    "verify-wide": lambda label: label.startswith("hamming-m6"),
    "greedy": lambda label: label in ("greedy-7-1", "greedy-6-2"),
    "distance": lambda label: "n12" not in label,
}


def quick_round(name, tracer=None):
    tasks = workloads.Workload(name, SEED).round(tracer)
    return [task for task in tasks if QUICK[name](task.label)]


def results_of(tasks, tracer=None):
    return [run.run_task(workloads, task, tracer, i)[1] for i, task in enumerate(tasks)]


def ledger_of(tasks, results):
    ledger = run.Ledger()
    for task, result in zip(tasks, results):
        ledger.record(task, result)
    return ledger


@pytest.fixture(scope="module", params=list(QUICK))
def both_runs(request):
    """One quick round of a workload, run untraced and traced on the same
    seed: (tasks, untraced results, traced results, tracer)."""
    name = request.param
    plain_tasks = quick_round(name)
    plain = results_of(plain_tasks)
    tracer = Tracer()
    traced_tasks = quick_round(name, tracer)
    with tracer.installed(layer_points(workloads)):
        traced = results_of(traced_tasks, tracer)
    return name, traced_tasks, plain, traced, tracer


def test_wrappers_are_transparent(both_runs):
    _, tasks, plain, traced, _ = both_runs
    for task, a, b in zip(tasks, plain, traced):
        assert task.verdict(a) == task.verdict(b) == []
        if isinstance(a, tuple) and hasattr(a[0], "to_text"):
            assert a[1] == b[1], task.label
            assert a[0].passed == b[0].passed
        else:
            assert a == b, task.label


def test_uninstall_restores_every_original():
    points = layer_points(workloads)
    before = [getattr(owner, attr) for owner, attr, _, _ in points]
    with Tracer().installed(points):
        during = [getattr(owner, attr) for owner, attr, _, _ in points]
    after = [getattr(owner, attr) for owner, attr, _, _ in points]
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, after))


def test_self_times_are_consistent(both_runs):
    _, tasks, _, _, tracer = both_runs
    own = tracer.self_times()
    assert min(own) > -1e-9
    roots = {}
    totals = [0.0] * len(tasks)
    for (name, start, end, _, task), self_s in zip(tracer.spans, own):
        totals[task] += self_s
        if name == TASK_SPAN:
            roots[task] = end - start
    assert sorted(roots) == list(range(len(tasks)))
    for task, duration in roots.items():
        assert totals[task] == pytest.approx(duration, rel=1e-9, abs=1e-9)


def test_simulate_calls_count_errors_checked(both_runs):
    name, _, _, traced, tracer = both_runs
    calls = tracer.summary().get("engine.simulate.calls", 0)
    if name.startswith("verify"):
        assert calls == sum(report.errors_checked for report, _ in traced)
    elif name == "greedy":
        # verify() simulates every error once and the step statistics
        # replay every error once more.
        checked = sum(json.loads(out)["errors_checked"] for _, out in traced)
        assert calls == 2 * checked
    else:
        assert calls == 0


@pytest.mark.parametrize("name,factory,k", workloads.REGISTRY)
def test_relabelled_protocol_verifies_like_the_original(name, factory, k):
    base = factory()
    perm = list(range(base.n))
    random.Random(name).shuffle(perm)
    for claimed in (base.k_claimed, base.k_claimed + 1):
        original = verify(replace(base, k_claimed=claimed))
        moved = verify(workloads.relabel(base, perm, claimed))
        assert (moved.errors_checked, moved.k_min, moved.passed) == (
            original.errors_checked,
            original.k_min,
            original.passed,
        )
        assert original.k_min == k
        assert sorted(
            (str(workloads.permute(c.hidden, perm)), c.reason) for c in original.counterexamples
        ) == sorted((str(c.hidden), c.reason) for c in moved.counterexamples)


def test_a_correct_round_has_no_failures(both_runs):
    _, tasks, plain, _, _ = both_runs
    ledger = ledger_of(tasks, plain)
    ledger.run_deferred()
    assert ledger.attempted == len(tasks)
    assert ledger.failed == {}


def test_a_wrong_expected_answer_counts_as_failed():
    tasks = [t for t in workloads.Workload("verify-registry", SEED).round()
             if t.label.startswith("hamming-m3")]
    wrong = [replace(t, check=partial(workloads.check_report, errors=22, k=4, passed=True))
             for t in tasks]
    ledger = ledger_of(wrong, results_of(wrong))
    assert ledger.attempted == 2
    assert len(ledger.failed) == 2


def test_a_wrong_oracle_answer_counts_as_failed():
    s = StabilizerSet(2, 4, [parse("XXXX", 2), parse("ZZZZ", 2)])
    task = workloads.Task("four-qubit", lambda: 1, lambda w: [],
                          later=partial(workloads._oracle, s))
    ledger = ledger_of([task], [1])
    assert not ledger.failed
    ledger.run_deferred()
    assert list(ledger.failed) == [0]


def test_a_raising_task_counts_as_failed():
    def boom():
        raise RuntimeError("boom")

    task = workloads.Task("boom", boom, lambda r: [])
    ledger = run.Ledger()
    scaled, wall = run.run_round(workloads, [task], ledger)
    assert scaled["boom"] > 0 and wall["boom"] > 0
    assert "raised RuntimeError" in ledger.failed[0][0]


@pytest.mark.parametrize("d,gens,distance", workloads.ANCHORS)
def test_anchor_distances(d, gens, distance):
    ops = [parse(g, d) for g in gens]
    s = StabilizerSet(d, ops[0].n, ops)
    assert workloads.brute_force_distance(s) == distance
    assert min_normalizer_weight(s) == distance


def test_closed_form_error_counts():
    assert workloads.count_errors_closed_form(6, 1, 2) == 19
    assert workloads.count_errors_closed_form(9, 2, 2) == 352
    assert workloads.count_errors_closed_form(4, 1, 3) == 33
    assert workloads.count_errors_closed_form(127, 1, 2) == 382


def test_inputs_follow_the_seed():
    def twin_text(seed):
        tasks = workloads.Workload("verify-registry", seed).round()
        (task,) = [t for t in tasks if t.label == "hamming-m3-twin"]
        return task.run()[1]

    assert twin_text(3) == twin_text(3)
    assert twin_text(3) != twin_text(4)


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "distance", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_twin_counts_are_compared_across_relabellings():
    w = workloads.Workload("verify-registry", SEED)
    twins = [t for t in w.round() + w.round() if t.label == "hamming-m4-twin"]
    checks = [t.later(t.run()) for t in twins]
    assert [c() for c in checks] == [[], []]
    lone = workloads.Workload("verify-registry", SEED)
    (twin,) = [t for t in lone.round() if t.label == "hamming-m4-twin"]
    report, text = twin.run()
    fewer = replace(report, counterexamples=report.counterexamples[1:])
    assert twin.later((fewer, text))() != []
