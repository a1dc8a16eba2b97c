"""The summary arithmetic and line count of ``tools/bench_pair.py``, on fixed
numbers and files; no benchmark runs."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def test_summary_quartiles_wins_and_relative_change():
    parent = [0.50, 0.60, 0.55, 0.58, 0.52]
    change = [0.30, 0.60, 0.25, 0.28, 0.26]
    out = bench_pair.summarize(parent, change)
    assert out["parent"] == {"q1": 0.52, "median": 0.55, "q3": 0.58}
    assert out["change"] == {"q1": 0.26, "median": 0.28, "q3": 0.30}
    # Pair 1 is a tie and counts for neither side.
    assert out["change_wins"] == 4
    assert out["pairs"] == 5
    assert out["relative_change"] == round((0.28 - 0.55) / 0.55, 4)


def test_summary_zero_medians():
    zeros = bench_pair.summarize([0, 0, 0], [0, 1, 0])
    assert zeros["change_wins"] == 0
    assert "relative_change" not in zeros
    assert zeros["parent"] == {"q1": 0, "median": 0, "q3": 0}


def test_claim_needs_nine_in_ten_wins_and_a_gap_past_the_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    faster = [0.5] * 10
    assert bench_pair.claim_holds(bench_pair.summarize(parent, faster))["holds"]
    # Eight wins of ten.
    two_lost = faster[:8] + [1.5, 1.5]
    verdict = bench_pair.claim_holds(bench_pair.summarize(parent, two_lost))
    assert (verdict["change_wins"], verdict["holds"]) == (8, False)
    # Ten wins, but a gap inside the parent's spread.
    close = [p - 0.01 for p in parent]
    assert not bench_pair.claim_holds(bench_pair.summarize(parent, close))["holds"]


def test_summary_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        bench_pair.summarize([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        bench_pair.summarize([], [])


def test_seed_ranges():
    assert bench_pair.parse_seeds("31-33") == [31, 32, 33]
    assert bench_pair.parse_seeds("7") == [7]


def test_layer_changes_compare_the_medians_of_the_traced_runs():
    parent = [
        {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.5,
         "pauli.multiply.calls": 382, "failed": 0},
        {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.9,
         "pauli.multiply.calls": 382, "failed": 0},
        {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.4,
         "pauli.multiply.calls": 382, "failed": 0},
    ]
    change = [
        {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.2,
         "pauli.multiply.calls": 0, "failed": 0},
        {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.1, "failed": 0,
         "new.calls": 3},
        {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.6,
         "pauli.multiply.calls": 0, "failed": 0, "new.calls": 5},
    ]
    out = bench_pair.layer_changes(parent, change)
    assert list(out) == ["engine.verify.self_s", "failed", "kernels.best_splitter.calls",
                         "new.calls", "pauli.multiply.calls"]
    assert out["kernels.best_splitter.calls"] == {
        "parent": {"runs": [40, 40, 40], "median": 40},
        "change": {"runs": [40, 40, 40], "median": 40},
        "relative_change": 0.0}
    # Medians 0.5 and 0.2: the outlying 0.9 and 0.6 do not move them.
    verify = out["engine.verify.self_s"]
    assert verify["parent"] == {"runs": [0.5, 0.9, 0.4], "median": 0.5}
    assert verify["change"]["median"] == 0.2
    assert verify["relative_change"] == -0.6
    # A zero parent median has no relative change; a missing metric reads 0.
    assert "relative_change" not in out["failed"]
    assert out["new.calls"]["parent"] == {"runs": [0, 0, 0], "median": 0}
    assert out["new.calls"]["change"] == {"runs": [0, 3, 5], "median": 3}
    assert "relative_change" not in out["new.calls"]
    # A metric gone from the change (zero or missing in each run) reads -1.
    multiply = out["pauli.multiply.calls"]
    assert multiply["parent"] == {"runs": [382, 382, 382], "median": 382}
    assert multiply["change"] == {"runs": [0, 0, 0], "median": 0}
    assert multiply["relative_change"] == -1.0


def test_src_lines_counts_the_package_modules_only(tmp_path):
    package = tmp_path / "src" / "twep"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("one\ntwo\n")
    (package / "b.py").write_text("three\nfour\nfive\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "c.py").write_text("not counted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("not counted\n")
    assert bench_pair.src_lines(tmp_path) == 5
    assert bench_pair.src_lines(tmp_path / "tests") == 0


def test_the_record_keeps_each_runs_wall_times_in_pair_order(tmp_path, monkeypatch):
    """Every run's scaled values beside its unscaled wall times, pair i at
    index i of each side; the record names no kernel backend.  The runs
    and the git calls are stubbed, so no benchmark runs."""
    calls = []

    def run_once(tree, workload, seed, seconds, trace=0):
        side = tree.name
        calls.append((side, seed, trace))
        scaled = seed + (0.5 if side == "change" else 0.0)
        values = {name: scaled for name in bench_pair.METRICS}
        return values, {"wall": {"batch_s": 10 * scaled}, "kernel_backend": "python"}

    monkeypatch.setattr(bench_pair, "run_once", run_once)
    monkeypatch.setattr(bench_pair, "git", lambda *args, binary=False: "")
    monkeypatch.setattr(bench_pair, "export_parent", lambda ref, target: None)
    monkeypatch.setattr(bench_pair, "export_working_tree", lambda target: None)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", "HEAD", "--workload", "w", "--seeds", "1-4", "--out", str(out)]
    assert bench_pair.main(argv) == 0

    # Pair 1 runs the change first.
    assert [c[:2] for c in calls if not c[2]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    # Three traced runs per side, on the first three seeds, sides alternated.
    assert [c[:2] for c in calls if c[2]] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3)]
    record = json.loads(out.read_text())
    layer = record["per_layer"]["w"]["batch_s"]
    assert layer["parent"] == {"runs": [1, 2, 3], "median": 2}
    assert layer["change"] == {"runs": [1.5, 2.5, 3.5], "median": 2.5}
    assert layer["relative_change"] == 0.25
    assert "kernel_backend" not in record
    entry = record["end_to_end"]["w"]
    assert entry["batch_s"]["parent"]["median"] == 2.5
    for side, offset in (("parent", 0.0), ("change", 0.5)):
        assert [run["wall"] for run in entry["runs"][side]] == [
            {"batch_s": 10 * (seed + offset)} for seed in (1, 2, 3, 4)]
        assert [run["values"]["batch_s"] for run in entry["runs"][side]] == [
            seed + offset for seed in (1, 2, 3, 4)]
