"""The summary arithmetic of ``tools/bench_pair.py``, on fixed numbers; no
benchmark runs."""

from __future__ import annotations

import importlib.util
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


def test_layer_changes_of_one_traced_run_per_side():
    parent = {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.5,
              "pauli.multiply.calls": 382, "failed": 0}
    change = {"kernels.best_splitter.calls": 40, "engine.verify.self_s": 0.2,
              "pauli.multiply.calls": 0, "failed": 0, "new.calls": 3}
    out = bench_pair.layer_changes(parent, change)
    assert list(out) == sorted(parent.keys() | change.keys())
    assert out["kernels.best_splitter.calls"] == {
        "parent": 40, "change": 40, "relative_change": 0.0}
    assert out["engine.verify.self_s"]["relative_change"] == -0.6
    assert out["pauli.multiply.calls"]["relative_change"] == -1.0
    # A zero parent value has no relative change; a missing metric reads 0.
    assert out["failed"] == {"parent": 0, "change": 0}
    assert out["new.calls"] == {"parent": 0, "change": 3}
