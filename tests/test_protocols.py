"""Tests for the built-in protocols and their claimed guarantees."""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from prop_checks import recorded_tree, tree_text

from twep import protocols
from twep.bounds import hamming_max_k, singleton_max_k
from twep.engine import simulate, verify
from twep.errorspace import check_size, enumerate_errors
from twep.pauli import parse, render
from twep.protocols import (
    get,
    hamming_family,
    names,
    nine_pair,
    qutrit_four,
    six_pair,
)
from twep.stabilizer import SizeLimitError

GOLDEN = Path(__file__).parent / "fixtures" / "golden"
WIDE_HAMMING = {"hamming-m6": 6, "hamming-m7": 7}


class TestSixPair:
    def test_exhaustive(self):
        report = verify(six_pair())
        assert report.passed
        assert report.errors_checked == 19
        assert report.k_min == 2

    def test_error_branch_discards_first_four(self):
        transcript = simulate(six_pair(), parse("IXIIII", 2))
        assert transcript.history.discards == (frozenset({0, 1, 2, 3}),)
        assert transcript.k_out == 2

    def test_measured_operators(self):
        transcript = simulate(six_pair(), parse("IIIIII", 2))
        ops = [render(op) for op, _ in transcript.history.entries]
        assert ops[:2] == ["XXXXII", "ZZZZII"]


class TestHammingFamily:
    @pytest.mark.parametrize(
        "m, checked, k",
        [(3, 22, 3), (4, 46, 10), (5, 94, 25)],
    )
    def test_exhaustive(self, m, checked, k):
        strategy = hamming_family(m)
        assert strategy.k_claimed == k
        report = verify(strategy)
        assert report.passed
        assert report.errors_checked == checked
        assert report.k_min >= k

    def test_rejects_degenerate_size(self):
        with pytest.raises(ValueError):
            hamming_family(2)

    @pytest.mark.parametrize("m", [14, 20])
    def test_refuses_a_walk_past_the_budget_before_building(self, monkeypatch, m):
        """The family gates itself, with ``check_size``'s message, before it
        builds an operator on 2^m - 1 pairs."""

        def built(*args):
            raise AssertionError("an operator was built")

        monkeypatch.setattr(protocols, "_from_planes", built)
        with pytest.raises(SizeLimitError) as refused:
            check_size(2**m - 1, 1, 2)
        start = time.perf_counter()
        with pytest.raises(SizeLimitError) as family:
            hamming_family(m)
        assert time.perf_counter() - start < 1.0
        assert str(family.value) == str(refused.value)

    def test_refuses_ten_million_in_under_a_second(self):
        """Below the pair-count gate the walk's estimate refuses: counting
        the errors computes no term past the last it returns, which at t = 1
        would be a product of two numbers of m bits."""
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match="enumeration of at least 2\\^"):
            hamming_family(10**7)
        assert time.perf_counter() - start < 1.0

    def test_refuses_a_pair_count_past_the_budget_before_computing_it(self):
        """At m = 10^12, 2^m - 1 alone would need about 116 GB."""
        start = time.perf_counter()
        with pytest.raises(SizeLimitError, match=f"the pair count 2\\^{10**12} - 1 needs"):
            hamming_family(10**12)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [3, 4])
    def test_at_most_m_plus_one_measurements_before_discard(self, m):
        strategy = hamming_family(m)
        for hidden in enumerate_errors(2**m - 1, 1, 2).members:
            transcript = simulate(strategy, hidden)
            if transcript.history.discards:
                # Count entries up to the discard expansion: the expansion
                # operators are supported inside the discarded registers.
                discarded = transcript.history.discards[0]
                pre = [
                    op
                    for op, _ in transcript.history.entries
                    if any(
                        (op.x[i] or op.z[i]) for i in range(op.n) if i not in discarded
                    )
                ]
                assert len(pre) <= m + 1
            else:
                assert len(transcript.history.entries) <= m + 1


class TestNinePair:
    def test_exhaustive(self):
        report = verify(nine_pair())
        assert report.passed
        assert report.errors_checked == 352
        assert report.k_min == 1

    def test_error_on_back_block_keeps_one(self):
        transcript = simulate(nine_pair(), parse("XIIIIIZII", 2))
        assert transcript.history.discards == (frozenset({5, 6, 7, 8}),)
        assert transcript.k_out == 1

    def test_error_only_on_front_block_keeps_two(self):
        transcript = simulate(nine_pair(), parse("IYIYIIIII", 2))
        assert transcript.history.discards == (frozenset({0, 1, 2, 3, 4}),)
        assert transcript.k_out == 2

    def test_undetected_back_pair_still_safe(self):
        transcript = simulate(nine_pair(), parse("IIIIIXXII", 2))
        assert transcript.history.discards == (frozenset({5, 6, 7, 8}),)
        assert transcript.k_out == 1

    def test_front_branch_always_yields_two(self):
        strategy = nine_pair()
        for hidden in enumerate_errors(9, 2, 2).members:
            transcript = simulate(strategy, hidden)
            outcomes = transcript.history.outcomes()
            if any(outcomes[:4]) and not any(outcomes[4:6]):
                assert transcript.k_out == 2, render(hidden)


class TestQutritFour:
    def test_exhaustive(self):
        report = verify(qutrit_four())
        assert report.passed
        assert report.errors_checked == 33
        assert report.k_min == 1

    def test_detection_branch(self):
        transcript = simulate(qutrit_four(), parse("I,X,I,I", 3))
        assert transcript.history.discards == (frozenset({0, 1, 2}),)
        assert transcript.k_out == 1

    def test_identity_branch(self):
        transcript = simulate(qutrit_four(), parse("I,I,I,I", 3))
        assert transcript.history.discards == (frozenset({3}),)
        assert transcript.k_out == 1

    def test_error_on_kept_then_discarded_register(self):
        transcript = simulate(qutrit_four(), parse("I,I,I,Z2", 3))
        assert transcript.history.discards == (frozenset({3}),)
        assert transcript.k_out == 1


class TestClaimsAgainstBounds:
    def test_six_pair_beats_packing_bound(self):
        assert six_pair().k_claimed > hamming_max_k(6, 1)

    def test_nine_pair_beats_packing_bound(self):
        assert nine_pair().k_claimed > hamming_max_k(9, 2)

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_hamming_family_beats_packing_bound(self, m):
        strategy = hamming_family(m)
        assert strategy.k_claimed > hamming_max_k(strategy.n, 1)

    def test_qutrit_beats_linear_bound(self):
        assert qutrit_four().k_claimed > singleton_max_k(4, 1)


class TestRegistry:
    def test_names(self):
        assert names() == [
            "six-pair",
            "hamming-m3",
            "hamming-m4",
            "hamming-m5",
            "nine-pair",
            "qutrit-four",
        ]

    def test_lookup_carries_claim(self):
        strategy = get("nine-pair")
        assert strategy.k_claimed == 1
        assert strategy.name == "nine-pair"

    def test_unknown_name(self):
        with pytest.raises(KeyError) as raised:
            get("no-such")
        assert raised.value.args == ("no-such",)

    @pytest.mark.parametrize("name", names() + list(WIDE_HAMMING))
    def test_tree_matches_its_golden_fixture(self, name):
        """Which operator every node measures and which registers it
        discards, not just the passing report.  Hamming m = 6 and 7 are the
        benchmark's widest bisections outside the registry."""
        wide = WIDE_HAMMING.get(name)
        strategy = get(name) if wide is None else hamming_family(wide)
        golden = GOLDEN / f"protocol_tree_{name}.txt"
        assert tree_text(recorded_tree(strategy)) == golden.read_text()
