"""Tests for the adaptive execution engine and the exhaustive verifier."""

from __future__ import annotations

import pytest

from prop_checks import scripted
from twep.engine import (
    Discard,
    EmptyCandidates,
    Finish,
    History,
    IllegalMeasurement,
    Measure,
    NonTerminationError,
    RedundantMeasurement,
    Strategy,
    UnsoundFinish,
    generic_correction,
    simulate,
    verify,
)
from twep.pauli import PauliVec, parse, render
from twep.protocols import hamming_family, nine_pair, six_pair
from twep.stabilizer import StabilizerSet


class TestSimulateWorkedExamples:
    def test_bisection_branch_transcript(self):
        transcript = simulate(hamming_family(3), parse("IIYIIII", 2))
        ops = [render(op) for op, _ in transcript.history.entries]
        outs = list(transcript.history.outcomes())
        assert ops[:3] == ["XXXXXXX", "XXXXIII", "XXIIIII"]
        assert outs[:3] == [1, 1, 0]
        assert transcript.history.discards == (frozenset({2, 3}),)
        assert transcript.k_out == 3

    def test_parity_check_branch_transcript(self):
        transcript = simulate(hamming_family(3), parse("IIIIXII", 2))
        ops = [render(op) for op, _ in transcript.history.entries]
        outs = list(transcript.history.outcomes())
        assert ops == ["XXXXXXX", "ZZZZIII", "ZZIIZZI", "ZIZIZIZ"]
        assert outs == [0, 0, 1, 1]
        assert render(transcript.correction) == "IIIIXII"
        assert transcript.k_out == 3

    def test_six_pair_identity_keeps_two(self):
        transcript = simulate(six_pair(), PauliVec.identity(2, 6))
        assert list(transcript.history.outcomes())[:2] == [0, 0]
        assert transcript.history.discards == (frozenset({4, 5}),)
        assert transcript.k_out == 2
        assert transcript.correction.is_identity

    def test_six_pair_error_on_discarded_register(self):
        transcript = simulate(six_pair(), parse("IIIIZI", 2))
        assert transcript.history.discards == (frozenset({4, 5}),)
        assert transcript.k_out == 2

    def test_determinism(self):
        a = simulate(nine_pair(), parse("XIIIIIZII", 2))
        b = simulate(nine_pair(), parse("XIIIIIZII", 2))
        assert a.to_text() == b.to_text()

    def test_weight_precondition(self):
        with pytest.raises(ValueError):
            simulate(six_pair(), parse("XXIIII", 2))

    def test_dimension_precondition(self):
        with pytest.raises(ValueError):
            simulate(six_pair(), parse("XIIII", 2))


class TestGenericCorrection:
    def test_degenerate_survivors_share_a_class(self):
        gens = [parse(g, 2) for g in ("XXXXII", "ZZZZII", "XXIIII", "ZZIIII")]
        s = StabilizerSet(2, 6, gens)
        history = History()
        for op in gens:
            history = history.with_entry(op, (1, 1, 1, 1)[len(history)])
        correction = generic_correction(s, history, t=1, d=2)
        assert render(correction) == "YIIIII"

    def test_no_errors_allowed_yields_identity(self):
        s = StabilizerSet(2, 3)
        assert generic_correction(s, History(), t=0, d=2).is_identity

    def test_qutrit_representative_has_minimal_key(self):
        ops = (
            PauliVec(3, 4, (1, 1, 1, 0), (0, 0, 0, 0)),
            PauliVec(3, 4, (0, 0, 0, 0), (1, 1, 1, 0)),
            PauliVec.from_sites(3, 4, {3: (1, 0)}),
        )
        s = StabilizerSet(3, 4, ops)
        history = History()
        hidden = parse("I,I,I,Z", 3)
        from twep.pauli import symplectic_product

        for op in ops:
            history = history.with_entry(op, symplectic_product(op, hidden))
        correction = generic_correction(s, history, t=1, d=3)
        assert render(correction) == "I,I,I,Z"

    def test_unsound_finish_detected(self):
        s = StabilizerSet(2, 2)
        with pytest.raises(UnsoundFinish):
            generic_correction(s, History(), t=1, d=2)

    def test_empty_candidates_detected(self):
        s = StabilizerSet(2, 2, [parse("XX", 2)])
        history = History().with_entry(parse("XX", 2), 1)
        with pytest.raises(EmptyCandidates):
            generic_correction(s, history, t=0, d=2)


class TestSimulateValidation:
    def test_illegal_measurement(self):
        steps = [Measure(parse("XI", 2)), Measure(parse("ZI", 2))]
        with pytest.raises(IllegalMeasurement):
            simulate(scripted(2, 2, 0, steps), PauliVec.identity(2, 2))

    def test_redundant_measurement(self):
        steps = [Measure(parse("XI", 2)), Measure(parse("XI", 2))]
        with pytest.raises(RedundantMeasurement):
            simulate(scripted(2, 2, 0, steps), PauliVec.identity(2, 2))

    def test_unsound_finish_propagates(self):
        with pytest.raises(UnsoundFinish):
            simulate(scripted(2, 3, 1, [Finish()]), PauliVec.identity(2, 3))

    @pytest.mark.parametrize("d, n", [(3, 2), (2, 3)], ids=["d-only", "n-only"])
    def test_hidden_error_of_other_dimensions_is_refused(self, d, n):
        """A mismatch on d alone, or on n alone, is refused up front."""
        with pytest.raises(ValueError, match="does not match the strategy dimensions"):
            simulate(scripted(2, 2, 0, [Finish()]), PauliVec.identity(d, n))

    def test_nontermination_guard(self):
        def forever(history: History):
            return Discard(frozenset({0}))

        looping = Strategy(d=2, n=3, t=0, k_claimed=0, next=forever)
        with pytest.raises(NonTerminationError):
            simulate(looping, PauliVec.identity(2, 3))


class TestVerify:
    def test_six_pair_report(self):
        report = verify(six_pair())
        assert report.errors_checked == 19
        assert report.k_min == 2
        assert report.passed
        assert report.counterexamples == ()

    def test_overclaiming_strategy_fails(self):
        base = six_pair()
        greedy_claim = Strategy(
            d=2, n=6, t=1, k_claimed=3, next=base.next, name="overclaim"
        )
        report = verify(greedy_claim)
        assert not report.passed
        assert report.k_min == 2
        assert all(
            "below claimed" in c.reason for c in report.counterexamples
        )

    def test_unsound_strategy_is_reported_not_raised(self):
        def finish_now(history: History):
            return Finish()

        bad = Strategy(d=2, n=3, t=1, k_claimed=0, next=finish_now)
        report = verify(bad)
        assert not report.passed
        assert report.errors_checked == 10
        assert any("UnsoundFinish" in c.reason for c in report.counterexamples)

    def test_report_serialization_shape(self):
        report = verify(six_pair())
        data = report.to_dict()
        assert set(data) == {"errors_checked", "k_min", "pass", "counterexamples"}
        assert data["pass"] is True
        assert data["counterexamples"] == []


class TestTranscriptFormat:
    def test_line_shapes(self):
        transcript = simulate(six_pair(), parse("IXIIII", 2))
        lines = transcript.to_lines()
        import json

        for line in lines[:-1]:
            record = json.loads(line)
            assert set(record) == {"op", "outcome"}
        final = json.loads(lines[-1])
        assert set(final) == {"correction", "k_out"}
