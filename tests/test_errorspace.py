"""Tests for error enumeration, filtering, and coset grouping."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twep
from twep import errorspace
from twep.errorspace import (
    BYTES_PER_ERROR,
    MAX_WALK_BYTES,
    ErrorSet,
    base_errors,
    check_size,
    coset_classes,
    count_errors,
    enumerate_errors,
    filter_by_outcome,
)
from twep.pauli import PauliVec, canonical_key, parse, symplectic_product, weight
from twep.stabilizer import SizeLimitError, StabilizerSet


class TestCounting:
    @pytest.mark.parametrize(
        "n, t, d, expected",
        [
            (7, 1, 2, 22),
            (9, 2, 2, 352),
            (4, 1, 3, 33),
            (6, 1, 2, 19),
            (15, 1, 2, 46),
            (31, 1, 2, 94),
            (11, 0, 2, 1),
        ],
    )
    def test_closed_form(self, n, t, d, expected):
        assert count_errors(n, t, d) == expected

    def test_enumeration_matches_count(self):
        for n in range(1, 11):
            for t in range(0, min(n, 3) + 1):
                for d in (2, 3):
                    got = enumerate_errors(n, t, d)
                    assert len(got.members) == count_errors(n, t, d), (n, t, d)

    def test_cap_enforced(self, monkeypatch):
        """The walk-size gate refuses before any error is built."""

        def built(*args):
            raise AssertionError("an error was built")

        monkeypatch.setattr(errorspace, "_from_planes", built)
        with pytest.raises(SizeLimitError, match="^enumeration of 49150 errors "):
            enumerate_errors(2**14 - 1, 1)

    def test_walk_gate_admits_hamming_m13_and_rejects_m14(self):
        check_size(2**12 - 1, 1)
        assert check_size(2**13 - 1, 1) == 24574 * (BYTES_PER_ERROR + 3 * 1024)
        with pytest.raises(SizeLimitError, match="912718 errors on 12 registers"):
            check_size(12, 6)
        with pytest.raises(
            SizeLimitError,
            match="49150 errors on 16383 registers needs about 323 MB; the limit is 128 MB",
        ):
            check_size(2**14 - 1, 1)
        # The gate refuses exactly where the estimate passes the limit.
        for d, per_8 in ((2, 3), (3, 6)):
            for n in range(65):
                for t in range(n + 1):
                    total = count_errors(n, t, d)
                    estimate = total * (BYTES_PER_ERROR + per_8 * -(-n // 8))
                    if estimate > MAX_WALK_BYTES:
                        with pytest.raises(SizeLimitError, match=f"of {total} errors"):
                            check_size(n, t, d)
                    else:
                        assert check_size(n, t, d) == estimate


# One walk in a fresh interpreter, which prints its peak RSS in kB: VmHWM,
# the high-water mark of its own address space.  (ru_maxrss would not do:
# Linux carries the parent's peak across fork and exec.)  "baseline" only
# imports twep, "hamming M" verifies the bisection family and "discard K D N
# T" a strategy that discards registers 0..K-1, then finishes.
_PEAK = """
import sys
from twep import Discard, Finish, Strategy, hamming_family, verify
kind, *args = sys.argv[1:]
if kind == "hamming":
    verify(hamming_family(int(args[0])))
elif kind == "discard":
    k, d, n, t = map(int, args)
    drop = frozenset(range(k))
    verify(Strategy(d, n, t, 0, lambda h: Finish() if h.discards else Discard(drop)))
print(next(line.split()[1] for line in open("/proc/self/status") if "VmHWM" in line))
"""


def _peak_bytes(*walk: str) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(twep.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", _PEAK, *walk], env=env, capture_output=True, check=True
    )
    return int(out.stdout) * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_gate_estimate_bounds_the_measured_peak():
    """Each admitted walk's peak RSS above an interpreter that has imported
    twep stays within ``check_size``'s estimate."""
    baseline = _peak_bytes("baseline")
    for walk, (n, t, d) in [
        (("hamming", "10"), (2**10 - 1, 1, 2)),
        (("hamming", "12"), (2**12 - 1, 1, 2)),
        (("discard", "9", "2", "12", "4"), (12, 4, 2)),
    ]:
        assert _peak_bytes(*walk) - baseline <= check_size(n, t, d), walk


class TestEnumerationOrder:
    def test_identity_first(self):
        errors = enumerate_errors(5, 2, 2)
        assert errors.members[0].is_identity

    def test_weight_major_key_minor(self):
        errors = enumerate_errors(5, 2, 2)
        keys = [(weight(e), canonical_key(e)) for e in errors.members]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_weight_bound_respected(self):
        errors = enumerate_errors(6, 2, 2)
        assert all(weight(e) <= 2 for e in errors.members)

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 3]), n=st.integers(0, 8), t=st.integers(0, 2))
    def test_strictly_increasing_in_weight_then_key(self, d, n, t):
        """What makes a Finish leaf's first error its least (weight, key)
        member, the correction ``verify`` reports."""
        assume(t <= n)
        members = enumerate_errors(n, t, d).members
        keys = [(weight(e), canonical_key(e)) for e in members]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(members) == count_errors(n, t, d)
        assert all(weight(e) <= t for e in members)

    @pytest.mark.parametrize("t", [-2, -1, 4])
    def test_weight_bound_outside_0_to_n_is_refused(self, t):
        """A negative bound used to enumerate the identity alone, though
        ``count_errors`` counts no error for it."""
        assert count_errors(3, -1) == 0
        message = rf"^weight bound t={t} lies outside 0\.\.3$"
        with pytest.raises(ValueError, match=message):
            enumerate_errors(3, t)
        with pytest.raises(ValueError):
            base_errors(2, 3, t)

    def test_gate_refuses_before_any_plane_is_built(self, monkeypatch):
        def built(*args):
            raise AssertionError("an error was built")

        monkeypatch.setattr(errorspace, "_from_planes", built)
        with pytest.raises(SizeLimitError):
            enumerate_errors(2**14 - 1, 1)


class TestFilter:
    def test_brute_force_agreement_on_four_register_parity(self):
        errors = enumerate_errors(4, 1, 2)
        m = parse("XXXX", 2)
        kept = filter_by_outcome(errors, m, 0)
        # Oracle: direct commutation scan.
        expected = [e for e in errors.members if symplectic_product(m, e) == 0]
        assert list(kept.members) == expected
        assert [str(e) for e in kept.members] == [
            "IIII",
            "XIII",
            "IXII",
            "IIXI",
            "IIIX",
        ]

    def test_identity_measurement_keeps_all(self):
        errors = enumerate_errors(3, 1, 2)
        kept = filter_by_outcome(errors, PauliVec.identity(2, 3), 0)
        assert kept.members == errors.members

    def test_identity_measurement_nonzero_outcome_empties(self):
        errors = enumerate_errors(3, 1, 2)
        kept = filter_by_outcome(errors, PauliVec.identity(2, 3), 1)
        assert kept.members == ()

    def test_outcome_classes_partition(self):
        for d, m_text in ((2, "XYZI"), (3, "X,Z2,XZ,I")):
            errors = enumerate_errors(4, 1, d)
            m = parse(m_text, d)
            parts = [filter_by_outcome(errors, m, o).members for o in range(d)]
            assert sum(len(p) for p in parts) == len(errors.members)
            assert set().union(*[set(p) for p in parts]) == set(errors.members)

    def test_commuting_plus_anticommuting_total(self):
        errors = enumerate_errors(5, 2, 2)
        m = parse("XZXZX", 2)
        c = len(filter_by_outcome(errors, m, 0).members)
        a = len(filter_by_outcome(errors, m, 1).members)
        assert c + a == len(errors.members)


class TestCosetClasses:
    def test_degenerate_pair_merges(self):
        s = StabilizerSet(
            2, 4, [parse(g, 2) for g in ("XXXX", "ZZZZ", "XXII", "ZZII")]
        )
        members = (parse("YIII", 2), parse("IYII", 2))
        errors = ErrorSet(2, 4, members)
        partition = coset_classes(errors, s)
        assert partition.is_single_class
        assert partition.representatives[0] == parse("YIII", 2)

    def test_empty_stabilizer_keeps_singletons(self):
        errors = enumerate_errors(4, 1, 2)
        partition = coset_classes(errors, StabilizerSet(2, 4))
        assert len(partition.classes) == len(errors.members)

    def test_distinct_cosets_stay_apart(self):
        s = StabilizerSet(
            2, 4, [parse(g, 2) for g in ("XXXX", "ZZZZ", "XXII", "ZZII")]
        )
        members = (parse("XIII", 2), parse("ZIII", 2))
        errors = ErrorSet(2, 4, members)
        assert len(coset_classes(errors, s).classes) == 2

    def test_enlarging_stabilizer_coarsens(self):
        errors = enumerate_errors(4, 1, 2)
        small = StabilizerSet(2, 4, [parse("XXXX", 2)])
        large = small.extend(parse("ZZZZ", 2)).extend(parse("XXII", 2))
        p_small = coset_classes(errors, small)
        p_large = coset_classes(errors, large)
        assert len(p_large.classes) <= len(p_small.classes)
        # Every small class sits inside one large class.
        locate = {}
        for idx, cls in enumerate(p_large.classes):
            for e in cls:
                locate[e] = idx
        for cls in p_small.classes:
            assert len({locate[e] for e in cls}) == 1

    def test_representative_minimizes_weight_then_key(self, four_qubit_code):
        s = four_qubit_code.extend(parse("XXII", 2)).extend(parse("ZZII", 2))
        errors = ErrorSet(2, 4, (parse("YYII", 2), parse("IIII", 2)))
        partition = coset_classes(errors, s)
        assert partition.is_single_class
        assert partition.representatives[0].is_identity
