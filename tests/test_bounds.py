"""Tests for the closed-form bounds, the threshold sequence, and rate curves."""

from __future__ import annotations

import math
from dataclasses import astuple

import pytest
from prop_checks import (
    bounds_row_reference,
    count_errors_reference,
    mi_sequence_reference,
)

from twep.bounds import (
    bounds_table,
    gv_k,
    hamming_max_k,
    mi_sequence,
    rate_table,
    singleton_max_k,
    thm2_k,
)
from twep.errorspace import count_errors, error_counts

MI_FIRST_TEN = [1, 2, 4, 7, 12, 21, 37, 67, 124, 234]


class TestHamming:
    def test_two_error_threshold_at_ten(self):
        assert hamming_max_k(10, 2) == 1
        assert hamming_max_k(9, 2) == -1

    def test_no_errors_keeps_everything(self):
        for n in (1, 5, 12):
            assert hamming_max_k(n, 0) == n

    def test_six_registers_one_error(self):
        # 2^2 * 19 = 76 > 64, 2^1 * 19 = 38 <= 64.
        assert hamming_max_k(6, 1) == 1

    def test_monotone_in_n_and_t(self):
        for t in range(0, 4):
            values = [hamming_max_k(n, t) for n in range(max(1, t), 25)]
            assert values == sorted(values)
        for n in (8, 12, 20):
            values = [hamming_max_k(n, t) for t in range(0, n + 1)]
            assert values == sorted(values, reverse=True)


class TestSingleton:
    def test_five_registers_one_error(self):
        assert singleton_max_k(5, 1) == 1

    def test_four_registers_one_error(self):
        assert singleton_max_k(4, 1) == 0

    def test_no_errors(self):
        assert singleton_max_k(9, 0) == 9

    def test_negative_sentinel(self):
        assert singleton_max_k(3, 1) == -1


class TestGv:
    def test_nine_one(self):
        # 2^9 = 512 >= 352 but 2^8 = 256 < 352.
        assert count_errors(9, 2, 2) == 352
        assert gv_k(9, 1) == 0

    def test_no_errors(self):
        assert gv_k(7, 0) == 7

    def test_precondition(self):
        with pytest.raises(ValueError):
            gv_k(5, 3)


class TestThm2:
    def test_twenty_one(self):
        assert count_errors(20, 1, 2) == 61
        assert thm2_k(20, 1) == 12

    def test_no_errors_costs_two(self):
        for n in (3, 10):
            assert thm2_k(n, 0) == n - 2

    def test_nine_two_is_vacuous(self):
        assert thm2_k(9, 2) < 0

    def test_fifty_five_beats_gv(self):
        assert gv_k(50, 5) < thm2_k(50, 5)

    def test_dominates_gv_on_grid(self):
        for n in range(4, 61):
            for t in range(1, n // 4 + 1):
                assert thm2_k(n, t) >= gv_k(n, t), (n, t)


class TestAgainstTheLoops:
    def test_table_and_bounds_match_the_reference_on_every_small_grid_point(self):
        """Every 1 <= n <= 120, 0 <= t <= n: the table's rows, and each
        bound alone, against one binomial sum per count and the k loop."""
        grid = range(0, 121)
        rows = bounds_table(list(grid[1:]), list(grid))
        expected = [
            bounds_row_reference(n, t) for n in grid[1:] for t in grid[: n + 1]
        ]
        assert [astuple(r) for r in rows] == expected
        for ts in ([1], [3, 2], [5, 0, 5]):
            narrow = bounds_table(list(grid[1:]), ts)
            expected_ts = [
                bounds_row_reference(n, t) for n in grid[1:] for t in ts if t <= n
            ]
            assert [astuple(r) for r in narrow] == expected_ts, ts
        for n, t, hamming, _, gv, thm2 in expected:
            assert hamming_max_k(n, t) == hamming, (n, t)
            assert thm2_k(n, t) == thm2, (n, t)
            if gv is not None:
                assert gv_k(n, t) == gv, (n, t)

    @pytest.mark.parametrize("d", [2, 3])
    def test_counts_match_the_binomial_sums(self, d):
        for n in range(0, 40):
            counts = error_counts(n, n + 2, d)
            for t in range(-2, n + 3):
                expected = count_errors_reference(n, t, d)
                assert count_errors(n, t, d) == expected, (n, t)
                if t >= 0:
                    assert counts[t] == expected, (n, t)


class TestMiSequence:
    def test_first_ten(self):
        assert mi_sequence(10) == MI_FIRST_TEN

    def test_base_case(self):
        assert mi_sequence(1) == [1]

    def test_power_of_two_bracket(self):
        seq = mi_sequence(41)
        for i in range(8, 41):
            assert 2 ** (i - 2) <= seq[i] <= 2 ** (i - 1), i

    def test_growth_sandwich(self):
        seq = mi_sequence(40)
        for i in range(len(seq) - 1):
            upper = 2 * seq[i]
            lower = 2 * seq[i] - math.isqrt(2 * seq[i]) - 1
            assert lower <= seq[i + 1] <= upper, i

    def test_closed_form_equals_the_binary_search(self):
        reference = mi_sequence_reference(400)
        for length in range(1, 401):
            assert mi_sequence(length) == reference[:length], length

    def test_defining_inequality_is_tight(self):
        seq = mi_sequence(30)
        for prev, cur in zip(seq, seq[1:]):
            bound = 2 * prev + 2
            assert cur <= (bound - cur) ** 2
            assert (cur + 1) > bound or (cur + 1) > (bound - cur - 1) ** 2


class TestRates:
    def test_zero_error_endpoint(self):
        table = rate_table(51)
        assert table[0].x == 0.0
        assert table[0].rate_2epp == 1.0
        assert table[0].rate_gv == 1.0

    def test_ten_percent_point(self):
        table = rate_table(51)
        point = table[10]
        assert point.x == pytest.approx(0.1)
        assert point.rate_2epp == pytest.approx(0.3725, abs=1e-3)
        assert point.rate_gv == 0.0

    def test_two_way_curve_dominates(self):
        from twep.bounds import one_way_gv_rate_raw, two_way_rate_raw

        table = rate_table(101)
        for point in table:
            if 0.0 < point.x <= 0.25:
                assert two_way_rate_raw(point.x) > one_way_gv_rate_raw(point.x)
                if point.rate_2epp > 0.0:
                    assert point.rate_2epp > point.rate_gv, point.x

    def test_monotone_non_increasing(self):
        table = rate_table(200)
        for a, b in zip(table, table[1:]):
            assert a.rate_2epp >= b.rate_2epp
            assert a.rate_gv >= b.rate_gv

    def test_clamped_to_unit_interval(self):
        for point in rate_table(500):
            assert 0.0 <= point.rate_2epp <= 1.0
            assert 0.0 <= point.rate_gv <= 1.0

    def test_points_precondition(self):
        with pytest.raises(ValueError):
            rate_table(1)


class TestNegativeT:
    @pytest.mark.parametrize("bound", [hamming_max_k, singleton_max_k, gv_k, thm2_k])
    @pytest.mark.parametrize("t", [-1, -2])
    def test_raises(self, bound, t):
        with pytest.raises(ValueError):
            bound(3, t)

    @pytest.mark.parametrize("bound", [hamming_max_k, singleton_max_k, gv_k, thm2_k])
    def test_t_above_n_raises(self, bound):
        with pytest.raises(ValueError):
            bound(3, 5)

    def test_table_skips_negative_t(self):
        assert bounds_table([2, 3], [-2, -1]) == []
        rows = bounds_table([2, 3], [-2, -1, 0])
        assert [(r.n, r.t) for r in rows] == [(2, 0), (3, 0)]


class TestSerialization:
    def test_grid_order_n_major(self):
        rows = bounds_table([5, 6], [1, 2])
        assert [(r.n, r.t) for r in rows] == [(5, 1), (5, 2), (6, 1), (6, 2)]
