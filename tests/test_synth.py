"""Tests for splitter selection and greedy strategy synthesis."""

from __future__ import annotations

import random
from itertools import product
from math import comb

import pytest
from prop_checks import average_separated_pairs, random_stabilizer

from twep.bounds import mi_sequence
from twep.engine import Finish, Measure, simulate
from twep.errorspace import (
    ErrorSet,
    base_errors,
    coset_classes,
    enumerate_errors,
    filter_by_outcome,
)
from twep.pauli import (
    PauliVec,
    canonical_key,
    multiply,
    parse,
    render,
    symplectic_product,
)
from twep.stabilizer import SizeLimitError, StabilizerSet
from twep.synth import (
    NoSeparatorError,
    choose_generator,
    greedy_step_stats,
    greedy_strategy,
    split_counts,
    _synthesize,
)


class TestSplitCounts:
    def test_identity_commutes_with_everything(self):
        errors = enumerate_errors(3, 1, 2)
        split = split_counts(PauliVec.identity(2, 3), errors)
        assert (split.commuting, split.anticommuting) == (len(errors.members), 0)
        assert split.separated_pairs == 0

    def test_perfect_split_of_four(self):
        errors = ErrorSet(2, 1, tuple(parse(s, 2) for s in ("I", "X", "Y", "Z")))
        split = split_counts(parse("X", 2), errors)
        assert (split.commuting, split.anticommuting) == (2, 2)
        assert split.separated_pairs == 4
        assert split.max_side == 2

    def test_two_register_example(self):
        errors = enumerate_errors(2, 1, 2)
        split = split_counts(parse("XI", 2), errors)
        assert (split.commuting, split.anticommuting) == (5, 2)
        assert split.separated_pairs == 10

    def test_qutrits_rejected(self):
        with pytest.raises(ValueError):
            split_counts(parse("X", 3), enumerate_errors(1, 1, 3))


class TestChooseGenerator:
    def test_single_register_pair(self):
        errors = ErrorSet(2, 1, (parse("X", 2), parse("Z", 2)))
        chosen = choose_generator(StabilizerSet(2, 1), errors)
        assert render(chosen) == "X"
        split = split_counts(chosen, errors)
        assert (split.commuting, split.anticommuting) == (1, 1)

    def test_balance_bound_on_thirteen_singles(self):
        errors = enumerate_errors(4, 1, 2)
        chosen = choose_generator(StabilizerSet(2, 4), errors)
        split = split_counts(chosen, errors)
        total = len(errors.members)
        assert 2 * split.max_side - total <= 0 or (
            2 * split.max_side - total
        ) ** 2 < total

    def test_full_rank_stabilizer_has_no_separator(self):
        s = StabilizerSet(2, 2, [parse("XI", 2), parse("IX", 2)])
        errors = ErrorSet(2, 2, (parse("II", 2), parse("XI", 2)))
        with pytest.raises(NoSeparatorError):
            choose_generator(s, errors)

    def test_coset_equivalent_errors_need_no_separator(self):
        s = StabilizerSet(2, 2, [parse("XX", 2)])
        errors = ErrorSet(2, 2, (parse("II", 2), parse("XX", 2)))
        with pytest.raises(NoSeparatorError):
            choose_generator(s, errors)

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            choose_generator(StabilizerSet(2, 11), enumerate_errors(11, 1, 2))

    def test_exhaustive_optimality_on_small_instance(self):
        # Oracle: rank every commuting independent operator directly.
        errors = enumerate_errors(3, 1, 2)
        s = StabilizerSet(2, 3, [parse("XXX", 2)])
        chosen = choose_generator(s, errors)
        best = max(
            split_counts(m, errors).separated_pairs
            for m in _all_candidates(s)
        )
        assert split_counts(chosen, errors).separated_pairs == best

        # Seeded sweep: the exact winner, smallest larger side first and then
        # smallest canonical key, over survivor sets that share a syndrome as
        # the greedy strategy's do, with coset-equivalent errors among them.
        rng = random.Random(11)
        for n in range(1, 7):
            for rank in range(n):
                s = random_stabilizer(rng, 2, n, rank)
                errors = _random_survivors(rng, s)
                assert not coset_classes(errors, s).is_single_class
                winner = min(
                    _all_candidates(s),
                    key=lambda m: (split_counts(m, errors).max_side, canonical_key(m)),
                )
                assert choose_generator(s, errors) == winner


def _random_survivors(rng, s):
    """Up to 16 errors sharing one random syndrome, plus the first times a
    generator (coset-equivalent to it) when there is a generator."""
    paulis = list(_all_paulis(s.n))
    target = s.syndrome(rng.choice(paulis))
    matching = [p for p in paulis if s.syndrome(p) == target]
    members = rng.sample(matching, min(len(matching), rng.randint(2, 16)))
    if s.gens:
        shifted = multiply(members[0], rng.choice(s.gens))
        if shifted not in members:
            members.append(shifted)
    return ErrorSet(2, s.n, tuple(members))


def _all_paulis(n):
    for xs in product(range(2), repeat=n):
        for zs in product(range(2), repeat=n):
            yield PauliVec(2, n, xs, zs)


def _all_candidates(s):
    for p in _all_paulis(s.n):
        if p.is_identity or s.is_member(p):
            continue
        if all(symplectic_product(p, g) == 0 for g in s.gens):
            yield p


class TestGreedyStrategy:
    @pytest.mark.parametrize("n, t", [(5, 1), (6, 1), (7, 1)])
    def test_verifies_within_step_bound(self, n, t):
        report, stats = greedy_step_stats(n, t)
        assert report.passed
        assert stats.max_steps <= stats.step_bound
        assert stats.balance_ok, stats.balance_violations

    def test_no_errors_finishes_immediately(self):
        strategy = greedy_strategy(4, 0)
        transcript = simulate(strategy, PauliVec.identity(2, 4))
        assert len(transcript.history.entries) == 0
        assert transcript.k_out == 4

    def test_survivors_shrink_along_threshold_chain(self):
        thresholds = mi_sequence(12)
        for n in (5, 6, 7):
            strategy = greedy_strategy(n, 1)
            for hidden in base_errors(2, n, 1).members:
                transcript = simulate(strategy, hidden)
                survivors = base_errors(2, n, 1)
                for op, outcome in transcript.history.entries:
                    before = len(survivors.members)
                    level = min(i for i, m in enumerate(thresholds) if m >= before)
                    survivors = filter_by_outcome(survivors, op, outcome)
                    if level > 0:
                        assert len(survivors.members) <= thresholds[level - 1]

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            greedy_strategy(30, 1)

    @pytest.mark.parametrize("n, t", [(6, 1), (7, 1), (7, 2)])
    def test_each_node_takes_the_public_choice(self, n, t):
        """Synthesis passes the kernel rows and memoizes each stabilizer's
        planes; every node, rebuilt from its history with the survivors that
        filtering along it keeps, still gets ``choose_generator``'s
        operator, and exactly the Finish nodes have no separator."""
        _, tree, _, _ = _synthesize(n, t)
        kinds = set()
        for key, step in tree.items():
            s = StabilizerSet(2, n, [op for op, _ in key])
            survivors = base_errors(2, n, t)
            for op, outcome in key:
                survivors = filter_by_outcome(survivors, op, outcome)
            kinds.add(type(step))
            if isinstance(step, Measure):
                assert choose_generator(s, survivors) == step.op, key
            else:
                assert isinstance(step, Finish)
                with pytest.raises(NoSeparatorError):
                    choose_generator(s, survivors)
        assert kinds == {Measure, Finish}

    def test_monotone_survivor_sets(self):
        strategy = greedy_strategy(6, 1)
        for hidden in base_errors(2, 6, 1).members:
            transcript = simulate(strategy, hidden)
            survivors = base_errors(2, 6, 1)
            for op, outcome in transcript.history.entries:
                filtered = filter_by_outcome(survivors, op, outcome)
                assert set(filtered.members) <= set(survivors.members)
                survivors = filtered
            residual = set(survivors.members)
            assert hidden in residual


class TestAveragingArgument:
    def test_mean_separation_beats_half_on_small_instances(self):
        # All candidate errors here sit in distinct cosets, so every
        # separated pair counts toward the average.
        for gens, n in ((["XXXX"], 4), (["XXX"], 3), (["XX"], 2)):
            s = StabilizerSet(2, n, [parse(g, 2) for g in gens])
            errors = enumerate_errors(n, 1, 2)
            mean = average_separated_pairs(s, errors)
            assert mean > 0.5 * comb(len(errors.members), 2)
