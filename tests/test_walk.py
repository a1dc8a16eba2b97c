"""The outcome-tree walk in ``engine.verify`` against the per-error oracle
``prop_checks.verify_by_simulation``: identical reports, counterexample
order included, on the built-in protocols and their relabelled and
over-claiming twins, on greedy strategies, on broken strategies and on
random adaptive strategies."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import prop_checks
from prop_checks import scripted
from twep import engine, synth
from twep.engine import (
    Discard,
    Finish,
    History,
    Measure,
    Strategy,
    verify,
)
from twep.errorspace import DEFAULT_CAP, count_errors, enumerate_errors
from twep.pauli import PauliVec, canonical_key, multiply, parse, symplectic_product
from twep.protocols import get, hamming_family, names, nine_pair
from twep.stabilizer import StabilizerSet, normalizer_complement_basis
from twep.synth import greedy_step_stats, greedy_strategy


def _result(check, strategy):
    """The report, or the type and text of what the check raised."""
    try:
        return check(strategy)
    except Exception as exc:
        return type(exc), str(exc)


def assert_walk_matches_oracle(strategy: Strategy):
    walked = _result(verify, strategy)
    reference = _result(prop_checks.verify_by_simulation, strategy)
    if isinstance(walked, tuple) or isinstance(reference, tuple):
        assert walked == reference
    else:
        prop_checks.assert_same_report(walked, reference)
    return walked


def branching(n, t, first, after):
    """Measure ``first``, then answer after[outcome] (raise it if it is an
    exception), then Finish."""

    def next_step(history: History):
        if not history.entries:
            return Measure(parse(first, 2))
        if len(history.entries) == 1 and not history.discards:
            answer = after[history.entries[0][1]]
            if isinstance(answer, Exception):
                raise answer
            return answer
        return Finish()

    return Strategy(d=2, n=n, t=t, k_claimed=0, next=next_step)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", names())
def test_registry_protocols_and_twins_under_relabelling(name, seed):
    """The protocol and its twin claiming one pair more.  The twin fails on
    each error whose branch certifies exactly k pairs, so those errors'
    transcripts are compared too."""
    base = get(name).strategy
    perm = list(range(base.n))
    random.Random(seed).shuffle(perm)
    runs = prop_checks.simulate_each(prop_checks.relabel(base, perm, base.k_claimed))
    for extra in (0, 1):
        claimed = base.k_claimed + extra
        report = verify(prop_checks.relabel(base, perm, claimed))
        reference = prop_checks.report_of_runs(runs, claimed)
        prop_checks.assert_same_report(report, reference)
        assert report.passed == (extra == 0)


@pytest.mark.parametrize(
    "strategy",
    [
        hamming_family(6),
        greedy_strategy(5, 1),
        greedy_strategy(7, 1),
        greedy_strategy(6, 2),
    ],
    ids=["hamming-m6", "greedy-5-1", "greedy-7-1", "greedy-6-2"],
)
def test_families_and_greedy(strategy):
    assert assert_walk_matches_oracle(strategy).passed


def _forever(history: History):
    return Discard(frozenset({0}))


def _qutrit_zero_branch_finishes(history: History):
    ops = (
        PauliVec(3, 4, (1, 1, 1, 0), (0, 0, 0, 0)),
        PauliVec(3, 4, (0, 0, 0, 0), (1, 1, 1, 0)),
    )
    if history.discards:
        return Finish()
    if len(history) < 2:
        return Measure(ops[len(history)])
    if any(history.outcomes()):
        return Discard(frozenset({0, 1, 2}))
    return Finish()


BROKEN = {
    "early-finish": (
        Strategy(d=2, n=3, t=1, k_claimed=0, next=lambda h: Finish()),
        "UnsoundFinish",
    ),
    "illegal": (
        scripted(2, 3, 1, [Measure(parse("XII", 2)), Measure(parse("ZII", 2))]),
        "IllegalMeasurement",
    ),
    "redundant": (
        scripted(2, 3, 1, [Measure(parse("XXI", 2)), Measure(parse("XXI", 2))]),
        "RedundantMeasurement",
    ),
    "nontermination": (
        Strategy(d=2, n=3, t=1, k_claimed=0, next=_forever),
        "NonTerminationError",
    ),
    "qutrit-unsound-branch": (
        Strategy(d=3, n=4, t=1, k_claimed=1, next=_qutrit_zero_branch_finishes),
        "UnsoundFinish",
    ),
    "qutrit-overclaim": (
        scripted(3, 2, 1, [Discard(frozenset({0, 1}))], k_claimed=1),
        "below claimed",
    ),
}


@pytest.mark.parametrize("case", list(BROKEN))
def test_broken_strategies(case):
    strategy, reason = BROKEN[case]
    report = assert_walk_matches_oracle(strategy)
    assert not report.passed
    assert any(reason in c.reason for c in report.counterexamples)


@pytest.mark.parametrize(
    "after, raised",
    [
        ((RuntimeError("strategy fault"), "bogus"), RuntimeError),
        (("bogus", Discard(frozenset({7}))), TypeError),
    ],
    ids=["raise-fault-first", "type-fault-first"],
)
def test_faults_in_two_branches_raise_the_first_errors_fault(after, raised):
    """The identity (first error) takes outcome 0, so the fault there is the
    one the per-error loop raises, whatever the other branch does."""
    strategy = branching(6, 1, "ZZIIII", after)
    walked = _result(verify, strategy)
    assert walked == _result(prop_checks.verify_by_simulation, strategy)
    assert walked[0] is raised


@pytest.mark.parametrize(
    "step, reason",
    [
        (Measure(parse("XX", 2)), "IllegalMeasurement: XX acts on d=2, n=2"),
        (Measure(parse("X,X,I,I,I,I,I,I,I,I", 3)), "IllegalMeasurement"),
        (Measure("XXIIIIIIII"), "IllegalMeasurement: 'XXIIIIIIII' is not a PauliVec"),
        (Discard(frozenset(range(10))), "IllegalDiscard: discard of 10 registers"),
        (Discard(frozenset()), "IllegalDiscard: discard of no registers"),
        (Discard(frozenset({3, 10, -1})), "IllegalDiscard: discard registers [-1, 10]"),
    ],
    ids=[
        "wrong-n-operator",
        "wrong-d-operator",
        "text-operator",
        "oversized-discard",
        "empty-discard",
        "out-of-range-discard",
    ],
)
def test_strategy_faults_become_counterexamples_like_the_oracle(step, reason):
    """Every error fails with the step's fault; nothing propagates."""
    strategy = scripted(2, 10, 1, [step])
    report = assert_walk_matches_oracle(strategy)
    assert len(report.counterexamples) == report.errors_checked
    assert all(c.reason.startswith(reason) for c in report.counterexamples)
    assert all(c.transcript is None for c in report.counterexamples)


def test_a_strategy_fault_fails_exactly_its_branch():
    strategy = branching(6, 1, "ZZIIII", (Finish(), Discard(frozenset({6}))))
    report = assert_walk_matches_oracle(strategy)
    failed = [c.hidden for c in report.counterexamples if "IllegalDiscard" in c.reason]
    branch = [
        e
        for e in enumerate_errors(6, 1).members
        if symplectic_product(parse("ZZIIII", 2), e) == 1
    ]
    assert failed == branch


def test_each_history_is_consulted_once():
    for base in (nine_pair(), hamming_family(4)):
        seen: Counter = Counter()

        def counting(history, base=base):
            seen[history] += 1
            return base.next(history)

        verify(Strategy(base.d, base.n, base.t, base.k_claimed, counting))
        assert seen and set(seen.values()) == {1}


@pytest.mark.parametrize("n, t", [(5, 1), (7, 1), (6, 2)])
def test_greedy_tree_is_consulted_once_per_node(n, t):
    """verify consults every node of greedy's tree exactly once, and
    consults no history outside it."""
    strategy, tree = synth._synthesize(n, t, DEFAULT_CAP)
    seen: Counter = Counter()

    def counting(history):
        seen[history.entries] += 1
        return strategy.next(history)

    assert verify(Strategy(2, n, t, strategy.k_claimed, counting)).passed
    assert set(seen) == set(tree)
    assert set(seen.values()) == {1}


def test_each_distinct_discard_is_completed_once(monkeypatch):
    calls = []
    original = engine.complete_discard

    def counting(s, registers):
        calls.append((s.gens, frozenset(registers)))
        return original(s, registers)

    monkeypatch.setattr(engine, "complete_discard", counting)
    assert verify(nine_pair()).passed
    assert len(calls) == len(set(calls)) == 2


def test_greedy_fault_is_raised_from_the_step_statistics():
    # No registers: the consultation budget 2n would be zero, so synthesis
    # rejects the parameters before building a tree.
    with pytest.raises(ValueError):
        greedy_step_stats(0, 0)


def random_adaptive(d: int, n: int, t: int, k_claimed: int, seed: int) -> Strategy:
    """A deterministic strategy that hashes each history to pick its step:
    Finish, a discard of one to three registers, a random operator (often
    illegal or redundant), or a random commuting independent measurement."""

    def next_step(history: History):
        rng = random.Random(
            repr(
                (
                    seed,
                    [(canonical_key(op), o) for op, o in history.entries],
                    [sorted(regs) for regs in history.discards],
                )
            )
        )
        roll = rng.random()
        if roll < 0.2:
            return Finish()
        if roll < 0.4:
            return Discard(frozenset(rng.sample(range(n), rng.randint(1, min(3, n)))))
        if roll < 0.5:
            return Measure(prop_checks._random_pauli(rng, d, n))
        s = StabilizerSet(d, n, history.operators())
        complement = normalizer_complement_basis(s)
        if not complement:
            return Finish()
        powers = [rng.randrange(d) for _ in complement]
        if not any(powers):
            powers[rng.randrange(len(powers))] = 1
        powers += [rng.randrange(d) for _ in s.gens]
        op = PauliVec.identity(d, n)
        for power, vec in zip(powers, complement + list(s.gens)):
            for _ in range(power):
                op = multiply(op, vec)
        return Measure(op)

    return Strategy(d=d, n=n, t=t, k_claimed=k_claimed, next=next_step)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 5),
    t=st.integers(0, 2),
    k_claimed=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_adaptive_strategies(d, n, t, k_claimed, seed):
    assume(t <= n and count_errors(n, t, d) <= 120)
    assert_walk_matches_oracle(random_adaptive(d, n, t, k_claimed, seed))
