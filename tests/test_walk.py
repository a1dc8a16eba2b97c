"""The outcome-tree walk in ``engine.verify`` against the per-error oracle
``prop_checks.verify_by_simulation``: identical reports, counterexample
order included, on the built-in protocols and their relabelled and
over-claiming twins, on greedy strategies, on broken strategies and on
random adaptive strategies; and every report's text against ``json.dumps``
of its plain-data form."""

from __future__ import annotations

import dataclasses
import random
from collections import Counter
from pathlib import Path

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
from twep.errorspace import count_errors, enumerate_errors, filter_by_outcome
from twep.pauli import PauliVec, canonical_key, multiply, parse, symplectic_product
from twep.protocols import FIVE_QUBIT_GENERATORS, get, hamming_family, names, nine_pair
from twep.stabilizer import (
    StabilizerSet,
    min_normalizer_weight,
    normalizer_complement_basis,
)
from twep.synth import greedy_step_stats, greedy_strategy


def _result(check, strategy):
    """The report, or the type and text of what the check raised."""
    try:
        return check(strategy)
    except Exception as exc:
        return type(exc), str(exc)


def assert_text_matches_json(report):
    assert report.to_text() == prop_checks.report_text_reference(report)


def assert_walk_matches_oracle(strategy: Strategy):
    walked = _result(verify, strategy)
    reference = _result(prop_checks.verify_by_simulation, strategy)
    if isinstance(walked, tuple) or isinstance(reference, tuple):
        assert walked == reference
    else:
        prop_checks.assert_same_report(walked, reference)
        assert_text_matches_json(walked)
        assert_text_matches_json(reference)
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
    base = get(name)
    perm = list(range(base.n))
    random.Random(seed).shuffle(perm)
    runs = prop_checks.simulate_each(prop_checks.relabel(base, perm, base.k_claimed))
    for extra in (0, 1):
        claimed = base.k_claimed + extra
        report = verify(prop_checks.relabel(base, perm, claimed))
        reference = prop_checks.report_of_runs(runs, claimed)
        prop_checks.assert_same_report(report, reference)
        assert_text_matches_json(report)
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
        (
            Discard(frozenset(range(11))),
            "IllegalDiscard: discard registers [10] lie outside 0..9",
        ),
        (Discard(frozenset()), "IllegalDiscard: discard of no registers"),
        (Discard(frozenset({3, 10, -1})), "IllegalDiscard: discard registers [-1, 10]"),
        (Discard(frozenset({1.5})), "IllegalDiscard: discard registers 1.5 are not"),
        (Discard(frozenset({"a"})), "IllegalDiscard: discard registers 'a' are not"),
        (
            Discard(frozenset({2, "a", 1.5, 12})),
            "IllegalDiscard: discard registers 'a', 1.5 are not integers",
        ),
        (Discard(5), "IllegalDiscard: discard registers 5 are not a set of integers"),
    ],
    ids=[
        "wrong-n-operator",
        "wrong-d-operator",
        "text-operator",
        "oversized-discard",
        "empty-discard",
        "out-of-range-discard",
        "float-register",
        "text-register",
        "mixed-registers",
        "non-iterable-registers",
    ],
)
def test_strategy_faults_become_counterexamples_like_the_oracle(step, reason):
    """Every error fails with the step's fault; nothing propagates."""
    strategy = scripted(2, 10, 1, [step])
    report = assert_walk_matches_oracle(strategy)
    assert len(report.counterexamples) == report.errors_checked
    assert all(c.reason.startswith(reason) for c in report.counterexamples)
    assert all(c.transcript is None for c in report.counterexamples)


@pytest.mark.parametrize("d, n", [(2, 10), (3, 10), (2, 12)])
def test_a_ten_register_discard_completes_like_the_oracle(d, n):
    """A discard has no register bound: discarding registers 0..9 grows the
    stabilizer to rank 10, so every Finish leaf certifies n - 10 pairs, and
    only a discard of all n registers leaves every leaf in one coset."""
    report = assert_walk_matches_oracle(
        scripted(d, n, 1, [Discard(frozenset(range(10)))])
    )
    assert report.k_min == n - 10
    assert report.passed == (n == 10)


def test_report_text_escapes_a_reason_like_json():
    """A reason holding a quote and a non-ASCII character is escaped as
    ``json.dumps`` escapes it."""
    report = assert_walk_matches_oracle(scripted(2, 3, 1, [Measure('X"\u00e9')]))
    reason = "IllegalMeasurement: 'X\"\u00e9' is not a PauliVec"
    assert {c.reason for c in report.counterexamples} == {reason}
    assert '"reason": "IllegalMeasurement: \'X\\"\\u00e9\' is not a PauliVec"' in (
        report.to_text()
    )


def test_report_text_without_a_finish_leaf():
    report = assert_walk_matches_oracle(BROKEN["nontermination"][0])
    assert report.k_min == -1
    assert '  "k_min": -1,\n' in report.to_text()


def test_failing_report_text_matches_its_golden_fixture():
    """The six-pair twin claiming 3: every error fails and the counterexamples
    at one Finish leaf share its transcript."""
    base = get("six-pair")
    report = verify(dataclasses.replace(base, k_claimed=3))
    golden = Path(__file__).parent / "fixtures" / "golden" / "report_six-pair_k3.out"
    assert report.to_text() == golden.read_text()
    assert_text_matches_json(report)


def test_a_one_shot_discard_iterator_is_read_once():
    """A Discard whose registers are a one-shot iterator is read once per
    consultation, by walk and oracle alike, and verifies as the same
    discard given as a frozenset.  Each consultation gets a fresh iterator:
    a shared one would be used up by the first error."""

    def discarding(registers):
        def next_step(history):
            return Finish() if history.discards else Discard(registers())

        return Strategy(2, 4, 1, 0, next_step)

    walked = assert_walk_matches_oracle(discarding(lambda: iter([1, 2])))
    assert walked.errors_checked == count_errors(4, 1)
    prop_checks.assert_same_report(walked, verify(discarding(lambda: frozenset({1, 2}))))


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

        assert_text_matches_json(
            verify(Strategy(base.d, base.n, base.t, base.k_claimed, counting))
        )
        assert seen and set(seen.values()) == {1}


@pytest.mark.parametrize("n, t", [(5, 1), (7, 1), (6, 2)])
def test_greedy_tree_is_consulted_once_per_node(n, t):
    """verify consults every node of greedy's tree exactly once, and
    consults no history outside it."""
    strategy, tree, _, _ = synth._synthesize(n, t)
    seen: Counter = Counter()

    def counting(history):
        seen[history.entries] += 1
        return strategy.next(history)

    report = verify(Strategy(2, n, t, strategy.k_claimed, counting))
    assert report.passed
    assert_text_matches_json(report)
    assert set(seen) == set(tree)
    assert set(seen.values()) == {1}


GREEDY_GRID = (
    [(n, 1) for n in range(1, 11)] + [(n, 2) for n in range(3, 11)] + [(6, 3), (8, 3)]
)


@pytest.mark.parametrize("n, t", GREEDY_GRID)
def test_greedy_report_is_verify_of_its_strategy(n, t):
    """Synthesis walks the tree once, and that walk's report is the one
    ``verify`` gives the finished strategy; up to n = 7 each Measure node's
    recorded split (first survivor, depth, commuting count, survivor count)
    is what filtering the errors along its history gives."""
    report, _ = greedy_step_stats(n, t)
    reference = verify(greedy_strategy(n, t))
    assert report.to_text() == reference.to_text()
    assert (report.errors_checked, report.k_min, report.passed) == (
        reference.errors_checked,
        reference.k_min,
        reference.passed,
    )
    if n > 7:
        return
    base = enumerate_errors(n, t)
    position = {e: i for i, e in enumerate(base.members)}
    _, tree, splits, _ = synth._synthesize(n, t)
    assert set(splits) == {k for k, step in tree.items() if isinstance(step, Measure)}
    for entries, split in splits.items():
        survivors = base
        for op, outcome in entries:
            survivors = filter_by_outcome(survivors, op, outcome)
        commuting = filter_by_outcome(survivors, tree[entries].op, 0)
        assert split == (
            position[survivors.members[0]],
            len(entries) + 1,
            len(commuting),
            len(survivors),
        )


def test_each_distinct_discard_is_completed_once(monkeypatch):
    calls = []
    original = engine.complete_discard

    def counting(s, registers):
        calls.append((s.gens, frozenset(registers)))
        return original(s, registers)

    monkeypatch.setattr(engine, "complete_discard", counting)
    report = verify(nine_pair())
    assert report.passed
    assert_text_matches_json(report)
    assert len(calls) == len(set(calls)) == 2


def test_greedy_fault_is_raised_from_the_step_statistics():
    # No registers: the consultation budget 2n would be zero, so synthesis
    # rejects the parameters before building a tree.
    with pytest.raises(ValueError):
        greedy_step_stats(0, 0)


@pytest.mark.parametrize("t", [-1, 4])
def test_a_weight_bound_outside_0_to_n_is_refused(t):
    """A negative t used to pass, with one error checked and k_min = n."""
    with pytest.raises(ValueError, match="lies outside 0..3"):
        verify(Strategy(2, 3, t, 3, lambda h: Finish()))
    with pytest.raises(ValueError, match="0 <= t <= n"):
        greedy_step_stats(3, t)


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


STEANE_GENERATORS = (
    "IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ",
)
SHOR_GENERATORS = (
    "ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI", "IIIIIIIZZ",
    "XXXXXXIII", "IIIXXXXXX",
)


def test_one_way_verdicts_match_the_distance_scan():
    """A strategy that measures a stabilizer's generators and finishes
    corrects t errors iff no operator of weight <= 2t commutes with the
    stabilizer without lying in it, and then certifies n - rank pairs.  The
    walk reduces with ``Echelon`` and the support search with the pivot
    table, so they share no reducer and each checks the other, at every
    t <= min(n, 3), on seeded qubit (n = 3..9) and qutrit (n = 2..6)
    stabilizers of every rank 1..n-1, three per shape, and on three
    distance-3 codes.  Every one of these enumerations fits
    ``check_size``."""
    rng = random.Random(2117)
    stabilizers = [
        prop_checks.random_stabilizer(rng, d, n, rank)
        for d, sizes in ((2, range(3, 10)), (3, range(2, 7)))
        for n in sizes
        for rank in range(1, n)
        for _ in range(3)
    ]
    # Random ones rarely reach distance 3: add five-qubit, Steane and Shor.
    for gens in (FIVE_QUBIT_GENERATORS, STEANE_GENERATORS, SHOR_GENERATORS):
        stabilizers.append(StabilizerSet(2, len(gens[0]), [parse(g, 2) for g in gens]))
    verdicts = Counter()
    for s in stabilizers:
        d, n, rank = s.d, s.n, s.rank
        distance = min_normalizer_weight(s)
        steps = [Measure(g) for g in s.gens]
        for t in range(min(n, 3) + 1):
            report = verify(scripted(d, n, t, steps, n - rank))
            case = (d, n, rank, t, distance)
            assert report.passed == (distance >= 2 * t + 1), case
            assert not report.passed or report.k_min == n - rank, case
            verdicts[t, report.passed] += 1
    assert verdicts == {
        (0, True): 153,
        (1, True): 5,
        (1, False): 148,
        (2, False): 153,
        (3, False): 150,
    }
