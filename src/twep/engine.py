"""Adaptive protocol execution: simulate, correct, exhaustively verify.

The model: a strategy is consulted with the measurement history so far and
answers with one of three actions.  Measure adds a commuting, independent
operator; the environment answers with its commutation value against the
hidden error.  Discard expands into a deterministic completion of local
measurements on the dropped registers, making every protocol a pure
adaptive stabilizer protocol.  Finish computes a correction from the
candidate errors still consistent with every outcome; it is only legal once
all survivors act identically on the protected space (one coset of the
accumulated stabilizer).

Verification walks the strategy's outcome tree once.  The strategy sees
only outcomes, so the errors of weight at most t that reach a node are
exactly the candidates there: each Measure splits them by outcome, each
Discard is completed once per distinct (stabilizer, registers) and split
along the operators it adds, and each Finish checks once that its errors
share one coset.  This is the package's one tree walk, ``_walk``: it asks a
chooser for each node's step, which ``verify``'s chooser takes from the
strategy and greedy synthesis picks from the node's errors.  ``simulate``
runs one error at a time; it serves single runs and is the oracle the tests
compare the walk against.  The walk and ``simulate`` apply each Measure and
Discard through one function, ``_apply``, which checks the step and returns
what it measures; only the walk memoizes discard completions.  A report
passes only if every error ends with a consistent correction and enough
certified pairs.  A step the strategy may not take (a measurement that is
not a PauliVec, off the protocol's registers, anticommuting or redundant; a
discard of no, non-integer or nonexistent registers) is a ProtocolError,
and so a counterexample for every error that reaches it, in both.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Optional

from . import errorspace
from .errorspace import coset_classes, filter_by_outcome
# multiply is unused here; perfbench's tracer wraps ``engine.multiply``.
from .pauli import PauliVec, _dot, _dual, multiply, render, symplectic_product, weight
from .stabilizer import StabilizerSet, complete_discard


class ProtocolError(Exception):
    """A simulation rule was violated; verify() reports these as failures."""


class IllegalMeasurement(ProtocolError):
    """Measured operator anticommutes with an earlier one, does not act on
    the protocol's registers, or is not a PauliVec."""


class RedundantMeasurement(ProtocolError):
    """Measured operator is already in the span of earlier measurements."""


class IllegalDiscard(ProtocolError):
    """Discard of no registers, or of registers that are not integers or
    lie outside the protocol."""


class UnsoundFinish(ProtocolError):
    """Finish requested while surviving errors still span several cosets."""


class EmptyCandidates(ProtocolError):
    """No error within the weight bound matches the observed outcomes."""


class NonTerminationError(ProtocolError):
    """Strategy exceeded the consultation budget of 2n steps."""


@dataclass(frozen=True)
class Measure:
    op: PauliVec


@dataclass(frozen=True)
class Discard:
    registers: frozenset[int]


@dataclass(frozen=True)
class Finish:
    pass


Step = Measure | Discard | Finish


@dataclass(frozen=True)
class History:
    """Ordered measurement record, plus which discards were already expanded.

    The discard record exists because a completion can legally add zero
    measurements, in which case the entry list alone cannot tell a strategy
    whether its discard has happened yet.
    """

    entries: tuple[tuple[PauliVec, int], ...] = ()
    discards: tuple[frozenset[int], ...] = ()

    def __len__(self) -> int:
        return len(self.entries)

    def with_entry(self, op: PauliVec, outcome: int) -> History:
        return History(self.entries + ((op, outcome),), self.discards)

    def with_discard(self, registers: frozenset[int]) -> History:
        return History(self.entries, self.discards + (registers,))

    def operators(self) -> tuple[PauliVec, ...]:
        return tuple(op for op, _ in self.entries)

    def outcomes(self) -> tuple[int, ...]:
        # A list, not a generator: every protocol's plan reads the outcomes
        # at each consultation, and tuple() of a generator is the slower.
        return tuple([o for _, o in self.entries])


@dataclass(frozen=True)
class Strategy:
    """A deterministic protocol: parameters plus a pure history -> step map."""

    d: int
    n: int
    t: int
    k_claimed: int
    next: Callable[[History], Step]
    name: str = ""


@dataclass(frozen=True)
class Transcript:
    """One simulated run."""

    history: History
    final_stabilizer: StabilizerSet
    correction: PauliVec
    k_out: int

    def to_records(self) -> list[dict]:
        records = [
            {"op": render(op), "outcome": outcome} for op, outcome in self.history.entries
        ]
        records.append({"correction": render(self.correction), "k_out": self.k_out})
        return records

    def to_lines(self) -> list[str]:
        return [json.dumps(record) for record in self.to_records()]

    def to_text(self) -> str:
        return "\n".join(self.to_lines()) + "\n"


@dataclass(frozen=True)
class Counterexample:
    hidden: PauliVec
    transcript: Optional[Transcript]
    reason: str


@dataclass(frozen=True)
class Report:
    """Aggregate exhaustive-verification result."""

    errors_checked: int
    k_min: int
    passed: bool
    counterexamples: tuple[Counterexample, ...] = field(default=())

    def to_dict(self) -> dict:
        """Plain-data form, which ``twep greedy`` extends with its step
        statistics before dumping; ``to_text`` writes the same JSON
        directly."""
        return {
            "errors_checked": self.errors_checked,
            "k_min": self.k_min,
            "pass": self.passed,
            "counterexamples": [
                {
                    "error": render(c.hidden),
                    "reason": c.reason,
                    "transcript": (
                        c.transcript.to_records() if c.transcript is not None else None
                    ),
                }
                for c in self.counterexamples
            ],
        }

    def to_text(self) -> str:
        """``json.dumps(self.to_dict(), indent=2)`` plus a newline, byte for
        byte, written directly: Python's indenting encoder is pure Python
        and would re-render a shared transcript for every counterexample.
        Strings go through the C escaper ``json.dumps`` uses, and memos
        keyed by object identity format each distinct operator, each
        distinct (operator, outcome) record and each distinct transcript
        block once per call: sibling leaves share most of their records."""
        ops: dict[int, str] = {}
        entries: dict[tuple[int, int], str] = {}
        blocks: dict[int, str] = {}

        def op_text(op: PauliVec) -> str:
            text = ops.get(id(op))
            if text is None:
                text = ops[id(op)] = _quote(render(op))
            return text

        def entry_text(op: PauliVec, outcome: int) -> str:
            key = id(op), outcome
            text = entries.get(key)
            if text is None:
                text = entries[key] = (
                    f'{{\n          "op": {op_text(op)},\n'
                    f'          "outcome": {outcome}\n        }}'
                )
            return text

        def block(transcript: Optional[Transcript]) -> str:
            if transcript is None:
                return "null"
            text = blocks.get(id(transcript))
            if text is None:
                records = [
                    entry_text(op, outcome) for op, outcome in transcript.history.entries
                ]
                records.append(
                    f'{{\n          "correction": {op_text(transcript.correction)},\n'
                    f'          "k_out": {transcript.k_out}\n        }}'
                )
                text = blocks[id(transcript)] = (
                    "[\n        " + ",\n        ".join(records) + "\n      ]"
                )
            return text

        found = [
            f'{{\n      "error": {op_text(c.hidden)},\n'
            f'      "reason": {_quote(c.reason)},\n'
            f'      "transcript": {block(c.transcript)}\n    }}'
            for c in self.counterexamples
        ]
        listing = "[\n    " + ",\n    ".join(found) + "\n  ]" if found else "[]"
        return (
            f'{{\n  "errors_checked": {self.errors_checked},\n'
            f'  "k_min": {self.k_min},\n'
            f'  "pass": {"true" if self.passed else "false"},\n'
            f'  "counterexamples": {listing}\n}}\n'
        )


def generic_correction(
    s: StabilizerSet, history: History, t: int, d: int
) -> PauliVec:
    """Correction consistent with every recorded outcome.

    Filters the weight-bounded error list through each (operator, outcome)
    pair; all survivors must fall in one coset of the stabilizer, and the
    minimum-weight survivor (canonical key breaking ties) is returned.
    Degenerate survivors are fine: errors in a common coset act identically,
    so correcting any representative restores the state.
    """
    survivors = errorspace.base_errors(d, s.n, t)
    for op, outcome in history.entries:
        survivors = filter_by_outcome(survivors, op, outcome)
    if not survivors.members:
        raise EmptyCandidates(
            f"no error of weight <= {t} matches the recorded outcomes"
        )
    partition = coset_classes(survivors, s)
    if not partition.is_single_class:
        raise UnsoundFinish(
            f"{len(survivors.members)} surviving errors span "
            f"{len(partition.classes)} distinct cosets; finished too early"
        )
    return partition.representatives[0]


def _apply(
    step: Step, s: StabilizerSet, completions: dict
) -> tuple[list[PauliVec], StabilizerSet, frozenset[int] | None]:
    """Take a step that is not a Finish against the stabilizer s, raising the
    ProtocolError it commits before it runs, or TypeError if it is not a
    Step.  Returns the operators it measures, s grown by them and, for a
    Discard, its registers as a frozenset (None for a Measure).  A Measure's
    operator is reduced only once.  A Discard's ``step.registers`` is read
    only here, so it may be a one-shot iterator; it is completed once per
    distinct (generators, registers) key in ``completions``, which keeps the
    operators together with the stabilizer they grow."""
    if isinstance(step, Measure):
        op = step.op
        if not isinstance(op, PauliVec):
            raise IllegalMeasurement(f"{op!r} is not a PauliVec")
        if op.d != s.d or op.n != s.n:
            raise IllegalMeasurement(
                f"{render(op)} acts on d={op.d}, n={op.n}; "
                f"the protocol has d={s.d}, n={s.n}"
            )
        if not s.in_normalizer(op):
            raise IllegalMeasurement(
                f"{render(op)} anticommutes with an earlier measurement"
            )
        grown = s._grown(op)
        if grown is None:
            raise RedundantMeasurement(
                f"{render(op)} is already determined by earlier measurements"
            )
        return [op], grown, None
    if not isinstance(step, Discard):
        raise TypeError(f"strategy returned {step!r}, not a Step")
    try:
        registers = frozenset(step.registers)
    except TypeError:
        raise IllegalDiscard(
            f"discard registers {step.registers!r} are not a set of integers"
        ) from None
    if not registers:
        raise IllegalDiscard("discard of no registers")
    strange = sorted(repr(r) for r in registers if not isinstance(r, int))
    if strange:
        raise IllegalDiscard(f"discard registers {', '.join(strange)} are not integers")
    outside = sorted(r for r in registers if not 0 <= r < s.n)
    if outside:
        raise IllegalDiscard(f"discard registers {outside} lie outside 0..{s.n - 1}")
    key = (s.gens, registers)
    completed = completions.get(key)
    if completed is None:
        added = complete_discard(s, registers)
        grown = s
        for op in added:
            grown = grown.extend(op)
        completed = completions[key] = added, grown
    return *completed, registers


def simulate(strategy: Strategy, hidden: PauliVec) -> Transcript:
    """Run one protocol execution against a hidden error."""
    if hidden.d != strategy.d or hidden.n != strategy.n:
        raise ValueError("hidden error does not match the strategy dimensions")
    if weight(hidden) > strategy.t:
        raise ValueError(
            f"hidden error has weight {weight(hidden)} > bound {strategy.t}"
        )
    s = StabilizerSet(strategy.d, strategy.n)
    history = History()
    consultations = 0
    while True:
        consultations += 1
        if consultations > 2 * strategy.n:
            raise NonTerminationError(
                f"strategy exceeded {2 * strategy.n} consultations"
            )
        step = strategy.next(history)
        if isinstance(step, Finish):
            correction = generic_correction(s, history, strategy.t, strategy.d)
            return Transcript(
                history=history,
                final_stabilizer=s,
                correction=correction,
                k_out=s.logical_count(),
            )
        added, s, registers = _apply(step, s, {})
        for op in added:
            history = history.with_entry(op, symplectic_product(op, hidden))
        if registers is not None:
            history = history.with_discard(registers)


def verify(strategy: Strategy) -> Report:
    """Check the strategy against every error of weight <= t (identity
    included) by one walk over its outcome tree.

    A node is a history, its stabilizer, the enumeration indices of the
    errors that reach it and the consultations spent on its path.  The
    strategy is consulted once per node, and the checks ``simulate`` makes
    for one error run once per node for all of them.  Discard completions
    are memoized on (stabilizer generators, registers) for the call,
    together with the stabilizer they grow.
    Nodes are expanded in the order the one-error-at-a-time loop first
    reaches them (least first error, then depth), so a fault that is not a
    ProtocolError propagates exactly where that loop would raise it.

    A node splits its errors by outcome on their bit-planes, read once into
    lists: the measured operator's dual row is built once, and an error's
    outcome is its dot product with that row, for d=2 an inline AND and
    popcount.  A Finish leaf reduces each error's row modulo the
    stabilizer's row space and requires one residue, which is the test
    ``coset_classes`` makes; an UnsoundFinish counts the distinct residues
    as its classes.  The correction is the leaf's first error:
    ``coset_classes`` would return the least member by (weight, canonical
    key), the enumeration is strictly increasing in that order and a node's
    indices are ascending.

    An error fails on a ProtocolError at a node on its path or on
    certifying fewer pairs than claimed.  The correction is not checked
    against each error, because it cannot differ from one by anything
    outside the final stabilizer: all of a leaf's errors share one residue
    and the correction is one of them.  The per-error oracle
    ``prop_checks.verify_by_simulation`` still makes that check for every
    error.  Counterexamples come out in the deterministic enumeration order.
    """
    return _walk(strategy, lambda history, s, reached: strategy.next(history))


def _walk(
    strategy: Strategy,
    choose: Callable[[History, StabilizerSet, tuple[int, ...]], Step],
) -> Report:
    """``verify``'s walk, taking each node's step from ``choose(history, s,
    reached)``, where ``reached`` holds the node's ascending enumeration
    indices and follows from the history.  No check depends on who chose the
    step, so a chooser that answers as ``strategy.next`` yields ``verify``'s report.

    The report passes iff it has no counterexample, which implies ``k_min >=
    k_claimed``: every error ends at a counterexample or at a leaf, a leaf
    below ``k_claimed`` records a counterexample for each of its errors, and
    the identity is always enumerated, so without counterexamples at least
    one leaf is reached and every leaf certifies ``k_claimed`` pairs."""
    d, n = strategy.d, strategy.n
    members = errorspace.base_errors(d, n, strategy.t).members
    found: list[Optional[Counterexample]] = [None] * len(members)
    k_values: list[int] = []
    completions: dict[tuple, tuple[list[PauliVec], StabilizerSet]] = {}

    ones = [e.one for e in members]
    twos = [e.two for e in members]

    def split(op: PauliVec, reached: tuple[int, ...]):
        parts: list[list[int]] = [[] for _ in range(d)]
        u1, u2 = _dual(op)
        if d == 2:  # _dot inlined
            for i in reached:
                parts[(u1 & ones[i]).bit_count() & 1].append(i)
        else:
            for i in reached:
                parts[_dot(3, u1, u2, ones[i], twos[i])].append(i)
        return [(outcome, tuple(part)) for outcome, part in enumerate(parts) if part]

    frontier = [(0, 0, History(), StabilizerSet(d, n), tuple(range(len(members))))]
    while frontier:
        _, consultations, history, s, reached = heapq.heappop(frontier)
        consultations += 1
        try:
            if consultations > 2 * n:
                raise NonTerminationError(f"strategy exceeded {2 * n} consultations")
            step = choose(history, s, reached)
            if isinstance(step, Finish):
                reduce = s._rows.reduce
                residues = {reduce(ones[i], twos[i]) for i in reached}
                if len(residues) > 1:
                    raise UnsoundFinish(
                        f"{len(reached)} surviving errors span {len(residues)}"
                        " distinct cosets; finished too early"
                    )
            else:
                added, grown, registers = _apply(step, s, completions)
        except ProtocolError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            for i in reached:
                found[i] = Counterexample(members[i], None, reason)
            continue
        if isinstance(step, Finish):
            transcript = Transcript(
                history=history,
                final_stabilizer=s,
                correction=members[reached[0]],
                k_out=s.logical_count(),
            )
            k_values.append(transcript.k_out)
            if transcript.k_out < strategy.k_claimed:
                reason = f"k_out {transcript.k_out} below claimed {strategy.k_claimed}"
                for i in reached:
                    found[i] = Counterexample(members[i], transcript, reason)
            continue
        branches = [(history, reached)]
        for op in added:
            branches = [
                (h.with_entry(op, outcome), part)
                for h, idx in branches
                for outcome, part in split(op, idx)
            ]
        if registers is not None:
            branches = [(h.with_discard(registers), idx) for h, idx in branches]
        for h, idx in branches:
            heapq.heappush(frontier, (idx[0], consultations, h, grown, idx))

    counterexamples = tuple(c for c in found if c is not None)
    k_min = min(k_values) if k_values else -1
    return Report(
        errors_checked=len(members),
        k_min=k_min,
        passed=not counterexamples,
        counterexamples=counterexamples,
    )
