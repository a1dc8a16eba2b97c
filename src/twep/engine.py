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
along the operators it adds, and each Finish classifies its errors into
cosets once.  ``simulate`` runs one error at a time; it serves single runs
and is the oracle the tests compare the walk against.  A report passes
only if every error ends with a consistent correction and enough certified
pairs.  A step the strategy may not take (a measurement that is not a
PauliVec, off the protocol's registers, anticommuting or redundant; a
discard of no, too many or nonexistent registers) is a ProtocolError, and
so a counterexample for every error that reaches it, in both.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import errorspace
from .errorspace import DEFAULT_CAP, ErrorSet, coset_classes, filter_by_outcome
# multiply is unused here; perfbench's tracer wraps ``engine.multiply``.
from .pauli import PauliVec, multiply, render, symplectic_product, weight
from .stabilizer import DISCARD_MAX_REGISTERS, StabilizerSet, complete_discard


class ProtocolError(Exception):
    """A simulation rule was violated; verify() reports these as failures."""


class IllegalMeasurement(ProtocolError):
    """Measured operator anticommutes with an earlier one, does not act on
    the protocol's registers, or is not a PauliVec."""


class RedundantMeasurement(ProtocolError):
    """Measured operator is already in the span of earlier measurements."""


class IllegalDiscard(ProtocolError):
    """Discard of no registers, of registers outside the protocol, or of more
    than DISCARD_MAX_REGISTERS registers."""


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
        return tuple(o for _, o in self.entries)


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
        """Plain-data form.  Each distinct transcript is rendered once (every
        counterexample at one Finish leaf shares its leaf's transcript), so
        the counterexamples that share a transcript share its record list."""
        records: dict[int, list[dict]] = {}
        for c in self.counterexamples:
            if c.transcript is not None and id(c.transcript) not in records:
                records[id(c.transcript)] = c.transcript.to_records()
        return {
            "errors_checked": self.errors_checked,
            "k_min": self.k_min,
            "pass": self.passed,
            "counterexamples": [
                {
                    "error": render(c.hidden),
                    "reason": c.reason,
                    "transcript": (
                        records[id(c.transcript)] if c.transcript is not None else None
                    ),
                }
                for c in self.counterexamples
            ],
        }

    def to_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


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


def _check_step(step: Step, s: StabilizerSet) -> Optional[StabilizerSet]:
    """Raise the ProtocolError a Measure or Discard step commits against the
    stabilizer s, before the step runs; other steps pass unchecked.  A legal
    Measure returns s grown by its operator, which is reduced only once."""
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
        return grown
    elif isinstance(step, Discard):
        registers = frozenset(step.registers)
        if not registers:
            raise IllegalDiscard("discard of no registers")
        if len(registers) > DISCARD_MAX_REGISTERS:
            raise IllegalDiscard(
                f"discard of {len(registers)} registers exceeds the bound "
                f"{DISCARD_MAX_REGISTERS}"
            )
        outside = sorted(r for r in registers if not 0 <= r < s.n)
        if outside:
            raise IllegalDiscard(f"discard registers {outside} lie outside 0..{s.n - 1}")


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
        grown = _check_step(step, s)
        if isinstance(step, Measure):
            op = step.op
            outcome = symplectic_product(op, hidden)
            history = history.with_entry(op, outcome)
            s = grown
        elif isinstance(step, Discard):
            for op in complete_discard(s, step.registers):
                outcome = symplectic_product(op, hidden)
                history = history.with_entry(op, outcome)
                s = s.extend(op)
            history = history.with_discard(step.registers)
        elif isinstance(step, Finish):
            correction = generic_correction(s, history, strategy.t, strategy.d)
            return Transcript(
                history=history,
                final_stabilizer=s,
                correction=correction,
                k_out=s.logical_count(),
            )
        else:
            raise TypeError(f"strategy returned {step!r}, not a Step")


def verify(strategy: Strategy, cap: int = DEFAULT_CAP) -> Report:
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

    An error fails on a ProtocolError at a node on its path or on
    certifying fewer pairs than claimed.  The correction is not checked
    against each error, because it cannot differ from one by anything
    outside the final stabilizer: ``coset_classes`` groups a Finish leaf's
    errors by ``residue``, their linear projection modulo the stabilizer's
    row space, the leaf is reached only if they form one class, and the
    correction is a member of that class.  The per-error oracle
    ``prop_checks.verify_by_simulation`` still makes that check for every
    error.  Counterexamples come out in the deterministic enumeration order.
    """
    d, n = strategy.d, strategy.n
    members = errorspace.enumerate_errors(n, strategy.t, d, cap).members
    found: list[Optional[Counterexample]] = [None] * len(members)
    k_values: list[int] = []
    completions: dict[tuple, list[PauliVec]] = {}

    def split(op: PauliVec, reached: tuple[int, ...]):
        parts: list[list[int]] = [[] for _ in range(d)]
        for i in reached:
            parts[symplectic_product(op, members[i])].append(i)
        return [(outcome, tuple(part)) for outcome, part in enumerate(parts) if part]

    frontier = [(0, 0, History(), StabilizerSet(d, n), tuple(range(len(members))))]
    while frontier:
        _, consultations, history, s, reached = heapq.heappop(frontier)
        consultations += 1
        try:
            if consultations > 2 * n:
                raise NonTerminationError(f"strategy exceeded {2 * n} consultations")
            step = strategy.next(history)
            grown = _check_step(step, s)
            if isinstance(step, Measure):
                added = [step.op]
            elif isinstance(step, Discard):
                key = (s.gens, frozenset(step.registers))
                if key not in completions:
                    added = complete_discard(s, key[1])
                    grown = s
                    for op in added:
                        grown = grown.extend(op)
                    completions[key] = added, grown
                added, grown = completions[key]
            elif isinstance(step, Finish):
                survivors = ErrorSet(d, n, tuple(members[i] for i in reached))
                partition = coset_classes(survivors, s)
                if not partition.is_single_class:
                    raise UnsoundFinish(
                        f"{len(reached)} surviving errors span "
                        f"{len(partition.classes)} distinct cosets; finished too early"
                    )
            else:
                raise TypeError(f"strategy returned {step!r}, not a Step")
        except ProtocolError as exc:
            reason = f"{type(exc).__name__}: {exc}"
            for i in reached:
                found[i] = Counterexample(members[i], None, reason)
            continue
        if isinstance(step, Finish):
            transcript = Transcript(
                history=history,
                final_stabilizer=s,
                correction=partition.representatives[0],
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
        if isinstance(step, Discard):
            branches = [(h.with_discard(step.registers), idx) for h, idx in branches]
        for h, idx in branches:
            heapq.heappush(frontier, (idx[0], consultations, h, grown, idx))

    counterexamples = tuple(c for c in found if c is not None)
    k_min = min(k_values) if k_values else -1
    return Report(
        errors_checked=len(members),
        k_min=k_min,
        passed=not counterexamples and k_min >= strategy.k_claimed,
        counterexamples=counterexamples,
    )
