"""Greedy strategy synthesis: bisect the candidate errors with near-balanced
commuting operators.

Each step scans every operator that commutes with the current stabilizer
but lies outside it, and measures the one separating the most surviving
error pairs (equivalently, with the smallest larger half).  An averaging
argument guarantees such an operator splits the survivors to within
sqrt(|E|)/2 of half, so the survivor count collapses geometrically and the
whole protocol spends at most ceil(log2 |E|) + 2 measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product

from . import _kernels
from .bounds import thm2_k
from .engine import (
    Finish,
    History,
    Measure,
    ProtocolError,
    Step,
    Strategy,
    simulate,
    verify,
)
from .errorspace import (
    DEFAULT_CAP,
    ErrorSet,
    base_errors,
    coset_classes,
    count_errors,
    filter_by_outcome,
)
from .pauli import PauliVec, multiply, symplectic_product
from .stabilizer import SizeLimitError, StabilizerSet, normalizer_complement_basis

SCAN_MAX_N = 10


class NoSeparatorError(ProtocolError):
    """All surviving errors are coset-equivalent; the caller should finish."""


@dataclass(frozen=True)
class SplitCount:
    """How a candidate operator divides an error set."""

    commuting: int
    anticommuting: int

    @property
    def separated_pairs(self) -> int:
        return self.commuting * self.anticommuting

    @property
    def max_side(self) -> int:
        return max(self.commuting, self.anticommuting)


def split_counts(m: PauliVec, errors: ErrorSet) -> SplitCount:
    """Exact commuting/anticommuting counts of the error set against m."""
    if m.d != 2 or errors.d != 2:
        raise ValueError("splitting is defined for d=2 only")
    if m.n != errors.n:
        raise ValueError("operator and error set disagree on n")
    anti = sum(1 for e in errors.members if symplectic_product(m, e))
    return SplitCount(commuting=len(errors.members) - anti, anticommuting=anti)


def choose_generator(s: StabilizerSet, errors: ErrorSet) -> PauliVec:
    """Best next measurement: the commuting, independent operator separating
    the most error pairs; ties minimize the larger side, then take the
    canonically smallest operator."""
    if s.d != 2 or errors.d != 2:
        raise ValueError("generator search is defined for d=2 only")
    if s.n > SCAN_MAX_N:
        raise SizeLimitError(f"generator scan needs n <= {SCAN_MAX_N}, got {s.n}")
    if len(errors.members) < 2 or coset_classes(errors, s).is_single_class:
        raise NoSeparatorError(
            "remaining errors are coset-equivalent; no separator exists or is needed"
        )
    complement = normalizer_complement_basis(s)
    if not complement:
        raise NoSeparatorError("stabilizer has full rank; nothing left to measure")
    x, z, _, _ = _kernels.best_splitter(
        [g.x_bits for g in s.gens],
        [g.z_bits for g in s.gens],
        [c.x_bits for c in complement],
        [c.z_bits for c in complement],
        [e.x_bits for e in errors.members],
        [e.z_bits for e in errors.members],
        s.n,
    )
    return PauliVec(
        2,
        s.n,
        tuple((x >> i) & 1 for i in range(s.n)),
        tuple((z >> i) & 1 for i in range(s.n)),
    )


_NodeKey = tuple[tuple[int, int], ...]


def _greedy(
    n: int, t: int, cap: int
) -> tuple[Strategy, dict[_NodeKey, tuple[ErrorSet, StabilizerSet, Step]]]:
    """The greedy strategy and its node table, which maps each consulted
    history (packed operator, outcome per entry) to the node's survivors,
    stabilizer and step."""
    if n > SCAN_MAX_N:
        raise SizeLimitError(f"greedy synthesis needs n <= {SCAN_MAX_N}, got {n}")
    if count_errors(n, t, 2) > cap:
        raise SizeLimitError(
            f"greedy synthesis over {count_errors(n, t, 2)} errors exceeds cap {cap}"
        )
    k_claimed = max(0, thm2_k(n, t))
    table: dict[_NodeKey, tuple[ErrorSet, StabilizerSet, Step]] = {}

    def next_step(history: History) -> Step:
        key = tuple(
            ((op.x_bits << n) | op.z_bits, outcome) for op, outcome in history.entries
        )
        if key not in table:
            if key:
                next_step(History(history.entries[:-1]))
                survivors, s, _ = table[key[:-1]]
                op, outcome = history.entries[-1]
                survivors = filter_by_outcome(survivors, op, outcome)
                s = s.extend(op)
            else:
                survivors, s = base_errors(2, n, t, cap), StabilizerSet(2, n)
            if coset_classes(survivors, s).is_single_class:
                step: Step = Finish()
            else:
                step = Measure(choose_generator(s, survivors))
            table[key] = (survivors, s, step)
        return table[key][2]

    strategy = Strategy(
        d=2, n=n, t=t, k_claimed=k_claimed, next=next_step, name=f"greedy-{n}-{t}"
    )
    return strategy, table


def greedy_strategy(n: int, t: int, cap: int = DEFAULT_CAP) -> Strategy:
    """Strategy that measures the best splitter of the surviving errors until
    they share one coset.

    Each new history becomes a node of a table private to the strategy: its
    survivors are the parent node's filtered by the last outcome, and its
    stabilizer is the parent's extended by the last operator.  A history
    whose parent is not in the table has the parent consulted first, so the
    step function answers any history, not only those reached in order."""
    return _greedy(n, t, cap)[0]


@dataclass(frozen=True)
class GreedyStats:
    """Per-branch accounting for a verified greedy run."""

    step_bound: int
    max_steps: int
    balance_ok: bool
    balance_violations: tuple[str, ...]


def _balanced(max_side: int, total: int) -> bool:
    """max_side < total/2 + sqrt(total)/2, tested exactly in integers."""
    excess = 2 * max_side - total
    return excess <= 0 or excess * excess < total


def greedy_step_stats(n: int, t: int, cap: int = DEFAULT_CAP):
    """Verify the greedy strategy and read its step counts and per-step split
    balance from the node table the verification walk filled.  Returns
    (report, stats).

    ``max_steps`` is the depth of the deepest Finish node.  A Measure node
    whose split is unbalanced is listed once per outcome branch reached,
    ordered by the enumeration index of the branch's first survivor, then
    by depth."""
    strategy, table = _greedy(n, t, cap)
    report = verify(strategy, cap=cap)
    faulted = [c.hidden for c in report.counterexamples if c.transcript is None]
    if faulted:
        # The strategy itself faulted (a ProtocolError): replaying the first
        # error it hit raises that fault, as statistics of a tree that does
        # not finish would mean nothing.
        simulate(strategy, faulted[0])
    position = {e: i for i, e in enumerate(base_errors(2, n, t, cap).members)}
    sides: dict[_NodeKey, list[int]] = {}
    for key, (survivors, _, _) in table.items():
        if key:
            sides.setdefault(key[:-1], [0, 0])[key[-1][1]] = len(survivors.members)
    violations = []
    for key, (survivors, _, _) in table.items():
        if key:
            c, a = sides[key[:-1]]
            if not _balanced(max(c, a), c + a):
                line = f"step {len(key)}: split {c}/{a} of {c + a}"
                violations.append((position[survivors.members[0]], len(key), line))
    violations.sort()
    bound = (count_errors(n, t, 2) - 1).bit_length() + 2
    max_steps = max(
        len(key) for key, (_, _, step) in table.items() if isinstance(step, Finish)
    )
    stats = GreedyStats(
        step_bound=bound,
        max_steps=max_steps,
        balance_ok=not violations,
        balance_violations=tuple(line for _, _, line in violations),
    )
    return report, stats


def average_separated_pairs(s: StabilizerSet, errors: ErrorSet) -> float:
    """Mean separated-pair count over every commuting independent operator;
    used to check the averaging argument on small instances."""
    complement = normalizer_complement_basis(s)
    if not complement or len(errors.members) < 2:
        raise ValueError("nothing to average")
    span = list(s.span_elements())
    total = 0
    count = 0
    for coeffs in _iter_product(range(2), repeat=len(complement)):
        if not any(coeffs):
            continue
        base = PauliVec.identity(2, s.n)
        for c, vec in zip(coeffs, complement):
            if c:
                base = multiply(base, vec)
        for element in span:
            split = split_counts(multiply(base, element), errors)
            total += split.separated_pairs
            count += 1
    return total / count
