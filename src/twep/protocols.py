"""The built-in two-way purification protocols, as Strategy values.

Every protocol is a plan on one schedule, ``_schedule``: the plan maps the
outcomes measured so far to the next step, and the strategy finishes once
its discard has run.  A plan reads nothing but the outcomes, so replaying a
history always reproduces the step.  The fixed protocols (six-pair,
nine-pair, qutrit-four) share the plan ``_fixed``: measure an operator
tuple, then discard the block the outcomes point to.  The hamming family's
plan bisects, gated by ``check_size`` before it builds an operator.  No
strategy owns a syndrome lookup table: the engine corrects with a
surviving candidate error.
"""

from __future__ import annotations

from typing import Callable

from .engine import Discard, Finish, History, Measure, Step, Strategy
from .errorspace import check_budget, check_size
from .pauli import PauliVec, _from_planes, parse

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
FOUR_QUBIT_GENERATORS = ("XXXX", "ZZZZ")


def _x_over(n: int, sites) -> PauliVec:
    return _from_planes(2, n, sum(1 << 2 * i for i in sites), 0)


def _z_over(n: int, sites) -> PauliVec:
    return _from_planes(2, n, sum(2 << 2 * i for i in sites), 0)


def _schedule(d: int, n: int, t: int, k_claimed: int, plan, name: str) -> Strategy:
    """The strategy that takes each step from ``plan(outcomes)``, a Measure,
    Discard or Finish, until a discard has run, and then finishes."""

    def next_step(history: History) -> Step:
        if history.discards:
            return Finish()
        return plan(history.outcomes())

    return Strategy(d=d, n=n, t=t, k_claimed=k_claimed, next=next_step, name=name)


def _fixed(ops, discard):
    """The plan that measures ``ops`` in order, then discards the registers
    ``discard(outcomes)`` returns."""
    return lambda o: Measure(ops[len(o)]) if len(o) < len(ops) else Discard(discard(o))


def six_pair() -> Strategy:
    """Detect one error on the first four pairs, keep two pairs either way.

    Measures the four-pair X and Z parities.  A nonzero syndrome localizes
    the single error to the first four pairs, which are discarded; a zero
    syndrome certifies them, and the two unmeasured-but-unprotected pairs
    are discarded instead.
    """
    ops = (_x_over(6, range(4)), _z_over(6, range(4)))
    front, back = frozenset(range(4)), frozenset({4, 5})
    plan = _fixed(ops, lambda o: front if any(o) else back)
    return _schedule(2, 6, 1, 2, plan, "six-pair")


def hamming_family(m: int) -> Strategy:
    """2^m - 1 pairs, one error, 2^m - m - 2 pairs guaranteed.

    First measurement is the all-pairs X parity.  If it trips, the error
    anticommutes with X and is pinned down by bisection: repeatedly measure
    the X parity of the first half of the candidate interval, keep the half
    the outcome indicates, and after m-1 rounds discard the one or two pairs
    left.  If it does not trip, only X errors (or none) remain, and the m
    classical Hamming parity checks, measured as Z products over the pairs
    whose index has a 0 in the corresponding bit, identify the position
    outright; the all-ones index is absent, so all-clear means no error.
    The plan replays the bisection on the interval's two ends, so a step
    costs one pass over the outcomes plus the operator it returns.
    Raises SizeLimitError before building for m >= 14: its walk passes the
    memory budget, and past about 2^30 the pair count itself does.
    """
    if m < 3:
        raise ValueError("hamming_family needs m >= 3 (smaller m certifies 0 pairs)")
    check_budget(m // 8, "the pair count 2^{} - 1", m)
    n = 2**m - 1
    check_size(n, 1, 2)
    all_x = _x_over(n, range(n))
    z_checks = tuple(
        _z_over(n, [p for p in range(n) if not (p >> (m - 1 - i)) & 1])
        for i in range(m)
    )

    def plan(outcomes: tuple[int, ...]) -> Step:
        if not outcomes:
            return Measure(all_x)
        if not outcomes[0]:
            checks = len(outcomes) - 1
            return Measure(z_checks[checks]) if checks < m else Finish()
        # Bisection branch: the candidates are the pairs lo..hi-1.
        lo, hi = 0, n
        for outcome in outcomes[1:]:
            half = (lo + hi + 1) // 2
            lo, hi = (lo, half) if outcome else (half, hi)
        if len(outcomes) < m:
            return Measure(_x_over(n, range(lo, (lo + hi + 1) // 2)))
        return Discard(frozenset(range(lo, hi)))

    return _schedule(2, n, 1, 2**m - m - 2, plan, f"hamming-m{m}")


def nine_pair() -> Strategy:
    """Nine pairs, two errors, at least one good pair.

    Measures the five-pair code generators on pairs 0-4 and the four-pair
    detection generators on pairs 5-8, then branches: an error on the last
    four means at most one on the first five (correctable there), an error
    only on the first five certifies the last four, and all-clear certifies
    the first five.
    """
    ops = tuple(parse(g + "IIII", 2) for g in FIVE_QUBIT_GENERATORS) + tuple(
        parse("IIIII" + g, 2) for g in FOUR_QUBIT_GENERATORS
    )
    front, back = frozenset(range(5)), frozenset(range(5, 9))

    def discard(outcomes: tuple[int, ...]) -> frozenset[int]:
        return front if any(outcomes[:4]) and not any(outcomes[4:]) else back

    return _schedule(2, 9, 2, 1, _fixed(ops, discard), "nine-pair")


def qutrit_four() -> Strategy:
    """Four qutrit pairs, one error, one good pair.

    Measures the three-qutrit X and Z parities on pairs 0-2.  Any nonzero
    outcome pins the error to those pairs, which are discarded in favor of
    pair 3; all-clear certifies pairs 0-2 and pair 3 is discarded.
    """
    ops = (
        PauliVec(3, 4, (1, 1, 1, 0), (0, 0, 0, 0)),
        PauliVec(3, 4, (0, 0, 0, 0), (1, 1, 1, 0)),
    )
    front, back = frozenset({0, 1, 2}), frozenset({3})
    plan = _fixed(ops, lambda o: front if any(o) else back)
    return _schedule(3, 4, 1, 1, plan, "qutrit-four")


_FACTORIES: dict[str, Callable[[], Strategy]] = {
    "six-pair": six_pair,
    "hamming-m3": lambda: hamming_family(3),
    "hamming-m4": lambda: hamming_family(4),
    "hamming-m5": lambda: hamming_family(5),
    "nine-pair": nine_pair,
    "qutrit-four": qutrit_four,
}


def names() -> list[str]:
    return list(_FACTORIES)


def get(name: str) -> Strategy:
    """Look up a protocol by registry name; KeyError(name) if unknown."""
    return _FACTORIES[name]()
