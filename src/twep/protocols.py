"""The built-in two-way purification protocols, as Strategy values.

Each factory returns a strategy whose step function recomputes its branch
state from the history alone, so replaying a history always reproduces the
step.  None of the strategies owns a syndrome lookup table: the engine
corrects with a surviving candidate error.
"""

from __future__ import annotations

from typing import Callable

from .engine import Discard, Finish, History, Measure, Step, Strategy
from .pauli import PauliVec, _from_planes, parse

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
FOUR_QUBIT_GENERATORS = ("XXXX", "ZZZZ")


def _x_over(n: int, sites) -> PauliVec:
    return _from_planes(2, n, sum(1 << 2 * i for i in sites), 0)


def _z_over(n: int, sites) -> PauliVec:
    return _from_planes(2, n, sum(2 << 2 * i for i in sites), 0)


def six_pair() -> Strategy:
    """Detect one error on the first four pairs, keep two pairs either way.

    Measures the four-pair X and Z parities.  A nonzero syndrome localizes
    the single error to the first four pairs, which are discarded; a zero
    syndrome certifies them, and the two unmeasured-but-unprotected pairs
    are discarded instead.
    """
    n = 6
    ops = (_x_over(n, range(4)), _z_over(n, range(4)))

    def next_step(history: History) -> Step:
        if history.discards:
            return Finish()
        if len(history) < 2:
            return Measure(ops[len(history)])
        if any(history.outcomes()):
            return Discard(frozenset(range(4)))
        return Discard(frozenset({4, 5}))

    return Strategy(d=2, n=n, t=1, k_claimed=2, next=next_step, name="six-pair")


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
    """
    if m < 3:
        raise ValueError("hamming_family needs m >= 3 (smaller m certifies 0 pairs)")
    n = 2**m - 1
    all_x = _x_over(n, range(n))
    z_checks = tuple(
        _z_over(n, [p for p in range(n) if not (p >> (m - 1 - i)) & 1])
        for i in range(m)
    )

    def next_step(history: History) -> Step:
        if history.discards:
            return Finish()
        if len(history) == 0:
            return Measure(all_x)
        if history.entries[0][1]:
            # Bisection branch: replay the interval shrinking.
            candidates = list(range(n))
            for _, outcome in history.entries[1:]:
                half = (len(candidates) + 1) // 2
                candidates = candidates[:half] if outcome else candidates[half:]
            if len(history) - 1 < m - 1:
                half = (len(candidates) + 1) // 2
                return Measure(_x_over(n, candidates[:half]))
            return Discard(frozenset(candidates))
        if len(history) - 1 < m:
            return Measure(z_checks[len(history) - 1])
        return Finish()

    return Strategy(
        d=2,
        n=n,
        t=1,
        k_claimed=2**m - m - 2,
        next=next_step,
        name=f"hamming-m{m}",
    )


def nine_pair() -> Strategy:
    """Nine pairs, two errors, at least one good pair.

    Measures the five-pair code generators on pairs 0-4 and the four-pair
    detection generators on pairs 5-8, then branches: an error on the last
    four means at most one on the first five (correctable there), an error
    only on the first five certifies the last four, and all-clear certifies
    the first five.
    """
    n = 9
    ops = tuple(parse(g + "IIII", 2) for g in FIVE_QUBIT_GENERATORS) + tuple(
        parse("IIIII" + g, 2) for g in FOUR_QUBIT_GENERATORS
    )

    def next_step(history: History) -> Step:
        if history.discards:
            return Finish()
        if len(history) < 6:
            return Measure(ops[len(history)])
        outcomes = history.outcomes()
        last_four_hit = any(outcomes[4:6])
        first_five_hit = any(outcomes[:4])
        if last_four_hit:
            return Discard(frozenset({5, 6, 7, 8}))
        if first_five_hit:
            return Discard(frozenset({0, 1, 2, 3, 4}))
        return Discard(frozenset({5, 6, 7, 8}))

    return Strategy(d=2, n=n, t=2, k_claimed=1, next=next_step, name="nine-pair")


def qutrit_four() -> Strategy:
    """Four qutrit pairs, one error, one good pair.

    Measures the three-qutrit X and Z parities on pairs 0-2.  Any nonzero
    outcome pins the error to those pairs, which are discarded in favor of
    pair 3; all-clear certifies pairs 0-2 and pair 3 is discarded.
    """
    n = 4
    ops = (
        PauliVec(3, n, (1, 1, 1, 0), (0, 0, 0, 0)),
        PauliVec(3, n, (0, 0, 0, 0), (1, 1, 1, 0)),
    )

    def next_step(history: History) -> Step:
        if history.discards:
            return Finish()
        if len(history) < 2:
            return Measure(ops[len(history)])
        if any(history.outcomes()):
            return Discard(frozenset({0, 1, 2}))
        return Discard(frozenset({3}))

    return Strategy(d=3, n=n, t=1, k_claimed=1, next=next_step, name="qutrit-four")


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
    """Look up a protocol by registry name."""
    if name not in _FACTORIES:
        raise KeyError(name)
    return _FACTORIES[name]()
