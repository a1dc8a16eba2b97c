"""Candidate-error sets: enumeration, counting, and syndrome filtering.

The verification loop works with explicit lists of the errors still
compatible with every observation.  Members are kept in a deterministic
order (weight-major, canonical-key minor) so simulated transcripts and
chosen corrections are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .pauli import PauliVec, _from_planes, canonical_key, symplectic_product, weight
from .stabilizer import StabilizerSet

# A verification walk peaks at about 2 bytes per site entry (n entries per
# error): 21 MB at hamming m = 11 (n·|E| = 12.6 M), 16 MB of it the
# interpreter.  2^24 entries, about 32 MB, admit m = 11 and reject m = 12
# (50.3 M).
MAX_SITE_ENTRIES = 1 << 24
BYTES_PER_SITE_ENTRY = 2


class CapExceededError(ValueError):
    """Requested enumeration of ``count`` errors holds more than
    MAX_SITE_ENTRIES site entries."""

    def __init__(self, count: int, message: str):
        super().__init__(message)
        self.count = count


@dataclass(frozen=True)
class ErrorSet:
    """Distinct candidate errors on n registers of dimension d."""

    d: int
    n: int
    members: tuple[PauliVec, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def count_errors(n: int, t: int, d: int = 2) -> int:
    """Number of phaseless errors of weight at most t on n registers,
    including the identity: sum of (d^2-1)^j * C(n, j)."""
    per_site = d * d - 1
    return sum(per_site**j * comb(n, j) for j in range(0, t + 1))


def check_size(n: int, t: int, d: int = 2) -> None:
    """Raise CapExceededError unless the errors of weight <= t on n
    registers hold at most MAX_SITE_ENTRIES site entries (n·|E|), so nothing
    is built that cannot fit in memory.  This is the one size gate on an
    enumeration; it also bounds the error count, to 2^23 for n >= 2."""
    total = count_errors(n, t, d)
    entries = n * total
    if entries > MAX_SITE_ENTRIES:
        raise CapExceededError(
            total,
            f"enumeration of {total} errors on {n} registers holds {entries} site"
            f" entries, about {entries * BYTES_PER_SITE_ENTRY >> 20} MB; the limit"
            f" is {MAX_SITE_ENTRIES} entries",
        )


def enumerate_errors(n: int, t: int, d: int = 2) -> ErrorSet:
    """All phaseless errors of weight <= t, identity first, deterministic
    order by weight then canonical key.

    Keys compare the highest differing site first, so within one weight
    the order is by top site, then the digit x + d*z there, then the
    order of the rest, which lies on the sites below: the errors of weight
    w with top site s are the ones of weight w - 1 on the sites below s,
    in order, with each nonzero digit placed at s, in turn."""
    if t > n:
        raise ValueError(f"weight bound t={t} exceeds register count n={n}")
    check_size(n, t, d)
    # Planes (x1, x2, z1, z2) of each nonzero site digit x + d*z, ascending.
    digits = [(x == 1, x == 2, z == 1, z == 2) for z in range(d) for x in range(d)][1:]
    # The planes of every error of the last weight, in order, and how many
    # of them lie on the sites below s, for each s.
    level, below = [(0, 0, 0, 0)], [1] * (n + 1)
    planes = list(level)
    for _ in range(t):
        grown, counts = [], []
        for s in range(n):
            counts.append(len(grown))
            for a1, a2, b1, b2 in digits:
                a1, a2, b1, b2 = a1 << s, a2 << s, b1 << s, b2 << s
                grown += [
                    (x1 | a1, x2 | a2, z1 | b1, z2 | b2)
                    for x1, x2, z1, z2 in level[: below[s]]
                ]
        level, below = grown, counts + [len(grown)]
        planes += level
    return ErrorSet(d, n, tuple(_from_planes(d, n, *p) for p in planes))


def filter_by_outcome(errors: ErrorSet, m: PauliVec, outcome: int) -> ErrorSet:
    """Members whose commutation value against m equals the outcome."""
    if m.d != errors.d or m.n != errors.n:
        raise ValueError("measurement operator does not match the error set")
    kept = tuple(e for e in errors.members if symplectic_product(m, e) == outcome)
    return ErrorSet(errors.d, errors.n, kept)


@dataclass(frozen=True)
class CosetPartition:
    """Partition of an error set by coset of a stabilizer's row space.

    Classes are ordered by first occurrence; each representative is the
    minimum-weight member, canonical key breaking ties.
    """

    classes: tuple[tuple[PauliVec, ...], ...]
    representatives: tuple[PauliVec, ...]

    @property
    def is_single_class(self) -> bool:
        return len(self.classes) == 1


def coset_classes(errors: ErrorSet, s: StabilizerSet) -> CosetPartition:
    """Group members that differ by a stabilizer element; such errors share
    every syndrome and act identically on the protected space."""
    if errors.d != s.d or errors.n != s.n:
        raise ValueError("error set does not match the stabilizer")
    buckets: dict[int, list[PauliVec]] = {}
    order: list[int] = []
    for e in errors.members:
        key = s.residue(e)
        if key not in buckets:
            buckets[key] = []
            order.append(key)
        buckets[key].append(e)
    classes = tuple(tuple(buckets[k]) for k in order)
    reps = tuple(
        min(cls, key=lambda p: (weight(p), canonical_key(p))) for cls in classes
    )
    return CosetPartition(classes, reps)


@lru_cache(maxsize=64)
def base_errors(d: int, n: int, t: int) -> ErrorSet:
    """Cached weight-bounded enumeration, the one every verification,
    correction and synthesis reads; the engine filters copies of this."""
    return enumerate_errors(n, t, d)
