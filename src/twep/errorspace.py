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

from .pauli import PauliVec, _dot, _dual, _from_planes, canonical_key, weight
# Unused here; perfbench's tracer wraps ``errorspace.symplectic_product``.
from .pauli import symplectic_product
from .stabilizer import SizeLimitError, StabilizerSet

# A verification walk holds about BYTES_PER_ERROR per error (its operator,
# its index in the nodes' survivor tuples and a possible counterexample)
# plus what grows with the width of a row over 2n columns: the error's own
# planes and the echelon rows of the stabilizers held by frontier nodes and
# the discard memo.  That comes to 3 bytes per 8 registers for d=2 (one
# plane) and 6 for d=3 (two).  Fitted to peak RSS (VmHWM) above an
# interpreter that has imported twep (Python 3.11, 2 vCPUs): hamming
# m = 10, 11, 12, 13 hold 2.6, 6.9, 23.0, 79.2 MB (estimates 3.5, 9.4,
# 28.3, 94.4 MB), and discarding 9 of 12 registers at t = 4 holds 15.7 MB
# (36.1 MB).  The limit admits hamming m = 13 and refuses m = 14 (340 MB).
BYTES_PER_ERROR = 768
MAX_WALK_BYTES = 1 << 27


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


def check_size(n: int, t: int, d: int = 2) -> int:
    """The bytes a verification walk over the errors of weight <= t on n
    registers holds, estimated from |E|, n and d.  Raise SizeLimitError
    before anything is built if the estimate exceeds MAX_WALK_BYTES: this
    is the one size gate on an enumeration."""
    total = count_errors(n, t, d)
    row_bytes = (3 if d == 2 else 6) * -(-n // 8)
    estimate = total * (BYTES_PER_ERROR + row_bytes)
    if estimate > MAX_WALK_BYTES:
        raise SizeLimitError(
            f"enumeration of {total} errors on {n} registers needs about"
            f" {estimate >> 20} MB; the limit is {MAX_WALK_BYTES >> 20} MB"
        )
    return estimate


def enumerate_errors(n: int, t: int, d: int = 2) -> ErrorSet:
    """All phaseless errors of weight <= t, identity first, deterministic
    order by weight then canonical key.

    Keys compare the highest differing site first, so within one weight
    the order is by top site, then the digit x + d*z there, then the
    order of the rest, which lies on the sites below: the errors of weight
    w with top site s are the ones of weight w - 1 on the sites below s,
    in order, with each nonzero digit placed at s, in turn."""
    if not 0 <= t <= n:
        raise ValueError(f"weight bound t={t} lies outside 0..{n}")
    check_size(n, t, d)
    # Planes (one, two) of each nonzero site digit x + d*z on site 0,
    # ascending: x in column 0, z in column 1.
    digits = [
        ((x == 1) | (z == 1) << 1, (x == 2) | (z == 2) << 1)
        for z in range(d)
        for x in range(d)
    ][1:]
    # The planes of every error of the last weight, in order, and how many
    # of them lie on the sites below s, for each s.
    level, below = [(0, 0)], [1] * (n + 1)
    planes = list(level)
    for _ in range(t):
        grown, counts = [], []
        for s in range(n):
            counts.append(len(grown))
            for a1, a2 in digits:
                a1, a2 = a1 << 2 * s, a2 << 2 * s
                grown += [(one | a1, two | a2) for one, two in level[: below[s]]]
        level, below = grown, counts + [len(grown)]
        planes += level
    return ErrorSet(d, n, tuple(_from_planes(d, n, *p) for p in planes))


def filter_by_outcome(errors: ErrorSet, m: PauliVec, outcome: int) -> ErrorSet:
    """Members whose commutation value against m equals the outcome."""
    if m.d != errors.d or m.n != errors.n:
        raise ValueError("measurement operator does not match the error set")
    u1, u2 = _dual(m)
    kept = tuple(
        e for e in errors.members if _dot(m.d, u1, u2, e.one, e.two) == outcome
    )
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
