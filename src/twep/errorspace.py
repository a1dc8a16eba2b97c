"""Candidate-error sets: enumeration, counting, and syndrome filtering.

The verification loop works with explicit lists of the errors still
compatible with every observation.  Members are kept in a deterministic
order (weight-major, canonical-key minor) so simulated transcripts and
chosen corrections are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb

from .pauli import PauliVec, canonical_key, symplectic_product, weight
from .stabilizer import StabilizerSet

DEFAULT_CAP = 10_000_000

# A verification walk peaks at about 22 bytes per site entry (n entries per
# error): 2^24 entries, about 350 MB, admit hamming m = 11 (n·|E| = 12.6 M)
# and reject m = 12 (50.3 M).
MAX_SITE_ENTRIES = 1 << 24
BYTES_PER_SITE_ENTRY = 22


class CapExceededError(ValueError):
    """Requested enumeration larger than the configured cap, or holding more
    than MAX_SITE_ENTRIES site entries."""

    def __init__(self, count: int, cap: int, message: str = ""):
        super().__init__(message or f"enumeration of {count} errors exceeds cap {cap}")
        self.count = count
        self.cap = cap


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


def check_size(n: int, t: int, d: int = 2, cap: int = DEFAULT_CAP) -> None:
    """Raise CapExceededError unless the errors of weight <= t on n
    registers number at most cap and hold at most MAX_SITE_ENTRIES site
    entries (n·|E|), so nothing is built that cannot fit in memory."""
    total = count_errors(n, t, d)
    if total > cap:
        raise CapExceededError(total, cap)
    entries = n * total
    if entries > MAX_SITE_ENTRIES:
        raise CapExceededError(
            total,
            cap,
            f"enumeration of {total} errors on {n} registers holds {entries} site"
            f" entries, about {entries * BYTES_PER_SITE_ENTRY >> 20} MB; the limit"
            f" is {MAX_SITE_ENTRIES} entries",
        )


def enumerate_errors(n: int, t: int, d: int = 2, cap: int = DEFAULT_CAP) -> ErrorSet:
    """All phaseless errors of weight <= t, identity first, deterministic
    order by weight then canonical key."""
    if t > n:
        raise ValueError(f"weight bound t={t} exceeds register count n={n}")
    check_size(n, t, d, cap)
    nonzero = [(x, z) for x in range(d) for z in range(d) if x or z]
    members: list[PauliVec] = []
    for w in range(0, t + 1):
        batch = []
        for support in combinations(range(n), w):
            for digits in product(nonzero, repeat=w):
                batch.append(PauliVec.from_sites(d, n, dict(zip(support, digits))))
        batch.sort(key=canonical_key)
        members.extend(batch)
    return ErrorSet(d, n, tuple(members))


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
def base_errors(d: int, n: int, t: int, cap: int = DEFAULT_CAP) -> ErrorSet:
    """Cached weight-bounded enumeration; the engine filters copies of this."""
    return enumerate_errors(n, t, d, cap)
