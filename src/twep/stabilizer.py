"""Stabilizer groups as symplectic row spaces over Z_d.

A stabilizer is an ordered list of mutually commuting, independent phaseless
Pauli operators.  All the questions this module answers (rank, membership,
normalizer tests, syndromes, logical count, discard completion) reduce to
exact Gaussian elimination on the (x|z) matrix over the field Z_d; no
floating point appears anywhere.  The matrix rows are packed like the
operators: an operator's row is its bit-planes over 2n columns, x at bit i
and z at bit n + i, and ``_kernels.Echelon`` reduces them for both
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import _kernels
from ._kernels import Echelon
# multiply is unused here; perfbench's tracer wraps ``stabilizer.multiply``.
from .pauli import (
    DimensionMismatchError,
    PauliVec,
    _from_planes,
    multiply,
    symplectic_product,
    weight,
)

ENUMERATION_MAX_N = 12


class SizeLimitError(ValueError):
    """An exhaustive enumeration or scan was requested beyond its size gate."""


def _packed(p: PauliVec) -> tuple[int, int]:
    """The operator's row: its value-1 and value-2 planes over 2n columns."""
    return p.x1 | p.z1 << p.n, p.x2 | p.z2 << p.n


def _operator(d: int, n: int, one: int, two: int) -> PauliVec:
    """The operator whose row is (one, two); inverse of ``_packed``."""
    low = (1 << n) - 1
    return _from_planes(d, n, one & low, two & low, one >> n, two >> n)


def rank(gens: Sequence[PauliVec]) -> int:
    """Rank of the (x|z) matrix of the given operators over Z_d."""
    if not gens:
        return 0
    d, n = gens[0].d, gens[0].n
    rows = Echelon(d)
    for g in gens:
        if g.d != d or g.n != n:
            raise DimensionMismatchError("generators disagree on d or n")
        rows = rows.insert(*_packed(g)) or rows
    return len(rows)


@dataclass(frozen=True)
class Syndrome:
    """Commutation values of an error against each generator, in order."""

    values: tuple[int, ...]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def is_trivial(self) -> bool:
        return not any(self.values)


class StabilizerSet:
    """Immutable abelian, independent generator list with cached echelon form.

    ``extend`` returns a new set sharing the reduced-form lineage, so growing
    a stabilizer one measurement at a time costs one row reduction per step.
    """

    __slots__ = ("d", "n", "gens", "_rows")

    def __init__(self, d: int, n: int, gens: Sequence[PauliVec] = ()):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gens", ())
        object.__setattr__(self, "_rows", Echelon(d))
        for g in gens:
            grown = self.extend(g)
            object.__setattr__(self, "gens", grown.gens)
            object.__setattr__(self, "_rows", grown._rows)

    def __setattr__(self, name, value):
        raise AttributeError("StabilizerSet is immutable")

    def __len__(self) -> int:
        return len(self.gens)

    def _check(self, p: PauliVec) -> None:
        if p.d != self.d or p.n != self.n:
            raise DimensionMismatchError(
                f"operator d={p.d},n={p.n} vs stabilizer d={self.d},n={self.n}"
            )

    def extend(self, p: PauliVec) -> StabilizerSet:
        """New StabilizerSet with p appended; p must commute with and be
        independent of the current generators."""
        self._check(p)
        if not self.in_normalizer(p):
            raise ValueError(f"{p} does not commute with the stabilizer")
        new = self._grown(p)
        if new is None:
            raise ValueError(f"{p} is dependent on the stabilizer")
        return new

    def _grown(self, p: PauliVec) -> StabilizerSet | None:
        """The set with p appended, or None if p is in the span; p must have
        this set's shape and commute with it.  Reduces p once, so callers
        that test membership before extending share this one reduction."""
        rows = self._rows.insert(*_packed(p))
        if rows is None:
            return None
        new = object.__new__(StabilizerSet)
        object.__setattr__(new, "d", self.d)
        object.__setattr__(new, "n", self.n)
        object.__setattr__(new, "gens", self.gens + (p,))
        object.__setattr__(new, "_rows", rows)
        return new

    @property
    def rank(self) -> int:
        return len(self._rows)

    def residue(self, p: PauliVec) -> int:
        """Canonical representative of p's coset modulo the row space,
        packed into one integer: bit c (bit 2n + c) set iff column c of the
        representative holds 1 (2)."""
        self._check(p)
        one, two = self._rows.reduce(*_packed(p))
        return one | two << 2 * self.n

    def is_member(self, p: PauliVec) -> bool:
        """Phaseless membership in the generated group."""
        return not self.residue(p)

    def in_normalizer(self, p: PauliVec) -> bool:
        """True iff p commutes with every generator."""
        self._check(p)
        return all(symplectic_product(p, g) == 0 for g in self.gens)

    def syndrome(self, e: PauliVec) -> Syndrome:
        """Per-generator commutation values, in measurement order."""
        self._check(e)
        return Syndrome(tuple(symplectic_product(g, e) for g in self.gens))

    def logical_count(self) -> int:
        """Number of unconstrained register pairs: n minus the rank."""
        return self.n - self.rank


def complete_discard(s: StabilizerSet, discard: Iterable[int]) -> list[PauliVec]:
    """Maximal list of operators supported inside the discarded registers,
    each commuting with the stabilizer and with all earlier picks, each
    independent of the span so far: what a scan of every candidate in
    ascending canonical-key order keeps
    (``prop_checks.complete_discard_reference``), found by row reduction.

    Local coordinates put x of the j-th discarded register (ascending) at
    column 2j and z at 2j + 1, so keys compare columns from the highest
    down.  V, the operators there commuting with the current generators,
    is the nullspace of one constraint row per generator.  The rows'
    pivots are their lowest columns, so V's fully reduced basis has one
    vector per free column f: 1 at f, 0 at the other free columns, nothing
    above f.  An element of V is led by its highest nonzero free column,
    and the least element led by f is f's basis vector.  So the least key
    among the elements of V outside the span, which is the scan's next
    pick as a rejected candidate stays rejected, is the first basis vector
    outside the span.  After a pick at f every element of the new V led by
    a column up to f lies in the new span: the search resumes at f + 1.
    """
    registers = frozenset(discard)
    if not registers:
        raise ValueError("discard set must be nonempty")
    if any(not 0 <= r < s.n for r in registers):
        raise ValueError("discard register out of range")
    d, n = s.d, s.n
    sites = list(enumerate(sorted(registers)))

    def constraint(g: PauliVec) -> tuple[int, int]:
        # <g, u> = x_g . z_u - z_g . x_u: x column 2j holds -z_g at the
        # j-th site and z column 2j + 1 holds x_g; -z_g swaps the d=3 planes.
        z1, z2 = (g.z1, 0) if d == 2 else (g.z2, g.z1)
        one = two = 0
        for j, r in sites:
            one |= (z1 >> r & 1) << 2 * j | (g.x1 >> r & 1) << 2 * j + 1
            two |= (z2 >> r & 1) << 2 * j | (g.x2 >> r & 1) << 2 * j + 1
        return one, two

    def spread(plane: int) -> int:
        """A local plane as a row plane: x at bit r, z at bit n + r."""
        row = 0
        for j, r in sites:
            row |= (plane >> 2 * j & 1) << r | (plane >> 2 * j + 1 & 1) << n + r
        return row

    constraints = Echelon(d)
    for g in s.gens:
        constraints = constraints.insert(*constraint(g)) or constraints
    span, added, start = s._rows, [], 0
    while True:
        for one, two in _nullspace(constraints, 2 * len(sites), start):
            row = spread(one), spread(two)
            grown = span.insert(*row)
            if grown is not None:
                break
        else:
            return added
        op = _operator(d, n, *row)
        added.append(op)
        span, start = grown, one.bit_length()
        constraints = constraints.insert(*constraint(op)) or constraints


def _nullspace(rows: Echelon, width: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """Basis of the vectors of ``width`` columns that the rows annihilate,
    packed: one vector per free column from ``start`` on, ascending."""
    d = rows.d
    # The rows are fully reduced, so back-substitution reads directly: the
    # vector of free column f holds 1 there and -row[f] at each row's pivot.
    pivots = sum(pivot for pivot, _, _ in rows.rows)
    for free in range(start, width):
        bit = 1 << free
        if bit & pivots:
            continue
        one, two = bit, 0
        for pivot, r1, r2 in rows.rows:
            if r2 & bit or r1 & bit and d == 2:  # -row[f] is 1
                one |= pivot
            elif r1 & bit:  # -1 is 2 for d=3
                two |= pivot
        yield one, two


def _constraint_nullspace(s: StabilizerSet) -> list[tuple[int, int]]:
    """Basis of the space of symplectic vectors commuting with every
    generator (the normalizer, as a Z_d space of dimension 2n - rank),
    packed: one vector per free column of the constraint rows, ascending."""
    d, n = s.d, s.n
    # Row for generator g maps u=(x|z) to <g,u> = x_g . z_u - z_g . x_u.
    rows = Echelon(d)
    for g in s.gens:
        # -z_g is z_g for d=2; for d=3 negation swaps the planes.
        z1, z2 = (g.z1, 0) if d == 2 else (g.z2, g.z1)
        rows = rows.insert(z1 | g.x1 << n, z2 | g.x2 << n) or rows
    return list(_nullspace(rows, 2 * n))


def _complement_rows(s: StabilizerSet) -> list[tuple[int, int]]:
    """``normalizer_complement_basis``, as packed rows."""
    rows = s._rows
    complement = []
    for one, two in _constraint_nullspace(s):
        updated = rows.insert(one, two)
        if updated is not None:
            rows = updated
            complement.append((one, two))
    return complement


def normalizer_complement_basis(s: StabilizerSet) -> list[PauliVec]:
    """Vectors extending the stabilizer's row space to a basis of the
    normalizer; combinations with a nonzero part here are exactly the
    normalizer elements outside the group."""
    return [_operator(s.d, s.n, one, two) for one, two in _complement_rows(s)]


def min_normalizer_weight(s: StabilizerSet) -> int:
    """Minimum weight over normalizer elements outside the group; the code
    corrects floor((result - 1) / 2) errors."""
    if s.n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"normalizer scan needs n <= {ENUMERATION_MAX_N}, got {s.n}"
        )
    complement = _complement_rows(s)
    if not complement:
        raise ValueError("normalizer equals the stabilizer; nothing to scan")
    n, low = s.n, (1 << s.n) - 1
    return _kernels.min_weight_excluding_span(
        [(g.x1, g.x2) for g in s.gens],
        [(g.z1, g.z2) for g in s.gens],
        [(one & low, two & low) for one, two in complement],
        [(one >> n, two >> n) for one, two in complement],
        n,
        s.d,
    )
