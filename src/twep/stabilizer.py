"""Stabilizer groups as symplectic row spaces over Z_d.

A stabilizer is an ordered list of mutually commuting, independent phaseless
Pauli operators.  All the questions this module answers (rank, membership,
normalizer tests, syndromes, logical count, discard completion) reduce to
exact Gaussian elimination on the (x|z) matrix over the field Z_d; no
floating point appears anywhere.  An operator's row is its own pair of
bit-planes over 2n columns, x[i] at column 2i and z[i] at 2i + 1, and
``_kernels.Echelon`` reduces the rows for both dimensions.  The same layout
makes the integer order of a row's columns the canonical key order, and
the dual rows of the generators (``pauli._dual``) the constraints whose
nullspace is the normalizer.
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
    _dot,
    _dual,
    _from_planes,
    multiply,
    symplectic_product,
)

ENUMERATION_MAX_N = 12


class SizeLimitError(ValueError):
    """An exhaustive enumeration or scan was requested beyond its size gate."""


def rank(gens: Sequence[PauliVec]) -> int:
    """Rank of the (x|z) matrix of the given operators over Z_d."""
    if not gens:
        return 0
    d, n = gens[0].d, gens[0].n
    table: dict[int, tuple[int, int]] = {}
    for g in gens:
        if g.d != d or g.n != n:
            raise DimensionMismatchError("generators disagree on d or n")
        _kernels.pivot_store(table, d, g.one, g.two)
    return len(table)


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
        rows = self._rows.insert(p.one, p.two)
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
        """Canonical representative of p's coset modulo the row space, as
        one integer: the representative's planes, ``one | two << 2n``."""
        self._check(p)
        one, two = self._rows.reduce(p.one, p.two)
        return one | two << 2 * self.n

    def is_member(self, p: PauliVec) -> bool:
        """Phaseless membership in the generated group."""
        return not self.residue(p)

    def in_normalizer(self, p: PauliVec) -> bool:
        """True iff p commutes with every generator."""
        self._check(p)
        u1, u2 = _dual(p)
        return not any(_dot(self.d, u1, u2, g.one, g.two) for g in self.gens)

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

    Rows compare as keys do, from the highest column down.  V, the
    operators on the registers' columns commuting with the current
    generators, is the nullspace there of the generators' dual rows.  The
    rows' pivots are their lowest columns, so V's fully reduced basis has
    one vector per free column f: 1 at f, 0 at the other free columns,
    nothing above f.  An element of V is led by its highest nonzero free
    column, and the least element led by f is f's basis vector.  So the
    least key among the elements of V outside the span, which is the scan's
    next pick as a rejected candidate stays rejected, is the first basis
    vector outside the span.  After a pick at f every element of the new V
    led by a column up to f lies in the new span: the search resumes at
    f + 1.
    """
    registers = frozenset(discard)
    if not registers:
        raise ValueError("discard set must be nonempty")
    if any(not 0 <= r < s.n for r in registers):
        raise ValueError("discard register out of range")
    columns = sum(3 << 2 * r for r in registers)
    constraints = _constraints(Echelon(s.d), s.gens, columns)
    span, added, start = s._rows, [], 0
    while True:
        for one, two in _nullspace(constraints, columns, start):
            grown = span.insert(one, two)
            if grown is not None:
                break
        else:
            return added
        op = _from_planes(s.d, s.n, one, two)
        added.append(op)
        span, start = grown, one.bit_length()
        constraints = _constraints(constraints, [op], columns)


def _constraints(rows: Echelon, ops: Iterable[PauliVec], columns: int) -> Echelon:
    """The rows grown by the dual rows of ops cut to the mask ``columns``:
    an operator supported there commutes with each of ops iff every one of
    these rows annihilates it."""
    for op in ops:
        one, two = _dual(op)
        rows = rows.insert(one & columns, two & columns) or rows
    return rows


def _nullspace(rows: Echelon, columns: int, start: int = 0) -> Iterator[tuple[int, int]]:
    """Basis of the vectors supported on the mask ``columns`` that the rows,
    which lie there, annihilate: one vector per free column from ``start``
    on, ascending."""
    d = rows.d
    # The rows are fully reduced, so back-substitution reads directly: the
    # vector of free column f holds 1 there and -row[f] at each row's pivot.
    pivots = sum(pivot for pivot, _, _ in rows.rows)
    free = columns & ~pivots & -1 << start
    while free:
        bit = free & -free
        free ^= bit
        one, two = bit, 0
        for pivot, r1, r2 in rows.rows:
            if r2 & bit or r1 & bit and d == 2:  # -row[f] is 1
                one |= pivot
            elif r1 & bit:  # -1 is 2 for d=3
                two |= pivot
        yield one, two


def _constraint_nullspace(s: StabilizerSet) -> list[tuple[int, int]]:
    """Basis of the space of symplectic vectors commuting with every
    generator (the normalizer, as a Z_d space of dimension 2n - rank): one
    vector per free column of the generators' dual rows, ascending."""
    every = (1 << 2 * s.n) - 1
    return list(_nullspace(_constraints(Echelon(s.d), s.gens, every), every))


def _complement_rows(s: StabilizerSet) -> list[tuple[int, int]]:
    """``normalizer_complement_basis``, as packed rows: each normalizer
    basis vector, in ascending order, that is independent of the span of
    the generators and the vectors kept before it.

    A normalizer basis vector's leading (highest) column is its free
    column, where the other basis vectors are 0, so a combination leads at
    its highest free column.  Free column f is rejected iff some span
    element leads at f, so the rejected free columns are exactly the span's
    leading columns.  Those are the pivots of any highest-column echelon
    form of the generators, which ``_kernels.pivot_store`` builds; the
    vectors kept are the ones whose leading column is not among them.

    The rows come in key form, which ``_kernels.best_splitter`` relies on:
    ascending, each row's leading column zero in every other row, and every
    row zero at each leading column of the span's fully reduced basis
    (leading columns highest, as keys compare), since the kept vectors are
    0 at the rejected free columns."""
    leading: dict[int, tuple[int, int]] = {}
    for g in s.gens:
        _kernels.pivot_store(leading, s.d, g.one, g.two)
    return [
        (one, two)
        for one, two in _constraint_nullspace(s)
        if (one | two).bit_length() not in leading
    ]


def _extended_basis(comp: list[int], s: StabilizerSet) -> list[int]:
    """The complement rows' value-1 planes (``_complement_rows(s)``) for a
    qubit stabilizer whose last generator m is a nonzero combination of its
    parent's complement, derived from the parent's, ``comp``, by one
    symplectic Gram-Schmidt step in O(D) integer operations for a
    complement of D vectors.

    The first complement vector p that anticommutes with m is added to
    every other one that does and dropped: the rest commute with m and,
    with the span and m, span the new normalizer.  p is 0 at the others'
    leading columns and at the span's, so they keep their leading columns
    and stay 0 at every other one's and the span's.  So only the one leading
    at m's leading column has that column set; m's combination holds it,
    and it is not p, since then m would anticommute with itself.  Reduced by
    m it lies in the others' span, the new complement having one dimension
    fewer, so it is dropped too.  The rest are in key form for the new span,
    which is unique for the space they span, so these are
    ``_complement_rows(s)``'s."""
    m = s.gens[-1].one
    dual, _ = _dual(s.gens[-1])
    anti = [(dual & k).bit_count() & 1 for k in comp]
    p = comp[anti.index(1)]
    lead = m.bit_length()
    return [
        k ^ p if a else k
        for k, a in zip(comp, anti)
        if k != p and k.bit_length() != lead
    ]


def normalizer_complement_basis(s: StabilizerSet) -> list[PauliVec]:
    """Vectors extending the stabilizer's row space to a basis of the
    normalizer; combinations with a nonzero part here are exactly the
    normalizer elements outside the group."""
    return [_from_planes(s.d, s.n, one, two) for one, two in _complement_rows(s)]


def min_normalizer_weight(s: StabilizerSet) -> int:
    """Minimum weight over normalizer elements outside the group; the code
    corrects floor((result - 1) / 2) errors.  The scan takes the
    generators and the normalizer complement (``_complement_rows``), each
    as rows split by value plane."""
    if s.n > ENUMERATION_MAX_N:
        raise SizeLimitError(
            f"normalizer scan needs n <= {ENUMERATION_MAX_N}, got {s.n}"
        )
    complement = _complement_rows(s)
    if not complement:
        raise ValueError("normalizer equals the stabilizer; nothing to scan")
    return _kernels.min_weight_excluding_span(
        [g.one for g in s.gens],
        [g.two for g in s.gens],
        [one for one, _ in complement],
        [two for _, two in complement],
        s.n,
        s.d,
    )
