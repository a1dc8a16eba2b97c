"""Stabilizer groups as symplectic row spaces over Z_d.

A stabilizer is an ordered list of mutually commuting, independent phaseless
Pauli operators.  All the questions this module answers (rank, membership,
normalizer tests, syndromes, logical count) reduce to exact Gaussian
elimination on the (x|z) matrix over the field Z_d; no floating point
appears anywhere.  The matrix rows are packed like the operators: an
operator's row is its bit-planes over 2n columns, x at bit i and z at bit
n + i, and ``_kernels.Echelon`` reduces them for both dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Iterable, Sequence

from . import _kernels
from ._kernels import Echelon
from .pauli import (
    DimensionMismatchError,
    PauliVec,
    _Planes,
    _product,
    _unpack,
    inverse,
    multiply,
    symplectic_product,
    weight,
)

ENUMERATION_MAX_N = 12
DISCARD_MAX_REGISTERS = 9


class SizeLimitError(ValueError):
    """An exhaustive enumeration was requested beyond its configured bound."""


def _packed(p: PauliVec) -> tuple[int, int]:
    """The operator's row: its value-1 and value-2 planes over 2n columns."""
    return p.x1 | p.z1 << p.n, p.x2 | p.z2 << p.n


def _operator(d: int, n: int, one: int, two: int) -> PauliVec:
    """The operator whose row is (one, two); inverse of ``_packed``."""
    low = (1 << n) - 1
    return PauliVec(
        d, n, _unpack(n, one & low, two & low), _unpack(n, one >> n, two >> n)
    )


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

    def span_elements(self) -> Iterable[PauliVec]:
        """Every element of the generated group (d^rank of them)."""
        for coeffs in _iter_product(range(self.d), repeat=len(self.gens)):
            op = PauliVec.identity(self.d, self.n)
            for c, g in zip(coeffs, self.gens):
                for _ in range(c):
                    op = multiply(op, g)
            yield op


def _candidates_on(d: int, n: int, registers: Sequence[int]) -> Iterable[_Planes]:
    """All nontrivial operators supported inside the given registers, as
    bit-planes, in ascending canonical-key order.

    The key's base-d^2 digit of a site is x + d*z and the first register is
    least significant.  Each half of the registers is tabulated once (table
    index = that half's key) and each high-half entry is combined with the
    whole low-half table in turn, so memory stays near the square root of
    the candidate count and each candidate costs four ORs."""
    sites = sorted(registers)

    def table(part: Sequence[int]) -> list[_Planes]:
        rows = [_Planes(0, 0, 0, 0)]
        for site in part:
            bit = 1 << site
            rows = [
                _Planes(
                    x1 | bit * (xe == 1),
                    x2 | bit * (xe == 2),
                    z1 | bit * (ze == 1),
                    z2 | bit * (ze == 2),
                )
                for ze in range(d)
                for xe in range(d)
                for x1, x2, z1, z2 in rows
            ]
        return rows

    half = len(sites) // 2
    low = table(sites[:half])
    for i, (hx1, hx2, hz1, hz2) in enumerate(table(sites[half:])):
        for x1, x2, z1, z2 in low if i else low[1:]:
            yield _Planes(hx1 | x1, hx2 | x2, hz1 | z1, hz2 | z2)


def complete_discard(s: StabilizerSet, discard: Iterable[int]) -> list[PauliVec]:
    """Maximal list of operators supported inside the discarded registers,
    each commuting with the stabilizer and with all earlier picks, each
    independent of the span so far.

    Candidates are scanned once in ascending canonical-key order; a rejected
    candidate can never become addable later (constraints only accumulate),
    so the single pass reaches the fixpoint.  Candidates stay packed: only
    one that commutes with every generator and earlier pick becomes a
    PauliVec for the membership test.
    """
    registers = frozenset(discard)
    if not registers:
        raise ValueError("discard set must be nonempty")
    if len(registers) > DISCARD_MAX_REGISTERS:
        raise SizeLimitError(
            f"discard completion enumerates over {len(registers)} registers "
            f"(bound {DISCARD_MAX_REGISTERS})"
        )
    if any(not 0 <= r < s.n for r in registers):
        raise ValueError("discard register out of range")
    d, n = s.d, s.n
    added: list[PauliVec] = []
    current = s
    for cand in _candidates_on(d, n, registers):
        if any(_product(cand, g, d) for g in current.gens):
            continue
        op = PauliVec(d, n, _unpack(n, cand.x1, cand.x2), _unpack(n, cand.z1, cand.z2))
        grown = current._grown(op)
        if grown is not None:
            current = grown
            added.append(op)
    return added


def code_corrects(s: StabilizerSet, errors) -> bool:
    """Theorem-style correction test: no pair of candidate errors may differ
    by an undetectable operator (normalizer element outside the group)."""
    members = list(getattr(errors, "members", errors))
    for i, e in enumerate(members):
        e_inv = inverse(e)
        for f in members[i + 1 :]:
            diff = multiply(e_inv, f)
            if s.in_normalizer(diff) and not s.is_member(diff):
                return False
    return True


def _constraint_nullspace(s: StabilizerSet) -> list[tuple[int, int]]:
    """Basis of the space of symplectic vectors commuting with every
    generator (the normalizer, as a Z_d space of dimension 2n - rank),
    packed: one vector per free column of the constraint rows, ascending."""
    d, n = s.d, s.n
    # Row for generator g maps u=(x|z) to <g,u> = g.x . u.z - g.z . u.x.
    rows = Echelon(d)
    for g in s.gens:
        # -g.z is g.z for d=2; for d=3 negation swaps the planes.
        z1, z2 = (g.z1, 0) if d == 2 else (g.z2, g.z1)
        rows = rows.insert(z1 | g.x1 << n, z2 | g.x2 << n) or rows
    # The rows are fully reduced, so back-substitution reads directly: the
    # vector of free column f holds 1 there and -row[f] at each row's pivot.
    pivots = sum(pivot for pivot, _, _ in rows.rows)
    basis = []
    for free in range(2 * n):
        bit = 1 << free
        if bit & pivots:
            continue
        one, two = bit, 0
        for pivot, r1, r2 in rows.rows:
            if r2 & bit or r1 & bit and d == 2:  # -row[f] is 1
                one |= pivot
            elif r1 & bit:  # -1 is 2 for d=3
                two |= pivot
        basis.append((one, two))
    return basis


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
