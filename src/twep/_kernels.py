"""The exact-arithmetic kernels: Z_d row reduction, the minimum-weight
search and the best-splitter scan.

Row reduction works on vectors packed into bit-planes, as operators are
(see ``pauli``): a vector over Z_d is a pair of integers (one, two), bit c
of ``one`` (``two``) set iff column c holds 1 (2); for d=2 ``two`` is 0.
An operator's planes are its row, x[i] at column 2i and z[i] at 2i + 1.
One reducer, ``Echelon``, serves both dimensions: for d=2 eliminating a
column is one XOR, for d=3 one two-plane add.  The minimum-weight search
reduces its syndrome rows with it.

Both scans transpose what they are given as rows once (``_columns`` over
the 2n columns), so that a site's column pair is read as two bit-rows
over the operators.  The minimum-weight search takes every basis operator
as a row, split by value plane.  The best-splitter scan, which assumes
d=2, takes its errors as rows, but the span and complement basis of the
stabilizer compact, as an x plane and a z plane with register i at bit i:
the benchmark's tracer counts its candidates from those lists' lengths by
position.  ``interleave`` and ``split`` convert between compact planes and
a row plane, at C level.

The splitter scan is transposed: each complement basis vector becomes one
bit-row over the error list (bit e set iff the vector anticommutes with
error e), so a candidate's anticommuting count is the popcount of the XOR
of its rows.  A vector's row is the XOR of the error columns at its own
row's set bits, with each site's x and z column swapped.
Its tie-break key is linear too: for d=2 the canonical key is the row
plane, and the smallest key in a coset of the span is a linear projection
of any key in it.  Those projected keys are put in
fully reduced GF(2) echelon form, each carrying its row, and sorted by
pivot: the key of a combination then rises with its mask, since for masks
a != b the top bit of key(a) ^ key(b) is the highest pivot in a ^ b.  The
scan sweeps masks upward in blocks of C-level ``map`` calls, so the first
candidate reaching the smallest larger side is the winner, and it stops at
a block that reaches a lower bound no candidate can beat.
"""

from __future__ import annotations

from itertools import repeat


def kernel_backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one."""
    return "python"


def _add3(a1: int, a2: int, b1: int, b2: int) -> tuple[int, int]:
    """Sum over Z_3 of the packed vectors (a1, a2) and (b1, b2): a column
    sums to 1 from 1+0, 0+1 or 2+2 and to 2 from 2+0, 0+2 or 1+1."""
    a0 = ~(a1 | a2)
    b0 = ~(b1 | b2)
    return a1 & b0 | b1 & a0 | a2 & b2, a2 & b0 | b2 & a0 | a1 & b1


class Echelon:
    """Packed rows over Z_d in reduced row echelon form.

    Each row is a (pivot bit, one, two) triple: it holds 1 at its pivot,
    its lowest nonzero column, and 0 at every other row's pivot, so a
    vector is reduced by clearing each pivot column it has, in any order.
    A state is immutable; ``insert`` returns a new one.
    """

    __slots__ = ("d", "rows")

    def __init__(self, d: int, rows: tuple[tuple[int, int, int], ...] = ()):
        self.d = d
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, one: int, two: int = 0) -> tuple[int, int]:
        """The residue of a vector: the one member of its coset modulo the
        row space that is 0 at every pivot column."""
        if self.d == 2:
            for pivot, row, _ in self.rows:
                if one & pivot:
                    one ^= row
            return one, 0
        for pivot, r1, r2 in self.rows:
            if one & pivot:  # subtract the row once: add its negation
                one, two = _add3(one, two, r2, r1)
            elif two & pivot:  # subtract it twice: add it once
                one, two = _add3(one, two, r1, r2)
        return one, two

    def insert(self, one: int, two: int = 0) -> Echelon | None:
        """The state with the vector added as a row; None if the vector is
        already in the row space."""
        one, two = self.reduce(one, two)
        support = one | two
        if not support:
            return None
        pivot = support & -support
        if two & pivot:  # scale by 2 (negate) so that the pivot holds 1
            one, two = two, one
        # Clear the new pivot column from the other rows; their pivots stay.
        rows = []
        for p, r1, r2 in self.rows:
            if r1 & pivot:
                r1, r2 = (r1 ^ one, 0) if self.d == 2 else _add3(r1, r2, two, one)
            elif r2 & pivot:
                r1, r2 = _add3(r1, r2, one, two)
            rows.append((p, r1, r2))
        rows.append((pivot, one, two))
        return Echelon(self.d, tuple(rows))


def _columns(planes: list[int], n: int) -> list[int]:
    """Transpose: entry i has bit j set iff bit i of planes[j] is set.  The
    planes' n-bit numerals, joined last plane first, hold bit i of each
    plane at every n-th digit from digit n - 1 - i, so one slice each reads
    the columns as binary numerals."""
    numerals = "".join(map(format, reversed(planes), repeat(f"0{n}b")))
    return [int(numerals[k::n] or "0", 2) for k in range(n - 1, -1, -1)]


def min_weight_excluding_span(
    span_one: list[int],
    span_two: list[int],
    comp_one: list[int],
    comp_two: list[int],
    n: int,
    d: int,
) -> int:
    """Minimum weight over {c + s} with c a nonzero combination of the
    complement basis and s any combination of the span basis, over Z_d.

    Each basis operator enters as its row, split by value plane: entry j
    of ``*_one`` (``*_two``) is operator j's plane of value 1 (2) over the
    2n interleaved columns; for d=2 the value-2 planes are ignored.  The
    span must be a stabilizer's generators and span plus complement a basis
    of its normalizer; the scan then covers exactly the normalizer minus the
    stabilizer.  Those are the operators with zero syndrome against the
    span and nonzero syndrome against the complement, since the stabilizer
    is the normalizer's symplectic complement.  Syndromes are linear in an
    operator's site components, so a support carries such an operator iff
    the echelon form of its sites' syndrome rows, span columns lowest, has
    a pivot among the complement columns.  Supports are searched in order
    of size, depth first, so each support extends its prefix's echelon
    form by its last site's two rows.
    """
    if not comp_one:
        raise ValueError("complement basis is empty: nothing outside the span")
    # Column c of the basis rows, bit j for basis operator j, per plane.
    ones = _columns(span_one + comp_one, 2 * n)
    twos = _columns(span_two + comp_two, 2 * n) if d == 3 else [0] * (2 * n)
    # Syndrome rows of X and Z on site i: <X_i, b> = z_b[i], column 2i + 1,
    # and <Z_i, b> = -x_b[i], column 2i, taken as x_b[i], since scaling a
    # row leaves the row space as it is.
    site_rows = list(zip(ones[1::2], twos[1::2], ones[::2], twos[::2]))
    span = (1 << len(span_one)) - 1

    def found(start: int, left: int, rows: Echelon) -> bool:
        """Some support of ``left`` more sites from ``start`` on completes
        one with a pivot among the complement columns."""
        for i in range(start, n - left + 1):
            xz1, xz2, zx1, zx2 = site_rows[i]
            grown = rows.insert(xz1, xz2) or rows
            grown = grown.insert(zx1, zx2) or grown
            if left > 1:
                if found(i + 1, left - 1, grown):
                    return True
            elif any(pivot & ~span for pivot, _, _ in grown.rows):
                return True
        return False

    for w in range(1, n):
        if found(0, w, Echelon(d)):
            return w
    # The scanned set is nonempty and nothing is heavier than n.
    return n


def interleave(x: int, z: int) -> int:
    """The row plane of compact x and z planes: bit i of x at bit 2i and of
    z at bit 2i + 1.  A binary numeral read in base 4 moves bit i to 2i."""
    return int(f"{x:b}", 4) + 2 * int(f"{z:b}", 4)


def split(rows: list[int], n: int) -> tuple[list[int], list[int]]:
    """Inverse of ``interleave`` on row planes over n >= 1 registers: their
    compact x planes and their compact z planes.  In a row's binary numeral
    of 2n digits the odd positions hold x and the even ones z, so slicing
    the rows' numerals, joined, gives the x planes and the z planes, each
    joined in n-bit fields."""
    numerals = "".join(map(format, rows, repeat(f"0{2 * n}b")))
    x, z = int(numerals[1::2] or "0", 2), int(numerals[::2] or "0", 2)
    low = (1 << n) - 1
    shifts = range(n * (len(rows) - 1), -1, -n)
    return [x >> s & low for s in shifts], [z >> s & low for s in shifts]


def _coset_min(v: int, basis: list[int]) -> int:
    """Smallest element of v + span(basis): v with every leading bit of the
    basis cleared, which is linear in v.  Basis rows have distinct leading
    bits and are either fully reduced or sorted by them, highest first."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def _key_order(keys: list[int], rows: list[int]) -> list[tuple[int, int]]:
    """Fully reduced GF(2) echelon basis of the keys' span, sorted by key.

    Each key carries its row through the same XORs.  A basis key's leading
    bit (its pivot) is set in no other basis key, so the XOR of a set of
    basis keys has as its leading bit the highest pivot in the set: the
    order of combinations by key is the order of their masks as integers.
    Zero keys (dependent on earlier ones) are dropped."""
    basis: list[tuple[int, int]] = []
    for key, row in zip(keys, rows):
        for k, r in basis:
            if key ^ k < key:
                key, row = key ^ k, row ^ r
        if key:
            pivot = 1 << (key.bit_length() - 1)
            basis = [(k ^ key, r ^ row) if k & pivot else (k, r) for k, r in basis]
            basis.append((key, row))
    basis.sort()
    return basis


def _combinations(rows: list[int]) -> list[int]:
    """XOR of every subset of rows; entry i combines the rows at the set bits
    of i, so entry 0 is the empty combination."""
    table = [0]
    for row in rows:
        table += [v ^ row for v in table]
    return table


def _xor_at(bits: int, rows: list[int]) -> int:
    """XOR of rows[i] over the set bits i of ``bits``."""
    acc = 0
    while bits:
        low = bits & -bits
        acc ^= rows[low.bit_length() - 1]
        bits ^= low
    return acc


def _dual_columns(rows: list[int], n: int) -> list[int]:
    """The qubit rows transposed over their 2n columns (``_columns``), each
    site's x and z column swapped.  An operator anticommutes with row e iff
    e's z bits on its x sites and e's x bits on its z sites have odd total,
    so its anticommutation row (bit e set iff it anticommutes with row e)
    is the XOR of these columns at its own row's set bits (``_xor_at``)."""
    columns = _columns(rows, 2 * n)
    dual = [0] * (2 * n)
    dual[::2], dual[1::2] = columns[1::2], columns[::2]
    return dual


def best_splitter(
    span_x: list[int],
    span_z: list[int],
    comp_x: list[int],
    comp_z: list[int],
    errors: list[int],
    n: int,
) -> tuple[int, int, int]:
    """Scan the normalizer-minus-span for the operator that splits the error
    list most evenly.

    The errors are qubit rows; the span and complement basis operators
    enter compact, as x and z planes.  Returns (row, commuting,
    anticommuting) for the winner.  Candidates are ranked by smallest
    max(|C|, |A|); ties go to the smallest canonical key.  Adding a span
    element to a candidate never changes its split sizes, so the split is
    computed once per complement combination, and the winner of a
    combination's coset is its coset-minimal key.

    Rows: the errors are transposed once per call (``_dual_columns``), and
    each complement vector's anticommutation row, like the winner's, is an
    XOR of those columns, with no pass over the errors.

    Key order: in the basis ``_key_order`` returns, a combination's key
    rises with its mask, so masks are scanned upward and the first one
    reaching the smallest larger side yet seen is the winner; only its key
    is built.  Stop rule: the scan ends at a block that reaches the least
    larger side over anticommuting counts of reachable parity.  Parity is
    linear in the mask, so when every row has even popcount only even
    counts are reachable; otherwise the bound is ceil(ne / 2).
    """
    ne = len(errors)
    if not comp_x:
        raise ValueError("complement basis is empty: nothing outside the span")
    dual = _dual_columns(errors, n)
    span_keys = list(map(interleave, span_x, span_z))
    span = [k for k, _ in _key_order(span_keys, [0] * len(span_keys))]
    comp_keys = list(map(interleave, comp_x, comp_z))
    basis = _key_order(
        [_coset_min(k, span) for k in comp_keys],
        [_xor_at(k, dual) for k in comp_keys],
    )
    rows = [r for _, r in basis]
    larger_side = [max(anti, ne - anti) for anti in range(ne + 1)]
    even = all(r.bit_count() % 2 == 0 for r in rows)
    bound = min(larger_side[:: 2 if even else 1])
    # Mask (i << low) + j pairs high-half entry i with low-half entry j.
    low = (len(rows) + 1) // 2
    low_rows = _combinations(rows[:low])
    best, winner = ne + 1, 0
    for i, high_row in enumerate(_combinations(rows[low:])):
        # Entry 0 of both halves is the identity, which is not a candidate.
        start = 0 if i else 1
        anti = map(int.bit_count, map(high_row.__xor__, low_rows[start:]))
        sides = list(map(larger_side.__getitem__, anti))
        m = min(sides)
        if m < best:
            best, winner = m, (i << low) + start + sides.index(m)
            if m == bound:
                break
    key = 0
    for j, (k, _) in enumerate(basis):
        if winner >> j & 1:
            key ^= k
    anti = _xor_at(key, dual).bit_count()
    return key, ne - anti, anti
