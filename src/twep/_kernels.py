"""The exact-arithmetic kernels: Z_d row reduction, the minimum-weight
search and the best-splitter scan.

Row reduction works on vectors packed into bit-planes, as operators are
(see ``pauli``): a vector over Z_d is a pair of integers (one, two), bit c
of ``one`` (``two``) set iff column c holds 1 (2); for d=2 ``two`` is 0.
An operator's planes are its row, x[i] at column 2i and z[i] at 2i + 1.
One reducer, ``Echelon``, serves both dimensions: for d=2 eliminating a
column is one XOR, for d=3 one two-plane add.  The minimum-weight search
reduces its syndrome rows with it.  The two scans take operators compact,
as an x plane and a z plane with register i at bit i; ``interleave`` and
``split`` convert between that and a row plane, at C level.  The
best-splitter scan assumes d=2.

The splitter scan is transposed: each complement basis vector becomes one
bit-row over the error list (bit e set iff the vector anticommutes with
error e), so a candidate's anticommuting count is the popcount of the XOR
of its rows.  The rows are built transposed too: the errors' x and z
planes become n column bit-rows each (``_columns``), and a vector's row is
the XOR of the z columns at its x sites and the x columns at its z sites.
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
    span_x: list[tuple[int, int]],
    span_z: list[tuple[int, int]],
    comp_x: list[tuple[int, int]],
    comp_z: list[tuple[int, int]],
    n: int,
    d: int,
) -> int:
    """Minimum weight over {c + s} with c a nonzero combination of the
    complement basis and s any combination of the span basis, over Z_d.

    Each basis operator enters as its x and z components, each a pair of
    bit-planes (value 1, value 2), register i at bit i.  The span must be a
    stabilizer's generators and span plus complement a basis of its
    normalizer; the scan then covers exactly the normalizer minus the
    stabilizer.  Those are the operators with zero syndrome against the
    span and nonzero syndrome against the complement, since the stabilizer
    is the normalizer's symplectic complement.  Syndromes are linear in an
    operator's site components, so a support carries such an operator iff
    the echelon form of its sites' syndrome rows, span columns lowest, has
    a pivot among the complement columns.  Supports are searched in order
    of size, depth first, so each support extends its prefix's echelon
    form by its last site's two rows.
    """
    if not comp_x:
        raise ValueError("complement basis is empty: nothing outside the span")
    xs, zs = span_x + comp_x, span_z + comp_z
    x1, z1 = _columns([x for x, _ in xs], n), _columns([z for z, _ in zs], n)
    if d == 2:  # no value-2 planes
        x2 = z2 = [0] * n
    else:
        x2, z2 = _columns([x for _, x in xs], n), _columns([z for _, z in zs], n)
    # Syndrome rows of X and Z on each site, column j for basis operator j:
    # <X_i, b> = z_b[i] and <Z_i, b> = -x_b[i], taken as x_b[i], since
    # scaling a row leaves the row space as it is.
    site_rows = list(zip(z1, z2, x1, x2))
    span = (1 << len(span_x)) - 1

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


def _anticommuting_row(x: int, z: int, x_cols: list[int], z_cols: list[int]) -> int:
    """Bit-row of an operator: bit e set iff it anticommutes with error e,
    given the errors' x and z planes transposed (``_columns``).  Error e
    anticommutes iff its z bits on x's sites and its x bits on z's sites
    have odd total, so the row is the XOR of those error columns."""
    return _xor_at(x, z_cols) ^ _xor_at(z, x_cols)


def best_splitter(
    span_x: list[int],
    span_z: list[int],
    comp_x: list[int],
    comp_z: list[int],
    err_x: list[int],
    err_z: list[int],
    n: int,
) -> tuple[int, int, int, int]:
    """Scan the normalizer-minus-span for the operator that splits the error
    list most evenly.

    Returns (x, z, commuting, anticommuting) for the winner.  Candidates are
    ranked by smallest max(|C|, |A|); ties go to the smallest canonical key.
    Adding a span element to a candidate never changes its split sizes, so
    the split is computed once per complement combination, and the winner
    of a combination's coset is its coset-minimal key.

    Rows: the error planes are transposed once per call, and each
    complement vector's anticommutation row, like the winner's, is an XOR
    of error columns (``_anticommuting_row``), with no pass over the errors.

    Key order: in the basis ``_key_order`` returns, a combination's key
    rises with its mask, so masks are scanned upward and the first one
    reaching the smallest larger side yet seen is the winner; only its key
    is built.  Stop rule: the scan ends at a block that reaches the least
    larger side over anticommuting counts of reachable parity.  Parity is
    linear in the mask, so when every row has even popcount only even
    counts are reachable; otherwise the bound is ceil(ne / 2).
    """
    ne = len(err_x)
    if not comp_x:
        raise ValueError("complement basis is empty: nothing outside the span")
    x_cols, z_cols = _columns(err_x, n), _columns(err_z, n)
    span_keys = list(map(interleave, span_x, span_z))
    span = [k for k, _ in _key_order(span_keys, [0] * len(span_keys))]
    basis = _key_order(
        [_coset_min(interleave(x, z), span) for x, z in zip(comp_x, comp_z)],
        [_anticommuting_row(x, z, x_cols, z_cols) for x, z in zip(comp_x, comp_z)],
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
    (best_x,), (best_z,) = split([key], n)
    anti = _anticommuting_row(best_x, best_z, x_cols, z_cols).bit_count()
    return best_x, best_z, ne - anti, anti
