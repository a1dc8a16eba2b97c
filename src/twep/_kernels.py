"""The exact-arithmetic kernels: Z_d row reduction, the minimum-weight
search and the best-splitter scan.

Row reduction works on vectors packed into bit-planes, as operators are
(see ``pauli``): a vector over Z_d is a pair of integers (one, two), bit c
of ``one`` (``two``) set iff column c holds 1 (2); for d=2 ``two`` is 0.
One reducer, ``Echelon``, serves both dimensions: for d=2 eliminating a
column is one XOR, for d=3 one two-plane add.  The minimum-weight search
reduces its syndrome rows with it.  The best-splitter scan assumes d=2 and
takes operators packed as two integers (x bits, z bits), register i at
bit i.

The splitter scan is transposed: each complement basis vector becomes one
bit-row over the error list (bit e set iff the vector anticommutes with
error e), so a candidate's anticommuting count is the popcount of the XOR
of its rows.  Its tie-break key is linear too: the canonical key is the
Morton interleave of x and z, and the smallest key in a coset of the span
is a linear projection of any key in it.  Every candidate is then a pair of
XORs, and candidates are swept in blocks with C-level ``map`` calls.
"""

from __future__ import annotations

from itertools import compress


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
    """Transpose: entry i has bit j set iff bit i of planes[j] is set."""
    bits = [f"{plane:0{n}b}"[::-1] for plane in planes]
    return [int("".join(column)[::-1], 2) for column in zip(*bits)]


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
    x1, x2 = _columns([x for x, _ in xs], n), _columns([x for _, x in xs], n)
    z1, z2 = _columns([z for z, _ in zs], n), _columns([z for _, z in zs], n)
    # Syndrome rows of X and Z on each site, column j for basis operator j:
    # <X_i, b> = b.z[i] and <Z_i, b> = -b.x[i], taken as b.x[i], since
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


def _interleave_key(x: int, z: int, n: int) -> int:
    """Canonical operator key: base-4 digits x+2z, register 0 least significant."""
    key = 0
    for i in range(n - 1, -1, -1):
        key = (key << 2) | (((x >> i) & 1) | (((z >> i) & 1) << 1))
    return key


def _deinterleave(key: int, n: int) -> tuple[int, int]:
    """Inverse of ``_interleave_key``: the (x, z) bits of a key."""
    x = z = 0
    for i in range(n):
        x |= ((key >> (2 * i)) & 1) << i
        z |= ((key >> (2 * i + 1)) & 1) << i
    return x, z


def _coset_min(v: int, basis: list[int]) -> int:
    """Smallest element of v + span(basis); basis rows have distinct leading
    bits and are sorted by them, highest first."""
    for b in basis:
        v = min(v, v ^ b)
    return v


def _echelon(rows: list[int]) -> list[int]:
    """Echelon basis of the GF(2) span of rows, in the form ``_coset_min`` takes."""
    basis: list[int] = []
    for v in rows:
        v = _coset_min(v, basis)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    return basis


def _combinations(rows: list[int]) -> list[int]:
    """XOR of every subset of rows; entry i combines the rows at the set bits
    of i, so entry 0 is the empty combination."""
    table = [0]
    for row in rows:
        table += [v ^ row for v in table]
    return table


def _anticommuting(x: int, z: int, err_x: list[int], err_z: list[int]) -> int:
    """Bit-row of an operator: bit e set iff it anticommutes with error e."""
    row = 0
    for e, (ex, ez) in enumerate(zip(err_x, err_z)):
        row |= (((x & ez) ^ (z & ex)).bit_count() & 1) << e
    return row


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
    the split is computed once per complement combination and the span
    combinations only compete on key.
    """
    nc = len(comp_x)
    ne = len(err_x)
    if nc == 0:
        raise ValueError("complement basis is empty: nothing outside the span")
    span = _echelon([_interleave_key(x, z, n) for x, z in zip(span_x, span_z)])
    keys = [_coset_min(_interleave_key(x, z, n), span) for x, z in zip(comp_x, comp_z)]
    rows = [_anticommuting(x, z, err_x, err_z) for x, z in zip(comp_x, comp_z)]
    larger_side = [max(anti, ne - anti) for anti in range(ne + 1)]
    # Candidate (high, low) is the XOR of a high-half and a low-half entry.
    low = (nc + 1) // 2
    low_rows, low_keys = _combinations(rows[:low]), _combinations(keys[:low])
    high = zip(_combinations(rows[low:]), _combinations(keys[low:]))
    best = None
    for i, (high_row, high_key) in enumerate(high):
        # Entry 0 of both halves is the identity, which is not a candidate.
        start = 0 if i else 1
        block_rows, block_keys = low_rows[start:], low_keys[start:]
        anti = map(int.bit_count, map(high_row.__xor__, block_rows))
        sides = list(map(larger_side.__getitem__, anti))
        m = min(sides)
        if best is not None and m > best[0]:
            continue
        key = min(map(high_key.__xor__, compress(block_keys, map(m.__eq__, sides))))
        if best is None or (m, key) < best:
            best = (m, key)
    best_x, best_z = _deinterleave(best[1], n)
    anti = _anticommuting(best_x, best_z, err_x, err_z).bit_count()
    return best_x, best_z, ne - anti, anti
