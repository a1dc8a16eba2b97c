"""The exact-arithmetic kernels: Z_d row reduction, the minimum-weight
search and the best-splitter scan.

Row reduction works on vectors packed into bit-planes, as operators are
(see ``pauli``): a vector over Z_d is a pair of integers (one, two), bit c
of ``one`` (``two``) set iff column c holds 1 (2); for d=2 ``two`` is 0.
An operator's planes are its row, x[i] at column 2i and z[i] at 2i + 1.
Both reducers serve both dimensions: for d=2 eliminating a column is one
XOR, for d=3 one two-plane add.  ``Echelon`` keeps its rows fully reduced,
pivoted on their lowest columns, as immutable states: the walk's cosets,
the normalizer constraints and discard completion use it.  The pivot
table (``pivot_store``) is one mutable dict of rows pivoted on their
highest columns and never back-substituted, so a row is undone by
deleting its pivot: the distance scan uses it, to read the span's leading
columns off the generators (``stabilizer._complement_rows``) and for the
support search, which adds and undoes a site's syndrome rows.

Both scans take a stabilizer's basis the same way, as
``stabilizer._scan_basis`` builds it: the generators (the span) and the
normalizer complement, each operator as its row split by value plane; for
d=2 the value-2 planes are ignored.  The minimum-weight search transposes
the basis planes once, and the best-splitter scan, which assumes d=2, its
error rows (``_columns`` over the 2n columns), so that a site's column
pair is read as two bit-rows over the operators.

The splitter scan is transposed: each complement basis vector becomes one
bit-row over the error list (bit e set iff the vector anticommutes with
error e), so a candidate's anticommuting count is the popcount of the XOR
of its rows.  A vector's row is the XOR of the error columns at its own
row's set bits, with each site's x and z column swapped.
Its tie-break needs no reduction in the kernel: for d=2 an operator's
canonical key is its row, and the complement comes in key form
(``stabilizer._complement_rows``): ascending, each row's leading bit set
in no other row and in no leading bit of the span's fully reduced basis.
Each combination is then the smallest key in its coset of the span, and
keys rise with the mask, since for masks a != b the top bit of key(a) ^
key(b) is the highest leading bit in a ^ b.  The scan sweeps masks upward
in blocks of C-level ``map`` calls, so the first candidate reaching the
smallest larger side is the winner, and it stops at a block that reaches a
lower bound no candidate can beat.

A split depends only on the anticommutation row, so before the sweep a
pre-pass (``_independent``) drops each complement vector whose row is a
combination of the rows kept before it.  A vector is dropped exactly when
some mask with row 0 has its highest bit there; reducing any mask by such
masks gives a smaller one over kept vectors with the same row, and 0 only
for a row that separates nothing.  So the first mask reaching the best
split uses kept vectors only, a subset of key-form vectors is in key form,
and the kept rows span the same space: winner and bound are unchanged, and
the sweep costs 2^rho masks for rows of rank rho, not 2^D for D vectors.
Deep in the tree rho, at most the number of the survivors' coset classes,
is often far below D.  When no row separates anything (every row is 0 or
all ones) every candidate ties and the first complement vector wins.
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
    """Packed rows over Z_d in reduced row echelon form, for the walk's
    coset residues, the normalizer constraints and discard completion.

    Each row is a (pivot bit, one, two) triple: it holds 1 at its pivot,
    its lowest nonzero column, and 0 at every other row's pivot, so a
    vector is reduced by clearing each pivot column it has, in any order,
    and its residue is unique.  A state is immutable; ``insert`` returns a
    new one.  The distance scan, which needs no residue, uses the cheaper
    ``pivot_store`` instead.
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


def pivot_store(table: dict[int, tuple[int, int]], d: int, one: int, two: int) -> int:
    """Reduce the packed vector over Z_d by the pivot table and store what
    is left; return the pivot of the stored row, or 0 if nothing is left.

    The table maps a pivot to one row: the pivot is the row's highest
    nonzero column plus one (its ``bit_length``), and the row holds 1 there.
    Reducing clears the vector's highest column while a row is stored under
    it, so the vector's new highest column is always lower.  Storing never
    changes another row, so deleting the pivots one returned restores the
    table as it was before."""
    if d == 2:
        while one:
            top = one.bit_length()
            row = table.get(top)
            if row is None:
                table[top] = (one, 0)
                return top
            one ^= row[0]
        return 0
    while one | two:
        top = (one | two).bit_length()
        row = table.get(top)
        if row is None:
            if two >> top - 1:  # scale by 2 (negate) so that the pivot holds 1
                one, two = two, one
            table[top] = (one, two)
            return top
        r1, r2 = row
        if one >> top - 1:  # subtract the row once: add its negation
            one, two = _add3(one, two, r2, r1)
        else:  # subtract it twice: add it once
            one, two = _add3(one, two, r1, r2)
    return 0


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
    some combination of its sites' syndrome rows is zero at the span
    columns and not zero.  The complement's columns are laid below the
    span's, so that combination exists iff a highest-column echelon form of
    the rows (``pivot_store``) has a pivot below the span's columns.

    Supports are searched in order of size w, depth first, in one shared
    pivot table: a site adds its two syndrome rows and deletes their pivots
    on the way back.  A new pivot below the span's columns is a hit.  Only
    the new pivots need the test: the table's other rows belong to a
    smaller support, which the search at a smaller w already rejected.
    """
    if not comp_one:
        raise ValueError("complement basis is empty: nothing outside the span")
    # Column c of the basis rows, bit j for basis operator j, per plane: the
    # complement's operators first, so their bits lie below the span's.
    ones = _columns(comp_one + span_one, 2 * n)
    twos = _columns(comp_two + span_two, 2 * n) if d == 3 else [0] * (2 * n)
    # Syndrome rows of X and Z on site i: <X_i, b> = z_b[i], column 2i + 1,
    # and <Z_i, b> = -x_b[i], column 2i, taken as x_b[i], since scaling a
    # row leaves the row space as it is.
    site_rows = list(zip(ones[1::2], twos[1::2], ones[::2], twos[::2]))
    low = len(comp_one)  # a pivot up to this lies among the complement columns
    table: dict[int, tuple[int, int]] = {}

    def found(start: int, left: int) -> bool:
        """Some support of ``left`` more sites from ``start`` on, added to
        the table, completes one with a pivot among the complement columns."""
        for i in range(start, n - left + 1):
            xz1, xz2, zx1, zx2 = site_rows[i]
            a = pivot_store(table, d, xz1, xz2)
            b = pivot_store(table, d, zx1, zx2)
            if 0 < a <= low or 0 < b <= low:
                return True
            if left > 1 and found(i + 1, left - 1):
                return True
            if a:
                del table[a]
            if b:
                del table[b]
        return False

    for w in range(1, n):
        if found(0, w):
            return w
    # The scanned set is nonempty and nothing is heavier than n.
    return n


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


def _independent(keys: list[int], rows: list[int]) -> tuple[list[int], list[int]]:
    """The keys and rows left after dropping each row that is a combination
    of the rows kept before it, in one pass: a kept row is stored reduced,
    under its leading bit, and a row is dropped if reducing it by the
    stored rows leaves 0."""
    basis: dict[int, int] = {}
    kept_keys, kept_rows = [], []
    for key, row in zip(keys, rows):
        reduced = row
        while reduced and reduced.bit_length() in basis:
            reduced ^= basis[reduced.bit_length()]
        if reduced:
            basis[reduced.bit_length()] = reduced
            kept_keys.append(key)
            kept_rows.append(row)
    return kept_keys, kept_rows


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
    span_one: list[int],
    span_two: list[int],
    comp_one: list[int],
    comp_two: list[int],
    errors: list[int],
    n: int,
) -> tuple[int, int, int]:
    """Scan the normalizer-minus-span for the operator that splits the error
    list most evenly.

    The errors are qubit rows, and the span and complement basis operators
    enter as ``min_weight_excluding_span``'s do, as rows split by value
    plane, the value-2 planes ignored.  Returns (row, commuting,
    anticommuting) for the winner.  Candidates are ranked by smallest
    max(|C|, |A|); ties go to the smallest canonical key, which is the row
    itself.  Adding a span element to a candidate never changes its split
    sizes, so the split is computed once per complement combination.

    Precondition: the complement rows are in key form, as
    ``stabilizer._complement_rows`` returns them: ascending, each row's
    leading bit set in no other complement row and in no leading bit of the
    span's fully reduced basis.  A combination is then its coset's smallest
    key, and its key rises with its mask, so the span rows are not read.

    Rows: the errors are transposed once per call (``_dual_columns``), and
    each complement vector's anticommutation row is an XOR of those
    columns, with no pass over the errors.  Only the vectors whose rows are
    independent of the rows before them are swept (``_independent``), in
    2^rho masks for rows of rank rho; the full sweep's winner uses no other
    vector (see the module docstring).  If every row is 0 or all ones,
    every candidate ties at ``ne`` and the first complement vector is
    returned, as the full sweep's mask 1.

    Scan order: masks are scanned upward and the first one reaching the
    smallest larger side yet seen is the winner; only its key is built.
    Stop rule: the scan ends at a block that reaches the least larger side
    over anticommuting counts of reachable parity.  Parity is linear in the
    mask, so when every row has even popcount only even counts are
    reachable; otherwise the bound is ceil(ne / 2).
    """
    ne = len(errors)
    if not comp_one:
        raise ValueError("complement basis is empty: nothing outside the span")
    dual = _dual_columns(errors, n)
    all_rows = [_xor_at(k, dual) for k in comp_one]
    keys, rows = _independent(comp_one, all_rows)
    if not rows or rows == [(1 << ne) - 1]:
        # Every candidate keeps all errors on one side, so mask 1 wins.
        anti = all_rows[0].bit_count()
        return comp_one[0], ne - anti, anti
    larger_side = [*range(ne, ne - ne // 2 - 1, -1), *range(ne // 2 + 1, ne + 1)]
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
    anti = _xor_at(winner, rows).bit_count()
    return _xor_at(winner, keys), ne - anti, anti
