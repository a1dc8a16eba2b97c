"""The exact-arithmetic kernels: Z_d row reduction, the minimum-weight
search and the best-splitter scan.

Row reduction works on tuples over Z_d and serves both dimensions, as does
the minimum-weight search built on it.  The best-splitter scan assumes d=2
and takes operators packed as two integers (x bits, z bits), register i at
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

from itertools import combinations, compress


def kernel_backend() -> str:
    """Name of the kernel implementation; there is only the pure-Python one."""
    return "python"


# A row is a tuple over Z_d; an operator's row is x + z.  Echelon state is a
# tuple of (pivot column, normalized row) pairs sorted by pivot.
_Rows = tuple[tuple[int, tuple[int, ...]], ...]


def _reduce(vec: tuple[int, ...], rows: _Rows, d: int) -> tuple[int, ...]:
    """Eliminate vec at every pivot column; the residue is the canonical
    coset representative of vec modulo the row space."""
    v = list(vec)
    for pivot, row in rows:
        coef = v[pivot]
        if coef:
            for i in range(pivot, len(v)):
                v[i] = (v[i] - coef * row[i]) % d
    return tuple(v)


def _insert(rows: _Rows, vec: tuple[int, ...], d: int) -> _Rows | None:
    """Add vec to the echelon state; None if it is already in the span."""
    residue = _reduce(vec, rows, d)
    pivot = next((i for i, v in enumerate(residue) if v), None)
    if pivot is None:
        return None
    inv = pow(residue[pivot], -1, d)
    normalized = tuple(v * inv % d for v in residue)
    merged = sorted(rows + ((pivot, normalized),))
    return tuple(merged)


def min_weight_excluding_span(
    span_x: list[tuple[int, ...]],
    span_z: list[tuple[int, ...]],
    comp_x: list[tuple[int, ...]],
    comp_z: list[tuple[int, ...]],
    d: int,
) -> int:
    """Minimum weight over {c + s} with c a nonzero combination of the
    complement basis and s any combination of the span basis, over Z_d.

    The span must be a stabilizer's generators and span plus complement a
    basis of its normalizer; the scan then covers exactly the normalizer
    minus the stabilizer.  Those are the operators with zero syndrome
    against the span and nonzero syndrome against the complement, since the
    stabilizer is the normalizer's symplectic complement.  Syndromes are
    linear in an operator's site components, so a support carries such an
    operator iff the echelon form of its sites' syndrome rows, span columns
    first, has a pivot among the complement columns.  Supports are searched
    in order of size.
    """
    if not comp_x:
        raise ValueError("complement basis is empty: nothing outside the span")
    n = len(comp_x[0])
    xs, zs = span_x + comp_x, span_z + comp_z
    # Syndrome rows of X and Z on each site: <X_i, b> = b.z[i], <Z_i, b> = -b.x[i].
    site_rows = [
        (tuple(z[i] for z in zs), tuple(-x[i] % d for x in xs)) for i in range(n)
    ]
    for w in range(1, n):
        for support in combinations(range(n), w):
            rows: _Rows = ()
            for i in support:
                for vec in site_rows[i]:
                    rows = _insert(rows, vec, d) or rows
            if any(pivot >= len(span_x) for pivot, _ in rows):
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
