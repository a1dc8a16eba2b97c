"""Standalone property suites shared by the property tests and the
acceptance gate.  Each check raises AssertionError on failure and returns a
small summary string on success."""

from __future__ import annotations

import json
import random
from itertools import combinations, product
from math import comb
from types import SimpleNamespace

from twep.engine import (
    Counterexample,
    Discard,
    Finish,
    History,
    Measure,
    ProtocolError,
    Report,
    Strategy,
    Transcript,
    _walk,
    simulate,
)
from twep.errorspace import ErrorSet, base_errors, enumerate_errors, filter_by_outcome
from twep.pauli import (
    PauliVec,
    canonical_key,
    multiply,
    parse,
    render,
    symplectic_product,
    weight,
)
from twep.protocols import hamming_family, nine_pair, qutrit_four, six_pair
from twep.stabilizer import SizeLimitError, StabilizerSet, normalizer_complement_basis
from twep.synth import split_counts


def _random_pauli(rng: random.Random, d: int, n: int) -> PauliVec:
    return PauliVec(
        d,
        n,
        tuple(rng.randrange(d) for _ in range(n)),
        tuple(rng.randrange(d) for _ in range(n)),
    )


def inverse(p: PauliVec) -> PauliVec:
    """Phaseless inverse: exponents scaled by d-1 (for d=2 the operator itself)."""
    d = p.d
    return PauliVec(
        d, p.n, tuple((d - 1) * a % d for a in p.x), tuple((d - 1) * a % d for a in p.z)
    )


def random_stabilizer(rng: random.Random, d: int, n: int, rank: int) -> StabilizerSet:
    """A stabilizer of exactly the given rank, grown by rejection sampling of
    random operators that commute with it and lie outside it."""
    s = StabilizerSet(d, n)
    while s.rank < rank:
        cand = _random_pauli(rng, d, n)
        if s.in_normalizer(cand) and not s.is_member(cand):
            s = s.extend(cand)
    return s


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


def symplectic_product_reference(p: PauliVec, q: PauliVec) -> int:
    """The tuple formula: sum of px*qz - pz*qx over the sites, mod d."""
    return sum(px * qz - pz * qx for px, pz, qx, qz in zip(p.x, p.z, q.x, q.z)) % p.d


def bits_reference(vector, value: int = 1) -> int:
    """Bit i set iff vector[i] == value; for d=2 this is sum(b << i)."""
    return sum((b == value) << i for i, b in enumerate(vector))


def render_reference(p: PauliVec) -> str:
    """One letter (d=2) or comma-separated token (d=3) per site, joined."""
    if p.d == 2:
        return "".join("IXZY"[a + 2 * b] for a, b in zip(p.x, p.z))

    def token(a: int, b: int) -> str:
        x = "X" + "2" * (a == 2) if a else ""
        z = "Z" + "2" * (b == 2) if b else ""
        return x + z or "I"

    return ",".join(token(a, b) for a, b in zip(p.x, p.z))


def canonical_key_reference(p: PauliVec) -> int:
    """Base-d^2 digits x + d*z, site 0 least significant."""
    return sum((a + p.d * b) * (p.d * p.d) ** i for i, (a, b) in enumerate(zip(p.x, p.z)))


def weight_reference(p: PauliVec) -> int:
    return sum(1 for a, b in zip(p.x, p.z) if a or b)


def complete_discard_reference(s: StabilizerSet, discard) -> list[PauliVec]:
    """Slow oracle for ``stabilizer.complete_discard``: build every candidate
    supported inside the registers, in ascending canonical-key order, and
    keep each one that commutes with the stabilizer grown so far and lies
    outside it.  The scan builds (d^2)^k candidates on k registers, so it
    refuses more than nine."""
    registers = frozenset(discard)
    if not registers:
        raise ValueError("discard set must be nonempty")
    if any(not 0 <= r < s.n for r in registers):
        raise ValueError("discard register out of range")
    if len(registers) > 9:
        raise SizeLimitError(f"candidate scan over {len(registers)} registers")
    d, n = s.d, s.n
    sites = sorted(registers)
    added = []
    for digits in product(range(d * d), repeat=len(sites)):
        x = [0] * n
        z = [0] * n
        # The last site varies fastest in ``product``; the canonical key
        # makes the first site least significant, so read the digits reversed.
        for site, digit in zip(sites, reversed(digits)):
            x[site] = digit % d
            z[site] = digit // d
        cand = PauliVec(d, n, tuple(x), tuple(z))
        if cand.is_identity:
            continue
        if s.in_normalizer(cand) and not s.is_member(cand):
            s = s.extend(cand)
            added.append(cand)
    return added


# The tuple row reduction that packed echelon rows replaced, kept verbatim
# as the oracle for ``_kernels.Echelon`` and its callers.  A row is a tuple
# over Z_d; an operator's row is x + z.  Echelon state is a tuple of (pivot
# column, normalized row) pairs sorted by pivot.
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


def _constraint_nullspace(s: StabilizerSet) -> list[tuple[int, ...]]:
    """Basis of the space of symplectic vectors commuting with every
    generator (the normalizer, as a Z_d space of dimension 2n - rank), in
    interleaved columns: x[i] at column 2i and z[i] at column 2i + 1."""
    d, n = s.d, s.n
    width = 2 * n
    # Row for generator g maps u to <g,u> = sum of g.x[i]·u.z[i] - g.z[i]·u.x[i].
    rows: _Rows = ()
    for g in s.gens:
        row = tuple(c for a, b in zip(g.z, g.x) for c in ((-a) % d, b))
        updated = _insert(rows, row, d)
        if updated is not None:
            rows = updated
    # Full reduction above each pivot so back-substitution reads directly.
    reduced = []
    for pivot, row in rows:
        r = list(row)
        for other_pivot, other in rows:
            if other_pivot > pivot and r[other_pivot]:
                coef = r[other_pivot]
                for i in range(other_pivot, width):
                    r[i] = (r[i] - coef * other[i]) % d
        reduced.append((pivot, tuple(r)))
    pivots = {p for p, _ in reduced}
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        v = [0] * width
        v[free] = 1
        for pivot, row in reduced:
            v[pivot] = (-row[free]) % d
        basis.append(tuple(v))
    return basis


def _min_weight_excluding_span(span_x, span_z, comp_x, comp_z, d: int) -> int:
    """The tuple minimum-weight search: supports in order of size, each
    with a fresh echelon form of its sites' syndrome rows."""
    n = len(comp_x[0])
    xs, zs = span_x + comp_x, span_z + comp_z
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
    return n


def rows_reference(gens) -> _Rows:
    """The tuple echelon state of the operators' x + z rows."""
    rows: _Rows = ()
    for g in gens:
        rows = _insert(rows, g.x + g.z, g.d) or rows
    return rows


def rank_reference(gens) -> int:
    return len(rows_reference(gens))


def residue_reference(s, p: PauliVec) -> tuple[int, ...]:
    """The tuple residue of p modulo the row space of s.gens."""
    return _reduce(p.x + p.z, rows_reference(s.gens), s.d)


def is_member_reference(s, p: PauliVec) -> bool:
    return not any(residue_reference(s, p))


def coset_classes_reference(errors, s: StabilizerSet) -> list[list[PauliVec]]:
    """Errors grouped by tuple residue, classes in order of first member."""
    classes: dict[tuple[int, ...], list[PauliVec]] = {}
    for e in errors:
        classes.setdefault(residue_reference(s, e), []).append(e)
    return list(classes.values())


def normalizer_complement_basis_reference(s: StabilizerSet) -> list[PauliVec]:
    rows = rows_reference(s.gens)
    complement = []
    for vec in _constraint_nullspace(s):
        op = PauliVec(s.d, s.n, vec[::2], vec[1::2])
        updated = _insert(rows, op.x + op.z, s.d)
        if updated is not None:
            rows = updated
            complement.append(op)
    return complement


def min_normalizer_weight_reference(s: StabilizerSet) -> int:
    complement = normalizer_complement_basis_reference(s)
    return _min_weight_excluding_span(
        [g.x for g in s.gens],
        [g.z for g in s.gens],
        [c.x for c in complement],
        [c.z for c in complement],
        s.d,
    )


def best_splitter_reference(
    span_one: list[int],
    span_two: list[int],
    comp_one: list[int],
    comp_two: list[int],
    errors: list[int],
    n: int,
) -> tuple[int, int, int]:
    """The full scan ``_kernels.best_splitter`` replaced, on PauliVec
    operations alone: each nonzero complement combination is split against
    the errors by ``symplectic_product``, the smallest larger side wins,
    and ties go to the smallest ``canonical_key`` over every combination
    times every span element.  The basis and the errors are decoded from
    their rows (the value-2 planes are ignored, as for d=2 they are 0).
    Returns the winning operator's row and its own commuting and
    anticommuting counts."""
    if not comp_one:
        raise ValueError("complement basis is empty: nothing outside the span")

    def products(rows: list[int]) -> list[PauliVec]:
        """Every product of a subset of the rows' operators, the identity
        first."""
        out = [PauliVec.identity(2, n)]
        for row in rows:
            b = row_operator_reference(row, n)
            out += [multiply(p, b) for p in out]
        return out

    span = products(span_one)
    decoded = [row_operator_reference(e, n) for e in errors]
    best = None
    for c in products(comp_one)[1:]:
        anti = sum(symplectic_product(c, e) for e in decoded)
        side = max(anti, len(decoded) - anti)
        key, op = min((canonical_key(p), p) for p in (multiply(c, s) for s in span))
        if best is None or (side, key) < best[:2]:
            best = side, key, op
    op = best[2]
    anti = sum(symplectic_product(op, e) for e in decoded)
    row = sum(x << 2 * i | z << 2 * i + 1 for i, (x, z) in enumerate(zip(op.x, op.z)))
    return row, len(decoded) - anti, anti


def row_operator_reference(row: int, n: int) -> PauliVec:
    """The qubit operator whose row is ``row``: x[i] is bit 2i, z[i] bit
    2i + 1."""
    return PauliVec(
        2,
        n,
        tuple(row >> 2 * i & 1 for i in range(n)),
        tuple(row >> 2 * i + 1 & 1 for i in range(n)),
    )


def anticommuting_reference(op: int, errors: list[int], n: int) -> int:
    """Bit-row of a qubit operator given as a row: bit e set iff it
    anticommutes with the error whose row is errors[e], one error at a time
    by ``symplectic_product``."""
    p = row_operator_reference(op, n)
    return sum(
        symplectic_product(p, row_operator_reference(e, n)) << i
        for i, e in enumerate(errors)
    )


def columns_reference(planes: list[int], n: int) -> list[int]:
    """Transpose of the planes, one bit at a time: entry i has bit j set
    iff bit i of planes[j] is set."""
    return [
        sum((plane >> i & 1) << j for j, plane in enumerate(planes)) for i in range(n)
    ]


def mi_sequence_reference(length: int) -> list[int]:
    """``bounds.mi_sequence`` by the binary search its closed form replaced:
    m_i is the largest m in 1..B, B = 2 m_{i-1} + 2, with m <= (B - m)^2."""
    seq = [1]
    while len(seq) < length:
        bound = 2 * seq[-1] + 2
        lo, hi = 1, bound
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid <= (bound - mid) * (bound - mid):
                lo = mid
            else:
                hi = mid - 1
        seq.append(lo)
    return seq


def count_errors_reference(n: int, t: int, d: int = 2) -> int:
    """``errorspace.count_errors`` as one sum of binomials per call."""
    return sum((d * d - 1) ** j * comb(n, j) for j in range(t + 1))


def hamming_max_k_reference(n: int, t: int) -> int:
    """``bounds.hamming_max_k`` by the loop its closed form replaced: the
    largest k from n down to 1 with 2^k |E| <= 2^n, else -1."""
    total = count_errors_reference(n, t)
    for k in range(n, 0, -1):
        if (total << k) <= (1 << n):
            return k
    return -1


def bounds_row_reference(n: int, t: int) -> tuple:
    """One ``bounds_table`` row as a tuple, each bound from its own count of
    the errors: (n, t, hamming, singleton, gv or None, Theorem 2)."""
    gv = n - (count_errors_reference(n, 2 * t) - 1).bit_length()
    return (
        n,
        t,
        hamming_max_k_reference(n, t),
        n - 4 * t if n >= 4 * t else -1,
        gv if 2 * t <= n else None,
        n - (count_errors_reference(n, t) - 1).bit_length() - 2,
    )


def random_normalizer_element(rng: random.Random, s, terms: int) -> PauliVec:
    """A combination of ``terms`` random vectors of the tuple normalizer
    basis of s (anything with d, n and gens), with random coefficients: an
    operator commuting with s, often outside it."""
    basis = _constraint_nullspace(s)
    v = [0] * (2 * s.n)
    for vec in rng.sample(basis, min(terms, len(basis))):
        c = rng.randrange(1, s.d)
        v = [(a + c * b) % s.d for a, b in zip(v, vec)]
    return PauliVec(s.d, s.n, tuple(v[::2]), tuple(v[1::2]))


def random_wide_stabilizer(rng: random.Random, d: int, n: int, rank: int) -> StabilizerSet:
    """A stabilizer of the given rank on any number of registers, grown with
    the tuple oracle alone from random normalizer elements, so its rows
    reach the high columns without rejection sampling."""
    s = SimpleNamespace(d=d, n=n, gens=())
    while len(s.gens) < rank:
        cand = random_normalizer_element(rng, s, rng.randint(1, 4))
        if not is_member_reference(s, cand):
            s.gens += (cand,)
    return StabilizerSet(d, n, s.gens)


def check_symplectic_algebra(cases: int = 10_000, seed: int = 20240305) -> str:
    """Antisymmetry and bilinearity of the commutation form, random cases."""
    rng = random.Random(seed)
    for i in range(cases):
        d = 2 if i % 3 else 3
        n = rng.randint(1, 8)
        p = _random_pauli(rng, d, n)
        q = _random_pauli(rng, d, n)
        r = _random_pauli(rng, d, n)
        assert symplectic_product(p, q) == (-symplectic_product(q, p)) % d
        assert (
            symplectic_product(multiply(p, q), r)
            == (symplectic_product(p, r) + symplectic_product(q, r)) % d
        )
    return f"{cases} random antisymmetry+bilinearity cases"


def check_syndrome_additivity(cases: int = 2_000, seed: int = 987) -> str:
    """Syndromes add componentwise under operator products."""
    rng = random.Random(seed)
    for i in range(cases):
        d = 2 if i % 2 else 3
        n = rng.randint(2, 6)
        s = StabilizerSet(d, n)
        for _ in range(rng.randint(1, n)):
            for _attempt in range(80):
                cand = _random_pauli(rng, d, n)
                if cand.is_identity:
                    continue
                try:
                    s = s.extend(cand)
                    break
                except ValueError:
                    continue
        e = _random_pauli(rng, d, n)
        f = _random_pauli(rng, d, n)
        combined = s.syndrome(multiply(e, f))
        split = tuple(
            (a + b) % d for a, b in zip(s.syndrome(e).values, s.syndrome(f).values)
        )
        assert combined.values == split
    return f"{cases} random syndrome-additivity cases"


def check_candidate_set_oracle() -> str:
    """At every prefix of every protocol run on at most nine registers, the
    engine's sequentially filtered survivor set equals the brute-force set of
    weight-bounded errors matching all outcomes."""
    checked = 0
    for strategy in (six_pair(), hamming_family(3), nine_pair(), qutrit_four()):
        assert strategy.n <= 9
        all_errors = base_errors(strategy.d, strategy.n, strategy.t)
        # The brute-force set depends on the prefix alone: each distinct
        # prefix is computed once, and every (error, prefix) is still checked.
        brute_sets: dict[tuple[tuple[PauliVec, int], ...], list[PauliVec]] = {}
        for hidden in all_errors.members:
            transcript = simulate(strategy, hidden)
            survivors = all_errors
            seen: list[tuple[PauliVec, int]] = []
            for op, outcome in transcript.history.entries:
                survivors = filter_by_outcome(survivors, op, outcome)
                seen.append((op, outcome))
                prefix = tuple(seen)
                if prefix not in brute_sets:
                    brute_sets[prefix] = [
                        e
                        for e in all_errors.members
                        if weight(e) <= strategy.t
                        and all(symplectic_product(m, e) == o for m, o in seen)
                    ]
                assert list(survivors.members) == brute_sets[prefix]
                checked += 1
    return f"{checked} simulation prefixes against the brute-force candidate set"


def span_elements(s: StabilizerSet):
    """Every element of the group s generates (d^rank of them)."""
    for coeffs in product(range(s.d), repeat=len(s.gens)):
        op = PauliVec.identity(s.d, s.n)
        for c, g in zip(coeffs, s.gens):
            for _ in range(c):
                op = multiply(op, g)
        yield op


def average_separated_pairs(s: StabilizerSet, errors: ErrorSet) -> float:
    """Mean separated-pair count over every commuting independent operator;
    used to check the averaging argument on small instances."""
    complement = normalizer_complement_basis(s)
    if not complement or len(errors.members) < 2:
        raise ValueError("nothing to average")
    span = list(span_elements(s))
    total = 0
    count = 0
    for coeffs in product(range(2), repeat=len(complement)):
        if not any(coeffs):
            continue
        base = PauliVec.identity(2, s.n)
        for c, vec in zip(coeffs, complement):
            if c:
                base = multiply(base, vec)
        for element in span:
            split = split_counts(multiply(base, element), errors)
            total += split.separated_pairs
            count += 1
    return total / count


def check_half_separation(max_n: int = 4) -> str:
    """Exactly half the normalizer separates any pair of errors differing by
    something outside the stabilizer; nothing in the stabilizer separates."""
    cases = {
        1: [["X"]],
        2: [["XX"], ["XX", "ZZ"]],
        3: [["XXX"], ["XXX", "ZZI"]],
        4: [["XXXX", "ZZZZ"], ["XZZX"]],
    }
    checked = 0
    for n in range(1, max_n + 1):
        for gens in cases[n]:
            s = StabilizerSet(2, n, [parse(g, 2) for g in gens])
            span = set(span_elements(s))
            normalizer = [
                p
                for p in _all_paulis(2, n)
                if all(symplectic_product(p, g) == 0 for g in s.gens)
            ]
            for diff in _all_paulis(2, n):
                if diff in span:
                    continue
                separating = sum(
                    1 for p in normalizer if symplectic_product(p, diff) != 0
                )
                assert separating == len(normalizer) // 2
                if s.in_normalizer(diff):
                    # Same-syndrome pairs are separated by nothing in the
                    # stabilizer itself.
                    assert all(symplectic_product(p, diff) == 0 for p in span)
                checked += 1
    return f"{checked} separation counts across stabilizers on up to {max_n} registers"


def _all_paulis(d, n):
    for xs in product(range(d), repeat=n):
        for zs in product(range(d), repeat=n):
            yield PauliVec(d, n, xs, zs)


def simulate_each(strategy: Strategy) -> list[tuple[PauliVec, Transcript | str]]:
    """``simulate`` once per enumerated error, in enumeration order: each
    error with its transcript, or with the reason a ProtocolError gave."""
    runs = []
    for hidden in enumerate_errors(strategy.n, strategy.t, strategy.d).members:
        try:
            runs.append((hidden, simulate(strategy, hidden)))
        except ProtocolError as exc:
            runs.append((hidden, f"{type(exc).__name__}: {exc}"))
    return runs


def report_of_runs(runs, k_claimed: int) -> Report:
    """The k_out and residual checks over ``simulate_each``'s runs; the runs
    do not depend on the claim, so one set serves a strategy and its twins."""
    k_values = []
    counterexamples = []
    for hidden, run in runs:
        if isinstance(run, str):
            counterexamples.append(Counterexample(hidden, None, run))
            continue
        k_values.append(run.k_out)
        if run.k_out < k_claimed:
            reason = f"k_out {run.k_out} below claimed {k_claimed}"
            counterexamples.append(Counterexample(hidden, run, reason))
            continue
        residual = multiply(inverse(run.correction), hidden)
        if not run.final_stabilizer.is_member(residual):
            reason = "correction differs from the hidden error"
            counterexamples.append(Counterexample(hidden, run, reason))
    k_min = min(k_values) if k_values else -1
    return Report(
        errors_checked=len(runs),
        k_min=k_min,
        passed=not counterexamples and k_min >= k_claimed,
        counterexamples=tuple(counterexamples),
    )


def scripted(d, n, t, steps, k_claimed=0) -> Strategy:
    """Strategy that replays a fixed step list regardless of outcomes."""

    def next_step(history: History):
        index = len(history.entries) + len(history.discards)
        if index < len(steps):
            return steps[index]
        return Finish()

    return Strategy(d=d, n=n, t=t, k_claimed=k_claimed, next=next_step)


def verify_by_simulation(strategy: Strategy) -> Report:
    """Reference verifier: ``simulate`` once per enumerated error, then the
    k_out and residual checks, in enumeration order.  ``engine.verify``
    must return the same report by walking the outcome tree once."""
    return report_of_runs(simulate_each(strategy), strategy.k_claimed)


def report_text_reference(report: Report) -> str:
    """What ``Report.to_text`` writes directly: the plain-data form through
    ``json.dumps`` with two-space indentation, plus a newline."""
    return json.dumps(report.to_dict(), indent=2) + "\n"


def recorded_tree(strategy: Strategy) -> dict:
    """The strategy's outcome tree as ``engine._walk`` consults it: each
    node's (history entries, discards) to the step the strategy answers
    there.  The discards are part of the key because a discard completion
    can add no operator."""
    tree = {}

    def choose(history: History, s, reached):
        step = tree[history.entries, history.discards] = strategy.next(history)
        return step

    _walk(strategy, choose)
    return tree


def tree_text(tree: dict) -> str:
    """A tree keyed as ``recorded_tree``'s, one sorted line per node: its
    outcome path (``-`` for the root), then ``/`` and the registers of each
    recorded discard, then the operator it measures, ``discard`` and the
    registers it drops, or ``finish``."""

    def registers(regs) -> str:
        return ",".join(str(r) for r in sorted(regs))

    def action(step) -> str:
        if isinstance(step, Measure):
            return render(step.op)
        if isinstance(step, Discard):
            return f"discard {registers(step.registers)}"
        return "finish"

    lines = sorted(
        f"{''.join(str(o) for _, o in entries) or '-'}"
        f"{''.join('/' + registers(regs) for regs in discards)} {action(step)}"
        for (entries, discards), step in tree.items()
    )
    return "\n".join(lines) + "\n"


def assert_same_report(walked: Report, reference: Report) -> None:
    """Field-by-field equality; transcripts hold a StabilizerSet, which has
    no __eq__, so comparing whole reports would compare identities."""
    assert walked.to_text() == reference.to_text()
    assert (walked.errors_checked, walked.k_min, walked.passed) == (
        reference.errors_checked,
        reference.k_min,
        reference.passed,
    )
    assert len(walked.counterexamples) == len(reference.counterexamples)
    for got, want in zip(walked.counterexamples, reference.counterexamples):
        assert (got.hidden, got.reason) == (want.hidden, want.reason)
        if want.transcript is None:
            assert got.transcript is None
            continue
        assert got.transcript.to_text() == want.transcript.to_text()
        assert got.transcript.history == want.transcript.history
        assert (
            got.transcript.final_stabilizer.gens
            == want.transcript.final_stabilizer.gens
        )


def permute(op: PauliVec, perm) -> PauliVec:
    """The operator with register i moved to register perm[i]."""
    x = [0] * op.n
    z = [0] * op.n
    for i, target in enumerate(perm):
        x[target] = op.x[i]
        z[target] = op.z[i]
    return PauliVec(op.d, op.n, tuple(x), tuple(z))


def relabel(strategy: Strategy, perm, k_claimed: int) -> Strategy:
    """``strategy`` with register i renamed perm[i], claiming k_claimed: each
    history is mapped back to the original labels and each step forward."""
    back = [0] * strategy.n
    for i, target in enumerate(perm):
        back[target] = i

    def next_step(history: History):
        original = History(
            tuple((permute(op, back), o) for op, o in history.entries),
            tuple(frozenset(back[r] for r in regs) for regs in history.discards),
        )
        step = strategy.next(original)
        if isinstance(step, Measure):
            return Measure(permute(step.op, perm))
        if isinstance(step, Discard):
            return Discard(frozenset(perm[r] for r in step.registers))
        return step

    return Strategy(
        d=strategy.d,
        n=strategy.n,
        t=strategy.t,
        k_claimed=k_claimed,
        next=next_step,
        name=f"{strategy.name}-relabelled",
    )
