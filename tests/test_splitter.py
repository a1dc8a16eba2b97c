"""The best-splitter scan (``_kernels.best_splitter``), which walks the
complement combinations in key order and stops at a proven lower bound,
against the full scan it replaced, kept in ``prop_checks`` as the oracle.

Instances cover every stabilizer rank on up to 7 registers, random error
lists and survivors sharing a syndrome, and the nodes where the stop rule
matters: rows of even parity only (weight-<=1 errors on an empty
stabilizer, as at the greedy root), one error, one complement vector, and
survivors in a single coset, where no candidate reaches the bound.  The
scan's anticommutation rows, read from the transposed error rows, are
checked against their per-error definition, and the transpose against a
per-bit one.

The scan sweeps only the complement vectors whose anticommutation rows are
independent (``_independent``), so the instances also cover fewer survivors
than complement vectors at every rank, survivors from two or three cosets
with repeats, and one-coset survivors whose rows are all 0 or all ones,
where the scan returns the first complement vector without a sweep.

The scan relies on its complement coming in key form; that property of
``_complement_rows`` is checked at every rank, and the child complement
that synthesis derives from its parent's (``_extended_basis``) against
``_complement_rows`` of the child."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prop_checks
from twep import _kernels, stabilizer, synth
from twep.errorspace import base_errors
from twep.pauli import PauliVec, _from_planes, multiply
from twep.stabilizer import StabilizerSet, _complement_rows, _extended_basis


def _complement(s: StabilizerSet) -> list[int]:
    """The complement rows synthesis keeps for ``s``: their value-1 planes."""
    return [one for one, _ in _complement_rows(s)]


def _arguments(s: StabilizerSet, errors: list[PauliVec]) -> tuple:
    """``best_splitter``'s arguments with the span the oracle reads: the
    generators and the complement as rows split by value plane."""
    comp = _complement(s)
    gens = [g.one for g in s.gens]
    return (gens, [0] * len(gens), comp, [0] * len(comp), [e.one for e in errors], s.n)


def _group_element(rng: random.Random, s: StabilizerSet) -> PauliVec:
    op = PauliVec.identity(2, s.n)
    for g in s.gens:
        if rng.randrange(2):
            op = multiply(op, g)
    return op


def _errors(
    rng: random.Random, s: StabilizerSet, kind: str, count: int
) -> list[PauliVec]:
    """``random``: any operators; ``syndrome``: one operator times random
    normalizer elements, so all share its syndrome; ``coset``: one operator
    times group elements, so all lie in one coset; ``light``: weight <= 1."""
    if kind == "light":
        light = base_errors(2, s.n, 1).members
        return [rng.choice(light) for _ in range(count)]
    if kind == "random":
        return [prop_checks._random_pauli(rng, 2, s.n) for _ in range(count)]
    base = prop_checks._random_pauli(rng, 2, s.n)
    if kind == "coset":
        return [multiply(base, _group_element(rng, s)) for _ in range(count)]
    return [
        multiply(base, prop_checks.random_normalizer_element(rng, s, rng.randint(0, 4)))
        for _ in range(count)
    ]


def _assert_same(
    s: StabilizerSet, errors: list[PauliVec], nc: int | None = None
) -> None:
    args = list(_arguments(s, errors))
    args[2:4] = args[2][:nc], args[3][:nc]
    expected = prop_checks.best_splitter_reference(*args)
    assert _kernels.best_splitter(*args) == expected
    # Synthesis passes the complement alone.
    assert _kernels.best_splitter([], [], args[2], [], *args[4:]) == expected


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 7),
    data=st.data(),
    kind=st.sampled_from(["random", "syndrome", "coset", "light"]),
    count=st.integers(1, 14),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_equals_the_full_scan(n, data, kind, count, seed):
    rng = random.Random(seed)
    s = prop_checks.random_stabilizer(rng, 2, n, data.draw(st.integers(0, n - 1)))
    _assert_same(s, _errors(rng, s, kind, count))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_transposed_rows_equal_the_per_error_rows(n, data):
    """The splitter's rows, read from the errors' transposed rows, against
    the per-error definition: qubits, 1 to 64 errors, a few operators."""
    row = st.integers(0, (1 << 2 * n) - 1)
    errors = data.draw(st.lists(row, min_size=1, max_size=64))
    dual = _kernels._dual_columns(errors, n)
    for op in data.draw(st.lists(row, min_size=1, max_size=4)):
        anti = _kernels._xor_at(op, dual)
        assert anti == prop_checks.anticommuting_reference(op, errors, n)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_columns_equal_the_per_bit_transpose(n, data):
    planes = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=70))
    assert _kernels._columns(planes, n) == prop_checks.columns_reference(planes, n)


def test_columns_of_no_planes_and_of_one_register():
    for n in (1, 2, 5):
        assert _kernels._columns([], n) == [0] * n
    assert _kernels._columns([1, 0, 1, 1], 1) == [0b1101]


@pytest.mark.parametrize("n", range(1, 8))
def test_all_light_errors_on_an_empty_stabilizer(n):
    """Every complement row then has even popcount (the greedy root)."""
    s = StabilizerSet(2, n)
    errors = list(base_errors(2, n, 1).members)
    rows = [
        prop_checks.anticommuting_reference(one, [e.one for e in errors], n)
        for one, _ in _complement_rows(s)
    ]
    assert all(row.bit_count() % 2 == 0 for row in rows)
    _assert_same(s, errors)
    _assert_same(s, errors[1:])


@pytest.mark.parametrize("seed", range(20))
def test_edge_nodes(seed):
    """One error; one complement vector (a stabilizer's complement has even
    size, so the basis is cut to its first vector); and one-coset survivors,
    where the bound is out of reach: every candidate keeps all of them on
    one side."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    s = prop_checks.random_stabilizer(rng, 2, n, rng.randint(0, n - 1))
    _assert_same(s, _errors(rng, s, "random", 1))
    _assert_same(s, _errors(rng, s, "syndrome", rng.randint(1, 8)), nc=1)
    coset = _errors(rng, s, "coset", rng.randint(2, 8))
    _, commuting, anti = _kernels.best_splitter(*_arguments(s, coset))
    assert 0 in (commuting, anti)
    _assert_same(s, coset)


@pytest.mark.parametrize("n", range(1, 7))
def test_fewer_survivors_than_complement_vectors(n):
    """At most D - 1 survivors for D complement vectors, so at least one
    vector's row depends on the others: every rank below n."""
    rng = random.Random(200 + n)
    for rank in range(n):
        s = prop_checks.random_stabilizer(rng, 2, n, rank)
        size = 2 * (n - rank)
        for kind in ("random", "syndrome", "coset", "light"):
            _assert_same(s, _errors(rng, s, kind, rng.randint(1, size - 1)))


@pytest.mark.parametrize("seed", range(30))
def test_survivors_from_a_few_cosets_with_repeats(seed):
    rng = random.Random(300 + seed)
    n = rng.randint(2, 6)
    s = prop_checks.random_stabilizer(rng, 2, n, rng.randint(0, n - 1))
    bases = [prop_checks._random_pauli(rng, 2, n) for _ in range(rng.randint(2, 3))]
    distinct = [
        multiply(rng.choice(bases), _group_element(rng, s))
        for _ in range(rng.randint(2, 6))
    ]
    errors = [rng.choice(distinct) for _ in range(rng.randint(2, 10))]
    _assert_same(s, errors)


def test_one_coset_rows_all_zero_or_all_ones():
    """ne >= 2 survivors in one coset: each complement vector's row is 0 or
    all ones, so nothing separates them and mask 1 wins.  Covered: every row
    0 (a coset of the stabilizer itself), the first row all ones, and the
    first row 0 with a later one all ones, where the independent rows are
    one all-ones row that is not the first vector's."""
    rng = random.Random(11)
    seen = {"all zero": 0, "first ones": 0, "first zero, later ones": 0}
    while min(seen.values()) < 10:
        n = rng.randint(1, 6)
        s = prop_checks.random_stabilizer(rng, 2, n, rng.randint(0, n - 1))
        identity = PauliVec.identity(2, n)
        base = rng.choice([identity, prop_checks._random_pauli(rng, 2, n)])
        ne = rng.randint(2, 8)
        errors = [multiply(base, _group_element(rng, s)) for _ in range(ne)]
        args = _arguments(s, errors)
        full = (1 << ne) - 1
        rows = [prop_checks.anticommuting_reference(k, args[4], n) for k in args[2]]
        assert set(rows) <= {0, full}
        if full not in rows:
            case = "all zero"
        else:
            case = "first ones" if rows[0] == full else "first zero, later ones"
        seen[case] += 1
        anti = rows[0].bit_count()
        expected = (args[2][0], ne - anti, anti)
        assert _kernels.best_splitter(*args) == expected
        assert prop_checks.best_splitter_reference(*args) == expected


def _span(rows: list[int]) -> set[int]:
    return set(_kernels._combinations(rows))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_independent_keeps_the_span_and_drops_only_earlier_combinations(data):
    """Random rows, with some drawn as combinations of earlier ones: the kept
    rows are independent and span all rows, each dropped row lies in the
    span of the kept rows before it, and keys stay with their rows."""
    width = data.draw(st.integers(1, 10))
    rows: list[int] = []
    for _ in range(data.draw(st.integers(0, 12))):
        if rows and data.draw(st.booleans()):
            mask = data.draw(st.integers(0, (1 << len(rows)) - 1))
            rows.append(_kernels._xor_at(mask, rows))
        else:
            rows.append(data.draw(st.integers(0, (1 << width) - 1)))
    keys = [1000 + i for i in range(len(rows))]
    kept_keys, kept_rows = _kernels._independent(keys, rows)
    assert kept_rows == [rows[k - 1000] for k in kept_keys]
    assert kept_keys == sorted(kept_keys)
    assert len(_span(kept_rows)) == 1 << len(kept_rows)
    assert _span(kept_rows) == _span(rows)
    for i, row in enumerate(rows):
        if keys[i] not in kept_keys:
            before = [r for k, r in zip(kept_keys, kept_rows) if k < keys[i]]
            assert row in _span(before)


def test_full_rank_has_no_candidate():
    s = prop_checks.random_stabilizer(random.Random(3), 2, 4, 4)
    assert _complement_rows(s) == []
    gens = [g.one for g in s.gens]
    args = (gens, [0] * len(gens), [], [], [PauliVec.identity(2, 4).one], 4)
    for scan in (_kernels.best_splitter, prop_checks.best_splitter_reference):
        with pytest.raises(ValueError, match="complement basis is empty"):
            scan(*args)


def test_odd_rows_keep_the_plain_bound():
    """Every row odd and |errors| = 2 mod 4: an odd count can split them
    evenly, so the even-only bound (one higher) must not apply."""
    rng = random.Random(7)
    found = 0
    while found < 100:
        n = rng.randint(2, 6)
        s = prop_checks.random_stabilizer(rng, 2, n, rng.randint(0, n - 2))
        kind = rng.choice(["random", "syndrome"])
        errors = _errors(rng, s, kind, rng.choice([6, 10]))
        rows = [
            prop_checks.anticommuting_reference(one, [e.one for e in errors], n)
            for one, _ in _complement_rows(s)
        ]
        if all(row.bit_count() % 2 for row in rows):
            found += 1
            _assert_same(s, errors)


def _leading_bits(keys: list[int]) -> int:
    """Mask of the leading (highest) bits of the span's fully reduced basis:
    those of any basis with distinct leading bits."""
    basis: dict[int, int] = {}
    for key in keys:
        while key and key.bit_length() in basis:
            key ^= basis[key.bit_length()]
        if key:
            basis[key.bit_length()] = key
    return sum(1 << length - 1 for length in basis)


@pytest.mark.parametrize("n", range(1, 9))
def test_complement_is_in_key_form(n):
    """Ascending, fully reduced, and zero at the span's leading bits, at
    every rank: ``best_splitter``'s precondition."""
    rng = random.Random(n)
    for rank in range(n + 1):
        for _ in range(12):
            s = prop_checks.random_stabilizer(rng, 2, n, rank)
            comp = [one for one, _ in _complement_rows(s)]
            assert comp == sorted(comp)
            leads = _leading_bits(comp)
            assert leads == sum(1 << k.bit_length() - 1 for k in comp)
            span_leads = _leading_bits([g.one for g in s.gens])
            for k in comp:
                assert k & leads == 1 << k.bit_length() - 1
                assert not k & span_leads


@pytest.mark.parametrize("n", range(1, 9))
def test_derived_child_basis_equals_the_scan_basis(n):
    """The child of s measuring m, a nonzero combination of s's complement:
    its complement derived from s's is the one built from scratch."""
    rng = random.Random(100 + n)
    for rank in range(n):
        for _ in range(12):
            s = prop_checks.random_stabilizer(rng, 2, n, rank)
            comp = _complement(s)
            mask = rng.randrange(1, 1 << len(comp))
            m = _kernels._xor_at(mask, comp)
            child = s.extend(_from_planes(2, n, m, 0))
            assert _extended_basis(comp, child) == _complement(child)


@pytest.mark.parametrize("n", range(1, 9))
def test_every_synthesis_memo_entry_equals_the_scan_basis(n, monkeypatch):
    memos = []

    def recording(s, rows, bases):
        memos.append(bases)
        return best_splitter(s, rows, bases)

    best_splitter = synth._best_splitter
    monkeypatch.setattr(synth, "_best_splitter", recording)
    for t in range(min(n, 2) + 1):
        memos.clear()
        synth._synthesize(n, t)
        if not memos:
            continue
        for gens, comp in memos[0].items():
            assert comp == _complement(StabilizerSet(2, n, gens)), (t, gens)


def test_synthesis_builds_no_basis_from_scratch(monkeypatch):
    """The root's complement is seeded as the unit rows, and every other
    is derived from its parent's."""
    calls = []

    def counting(s):
        calls.append(s.gens)
        return complement_rows(s)

    complement_rows = stabilizer._complement_rows
    monkeypatch.setattr(stabilizer, "_complement_rows", counting)
    synth._synthesize(9, 1)
    assert calls == []
