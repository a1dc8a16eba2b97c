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

The scan relies on its complement coming in key form; that property of
``_complement_rows`` is checked at every rank, and the child basis that
synthesis derives from its parent's (``_extended_basis``) against
``_scan_basis`` of the child."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prop_checks
from twep import _kernels, stabilizer, synth
from twep.errorspace import base_errors
from twep.pauli import PauliVec, _from_planes, multiply
from twep.stabilizer import (
    StabilizerSet,
    _complement_rows,
    _extended_basis,
    _scan_basis,
)


def _arguments(s: StabilizerSet, errors: list[PauliVec]) -> tuple:
    """``best_splitter``'s arguments as ``synth.choose_generator`` builds them."""
    return (*_scan_basis(s), [e.one for e in errors], s.n)


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
    assert _kernels.best_splitter(*args) == prop_checks.best_splitter_reference(*args)


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


def test_full_rank_has_no_candidate():
    s = prop_checks.random_stabilizer(random.Random(3), 2, 4, 4)
    assert _scan_basis(s) == ()
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
    its basis derived from s's is the one built from scratch."""
    rng = random.Random(100 + n)
    for rank in range(n):
        for _ in range(12):
            s = prop_checks.random_stabilizer(rng, 2, n, rank)
            basis = _scan_basis(s)
            mask = rng.randrange(1, 1 << len(basis[2]))
            m = _kernels._xor_at(mask, basis[2])
            child = s.extend(_from_planes(2, n, m, 0))
            assert _extended_basis(basis, child) == _scan_basis(child)


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
        for gens, basis in memos[0].items():
            assert basis == _scan_basis(StabilizerSet(2, n, gens)), (t, gens)


def test_synthesis_builds_one_basis_from_scratch(monkeypatch):
    calls = []

    def counting(s):
        calls.append(s.gens)
        return complement_rows(s)

    complement_rows = stabilizer._complement_rows
    monkeypatch.setattr(stabilizer, "_complement_rows", counting)
    synth._synthesize(9, 1)
    assert calls == [()]
