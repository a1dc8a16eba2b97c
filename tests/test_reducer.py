"""The packed row reductions (``_kernels.Echelon`` and the pivot table of
``_kernels.pivot_store``) and every caller of them against the tuple
reduction they replaced, kept in ``prop_checks`` as the oracle: ranks, membership, coset partitions, ``extend``'s errors, the
normalizer complement basis and the minimum normalizer weight; and the
coset-class invariant ``engine.verify`` relies on at a Finish leaf.
Operators run to n = 130 registers, so rows cross the 64- and 128-bit
columns."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prop_checks
from prop_checks import inverse, permute, random_wide_stabilizer
from twep import _kernels
from twep.errorspace import ErrorSet, coset_classes
from twep.pauli import PauliVec, multiply, parse
from twep.stabilizer import (
    StabilizerSet,
    min_normalizer_weight,
    normalizer_complement_basis,
    rank,
)


def _element(rng: random.Random, s: StabilizerSet) -> PauliVec:
    """A random element of the group s generates."""
    op = PauliVec.identity(s.d, s.n)
    for g in s.gens:
        for _ in range(rng.randrange(s.d)):
            op = multiply(op, g)
    return op


def _operators(rng: random.Random, s: StabilizerSet, count: int) -> list[PauliVec]:
    """Dense operators, operators on a few sites, normalizer elements, group
    elements, and earlier operators shifted by a group element (so cosets
    have several members)."""
    d, n = s.d, s.n
    ops: list[PauliVec] = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.2:
            op = prop_checks._random_pauli(rng, d, n)
        elif roll < 0.4:
            sites = rng.sample(range(n), min(n, rng.randint(1, 3)))
            op = PauliVec.from_sites(
                d, n, {i: (rng.randrange(d), rng.randrange(d)) for i in sites}
            )
        elif roll < 0.55:
            op = prop_checks.random_normalizer_element(rng, s, rng.randint(1, 3))
        elif roll < 0.65 or not ops:
            op = _element(rng, s)
        else:
            op = multiply(rng.choice(ops), _element(rng, s))
        ops.append(op)
    return ops


@st.composite
def wide_cases(draw, max_n=130, max_rank=10):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, min(n, max_rank)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rng, random_wide_stabilizer(rng, d, n, r)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=wide_cases())
def test_rank_membership_and_coset_partition_match_the_tuple_oracle(case):
    rng, s = case
    assert s.rank == len(s) == prop_checks.rank_reference(s.gens)
    ops = _operators(rng, s, 24)
    assert rank(ops) == prop_checks.rank_reference(ops)
    assert rank(list(s.gens) + ops) == prop_checks.rank_reference(list(s.gens) + ops)
    for op in ops:
        assert s.is_member(op) == prop_checks.is_member_reference(s, op)
    partition = coset_classes(ErrorSet(s.d, s.n, tuple(ops)), s)
    assert [list(c) for c in partition.classes] == prop_checks.coset_classes_reference(
        ops, s
    )


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=wide_cases())
def test_extend_accepts_and_rejects_like_the_tuple_oracle(case):
    """Every candidate either extends the set by one rank or raises one of
    ``extend``'s two ValueErrors, word for word, as the oracle predicts."""
    rng, s = case
    for op in _operators(rng, s, 12):
        if any(prop_checks.symplectic_product_reference(op, g) for g in s.gens):
            expected = f"{op} does not commute with the stabilizer"
        elif prop_checks.is_member_reference(s, op):
            expected = f"{op} is dependent on the stabilizer"
        else:
            grown = s.extend(op)
            assert grown.gens == s.gens + (op,)
            assert grown.rank == s.rank + 1
            continue
        with pytest.raises(ValueError) as raised:
            s.extend(op)
        assert str(raised.value) == expected


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=wide_cases(max_rank=16))
def test_normalizer_complement_basis_matches_the_tuple_oracle(case):
    _, s = case
    basis = normalizer_complement_basis(s)
    assert basis == prop_checks.normalizer_complement_basis_reference(s)
    assert len(basis) == 2 * (s.n - s.rank)


# Textbook codes: [[4,2,2]], [[5,1,3]], Steane [[7,1,3]], Shor [[9,1,3]]
# and the qutrit [[5,1,3]]_3.
ANCHORS = (
    (2, ("XXXX", "ZZZZ")),
    (2, ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")),
    (2, ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")),
    (
        2,
        ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
         "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"),
    ),
    (3, ("X,Z,Z2,X2,I", "I,X,Z,Z2,X2", "X2,I,X,Z,Z2", "Z2,X2,I,X,Z")),
)


def _anchor(d: int, gens: tuple[str, ...]) -> StabilizerSet:
    ops = [parse(g, d) for g in gens]
    return StabilizerSet(d, ops[0].n, ops)


@pytest.mark.parametrize("d, gens", ANCHORS)
def test_textbook_codes_match_the_tuple_oracles(d, gens):
    s = _anchor(d, gens)
    basis = normalizer_complement_basis(s)
    assert basis == prop_checks.normalizer_complement_basis_reference(s)
    assert len(basis) == 2 * (s.n - s.rank)
    assert min_normalizer_weight(s) == prop_checks.min_normalizer_weight_reference(s)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [1, 4, 7])
def test_rank_zero_and_full_rank_complements_match_the_tuple_oracle(d, n):
    """Rank 0 keeps every normalizer basis vector, full rank none."""
    empty = StabilizerSet(d, n)
    basis = normalizer_complement_basis(empty)
    assert basis == prop_checks.normalizer_complement_basis_reference(empty)
    assert len(basis) == 2 * n
    full = random_wide_stabilizer(random.Random(n), d, n, n)
    assert full.rank == n
    assert normalizer_complement_basis(full) == []
    assert prop_checks.normalizer_complement_basis_reference(full) == []


@pytest.mark.parametrize(
    "d, n, ranks",
    [(2, 7, range(7)), (3, 5, range(5)), (2, 40, range(4)), (3, 33, range(4))],
)
def test_scan_of_value_plane_rows_matches_the_tuple_oracle(d, n, ranks):
    """``min_weight_excluding_span`` fed the generators and the oracle's
    complement basis as rows, split by value plane, at each rank; the wide
    shapes put rows past the 64-bit column."""
    rng = random.Random(100 * d + n)
    for r in ranks:
        for _ in range(4):
            s = random_wide_stabilizer(rng, d, n, r)
            complement = prop_checks.normalizer_complement_basis_reference(s)
            scan = _kernels.min_weight_excluding_span(
                [g.one for g in s.gens],
                [g.two for g in s.gens],
                [c.one for c in complement],
                [c.two for c in complement],
                n,
                d,
            )
            assert scan == prop_checks.min_normalizer_weight_reference(s), (r, s.gens)


@st.composite
def small_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 9 if d == 2 else 6))
    r = draw(st.integers(0, n - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_wide_stabilizer(rng, d, n, r)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(s=small_cases())
def test_min_normalizer_weight_matches_the_tuple_oracle(s):
    assert min_normalizer_weight(s) == prop_checks.min_normalizer_weight_reference(s)


def test_min_normalizer_weight_matches_the_tuple_oracle_where_it_backtracks():
    """Distance >= 2 makes the support search reject every support of each
    smaller size, undoing each site's pivots on the way back, which the
    draws above, nearly all of distance 1, rarely do.  Dense random
    stabilizers of rank n - 1 and n - 2 (qubits n = 8..10, qutrits
    n = 5..7), twenty per shape, are kept at distance >= 2 by the oracle;
    the distance-3 anchors run under seeded register permutations."""
    rng = random.Random(2205)
    distances = Counter()
    for d, sizes in ((2, range(8, 11)), (3, range(5, 8))):
        for n in sizes:
            for r in (n - 1, n - 2):
                for _ in range(20):
                    s = prop_checks.random_stabilizer(rng, d, n, r)
                    expected = prop_checks.min_normalizer_weight_reference(s)
                    if expected >= 2:
                        assert min_normalizer_weight(s) == expected, (d, n, r, s.gens)
                        distances[expected] += 1
    assert distances == {2: 169, 3: 31}
    for d, gens in ANCHORS[1:]:
        base = _anchor(d, gens)
        for _ in range(4):
            perm = list(range(base.n))
            rng.shuffle(perm)
            s = StabilizerSet(d, base.n, [permute(g, perm) for g in base.gens])
            assert min_normalizer_weight(s) == 3, (perm, gens)
            assert prop_checks.min_normalizer_weight_reference(s) == 3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=wide_cases(), stray=st.booleans())
def test_one_coset_class_means_the_correction_fits_every_error(case, stray):
    """Why ``engine.verify`` need not check each error at a Finish leaf: when
    ``coset_classes`` reports one class, the representative differs from
    every member by a stabilizer element, by the tuple oracle.  The errors
    are one operator shifted by group elements, plus, if ``stray``, one
    more operator that may fall in another class."""
    rng, s = case
    base = _operators(rng, s, 1)[0]
    errors = [multiply(base, _element(rng, s)) for _ in range(rng.randint(1, 8))]
    if stray:
        errors.insert(rng.randrange(len(errors) + 1), _operators(rng, s, 1)[0])
    partition = coset_classes(ErrorSet(s.d, s.n, tuple(errors)), s)
    assert partition.is_single_class or stray
    if partition.is_single_class:
        undo = inverse(partition.representatives[0])
        for e in errors:
            assert prop_checks.is_member_reference(s, multiply(undo, e))
