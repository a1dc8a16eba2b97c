"""Tests for stabilizer row spaces, syndromes, and enumeration scans."""

from __future__ import annotations

import random
import time
from itertools import product

import pytest
from prop_checks import code_corrects, random_stabilizer

from twep.pauli import (
    DimensionMismatchError,
    PauliVec,
    multiply,
    parse,
    render,
    symplectic_product,
    weight,
)
from twep.stabilizer import (
    ENUMERATION_MAX_N,
    SizeLimitError,
    StabilizerSet,
    complete_discard,
    min_normalizer_weight,
    rank,
)


def span_set(gens, d, n):
    """Oracle: every product of generator powers, enumerated explicitly."""
    out = set()
    for coeffs in product(range(d), repeat=len(gens)):
        acc = PauliVec.identity(d, n)
        for c, g in zip(coeffs, gens):
            for _ in range(c):
                acc = multiply(acc, g)
        out.add(acc)
    return out


def all_paulis(d, n):
    for xs in product(range(d), repeat=n):
        for zs in product(range(d), repeat=n):
            yield PauliVec(d, n, xs, zs)


class TestRank:
    def test_five_qubit_generators(self):
        gens = [parse(g, 2) for g in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
        assert rank(gens) == 4

    def test_dependent_generator_detected(self):
        gens = [parse(g, 2) for g in ("XXXX", "ZZZZ", "XXII", "ZZII", "IIXX")]
        # Oracle: the span has 2^rank distinct elements.
        spanned = span_set(gens, 2, 4)
        assert len(spanned) == 2**4
        assert rank(gens) == 4

    def test_empty(self):
        assert rank([]) == 0

    def test_single_generator(self):
        assert rank([parse("XZ", 2)]) == 1

    @pytest.mark.parametrize("other", [parse("X,I", 3), parse("XII", 2)], ids=["d", "n"])
    def test_generators_on_other_dimensions_are_refused(self, other):
        """A mismatch on d alone, or on n alone, is refused."""
        with pytest.raises(DimensionMismatchError, match="disagree on d or n"):
            rank([parse("XI", 2), other])


class TestDimensionCheck:
    @pytest.mark.parametrize("other", [parse("X,I", 3), parse("XII", 2)], ids=["d", "n"])
    def test_operator_on_other_dimensions_is_refused(self, other):
        """A mismatch on d alone, or on n alone, is refused."""
        s = StabilizerSet(2, 2, [parse("ZZ", 2)])
        with pytest.raises(DimensionMismatchError, match="vs stabilizer d=2,n=2"):
            s.residue(other)


class TestMembership:
    def test_product_of_generators_is_member(self, four_qubit_code):
        assert four_qubit_code.is_member(parse("YYYY", 2))

    def test_partial_parity_is_not_member(self, four_qubit_code):
        # Oracle: enumerate all four span elements.
        spanned = span_set(four_qubit_code.gens, 2, 4)
        assert parse("XXII", 2) not in spanned
        assert not four_qubit_code.is_member(parse("XXII", 2))

    def test_identity_always_member(self, four_qubit_code):
        assert four_qubit_code.is_member(PauliVec.identity(2, 4))

    def test_member_implies_normalizer(self, five_qubit_code):
        for p in span_set(five_qubit_code.gens, 2, 5):
            assert five_qubit_code.in_normalizer(p)


class TestNormalizer:
    def test_local_parity_commutes(self, four_qubit_code):
        s = StabilizerSet(2, 4, four_qubit_code.gens)
        assert s.in_normalizer(parse("XXII", 2))

    def test_single_x_anticommutes(self, four_qubit_code):
        assert not four_qubit_code.in_normalizer(parse("XIII", 2))

    def test_empty_stabilizer_accepts_all(self):
        s = StabilizerSet(2, 3)
        assert s.in_normalizer(parse("XYZ", 2))


class TestSyndrome:
    def test_five_qubit_single_x(self, five_qubit_code):
        e = parse("XIIII", 2)
        got = five_qubit_code.syndrome(e)
        # Oracle: direct commutation check per generator.
        expected = tuple(symplectic_product(g, e) for g in five_qubit_code.gens)
        assert tuple(got) == expected == (0, 0, 0, 1)

    def test_identity_syndrome_trivial(self, five_qubit_code):
        assert five_qubit_code.syndrome(PauliVec.identity(2, 5)).is_trivial

    def test_all_x_detects_y(self):
        s = StabilizerSet(2, 7, [parse("XXXXXXX", 2)])
        assert tuple(s.syndrome(parse("IIYIIII", 2))) == (1,)

    def test_additivity(self, five_qubit_code):
        e = parse("XIZII", 2)
        f = parse("IYIIX", 2)
        combined = five_qubit_code.syndrome(multiply(e, f))
        se = five_qubit_code.syndrome(e)
        sf = five_qubit_code.syndrome(f)
        assert tuple(combined) == tuple((a + b) % 2 for a, b in zip(se, sf))


class TestLogicalCount:
    def test_six_register_rank_four(self):
        gens = [parse(g, 2) for g in ("XXXXII", "ZZZZII", "XXIIII", "ZZIIII")]
        assert StabilizerSet(2, 6, gens).logical_count() == 2

    def test_nine_register_rank_eight(self):
        gens = [
            parse(g + "IIII", 2) for g in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
        ] + [parse("IIIII" + g, 2) for g in ("XXXX", "ZZZZ", "XXII", "ZZII")]
        assert StabilizerSet(2, 9, gens).logical_count() == 1

    def test_empty_counts_all(self):
        assert StabilizerSet(2, 7).logical_count() == 7


class TestCompleteDiscard:
    def test_four_register_completion_matches_known_pair(self):
        s = StabilizerSet(2, 6, [parse("XXXXII", 2), parse("ZZZZII", 2)])
        added = complete_discard(s, {0, 1, 2, 3})
        assert [render(p) for p in added] == ["XXIIII", "ZZIIII"]

    def test_untouched_registers_get_single_x(self):
        s = StabilizerSet(2, 6, [parse("XXXXII", 2), parse("ZZZZII", 2)])
        added = complete_discard(s, {4, 5})
        assert [render(p) for p in added] == ["IIIIXI", "IIIIIX"]

    def test_saturated_region_adds_nothing(self):
        gens = [parse(g, 2) for g in ("XXXXII", "ZZZZII", "XXIIII", "ZZIIII")]
        s = StabilizerSet(2, 6, gens)
        assert complete_discard(s, {0, 1, 2, 3}) == []

    @pytest.mark.parametrize("discard", [{0, 1, 2, 3}, {4, 5}])
    def test_completion_reaches_fixpoint(self, discard):
        s = StabilizerSet(2, 6, [parse("XXXXII", 2), parse("ZZZZII", 2)])
        added = complete_discard(s, discard)
        grown = s
        for p in added:
            assert grown.in_normalizer(p)
            grown = grown.extend(p)
        assert grown.rank == s.rank + len(added)
        # Oracle: exhaustive search for any further addable operator.
        for xs in product(range(2), repeat=len(discard)):
            for zs in product(range(2), repeat=len(discard)):
                sites = dict(zip(sorted(discard), zip(xs, zs)))
                cand = PauliVec.from_sites(2, 6, sites)
                if cand.is_identity:
                    continue
                assert not (
                    grown.in_normalizer(cand) and not grown.is_member(cand)
                )

    def test_nine_qutrit_registers_complete_to_single_x_at_once(self):
        start = time.perf_counter()
        added = complete_discard(StabilizerSet(3, 9), range(9))
        elapsed = time.perf_counter() - start
        assert added == [PauliVec.from_sites(3, 9, {i: (1, 0)}) for i in range(9)]
        assert elapsed < 1.0

    @pytest.mark.parametrize("rank", [1, 4, 6])
    def test_nine_qutrit_completion_reaches_fixpoint(self, rank):
        rng = random.Random(f"nine-qutrits-{rank}")
        s = random_stabilizer(rng, 3, 9, rank)
        for discard in (range(9), sorted(rng.sample(range(9), 6))):
            grown = s
            for p in complete_discard(s, discard):
                grown = grown.extend(p)
            assert complete_discard(grown, discard) == []
            if len(discard) == 9:
                # Discarding every register leaves a maximal stabilizer.
                assert grown.rank == 9

    def test_rejects_oversized_region(self):
        """A region of more registers than the stabilizer has."""
        with pytest.raises(ValueError, match="out of range"):
            complete_discard(StabilizerSet(2, 9), set(range(10)))

    @pytest.mark.parametrize("d", [2, 3])
    def test_ten_register_region_completes(self, d):
        """A region has no register bound: discarding all ten registers
        completes the stabilizer to full rank, and ``extend`` accepts each
        pick, so each commutes and is independent."""
        every_x = PauliVec.from_sites(d, 10, dict.fromkeys(range(10), (1, 0)))
        s = grown = StabilizerSet(d, 10, [every_x])
        for p in complete_discard(s, range(10)):
            grown = grown.extend(p)
        assert grown.rank == 10

    def test_rejects_empty_region(self):
        with pytest.raises(ValueError):
            complete_discard(StabilizerSet(2, 4), set())


class TestCodeCorrects:
    def test_five_qubit_corrects_single_errors(self, five_qubit_code):
        singles = [PauliVec.identity(2, 5)] + [
            PauliVec.from_sites(2, 5, {i: (x, z)})
            for i in range(5)
            for x, z in ((1, 0), (1, 1), (0, 1))
        ]
        assert code_corrects(five_qubit_code, singles)

    def test_five_qubit_cannot_correct_two(self, five_qubit_code):
        doubles = [PauliVec.identity(2, 5)] + [
            PauliVec.from_sites(2, 5, {i: (x1, z1), j: (x2, z2)})
            for i in range(5)
            for j in range(i + 1, 5)
            for x1, z1 in ((1, 0), (1, 1), (0, 1))
            for x2, z2 in ((1, 0), (1, 1), (0, 1))
        ]
        assert not code_corrects(five_qubit_code, doubles)

    def test_four_qubit_detects_any_single(self, four_qubit_code):
        for i in range(4):
            for x, z in ((1, 0), (1, 1), (0, 1)):
                pair = [PauliVec.identity(2, 4), PauliVec.from_sites(2, 4, {i: (x, z)})]
                assert code_corrects(four_qubit_code, pair)

    def test_four_qubit_misses_some_pair_of_singles(self, four_qubit_code):
        singles = [PauliVec.identity(2, 4)] + [
            PauliVec.from_sites(2, 4, {i: (1, 0)}) for i in range(4)
        ]
        assert not code_corrects(four_qubit_code, singles)

    def test_qutrit_code_detects_any_single(self, qutrit_code):
        for i in range(3):
            for x in range(3):
                for z in range(3):
                    if x == 0 and z == 0:
                        continue
                    pair = [
                        PauliVec.identity(3, 3),
                        PauliVec.from_sites(3, 3, {i: (x, z)}),
                    ]
                    assert code_corrects(qutrit_code, pair)


class TestMinNormalizerWeight:
    @staticmethod
    def brute_force(s):
        """Weight by weight: the lightest operator commuting with every
        generator and outside the explicitly enumerated group."""
        spanned = span_set(s.gens, s.d, s.n)
        for p in sorted(all_paulis(s.d, s.n), key=weight):
            if p in spanned:
                continue
            if all(symplectic_product(p, g) == 0 for g in s.gens):
                return weight(p)
        return None

    def test_five_qubit_distance(self, five_qubit_code):
        assert min_normalizer_weight(five_qubit_code) == 3
        assert self.brute_force(five_qubit_code) == 3

    def test_four_qubit_distance(self, four_qubit_code):
        assert min_normalizer_weight(four_qubit_code) == 2
        assert self.brute_force(four_qubit_code) == 2

    def test_qutrit_distance(self, qutrit_code):
        assert min_normalizer_weight(qutrit_code) == 2
        assert self.brute_force(qutrit_code) == 2

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            min_normalizer_weight(StabilizerSet(2, 13))

    def test_admits_the_largest_n(self):
        """n = ENUMERATION_MAX_N is scanned: Z on each of 11 of 12 registers
        leaves Z on the last one, of weight 1, outside the group."""
        n = ENUMERATION_MAX_N
        gens = [parse("I" * i + "Z" + "I" * (n - 1 - i), 2) for i in range(n - 1)]
        assert min_normalizer_weight(StabilizerSet(2, n, gens)) == 1

    @pytest.mark.parametrize("d, max_n", [(2, 6), (3, 4)])
    def test_random_stabilizers_at_every_rank(self, d, max_n):
        rng = random.Random(29 + d)
        for n in range(1, max_n + 1):
            for rank in range(n + 1):
                s = random_stabilizer(rng, d, n, rank)
                if rank == n:
                    with pytest.raises(ValueError):
                        min_normalizer_weight(s)
                else:
                    assert min_normalizer_weight(s) == self.brute_force(s)


class TestSeparationCounting:
    @pytest.mark.parametrize(
        "n, gens",
        [
            (2, ["XX"]),
            (3, ["XXX", "ZZI"]),
            (4, ["XXXX", "ZZZZ"]),
        ],
    )
    def test_half_of_normalizer_separates(self, n, gens):
        s = StabilizerSet(2, n, [parse(g, 2) for g in gens])
        spanned = span_set(s.gens, 2, n)
        normalizer = [
            p
            for p in all_paulis(2, n)
            if all(symplectic_product(p, g) == 0 for g in s.gens)
        ]
        for diff in all_paulis(2, n):
            if diff in spanned:
                continue
            separating = sum(1 for p in normalizer if symplectic_product(p, diff))
            assert separating == len(normalizer) // 2


class TestImmutability:
    def test_extend_leaves_original(self, four_qubit_code):
        grown = four_qubit_code.extend(parse("XXII", 2))
        assert len(four_qubit_code) == 2
        assert len(grown) == 3

    def test_setattr_blocked(self, four_qubit_code):
        with pytest.raises(AttributeError):
            four_qubit_code.n = 9

    def test_extend_rejects_anticommuting(self, four_qubit_code):
        with pytest.raises(ValueError):
            four_qubit_code.extend(parse("XIII", 2))

    def test_extend_rejects_dependent(self, four_qubit_code):
        with pytest.raises(ValueError):
            four_qubit_code.extend(parse("YYYY", 2))
