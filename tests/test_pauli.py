"""Tests for the symplectic Pauli algebra."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st
from prop_checks import inverse

from twep.pauli import (
    DimensionMismatchError,
    PauliSyntaxError,
    PauliVec,
    canonical_key,
    multiply,
    parse,
    render,
    symplectic_product,
    weight,
)


def pauli_vecs(d: int, max_n: int = 6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        x = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
        z = tuple(draw(st.integers(0, d - 1)) for _ in range(n))
        return PauliVec(d, n, x, z)

    return build()


def pauli_pairs(d: int, max_n: int = 6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))

        def one():
            return PauliVec(
                d,
                n,
                tuple(draw(st.integers(0, d - 1)) for _ in range(n)),
                tuple(draw(st.integers(0, d - 1)) for _ in range(n)),
            )

        return one(), one(), one()

    return build()


class TestSymplecticProduct:
    def test_disjoint_weight_four_strings_commute(self):
        assert symplectic_product(parse("XXXX", 2), parse("ZZZZ", 2)) == 0

    def test_x_z_anticommute_on_one_register(self):
        assert symplectic_product(parse("X", 2), parse("Z", 2)) == 1

    def test_qutrit_triple_overlap_commutes(self):
        assert symplectic_product(parse("X,X,X", 3), parse("Z,Z,Z", 3)) == 0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            symplectic_product(parse("X", 2), parse("XX", 2))
        with pytest.raises(DimensionMismatchError):
            symplectic_product(parse("X", 2), parse("X", 3))

    def test_single_register_commutation_table(self):
        # Exhaustive n=1, d=2: everything commutes with itself and with I,
        # and X, Y, Z pairwise anticommute.
        letters = ["I", "X", "Y", "Z"]
        for a in letters:
            for b in letters:
                value = symplectic_product(parse(a, 2), parse(b, 2))
                expected = 1 if (a != b and a != "I" and b != "I") else 0
                assert value == expected, (a, b)


class TestMultiply:
    def test_x_times_z_is_phaseless_y(self):
        assert multiply(parse("X", 2), parse("Z", 2)) == parse("Y", 2)

    def test_identity_is_neutral(self):
        p = parse("XIZY", 2)
        assert multiply(p, PauliVec.identity(2, 4)) == p

    def test_qutrit_x_squared(self):
        assert multiply(parse("X", 3), parse("X", 3)) == parse("X2", 3)

    def test_self_inverse_for_qubits(self):
        p = parse("XYZI", 2)
        assert multiply(p, p) == PauliVec.identity(2, 4)

    def test_inverse_cancels(self):
        p = parse("XZ2,X,I", 3)
        assert multiply(inverse(p), p) == PauliVec.identity(3, 3)


class TestWeight:
    def test_three_active_sites(self):
        assert weight(parse("IXYZ", 2)) == 3

    def test_identity_weight_zero(self):
        assert weight(PauliVec.identity(2, 8)) == 0

    def test_five_register_generator(self):
        assert weight(parse("XZZXI", 2)) == 4


class TestText:
    def test_parse_qubit_string(self):
        p = parse("XIZY", 2)
        assert p.x == (1, 0, 0, 1)
        assert p.z == (0, 0, 1, 1)

    def test_render_identity(self):
        assert render(PauliVec.identity(2, 3)) == "III"

    def test_parse_qutrit_tokens(self):
        p = parse("X,Z2,I", 3)
        assert p.x == (1, 0, 0)
        assert p.z == (0, 2, 0)

    def test_bad_letter_reports_position(self):
        with pytest.raises(PauliSyntaxError) as err:
            parse("XQZ", 2)
        assert err.value.position == 1

    def test_qutrit_rejects_qubit_only_letter(self):
        with pytest.raises(PauliSyntaxError):
            parse("X,Y,Z", 3)

    def test_qubit_rejects_token_syntax(self):
        with pytest.raises(PauliSyntaxError):
            parse("X,Z", 2)

    @given(pauli_vecs(2))
    def test_roundtrip_d2(self, p):
        assert parse(render(p), 2) == p

    @given(pauli_vecs(3))
    def test_roundtrip_d3(self, p):
        assert parse(render(p), 3) == p


class TestAlgebraProperties:
    @given(pauli_pairs(2))
    def test_antisymmetry_d2(self, triple):
        p, q, _ = triple
        assert symplectic_product(p, q) == (-symplectic_product(q, p)) % 2

    @given(pauli_pairs(3))
    def test_antisymmetry_d3(self, triple):
        p, q, _ = triple
        assert symplectic_product(p, q) == (-symplectic_product(q, p)) % 3

    @given(pauli_pairs(2))
    def test_bilinearity_d2(self, triple):
        p, q, r = triple
        lhs = symplectic_product(multiply(p, q), r)
        rhs = (symplectic_product(p, r) + symplectic_product(q, r)) % 2
        assert lhs == rhs

    @given(pauli_pairs(3))
    def test_bilinearity_d3(self, triple):
        p, q, r = triple
        lhs = symplectic_product(multiply(p, q), r)
        rhs = (symplectic_product(p, r) + symplectic_product(q, r)) % 3
        assert lhs == rhs

    @given(pauli_pairs(2))
    def test_weight_subadditive(self, triple):
        p, q, _ = triple
        assert weight(multiply(p, q)) <= weight(p) + weight(q)


def test_canonical_key_orders_pure_x_before_pure_z():
    # Site digits are I < X < Z < Y for d=2, site 0 least significant.
    assert canonical_key(parse("X", 2)) < canonical_key(parse("Z", 2))
    assert canonical_key(parse("Z", 2)) < canonical_key(parse("Y", 2))
    assert canonical_key(parse("XI", 2)) < canonical_key(parse("IX", 2))


def test_invalid_construction():
    with pytest.raises(ValueError):
        PauliVec(5, 1, (0,), (0,))
    with pytest.raises(ValueError):
        PauliVec(2, 2, (0,), (0, 0))
    with pytest.raises(ValueError):
        PauliVec(2, 1, (2,), (0,))
