from __future__ import annotations

import sys

import pytest

from twep.pauli import parse
from twep.stabilizer import StabilizerSet

FIVE_QUBIT = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
FOUR_QUBIT = ("XXXX", "ZZZZ")


@pytest.fixture
def five_qubit_code() -> StabilizerSet:
    return StabilizerSet(2, 5, [parse(g, 2) for g in FIVE_QUBIT])


@pytest.fixture
def four_qubit_code() -> StabilizerSet:
    return StabilizerSet(2, 4, [parse(g, 2) for g in FOUR_QUBIT])


@pytest.fixture
def qutrit_code() -> StabilizerSet:
    return StabilizerSet(3, 3, [parse("X,X,X", 3), parse("Z,Z,Z", 3)])


@pytest.fixture
def default_int_digits():
    """Python's default limit of 4,300 digits on converting between int and
    text, whatever the environment sets."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)
