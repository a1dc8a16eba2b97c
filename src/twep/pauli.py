"""Phaseless Pauli operators on prime-dimensional registers, in symplectic form.

An operator on ``n`` registers of dimension ``d`` is a pair of exponent
vectors ``(x, z)`` in Z_d^n: site ``i`` carries ``X^x[i] Z^z[i]``.  Global
phases are dropped, so the group law is componentwise addition mod d and
commutation reduces to the symplectic product.

Supported dimensions are the primes 2 and 3.  Text form for d=2 is a string
over ``I X Y Z`` (``Y`` is the phaseless ``XZ``); for d=3 it is a
comma-separated list of site tokens ``I X X2 Z Z2 XZ XZ2 X2Z X2Z2``.

An operator is stored in one interleaved layout: column 2i holds x[i] and
column 2i + 1 holds z[i], and bit c of the plane ``one`` (``two``) is set
iff column c holds 1 (2); for d=2 ``two`` is 0.  The planes are at once the
operator's row in the symplectic matrix that ``_kernels.Echelon`` reduces
and, read in base d, its canonical key.  Equality, hashing, products,
weights, keys and text all read the planes; the tuples ``x`` and ``z`` are
unpacked from them on first read and then kept.

The commutation value of a and b in both dimensions is the dot product
over Z_d of b with the dual row of a, which holds -z[i] at column 2i and
x[i] at column 2i + 1, so that site i adds x_a·z_b - z_a·x_b.  A column's
product is 1 where the values are (1, 1) or (2, 2) and 2 where they are
(1, 2) or (2, 1), mod 3, so the dot product of (u1, u2) and (v1, v2) is

    pop(u1&v1 | u2&v2) + 2·pop(u1&v2 | u2&v1)   (mod d),

and for d=2 the parity of pop(u1&v1), as in Aaronson and Gottesman's
packed tableau.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cache
from operator import attrgetter

from ._kernels import _add3

SUPPORTED_DIMENSIONS = (2, 3)
# bytes.translate deletion sets: the exponents of dimension d.
_DIGITS = {d: bytes(range(d)) for d in SUPPORTED_DIMENSIONS}

# bytes.translate tables: column values to the ASCII bits of one plane,
# and ASCII bits back to bytes.
_PLANE_ONE = bytes.maketrans(b"\0\1\2", b"010")
_PLANE_TWO = bytes.maketrans(b"\0\1\2", b"001")
_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")

# Site letter <-> exponent pair, d=2.  Y acts on both components.
_QUBIT_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# bytes.translate tables, d=2: table j maps a byte of the plane ``one``,
# which holds four sites with the least in its low bits, to the letter of
# its site j.
_QUBIT_SITES = tuple(bytes(b"IXZY"[b >> 2 * j & 3] for b in range(256)) for j in range(4))

# Site token <-> exponent pair, d=3.
_QUTRIT_TOKENS = {
    "I": (0, 0),
    "X": (1, 0),
    "X2": (2, 0),
    "Z": (0, 1),
    "Z2": (0, 2),
    "XZ": (1, 1),
    "XZ2": (1, 2),
    "X2Z": (2, 1),
    "X2Z2": (2, 2),
}
# Site digit x + 3z -> token, d=3.
_QUTRIT_RENDER = sorted(_QUTRIT_TOKENS, key=lambda t: _QUTRIT_TOKENS[t][::-1])


class DimensionMismatchError(ValueError):
    """Operands disagree on register dimension d or register count n."""


class PauliSyntaxError(ValueError):
    """Invalid Pauli text; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class _Exponents:
    """The tuple ``x`` or ``z`` of a PauliVec.  The first read of either
    unpacks both from one pass over the planes into the instance dict, which
    answers every later read: this is a non-data descriptor."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, p, owner=None):
        if p is None:
            return self
        values = _column_values(p)
        found = p.__dict__
        found.update(x=tuple(values[::2]), z=tuple(values[1::2]))
        return found[self.name]


class PauliVec:
    """A phaseless Pauli operator as a symplectic vector over Z_d, stored as
    its bit-planes ``one`` and ``two``.  Immutable."""

    # ``_hash`` is computed on first use and kept: strategies, relabellings
    # and the discard memo hash the same operators many times.  ``x`` and
    # ``z`` live in the instance dict: the constructor stores them, and an
    # operator built from its planes unpacks both on the first read of
    # either (``_Exponents``).  No __getattr__: it would stop the
    # interpreter from specializing every attribute read of the class.
    __slots__ = ("d", "n", "one", "two", "_hash", "__dict__")

    def __init__(self, d: int, n: int, x: tuple[int, ...], z: tuple[int, ...]):
        if d not in SUPPORTED_DIMENSIONS:
            raise ValueError(f"unsupported register dimension {d}")
        if len(x) != n or len(z) != n:
            raise ValueError("exponent vectors must have length n")
        columns = bytearray(2 * n)
        try:
            columns[::2] = x
            columns[1::2] = z
        except (TypeError, ValueError):
            # Some exponent is no byte.  Refuse it as a test of the tuples
            # against the set of digits does: that passes 1.0, which equals
            # the digit 1 but is no int, so 1.0 keeps its TypeError.
            digits = frozenset(range(d))
            if not (digits.issuperset(x) and digits.issuperset(z)):
                raise ValueError("exponents must lie in [0, d)") from None
            raise
        if columns.translate(None, _DIGITS[d]):
            raise ValueError("exponents must lie in [0, d)")
        # One binary literal per plane, column 0 last; b"\0" stands in for
        # no registers.
        columns.reverse()
        columns = columns or b"\0"
        one = int(columns.translate(_PLANE_ONE), 2)
        two = int(columns.translate(_PLANE_TWO), 2) if d == 3 else 0
        _store(self, d, n, one, two)
        self.__dict__.update(x=x, z=z)

    x = _Exponents()
    z = _Exponents()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _planes(self) == _planes(other)

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash(_planes(self))
            _set(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        name = type(self).__qualname__
        return f"{name}(d={self.d!r}, n={self.n!r}, x={self.x!r}, z={self.z!r})"

    def __reduce__(self):
        return _from_planes, _planes(self)

    @classmethod
    def identity(cls, d: int, n: int) -> PauliVec:
        return cls(d, n, (0,) * n, (0,) * n)

    @classmethod
    def from_sites(cls, d: int, n: int, sites: dict[int, tuple[int, int]]) -> PauliVec:
        """Build an operator from a map of register index to (x, z) exponents."""
        x = [0] * n
        z = [0] * n
        for i, (xe, ze) in sites.items():
            x[i] = xe % d
            z[i] = ze % d
        return cls(d, n, tuple(x), tuple(z))

    @property
    def is_identity(self) -> bool:
        return not (self.one | self.two)

    def __str__(self) -> str:
        return render(self)


_new = object.__new__
_set = object.__setattr__
_planes = attrgetter("d", "n", "one", "two")


def _store(p: PauliVec, d: int, n: int, one: int, two: int) -> None:
    _set(p, "d", d)
    _set(p, "n", n)
    _set(p, "one", one)
    _set(p, "two", two)
    _set(p, "_hash", None)


def _from_planes(d: int, n: int, one: int, two: int) -> PauliVec:
    """The operator with the given planes, unchecked: every operator built
    inside the package comes from here.  The planes must be consistent: no
    bit at or above 2n, no bit set in both, and ``two`` 0 for d=2."""
    p = _new(PauliVec)
    _store(p, d, n, one, two)
    return p


def _check_compatible(p: PauliVec, q: PauliVec) -> None:
    if p.d != q.d or p.n != q.n:
        raise DimensionMismatchError(
            f"operands differ: d={p.d},n={p.n} vs d={q.d},n={q.n}"
        )


@cache
def _x_columns(n: int) -> int:
    """The mask of the x columns 0, 2, .., 2n - 2, computed once per n."""
    return (1 << 2 * n) // 3


def _dual(p: PauliVec) -> tuple[int, int]:
    """The planes of p's dual row: -z[i] at column 2i and x[i] at 2i + 1."""
    even, one, two = _x_columns(p.n), p.one, p.two
    if p.d == 2:
        return one >> 1 & even | (one & even) << 1, 0
    # Negation swaps the value planes of the z columns.
    return two >> 1 & even | (one & even) << 1, one >> 1 & even | (two & even) << 1


def _dot(d: int, u1: int, u2: int, v1: int, v2: int) -> int:
    """Dot product over Z_d of the rows (u1, u2) and (v1, v2)."""
    if d == 2:
        return (u1 & v1).bit_count() & 1
    return ((u1 & v1 | u2 & v2).bit_count() + 2 * (u1 & v2 | u2 & v1).bit_count()) % 3


def _spread(width: int, plane: int) -> int:
    """The plane with bit c moved to byte c."""
    return int.from_bytes(f"{plane:0{width}b}".encode().translate(_ASCII_BITS), "big")


def _column_values(p: PauliVec) -> bytes:
    """One byte per column, column 0 first: the value it holds."""
    width = 2 * p.n
    values = _spread(width, p.one)
    if p.d == 3:
        values += 2 * _spread(width, p.two)
    return values.to_bytes(width, "little")


def symplectic_product(p: PauliVec, q: PauliVec) -> int:
    """Commutation phase exponent of p and q, in Z_d.

    Zero iff the operators commute; for d=2 this is the anticommutation bit.
    """
    _check_compatible(p, q)
    return _dot(p.d, *_dual(p), q.one, q.two)


def multiply(p: PauliVec, q: PauliVec) -> PauliVec:
    """Phaseless product: componentwise exponent addition mod d."""
    _check_compatible(p, q)
    if p.d == 2:
        return _from_planes(2, p.n, p.one ^ q.one, 0)
    return _from_planes(3, p.n, *_add3(p.one, p.two, q.one, q.two))


def weight(p: PauliVec) -> int:
    """Number of registers on which p acts nontrivially."""
    support = p.one | p.two
    return ((support | support >> 1) & _x_columns(p.n)).bit_count()


def canonical_key(p: PauliVec) -> int:
    """Total order on same-shape operators: base-d^2 digits x+d*z, site 0 least
    significant.  Per-site digit order is I < X < .. < Z < .. so that pure-X
    operators sort before pure-Z ones on the same support.  That is the row
    read in base d, column c at digit c, which for d=2 is the plane ``one``."""
    if p.d == 2:
        return p.one
    return int(f"{p.one:b}", 3) + 2 * int(f"{p.two:b}", 3)


def parse(text: str, d: int) -> PauliVec:
    """Parse the canonical text form into a PauliVec."""
    if d == 2:
        x = []
        z = []
        for pos, ch in enumerate(text):
            if ch not in _QUBIT_LETTERS:
                raise PauliSyntaxError(f"invalid letter {ch!r} for d=2", pos)
            xe, ze = _QUBIT_LETTERS[ch]
            x.append(xe)
            z.append(ze)
        if not x:
            raise PauliSyntaxError("empty operator text", 0)
        return PauliVec(2, len(x), tuple(x), tuple(z))
    if d == 3:
        x = []
        z = []
        pos = 0
        for token in text.split(","):
            stripped = token.strip()
            if stripped not in _QUTRIT_TOKENS:
                raise PauliSyntaxError(f"invalid token {stripped!r} for d=3", pos)
            xe, ze = _QUTRIT_TOKENS[stripped]
            x.append(xe)
            z.append(ze)
            pos += len(token) + 1
        return PauliVec(3, len(x), tuple(x), tuple(z))
    raise ValueError(f"unsupported register dimension {d}")


def render(p: PauliVec) -> str:
    """Render to canonical text; inverse of parse on valid input.

    For d=2 each byte of the plane ``one`` holds four sites: one translation
    per site position writes every fourth letter, and the text is cut to n,
    which drops the padding sites of the last byte.  For d=3 each site's
    digit x + 3z is read off the column values and becomes its token."""
    n = p.n
    if p.d == 2:
        planes = p.one.to_bytes((n + 3) // 4, "little")
        first, second, third, fourth = _QUBIT_SITES
        text = bytearray(4 * len(planes))
        text[0::4] = planes.translate(first)
        text[1::4] = planes.translate(second)
        text[2::4] = planes.translate(third)
        text[3::4] = planes.translate(fourth)
        return text[:n].decode()
    columns = _column_values(p)
    # One byte per register, register 0 first: the site digit x + 3z.
    digits = (
        int.from_bytes(columns[::2], "little")
        + 3 * int.from_bytes(columns[1::2], "little")
    ).to_bytes(n, "little")
    return ",".join(map(_QUTRIT_RENDER.__getitem__, digits))
