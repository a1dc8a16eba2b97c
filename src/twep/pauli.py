"""Phaseless Pauli operators on prime-dimensional registers, in symplectic form.

An operator on ``n`` registers of dimension ``d`` is a pair of exponent
vectors ``(x, z)`` in Z_d^n: site ``i`` carries ``X^x[i] Z^z[i]``.  Global
phases are dropped, so the group law is componentwise addition mod d and
commutation reduces to the symplectic product.

Supported dimensions are the primes 2 and 3.  Text form for d=2 is a string
over ``I X Y Z`` (``Y`` is the phaseless ``XZ``); for d=3 it is a
comma-separated list of site tokens ``I X X2 Z Z2 XZ XZ2 X2Z X2Z2``.

An operator is stored as four bit-planes, one integer each, register i at
bit i: bit i of ``x1`` (``x2``) is set iff ``x[i]`` is 1 (2), and likewise
``z1`` and ``z2``; for d=2 the value-2 planes are 0.  Equality, hashing,
products, weights, keys and text all read the planes; the tuples ``x`` and
``z`` are unpacked from them on first read and then kept.  The commutation
value of a and b in both dimensions is

    pop(a.x1&b.z1 | a.x2&b.z2) + 2·pop(a.x1&b.z2 | a.x2&b.z1)
    - (the same with x and z swapped)   (mod d)

since site i adds x_a·z_b - z_a·x_b and x_a·z_b is 1 exactly where the
exponents are (1, 1) or (2, 2) and 2 exactly where they are (1, 2) or
(2, 1), mod 3.  For d=2 it is the parity of pop((a.x1&b.z1) ^ (a.z1&b.x1)),
as in Aaronson and Gottesman's packed tableau.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from functools import cached_property
from operator import attrgetter

from ._kernels import _add3

SUPPORTED_DIMENSIONS = (2, 3)
_DIGITS = {d: frozenset(range(d)) for d in SUPPORTED_DIMENSIONS}

# bytes.translate tables: exponent bytes to the ASCII bits of one plane,
# and ASCII bits back to bytes.
_PLANE_ONE = bytes.maketrans(b"\0\1\2", b"010")
_PLANE_TWO = bytes.maketrans(b"\0\1\2", b"001")
_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")

# Site letter <-> exponent pair, d=2.  Y acts on both components.
_QUBIT_LETTERS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# Site digit x + 2z -> letter, d=2.
_QUBIT_RENDER = bytes.maketrans(b"\0\1\2\3", b"IXZY")

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


class PauliVec:
    """A phaseless Pauli operator as a symplectic vector over Z_d, stored as
    its bit-planes ``x1``, ``x2``, ``z1`` and ``z2``.  Immutable."""

    # ``_hash`` is computed on first use and kept: strategies, relabellings
    # and the discard memo hash the same operators many times.  ``x`` and
    # ``z`` are cached properties, so they live in the instance dict once
    # read.  No __getattr__: it would stop the interpreter from
    # specializing every attribute read of the class.
    __slots__ = ("d", "n", "x1", "x2", "z1", "z2", "_hash", "__dict__")

    def __init__(self, d: int, n: int, x: tuple[int, ...], z: tuple[int, ...]):
        if d not in SUPPORTED_DIMENSIONS:
            raise ValueError(f"unsupported register dimension {d}")
        if len(x) != n or len(z) != n:
            raise ValueError("exponent vectors must have length n")
        digits = _DIGITS[d]
        if not (digits.issuperset(x) and digits.issuperset(z)):
            raise ValueError("exponents must lie in [0, d)")
        # One binary literal per plane value holds x in its low n bits and z
        # above them, register 0 last; b"\0" stands in for no registers.
        sites = bytes(x + z)[::-1] or b"\0"
        low = (1 << n) - 1
        ones = int(sites.translate(_PLANE_ONE), 2)
        twos = int(sites.translate(_PLANE_TWO), 2) if d == 3 else 0
        _store(self, d, n, ones & low, twos & low, ones >> n, twos >> n)
        self.__dict__.update(x=x, z=z)

    @cached_property
    def x(self) -> tuple[int, ...]:
        return _unpack(self.n, self.x1, self.x2)

    @cached_property
    def z(self) -> tuple[int, ...]:
        return _unpack(self.n, self.z1, self.z2)

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
        return not (self.x1 | self.x2 | self.z1 | self.z2)

    def __str__(self) -> str:
        return render(self)


_new = object.__new__
_set = object.__setattr__
_planes = attrgetter("d", "n", "x1", "x2", "z1", "z2")


def _store(p: PauliVec, d: int, n: int, x1: int, x2: int, z1: int, z2: int) -> None:
    _set(p, "d", d)
    _set(p, "n", n)
    _set(p, "x1", x1)
    _set(p, "x2", x2)
    _set(p, "z1", z1)
    _set(p, "z2", z2)
    _set(p, "_hash", None)


def _from_planes(d: int, n: int, x1: int, x2: int, z1: int, z2: int) -> PauliVec:
    """The operator with the given planes, unchecked: every operator built
    inside the package comes from here.  The planes must be consistent:
    no bit at or above n, no bit set in both planes of one component, and
    value-2 planes of 0 for d=2."""
    p = _new(PauliVec)
    _store(p, d, n, x1, x2, z1, z2)
    return p


def _check_compatible(p: PauliVec, q: PauliVec) -> None:
    if p.d != q.d or p.n != q.n:
        raise DimensionMismatchError(
            f"operands differ: d={p.d},n={p.n} vs d={q.d},n={q.n}"
        )


def _product(a: PauliVec, b: PauliVec, d: int) -> int:
    """Commutation value of two same-shape PauliVecs over Z_d, from their
    bit-planes (formula in the module docstring)."""
    if d == 2:
        return ((a.x1 & b.z1) ^ (a.z1 & b.x1)).bit_count() & 1
    xz = (a.x1 & b.z1 | a.x2 & b.z2).bit_count() + 2 * (
        a.x1 & b.z2 | a.x2 & b.z1
    ).bit_count()
    zx = (a.z1 & b.x1 | a.z2 & b.x2).bit_count() + 2 * (
        a.z1 & b.x2 | a.z2 & b.x1
    ).bit_count()
    return (xz - zx) % d


def _spread(n: int, plane: int) -> int:
    """The plane with bit i moved to byte i."""
    return int.from_bytes(f"{plane:0{n}b}".encode().translate(_ASCII_BITS), "big")


def _unpack(n: int, one: int, two: int) -> tuple[int, ...]:
    """Exponent vector of the value-1 and value-2 planes of one component."""
    return tuple((_spread(n, one) + 2 * _spread(n, two)).to_bytes(n, "little"))


def _site_digits(p: PauliVec) -> bytes:
    """One byte per register, register 0 first: the site digit x + d*z."""
    d, n = p.d, p.n
    digits = _spread(n, p.x1) + d * _spread(n, p.z1)
    if d == 3:
        digits += 2 * _spread(n, p.x2) + 6 * _spread(n, p.z2)
    return digits.to_bytes(n, "little")


def symplectic_product(p: PauliVec, q: PauliVec) -> int:
    """Commutation phase exponent of p and q, in Z_d.

    Zero iff the operators commute; for d=2 this is the anticommutation bit.
    """
    _check_compatible(p, q)
    return _product(p, q, p.d)


def multiply(p: PauliVec, q: PauliVec) -> PauliVec:
    """Phaseless product: componentwise exponent addition mod d."""
    _check_compatible(p, q)
    if p.d == 2:
        return _from_planes(2, p.n, p.x1 ^ q.x1, 0, p.z1 ^ q.z1, 0)
    x1, x2 = _add3(p.x1, p.x2, q.x1, q.x2)
    z1, z2 = _add3(p.z1, p.z2, q.z1, q.z2)
    return _from_planes(3, p.n, x1, x2, z1, z2)


def weight(p: PauliVec) -> int:
    """Number of registers on which p acts nontrivially."""
    return (p.x1 | p.x2 | p.z1 | p.z2).bit_count()


def canonical_key(p: PauliVec) -> int:
    """Total order on same-shape operators: base-d^2 digits x+d*z, site 0 least
    significant.  Per-site digit order is I < X < .. < Z < .. so that pure-X
    operators sort before pure-Z ones on the same support.  A plane's binary
    digits read in base d^2 put its bit i at digit i."""
    if p.d == 2:
        return int(f"{p.x1:b}", 4) + 2 * int(f"{p.z1:b}", 4)
    return (
        int(f"{p.x1:b}", 9)
        + 2 * int(f"{p.x2:b}", 9)
        + 3 * int(f"{p.z1:b}", 9)
        + 6 * int(f"{p.z2:b}", 9)
    )


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
    """Render to canonical text; inverse of parse on valid input."""
    digits = _site_digits(p)
    if p.d == 2:
        return digits.translate(_QUBIT_RENDER).decode()
    return ",".join(map(_QUTRIT_RENDER.__getitem__, digits))
