"""Phaseless Pauli operators on prime-dimensional registers, in symplectic form.

An operator on ``n`` registers of dimension ``d`` is a pair of exponent
vectors ``(x, z)`` in Z_d^n: site ``i`` carries ``X^x[i] Z^z[i]``.  Global
phases are dropped, so the group law is componentwise addition mod d and
commutation reduces to the symplectic product.

Supported dimensions are the primes 2 and 3.  Text form for d=2 is a string
over ``I X Y Z`` (``Y`` is the phaseless ``XZ``); for d=3 it is a
comma-separated list of site tokens ``I X X2 Z Z2 XZ XZ2 X2Z X2Z2``.

Every operator is also packed, once, at construction, into four bit-planes,
one integer each, register i at bit i: bit i of ``x1`` (``x2``) is set iff
``x[i]`` is 1 (2), and likewise ``z1`` and ``z2``; for d=2 the value-2
planes are 0.  The commutation value of a and b in both dimensions is then

    pop(a.x1&b.z1 | a.x2&b.z2) + 2·pop(a.x1&b.z2 | a.x2&b.z1)
    - (the same with x and z swapped)   (mod d)

since site i adds x_a·z_b - z_a·x_b and x_a·z_b is 1 exactly where the
exponents are (1, 1) or (2, 2) and 2 exactly where they are (1, 2) or
(2, 1), mod 3.  For d=2 it is the parity of pop((a.x1&b.z1) ^ (a.z1&b.x1)),
as in Aaronson and Gottesman's packed tableau.
"""

from __future__ import annotations

from dataclasses import dataclass

SUPPORTED_DIMENSIONS = (2, 3)
_DIGITS = {d: frozenset(range(d)) for d in SUPPORTED_DIMENSIONS}

# bytes.translate tables: exponent bytes to the ASCII bits of one plane,
# ASCII bits back to bytes, and site digits to ASCII base-d^2 digits.
_PLANE_ONE = bytes.maketrans(b"\0\1\2", b"010")
_PLANE_TWO = bytes.maketrans(b"\0\1\2", b"001")
_ASCII_BITS = bytes.maketrans(b"01", b"\0\1")
_ASCII_DIGITS = bytes.maketrans(bytes(range(9)), b"012345678")

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
_QUTRIT_RENDER = {v: k for k, v in _QUTRIT_TOKENS.items()}


class DimensionMismatchError(ValueError):
    """Operands disagree on register dimension d or register count n."""


class PauliSyntaxError(ValueError):
    """Invalid Pauli text; ``position`` is the 0-based offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class PauliVec:
    """A phaseless Pauli operator as a symplectic vector over Z_d."""

    d: int
    n: int
    x: tuple[int, ...]
    z: tuple[int, ...]

    # Written out in place of the generated frozen __init__ and a
    # __post_init__: one dict update stores the fields and the planes, where
    # the generated code pays an object.__setattr__ per field.  The planes
    # are not fields, so eq, hash and repr see d, n, x and z only.
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
        self.__dict__.update(
            d=d, n=n, x=x, z=z, x1=ones & low, x2=twos & low, z1=ones >> n, z2=twos >> n
        )

    # The hash the dataclass would generate, computed on first use and kept
    # in the instance dict like the planes: strategies, relabellings and the
    # discard memo hash the same operators many times.  A dict lookup, not a
    # caught AttributeError: raising costs more than hashing a narrow
    # operator, and many of greedy's are hashed only a few times.
    def __hash__(self) -> int:
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash((self.d, self.n, self.x, self.z))
        return value

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
        return not any(self.x) and not any(self.z)

    def __str__(self) -> str:
        return render(self)


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


def _unpack(n: int, one: int, two: int) -> tuple[int, ...]:
    """Exponent vector of the value-1 and value-2 planes of one component."""

    def spread(plane: int) -> int:  # bit i of the plane -> byte i
        return int.from_bytes(f"{plane:0{n}b}".encode().translate(_ASCII_BITS), "big")

    return tuple((spread(one) + 2 * spread(two)).to_bytes(n, "little"))


def _site_digits(p: PauliVec) -> bytes:
    """One byte per register, register 0 first: the site digit x + d*z."""
    x = int.from_bytes(bytes(p.x), "big")
    z = int.from_bytes(bytes(p.z), "big")
    return (x + p.d * z).to_bytes(p.n, "big")


def symplectic_product(p: PauliVec, q: PauliVec) -> int:
    """Commutation phase exponent of p and q, in Z_d.

    Zero iff the operators commute; for d=2 this is the anticommutation bit.
    """
    _check_compatible(p, q)
    return _product(p, q, p.d)


def multiply(p: PauliVec, q: PauliVec) -> PauliVec:
    """Phaseless product: componentwise exponent addition mod d."""
    _check_compatible(p, q)
    d = p.d
    x = tuple((a + b) % d for a, b in zip(p.x, q.x))
    z = tuple((a + b) % d for a, b in zip(p.z, q.z))
    return PauliVec(d, p.n, x, z)


def weight(p: PauliVec) -> int:
    """Number of registers on which p acts nontrivially."""
    return (p.x1 | p.x2 | p.z1 | p.z2).bit_count()


def canonical_key(p: PauliVec) -> int:
    """Total order on same-shape operators: base-d^2 digits x+d*z, site 0 least
    significant.  Per-site digit order is I < X < .. < Z < .. so that pure-X
    operators sort before pure-Z ones on the same support."""
    return int(_site_digits(p)[::-1].translate(_ASCII_DIGITS) or b"0", p.d * p.d)


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
    if p.d == 2:
        return _site_digits(p).translate(_QUBIT_RENDER).decode()
    return ",".join(_QUTRIT_RENDER[xz] for xz in zip(p.x, p.z))
