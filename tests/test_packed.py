"""The packed operator arithmetic against the tuple formulas it replaced,
kept in ``prop_checks`` as slow oracles."""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prop_checks
from prop_checks import complete_discard_reference, random_stabilizer
from twep import engine, pauli
from twep.engine import verify
from twep.errorspace import enumerate_errors
from twep.pauli import (
    DimensionMismatchError,
    PauliVec,
    canonical_key,
    multiply,
    parse,
    render,
    symplectic_product,
    weight,
)
from twep.protocols import _x_over, _z_over, get, hamming_family, names
from twep.stabilizer import (
    StabilizerSet,
    complete_discard,
    normalizer_complement_basis,
)
from twep.synth import NoSeparatorError, choose_generator


@st.composite
def operator_pairs(draw):
    """Two operators of one shape, d in {2, 3} and n up to 130, so the
    planes run past 64 bits."""
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 130))

    def vector():
        # Dense like wide generators, or kept on a few sites like errors.
        digits = draw(st.integers(0, d**n - 1))
        keep = draw(st.none() | st.sets(st.integers(0, n - 1), max_size=3))
        return tuple(
            digits // d**i % d if keep is None or i in keep else 0 for i in range(n)
        )

    return PauliVec(d, n, vector(), vector()), PauliVec(d, n, vector(), vector())


@settings(max_examples=300, deadline=None)
@given(operator_pairs())
def test_packed_arithmetic_matches_the_tuple_formulas(pair):
    p, q = pair
    assert symplectic_product(p, q) == prop_checks.symplectic_product_reference(p, q)
    assert symplectic_product(q, p) == prop_checks.symplectic_product_reference(q, p)
    d, n = p.d, p.n
    assert multiply(p, q) == PauliVec(
        d,
        n,
        tuple((a + b) % d for a, b in zip(p.x, q.x)),
        tuple((a + b) % d for a, b in zip(p.z, q.z)),
    )
    for v in pair:
        # Column 2i holds x[i] and column 2i + 1 holds z[i].
        columns = tuple(c for site in zip(v.x, v.z) for c in site)
        planes = (v.one, v.two)
        assert planes == (
            prop_checks.bits_reference(columns, 1),
            prop_checks.bits_reference(columns, 2),
        )
        assert render(v) == prop_checks.render_reference(v)
        assert parse(render(v), v.d) == v
        assert canonical_key(v) == prop_checks.canonical_key_reference(v)
        assert canonical_key(v) == int(f"{v.one:b}", d) + 2 * int(f"{v.two:b}", d)
        assert weight(v) == prop_checks.weight_reference(v)


def _built_every_way(d: int, text: str, sites: dict, left: str, right: str):
    """One operator from parse, from_sites, its tuples, a packed row,
    multiply, the enumeration, copy and pickle."""
    p = parse(text, d)
    return [
        p,
        PauliVec.from_sites(d, p.n, sites),
        PauliVec(d, p.n, tuple(p.x), tuple(p.z)),
        pauli._from_planes(d, p.n, p.one, p.two),
        multiply(parse(left, d), parse(right, d)),
        next(e for e in enumerate_errors(p.n, weight(p), d) if e == p),
        copy.copy(p),
        pickle.loads(pickle.dumps(p)),
    ]


@pytest.mark.parametrize(
    "d, text, sites, left, right",
    [
        (2, "XYZI", {0: (1, 0), 1: (1, 1), 2: (0, 1)}, "XIZI", "IYII"),
        (3, "X,XZ2,Z2,I", {0: (1, 0), 1: (1, 2), 2: (0, 2)}, "X,X,I,I", "I,Z2,Z2,I"),
        (2, "I" * 70 + "Y", {70: (1, 1)}, "I" * 70 + "X", "I" * 70 + "Z"),
    ],
    ids=["qubits", "qutrits", "wide"],
)
def test_every_constructor_builds_one_operator_hashed_once(
    d, text, sites, left, right, monkeypatch
):
    """Equal and hash-equal however it is built; the hash is computed on
    first use and kept; repr and the tuple view read as they did when
    PauliVec was a dataclass of (d, n, x, z)."""
    hashed = []

    def counting(value):
        hashed.append(value)
        return hash(value)

    monkeypatch.setattr(pauli, "hash", counting, raising=False)
    built = _built_every_way(d, text, sites, left, right)
    first = built[0]
    shown = f"PauliVec(d={d}, n={first.n}, x={first.x!r}, z={first.z!r})"
    for p in built:
        assert p == first and not p != first
        assert hash(p) == hash(first)
        hashed.clear()
        assert hash(p) == hash(first) and hashed == []  # the kept value
        assert repr(p) == shown
        assert PauliVec(p.d, p.n, p.x, p.z) == p
        assert type(p.x) is type(p.z) is tuple
    assert len(set(built)) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.one = 0


def assert_consistent_planes(p: PauliVec):
    """Disjoint value planes, nothing at or above bit 2n, no value-2 plane
    for d=2, and the tuple view builds the same operator back."""
    outside = -1 << 2 * p.n
    assert p.one & p.two == 0
    assert (p.one | p.two) & outside == 0
    assert p.d == 3 or p.two == 0
    assert PauliVec(p.d, p.n, p.x, p.z) == p


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    n=st.integers(1, 8),
    seed=st.integers(0, 2**32),
)
def test_every_plane_constructor_builds_consistent_planes(d, n, seed):
    """The constructors that skip the tuple validation: the enumeration,
    discard completion, the normalizer complement, multiply (at d = 3 also
    past 64 registers), the greedy scan and the protocols' parity masks."""
    rng = random.Random(seed)
    s = random_stabilizer(rng, d, n, rng.randrange(n + 1))
    built = list(enumerate_errors(n, min(n, 2), d).members)
    built += complete_discard(s, rng.sample(range(n), rng.randint(1, min(n, 4))))
    built += normalizer_complement_basis(s)
    for width in (n, n + 64):
        p, q = (prop_checks._random_pauli(rng, d, width) for _ in range(2))
        built += [multiply(p, q), multiply(p, p), multiply(p, prop_checks.inverse(p))]
    if d == 2 and s.rank < n:
        errors = enumerate_errors(n, 1, 2)
        try:
            built.append(choose_generator(s, errors))
        except NoSeparatorError:
            pass
        built += [_x_over(n, range(0, n, 2)), _z_over(n, range(1, n, 2))]
    for p in built:
        assert_consistent_planes(p)


@settings(max_examples=100, deadline=None)
@given(d=st.sampled_from([2, 3]), n=st.integers(1, 130), data=st.data())
def test_construction_rejects_what_it_rejected_before(d, n, data):
    """Messages and types of the tuple-validating constructor."""
    site = data.draw(st.integers(0, n - 1))
    good = (0,) * n
    for bad in (d, -1, d + 254, 1.5):
        vector = good[:site] + (bad,) + good[site + 1 :]
        for x, z in ((vector, good), (good, vector)):
            with pytest.raises(ValueError, match=r"^exponents must lie in \[0, d\)$"):
                PauliVec(d, n, x, z)
    for x, z in ((good[1:], good), (good, good + (0,))):
        with pytest.raises(ValueError, match="^exponent vectors must have length n$"):
            PauliVec(d, n, x, z)
    with pytest.raises(ValueError, match="^unsupported register dimension 5$"):
        PauliVec(5, n, good, good)
    with pytest.raises(DimensionMismatchError):
        symplectic_product(PauliVec(d, n, good, good), PauliVec(5 - d, n, good, good))
    # 1.0 equals the digit 1 but is no int, so it fails as a byte; True is
    # the digit 1.
    one = good[:site] + (1,) + good[site + 1 :]
    as_float = good[:site] + (1.0,) + good[site + 1 :]
    as_bool = good[:site] + (True,) + good[site + 1 :]
    for x, z in ((as_float, good), (good, as_float)):
        with pytest.raises(TypeError):
            PauliVec(d, n, x, z)
    assert PauliVec(d, n, as_bool, good) == PauliVec(d, n, one, good)
    assert PauliVec(d, n, good, as_bool) == PauliVec(d, n, good, one)


def _top_site_operators(rng: random.Random, d: int, n: int):
    """(x, z) tuples on n sites: one random pair per value of the top site,
    the identity and the operator with every exponent d - 1."""
    for top in range(d * d):
        x = [rng.randrange(d) for _ in range(n)]
        z = [rng.randrange(d) for _ in range(n)]
        x[-1], z[-1] = top % d, top // d
        yield tuple(x), tuple(z)
    yield (0,) * n, (0,) * n
    yield (d - 1,) * n, (d - 1,) * n


@pytest.mark.parametrize("d", [2, 3])
def test_render_matches_the_per_site_oracle_at_every_width(d):
    """Every n in 1..130, each value of the top site; the operator is built
    from its planes, so render reads nothing the constructor kept."""
    rng = random.Random(f"render-{d}")
    for n in range(1, 131):
        for x, z in _top_site_operators(rng, d, n):
            p = PauliVec(d, n, x, z)
            q = pauli._from_planes(d, n, p.one, p.two)
            assert render(q) == prop_checks.render_reference(p)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("first", ["x", "z"])
def test_exponents_unpacked_from_the_planes_in_either_order(d, first):
    """The tuples of an operator built from its planes, whichever is read
    first, are the ones it was built from."""
    rng = random.Random(f"exponents-{d}-{first}")
    for n in (1, 2, 3, 31, 32, 33, 64, 65, 127, 130):
        for x, z in _top_site_operators(rng, d, n):
            p = PauliVec(d, n, x, z)
            q = pauli._from_planes(d, n, p.one, p.two)
            assert getattr(q, first) == {"x": x, "z": z}[first]
            assert (q.x, q.z) == (x, z)
            assert type(q.x) is type(q.z) is tuple


def _raised(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "d, n", [(2, n) for n in range(1, 8)] + [(3, n) for n in range(1, 6)]
)
def test_complete_discard_matches_the_candidate_scan(d, n):
    """Seeded random stabilizers of every rank, every nonempty register set
    of at most four registers."""
    rng = random.Random(f"discard-{d}-{n}")
    for rank in range(n + 1):
        s = random_stabilizer(rng, d, n, rank)
        for size in range(1, min(4, n) + 1):
            for registers in combinations(range(n), size):
                got = complete_discard(s, registers)
                assert got == complete_discard_reference(s, registers)


def test_complete_discard_matches_the_candidate_scan_on_eight_qubits():
    rng = random.Random("discard-2-10-8")
    s = random_stabilizer(rng, 2, 10, 5)
    registers = sorted(rng.sample(range(10), 8))
    got = complete_discard(s, registers)
    assert got and got == complete_discard_reference(s, registers)


def test_complete_discard_matches_on_the_registry_discards(monkeypatch):
    """Every discard of the registry protocols and of Hamming bisection at
    m = 6 and 7."""
    calls = []
    original = engine.complete_discard

    def recording(s, registers):
        calls.append((s, registers))
        return original(s, registers)

    monkeypatch.setattr(engine, "complete_discard", recording)
    for strategy in [get(name) for name in names()] + [
        hamming_family(6),
        hamming_family(7),
    ]:
        verify(strategy)
    assert calls
    for s, registers in calls:
        assert complete_discard(s, registers) == complete_discard_reference(
            s, registers
        )


@pytest.mark.parametrize(
    "n, registers",
    [(4, ()), (9, range(10)), (4, (0, 4)), (4, (-1,)), (12, range(-1, 9))],
    ids=["empty", "oversized", "past-n", "negative", "oversized-and-negative"],
)
def test_complete_discard_rejects_like_the_candidate_scan(n, registers):
    for d in (2, 3):
        s = StabilizerSet(d, n)
        got = _raised(complete_discard, s, registers)
        assert isinstance(got, tuple)
        assert got == _raised(complete_discard_reference, s, registers)


@pytest.mark.parametrize("d", [2, 3])
def test_complete_discard_of_ten_registers_is_maximal(d):
    """Past the candidate scan's reach, by tuple ranks: the completion of
    registers 0..9 of random stabilizers on 12 registers stays on the region
    and ``extend`` accepts each pick, so it commutes and is independent.
    An operator on the region commutes with the grown generators iff it
    annihilates their region columns, so those operators span 20 - rank(on)
    dimensions, and rank(grown) - rank(off) of them lie in the grown group.
    Maximal means the two counts agree."""
    rng = random.Random(40 + d)
    region = range(10)

    def cut(gens, sites):
        keep = [i in sites for i in range(12)]
        return [
            PauliVec(d, 12, *(tuple(v * k for v, k in zip(u, keep)) for u in (g.x, g.z)))
            for g in gens
        ]

    for rank in (0, 3, 6):
        s = random_stabilizer(rng, d, 12, rank)
        grown = s
        for p in complete_discard(s, region):
            assert not any(p.x[10:] + p.z[10:])
            grown = grown.extend(p)
        on = prop_checks.rank_reference(cut(grown.gens, region))
        off = prop_checks.rank_reference(cut(grown.gens, range(10, 12)))
        assert 20 - on == grown.rank - off
