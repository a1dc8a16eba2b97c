"""Standalone property suites shared by the property tests and the
acceptance gate.  Each check raises AssertionError on failure and returns a
small summary string on success."""

from __future__ import annotations

import random
from itertools import product

from twep.engine import simulate
from twep.errorspace import base_errors, filter_by_outcome
from twep.pauli import PauliVec, multiply, parse, symplectic_product, weight
from twep.protocols import hamming_family, nine_pair, qutrit_four, six_pair
from twep.stabilizer import StabilizerSet


def _random_pauli(rng: random.Random, d: int, n: int) -> PauliVec:
    return PauliVec(
        d,
        n,
        tuple(rng.randrange(d) for _ in range(n)),
        tuple(rng.randrange(d) for _ in range(n)),
    )


def random_stabilizer(rng: random.Random, d: int, n: int, rank: int) -> StabilizerSet:
    """A stabilizer of exactly the given rank, grown by rejection sampling of
    random operators that commute with it and lie outside it."""
    s = StabilizerSet(d, n)
    while s.rank < rank:
        cand = _random_pauli(rng, d, n)
        if s.in_normalizer(cand) and not s.is_member(cand):
            s = s.extend(cand)
    return s


def check_symplectic_algebra(cases: int = 10_000, seed: int = 20240305) -> str:
    """Antisymmetry and bilinearity of the commutation form, random cases."""
    rng = random.Random(seed)
    for i in range(cases):
        d = 2 if i % 3 else 3
        n = rng.randint(1, 8)
        p = _random_pauli(rng, d, n)
        q = _random_pauli(rng, d, n)
        r = _random_pauli(rng, d, n)
        assert symplectic_product(p, q) == (-symplectic_product(q, p)) % d
        assert (
            symplectic_product(multiply(p, q), r)
            == (symplectic_product(p, r) + symplectic_product(q, r)) % d
        )
    return f"{cases} random antisymmetry+bilinearity cases"


def check_syndrome_additivity(cases: int = 2_000, seed: int = 987) -> str:
    """Syndromes add componentwise under operator products."""
    rng = random.Random(seed)
    for i in range(cases):
        d = 2 if i % 2 else 3
        n = rng.randint(2, 6)
        s = StabilizerSet(d, n)
        for _ in range(rng.randint(1, n)):
            for _attempt in range(80):
                cand = _random_pauli(rng, d, n)
                if cand.is_identity:
                    continue
                try:
                    s = s.extend(cand)
                    break
                except ValueError:
                    continue
        e = _random_pauli(rng, d, n)
        f = _random_pauli(rng, d, n)
        combined = s.syndrome(multiply(e, f))
        split = tuple(
            (a + b) % d for a, b in zip(s.syndrome(e).values, s.syndrome(f).values)
        )
        assert combined.values == split
    return f"{cases} random syndrome-additivity cases"


def check_candidate_set_oracle() -> str:
    """At every prefix of every protocol run on at most nine registers, the
    engine's sequentially filtered survivor set equals the brute-force set of
    weight-bounded errors matching all outcomes."""
    checked = 0
    for strategy in (six_pair(), hamming_family(3), nine_pair(), qutrit_four()):
        assert strategy.n <= 9
        all_errors = base_errors(strategy.d, strategy.n, strategy.t)
        for hidden in all_errors.members:
            transcript = simulate(strategy, hidden)
            survivors = all_errors
            seen: list[tuple[PauliVec, int]] = []
            for op, outcome in transcript.history.entries:
                survivors = filter_by_outcome(survivors, op, outcome)
                seen.append((op, outcome))
                brute = [
                    e
                    for e in all_errors.members
                    if weight(e) <= strategy.t
                    and all(symplectic_product(m, e) == o for m, o in seen)
                ]
                assert list(survivors.members) == brute
                checked += 1
    return f"{checked} simulation prefixes against the brute-force candidate set"


def check_half_separation(max_n: int = 4) -> str:
    """Exactly half the normalizer separates any pair of errors differing by
    something outside the stabilizer; nothing in the stabilizer separates."""
    cases = {
        1: [["X"]],
        2: [["XX"], ["XX", "ZZ"]],
        3: [["XXX"], ["XXX", "ZZI"]],
        4: [["XXXX", "ZZZZ"], ["XZZX"]],
    }
    checked = 0
    for n in range(1, max_n + 1):
        for gens in cases[n]:
            s = StabilizerSet(2, n, [parse(g, 2) for g in gens])
            span = set(s.span_elements())
            normalizer = [
                p
                for p in _all_paulis(2, n)
                if all(symplectic_product(p, g) == 0 for g in s.gens)
            ]
            for diff in _all_paulis(2, n):
                if diff in span:
                    continue
                separating = sum(
                    1 for p in normalizer if symplectic_product(p, diff) != 0
                )
                assert separating == len(normalizer) // 2
                if s.in_normalizer(diff):
                    # Same-syndrome pairs are separated by nothing in the
                    # stabilizer itself.
                    assert all(symplectic_product(p, diff) == 0 for p in span)
                checked += 1
    return f"{checked} separation counts across stabilizers on up to {max_n} registers"


def _all_paulis(d, n):
    for xs in product(range(d), repeat=n):
        for zs in product(range(d), repeat=n):
            yield PauliVec(d, n, xs, zs)
