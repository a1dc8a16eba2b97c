"""Standalone property suites shared by the property tests and the
acceptance gate.  Each check raises AssertionError on failure and returns a
small summary string on success."""

from __future__ import annotations

import random
from itertools import product

from twep.engine import (
    Counterexample,
    Discard,
    Finish,
    History,
    Measure,
    ProtocolError,
    Report,
    Strategy,
    Transcript,
    simulate,
)
from twep.errorspace import base_errors, enumerate_errors, filter_by_outcome
from twep.pauli import PauliVec, inverse, multiply, parse, symplectic_product, weight
from twep.protocols import hamming_family, nine_pair, qutrit_four, six_pair
from twep.stabilizer import DISCARD_MAX_REGISTERS, SizeLimitError, StabilizerSet


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


def symplectic_product_reference(p: PauliVec, q: PauliVec) -> int:
    """The tuple formula: sum of px*qz - pz*qx over the sites, mod d."""
    return sum(px * qz - pz * qx for px, pz, qx, qz in zip(p.x, p.z, q.x, q.z)) % p.d


def bits_reference(vector, value: int = 1) -> int:
    """Bit i set iff vector[i] == value; for d=2 this is sum(b << i)."""
    return sum((b == value) << i for i, b in enumerate(vector))


def render_reference(p: PauliVec) -> str:
    """One letter (d=2) or comma-separated token (d=3) per site, joined."""
    if p.d == 2:
        return "".join("IXZY"[a + 2 * b] for a, b in zip(p.x, p.z))

    def token(a: int, b: int) -> str:
        x = "X" + "2" * (a == 2) if a else ""
        z = "Z" + "2" * (b == 2) if b else ""
        return x + z or "I"

    return ",".join(token(a, b) for a, b in zip(p.x, p.z))


def canonical_key_reference(p: PauliVec) -> int:
    """Base-d^2 digits x + d*z, site 0 least significant."""
    return sum((a + p.d * b) * (p.d * p.d) ** i for i, (a, b) in enumerate(zip(p.x, p.z)))


def weight_reference(p: PauliVec) -> int:
    return sum(1 for a, b in zip(p.x, p.z) if a or b)


def complete_discard_reference(s: StabilizerSet, discard) -> list[PauliVec]:
    """Slow oracle for ``stabilizer.complete_discard``: build every candidate
    supported inside the registers, in ascending canonical-key order, and
    keep each one that commutes with the stabilizer grown so far and lies
    outside it."""
    registers = frozenset(discard)
    if not registers:
        raise ValueError("discard set must be nonempty")
    if len(registers) > DISCARD_MAX_REGISTERS:
        raise SizeLimitError(
            f"discard completion enumerates over {len(registers)} registers "
            f"(bound {DISCARD_MAX_REGISTERS})"
        )
    if any(not 0 <= r < s.n for r in registers):
        raise ValueError("discard register out of range")
    d, n = s.d, s.n
    sites = sorted(registers)
    added = []
    for digits in product(range(d * d), repeat=len(sites)):
        x = [0] * n
        z = [0] * n
        # The last site varies fastest in ``product``; the canonical key
        # makes the first site least significant, so read the digits reversed.
        for site, digit in zip(sites, reversed(digits)):
            x[site] = digit % d
            z[site] = digit // d
        cand = PauliVec(d, n, tuple(x), tuple(z))
        if cand.is_identity:
            continue
        if s.in_normalizer(cand) and not s.is_member(cand):
            s = s.extend(cand)
            added.append(cand)
    return added


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
        # The brute-force set depends on the prefix alone: each distinct
        # prefix is computed once, and every (error, prefix) is still checked.
        brute_sets: dict[tuple[tuple[PauliVec, int], ...], list[PauliVec]] = {}
        for hidden in all_errors.members:
            transcript = simulate(strategy, hidden)
            survivors = all_errors
            seen: list[tuple[PauliVec, int]] = []
            for op, outcome in transcript.history.entries:
                survivors = filter_by_outcome(survivors, op, outcome)
                seen.append((op, outcome))
                prefix = tuple(seen)
                if prefix not in brute_sets:
                    brute_sets[prefix] = [
                        e
                        for e in all_errors.members
                        if weight(e) <= strategy.t
                        and all(symplectic_product(m, e) == o for m, o in seen)
                    ]
                assert list(survivors.members) == brute_sets[prefix]
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


def simulate_each(strategy: Strategy) -> list[tuple[PauliVec, Transcript | str]]:
    """``simulate`` once per enumerated error, in enumeration order: each
    error with its transcript, or with the reason a ProtocolError gave."""
    runs = []
    for hidden in enumerate_errors(strategy.n, strategy.t, strategy.d).members:
        try:
            runs.append((hidden, simulate(strategy, hidden)))
        except ProtocolError as exc:
            runs.append((hidden, f"{type(exc).__name__}: {exc}"))
    return runs


def report_of_runs(runs, k_claimed: int) -> Report:
    """The k_out and residual checks over ``simulate_each``'s runs; the runs
    do not depend on the claim, so one set serves a strategy and its twins."""
    k_values = []
    counterexamples = []
    for hidden, run in runs:
        if isinstance(run, str):
            counterexamples.append(Counterexample(hidden, None, run))
            continue
        k_values.append(run.k_out)
        if run.k_out < k_claimed:
            reason = f"k_out {run.k_out} below claimed {k_claimed}"
            counterexamples.append(Counterexample(hidden, run, reason))
            continue
        residual = multiply(inverse(run.correction), hidden)
        if not run.final_stabilizer.is_member(residual):
            reason = "correction differs from the hidden error"
            counterexamples.append(Counterexample(hidden, run, reason))
    k_min = min(k_values) if k_values else -1
    return Report(
        errors_checked=len(runs),
        k_min=k_min,
        passed=not counterexamples and k_min >= k_claimed,
        counterexamples=tuple(counterexamples),
    )


def scripted(d, n, t, steps, k_claimed=0) -> Strategy:
    """Strategy that replays a fixed step list regardless of outcomes."""

    def next_step(history: History):
        index = len(history.entries) + len(history.discards)
        if index < len(steps):
            return steps[index]
        return Finish()

    return Strategy(d=d, n=n, t=t, k_claimed=k_claimed, next=next_step)


def verify_by_simulation(strategy: Strategy) -> Report:
    """Reference verifier: ``simulate`` once per enumerated error, then the
    k_out and residual checks, in enumeration order.  ``engine.verify``
    must return the same report by walking the outcome tree once."""
    return report_of_runs(simulate_each(strategy), strategy.k_claimed)


def assert_same_report(walked: Report, reference: Report) -> None:
    """Field-by-field equality; transcripts hold a StabilizerSet, which has
    no __eq__, so comparing whole reports would compare identities."""
    assert walked.to_text() == reference.to_text()
    assert (walked.errors_checked, walked.k_min, walked.passed) == (
        reference.errors_checked,
        reference.k_min,
        reference.passed,
    )
    assert len(walked.counterexamples) == len(reference.counterexamples)
    for got, want in zip(walked.counterexamples, reference.counterexamples):
        assert (got.hidden, got.reason) == (want.hidden, want.reason)
        if want.transcript is None:
            assert got.transcript is None
            continue
        assert got.transcript.to_text() == want.transcript.to_text()
        assert got.transcript.history == want.transcript.history
        assert (
            got.transcript.final_stabilizer.gens
            == want.transcript.final_stabilizer.gens
        )


def permute(op: PauliVec, perm) -> PauliVec:
    """The operator with register i moved to register perm[i]."""
    x = [0] * op.n
    z = [0] * op.n
    for i, target in enumerate(perm):
        x[target] = op.x[i]
        z[target] = op.z[i]
    return PauliVec(op.d, op.n, tuple(x), tuple(z))


def relabel(strategy: Strategy, perm, k_claimed: int) -> Strategy:
    """``strategy`` with register i renamed perm[i], claiming k_claimed: each
    history is mapped back to the original labels and each step forward."""
    back = [0] * strategy.n
    for i, target in enumerate(perm):
        back[target] = i

    def next_step(history: History):
        original = History(
            tuple((permute(op, back), o) for op, o in history.entries),
            tuple(frozenset(back[r] for r in regs) for regs in history.discards),
        )
        step = strategy.next(original)
        if isinstance(step, Measure):
            return Measure(permute(step.op, perm))
        if isinstance(step, Discard):
            return Discard(frozenset(perm[r] for r in step.registers))
        return step

    return Strategy(
        d=strategy.d,
        n=strategy.n,
        t=strategy.t,
        k_claimed=k_claimed,
        next=next_step,
        name=f"{strategy.name}-relabelled",
    )
