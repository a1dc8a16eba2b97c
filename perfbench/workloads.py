"""The benchmark's workloads: seeded inputs, tasks, and their expected answers.

Every expected answer comes from outside the code under test: the closed
form for the number of errors, the certified pair counts of the paper,
textbook code distances, and a brute-force distance oracle written here.
Each round of a workload runs every task once, in a seeded order; the seed
also draws the register permutations and random stabilizers, so no task of
a run repeats an input, except that greedy's inputs are fixed by (n, t).
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass
from functools import partial
from itertools import combinations, product
from math import comb
from typing import Callable, Optional

from click.testing import CliRunner

from twep import cli, errorspace
from twep.engine import Discard, History, Measure, Report, Strategy, verify
from twep.pauli import PauliVec, parse
from twep.protocols import hamming_family, nine_pair, qutrit_four, six_pair
from twep.stabilizer import StabilizerSet, min_normalizer_weight

# The benchmark's own calls into the layers go through these module names,
# which the traced rounds wrap.
report_text = Report.to_text

# (name, factory, certified pairs k from the paper)
REGISTRY = (
    ("six-pair", six_pair, 2),
    ("hamming-m3", lambda: hamming_family(3), 2**3 - 3 - 2),
    ("hamming-m4", lambda: hamming_family(4), 2**4 - 4 - 2),
    ("hamming-m5", lambda: hamming_family(5), 2**5 - 5 - 2),
    ("nine-pair", nine_pair, 1),
    ("qutrit-four", qutrit_four, 1),
)
WIDE = (
    ("hamming-m6", lambda: hamming_family(6), 2**6 - 6 - 2),
    ("hamming-m7", lambda: hamming_family(7), 2**7 - 7 - 2),
)
# (8, 2) is left out: at the commit that defined this benchmark it exits 1
# because its step-7 splits of 4 survivors (3/1) fail the balance bound.
GREEDY = ((7, 1), (8, 1), (9, 1), (6, 2), (7, 2))
# (d, n, rank): the scan covers d^(2n - rank) operators whatever the seed.
DISTANCE_SHAPES = (
    (2, 10, 2), (2, 11, 3), (2, 12, 3), (2, 12, 4),
    (3, 5, 2), (3, 6, 3), (3, 6, 2), (3, 7, 4),
)
# (d, generators, textbook distance)
ANCHORS = (
    (2, ("XXXX", "ZZZZ"), 2),
    (2, ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"), 3),
    (
        2,
        ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"),
        3,
    ),
    (
        2,
        ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
         "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"),
        3,
    ),
    (
        3,
        ("X,Z,Z2,X2,I", "I,X,Z,Z2,X2", "X2,I,X,Z,Z2", "Z2,X2,I,X,Z"),
        3,
    ),
)
K_OUT_REASON = re.compile(r"k_out \d+ below claimed \d+")


@dataclass
class Task:
    """One verdict: ``run`` is timed; ``check`` and ``later`` are not.

    ``check(result)`` lists what is wrong with the result.  ``later(result)``,
    when given, returns a check to run after the timed section (an oracle
    too slow to run between tasks).
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    later: Optional[Callable[[object], Callable[[], list[str]]]] = None

    def verdict(self, result) -> list[str]:
        if isinstance(result, Exception):
            return [f"{self.label}: raised {type(result).__name__}: {result}"]
        return [f"{self.label}: {p}" for p in self.check(result)]


def count_errors_closed_form(n: int, t: int, d: int) -> int:
    """Sum over j <= t of (d^2 - 1)^j * C(n, j)."""
    return sum((d * d - 1) ** j * comb(n, j) for j in range(t + 1))


def order_key(p: PauliVec) -> tuple:
    """Weight-major, canonical-key order: base-d^2 digits x + d*z with
    register 0 least significant, compared from the top register down."""
    weight = sum(1 for a, b in zip(p.x, p.z) if a or b)
    return (weight, tuple(p.x[i] + p.d * p.z[i] for i in reversed(range(p.n))))


def permute(p: PauliVec, perm) -> PauliVec:
    """Operator with register i moved to register perm[i]."""
    x = [0] * p.n
    z = [0] * p.n
    for i, target in enumerate(perm):
        x[target] = p.x[i]
        z[target] = p.z[i]
    return PauliVec(p.d, p.n, tuple(x), tuple(z))


def relabel(strategy: Strategy, perm, k_claimed: int, tracer=None) -> Strategy:
    """``strategy`` with register i renamed perm[i], claiming k_claimed.

    The wrapper maps each history back to the original labels, asks the
    original step function, and maps its step forward.  With a tracer the
    step function is a ``protocols.next`` span, and the time spent mapping
    is added to ``bench.relabel.self_s``.
    """
    inverse = [0] * strategy.n
    for i, target in enumerate(perm):
        inverse[target] = i
    forward_ops: dict[PauliVec, PauliVec] = {}
    backward_ops: dict[PauliVec, PauliVec] = {}

    def moved(op, mapping, cache):
        out = cache.get(op)
        if out is None:
            out = cache[op] = permute(op, mapping)
        return out

    def next_step(history: History):
        start = time.perf_counter()
        original = History(
            tuple((moved(op, inverse, backward_ops), o) for op, o in history.entries),
            tuple(frozenset(inverse[r] for r in regs) for regs in history.discards),
        )
        asked = time.perf_counter()
        step = strategy.next(original)
        answered = time.perf_counter()
        if isinstance(step, Measure):
            step = Measure(moved(step.op, perm, forward_ops))
        elif isinstance(step, Discard):
            step = Discard(frozenset(perm[r] for r in step.registers))
        if tracer is not None:
            spent = asked - start + time.perf_counter() - answered
            tracer.counts["bench.relabel.self_s"] += spent
        return step

    if tracer is not None:
        next_step = tracer.wrap("protocols.next", next_step)
    return Strategy(
        d=strategy.d,
        n=strategy.n,
        t=strategy.t,
        k_claimed=k_claimed,
        next=next_step,
        name=strategy.name,
    )


def check_report(result, errors: int, k: int, passed: bool) -> list[str]:
    """Problems with a (Report, to_text) pair against the expected answer."""
    report, text = result
    problems = []
    if report.errors_checked != errors:
        problems.append(f"errors_checked {report.errors_checked}, expected {errors}")
    if report.k_min != k:
        problems.append(f"k_min {report.k_min}, expected {k}")
    if report.passed is not passed:
        problems.append(f"pass {report.passed}, expected {passed}")
    doc = json.loads(text)
    if (doc["errors_checked"], doc["k_min"], doc["pass"], len(doc["counterexamples"])) != (
        report.errors_checked,
        report.k_min,
        report.passed,
        len(report.counterexamples),
    ):
        problems.append("to_text() disagrees with the report")
    found = report.counterexamples
    if passed and found:
        problems.append(f"{len(found)} counterexamples for a passing protocol")
    if not passed:
        if not found:
            problems.append("no counterexample for an overclaiming twin")
        if any(not K_OUT_REASON.fullmatch(c.reason) for c in found):
            problems.append("a counterexample reason is not 'k_out .. below claimed ..'")
        keys = [order_key(c.hidden) for c in found]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            problems.append("counterexamples not in weight-major canonical order")
    return problems


def check_greedy(result, n: int, t: int) -> list[str]:
    """Problems with a ``twep greedy`` invocation's (exit code, stdout)."""
    code, output = result
    if code != 0:
        return [f"exit code {code}"]
    doc = json.loads(output)
    errors = count_errors_closed_form(n, t, 2)
    log2_errors = (errors - 1).bit_length()
    problems = []
    if doc["errors_checked"] != errors:
        problems.append(f"errors_checked {doc['errors_checked']}, expected {errors}")
    if doc["pass"] is not True:
        problems.append("greedy strategy did not pass")
    if doc["step_bound"] != log2_errors + 2:
        problems.append(f"step_bound {doc['step_bound']}, expected {log2_errors + 2}")
    if doc["max_steps"] > doc["step_bound"]:
        problems.append(f"max_steps {doc['max_steps']} > step_bound {doc['step_bound']}")
    if doc["balance_ok"] is not True:
        problems.append("balance bound violated")
    if doc["k_min"] < n - log2_errors - 2:
        problems.append(f"k_min {doc['k_min']} below the Theorem 2 guarantee")
    return problems


def _symplectic(x1, z1, x2, z2, d: int) -> int:
    return sum(a * d2 - b * c for a, b, c, d2 in zip(x1, z1, x2, z2)) % d


def brute_force_distance(s: StabilizerSet) -> int:
    """Smallest weight of an operator that commutes with every generator and
    is outside the generated group, searched weight by weight."""
    d, n = s.d, s.n
    rows = [(g.x, g.z) for g in s.gens]
    group = set()
    for coeffs in product(range(d), repeat=len(rows)):
        v = [0] * (2 * n)
        for c, (gx, gz) in zip(coeffs, rows):
            for i, a in enumerate(gx + gz):
                v[i] = (v[i] + c * a) % d
        group.add(tuple(v))
    site_ops = [(a, b) for a in range(d) for b in range(d) if a or b]
    for w in range(1, n + 1):
        for support in combinations(range(n), w):
            for ops in product(site_ops, repeat=w):
                x = [0] * n
                z = [0] * n
                for i, (a, b) in zip(support, ops):
                    x[i], z[i] = a, b
                if any(_symplectic(x, z, gx, gz, d) for gx, gz in rows):
                    continue
                if tuple(x + z) not in group:
                    return w
    raise ValueError("the stabilizer has no logical operator")


def random_stabilizer(rng: random.Random, d: int, n: int, rank: int) -> StabilizerSet:
    """Random commuting, independent generators, drawn one at a time."""
    s = StabilizerSet(d, n)
    while len(s) < rank:
        op = PauliVec(
            d,
            n,
            tuple(rng.randrange(d) for _ in range(n)),
            tuple(rng.randrange(d) for _ in range(n)),
        )
        if op.is_identity or not s.in_normalizer(op) or s.is_member(op):
            continue
        s = s.extend(op)
    return s


def _check_distance(w: int, low: int, high: int) -> list[str]:
    return [] if low <= w <= high else [f"distance {w}, expected {low}..{high}"]


def _oracle(s: StabilizerSet, w: int):
    def check():
        expected = brute_force_distance(s)
        return [] if w == expected else [f"distance {w}, brute force {expected}"]

    return check


def _distance_run(s):
    return lambda: min_normalizer_weight(s)


def _greedy_run(n, t):
    args = ["greedy", "--n", str(n), "--t", str(t)]

    def run():
        result = CliRunner().invoke(cli.main, args)
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            raise result.exception
        return result.exit_code, result.output

    return run


def _verify_run(strategy):
    def run():
        report = verify(strategy)
        return report, report_text(report)

    return run


class Workload:
    """One named workload under one seed; ``round()`` builds the next batch
    of tasks, each round with fresh seeded inputs."""

    def __init__(self, name: str, seed: int):
        if name not in WORKLOADS:
            raise KeyError(name)
        self.name = name
        self.seed = seed
        self.rng = random.Random(seed)
        self._twin_counterexamples: dict[str, list[int]] = {}

    def round(self, tracer=None) -> list[Task]:
        tasks = WORKLOADS[self.name](self, tracer)
        self.rng.shuffle(tasks)
        return tasks

    def _perm(self, n: int) -> list[int]:
        perm = list(range(n))
        self.rng.shuffle(perm)
        return perm

    def twin_reference(self, name: str, factory) -> int:
        """Counterexample count of the twin of ``name`` under a relabelling
        drawn from its own seeded stream."""
        base = factory()
        perm = list(range(base.n))
        random.Random(f"{self.seed}/{name}").shuffle(perm)
        return len(verify(relabel(base, perm, base.k_claimed + 1)).counterexamples)

    def _invariance(self, name: str, factory):
        """Deferred check that every twin of ``name`` in the run has the same
        counterexample count.  Each round relabels anew, so two rounds
        compare two relabellings; a run with one round verifies once more."""

        def later(result):
            counts = self._twin_counterexamples.setdefault(name, [])
            found = len(result[0].counterexamples)
            counts.append(found)

            def check():
                if len(counts) == 1:
                    counts.append(self.twin_reference(name, factory))
                if all(c == found for c in counts):
                    return []
                return [f"{found} counterexamples; other relabellings gave {sorted(set(counts))}"]

            return check

        return later

    def verify_tasks(self, protocols, tracer) -> list[Task]:
        """Each protocol as itself and as a twin claiming one more pair,
        both under seeded register permutations."""
        tasks = []
        for name, factory, k in protocols:
            base = factory()
            errors = count_errors_closed_form(base.n, base.t, base.d)
            for twin in (False, True):
                strategy = relabel(base, self._perm(base.n), base.k_claimed + twin, tracer)
                tasks.append(
                    Task(
                        label=f"{name}-twin" if twin else name,
                        run=_verify_run(strategy),
                        check=partial(check_report, errors=errors, k=k, passed=not twin),
                        later=self._invariance(name, factory) if twin else None,
                    )
                )
        return tasks

    def distance_tasks(self) -> list[Task]:
        """Random stabilizers checked by the brute-force oracle after the
        timed section, and relabelled textbook codes checked at once."""
        tasks = []
        for d, n, rank in DISTANCE_SHAPES:
            s = random_stabilizer(self.rng, d, n, rank)
            tasks.append(
                Task(
                    label=f"random-d{d}-n{n}-r{rank}",
                    run=_distance_run(s),
                    check=partial(_check_distance, low=1, high=n),
                    later=partial(_oracle, s),
                )
            )
        for d, gens, distance in ANCHORS:
            ops = [parse(g, d) for g in gens]
            perm = self._perm(ops[0].n)
            s = StabilizerSet(d, ops[0].n, [permute(op, perm) for op in ops])
            tasks.append(
                Task(
                    label=f"anchor-d{d}-n{s.n}",
                    run=_distance_run(s),
                    check=partial(_check_distance, low=distance, high=distance),
                )
            )
        return tasks


WORKLOADS: dict[str, Callable[[Workload, object], list[Task]]] = {
    "verify-registry": lambda w, tracer: w.verify_tasks(REGISTRY, tracer),
    "verify-wide": lambda w, tracer: w.verify_tasks(WIDE, tracer),
    "greedy": lambda w, tracer: [
        Task(f"greedy-{n}-{t}", _greedy_run(n, t), partial(check_greedy, n=n, t=t))
        for n, t in GREEDY
    ],
    "distance": lambda w, tracer: w.distance_tasks(),
}


def clear_caches() -> None:
    """Drop the process-wide enumeration cache, so each task pays what one
    CLI invocation pays."""
    cache_clear = getattr(errorspace.base_errors, "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
