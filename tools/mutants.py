#!/usr/bin/env python3
"""Run the recorded mutants of the package against the tests meant to kill
them.

    python3 tools/mutants.py

Run from the root of the repository.  Each mutant names a file, the exact
text it replaces (which must occur there once), the replacement and the
test files expected to kill it.  The tool copies ``src/``, ``tests/``,
``tools/`` and ``pyproject.toml`` to a temporary directory once, then for
each mutant rewrites the file in the copy, runs ``python -m pytest -x``
on its test files there and restores the file; nothing in the checkout
changes.

A failing run kills the mutant.  A run past its timeout is killed and
counts as a kill too: a mutant can make a loop never end.  Each distinct
set of test files is first run unmutated; it must pass, and the timeout of
its mutants is ``TIMEOUT_FACTOR`` times that run's time, at least
``MIN_TIMEOUT`` seconds.

Mutants known to be equivalent carry the argument.  The tool prints one
line per mutant (killed, survived or timed out, and the runtime) and exits
1 when a mutant not marked equivalent survives or one marked equivalent is
killed, 2 when a mutant does not apply or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_FACTOR = 5
MIN_TIMEOUT = 30.0


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str = ""


KERNELS = "src/twep/_kernels.py"
STABILIZER = "src/twep/stabilizer.py"
ENGINE = "src/twep/engine.py"
CLI = "src/twep/cli.py"
ERRORSPACE = "src/twep/errorspace.py"
SYNTH = "src/twep/synth.py"
PAULI = "src/twep/pauli.py"
DISTANCE_TESTS = ("tests/test_reducer.py", "tests/test_stabilizer.py")
SPLITTER_TESTS = ("tests/test_splitter.py",)

MUTANTS = (
    Mutant(
        "search-keeps-the-first-row",
        KERNELS,
        "            if a:\n                del table[a]\n",
        "",
        DISTANCE_TESTS,
    ),
    Mutant(
        "search-keeps-the-second-row",
        KERNELS,
        "            if b:\n                del table[b]\n",
        "",
        DISTANCE_TESTS,
    ),
    Mutant(
        "pivot-row-keeps-a-2-at-its-pivot",
        KERNELS,
        "            if two >> top - 1:  # scale by 2 (negate) so that the pivot holds 1\n"
        "                one, two = two, one\n",
        "",
        DISTANCE_TESTS,
    ),
    Mutant(
        "search-misses-the-top-complement-column",
        KERNELS,
        "if 0 < a <= low or 0 < b <= low:",
        "if 0 < a < low or 0 < b < low:",
        DISTANCE_TESTS,
    ),
    Mutant(
        "span-columns-below-the-complement",
        KERNELS,
        "    ones = _columns(comp_one + span_one, 2 * n)\n"
        "    twos = _columns(comp_two + span_two, 2 * n) if d == 3 else [0] * (2 * n)\n",
        "    ones = _columns(span_one + comp_one, 2 * n)\n"
        "    twos = _columns(span_two + comp_two, 2 * n) if d == 3 else [0] * (2 * n)\n",
        DISTANCE_TESTS,
    ),
    Mutant(
        "site-loop-ends-one-early",
        KERNELS,
        "        for i in range(start, n - left + 1):\n            xz1, xz2, zx1, zx2",
        "        for i in range(start, n - left):\n            xz1, xz2, zx1, zx2",
        DISTANCE_TESTS,
    ),
    Mutant(
        "search-checks-for-a-hit-only-at-the-leaves",
        KERNELS,
        "            if 0 < a <= low or 0 < b <= low:\n",
        "            if left == 1 and (0 < a <= low or 0 < b <= low):\n",
        DISTANCE_TESTS,
        equivalent="a new pivot among the complement columns at an inner node "
        "would mark an operator on that node's support of fewer than w sites; "
        "every support that small was searched, and rejected, at a smaller w",
    ),
    Mutant(
        "complement-tests-the-lowest-column",
        STABILIZER,
        "        if (one | two).bit_length() not in leading\n",
        "        if ((one | two) & -(one | two)).bit_length() not in leading\n",
        ("tests/test_reducer.py", "tests/test_splitter.py"),
    ),
    Mutant(
        "independent-keeps-every-row",
        KERNELS,
        "if pivot_store(table, 2, row, 0):",
        "if True:",
        SPLITTER_TESTS,
    ),
    Mutant(
        "extended-basis-keeps-p",
        STABILIZER,
        "        if k != p and k.bit_length() != lead\n",
        "        if k.bit_length() != lead\n",
        SPLITTER_TESTS,
    ),
    Mutant(
        "extended-basis-keeps-the-vector-at-the-measured-lead",
        STABILIZER,
        "        if k != p and k.bit_length() != lead\n",
        "        if k != p\n",
        SPLITTER_TESTS,
    ),
    Mutant(
        "rank-counts-the-generators",
        STABILIZER,
        "    return len(table)\n",
        "    return len(gens)\n",
        DISTANCE_TESTS,
    ),
    Mutant(
        "echelon-keeps-a-2-at-its-pivot",
        KERNELS,
        "        if two & pivot:  # scale by 2 (negate) so that the pivot holds 1\n"
        "            one, two = two, one\n",
        "",
        DISTANCE_TESTS,
    ),
    Mutant(
        "walk-puts-every-qubit-error-in-part-0",
        ENGINE,
        "parts[(u1 & ones[i]).bit_count() & 1].append(i)",
        "parts[0].append(i)",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "balance-admits-the-boundary",
        SYNTH,
        "excess * excess < total",
        "excess * excess <= total",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "discard-completion-resumes-at-column-0",
        STABILIZER,
        "span, start = grown, one.bit_length()",
        "span, start = grown, 0",
        ("tests/test_stabilizer.py",),
        equivalent="after a pick at f every element of the new V led by a column "
        "up to f lies in the new span, so each basis vector of a free column "
        "up to f is rejected again and the next pick is the same",
    ),
    Mutant(
        "discard-completion-drops-its-last-pick",
        STABILIZER,
        "            return added\n",
        "            return added[:-1]\n",
        ("tests/test_stabilizer.py",),
    ),
    Mutant(
        "walk-completes-a-discard-once-per-stabilizer",
        ENGINE,
        "    key = (s.gens, registers)\n",
        "    key = s.gens\n",
        ("tests/test_walk.py",),
    ),
    Mutant(
        "discard-records-no-registers",
        ENGINE,
        "    return *completed, registers\n",
        "    return *completed, None\n",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "greedy-finishes-at-two-survivors",
        SYNTH,
        "if len(rows) < 2 or",
        "if len(rows) < 3 or",
        ("tests/test_synth.py",),
    ),
    Mutant(
        "table-csv-prints-none",
        CLI,
        '"" if v is None else repr(v)',
        "repr(v)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "table-json-prints-none",
        CLI,
        '"null" if v is None else repr(v)',
        "repr(v)",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli-reports-no-size-refusal",
        CLI,
        "        except SizeLimitError as exc:\n",
        "        except () as exc:\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "hamming-family-builds-before-gating",
        "src/twep/protocols.py",
        "    check_size(n, 1, 2)\n",
        "",
        ("tests/test_protocols.py",),
    ),
    Mutant(
        "size-text-drops-the-large-size-fallback",
        ERRORSPACE,
        "    try:\n        return str(size)\n    except ValueError:\n"
        "        return f\"at least 2^{size.bit_length() - 1}\"\n",
        "    return str(size)\n",
        ("tests/test_errorspace.py",),
    ),
    Mutant(
        "budget-refuses-at-the-limit",
        ERRORSPACE,
        "    if estimate > MAX_WALK_BYTES:\n",
        "    if estimate >= MAX_WALK_BYTES:\n",
        ("tests/test_errorspace.py",),
    ),
    Mutant(
        "simulate-checks-d-and-n-together",
        ENGINE,
        "if hidden.d != strategy.d or hidden.n != strategy.n:",
        "if hidden.d != strategy.d and hidden.n != strategy.n:",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "stabilizer-checks-d-and-n-together",
        STABILIZER,
        "if p.d != self.d or p.n != self.n:",
        "if p.d != self.d and p.n != self.n:",
        ("tests/test_stabilizer.py",),
    ),
    Mutant(
        "rank-checks-d-and-n-together",
        STABILIZER,
        "if g.d != d or g.n != n:",
        "if g.d != d and g.n != n:",
        ("tests/test_stabilizer.py",),
    ),
    Mutant(
        "rank-reads-the-second-generator",
        STABILIZER,
        "d, n = gens[0].d, gens[0].n",
        "d, n = gens[1].d, gens[1].n",
        ("tests/test_stabilizer.py",),
    ),
    Mutant(
        "normalizer-scan-refuses-the-largest-n",
        STABILIZER,
        "if s.n > ENUMERATION_MAX_N:",
        "if s.n >= ENUMERATION_MAX_N:",
        ("tests/test_stabilizer.py",),
    ),
    Mutant(
        "table-gate-drops-the-value-widths",
        CLI,
        " + len(fields(cls)) * (width - 2))",
        ")",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "emit-drops-the-broken-pipe-guard",
        CLI,
        "    except BrokenPipeError:\n",
        "    except ():\n",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "root-split-takes-the-largest-best-weight",
        SYNTH,
        "        if side < least:\n",
        "        if side <= least:\n",
        ("tests/test_synth.py",),
    ),
    Mutant(
        "root-split-counts-every-j",
        SYNTH,
        "for j in range(1, min(t, w) + 1, 2)",
        "for j in range(min(t, w) + 1)",
        ("tests/test_synth.py",),
    ),
    Mutant(
        "root-split-answers-t-0",
        SYNTH,
        "if not entries and t >= 1:",
        "if not entries:",
        ("tests/test_synth.py",),
    ),
    Mutant(
        "root-basis-drops-its-last-unit-row",
        SYNTH,
        "[1 << c for c in range(2 * n)]",
        "[1 << c for c in range(2 * n - 1)]",
        SPLITTER_TESTS,
    ),
    Mutant(
        "error-counts-computes-a-term-past-the-last",
        ERRORSPACE,
        "        if j < top:\n            term = term * per_site * (n - j) // (j + 1)\n",
        "        term = term * per_site * (n - j) // (j + 1)\n",
        ("tests/test_protocols.py",),
    ),
    Mutant(
        "qubit-render-keeps-the-padding-sites",
        PAULI,
        "        return text[:n].decode()\n",
        "        return text.decode()\n",
        ("tests/test_packed.py",),
    ),
    Mutant(
        "exponents-store-the-x-tuple-as-z",
        PAULI,
        "z=tuple(values[1::2])",
        "z=tuple(values[::2])",
        ("tests/test_packed.py",),
    ),
    Mutant(
        "constructor-validates-x-only",
        PAULI,
        "        if columns.translate(None, _DIGITS[d]):\n",
        "        if columns[::2].translate(None, _DIGITS[d]):\n",
        ("tests/test_packed.py",),
    ),
    Mutant(
        "report-records-keyed-without-the-outcome",
        ENGINE,
        "            key = id(op), outcome\n",
        "            key = id(op)\n",
        ("tests/test_walk.py",),
    ),
    Mutant(
        "layer-changes-compare-the-means",
        "tools/bench_pair.py",
        '"median": statistics.median(values)',
        '"median": statistics.mean(values)',
        ("tests/test_bench_pair.py",),
    ),
    Mutant(
        "layer-changes-drop-vanished-metrics",
        "tools/bench_pair.py",
        "        if p:\n            entry[\"relative_change\"]",
        "        if p and c:\n            entry[\"relative_change\"]",
        ("tests/test_bench_pair.py",),
    ),
    Mutant(
        "bench-pair-traces-one-seed",
        "tools/bench_pair.py",
        "args.seeds[:TRACED_SEEDS]):",
        "args.seeds[:1]):",
        ("tests/test_bench_pair.py",),
    ),
)


def run_tests(copy: Path, tests: tuple[str, ...],
              timeout: float | None) -> tuple[str, float]:
    """('passed' | 'failed' | 'timed out', seconds) of one pytest run in the
    copy, with its ``src`` first on the import path."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start
    return ("failed" if done.returncode else "passed"), time.perf_counter() - start


def copy_tree(target: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "tools"):
        shutil.copytree(name, target / name, ignore=ignore)
    shutil.copy2("pyproject.toml", target / "pyproject.toml")


def main() -> int:
    for mutant in MUTANTS:
        count = Path(mutant.path).read_text().count(mutant.old)
        if count != 1:
            print(f"{mutant.name}: its text occurs {count} times in {mutant.path}")
            return 2

    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutants_") as scratch:
        copy = Path(scratch)
        copy_tree(copy)
        timeouts: dict[tuple[str, ...], float] = {}
        for mutant in MUTANTS:
            if mutant.tests not in timeouts:
                outcome, seconds = run_tests(copy, mutant.tests, None)
                print(f"unmutated {' '.join(mutant.tests)}: {outcome} in {seconds:.1f} s",
                      flush=True)
                if outcome != "passed":
                    return 2
                timeouts[mutant.tests] = max(MIN_TIMEOUT, TIMEOUT_FACTOR * seconds)
            target = copy / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.old, mutant.new))
            try:
                outcome, seconds = run_tests(copy, mutant.tests, timeouts[mutant.tests])
            finally:
                target.write_text(original)
            verdict = {"passed": "survived", "failed": "killed"}.get(outcome, outcome)
            note = ""
            if mutant.equivalent:
                note = " [equivalent]"
                bad += outcome != "passed"
            else:
                bad += outcome == "passed"
            print(f"{mutant.name}: {verdict} in {seconds:.1f} s{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} unexpected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
