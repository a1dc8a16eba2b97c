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
        "src/twep/engine.py",
        "parts[(u1 & ones[i]).bit_count() & 1].append(i)",
        "parts[0].append(i)",
        ("tests/test_engine.py",),
    ),
    Mutant(
        "balance-admits-the-boundary",
        "src/twep/synth.py",
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
        "table-json-prints-none",
        "src/twep/cli.py",
        '"null" if v is None else repr(v)',
        "repr(v)",
        ("tests/test_cli.py",),
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
