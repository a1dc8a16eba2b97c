#!/usr/bin/env python3
"""Run one twep benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload verify-registry --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; twep is imported from ``src/``,
nothing is installed.  The process is one closed-loop caller: a single
thread that starts the next task only when the previous verdict is in.
``TWEP_WORKERS`` and ``TWEP_PURE`` are cleared and no ``--workers`` is
passed.

A round runs every task of the workload once, on fresh seeded inputs.
Rounds repeat until the round boundary nearest to ``--seconds`` (at least
one round).  Each task's wall time is scaled to a reference speed (see
``reference_work``); times are medians over rounds:

* ``--trace 0`` prints the end-to-end metrics, measured untraced.
* ``--trace 1`` alternates untraced and traced rounds and prints the
  per-layer metrics of the traced rounds, per round, plus
  ``trace.overhead_frac``.

Every verdict is checked against an answer computed outside the code under
test; the oracles too slow to run between tasks run after the timed
section.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the run's metadata.  Exits non-zero, printing no result, when the checkout
has no twep sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
# Contention from other tenants of a shared host changes the speed of every
# Python process by up to 1.5x for minutes at a time.  Times are therefore
# scaled to the speed at which reference_work() takes REFERENCE_S seconds,
# about its time on a quiet 2-vCPU cloud VM.
REFERENCE_S = 0.010
CLEARED_ENV = ("TWEP_WORKERS", "TWEP_PURE")
WORKLOAD_NAMES = ("verify-registry", "verify-wide", "greedy", "distance")
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "task_s.p50": "s",
    "task_s.max": "s",
    "peak_rss_mb": "MB",
}
_SPANS = (
    "stabilizer.complete_discard",
    "errorspace.filter_by_outcome",
    "errorspace.coset_classes",
    "engine.simulate",
    "engine.generic_correction",
    "protocols.next",
    "synth.choose_generator",
    "kernels.best_splitter",
    "kernels.min_weight_excluding_span",
    "stabilizer.min_normalizer_weight",
)
PER_LAYER = {
    **{f"{span}.calls": "count" for span in _SPANS},
    **{f"{span}.self_s": "s" for span in _SPANS},
    "stabilizer.complete_discard.candidates": "count",
    "stabilizer.complete_discard.accept_frac": "ratio",
    "errorspace.filter_by_outcome.scanned": "count",
    "errorspace.filter_by_outcome.kept_frac": "ratio",
    "errorspace.enumerate_errors.self_s": "s",
    "engine.verify.self_s": "s",
    "engine.report_text.self_s": "s",
    "engine.counterexamples": "count",
    "bench.relabel.self_s": "s",
    "synth.split_counts.self_s": "s",
    "synth.greedy_step_stats.self_s": "s",
    "cli.greedy.self_s": "s",
    "kernels.best_splitter.pair_checks": "count",
    "kernels.min_weight_excluding_span.operators": "count",
    "pauli.symplectic_product.calls": "count",
    "pauli.multiply.calls": "count",
    "trace.overhead_frac": "ratio",
}


def load():
    """Import the benchmark's workload module, and twep with it, from this
    checkout's ``src/``."""
    if not (SRC / "twep" / "__init__.py").is_file():
        raise SystemExit(f"no twep sources under {SRC}; run from a source checkout")
    for key in CLEARED_ENV:
        os.environ.pop(key, None)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """(scaled, wall) seconds to import twep and build the first round's
    inputs."""
    before = reference_work()
    start = time.perf_counter()
    load().Workload(workload, seed).round()
    seconds = time.perf_counter() - start
    return seconds * 2 * REFERENCE_S / (before + reference_work()), seconds


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """``setup_once`` in fresh processes, as a CLI user pays it."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(tuple(json.loads(done.stdout.splitlines()[-1])))
    return samples


def run_task(bench, task, tracer=None, task_id=0):
    """Run one task on a cold enumeration cache.  Returns (seconds, result);
    a task that raises yields its exception as the result."""
    bench.clear_caches()
    begun = time.perf_counter()
    try:
        if tracer is None:
            result = task.run()
        else:
            result = tracer.run_task(task_id, task.run)
    except Exception as exc:
        result = exc
    return time.perf_counter() - begun, result


_ROWS = [tuple((i * j) % 2 for j in range(127)) for i in range(600)]


def reference_work() -> float:
    """Seconds taken by a fixed pure-Python computation shaped like twep's
    inner loops: building small tuples and dicts, and zipped products over
    a few hundred wide tuples."""
    start = time.perf_counter()
    xs, zs = tuple(range(64)), tuple(range(64, 128))
    acc = 0
    for r in range(400):
        t = tuple((a + r) & 1 for a in xs)
        u = tuple((b * r) % 3 for b in zs)
        acc += sum(p * q - q for p, q in zip(t, u)) % 2
        acc += len({i: t[i] for i in range(0, 64, 4)})
    for p in _ROWS[:2]:
        for q in _ROWS:
            total = 0
            for a, b in zip(p, q):
                total += a * b
            acc += total & 1
    return time.perf_counter() - start


def run_round(bench, tasks, ledger, tracer=None):
    """Run every task once, checking each verdict as it comes (untimed).

    Returns (scaled, wall): seconds by task label.  ``scaled`` multiplies
    each wall time by REFERENCE_S over the mean of the reference times
    measured just before and just after the task.
    """
    scaled, wall = {}, {}
    before = reference_work()
    for index, task in enumerate(tasks):
        seconds, result = run_task(bench, task, tracer, index)
        after = reference_work()
        ledger.record(task, result)
        # Drop the result before the next task, so peak memory does not
        # depend on task order.
        del result
        wall[task.label] = seconds
        scaled[task.label] = seconds * 2 * REFERENCE_S / (before + after)
        before = after
    return scaled, wall


class Ledger:
    """Verdict bookkeeping: failed task ids and deferred oracle checks."""

    def __init__(self):
        self.attempted = 0
        self.failed: dict[int, list[str]] = {}
        self._later = []

    def record(self, task, result):
        task_id = self.attempted
        self.attempted += 1
        problems = task.verdict(result)
        if problems:
            self.failed[task_id] = problems
        elif task.later is not None:
            self._later.append((task_id, task.label, task.later(result)))

    def run_deferred(self):
        for task_id, label, check in self._later:
            try:
                problems = check()
            except Exception as exc:
                problems = [f"oracle raised {type(exc).__name__}: {exc}"]
            if problems:
                self.failed.setdefault(task_id, []).extend(f"{label}: {p}" for p in problems)
        self._later.clear()


def summarize(rounds: list[dict[str, float]]) -> tuple[float, float, float]:
    """(batch, p50, max): the median round total, and the median and the
    largest of each task's median over rounds."""
    typical = [statistics.median(times[label] for times in rounds) for label in rounds[0]]
    batch = statistics.median(sum(times.values()) for times in rounds)
    return batch, statistics.median(typical), max(typical)


def layer_metrics(summary: dict, rounds: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics per traced round, every name in PER_LAYER."""
    per_round = {name: value / rounds for name, value in summary.items()}

    def frac(part, whole):
        whole = per_round.get(whole, 0)
        return per_round.get(part, 0) / whole if whole else 0.0

    per_round["stabilizer.complete_discard.accept_frac"] = frac(
        "stabilizer.complete_discard.accepted", "stabilizer.complete_discard.candidates")
    per_round["errorspace.filter_by_outcome.kept_frac"] = frac(
        "errorspace.filter_by_outcome.kept", "errorspace.filter_by_outcome.scanned")
    per_round["trace.overhead_frac"] = overhead
    return {name: per_round.get(name, 0) for name in PER_LAYER}


def source_digest() -> str:
    """SHA-256 over the package sources, to tell builds apart without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "twep").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.setup_only:
        print(json.dumps(setup_once(args.workload, args.seed)))
        return 0

    bench = load()
    from tracing import Tracer, layer_points

    import twep

    setup = setup_seconds(args.workload, args.seed)
    workload = bench.Workload(args.workload, args.seed)
    ledger = Ledger()
    plain, walls, traced = [], [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        scaled, wall = run_round(bench, workload.round(), ledger)
        plain.append(scaled)
        walls.append(wall)
        if len(plain) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tasks = workload.round(tracer)
            with tracer.installed(layer_points(bench)):
                scaled, _ = run_round(bench, tasks, ledger, tracer)
            traced.append(sum(scaled.values()))
        # Stop at the round boundary nearest to the time budget.
        now = time.perf_counter()
        if now - start + (now - begun) / 2 >= args.seconds:
            break
    ledger.run_deferred()

    batch_s, p50, slowest = summarize(plain)
    if args.trace:
        overhead = statistics.median(traced) / batch_s - 1
        metrics = layer_metrics(tracer.summary(), len(traced), overhead)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(scaled for scaled, _ in setup),
            "batch_s": batch_s,
            "task_s.p50": p50,
            "task_s.max": slowest,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    for problems in ledger.failed.values():
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
    backend = twep.kernel_backend()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "tasks_per_round": len(plain[0]),
        "failed_frac": len(ledger.failed) / ledger.attempted,
        "wall": dict(zip(("batch_s", "task_s.p50", "task_s.max"), summarize(walls)),
                     setup_s=statistics.median(wall for _, wall in setup)),
        "reference_s": REFERENCE_S,
        "python": platform.python_version(),
        "kernel_backend": backend,
        # Runs are comparable only when this key matches.
        "comparable_key": f"python-{platform.python_version()}/{backend}",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "computed_counts": [
            "stabilizer.complete_discard.candidates",
            "errorspace.filter_by_outcome.scanned",
            "kernels.best_splitter.pair_checks",
            "kernels.min_weight_excluding_span.operators",
        ],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not ledger.failed,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
