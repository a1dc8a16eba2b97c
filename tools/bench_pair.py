#!/usr/bin/env python3
"""Compare the benchmark on a parent commit and on the working tree, in
alternating pairs, and write one BENCH_<pr>.json record.

    python3 tools/bench_pair.py --parent HEAD~1 --workload verify-wide \\
        --seeds 101-110 --seconds 25 --out BENCH_5.json [--claim verify-wide:batch_s]

Run from the root of a git checkout.  The parent is exported with
``git archive``; the working tree is copied as git sees it (tracked and
untracked files, ignored files left out).  Both copies go to a temporary
directory and ``perfbench/run.py --trace 0`` runs inside each, one process
per run.  Each seed is one pair; in pair k (counted over every workload)
the parent runs first when k is even and second when k is odd.
``--workload`` may be repeated.

For each workload and metric the record holds the quartiles of each side
over the seeds (inclusive method), ``change_wins`` (pairs in which the
change is strictly lower, as every metric is better lower; ties count for
neither side) and ``relative_change`` ((change median - parent median) /
parent median).
``--claim WORKLOAD:METRIC`` also records whether the change won at least
nine of every ten pairs and its median beat the parent's by more than the
parent's interquartile range.

After the pairs, ``perfbench/run.py --trace 1`` runs once per side per
workload, on the first seed; ``per_layer`` holds each of its metrics as
the parent's value, the change's value and ``relative_change``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

METRICS = ("setup_s", "batch_s", "task_s.p50", "task_s.max", "peak_rss_mb", "failed")


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 6), "median": round(median, 6), "q3": round(q3, 6)}


def summarize(parent: list[float], change: list[float]) -> dict:
    """Quartiles of each side, pairwise wins of the change and the relative
    change of the medians; pair i is (parent[i], change[i])."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of runs on each side")
    out = {
        "parent": quartiles(parent),
        "change": quartiles(change),
        "change_wins": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(parent),
    }
    base = statistics.median(parent)
    if base:
        out["relative_change"] = round((statistics.median(change) - base) / base, 4)
    return out


def layer_changes(parent: dict, change: dict) -> dict:
    """Parent value, change value and relative change of every metric of
    one traced run per side; a metric missing on one side counts as 0."""
    out = {}
    for name in sorted(parent.keys() | change.keys()):
        p, c = parent.get(name, 0), change.get(name, 0)
        out[name] = {"parent": p, "change": c}
        if p:
            out[name]["relative_change"] = round((c - p) / p, 4)
    return out


def claim_holds(summary: dict) -> dict:
    """The claimed-gain test: at least nine wins in every ten pairs, and a
    median gap wider than the parent's interquartile range."""
    parent, change = summary["parent"], summary["change"]
    gap = parent["median"] - change["median"]
    iqr = parent["q3"] - parent["q1"]
    wins = summary["change_wins"]
    return {
        "change_wins": wins,
        "pairs": summary["pairs"],
        "median_gap": round(gap, 6),
        "parent_iqr": round(iqr, 6),
        "holds": 10 * wins >= 9 * summary["pairs"] and gap > iqr,
    }


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def git(*args: str, binary: bool = False):
    done = subprocess.run(["git", *args], capture_output=True, check=True)
    return done.stdout if binary else done.stdout.decode().strip()


def export_parent(ref: str, target: Path) -> None:
    archive = git("archive", "--format=tar", ref, binary=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)


def export_working_tree(target: Path) -> None:
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", binary=True)
    for name in filter(None, listed.decode().split("\0")):
        source = Path(name)
        if source.is_file():
            (target / source).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / source)


def run_once(tree: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> tuple[dict, dict]:
    """(metric values, run metadata) of one benchmark run."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(command)} in {tree} failed:\n{done.stderr}")
    lines = done.stdout.splitlines()
    meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    values["failed"] = result["failed"]
    return values, meta


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "os": f"{platform.system()} {platform.machine()}",
        "memory_gb": round(memory, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="A-B, inclusive")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--note", default="", help="one line describing the change")
    args = parser.parse_args(argv)

    parent_commit = git("rev-parse", args.parent)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain"))
    runs = {w: {"parent": [], "change": []} for w in args.workload}
    traced = {w: {} for w in args.workload}
    meta = {}
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as scratch:
        trees = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        export_parent(parent_commit, trees["parent"])
        export_working_tree(trees["change"])
        pair = 0
        for workload in args.workload:
            for seed in args.seeds:
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    values, meta = run_once(trees[side], workload, seed, args.seconds)
                    runs[workload][side].append(values)
                    print(f"pair {pair} {workload} seed {seed} {side}: "
                          f"batch_s {values['batch_s']:.4f}", file=sys.stderr)
                pair += 1
        for workload in args.workload:
            for side in ("parent", "change"):
                traced[workload][side], _ = run_once(
                    trees[side], workload, args.seeds[0], args.seconds, trace=1)
                print(f"traced {workload} seed {args.seeds[0]} {side}", file=sys.stderr)

    end_to_end = {}
    for workload, sides in runs.items():
        entry = {"seeds": args.seeds}
        for metric in METRICS:
            entry[metric] = summarize(*([run[metric] for run in sides[side]]
                                        for side in ("parent", "change")))
        end_to_end[workload] = entry
    claimed = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claimed = {"workload": workload, "metric": metric,
                   **claim_holds(end_to_end[workload][metric])}
    record = {
        "change": args.note,
        "machine": machine(),
        "python": platform.python_version(),
        "kernel_backend": meta.get("kernel_backend"),
        "parent_commit": parent_commit,
        "change_commit": f"{head} plus uncommitted changes" if dirty else head,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{args.seconds:g} --trace 0, from a clean copy of each tree",
        "protocol": "one run per side per seed, sides alternated across the pairs "
                    "(even pair index: parent first); times are the benchmark's "
                    "scaled seconds; quartiles are inclusive over the seeds; "
                    "change_wins counts pairs the change wins strictly; "
                    "relative_change is (change median - parent median) / parent median",
        "per_layer_command": f"python3 perfbench/run.py --workload W --seed "
                             f"{args.seeds[0]} --seconds {args.seconds:g} --trace 1, "
                             f"once per side",
        "claimed": claimed,
        "end_to_end": end_to_end,
        "per_layer": {w: layer_changes(sides["parent"], sides["change"])
                      for w, sides in traced.items()},
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
