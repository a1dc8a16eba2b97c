"""Span tracing for the benchmark's traced rounds.

Wrappers go on the names each caller resolves at call time, never on the
definitions: ``engine.filter_by_outcome`` (what ``generic_correction``
calls), ``synth._kernels.best_splitter`` (what ``choose_generator`` calls),
and so on.  The program's own code is unchanged, and uninstalling restores
every original object.

Each wrapped call records one span ``[name, start, end, parent, task]`` in
memory.  A span's self time is its duration minus the durations of its
direct children; calls are sequential in one thread, so children never
overlap.  The hot one-line helpers ``symplectic_product`` and ``multiply``
only get call counters, because a span would cost more than the call.

Size counters (candidates, scanned, pair_checks, operators) are computed
from argument sizes at the call boundary, not counted inside the program.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

TASK_SPAN = "bench.task"


class Tracer:
    """In-memory span recorder for one or more traced rounds."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._task = None

    def wrap(self, name, fn, count=None):
        """Transparent wrapper recording a span per call.

        ``count(result, *args)`` may return extra counters, keyed by full
        metric name, that are added after a successful call.
        """
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self._task]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if count is not None:
                counts.update(count(result, *args))
            return result

        return traced

    def counter(self, name, fn):
        """Transparent wrapper counting calls only."""
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def run_task(self, task_id, fn):
        """Call ``fn`` under a root span; every span inside carries task_id."""
        self._task = task_id
        try:
            return self.wrap(TASK_SPAN, fn)()
        finally:
            self._task = None

    @contextmanager
    def installed(self, points):
        """Install wrappers on ``(owner, attribute, name, count)`` points for
        the duration of the block; ``count`` is ``"calls"`` for a counter.
        Points whose attribute does not exist are skipped, so the benchmark
        keeps running when a later version of the program drops a name."""
        saved = []
        try:
            for owner, attr, name, count in points:
                if not hasattr(owner, attr):
                    continue
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                if count == "calls":
                    setattr(owner, attr, self.counter(name, original))
                else:
                    setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, in recording order."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self) -> dict[str, float]:
        """``<span>.calls`` and ``<span>.self_s`` for every span name, plus
        every counter."""
        out: Counter = Counter(self.counts)
        for (name, *_), own in zip(self.spans, self.self_times()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
        return dict(out)


def _discard_counts(result, s, registers):
    candidates = (s.d * s.d) ** len(frozenset(registers)) - 1
    return {
        "stabilizer.complete_discard.candidates": candidates,
        "stabilizer.complete_discard.accepted": len(result),
    }


def _filter_counts(result, errors, *_):
    return {
        "errorspace.filter_by_outcome.scanned": len(errors.members),
        "errorspace.filter_by_outcome.kept": len(result.members),
    }


def _verify_counts(report, *_):
    return {"engine.counterexamples": len(report.counterexamples)}


def _splitter_counts(_, span_x, span_z, comp_x, comp_z, err_x, *__):
    return {"kernels.best_splitter.pair_checks": ((1 << len(comp_x)) - 1) * len(err_x)}


def _scan_counts(_, span_x, span_z, comp_x, *__):
    return {
        "kernels.min_weight_excluding_span.operators": ((1 << len(comp_x)) - 1)
        << len(span_x)
    }


def layer_points(bench):
    """Every wrapping point: the program's internal call sites plus the
    benchmark module ``bench``'s own calls into the layers."""
    from twep import _kernels, cli, engine, errorspace, stabilizer, synth

    points = [
        (bench, "verify", "engine.verify", _verify_counts),
        (bench, "report_text", "engine.report_text", None),
        (bench, "min_normalizer_weight", "stabilizer.min_normalizer_weight", None),
        (engine, "simulate", "engine.simulate", None),
        (engine, "generic_correction", "engine.generic_correction", None),
        (engine, "complete_discard", "stabilizer.complete_discard", _discard_counts),
        (engine, "filter_by_outcome", "errorspace.filter_by_outcome", _filter_counts),
        (engine, "coset_classes", "errorspace.coset_classes", None),
        (errorspace, "enumerate_errors", "errorspace.enumerate_errors", None),
        (cli.greedy, "callback", "cli.greedy", None),
        (synth, "greedy_step_stats", "synth.greedy_step_stats", None),
        (synth, "verify", "engine.verify", _verify_counts),
        (synth, "simulate", "engine.simulate", None),
        (synth, "choose_generator", "synth.choose_generator", None),
        (synth, "split_counts", "synth.split_counts", None),
        (synth, "filter_by_outcome", "errorspace.filter_by_outcome", _filter_counts),
        (synth, "coset_classes", "errorspace.coset_classes", None),
        (_kernels, "best_splitter", "kernels.best_splitter", _splitter_counts),
        (_kernels, "min_weight_excluding_span", "kernels.min_weight_excluding_span", _scan_counts),
    ]
    for module in (engine, errorspace, stabilizer, synth):
        points.append((module, "symplectic_product", "pauli.symplectic_product", "calls"))
    for module in (engine, stabilizer, synth):
        points.append((module, "multiply", "pauli.multiply", "calls"))
    return points
