"""Every name the benchmark's tracer wraps (``perfbench/tracing.py``,
``layer_points``) still resolves, so a traced run measures every layer.
Some of those names are imports a module keeps only for the tracer."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

from click.testing import CliRunner

from twep import cli, synth
from twep.engine import Report, verify
from twep.pauli import parse
from twep.protocols import FIVE_QUBIT_GENERATORS, nine_pair, qutrit_four
from twep.stabilizer import StabilizerSet, min_normalizer_weight

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_every_traced_name_resolves():
    # The benchmark module's own calls into the layers.
    bench = SimpleNamespace(verify=None, report_text=None, min_normalizer_weight=None)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for owner, attr, name, _ in tracing.layer_points(bench)
        if not hasattr(owner, attr)
    ]
    assert missing == []


def test_a_traced_run_reaches_every_kernel():
    """The tracer's wrappers and counters accept the program's arguments:
    verify on qubits and qutrits, greedy through the CLI and one distance
    run under every wrapping point raise nothing, and the kernels and
    discard completion are reached."""
    bench = SimpleNamespace(
        verify=verify,
        report_text=Report.to_text,
        min_normalizer_weight=min_normalizer_weight,
    )
    code = StabilizerSet(2, 5, [parse(g, 2) for g in FIVE_QUBIT_GENERATORS])
    tracer = tracing.Tracer()
    with tracer.installed(tracing.layer_points(bench)):
        for strategy in (nine_pair(), qutrit_four()):
            report = bench.verify(strategy)
            assert report.passed and bench.report_text(report)
        greedy = CliRunner().invoke(cli.main, ["greedy", "--n", "6", "--t", "1"])
        assert greedy.exception is None or isinstance(greedy.exception, SystemExit)
        assert greedy.exit_code == 0
        assert bench.min_normalizer_weight(code) == 3
    summary = tracer.summary()
    for name in (
        "kernels.best_splitter",
        "kernels.min_weight_excluding_span",
        "stabilizer.complete_discard",
    ):
        assert summary.get(f"{name}.calls", 0) > 0, name
    # The counters read the kernels' arguments by position: the complement
    # (2(n - rank) rows), the errors and the span.  Each greedy Measure
    # node but the root, which is split in closed form, is one splitter
    # call on its survivors.
    splits = synth._synthesize(6, 1)[2]
    below_root = {entries: split for entries, split in splits.items() if entries}
    assert len(splits) - 1 == len(below_root)
    assert summary["kernels.best_splitter.calls"] == len(below_root) == 10
    assert summary["kernels.best_splitter.pair_checks"] == sum(
        ((1 << 2 * (6 - len(entries))) - 1) * total
        for entries, (_, _, _, total) in below_root.items()
    ) == 102_780 - 4_095 * 19 == 24_975
    assert summary["kernels.min_weight_excluding_span.operators"] == 48
