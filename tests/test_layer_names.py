"""Every name the benchmark's tracer wraps (``perfbench/tracing.py``,
``layer_points``) still resolves, so a traced run measures every layer.
Some of those names are imports a module keeps only for the tracer."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

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
