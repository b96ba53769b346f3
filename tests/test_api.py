"""The package's public names, and the functions the benchmark traces.

``perfbench/spans.py`` wraps each ``(layer, name)`` of its ``TRACED`` table by
``getattr`` on ``paritylab.<layer>``: renaming or deleting one of them breaks
every traced benchmark run, so the table is checked here against the package.
"""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import paritylab

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> dict[str, tuple[str, ...]]:
    # spans.py imports only the standard library, so it loads by path alone
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_public_name_is_defined():
    assert [name for name in paritylab.__all__ if not hasattr(paritylab, name)] == []


def test_every_traced_function_resolves():
    traced = _traced()
    assert traced
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"paritylab.{layer}"), name, None))
    ]
    assert missing == []
