"""The package's public names, the functions the benchmark traces, and the
README's cross-references.

``perfbench/spans.py`` wraps each ``(layer, name)`` of its ``TRACED`` table by
``getattr`` on ``paritylab.<layer>``: renaming or deleting one of them breaks
every traced benchmark run, so the table is checked here against the package.
The README names the docstring that holds each derivation, and the docstrings
cite README sections, so a rename on either side is caught here too.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import paritylab

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


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


def _resolve(dotted: str) -> object:
    """The object a dotted name denotes: its longest importable prefix, then
    ``getattr`` for each further part; None if either step fails."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for part in parts[i:]:
            obj = getattr(obj, part, None)
        return obj
    return None


def test_readme_cross_references_resolve():
    readme = README.read_text(encoding="utf-8")
    # every `paritylab.x.y` the README names is documented where it points
    names = set(re.findall(r"`(paritylab(?:\.\w+)+)`", readme))
    assert names
    assert [n for n in sorted(names) if not (getattr(_resolve(n), "__doc__", None) or "").strip()] == []
    # every `test_x` (`path.py`) the README cites is defined in that file
    tests = re.findall(r"`(test_\w+)`\s+\(`([\w/]+\.py)`\)", readme)
    assert tests
    defined = {
        path: {node.name for node in ast.parse((ROOT / path).read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef)}
        for path in {path for _, path in tests}
    }
    assert [(name, path) for name, path in tests if name not in defined[path]] == []
    # every "(README, *X*)" citation under src/ names a "## X" heading
    headings = set(re.findall(r"^## (.+?)\s*$", readme, re.M))
    cited = [
        (path.name, " ".join(title.split()))
        for path in sorted((ROOT / "src").rglob("*.py"))
        for title in re.findall(r"README,\s+\*([^*]+)\*", path.read_text(encoding="utf-8"))
    ]
    assert [(name, title) for name, title in cited if title not in headings] == []
