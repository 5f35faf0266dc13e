"""The public names the benchmark's layer tracer wraps stay callable."""

import ast
import importlib
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def layer_names() -> list[tuple[str, str]]:
    """The (module, function) pairs of ``LAYERS`` in bench/layertrace.py,
    read from its source without importing it."""
    tree = ast.parse(LAYERTRACE.read_text(encoding="utf-8"))
    (layers,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    ]
    return [(entry.elts[0].value, entry.elts[1].value) for entry in layers.elts]


def test_every_traced_layer_is_callable():
    names = layer_names()
    assert len(names) == 18
    missing = [
        f"winspell.{module}.{function}" for module, function in names
        if not callable(getattr(importlib.import_module(f"winspell.{module}"), function, None))
    ]
    assert missing == []
