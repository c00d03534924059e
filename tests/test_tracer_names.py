"""The benchmark tracer rebinds trispin functions by name.

``bench/tracer.py`` lists them in ``TRACED``; a refactor that drops or
renames one of them would only surface when the benchmark runs with tracing
on.  The list is read from the file's source (the file is not imported), and
every name must resolve in the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACER}")


def test_tracer_lists_names():
    assert len(traced_names()) > 0


@pytest.mark.parametrize("module_name, attr", traced_names())
def test_traced_name_resolves(module_name, attr):
    target = importlib.import_module(f"trispin.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)
