"""The benchmark's span tracer patches leoican functions by module attribute.

``perfbench/tracing.py`` lists its (module, attribute) targets in
``TARGETS``; a target that no longer resolves makes ``--trace 1`` fail. The
list is read from the file's source so that the tracer itself is not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


@pytest.mark.parametrize("module, attribute", _targets())
def test_trace_target_resolves(module, attribute):
    owner = importlib.import_module(f"leoican.{module}")
    *path, leaf = attribute.split(".")
    for part in path:
        owner = owner.__dict__[part]
    assert callable(owner.__dict__[leaf])
