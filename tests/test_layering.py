"""The package's import layers: the lower modules import nothing from the upper ones."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import motioncomfort
from motioncomfort import traceio, transmission

PACKAGE = Path(motioncomfort.__file__).resolve().parent
LOWER = ("svc", "traceio", "frf", "spectral")
UPPER = {"transmission", "metrics", "report", "cli"}


def _imported_modules(module: str) -> set[str]:
    """The package modules that `module` imports, at any depth of its source."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import ...
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("motioncomfort."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("motioncomfort.")
            )
    return found


@pytest.mark.parametrize("module", LOWER)
def test_lower_modules_import_nothing_from_upper_layers(module):
    imported = _imported_modules(module)
    assert "errors" in imported  # the scan sees the imports every module makes
    assert imported & UPPER == set()


def test_motion_trace_is_one_class():
    assert motioncomfort.MotionTrace is traceio.MotionTrace
    assert transmission.MotionTrace is traceio.MotionTrace
