"""The package's layers: the lower modules import nothing from the upper ones, and only
`runtime` starts threads or processes."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motioncomfort
from motioncomfort import traceio, transmission

PACKAGE = Path(motioncomfort.__file__).resolve().parent
LOWER = ("svc", "traceio", "frf", "spectral")
UPPER = {"transmission", "metrics", "report", "cli"}
# Calls that start threads or processes: threading.Thread, concurrent.futures' pools, a
# multiprocessing context or process, os.fork.  A threading.Lock starts nothing.
RUNNERS = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "get_context", "Process", "fork"}


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


def _called_names(module: str) -> set[str]:
    """The last name of each callee in `module`'s source: ``Thread`` for ``threading.Thread()``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "") for f in calls}


@pytest.mark.parametrize("module", LOWER)
def test_lower_modules_import_nothing_from_upper_layers(module):
    imported = _imported_modules(module)
    assert "errors" in imported  # the scan sees the imports every module makes
    assert imported & UPPER == set()


def test_motion_trace_is_one_class():
    assert motioncomfort.MotionTrace is traceio.MotionTrace
    assert transmission.MotionTrace is traceio.MotionTrace


def test_runtime_imports_no_package_module():
    # The CPU runners sit below every layer, so any module may call them.
    assert _imported_modules("runtime") == set()


def test_only_runtime_starts_threads_or_processes():
    modules = [path.stem for path in PACKAGE.glob("*.py")]
    starters = {module for module in modules if _called_names(module) & RUNNERS}
    assert starters == {"runtime"}  # spectral's plan lock is allowed


_SVC_RUN = """
import sys
import motioncomfort.cli

out = sys.argv[1]
assert motioncomfort.cli.main(["synth", "--duration", "30", "--out", out]) == 0
assert motioncomfort.cli.main(["assess", "--trace", out + "/trace.csv", "--out", out]) == 0
print(sorted(name for name in sys.modules if name.startswith(("scipy.signal", "scipy.stats"))))
"""


def test_an_svc_run_imports_neither_scipy_signal_nor_scipy_stats(tmp_path):
    # SVC loads lfilter's compiled filter from its file, since importing scipy.signal also
    # imports scipy.stats.  Where this scipy moved or changed that filter, SVC falls back to
    # importing lfilter, and this test fails.
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SVC_RUN, str(tmp_path)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "msi.csv").exists()
    assert proc.stdout.splitlines()[-1] == "[]"
