"""The package's layers: the lower modules import nothing from the upper ones, and only
`runtime` starts threads or processes."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import motioncomfort
from motioncomfort import runtime, spectral, svc, traceio, transmission

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


def test_no_task_run_on_every_cpu_sets_its_own_numpy_error_state():
    # runtime.on_every_cpu runs every task under one np.errstate: a task's own would be a
    # second copy of that rule.
    tasks = {}
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = {
            getattr(call.args[0], "id", None)
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "on_every_cpu"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in names:
                tasks[f"{path.stem}.{node.name}"] = {
                    n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                }
    assert {"metrics.read_off", "transmission.build", "transmission.invert"} <= set(tasks)
    assert [task for task, attrs in tasks.items() if "errstate" in attrs] == []


# The scipy modules that the compiled kernels' from-file loads keep out of a run.
PUBLIC_SCIPY = ("scipy.fft", "scipy.special", "scipy.io", "scipy.sparse", "scipy.signal",
                "scipy.stats")

_CLI_RUN = """
import sys
import motioncomfort.cli

out = sys.argv[1]
trace = out + "/trace.csv"
for verb in (
    ["synth", "--duration", "30"],
    ["assess", "--trace", trace],
    ["transmit", "--trace", trace],
    ["svc", "--trace", out + "/head.csv"],
    ["compare", "--trace", trace, "--models", "EXP,NHM"],
):
    assert motioncomfort.cli.main(verb + ["--out", out]) == 0, verb
print(sorted({".".join(name.split(".")[:2]) for name in sys.modules} & set(sys.argv[2:])))
"""


def _python(script: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


def test_every_verb_runs_without_importing_scipy_fft_io_or_signal(tmp_path):
    # pocketfft, the Matrix Market reader and lfilter's filter are loaded from their files,
    # since importing scipy.fft, scipy.io or scipy.signal costs 0.1 to 0.6 s a process.  Where
    # this scipy moved or changed one of them, it is imported as usual, and this test fails.
    proc = _python(_CLI_RUN, str(tmp_path), *PUBLIC_SCIPY)
    assert proc.returncode == 0, proc.stderr
    assert {"msi.csv", "head.csv", "comparison.csv"} <= {p.name for p in tmp_path.iterdir()}
    assert proc.stdout.splitlines()[-1] == "[]"


_BITS = """
import hashlib, sys
if sys.argv[1] == "forced":  # every from-file load fails: each kernel is imported as usual
    import importlib.util
    importlib.util.spec_from_file_location = lambda *args, **kwargs: None
import numpy as np
from motioncomfort import runtime, spectral, svc, traceio

digest = hashlib.sha256()
for n in (4096, 6007, 68300):  # a fast, a Bluestein and a split length
    x = np.random.default_rng(n).standard_normal(n)
    bins = spectral.rfft(x)
    for spectrum in (bins, bins[: n // 3]):  # whole, and padded with zeros
        digest.update(bins.tobytes() + spectral.irfft(spectrum, n).tobytes())
trace = traceio.synth_trace(traceio.DEMO_COMPONENTS, 30.0, 100.0)
traceio.save_trace(trace, sys.argv[2])
traceio._MIN_CHUNK_BYTES = 1
for cpus in (1, 2):  # inline, then in forked workers where the platform can fork
    runtime.usable_cpus = lambda: cpus
    loaded = traceio.load_trace(sys.argv[2])
    digest.update(b"%r" % loaded.sample_rate_hz)
    digest.update(b"".join(loaded.channels[axis].tobytes() for axis in traceio.AXES))
for values in svc.svc_states(loaded).values():
    digest.update(values.tobytes())
imported = {".".join(name.split(".")[:2]) for name in sys.modules}
print(digest.hexdigest(), sorted(imported & set(sys.argv[3:])))
"""


def test_each_kernel_imported_as_usual_gives_the_bits_of_its_file_load(tmp_path):
    # rfft and irfft, synth_trace, load_trace inline and forked, and all 13 SVC states.
    runs = {}
    for how in ("loaded", "forced"):
        proc = _python(_BITS, how, str(tmp_path / f"{how}.csv"), *PUBLIC_SCIPY)
        assert proc.returncode == 0, proc.stderr
        runs[how] = proc.stdout.split(maxsplit=1)
    assert runs["forced"][0] == runs["loaded"][0]
    assert runs["loaded"][1].strip() == "[]"
    assert all(f"'{m}'" in runs["forced"][1] for m in ("scipy.fft", "scipy.io", "scipy.signal"))
    assert (tmp_path / "loaded.csv").read_bytes() == (tmp_path / "forced.csv").read_bytes()


_KERNELS = {
    "pocketfft": ("scipy.fft._pocketfft.pypocketfft", "fft/_pocketfft/pypocketfft",
                  spectral._transforms_exactly, "r2c"),
    "matrix-market": ("scipy.io._fast_matrix_market._fmm_core", "io/_fast_matrix_market/_fmm_core",
                      traceio._reads_exactly, "read_body_array"),
    "lfilter": ("scipy.signal._sigtools", "signal/_sigtools", svc._filters_exactly,
                "_linear_filter"),
}


@pytest.mark.parametrize("name, path, check, function", _KERNELS.values(), ids=_KERNELS)
def test_a_loaded_kernel_that_fails_its_exact_check_is_refused(
    monkeypatch, name, path, check, function
):
    monkeypatch.delitem(sys.modules, name, raising=False)
    loaded = runtime.scipy_kernel(name, path, check)
    assert name not in sys.modules and check(loaded)  # loaded from its file, and exact
    real = getattr(loaded, function)

    def nudged(*args):  # the real call, with its first output value one ulp up
        result = real(*args)
        values = args[1] if result is None else result[0] if isinstance(result, tuple) else result
        values.flat[0] = np.nextafter(values.flat[0].real, np.inf)
        return result

    off = types.SimpleNamespace(**{**vars(loaded), function: nudged})
    assert not check(off)
    refused = runtime.scipy_kernel(name, path, lambda module: check(off))
    assert refused is sys.modules[name]  # imported as usual: a file load leaves no entry
    assert ".".join(name.split(".")[:2]) in sys.modules
