"""The CPU runners that the spectral core, the RC/MS read-offs and trace I/O share, and the
loader of the compiled scipy modules they call.

`on_every_cpu` runs tasks on one thread per usable CPU (`usable_cpus`), and
`fork_map` runs them in forked processes; `scipy_kernel` loads a module.  This
module imports nothing from the package, so every layer may call it, and a
test patches ``usable_cpus``, ``BLOCK`` or ``_SCIPY_FILE`` here alone.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from importlib.machinery import EXTENSION_SUFFIXES
from types import ModuleType
from typing import Callable, Iterator

import numpy as np
import scipy

_SCIPY_FILE = f"{scipy.__path__[0]}/%s{EXTENSION_SUFFIXES[0]}"  # a compiled module's file
# Elements per block of every streamed loop, read as ``runtime.BLOCK`` at call time: a multiple of
# 64, so a block keeps a row's alignment for numpy's vector loops.  No output depends on it (>= 2).
BLOCK = 65536


def usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def scipy_kernel(name: str, path: str, check: Callable[[ModuleType], bool]) -> ModuleType:
    """scipy's compiled module `name`, loaded from its file (`path` under scipy's directory, no
    suffix) without the scipy modules above it, where that works and `check(module)`, exact in
    binary, is true; else imported as scipy imports it, with its public module.  A name already
    in sys.modules (imported, or hidden by None) is imported; a load's own entry is taken out."""
    if name in sys.modules:
        return importlib.import_module(name)
    try:  # a pybind11 module fails to initialise from ExtensionFileLoader.create_module alone
        spec = importlib.util.spec_from_file_location(name, _SCIPY_FILE % path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        if check(module):
            return module
    except Exception:  # no file, a load error, another API: scipy's own import runs the same code
        pass
    finally:
        sys.modules.pop(name, None)
    return importlib.import_module(name)


def on_every_cpu(task: Callable[[int], None], count: int) -> None:
    """Run ``task(i)`` for every i in range(count), on every usable CPU.

    The calling thread takes i = 0, k, 2k, ... and each of the k - 1 helper
    threads the indices after it; a count of 0 runs nothing.  Every thread is
    joined before this returns, and the first exception raised by any task is
    raised here.  Each thread runs its tasks with numpy's overflow and invalid
    results ignored; the stage that reads their output checks it for inf and NaN.
    """
    k = max(1, min(usable_cpus(), count))
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for i in range(first, count, k):
                    task(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(j,)) for j in range(1, k)]
    for thread in helpers:
        thread.start()
    run(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


def fork_map(workers: int, fn, tasks: list[tuple]) -> Iterator:
    """``fn(*args)`` for each tuple in `tasks`, yielded in order: in up to `workers` forked
    processes when that and the number of tasks are above one, inline otherwise.  At most two
    tasks per worker run ahead of the consumer, so a slow one holds a few results, not all."""
    workers = min(workers, len(tasks))
    if workers > 1:
        import multiprocessing
        from collections import deque
        from concurrent.futures import ProcessPoolExecutor

        # Only fork: spawn and forkserver would make every caller's script need a
        # __main__ guard.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                pending: deque = deque()
                for args in tasks:
                    pending.append(pool.submit(fn, *args))
                    if len(pending) > 2 * workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            return
    yield from (fn(*args) for args in tasks)
