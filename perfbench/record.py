"""The context that decides whether two result sets are comparable."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _ram_gb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return round(int(line.split()[1]) * 1024 / 1e9, 2)
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str:
    # Only ask git when the checkout is a repository itself; otherwise git
    # would search the parent directories.
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources and data, identifying the code measured."""
    h = hashlib.sha256()
    package = root / "src" / "motioncomfort"
    for path in sorted(p for p in package.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_context(root: Path, versions: dict) -> dict:
    """Machine, interpreter and code identity; `versions` holds numpy and scipy's."""
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "ram_gb": _ram_gb(),
        "python": platform.python_version(),
        **versions,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": _git_commit(root),
        "source_digest": source_digest(root),
    }
