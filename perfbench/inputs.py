"""Seeded benchmark inputs, written with this package's own numpy code.

The program under test never generates its own inputs here: traces are built
from a seeded numpy generator and written in the documented trace CSV format
(header ``t_s,ax,ay,az,aroll,apitch,ayaw``, 17 significant digits), so a
change to ``synth_trace`` or ``save_trace`` cannot change what is measured.

Inputs are cached per (workload, seed) under ``.perfbench/cache`` and every
file is checked against the SHA-256 recorded in the entry's manifest before a
run uses it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

FS_HZ = 100.0
TRACE_HEADER = "t_s,ax,ay,az,aroll,apitch,ayaw"
AXES = ("x", "y", "z", "roll", "pitch", "yaw")
# Target RMS per axis (m/s^2, rad/s^2): a moderate road ride.
AXIS_RMS = {"x": 0.4, "y": 0.3, "z": 0.8, "roll": 0.05, "pitch": 0.06, "yaw": 0.04}
MODELS = ("EXP", "AHM", "EHM", "NHM")
KEEP_ENTRIES = 2  # cached seeds kept per workload; the 281 MB CSV makes more costly

#: Input sizes per scale.  "full" is the benchmark; "tiny" is for the smoke test.
SIZES = {
    "full": {
        # n = 2^2 * 5^2 * 29 * 683: the 683 factor sends pocketfft to Bluestein.
        "assess-long": {"n": 1_980_700},
        # n = 2^7 * 5^6: a fast FFT length.
        "compare-models": {"n": 2_000_000},
        "ride-batch": {"rides": 100, "min_s": 60.0, "max_s": 180.0},
    },
    "tiny": {
        "assess-long": {"n": 2 * 683},
        "compare-models": {"n": 2_000},
        "ride-batch": {"rides": 6, "min_s": 20.0, "max_s": 40.0},
    },
}


def factorise(n: int) -> list[int]:
    """Prime factors of n in ascending order, with multiplicity."""
    factors, p = [], 2
    while p * p <= n:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def _lowpass_taps(cutoff_hz: float, n_taps: int = 101) -> np.ndarray:
    k = np.arange(n_taps) - (n_taps - 1) / 2.0
    taps = np.sinc(2.0 * cutoff_hz / FS_HZ * k) * np.hamming(n_taps)
    return taps / taps.sum()


def trace_array(seed: int, n: int) -> np.ndarray:
    """A (7, n) array: time column then x, y, z, roll, pitch, yaw.

    Each axis is low-passed white noise (4 Hz translational, 2 Hz
    rotational) scaled to a seeded RMS near `AXIS_RMS`; z also carries a
    seeded tone between 0.5 and 2 Hz.
    """
    rng = np.random.default_rng(seed)
    data = np.empty((7, n))
    data[0] = np.arange(n) / FS_HZ
    for i, axis in enumerate(AXES):
        taps = _lowpass_taps(4.0 if i < 3 else 2.0)
        noise = np.convolve(rng.standard_normal(n + taps.size - 1), taps, mode="valid")
        noise *= AXIS_RMS[axis] * rng.uniform(0.8, 1.2) / np.sqrt(np.mean(noise * noise))
        data[1 + i] = noise
    f0, phase = rng.uniform(0.5, 2.0), rng.uniform(0.0, 2.0 * np.pi)
    data[3] += 0.5 * np.sin(2.0 * np.pi * f0 * data[0] + phase)
    return data


def ride_lengths(seed: int, rides: int, min_s: float, max_s: float) -> list[int]:
    """Seeded ride lengths in samples, drawn in antithetic pairs.

    Each pair sums to (min_s + max_s) * FS_HZ, so the total work of a batch
    is the same for every seed while the individual lengths (and their
    factorisations) vary.
    """
    rng = np.random.default_rng([seed, 1])
    lo, hi = int(min_s * FS_HZ), int(max_s * FS_HZ)
    half = [int(v) for v in rng.integers(lo, hi + 1, size=(rides + 1) // 2)]
    lengths = [v for a in half for v in (a, lo + hi - a)][:rides]
    return [int(v) for v in rng.permutation(lengths)]


def ride_model(seed: int, index: int) -> str:
    """The bundle a ride is transmitted through: one of the fixture bundles."""
    return MODELS[(seed + index) % 3]


def write_trace_csv(path: Path, data: np.ndarray) -> None:
    """Write a (7, n) array as a trace CSV with 17 significant digits."""
    fmt_row = ",".join(["%.17g"] * 7) + "\n"
    rows = data.T
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for start in range(0, rows.shape[0], 100_000):
            block = rows[start : start + 100_000]
            fh.write((fmt_row * block.shape[0]) % tuple(block.ravel().tolist()))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 22), b""):
            h.update(chunk)
    return h.hexdigest()


def _generator_digest() -> str:
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]


def entry_dir(cache_root: Path, workload: str, seed: int, scale: str) -> Path:
    return cache_root / scale / workload / f"seed{seed}"


def _write_inputs(entry: Path, workload: str, seed: int, size: dict) -> dict:
    """Generate one entry's files; returns the manifest without digests."""
    if workload == "assess-long":
        n = size["n"]
        write_trace_csv(entry / "trace.csv", trace_array(seed, n))
        return {"files": ["trace.csv"], "n": [n], "trace_s": n / FS_HZ}
    if workload == "compare-models":
        n = size["n"]
        np.save(entry / "trace.npy", trace_array(seed, n))
        return {"files": ["trace.npy"], "n": [n], "trace_s": n / FS_HZ}
    lengths = ride_lengths(seed, size["rides"], size["min_s"], size["max_s"])
    files = []
    for i, n in enumerate(lengths):
        name = f"ride{i:03d}.csv"
        write_trace_csv(entry / name, trace_array(seed * 1000 + i, n))
        files.append(name)
    return {
        "files": files,
        "n": lengths,
        "models": [ride_model(seed, i) for i in range(len(lengths))],
        "trace_s": sum(lengths) / FS_HZ,
    }


def prepare(cache_root: Path, workload: str, seed: int, scale: str) -> dict:
    """Return the verified manifest of the (workload, seed) inputs.

    Reuses a cached entry when its manifest matches this generator and every
    file still has its recorded digest; otherwise regenerates the entry.
    Older entries of the workload beyond `KEEP_ENTRIES` are evicted.
    """
    entry = entry_dir(cache_root, workload, seed, scale)
    manifest_path = entry / "inputs.json"
    generator = _generator_digest()
    manifest = None
    if manifest_path.exists():
        cached = json.loads(manifest_path.read_text())
        if cached.get("generator") == generator and all(
            (entry / name).exists() and sha256_file(entry / name) == digest
            for name, digest in cached["digests"].items()
        ):
            manifest = cached
            os.utime(manifest_path)
    if manifest is None:
        shutil.rmtree(entry, ignore_errors=True)
        entry.mkdir(parents=True)
        manifest = _write_inputs(entry, workload, seed, SIZES[scale][workload])
        manifest.update(
            workload=workload,
            seed=seed,
            scale=scale,
            generator=generator,
            sample_rate_hz=FS_HZ,
            factors={str(n): factorise(n) for n in sorted(set(manifest["n"]))},
            digests={name: sha256_file(entry / name) for name in manifest["files"]},
        )
        whole = hashlib.sha256()
        for name in manifest["files"]:
            whole.update(f"{name}:{manifest['digests'][name]}\n".encode())
        manifest["digest"] = whole.hexdigest()
        manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    _evict(entry.parent, keep=entry)
    return manifest


def _evict(workload_dir: Path, keep: Path) -> None:
    entries = sorted(
        (p for p in workload_dir.iterdir() if p.is_dir() and p != keep),
        key=lambda p: (p / "inputs.json").stat().st_mtime if (p / "inputs.json").exists() else 0.0,
        reverse=True,
    )
    for stale in entries[KEEP_ENTRIES - 1 :]:
        shutil.rmtree(stale, ignore_errors=True)
