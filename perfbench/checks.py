"""Expected values from the time-domain oracle, and the per-item output checks.

The oracle is the program's independent path: `transmit`, then `assess`
under both regimes, then `run_svc` on the head trace.  It runs on the arrays
the input generator produced, not on the files the program parses.  Every
item's outputs are compared with it at the test suite's relative tolerance,
outside the timed region; a failed check marks the item failed and never
stops the run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import inputs

REL_TOL = 1e-9
AXES = inputs.AXES


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return float("inf")
    denom = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / denom


# -- oracle -------------------------------------------------------------------


def _seat(mc, data: np.ndarray):
    channels = {axis: data[1 + i] for i, axis in enumerate(AXES)}
    return mc.MotionTrace(sample_rate_hz=inputs.FS_HZ, channels=channels)


def _oracle(mc, seat, model: str):
    head, _ = mc.transmit(seat, mc.builtin_bundle(model))
    rc = mc.assess(head, mc.ride_comfort_regime())
    ms = mc.assess(head, mc.motion_sickness_regime())
    msi = mc.run_svc(head)
    values = {
        "rc": {"per_axis": dict(rc.per_axis), "total": rc.total},
        "ms": {"per_axis": dict(ms.per_axis), "total": ms.total},
        "msi_final": msi.final,
    }
    return values, head, msi


def expect(workload: str, seed: int, scale: str, out: Path, shard: int = 0, shards: int = 1) -> None:
    """Write the oracle's expected values for one (workload, seed) to `out`.

    compare-models can be split into `shards` processes, each taking every
    `shards`-th model; the other workloads run as a single shard.
    """
    import motioncomfort as mc

    size = inputs.SIZES[scale][workload]
    if workload == "assess-long":
        values, _, _ = _oracle(mc, _seat(mc, inputs.trace_array(seed, size["n"])), "EXP")
        doc = {"EXP": values, "n": size["n"]}
    elif workload == "compare-models":
        seat = _seat(mc, inputs.trace_array(seed, size["n"]))
        doc = {m: _oracle(mc, seat, m)[0] for m in inputs.MODELS[shard::shards]}
        doc["n"] = size["n"]
    else:
        lengths = inputs.ride_lengths(seed, size["rides"], size["min_s"], size["max_s"])
        heads, msis = [], []
        for i, n in enumerate(lengths):
            seat = _seat(mc, inputs.trace_array(seed * 1000 + i, n))
            _, head, msi = _oracle(mc, seat, inputs.ride_model(seed, i))
            heads.append(np.stack([head.channels[a] for a in AXES]))
            msis.append(msi.msi_percent)
        np.save(out / "heads.npy", np.concatenate(heads, axis=1))
        np.save(out / "msi.npy", np.concatenate(msis))
        doc = {"n": lengths}
    partial = out / f".expected-{shard}.json.part"
    partial.write_text(json.dumps(doc) + "\n")
    partial.rename(out / f"expected-{shard}.json")


def load_expected(out: Path) -> dict:
    """Merge the expected values of every shard in `out`."""
    want: dict = {}
    for path in sorted(out.glob("expected-*.json")):
        want.update(json.loads(path.read_text()))
    return want


# -- checks -------------------------------------------------------------------


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def _compare_values(got: dict, want: dict, label: str) -> list[str]:
    pairs = [(f"{r}.{a}", got[r]["per_axis"][a], want[r]["per_axis"][a])
             for r in ("rc", "ms") for a in AXES]
    pairs += [(f"{r}.total", got[r]["total"], want[r]["total"]) for r in ("rc", "ms")]
    pairs.append(("msi_final", got["msi_final"], want["msi_final"]))
    return [
        f"{label} {name}: got {g!r}, want {w!r}"
        for name, g, w in pairs
        if not rel_err(g, w) < REL_TOL
    ]


def _read_msi_csv(path: Path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "time_s,msi_percent":
            raise ValueError(f"{path.name}: unexpected header {header!r}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def check_assess(item_dir: Path, want: dict, n: int) -> list[str]:
    doc = _strict_json((item_dir / "report.json").read_text())
    got = {
        "rc": doc["rc"],
        "ms": doc["ms"],
        "msi_final": doc["msi"]["final"],
    }
    errors = _compare_values(got, want, "report.json")
    if doc["model_id"] != "EXP":
        errors.append(f"report.json model_id {doc['model_id']!r}")
    with open(item_dir / "msi.csv", "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 22), b"")) - 1
    if rows != n:
        errors.append(f"msi.csv has {rows} data rows, want {n}")
    if not (item_dir / "report.svg").read_text().startswith("<svg"):
        errors.append("report.svg is not an SVG document")
    return errors


def check_compare(rows: list[dict], want: dict) -> list[str]:
    errors = []
    if [r["model_id"] for r in rows] != list(inputs.MODELS):
        return [f"rows {[r['model_id'] for r in rows]}, want {list(inputs.MODELS)}"]
    base = want["NHM"]
    for row in rows:
        exp = want[row["model_id"]]
        got = {
            "rc": {"per_axis": row["rc_per_axis"], "total": row["rc_total"]},
            "ms": {"per_axis": row["ms_per_axis"], "total": row["ms_total"]},
            "msi_final": row["msi_final"],
        }
        errors += _compare_values(got, exp, row["model_id"])
        for r in ("rc", "ms"):
            ratio = exp[r]["total"] / base[r]["total"]
            if not rel_err(row[f"{r}_total_vs_nhm"], ratio) < REL_TOL:
                errors.append(f"{row['model_id']} {r}_total_vs_nhm {row[f'{r}_total_vs_nhm']!r}")
    return errors


def check_ride(item_dir: Path, head_want: np.ndarray, msi_want: np.ndarray) -> list[str]:
    errors = []
    with open(item_dir / "head.csv") as fh:
        header = fh.readline().strip()
        got = np.loadtxt(fh, delimiter=",", ndmin=2)[:, 1:].T
    if header != inputs.TRACE_HEADER:
        errors.append(f"head.csv has header {header!r}")
    if got.shape != head_want.shape or not np.array_equal(got, head_want):
        errors.append("head.csv does not reload bit-exactly to the transmitted head trace")
    msi = _read_msi_csv(item_dir / "msi.csv")
    n = head_want.shape[1]
    if msi.shape != (n, 2):
        errors.append(f"msi.csv has shape {msi.shape}, want ({n}, 2)")
    else:
        if not rel_err(msi[:, 0], np.arange(n) / inputs.FS_HZ) < REL_TOL:
            errors.append("msi.csv time column differs from the trace timeline")
        if not rel_err(msi[:, 1], msi_want) < REL_TOL:
            errors.append("msi.csv incidence differs from the oracle")
    return errors


def corrupted(want: dict) -> dict:
    """A copy of `want` with EXP's RC total off by 1 ppm, so a check must fail."""
    bad = json.loads(json.dumps(want))
    bad["EXP"]["rc"]["total"] *= 1.0 + 1e-6
    return bad
