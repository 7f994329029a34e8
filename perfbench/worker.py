"""One phase of one benchmark run, in its own process.

    python3 perfbench/worker.py <phase> <spec.json> <result.json>

Phases: ``inputs`` (generate or verify the cached inputs), ``expect`` (the
oracle's expected values), ``probe`` (set-up time only) and ``run`` (the
timed passes, optionally traced, then the check of every item against the
expected values).  `run.py` starts them one after another, so
the ``run`` process's peak RSS and set-up time belong to that run alone.

Nothing heavy is imported at module level: ``probe`` and ``run`` start their
set-up clock before the first import of ``motioncomfort`` (and with it numpy
and scipy).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# compare-models passes are short (~8 s), so three of them fit the run budget
# and their median steadies it; the other workloads run one pass.
MIN_PASSES = {"compare-models": 3}


def workload_models(workload: str) -> tuple[str, ...]:
    return {"assess-long": ("EXP",), "ride-batch": ("EXP", "AHM", "EHM")}.get(
        workload, ("EXP", "AHM", "EHM", "NHM")
    )


def _set_up(workload: str):
    """Import the package and resolve the workload's bundles and weightings."""
    t0 = time.perf_counter()
    import motioncomfort as mc
    import motioncomfort.cli

    for model in workload_models(workload):
        mc.builtin_bundle(model)
    mc.builtin_weightings()
    return mc, time.perf_counter() - t0


def phase_inputs(spec: dict) -> dict:
    import inputs

    cache_root = Path(spec["cache_root"])
    manifest = inputs.prepare(cache_root, spec["workload"], spec["seed"], spec["scale"])
    entry = inputs.entry_dir(cache_root, spec["workload"], spec["seed"], spec["scale"])
    return {"manifest": manifest, "entry_dir": str(entry)}


def phase_expect(spec: dict) -> dict:
    import checks

    out = Path(spec["expect_dir"])
    shard, shards = spec["shard"]
    if not (out / f"expected-{shard}.json").exists():
        out.mkdir(parents=True, exist_ok=True)
        checks.expect(spec["workload"], spec["seed"], spec["scale"], out, shard, shards)
    return {}


def phase_probe(spec: dict) -> dict:
    _, setup_s = _set_up(spec["workload"])
    return {"setup_s": setup_s}


class Workload:
    """The timed unit of work (one pass) of each workload."""

    def __init__(self, mc, spec: dict):
        import numpy as np

        import inputs

        self.mc = mc
        self.name = spec["workload"]
        self.manifest = spec["manifest"]
        self.entry = Path(spec["entry_dir"])
        self.trace = self.table = None
        if self.name == "compare-models":
            data = np.load(self.entry / "trace.npy")
            channels = {axis: data[1 + i] for i, axis in enumerate(inputs.AXES)}
            self.trace = mc.MotionTrace(sample_rate_hz=inputs.FS_HZ, channels=channels)

    def items(self, pass_dir: Path):
        """(label, callable) per item; each callable returns a failure or None."""
        cli = self.mc.cli
        if self.name == "assess-long":
            argv = ["assess", "--model", "EXP", "--trace", str(self.entry / "trace.csv"),
                    "--out", str(pass_dir)]
            yield "assess", lambda: _exit_status(cli.main(argv))
        elif self.name == "compare-models":
            def run_compare():
                self.table = self.mc.report.compare(self.trace, ["EXP", "AHM", "EHM", "NHM"])
            yield "compare", run_compare
        else:
            for i, (name, model) in enumerate(zip(self.manifest["files"], self.manifest["models"])):
                item_dir = pass_dir / f"ride{i:03d}"
                transmit = ["transmit", "--trace", str(self.entry / name), "--model", model,
                            "--out", str(item_dir)]
                svc = ["svc", "--trace", str(item_dir / "head.csv"), "--out", str(item_dir)]
                yield name, lambda t=transmit, s=svc: _exit_status(cli.main(t)) or _exit_status(cli.main(s))

    def save_outputs(self, pass_dir: Path) -> None:
        """Write in-memory outputs (compare's table) for the check phase, untimed."""
        if self.table is None:
            return
        rows = [
            {"model_id": r.model_id, "rc_per_axis": dict(r.rc_per_axis), "rc_total": r.rc_total,
             "ms_per_axis": dict(r.ms_per_axis), "ms_total": r.ms_total,
             "msi_final": r.msi_final, "rc_total_vs_nhm": r.rc_total_vs_nhm,
             "ms_total_vs_nhm": r.ms_total_vs_nhm}
            for r in self.table.rows
        ]
        (pass_dir / "table.json").write_text(json.dumps(rows) + "\n")
        self.table = None


def _exit_status(code):
    return None if code == 0 else f"exit code {code}"


def _run_pass(workload: Workload, pass_dir: Path, tracer) -> dict:
    pass_dir.mkdir(parents=True, exist_ok=True)
    item_s, failures = [], {}
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        pass_span = tracer.open("bench.pass") if tracer else None
        t_pass = time.perf_counter()
        for label, item in workload.items(pass_dir):
            item_span = tracer.open("bench.item") if tracer else None
            t0 = time.perf_counter()
            try:
                failure = item()
            except (Exception, SystemExit) as exc:  # an item that raises counts as failed
                failure = f"{type(exc).__name__}: {exc}"
            item_s.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(item_span)
            if failure:
                failures[str(len(item_s) - 1)] = f"{label}: {failure}"
        wall_s = time.perf_counter() - t_pass
        if tracer:
            tracer.close(pass_span)
    workload.save_outputs(pass_dir)
    return {"dir": str(pass_dir), "wall_s": wall_s, "item_s": item_s, "failures": failures}


def phase_run(spec: dict) -> dict:
    mc, setup_s = _set_up(spec["workload"])
    import tracing

    workload = Workload(mc, spec)
    out = Path(spec["out_dir"])
    untraced, traced = [], []
    tracer = None
    deadline = time.perf_counter() + spec["seconds"]
    if spec["trace"]:
        untraced.append(_run_pass(workload, out / "pass0", None))
        tracer = tracing.Tracer()
        tracer.install()
        deadline = time.perf_counter() + spec["seconds"]
    passes = traced if tracer else untraced
    min_passes = 1 if tracer else MIN_PASSES.get(spec["workload"], 1)
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(_run_pass(workload, out / f"pass{len(untraced) + len(traced)}", tracer))
    # Read before the checks run, so the peak belongs to the timed passes.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    result = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "package_file": mc.__file__,
        "versions": {m: sys.modules[m].__version__ for m in ("numpy", "scipy")},
        "untraced": untraced,
        "traced": traced,
    }
    if tracer:
        tracer.uninstall()
        tracer.dump(spec["spans_path"])
        result["layers"] = tracer.summary([p["wall_s"] for p in untraced])
        result["absent"] = tracer.absent
        result["counter_errors"] = tracer.counter_errors
    _check(spec, untraced + traced)
    return result


def _check(spec: dict, passes: list[dict]) -> None:
    """Check every item of every pass, adding failed checks to its pass's failures."""
    import numpy as np

    import checks

    expect_dir = Path(spec["expect_dir"])
    want = checks.load_expected(expect_dir)
    if spec["workload"] == "ride-batch":
        heads = np.load(expect_dir / "heads.npy", mmap_mode="r")
        msis = np.load(expect_dir / "msi.npy", mmap_mode="r")
        offsets = np.concatenate([[0], np.cumsum(want["n"])])
    corrupt = spec["corrupt"]  # only the first item checked gets the corrupted value
    for p in passes:
        item_dir = Path(p["dir"])
        for index in range(len(p["item_s"])):
            if str(index) in p["failures"]:
                continue
            try:
                if spec["workload"] == "assess-long":
                    exp = checks.corrupted(want) if corrupt else want
                    errors = checks.check_assess(item_dir, exp["EXP"], want["n"])
                elif spec["workload"] == "compare-models":
                    rows = json.loads((item_dir / "table.json").read_text())
                    errors = checks.check_compare(rows, checks.corrupted(want) if corrupt else want)
                else:
                    lo, hi = offsets[index], offsets[index + 1]
                    msi_want = msis[lo:hi] * (1.0 + 1e-6 if corrupt else 1.0)
                    errors = checks.check_ride(item_dir / f"ride{index:03d}", heads[:, lo:hi], msi_want)
            except Exception as exc:  # unreadable or malformed output fails the item
                errors = [f"{type(exc).__name__}: {exc}"]
            corrupt = False
            if errors:
                p["failures"][str(index)] = "; ".join(errors[:3])


PHASES = {
    "inputs": phase_inputs,
    "expect": phase_expect,
    "probe": phase_probe,
    "run": phase_run,
}


def main(argv) -> int:
    phase, spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    result = PHASES[phase](spec)
    Path(result_path).write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
