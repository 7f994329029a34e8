"""motioncomfort benchmark: entry point.

    python3 perfbench/run.py --workload assess-long --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn

Workloads (inputs are generated from --seed by perfbench/inputs.py):

  assess-long     CLI ``assess --model EXP`` on a 1,980,700-sample 100 Hz trace
                  CSV (~281 MB; n = 2^2*5^2*29*683 is a Bluestein FFT length).
  compare-models  ``report.compare`` of EXP, AHM, EHM and NHM on an in-memory
                  2,000,000-sample trace (no file I/O, FFT-friendly length).
  ride-batch      100 rides of 60-180 s, each CLI ``transmit`` then CLI ``svc``
                  on the head.csv it wrote (per-call fixed costs dominate).

Each run is a sequence of worker processes (perfbench/worker.py), one at a
time apart from input generation and the oracle, which share the two phases
before any timing starts:

  inputs || expect  ->  probe x2  ->  run (timed passes, then checks)

The ``run`` process repeats the workload's pass until --seconds have been
measured (at least one pass), reads its peak RSS, and then checks every
item's outputs against the oracle.  With --trace 1 it runs one untraced pass, then
installs the timing wrappers of perfbench/tracing.py and measures traced
passes; the result then holds the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
leaves behind goes under ``.perfbench/`` in the checkout: the input and
oracle caches, and under ``records/`` one JSON run record per run (machine,
versions, thread settings, commit, seed, input digests, metrics) plus the
spans of traced runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import record  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("assess-long", "compare-models", "ride-batch")
END_TO_END = (
    ("wall_s", "s"),
    ("realtime_x", "x"),
    ("item_p50_s", "s"),
    ("item_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
PROBES = 2  # set-up probes besides the run process's own set-up
DEADLINE_S = 170.0
KEEP_EXPECTED = 2
EXPECT_SHARDS = {"compare-models": 2}  # oracle processes; compare's four models split in two


class BenchError(RuntimeError):
    pass


class BenchRun:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool,
                 scale: str, corrupt: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.corrupt = corrupt
        self.state = root / ".perfbench"
        self.run_dir = self.state / "runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(self.state / "tmp"))
        self.procs: list[subprocess.Popen] = []

    def _spec(self, **extra) -> dict:
        return {
            "root": str(self.root),
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale,
            "seconds": self.seconds,
            "trace": self.trace,
            "corrupt": self.corrupt,
            "cache_root": str(self.state / "cache"),
            **extra,
        }

    def _start(self, label: str, spec: dict):
        """Start a worker; `label` is the phase name, optionally with a shard number."""
        phase = label.rstrip("0123456789")
        spec_path = self.run_dir / f"{label}.spec.json"
        result_path = self.run_dir / f"{label}.result.json"
        spec_path.write_text(json.dumps(spec))
        result_path.unlink(missing_ok=True)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), phase, str(spec_path), str(result_path)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.procs.append(proc)
        return label, proc, result_path

    def _finish(self, started) -> dict:
        phase, proc, result_path = started
        try:
            output, _ = proc.communicate(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"phase {phase} did not finish within {DEADLINE_S:.0f} s")
        if proc.returncode != 0 or not result_path.exists():
            tail = "\n".join(output.strip().splitlines()[-15:])
            raise BenchError(f"phase {phase} failed (exit {proc.returncode}):\n{tail}")
        return json.loads(result_path.read_text())

    def _phase(self, phase: str, spec: dict) -> dict:
        return self._finish(self._start(phase, spec))

    def _expect_dir(self) -> Path:
        key = hashlib.sha256(record.source_digest(self.root).encode())
        for name in ("inputs.py", "checks.py"):
            key.update((HERE / name).read_bytes())
        base = self.state / "expect" / self.scale / self.workload
        target = base / f"seed{self.seed}-{key.hexdigest()[:16]}"
        base.mkdir(parents=True, exist_ok=True)
        others = sorted((p for p in base.iterdir() if p.is_dir() and p != target),
                        key=lambda p: p.stat().st_mtime, reverse=True)
        for stale in others[KEEP_EXPECTED - 1:]:
            shutil.rmtree(stale, ignore_errors=True)
        return target

    def execute(self) -> dict:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.state / "tmp").mkdir(exist_ok=True)
        expect_dir = self._expect_dir()
        clock = [time.monotonic()]
        phase_s = {}

        def lap(name):
            clock.append(time.monotonic())
            phase_s[name] = clock[-1] - clock[-2]

        # Inputs and the oracle are independent, so they share the two cores.
        shards = EXPECT_SHARDS.get(self.workload, 1)
        inputs_proc = self._start("inputs", self._spec())
        expect_procs = [
            self._start(f"expect{i}", self._spec(expect_dir=str(expect_dir), shard=[i, shards]))
            for i in range(shards)
        ]
        prepared = self._finish(inputs_proc)
        manifest = prepared["manifest"]
        for proc in expect_procs:
            self._finish(proc)
        lap("inputs+expect")

        probes = [] if self.trace else [
            self._phase("probe", self._spec())["setup_s"] for _ in range(PROBES)
        ]
        lap("probes")
        records = self.state / "records"
        records.mkdir(exist_ok=True)
        spans_path = records / f"{self.workload}-seed{self.seed}.spans.jsonl"
        run = self._phase("run", self._spec(
            manifest=manifest, entry_dir=prepared["entry_dir"], out_dir=str(self.run_dir / "out"),
            spans_path=str(spans_path), expect_dir=str(expect_dir),
        ))
        lap("run+check")
        package = Path(run["package_file"]).resolve()
        if (self.root / "src").resolve() not in package.parents:
            raise BenchError(f"measured {package}, not the package of this checkout")
        passes = run["traced"] if self.trace else run["untraced"]
        checked = run["untraced"] + run["traced"]
        failures = [msg for p in checked for msg in p["failures"].values()]
        attempted = sum(len(p["item_s"]) for p in checked)
        if self.trace:
            units = dict(tracing.metric_names())
            metrics = {k: {"value": v, "unit": units[k]} for k, v in run["layers"].items()}
        else:
            values = self._end_to_end(run, passes, probes, manifest["trace_s"])
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
        result = {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": metrics,
        }
        run_record = {
            "workload": self.workload,
            "seed": self.seed,
            "scale": self.scale,
            "seconds": self.seconds,
            "trace": self.trace,
            "context": record.machine_context(self.root, run["versions"]),
            "inputs": {k: manifest[k] for k in ("digest", "n", "factors", "trace_s")},
            "error_rate": len(failures) / attempted,
            "failures": failures[:20],
            "pass_wall_s": [p["wall_s"] for p in passes],
            "setup_samples_s": probes + [run["setup_s"]],
            "absent": run.get("absent", []),
            "counter_errors": run.get("counter_errors", {}),
            "phase_s": phase_s,
            "spans": str(spans_path.relative_to(self.root)) if self.trace else None,
            **result,
        }
        name = f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        (records / name).write_text(json.dumps(run_record, indent=1) + "\n")
        return run_record

    def _end_to_end(self, run, passes, probes, trace_s) -> dict:
        walls = [p["wall_s"] for p in passes]
        items = sorted(t for p in passes for t in p["item_s"])
        wall_s = statistics.median(walls)
        return {
            "wall_s": wall_s,
            "realtime_x": trace_s / wall_s,
            "item_p50_s": statistics.median(items),
            "item_p90_s": items[math.ceil(0.9 * len(items)) - 1],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": statistics.median(probes + [run["setup_s"]]),
        }

    def cleanup(self) -> None:
        """Stop any worker still running, then remove the run's temporary files."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.kill()
            proc.communicate()
        shutil.rmtree(self.run_dir, ignore_errors=True)


def describe(rec: dict) -> list[str]:
    """Human-readable lines for one run record."""
    ctx, inp = rec["context"], rec["inputs"]
    sizes = sorted(set(inp["n"]))
    shown = ", ".join(f"{n}={'*'.join(map(str, inp['factors'][str(n)]))}" for n in sizes[:3])
    if len(sizes) > 3:
        shown += f", ... ({len(inp['n'])} inputs, {len(sizes)} lengths)"
    lines = [
        f"perfbench {rec['workload']}  seed {rec['seed']}  scale {rec['scale']}  "
        f"trace {int(rec['trace'])}  seconds {rec['seconds']}",
        f"  input    n {shown}; {inp['trace_s']:g} s of trace per pass; digest {inp['digest'][:16]}",
        f"  machine  {ctx['cpu_model']}, nproc {ctx['nproc']}, RAM {ctx['ram_gb']} GB; "
        f"python {ctx['python']}, numpy {ctx['numpy']}, scipy {ctx['scipy']}; "
        f"threads {{{', '.join(f'{k}={v}' for k, v in ctx['thread_env'].items() if v)}}}",
        f"  code     commit {ctx['git_commit']}; source {ctx['source_digest'][:16]}",
        f"  passes   {len(rec['pass_wall_s'])}: " + ", ".join(f"{w:.3f}" for w in rec["pass_wall_s"]) + " s",
        "  phases   " + ", ".join(f"{k} {v:.1f} s" for k, v in rec["phase_s"].items()),
    ]
    metrics = rec["metrics"]
    if rec["trace"]:
        m = {k: v["value"] for k, v in metrics.items()}
        compute = sum(m[f"{layer}.self_s"] for layer in
                      ("metrics", "spectral", "svc", "frf", "weighting", "transmission"))
        lines.append(
            f"  split    load {m['traceio.load_trace.self_s']:.3f} s (traceio), "
            f"compute {compute:.3f} s (metrics/spectral/svc/frf/weighting/transmission), "
            f"emit {m['report.self_s'] + m['traceio.atomic_write_text.self_s'] + m['traceio.save_trace.self_s']:.3f} s "
            f"(report + writes), cli {m['cli.self_s']:.3f} s, "
            f"unattributed {m['unattributed_s']:.3f} s, trace overhead {m['trace_overhead']:+.1%}"
        )
        if rec["absent"]:
            lines.append(f"  absent   {', '.join(rec['absent'])}")
    for name, metric in metrics.items():
        lines.append(f"  {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    lines.append(
        f"  {'error_rate':<36} {rec['error_rate']:>16.6f} ratio "
        f"({rec['failed']} of {rec['attempted']} items failed)"
    )
    lines += [f"  FAILED   {msg}" for msg in rec["failures"][:5]]
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        corrupt: bool = False, root: Path = ROOT) -> dict:
    """Run one workload and return its run record (metrics included)."""
    bench_run = BenchRun(root, workload, seed, seconds, trace, scale, corrupt)
    try:
        return bench_run.execute()
    finally:
        bench_run.cleanup()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so cleanup stops the run's workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "motioncomfort" / "__init__.py").is_file():
        print(f"perfbench: no motioncomfort sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run(name, args.seed, args.seconds, bool(args.trace), args.scale))
            print("\n".join(describe(records[-1])), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
