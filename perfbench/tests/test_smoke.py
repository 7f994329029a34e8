"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/tests -q

Runs every workload through the command line, one traced run, one run with a
deliberately corrupted expected value, and `run.py` in a directory that
holds no program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import tracing  # noqa: E402


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload):
    out = _cli("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0",
               "--scale", "tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    rec = bench.run("assess-long", 4, 0.1, True, scale="tiny")
    assert rec["correct"], rec["failures"]
    assert list(rec["metrics"]) == [name for name, _ in tracing.metric_names()]
    value = {k: v["value"] for k, v in rec["metrics"].items()}
    assert value["cli.main.calls"] == 1
    assert value["traceio.load_trace.calls"] == 1
    assert value["report.emit_report.calls"] == 1
    assert value["spectral.rfft.calls"] == 6
    assert value["report.emit_report.mb_out"] > 0
    assert value["report.compare.calls"] == 0
    assert 0 <= value["unattributed_s"] < 0.05
    assert rec["absent"] == []
    assert (ROOT / rec["spans"]).stat().st_size > 0


def test_corrupted_expected_value_raises_error_rate():
    rec = bench.run("compare-models", 5, 0.1, False, scale="tiny", corrupt=True)
    assert not rec["correct"]
    assert rec["failed"] == 1
    assert rec["error_rate"] == 1 / rec["attempted"]
    assert "EXP rc.total" in rec["failures"][0]


def test_missing_function_is_absent_not_an_error():
    tracer = tracing.Tracer()
    tracer.install(package="no_such_package")
    assert tracer.absent == [f"{m}.{a}" for m, a, _ in tracing.TARGETS]
    assert tracer.summary([])["cli.main.calls"] == 0


def test_fails_without_program_sources():
    bare = ROOT / ".perfbench" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        out = _cli("--workload", "ride-batch", "--seed", "1", "--seconds", "1", "--trace", "0",
                   cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
