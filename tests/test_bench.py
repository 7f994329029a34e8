from __future__ import annotations

import json
import logging
import math
from types import SimpleNamespace

import pytest

from motioncomfort import benchmark, builtin_bundle, identity_bundle, runtime


def test_short_trace_completes_with_positive_factor():
    result = benchmark(60.0, 100.0, identity_bundle())
    assert result.total_s > 0.0
    assert result.realtime_factor > 1.0
    assert result.n_samples == 6000
    parts = result.transmit_s + result.rc_s + result.ms_s + result.svc_s
    assert parts <= result.total_s * 1.05


def test_wall_time_scales_no_worse_than_n_log_n():
    bundle = builtin_bundle("EXP")
    benchmark(60.0, 100.0, bundle)  # warm caches and FFT plans
    short = benchmark(60.0, 100.0, bundle)
    long = benchmark(600.0, 100.0, bundle)
    n_short, n_long = short.n_samples, long.n_samples
    expected_ratio = (n_long * math.log(n_long)) / (n_short * math.log(n_short))
    # one-sided: growth must not exceed the n log n expectation (3x slack for
    # timer noise; fixed overheads only make the measured ratio smaller)
    assert long.total_s <= 3.0 * expected_ratio * max(short.total_s, 1e-4)


def test_summary_mentions_realtime_factor():
    result = benchmark(30.0, 50.0, identity_bundle(), include_svc=False)
    assert "x realtime" in result.summary()
    assert result.svc_s < 0.01  # no SVC stage ran


def test_a_stage_sums_its_blocks_and_one_that_raises_records_nothing(monkeypatch):
    ticks = iter([0.0, 1.0, 5.0, 7.0, 10.0])
    monkeypatch.setattr(runtime, "time", SimpleNamespace(perf_counter=ticks.__next__))
    monkeypatch.setattr(runtime, "SECONDS", {})
    for _ in range(2):
        with runtime.stage("twice"):
            pass
    with pytest.raises(ZeroDivisionError), runtime.stage("raised"):
        1 / 0
    assert runtime.SECONDS == {"twice": 3.0}


def _stage_messages(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == "motioncomfort.runtime"]


def test_a_stage_names_its_model_and_sums_by_name_alone(monkeypatch, caplog):
    with caplog.at_level(logging.INFO, logger="motioncomfort.runtime"):
        benchmark(2.0, 50.0, builtin_bundle("EXP"), include_svc=False)
        logged = [json.loads(message) for message in _stage_messages(caplog)]
        assert [(e["stage"], e["model"]) for e in logged] == [
            ("head spectra", "EXP"), ("RC", "EXP"), ("MS", "EXP"), ("assessment", "EXP")
        ]
        caplog.clear()
        ticks = iter([0.0, 1.0, 5.0, 7.0])
        monkeypatch.setattr(runtime, "time", SimpleNamespace(perf_counter=ticks.__next__))
        monkeypatch.setattr(runtime, "SECONDS", {})
        for model in ("NHM", "EXP"):
            with runtime.stage("RC", model=model):
                pass
    assert runtime.SECONDS == {"RC": 3.0}  # bench sums by name: its keys stay as they are
    assert [json.loads(message) for message in _stage_messages(caplog)] == [
        {"stage": "RC", "model": "NHM", "s": 1.0}, {"stage": "RC", "model": "EXP", "s": 2.0}
    ]
