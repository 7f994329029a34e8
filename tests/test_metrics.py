from __future__ import annotations

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from motioncomfort import (
    AXES,
    DataError,
    MotionTrace,
    NumericError,
    assess,
    builtin_bundle,
    builtin_weightings,
    combine,
    compare,
    full_assessment,
    identity_bundle,
    ride_comfort_regime,
    motion_sickness_regime,
    rms,
    run_svc,
    transmit,
)
from motioncomfort import spectral, svc, traceio, transmission, weighting
from motioncomfort.transmission import head_spectra, seat_spectra
from motioncomfort.weighting import DEFAULT_K_FACTORS, unity_regime
from conftest import random_trace, rel_err, sine_trace


def test_rms_constant():
    assert rms(np.full(10, -3.0)) == pytest.approx(3.0)


def test_rms_sine_closed_form():
    t = np.arange(1000) / 100.0
    x = 2.5 * np.sin(2 * np.pi * 1.0 * t)  # integer number of periods
    assert abs(rms(x) - 2.5 / np.sqrt(2)) < 1e-9 * 2.5


def test_rms_matches_brute_force_sum():
    x = np.array([0.3, -1.2, 4.0, 0.0, -0.7, 2.2, -3.1, 1.1, 0.05, -0.9])
    acc = 0.0
    for v in x:
        acc += v * v
    assert rms(x) == pytest.approx((acc / len(x)) ** 0.5, rel=1e-15)


def test_rms_rejects_empty():
    with pytest.raises(DataError, match="empty"):
        rms(np.array([]))


def test_combine_printed_rows():
    k = DEFAULT_K_FACTORS
    nhm_p1_rc = dict(zip(AXES, (0.102, 0.054, 1.407, 0.041, 0.406, 0.021)))
    assert combine(nhm_p1_rc, k) == pytest.approx(1.421, abs=1e-3)
    exp_p1_ms = dict(zip(AXES, (0.162, 1.011, 0.032, 0.007, 0.301, 0.624)))
    assert combine(exp_p1_ms, k) == pytest.approx(1.039, abs=1e-3)


def test_combine_single_axis_passthrough():
    values = dict.fromkeys(AXES, 0.0)
    values["z"] = 1.7
    k = dict.fromkeys(AXES, 0.0)
    k["z"] = 1.0
    assert combine(values, k) == pytest.approx(1.7)


def test_combine_rejects_negative():
    values = dict.fromkeys(AXES, 1.0)
    values["x"] = -0.1
    with pytest.raises(DataError, match="negative"):
        combine(values, dict.fromkeys(AXES, 1.0))


@pytest.mark.parametrize("value, k", [(float("nan"), 1.0), (float("inf"), 1.0), (1e154, 2.0)])
def test_combine_non_finite_is_numeric_error(value, k):
    values = dict.fromkeys(AXES, 1.0)
    values["z"] = value
    with pytest.raises(NumericError, match="non-finite"):
        combine(values, dict.fromkeys(AXES, k))


@pytest.mark.parametrize("path", ["spectral", "time_domain"])
def test_overflowing_trace_is_numeric_error(path):
    seat = random_trace(40, n=500, scale=1e160)
    with pytest.raises(NumericError), np.errstate(over="ignore", invalid="ignore"):
        if path == "spectral":
            full_assessment(seat, builtin_bundle("EXP"), include_svc=False)
        else:
            assess(seat, ride_comfort_regime())


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_read_offs_take_one_task_per_axis_and_match_the_serial_formula(monkeypatch, cpus):
    seat, bundle = random_trace(42, n=3001), builtin_bundle("AHM")
    sums = head_spectra(seat, bundle, seat_spectra(seat)).view(np.complex128)
    power = {axis: np.square(np.abs(sums[i])) for i, axis in enumerate(AXES)}
    freqs = spectral.bin_frequencies(seat.n_samples, seat.sample_rate_hz)
    curves = builtin_weightings()
    callers = set()
    at = weighting.WeightingCurve.at

    def traced(self, f):
        callers.add(threading.get_ident())
        return at(self, f)

    weighted, mean_square = [], spectral.spectrum_mean_square

    def recorded(weighted_power, n):
        weighted.append(weighted_power.tobytes())
        return mean_square(weighted_power, n)

    monkeypatch.setattr(weighting.WeightingCurve, "at", traced)
    monkeypatch.setattr(spectral, "spectrum_mean_square", recorded)
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    threads = threading.active_count()
    report = full_assessment(seat, bundle, include_svc=False)
    assert threading.active_count() == threads
    assert len(callers) == 1 if cpus == 1 else 2 <= len(callers) <= cpus
    want_weighted = []
    regimes = ((report.rc, ride_comfort_regime()), (report.ms, motion_sickness_regime()))
    for result, regime in regimes:
        for axis in AXES:
            w = at(curves[regime.axis_weighting[axis]], freqs)
            want_weighted.append((w * w * power[axis]).tobytes())
            want = float(np.sqrt(mean_square(w * w * power[axis], seat.n_samples)))
            assert result.per_axis[axis] == want
    assert sorted(weighted) == sorted(want_weighted)  # (w * w) * P, in that order


def test_assessment_is_bit_equal_with_more_threads_than_cores_and_fast_switching(monkeypatch):
    seat, bundle = random_trace(9, n=1366), builtin_bundle("EHM")
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 1)
    want = full_assessment(seat, bundle)
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 6)
    monkeypatch.setattr(transmission, "_BLOCK_BINS", 16)
    monkeypatch.setattr(svc, "_BLOCK_SAMPLES", 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = full_assessment(seat, bundle)
            for regime in ("rc", "ms"):
                assert getattr(got, regime).per_axis == getattr(want, regime).per_axis
            assert got.msi.msi_percent.tobytes() == want.msi.msi_percent.tobytes()
    finally:
        sys.setswitchinterval(interval)


# At 1e160 |H|^2 overflows to inf; at 1e152 it stays finite and the read-off's sum
# overflows.  Each task ignores that itself, since numpy's error state is per thread,
# and combine reports it.
@pytest.mark.parametrize("scale", [1e152, 1e160])
@pytest.mark.parametrize("cpus", [1, 2])
def test_overflow_in_a_helper_read_off_is_one_numeric_error(monkeypatch, cpus, scale):
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    seat = random_trace(40, n=500, scale=scale)
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="non-finite"):
            full_assessment(seat, builtin_bundle("EXP"), include_svc=False)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert threading.active_count() == threads


def test_combine_monotone_in_each_argument():
    k = dict(DEFAULT_K_FACTORS)
    base = dict(zip(AXES, (0.5, 0.1, 1.2, 0.2, 0.8, 0.05)))
    ref = combine(base, k)
    for axis in AXES:
        bumped = dict(base)
        bumped[axis] += 0.1
        assert combine(bumped, k) > ref


def test_unity_regime_reduces_to_plain_norm():
    trace = random_trace(10, n=1000)
    result = assess(trace, unity_regime())
    plain = np.sqrt(sum(rms(trace.channels[a]) ** 2 for a in AXES))
    assert abs(result.total - plain) < 1e-12 * plain


def test_rc_regime_vertical_sine_uses_tabulated_weight():
    amplitude, f0 = 1.3, 1.0
    trace = sine_trace("z", amplitude, f0, duration_s=60.0, fs=100.0)
    result = assess(trace, ride_comfort_regime())
    wk_at_f0 = float(builtin_weightings()["Wk"].at(f0))
    want = wk_at_f0 * amplitude / np.sqrt(2)
    assert abs(result.per_axis["z"] - want) < 1e-6 * want


def test_assess_identity_head_equals_seat_assessment():
    seat = random_trace(11, n=1200)
    head, _ = transmit(seat, identity_bundle())
    for regime in (ride_comfort_regime(), motion_sickness_regime()):
        direct = assess(seat, regime)
        via_head = assess(head, regime)
        for axis in AXES:
            assert rel_err(via_head.per_axis[axis], direct.per_axis[axis]) < 1e-9
        assert rel_err(via_head.total, direct.total) < 1e-9


def test_regime_result_internal_consistency():
    trace = random_trace(12, n=800)
    for regime in (ride_comfort_regime(), motion_sickness_regime()):
        res = assess(trace, regime)
        recombined = sum(
            (res.k_factors[a] * res.per_axis[a]) ** 2 for a in AXES
        )
        assert abs(res.total**2 - recombined) < 1e-12 * max(recombined, 1e-300)
        assert all(v >= 0.0 for v in res.per_axis.values())


def test_assess_homogeneity():
    trace = random_trace(13, n=600)
    alpha = 2.75
    scaled = MotionTrace(
        sample_rate_hz=trace.sample_rate_hz,
        channels={a: alpha * trace.channels[a] for a in AXES},
    )
    base = assess(trace, ride_comfort_regime())
    big = assess(scaled, ride_comfort_regime())
    for axis in AXES:
        assert rel_err(big.per_axis[axis], alpha * base.per_axis[axis]) < 1e-9
    assert rel_err(big.total, alpha * base.total) < 1e-9


def test_full_assessment_identity_matches_direct():
    seat = random_trace(14, n=1000)
    report = full_assessment(seat, identity_bundle())
    rc_direct = assess(seat, ride_comfort_regime())
    ms_direct = assess(seat, motion_sickness_regime())
    for axis in AXES:
        assert rel_err(report.rc.per_axis[axis], rc_direct.per_axis[axis]) < 1e-9
        assert rel_err(report.ms.per_axis[axis], ms_direct.per_axis[axis]) < 1e-9
    assert rel_err(report.rc.total, rc_direct.total) < 1e-9
    assert rel_err(report.ms.total, ms_direct.total) < 1e-9


def test_full_assessment_matches_reference_path():
    seat = random_trace(15, n=1000)
    bundle = builtin_bundle("EXP")
    report = full_assessment(seat, bundle)
    head, _ = transmit(seat, bundle)
    rc_ref = assess(head, ride_comfort_regime())
    ms_ref = assess(head, motion_sickness_regime())
    msi_ref = run_svc(head)
    for axis in AXES:
        assert rel_err(report.rc.per_axis[axis], rc_ref.per_axis[axis]) < 1e-9
        assert rel_err(report.ms.per_axis[axis], ms_ref.per_axis[axis]) < 1e-9
    assert rel_err(report.msi.final, msi_ref.final) < 1e-9


def test_full_assessment_scales_linearly():
    seat = random_trace(16, n=900)
    doubled = MotionTrace(
        sample_rate_hz=seat.sample_rate_hz,
        channels={a: 2.0 * seat.channels[a] for a in AXES},
    )
    bundle = builtin_bundle("AHM")
    base = full_assessment(seat, bundle, include_svc=False)
    big = full_assessment(doubled, bundle, include_svc=False)
    for regime in ("rc", "ms"):
        b = getattr(base, regime)
        g = getattr(big, regime)
        for axis in AXES:
            assert rel_err(g.per_axis[axis], 2.0 * b.per_axis[axis]) < 1e-9
        assert rel_err(g.total, 2.0 * b.total) < 1e-9


def test_full_assessment_zero_trace():
    seat = MotionTrace(sample_rate_hz=100.0, channels={a: np.zeros(500) for a in AXES})
    report = full_assessment(seat, builtin_bundle("EXP"))
    assert report.rc.total == 0.0 and report.ms.total == 0.0
    assert all(v == 0.0 for v in report.rc.per_axis.values())
    assert report.msi.final == 0.0


def test_axis_independence_of_unfed_axes():
    seat = random_trace(17, n=700)
    bundle = builtin_bundle("EXP")
    no_yaw = MotionTrace(
        sample_rate_hz=seat.sample_rate_hz,
        channels={
            a: (np.zeros(seat.n_samples) if a == "yaw" else seat.channels[a]) for a in AXES
        },
    )
    full = full_assessment(seat, bundle, include_svc=False)
    cut = full_assessment(no_yaw, bundle, include_svc=False)
    # seat yaw feeds only head yaw, so only that per-axis value may move
    assert full.rc.per_axis["yaw"] != cut.rc.per_axis["yaw"]
    for axis in ("x", "y", "z", "roll", "pitch"):
        assert full.rc.per_axis[axis] == pytest.approx(cut.rc.per_axis[axis], rel=1e-12)


def test_report_echoes_config():
    seat = random_trace(18, n=400)
    report = full_assessment(seat, identity_bundle())
    echo = report.config_echo
    assert echo["rc"]["weighting"]["z"] == "Wk"
    assert echo["ms"]["weighting"]["x"] == "Wfx"
    assert echo["rc"]["k_factors"]["pitch"] == 0.4
    assert echo["svc"]["tau_s"] == 5.0
    assert report.model_id == "NHM"
    assert report.sample_rate_hz == 100.0


def _traced_peak_bytes(run) -> int:
    """The most bytes `run()` holds at once (tracemalloc) above what was live before it."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


def test_peak_memory_stays_a_small_multiple_of_the_trace():
    # full_assessment peaks at about 2.8x the seat's bytes while it builds the head spectra:
    # the seat spectra, the head spectra and each block's temporaries.  The read-offs and the
    # inverse FFTs hold less: the head spectra, which the head trace overwrites in place, and
    # one axis's temporaries a thread.  run_svc peaks at 8 arrays of the trace's length (1.33x);
    # keeping every stage reaches 2.2x.  compare adds the shared seat spectra and the
    # rows, about 3.6x; keeping each model's report (and MSI series) to the end, 4.6x.
    seat = random_trace(7, n=200_000)
    bundle = builtin_bundle("EXP")
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    assert _traced_peak_bytes(lambda: full_assessment(seat, bundle)) < 3.5 * trace_bytes
    assert _traced_peak_bytes(lambda: run_svc(seat)) < 1.75 * trace_bytes
    models = ["EXP", "AHM", "EHM", "NHM"]
    assert _traced_peak_bytes(lambda: compare(seat, models)) < 4.0 * trace_bytes
