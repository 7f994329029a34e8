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
from motioncomfort import metrics, spectral, svc, traceio, transmission, weighting
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


def test_combine_overflow_names_the_axis_with_its_k_and_v():
    values = dict.fromkeys(AXES, 0.5)
    with pytest.raises(NumericError) as caught:
        combine(values, {**DEFAULT_K_FACTORS, "z": 1e308})
    message = str(caught.value)
    assert "axis z" in message and "k=1e+308" in message and "v=0.5" in message
    assert "'x'" not in message  # the finite values are not blamed
    # No term overflows alone, but their sum does, at the second axis.
    with pytest.raises(NumericError, match="axis y, k=1.0, v=1e\\+154"):
        combine(dict.fromkeys(AXES, 1e154), dict.fromkeys(AXES, 1.0))


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
    sums = head_spectra(seat_spectra(seat), bundle).view(np.complex128)
    power = {axis: np.square(np.abs(sums[i])) for i, axis in enumerate(AXES)}
    freqs = spectral.bin_frequencies(seat.n_samples, seat.sample_rate_hz)
    curves = builtin_weightings()
    # One set of callers per pass on every CPU: the helper threads of two passes may or may
    # not share an ident.
    callers = [set()]
    at, on_every_cpu = weighting.WeightingCurve.at, traceio._on_every_cpu

    def traced(self, f):
        callers[-1].add(threading.get_ident())
        return at(self, f)

    def per_pass(task, count):
        callers.append(set())
        on_every_cpu(task, count)

    weighted, mean_square = [], spectral.spectrum_mean_square

    def recorded(weighted_power, n):
        weighted.append(weighted_power.tobytes())
        return mean_square(weighted_power, n)

    monkeypatch.setattr(weighting.WeightingCurve, "at", traced)
    monkeypatch.setattr(spectral, "spectrum_mean_square", recorded)
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(traceio, "_on_every_cpu", per_pass)
    threads = threading.active_count()
    report = full_assessment(seat, bundle, include_svc=False)
    assert threading.active_count() == threads
    read_offs = [idents for idents in callers if idents]
    assert len(read_offs) == 2  # RC, then MS
    for idents in read_offs:
        assert len(idents) == 1 if cpus == 1 else 2 <= len(idents) <= cpus
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


def test_peak_memory_stays_a_small_multiple_of_the_trace(monkeypatch):
    # 2^20 samples (524,289 bins) on 8 usable CPUs: at least one thread per block of the
    # largest size, so block temporaries that grew with the CPU count would show.  Measured:
    # full_assessment peaks at 2.08x the seat's bytes in the inverse FFTs (the head spectra
    # and six transforms' temporaries), and at 2.0x in the forward FFTs and the head spectra
    # build (over the seat spectra, in blocks of at most 1/64 of the bins).  Building them in
    # fresh rows gave 2.65x, and blocks of 65,536 bins over the seat spectra 2.57x.  run_svc peaks at about 5 arrays of the trace's length (0.88x); with all three
    # sensed axes alive at once it took 1.2x.  compare adds the shared seat spectra and each
    # model's fresh rows but the last model's: 3.09x; fresh rows for every model gave 3.31x,
    # and blocks of 65,536 bins over a copy of the seat spectra for every model 3.69x.
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 8)
    seat = random_trace(7, n=2**20)
    bundle = builtin_bundle("EXP")
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    assert _traced_peak_bytes(lambda: full_assessment(seat, bundle)) < 2.25 * trace_bytes
    assert _traced_peak_bytes(lambda: run_svc(seat)) < 1.0 * trace_bytes
    models = ["EXP", "AHM", "EHM", "NHM"]
    assert _traced_peak_bytes(lambda: compare(seat, models)) < 3.2 * trace_bytes


def test_peak_memory_at_a_split_length_on_8_cpus(monkeypatch):
    # 1,049,088 = 2^9 * 3 * 683 samples take the prime-factor split, whose index tables are
    # built first: they are kept after a run.  Each forward or inverse transform holds a
    # gathered (p, a) plane and its output, a third of the seat's bytes, and on 6 or more
    # usable CPUs all six run at once.  Measured: seat_spectra 3.00x the seat's bytes
    # (1.33x, 1.67x and 2.33x on 1, 2 and 4 CPUs), full_assessment 3.09x.  Gathering the
    # bins straight into the rows did not move these peaks, which the planes set.
    n = 2**9 * 3 * 683
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: 8)
    seat = random_trace(8, n=n)
    spectral._plan_of(*spectral._split(n))
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    assert _traced_peak_bytes(lambda: seat_spectra(seat)) < 3.15 * trace_bytes
    assert _traced_peak_bytes(lambda: full_assessment(seat, builtin_bundle("EXP"))) < (
        3.25 * trace_bytes
    )


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_in_place_inverse_ffts_and_streamed_svc_hold_little(monkeypatch, cpus):
    # 2^20 samples.  Each inverse FFT writes its signal into its own row with no numpy
    # temporary: head_trace holds 0.02x the seat's bytes (its finiteness masks) on every CPU
    # count, where a signal-sized temporary per thread took 0.17x, 0.33x and 1.00x on 1, 2
    # and 8 CPUs.  run_svc holds the MSI, the time column and one block of each stage:
    # 0.47x, where the stage generator with whole-length arrays took 0.84-0.88x.  On 1 and
    # 2 CPUs these set full_assessment's peak, 1.55x (1.93x before), and compare's, 2.55x
    # (2.93x before); on 8 the forward FFTs' temporaries set them.
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    seat, bundle = random_trace(7, n=2**20), builtin_bundle("EXP")
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    spectra = seat_spectra(seat)
    rows = head_spectra(spectra, bundle)
    assert _traced_peak_bytes(lambda: transmission.head_trace(spectra, rows)) < (
        0.05 * trace_bytes
    )
    assert _traced_peak_bytes(lambda: run_svc(seat)) < 0.5 * trace_bytes
    if cpus < 8:
        assert _traced_peak_bytes(lambda: full_assessment(seat, bundle)) < 1.65 * trace_bytes
        models = ["EXP", "AHM", "EHM", "NHM"]
        assert _traced_peak_bytes(lambda: compare(seat, models)) < 2.65 * trace_bytes


def _assert_same_report(got, want):
    assert (got.model_id, got.rc, got.ms) == (want.model_id, want.rc, want.ms)
    assert (got.duration_s, got.sample_rate_hz) == (want.duration_s, want.sample_rate_hz)
    assert got.config_echo == want.config_echo
    for name in ("time_s", "msi_percent"):
        assert getattr(got.msi, name).tobytes() == getattr(want.msi, name).tobytes()


@pytest.mark.parametrize("n", [3001, 100 * 683])  # 68,300 takes the prime-factor split
def test_seat_spectra_in_place_of_the_trace_give_the_same_bits(n):
    seat, bundle = random_trace(46, n=n), builtin_bundle("EXP")
    given_bytes = {axis: seat.channels[axis].tobytes() for axis in AXES}
    want = full_assessment(seat, bundle)
    _assert_same_report(full_assessment(seat_spectra(seat), bundle), want)
    models = ["EXP", "AHM", "NHM"]
    assert compare(seat_spectra(seat), models) == compare(seat, models)
    # A caller that passes its own trace keeps it, unchanged and read-only.
    for axis in AXES:
        assert seat.channels[axis].tobytes() == given_bytes[axis]
        assert not seat.channels[axis].flags.writeable


@pytest.mark.parametrize("include_svc", [True, False])
def test_seat_spectra_are_taken_over_and_refused_a_second_time(include_svc):
    seat, bundle = random_trace(47, n=700), builtin_bundle("AHM")
    spectra = seat_spectra(seat)
    full_assessment(spectra, bundle, include_svc=include_svc)
    assert not spectra.bins.flags.writeable
    with pytest.raises(DataError, match="took them over"):
        full_assessment(spectra, bundle)
    with pytest.raises(DataError, match="took them over"):
        compare(spectra, ["EXP", "AHM"])
    spectra = seat_spectra(seat)
    compare(spectra, ["EXP", "AHM"], include_svc=include_svc)  # the last model takes them over
    assert not spectra.bins.flags.writeable
    wrong = spectra._replace(bins=np.zeros((len(AXES), 3), np.complex128))
    with pytest.raises(DataError, match=r"complex \(6, 351\) bins"):
        full_assessment(wrong, bundle)


@pytest.mark.parametrize("n", [3001, 100 * 683])  # 68,300 takes the prime-factor split
def test_assessment_without_svc_builds_no_head_trace(monkeypatch, n):
    seat, bundle = random_trace(44, n=n), builtin_bundle("EHM")
    want = full_assessment(seat, bundle)
    built = []
    head_trace = metrics.head_trace
    monkeypatch.setattr(metrics, "head_trace", lambda *a: built.append(a) or head_trace(*a))
    timings = {}
    got = full_assessment(seat, bundle, include_svc=False, timings=timings)
    assert built == [] and got.msi is None
    assert set(timings) == {"transmit_s", "rc_s", "ms_s", "svc_s", "total_s"}
    for regime in ("rc", "ms"):
        got_result, want_result = getattr(got, regime), getattr(want, regime)
        assert [got_result.per_axis[a] for a in AXES] == [want_result.per_axis[a] for a in AXES]
        assert got_result.total == want_result.total
    full_assessment(seat, bundle, timings=timings)
    assert len(built) == 1


def test_compare_rows_do_not_depend_on_the_model_order():
    # Only the last model's head spectra are written over the shared seat spectra.
    seat = random_trace(43, n=3001)
    forward = compare(seat, ["EXP", "AHM"]).rows
    backward = compare(seat, ["AHM", "EXP"]).rows
    assert [row.model_id for row in forward] == ["EXP", "AHM"]
    assert forward[0] == backward[1] and forward[1] == backward[0]
