from __future__ import annotations

import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motioncomfort import (
    AXES,
    CHANNEL_IDS,
    MODEL_IDS,
    DataError,
    MotionTrace,
    WeightingCurve,
    NumericError,
    assess,
    builtin_bundle,
    builtin_weightings,
    combine,
    compare,
    fft_apply,
    full_assessment,
    identity_bundle,
    ride_comfort_regime,
    motion_sickness_regime,
    rms,
    run_svc,
    transmit,
)
from motioncomfort import metrics, runtime, spectral, svc, transmission, weighting
from motioncomfort.transmission import head_spectra, seat_spectra
from motioncomfort.weighting import DEFAULT_K_FACTORS, WEIGHTING_NAMES, unity_regime
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
    at, on_every_cpu = weighting.WeightingCurve.at, runtime.on_every_cpu

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
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(runtime, "on_every_cpu", per_pass)
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


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(2, 40_000),
    chunk=st.integers(1, 64).map(lambda k: 64 * k),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100 * 683, chunk=64, seed=0)  # a split length
@example(n=2 * 64 * 3, chunk=64, seed=1)  # 193 bins: a last chunk of one bin
def test_read_offs_in_chunks_give_the_bits_of_whole_rows(n, chunk, seed):
    # Each read-off squares the weights and multiplies in |H|^2 chunk by chunk, into the
    # weighting curve's own array, then sums that array once: RC and MS keep their bits.
    seat, bundle = random_trace(seed, n=n), builtin_bundle("EXP")
    rows = head_spectra(seat_spectra(seat), bundle).view(np.complex128)
    freqs = spectral.bin_frequencies(n, seat.sample_rate_hz)
    curves = builtin_weightings()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "BLOCK", chunk)
        report = full_assessment(seat, bundle, include_svc=False)
    regimes = ((report.rc, ride_comfort_regime()), (report.ms, motion_sickness_regime()))
    for result, regime in regimes:
        for i, axis in enumerate(AXES):
            w = curves[regime.axis_weighting[axis]].at(freqs)
            weighted = w * w * np.square(np.abs(rows[i]))
            assert result.per_axis[axis] == np.sqrt(spectral.spectrum_mean_square(weighted, n))


def test_assessment_is_bit_equal_with_more_threads_than_cores_and_fast_switching(monkeypatch):
    seat, bundle = random_trace(9, n=1366), builtin_bundle("EHM")
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 1)
    want = full_assessment(seat, bundle)
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 6)
    monkeypatch.setattr(runtime, "BLOCK", 16)
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
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
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


def _oracle_head(seat: MotionTrace, bundle) -> MotionTrace:
    """The head trace as per-channel `fft_apply` outputs summed per head axis: the time-domain
    oracle, which transforms each channel on its own with scipy.fft."""
    fs = seat.sample_rate_hz
    head = {axis: np.zeros(seat.n_samples) for axis in AXES}
    for cid in CHANNEL_IDS:
        head[cid.output_axis] += fft_apply(seat.channels[cid.input_axis], bundle.channels[cid], fs)
    return MotionTrace(fs, head, "head")


@st.composite
def _weighting_overrides(draw):
    """None, or the built-in weightings with one replaced by a drawn table."""
    if draw(st.booleans()):
        return None
    name = draw(st.sampled_from(WEIGHTING_NAMES))
    edges = sorted(draw(st.sets(st.floats(0.0, 80.0, allow_nan=False), min_size=1, max_size=5)))
    gains = draw(st.lists(st.floats(0.1, 3.0), min_size=len(edges), max_size=len(edges)))
    return {**builtin_weightings(), name: WeightingCurve(name, edges, gains)}


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([1009, 2003, 4001]) | st.integers(600, 3000),  # primes; odd and even
    rate=st.sampled_from([100.0, 7.0]) | st.floats(5.0, 250.0),  # below 80 Hz: undersampled
    model=st.sampled_from(MODEL_IDS),
    registry=_weighting_overrides(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100 * 683, rate=100.0, model="EXP", registry=None, seed=0)  # split, even a
@example(n=120 * 683, rate=37.5, model="AHM", registry=None, seed=1)  # split, undersampled
def test_full_assessment_matches_the_time_domain_oracle(n, rate, model, registry, seed):
    seat = random_trace(seed, n=n, fs=rate)
    bundle = builtin_bundle(model)
    report = full_assessment(seat, bundle, registry=registry)
    head = _oracle_head(seat, bundle)
    oracle = assess(head, ride_comfort_regime(), registry), assess(
        head, motion_sickness_regime(), registry
    )
    for got, want in zip((report.rc, report.ms), oracle):
        for axis in AXES:
            assert rel_err(got.per_axis[axis], want.per_axis[axis]) < 1e-9
        assert rel_err(got.total, want.total) < 1e-9
    assert rel_err(report.msi.final, run_svc(head).final) < 1e-9


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
    # fresh rows gave 2.65x, and blocks of 65,536 bins over the seat spectra 2.57x.  run_svc
    # peaks at 0.33x, its MSI and then the time column made after it (0.48x with the time
    # column made first, 0.88x with whole-length stage arrays).  compare adds the shared seat
    # spectra and a copy of them for each model but the last: it peaks at 2.47-2.63x over 4
    # runs, in a copy's RC and MS read-offs, whose six tasks each hold one bin-length array
    # and chunks of 65,536 bins (2.57-2.68x when a copy's SVC also held the bin frequencies
    # and the time column).  With three bin-length temporaries a task the read-offs set it at
    # 2.67-3.09x, varying with thread timing.  Fresh rows for every model gave 3.31x, and
    # blocks of 65,536 bins over a copy of the seat spectra for every model 3.69x.
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 8)
    seat = random_trace(7, n=2**20)
    bundle = builtin_bundle("EXP")
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    assert _traced_peak_bytes(lambda: full_assessment(seat, bundle)) < 2.25 * trace_bytes
    assert _traced_peak_bytes(lambda: run_svc(seat)) < 1.0 * trace_bytes
    models = ["EXP", "AHM", "EHM", "NHM"]
    assert _traced_peak_bytes(lambda: compare(seat, models)) < 2.75 * trace_bytes


def test_peak_memory_at_a_split_length_on_8_cpus(monkeypatch):
    # 1,049,088 = 2^9 * 3 * 683 samples take the prime-factor split, whose index tables are
    # built first: they are kept after a run.  Each forward or inverse transform holds one
    # (p, a // 2 + 1) complex plane, a sixth of the seat's bytes, plus a block of its rows,
    # and on 6 or more usable CPUs all six run at once.  Measured: seat_spectra 2.11-2.13x
    # the seat's bytes (1.19x, 1.38x and 1.75x on 1, 2 and 4 CPUs), full_assessment
    # 2.15-2.20x.  With a gathered plane and a plane-sized rfft2 or irfft2 output per
    # transform they read 3.00x and 3.09x.  tracemalloc does not see pocketfft's own scratch,
    # such as the copy of the plane that irfft2 made, so RSS fell by more than these show.
    n = 2**9 * 3 * 683
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 8)
    seat = random_trace(8, n=n)
    spectral._plan_of(*spectral._split(n))
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    assert _traced_peak_bytes(lambda: seat_spectra(seat)) < 2.3 * trace_bytes
    assert _traced_peak_bytes(lambda: full_assessment(seat, builtin_bundle("EXP"))) < (
        2.35 * trace_bytes
    )


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_in_place_inverse_ffts_and_streamed_svc_hold_little(monkeypatch, cpus):
    # 2^20 samples.  Each inverse FFT writes its signal into its own row with no numpy
    # temporary: head_trace holds 0.02x the seat's bytes (its finiteness masks) on every CPU
    # count, where a signal-sized temporary per thread took 0.17x, 0.33x and 1.00x on 1, 2
    # and 8 CPUs.  run_svc holds the MSI and one block of each stage, then the MSI and the
    # time column: 0.33x, where the time column made first took 0.48x and the stage generator
    # with whole-length arrays 0.84-0.88x.  On 1 and 2 CPUs full_assessment peaks at 1.23x
    # and 1.33x, and compare at 2.23x and 2.30x: the next test bounds them at 1.40x and 2.40x.
    # Before, SVC set both at 1.57x and 2.57x (1.93x and 2.93x with the inverse FFTs'
    # temporaries).  On 8 CPUs the forward FFTs' temporaries set them.
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    seat, bundle = random_trace(7, n=2**20), builtin_bundle("EXP")
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    spectra = seat_spectra(seat)
    rows = head_spectra(spectra, bundle)
    assert _traced_peak_bytes(lambda: transmission.head_trace(spectra, rows)) < (
        0.05 * trace_bytes
    )
    assert _traced_peak_bytes(lambda: run_svc(seat)) < 0.5 * trace_bytes


@pytest.mark.parametrize("cpus", [1, 2])
def test_svc_runs_beside_the_head_signals_alone(monkeypatch, cpus):
    # 2^20 samples.  The read-offs' bin frequencies go before the inverse FFTs, and SVC runs
    # beside the head signals, its MSI and one 16,384-sample block of each stage; the head
    # signals go before the time column is made.  Measured: full_assessment 1.23x the seat's
    # bytes on 1 CPU and 1.33x on 2, compare 2.23x and 2.30x, run_svc 0.33x.  While SVC also
    # held the bin frequencies, a time column and two 65,536-sample blocks: 1.57x, 2.57x and
    # 0.48x.  Before Python 3.11 a caller holds a call's arguments until it returns; run so,
    # compare read 2.34x.
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    seat, bundle = random_trace(7, n=2**20), builtin_bundle("EXP")
    trace_bytes = sum(channel.nbytes for channel in seat.channels.values())
    assert _traced_peak_bytes(lambda: full_assessment(seat, bundle)) < 1.40 * trace_bytes
    assert _traced_peak_bytes(lambda: run_svc(seat)) < 0.40 * trace_bytes
    models = ["EXP", "AHM", "EHM", "NHM"]
    assert _traced_peak_bytes(lambda: compare(seat, models)) < 2.40 * trace_bytes


def test_svc_starts_without_the_bin_frequencies_and_the_time_column_follows_the_head(monkeypatch):
    # Weak references to the read-offs' bin frequencies and to the array that holds each
    # run's head signals (their spectra's bins): the first is gone when SVC starts, the second
    # when the MSI's time column is made, in full_assessment on a trace or on its spectra, and
    # in compare (NHM, EXP, AHM) for the models on a copy and for the last, which takes the
    # spectra over.
    seat, bundle = random_trace(49, n=5000), builtin_bundle("EXP")
    refs, seen = {}, []
    bin_frequencies, incidence = spectral.bin_frequencies, metrics._incidence
    seconds = metrics._seconds

    def frequencies(n, fs):
        freqs = bin_frequencies(n, fs)
        refs["freqs"] = weakref.ref(freqs)
        return freqs

    def svc_incidence(head, params):
        refs["head"] = weakref.ref(head.channels["x"].base)
        seen.append(("freqs at SVC", refs["freqs"]() is not None))
        return incidence(head, params)

    def time_column(n, rate):
        seen.append(("head at the time column", refs["head"]() is not None))
        return seconds(n, rate)

    monkeypatch.setattr(spectral, "bin_frequencies", frequencies)
    monkeypatch.setattr(metrics, "_incidence", svc_incidence)
    monkeypatch.setattr(metrics, "_seconds", time_column)
    full_assessment(seat, bundle)
    runs = 1
    if sys.version_info >= (3, 11):  # before, a caller holds a call's arguments until it returns
        full_assessment(seat_spectra(seat), bundle)
        compare(seat, ["EXP", "AHM"])
        compare(seat_spectra(seat), ["EXP", "AHM"])
        runs = 8
    assert seen == [("freqs at SVC", False), ("head at the time column", False)] * runs


# 68,300 takes the prime-factor split; at 2 blocks + 1 sample SVC's last block is 1 sample.
@pytest.mark.parametrize("n", [100 * 683, 2 * svc._BLOCK_SAMPLES + 1])
def test_the_assessment_msi_is_run_svc_on_the_transmitted_head(monkeypatch, n):
    seat, bundle = random_trace(48, n=n), builtin_bundle("EXP")
    want = run_svc(transmit(seat, bundle)[0])
    for block in (svc._BLOCK_SAMPLES, 5000):
        monkeypatch.setattr(svc, "_BLOCK_SAMPLES", block)
        for got in (full_assessment(seat, bundle).msi, run_svc(transmit(seat, bundle)[0])):
            assert got.time_s.tobytes() == want.time_s.tobytes()
            assert got.msi_percent.tobytes() == want.msi_percent.tobytes()


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
    # NHM runs first and AHM last: a model that wrote over the spectra it shares with the
    # models after it would change their rows.
    models = ["EXP", "AHM", "NHM"]
    reports = {m: full_assessment(seat, builtin_bundle(m)) for m in models}
    a, b = compare(seat, models), compare(seat_spectra(seat), models)
    assert a == b
    assert [row.model_id for row in a.rows] == models
    for table in (a, b):
        for row in table.rows:
            report = reports[row.model_id]
            assert (row.rc_per_axis, row.rc_total) == (dict(report.rc.per_axis), report.rc.total)
            assert (row.ms_per_axis, row.ms_total) == (dict(report.ms.per_axis), report.ms.total)
            assert row.msi_final == report.msi.final
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
    compare(spectra, ["EXP", "AHM"])  # the last model takes them over
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
