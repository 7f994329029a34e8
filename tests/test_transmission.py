from __future__ import annotations

import functools
import logging
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft

from motioncomfort import (
    AXES,
    MODEL_IDS,
    DataError,
    FrfChannelId,
    FrfCurve,
    FrfBundle,
    MotionTrace,
    assess,
    builtin_bundle,
    compare,
    fft_apply,
    full_assessment,
    identity_bundle,
    load_seat_spectra,
    motion_sickness_regime,
    ride_comfort_regime,
    save_trace,
    transmit,
)
from motioncomfort import metrics, runtime, spectral, traceio, transmission
from motioncomfort.frf import CHANNEL_IDS, evaluate_grid
from motioncomfort.transmission import (
    SeatSpectra,
    _summed_products,
    head_spectra,
    head_trace,
    seat_spectra,
)
from conftest import random_trace, rel_err


def test_trace_validation():
    with pytest.raises(DataError, match="missing"):
        MotionTrace(sample_rate_hz=100.0, channels={"x": [0.0, 1.0]})
    good = {a: np.zeros(4) for a in AXES}
    bad = dict(good, z=np.array([0.0, np.nan, 0.0, 0.0]))
    with pytest.raises(DataError, match="non-finite"):
        MotionTrace(sample_rate_hz=100.0, channels=bad)
    bad = dict(good, y=np.zeros(3))
    with pytest.raises(DataError, match="inconsistent"):
        MotionTrace(sample_rate_hz=100.0, channels=bad)
    with pytest.raises(DataError, match="2 samples"):
        MotionTrace(sample_rate_hz=100.0, channels={a: np.zeros(1) for a in AXES})
    with pytest.raises(DataError, match="positive"):
        MotionTrace(sample_rate_hz=0.0, channels=good)


def test_trace_channels_immutable():
    trace = random_trace(0, n=16)
    with pytest.raises(ValueError):
        trace.channels["x"][0] = 1.0


def test_head_trace_keeps_its_fft_output_read_only_and_public_traces_copy():
    head, _ = transmit(random_trace(3, n=64), builtin_bundle("EXP"))
    rows = head.channels["x"].base  # the head_spectra rows head_trace overwrote; a copy has none
    assert rows is not None and len(rows) == len(AXES) and not rows.flags.writeable
    for i, axis in enumerate(AXES):
        assert not head.channels[axis].flags.writeable
        assert head.channels[axis].base is rows  # kept, not copied
        assert np.shares_memory(head.channels[axis], rows[i])
    fresh = {axis: np.arange(8.0) for axis in AXES}
    owned = MotionTrace(50.0, fresh, "head", _owned=True)
    assert all(owned.channels[axis] is fresh[axis] for axis in AXES)
    assert not fresh["x"].flags.writeable
    given_channels = {axis: np.arange(8.0) for axis in AXES}
    trace = MotionTrace(sample_rate_hz=50.0, channels=given_channels)
    given_channels["z"][3] = -1.0
    assert trace.channels["z"][3] == 3.0  # the public constructor copied
    assert given_channels["z"].flags.writeable  # and left the caller's array alone
    assert not np.shares_memory(trace.channels["z"], given_channels["z"])


@pytest.mark.parametrize(
    "channels, match",
    [
        (dict.fromkeys(AXES, [0.0, 1.0, 2.0]) | {"z": [0.0, np.nan, 2.0]}, "non-finite"),
        (dict.fromkeys(AXES, [0.0, 1.0, 2.0]) | {"y": [0.0, 1.0]}, "inconsistent"),
        (dict.fromkeys(AXES, [0.0, 1.0]) | {"x": [[0.0, 1.0]]}, "1-D"),
        (dict.fromkeys(AXES, [0.0]), "2 samples"),
    ],
)
def test_owned_channels_are_validated_like_any_other(channels, match):
    fresh = {axis: np.array(values) for axis, values in channels.items()}
    with pytest.raises(DataError, match=match):
        MotionTrace(100.0, fresh, "head", _owned=True)


def test_fft_apply_identity():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(1000)
    y = fft_apply(x, FrfCurve.constant(1.0), 100.0)
    assert rel_err(y, x) < 1e-9


def test_fft_apply_sinusoid_closed_form():
    fs, f0, n = 100.0, 1.0, 1000  # integer number of periods
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * f0 * t)
    curve = FrfCurve(
        freq_hz=[0.5, 1.0, 2.0], gain=[2.0, 2.0, 2.0], phase_rad=[-np.pi / 2] * 3
    )
    y = fft_apply(x, curve, fs)
    want = 2.0 * np.sin(2 * np.pi * f0 * t - np.pi / 2)
    assert rel_err(y, want) < 1e-6


def test_fft_apply_dc_bin_uses_held_gain():
    curve = FrfCurve(freq_hz=[0.4, 1.0], gain=[3.0, 1.0], phase_rad=[-0.7, -0.7])
    x = np.full(256, 5.0)
    y = fft_apply(x, curve, 100.0)
    # held toward DC: gain 3, phase dropped at the 0 Hz bin
    assert rel_err(y, np.full(256, 15.0)) < 1e-9


def test_fft_apply_rejects_non_finite():
    with pytest.raises(DataError, match="non-finite"):
        fft_apply(np.array([0.0, np.inf, 0.0]), FrfCurve.constant(1.0), 10.0)


def test_nyquist_guard_warns_but_proceeds(caplog):
    curve = FrfCurve(freq_hz=[1.0, 40.0], gain=[1.0, 1.0], phase_rad=[0.0, 0.0])
    x = np.zeros(64)
    with caplog.at_level(logging.WARNING, logger="motioncomfort.transmission"):
        y = fft_apply(x, curve, 20.0)  # fs <= 2 * 40 Hz
    assert y.shape == x.shape
    assert any("Nyquist" in rec.getMessage() for rec in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="motioncomfort.transmission"):
        fft_apply(x, curve, 100.0)  # 100 > 80: fine
    assert not caplog.records


def _bundle_with_z_pitch_coupling(gain=0.5):
    channels = {}
    for cid in identity_bundle().channels:
        units = identity_bundle().channels[cid].units
        g = 1.0 if cid.is_diagonal else 0.0
        if (cid.set_id, cid.input_axis, cid.output_axis) == (1, "z", "pitch"):
            g = gain
        channels[cid] = FrfCurve.constant(g, 0.0, units=units)
    return FrfBundle(model_id="EXP", channels=channels)


def test_transmit_constant_coupling_wiring():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(512)
    seat = MotionTrace.from_channels(100.0, z=z)
    head, breakdown = transmit(seat, _bundle_with_z_pitch_coupling(0.5))
    assert rel_err(head.channels["z"], z) < 1e-9
    assert rel_err(head.channels["pitch"], 0.5 * z) < 1e-9
    for axis in ("x", "y", "roll", "yaw"):
        assert np.max(np.abs(head.channels[axis])) < 1e-12
    assert head.frame_label == "head"
    cid = FrfChannelId(input_axis="z", output_axis="pitch", set_id=1)
    assert rel_err(breakdown.contributions["pitch"][cid], 0.5 * z) < 1e-9


def test_transmit_identity_returns_seat():
    seat = random_trace(3, n=1777)
    head, _ = transmit(seat, identity_bundle())
    for axis in AXES:
        assert rel_err(head.channels[axis], seat.channels[axis]) < 1e-9


def test_transmit_linearity():
    from motioncomfort import builtin_bundle

    bundle = builtin_bundle("EXP")
    a = random_trace(4, n=1000)
    b = random_trace(5, n=1000)
    alpha, beta = 0.7, -1.3
    mixed = MotionTrace(
        sample_rate_hz=100.0,
        channels={ax: alpha * a.channels[ax] + beta * b.channels[ax] for ax in AXES},
    )
    head_mixed, _ = transmit(mixed, bundle)
    head_a, _ = transmit(a, bundle)
    head_b, _ = transmit(b, bundle)
    for ax in AXES:
        want = alpha * head_a.channels[ax] + beta * head_b.channels[ax]
        assert rel_err(head_mixed.channels[ax], want) < 1e-9


def test_breakdown_sums_to_head_channels():
    from motioncomfort import builtin_bundle

    seat = random_trace(6, n=1500)
    head, breakdown = transmit(seat, builtin_bundle("AHM"))
    for axis in AXES:
        assert rel_err(breakdown.total(axis), head.channels[axis]) < 1e-9
    # the wiring: pitch is fed by exactly three channels, yaw by three, x/y/z by two
    assert len(breakdown.contributions["pitch"]) == 3
    assert len(breakdown.contributions["yaw"]) == 3
    assert len(breakdown.contributions["x"]) == 2


@pytest.mark.parametrize("n", [64, 1000, 9973, 2**14])
def test_round_trip_many_lengths(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    y = fft_apply(x, FrfCurve.constant(1.0), 50.0)
    assert rel_err(y, x) < 1e-9


def test_outputs_real_and_finite():
    from motioncomfort import builtin_bundle

    seat = random_trace(7, n=501)
    head, _ = transmit(seat, builtin_bundle("EXP"))
    for axis in AXES:
        arr = head.channels[axis]
        assert arr.dtype == np.float64
        assert np.all(np.isfinite(arr))


def test_circular_time_invariance():
    # exact-length transforms give circular convolution semantics: shifting a
    # periodic input circularly shifts the output
    fs, n = 64.0, 1024
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * 2.0 * t) + 0.3 * np.sin(2 * np.pi * 5.0 * t + 0.4)
    curve = FrfCurve(
        freq_hz=[0.5, 2.0, 5.0, 8.0],
        gain=[1.0, 1.5, 0.7, 0.2],
        phase_rad=[-0.1, -0.5, -1.0, -1.4],
    )
    y = fft_apply(x, curve, fs)
    m = 137
    y_shifted = fft_apply(np.roll(x, m), curve, fs)
    assert rel_err(y_shifted, np.roll(y, m)) < 1e-6


_LENGTHS = st.one_of(st.integers(2, 600), st.sampled_from([2, 3, 5, 7, 97, 251, 509, 601]))


@settings(max_examples=20, deadline=None)
@given(n=_LENGTHS, seed=st.integers(0, 2**32 - 1))
def test_compare_full_assessment_and_transmit_agree(n, seed):
    seat = random_trace(seed, n=n)
    table = compare(seat, list(MODEL_IDS))
    for row in table.rows:
        bundle = builtin_bundle(row.model_id)
        report = full_assessment(seat, bundle)
        assert row.rc_per_axis == dict(report.rc.per_axis)
        assert row.ms_per_axis == dict(report.ms.per_axis)
        assert (row.rc_total, row.ms_total) == (report.rc.total, report.ms.total)
        assert row.msi_final == report.msi.final

        head, breakdown = transmit(seat, bundle)
        regimes = (ride_comfort_regime(), motion_sickness_regime())
        for got, want in zip((report.rc, report.ms), (assess(head, r) for r in regimes)):
            got_axes = [got.per_axis[a] for a in AXES]
            assert rel_err(got_axes, [want.per_axis[a] for a in AXES]) < 1e-9
            assert rel_err(got.total, want.total) < 1e-9
        for axis in AXES:
            assert rel_err(breakdown.total(axis), head.channels[axis]) < 1e-9


@pytest.mark.parametrize("n", [1001, 100 * 683])  # 68,300 takes the prime-factor split
@pytest.mark.parametrize("model", ["EXP", "NHM"])
def test_read_offs_leave_the_head_spectra_for_the_head_trace_untouched(monkeypatch, model, n):
    seat, bundle = random_trace(25, n=n), builtin_bundle(model)
    heads = []
    incidence = metrics._incidence

    def spied(head, params):
        heads.append(head)
        return incidence(head, params)

    monkeypatch.setattr(metrics, "_incidence", spied)
    full_assessment(seat, bundle)
    want, _ = transmit(seat, bundle)
    assert len(heads) == 1
    for axis in AXES:
        assert heads[0].channels[axis].tobytes() == want.channels[axis].tobytes()


def test_transform_counts(monkeypatch):
    calls = dict.fromkeys(("rfft", "irfft"), 0)
    for name in calls:
        def counted(*args, _name=name, _original=getattr(spectral, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    seat = random_trace(8, n=301)
    _, breakdown = transmit(seat, builtin_bundle("EXP"))
    assert calls == {"rfft": 6, "irfft": 6}
    assert len(breakdown.contributions["pitch"]) == 3
    assert calls["irfft"] == 6 + 14
    breakdown.total("pitch")
    assert calls["irfft"] == 6 + 14

    calls.update(rfft=0, irfft=0)
    compare(seat, list(MODEL_IDS))
    assert calls == {"rfft": 6, "irfft": 4 * 6}


def _reference_products(seat, bundle, spectra):
    """Each channel's product, built at full length: response, DC and Nyquist made real, then
    multiply."""
    n = seat.n_samples
    freqs = spectral.bin_frequencies(n, seat.sample_rate_hz)
    for cid in CHANNEL_IDS:
        response = evaluate_grid(bundle.channels[cid], freqs)
        response[0] = response[0].real
        if n % 2 == 0:
            response[-1] = response[-1].real
        yield cid, np.multiply(spectra[cid.input_axis], response, out=response)


def _reference_sums(seat, bundle, spectra):
    """Per head axis, its channel products summed in CHANNEL_IDS order."""
    sums = dict.fromkeys(AXES)
    for cid, part in _reference_products(seat, bundle, spectra):
        prev = sums[cid.output_axis]
        sums[cid.output_axis] = part if prev is None else prev + part
    return sums


def _sequential_core(seat, bundle):
    """Seat spectra and head signals from one scipy.fft call per channel, in turn."""
    spectra = {axis: scipy_fft.rfft(seat.channels[axis]) for axis in AXES}
    sums = _reference_sums(seat, bundle, spectra)
    return spectra, {axis: scipy_fft.irfft(sums[axis], n=seat.n_samples) for axis in AXES}


# 683 and 6007 are prime, so pocketfft takes its Bluestein path for 1366 and 6007.
@settings(max_examples=30, deadline=None)
@given(
    n=st.one_of(st.integers(2, 400), st.sampled_from([2, 3, 1366, 6007])),
    cpus=st.sampled_from([1, 2, 3]),
    model=st.sampled_from(MODEL_IDS),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, cpus=2, model="EXP", seed=0)
@example(n=3, cpus=3, model="AHM", seed=1)
@example(n=301, cpus=2, model="EHM", seed=2)
@example(n=400, cpus=3, model="NHM", seed=3)
@example(n=6007, cpus=2, model="EXP", seed=4)
def test_threaded_core_is_bit_equal_to_sequential_scipy_calls(n, cpus, model, seed):
    seat, bundle = random_trace(seed, n=n), builtin_bundle(model)
    want_spectra, want_head = _sequential_core(seat, bundle)
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "usable_cpus", lambda: cpus)
        spectra = seat_spectra(seat)
        assert threading.active_count() == threads
        taken = spectra._replace(bins=spectra.bins.copy())  # head_spectra overwrites them
        head = head_trace(taken, head_spectra(taken, bundle))
        assert threading.active_count() == threads
    for i, axis in enumerate(AXES):
        assert np.array_equal(spectra.bins[i], want_spectra[axis])
        assert np.array_equal(head.channels[axis], want_head[axis])


def test_core_is_bit_equal_with_more_threads_than_cores_and_fast_switching(monkeypatch):
    seat, bundle = random_trace(9, n=1366), builtin_bundle("EHM")
    want_spectra, want_head = _sequential_core(seat, bundle)
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            spectra = seat_spectra(seat)
            taken = spectra._replace(bins=spectra.bins.copy())
            head = head_trace(taken, head_spectra(taken, bundle))
            for i, axis in enumerate(AXES):
                assert np.array_equal(spectra.bins[i], want_spectra[axis])
                assert np.array_equal(head.channels[axis], want_head[axis])
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_core_runs_rows_on_one_thread_per_usable_cpu_and_joins_them(monkeypatch, cpus):
    callers = {"rfft": set(), "irfft": set()}
    for name in callers:
        def traced(*args, _name=name, _original=getattr(spectral, name), **kwargs):
            callers[_name].add(threading.get_ident())
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, traced)
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (starts.append(self), start(self)))
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    threads = threading.active_count()
    transmit(random_trace(5, n=301), builtin_bundle("EXP"))
    assert threading.active_count() == threads
    assert len(starts) == 2 * (cpus - 1)  # one helper per further CPU, for each of the two passes
    for idents in callers.values():
        assert threading.get_ident() in idents
        # A helper that has exited may pass its ident on to the next one.
        assert len(idents) == 1 if cpus == 1 else 2 <= len(idents) <= cpus


class _RowFailure(Exception):
    pass


def test_error_in_a_helper_row_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    inverse = spectral.irfft

    def fails_off_the_calling_thread(spectrum, n, out=None):
        if threading.current_thread() is not threading.main_thread():
            raise _RowFailure("helper row")
        return inverse(spectrum, n, out=out)

    monkeypatch.setattr(spectral, "irfft", fails_off_the_calling_thread)
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(_RowFailure, match="helper row"):
        transmit(random_trace(6, n=301), builtin_bundle("EXP"))
    assert threading.active_count() == threads


# Bin counts of blocks * block + 0, 1 or 2 put a block edge next to the last bin.
@settings(max_examples=40, deadline=None)
@given(
    block=st.integers(4, 16),
    blocks=st.integers(1, 5),
    extra=st.sampled_from([0, 1, 2]),
    odd=st.booleans(),
    cpus=st.sampled_from([1, 2, 3]),
    model=st.sampled_from(MODEL_IDS),
    seed=st.integers(0, 2**32 - 1),
)
@example(block=8, blocks=2, extra=1, odd=True, cpus=2, model="EXP", seed=0)  # 2 * block + 1 bins
@example(block=4, blocks=5, extra=2, odd=False, cpus=3, model="NHM", seed=1)
def test_block_core_is_bit_equal_to_one_full_length_build(
    block, blocks, extra, odd, cpus, model, seed
):
    bins = blocks * block + extra
    n = 2 * (bins - 1) + odd
    seat, bundle = random_trace(seed, n=n), builtin_bundle(model)
    spectra = {axis: scipy_fft.rfft(seat.channels[axis]) for axis in AXES}
    want_sums = _reference_sums(seat, bundle, spectra)
    want_parts = dict(_reference_products(seat, bundle, spectra))
    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "BLOCK", block)
        mp.setattr(runtime, "usable_cpus", lambda: cpus)
        row_of = [AXES.index(cid.output_axis) for cid in CHANNEL_IDS]
        stacked = SeatSpectra(np.array([spectra[axis] for axis in AXES]), n, seat.sample_rate_hz)
        sums = _summed_products(stacked, bundle, row_of, np.empty_like(stacked.bins))
        head = head_trace(stacked, head_spectra(stacked, bundle))
        _, breakdown = transmit(seat, bundle)
        contributions = breakdown.contributions
        assert threading.active_count() == threads
    assert sums.shape == (len(AXES), 2 * bins)
    for axis, total in zip(AXES, sums.view(np.complex128)):
        assert np.array_equal(total.view(np.uint64), want_sums[axis].view(np.uint64))
        assert np.array_equal(head.channels[axis], scipy_fft.irfft(want_sums[axis], n=n))
    for cid, part in want_parts.items():
        got = contributions[cid.output_axis][cid]
        assert not got.flags.writeable
        assert np.array_equal(got, scipy_fft.irfft(part, n=n))


def _band_bundle(freqs, edges, seed):
    """An EXP-style bundle whose curve j spans ``edges[j]``, a pair of positions in half bins.

    An even position is a bin, an odd one lies halfway between two bins, 0 is
    0 Hz and positions past the last bin lie above Nyquist.  Equal positions
    make a one-point curve; 0 to 2 random points lie inside a wider band.
    """
    df = freqs[1]
    rng = np.random.default_rng(seed)
    channels = {}
    for cid, (lo, hi) in zip(CHANNEL_IDS, edges):
        f0, f1 = (h // 2 * df if h % 2 == 0 else (h // 2 + 0.5) * df for h in (lo, hi))
        inner = rng.uniform(f0, f1, rng.integers(0, 3)) if hi > lo else []
        freq = np.unique(np.concatenate([[f0], inner, [f1]]))
        channels[cid] = FrfCurve(
            freq, rng.uniform(0.0, 3.0, freq.size), rng.uniform(-4.0, 4.0, freq.size), cid.units
        )
    return FrfBundle("EXP", channels)


@st.composite
def _held_band_case(draw):
    block = draw(st.integers(2, 16))
    bins = draw(st.integers(1, 5)) * block + draw(st.sampled_from([0, 1, 2]))
    half = st.integers(0, 2 * bins + 3)  # up to two bins above the last
    return {
        "block": block,
        "n": 2 * (bins - 1) + draw(st.sampled_from([0, 1])),
        "fs": draw(st.sampled_from([1.0, 37.3, 100.0, 128.0])),
        "edges": [sorted(draw(st.tuples(half, half))) for _ in CHANNEL_IDS],
        "cpus": draw(st.sampled_from([1, 2, 3])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


# 12 bins in blocks [0, 4), [4, 8), [8, 12): bands on bins, between bins, one bin inside
# a block (bin 4, bin 7) or across a block edge (bins 3 and 4), inside the first block,
# from 0 Hz, up to or past Nyquist, and one-point curves at 0 Hz, on a bin, between bins
# and above Nyquist.
_EDGES_12 = [(4, 18), (5, 17), (7, 9), (13, 15), (5, 9), (1, 5), (0, 11), (4, 30), (0, 0),
             (6, 6), (7, 7), (27, 27), (0, 30), (3, 22)]


@settings(max_examples=60, deadline=None)
@given(_held_band_case())
@example({"block": 4, "n": 22, "fs": 100.0, "edges": _EDGES_12, "cpus": 2, "seed": 0})
@example({"block": 4, "n": 23, "fs": 37.3, "edges": _EDGES_12, "cpus": 3, "seed": 1})
@example({"block": 2, "n": 9, "fs": 1.0, "edges": [(h, h + 1) for h in range(14)], "cpus": 2,
          "seed": 2})  # 5 bins in blocks of 2 and 3: every 1-bin band
def test_held_band_fill_is_bit_equal_to_one_full_length_build(case):
    seat = random_trace(case["seed"], n=case["n"], fs=case["fs"])
    freqs = spectral.bin_frequencies(seat.n_samples, seat.sample_rate_hz)
    bundle = _band_bundle(freqs, case["edges"], case["seed"])
    spectra = {axis: scipy_fft.rfft(seat.channels[axis]) for axis in AXES}
    want_sums = _reference_sums(seat, bundle, spectra)
    want_parts = [part for _, part in _reference_products(seat, bundle, spectra)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "BLOCK", case["block"])
        mp.setattr(runtime, "usable_cpus", lambda: case["cpus"])
        row_of = [AXES.index(cid.output_axis) for cid in CHANNEL_IDS]
        stacked = SeatSpectra(
            np.array([spectra[axis] for axis in AXES]), seat.n_samples, seat.sample_rate_hz
        )
        sums = _summed_products(stacked, bundle, row_of, np.empty_like(stacked.bins))
        products = np.empty((len(CHANNEL_IDS), stacked.bins.shape[1]), np.complex128)
        parts = _summed_products(stacked, bundle, range(len(CHANNEL_IDS)), products)
    for total, want in zip(sums.view(np.complex128), (want_sums[axis] for axis in AXES)):
        assert np.array_equal(total.view(np.uint64), want.view(np.uint64))
    for part, want in zip(parts.view(np.complex128), want_parts):
        assert np.array_equal(part.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_block_build_runs_on_one_thread_per_usable_cpu_and_joins_them(monkeypatch, cpus):
    callers = set()
    evaluate = transmission.evaluate_grid

    def traced(curve, freqs):
        callers.add(threading.get_ident())
        return evaluate(curve, freqs)

    blocks, block_response = set(), transmission._block_response

    def block(curve, band, freqs, lo, hi):
        blocks.add((lo, hi))
        return block_response(curve, band, freqs, lo, hi)

    monkeypatch.setattr(transmission, "evaluate_grid", traced)
    monkeypatch.setattr(transmission, "_block_response", block)
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (starts.append(self), start(self)))
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(transmission, "_MIN_BLOCK_BINS", 2)  # 151 bins, 151 // (16 * cpus) a block
    threads = threading.active_count()
    transmit(random_trace(5, n=301), builtin_bundle("EXP"))
    assert threading.active_count() == threads
    assert len(blocks) == {1: 16, 2: 37, 3: 50}[cpus]
    assert len(starts) == 3 * (cpus - 1)  # one helper per further CPU, for each of the three passes
    assert threading.get_ident() in callers
    assert len(callers) == 1 if cpus == 1 else 2 <= len(callers) <= cpus


def test_error_in_a_helper_block_reaches_the_caller_and_leaves_no_thread(monkeypatch):
    evaluate = transmission.evaluate_grid

    def fails_off_the_calling_thread(curve, freqs):
        if threading.current_thread() is not threading.main_thread():
            raise _RowFailure("helper block")
        return evaluate(curve, freqs)

    monkeypatch.setattr(transmission, "evaluate_grid", fails_off_the_calling_thread)
    monkeypatch.setattr(runtime, "BLOCK", 16)
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 2)
    threads = threading.active_count()
    with pytest.raises(_RowFailure, match="helper block"):
        transmit(random_trace(6, n=301), builtin_bundle("EXP"))
    assert threading.active_count() == threads


_GAINS = st.floats(0.1, 10.0).flatmap(lambda g: st.sampled_from([g, -g]))


# With 8 bins a block, n from 2 to 200 crosses up to 12 block edges.
@settings(max_examples=25, deadline=None)
@given(
    n=st.one_of(st.integers(2, 200), st.sampled_from([30, 31, 32, 33, 34, 46, 47, 48, 49, 50])),
    a=_GAINS,
    b=_GAINS,
    model=st.sampled_from(MODEL_IDS),
    seed=st.integers(0, 2**32 - 1),
)
def test_transmission_and_metrics_are_linear_across_blocks(n, a, b, model, seed):
    x, y = random_trace(seed, n=n), random_trace(seed ^ 0x5EED, n=n)
    bundle = builtin_bundle(model)

    def scaled(alpha, beta):
        return MotionTrace(
            100.0, {axis: alpha * x.channels[axis] + beta * y.channels[axis] for axis in AXES}
        )

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "BLOCK", 8)
        mp.setattr(runtime, "usable_cpus", lambda: 2)
        mixed, head_x, head_y = (transmit(seat, bundle)[0] for seat in (scaled(a, b), x, y))
        reports = [full_assessment(seat, bundle) for seat in (x, scaled(a, 0.0))]
    for axis in AXES:
        want = a * head_x.channels[axis] + b * head_y.channels[axis]
        assert rel_err(mixed.channels[axis], want) < 1e-9
    for regime in ("rc", "ms"):
        plain, times_a = (getattr(report, regime).total for report in reports)
        assert rel_err(times_a, abs(a) * plain) < 1e-9


@functools.lru_cache(maxsize=None)
def _saved_text(n: int) -> str:
    """`save_trace`'s text of a random n-sample trace."""
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        save_trace(random_trace(n, n=n), Path(tmp) / "t.csv")
        return (Path(tmp) / "t.csv").read_text()


def _commented(text: str, every: int = 97) -> str:
    """`text` with a comment line and a blank line after the header and every `every` rows."""
    lines = text.split("\n")[:-1]
    out = lines[:1] + ["# a comment", ""]
    for i, row in enumerate(lines[1:], 1):
        out += [row] + (["# a comment", ""] if i % every == 0 else [])
    return "\n".join(out) + "\n"


# Forms of a saved trace that take each parse path: the strict one (LF), numpy's (CRLF, and
# comments with blank lines, whose gaps are closed) and line by line (a lone CR).
SAVED_FORMS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "commented": _commented,
}


@pytest.mark.parametrize("cpus", [1, 3])  # with 1-byte chunks: one range, or three forked
@pytest.mark.parametrize("n", [100 * 683, 4000, 4001])  # split; even and odd, not split
@pytest.mark.parametrize("form", SAVED_FORMS)
def test_load_seat_spectra_is_bit_equal_to_seat_spectra_of_the_loaded_trace(
    tmp_path, monkeypatch, form, n, cpus
):
    path = tmp_path / "t.csv"
    path.write_bytes(SAVED_FORMS[form](_saved_text(n)).encode())
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    monkeypatch.setattr(traceio, "_MIN_CHUNK_BYTES", 1)
    want = seat_spectra(traceio.load_trace(path))
    got = load_seat_spectra(path)
    assert (got.n_samples, got.sample_rate_hz) == (want.n_samples, want.sample_rate_hz) == (n, 100)
    assert got.bins.shape == want.bins.shape
    assert got.bins.tobytes() == want.bins.tobytes()


@pytest.mark.parametrize("n", [3001, 100 * 683])
def test_a_loaded_trace_is_never_overwritten(tmp_path, n):
    path = tmp_path / "t.csv"
    path.write_text(_saved_text(n))
    trace = traceio.load_trace(path)
    kept = [trace.channels[axis].tobytes() for axis in AXES]
    bundle = builtin_bundle("EXP")
    seat_spectra(trace)
    full_assessment(trace, bundle)
    compare(trace, ["EXP", "NHM"])
    transmit(trace, bundle)
    full_assessment(load_seat_spectra(path), bundle)  # another load writes over its own buffer
    assert [trace.channels[axis].tobytes() for axis in AXES] == kept
