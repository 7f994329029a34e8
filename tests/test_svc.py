from __future__ import annotations

import math
import sys
import threading
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import _sigtools, lfilter

from motioncomfort import (
    AXES,
    DataError,
    MotionTrace,
    MsiSeries,
    NumericError,
    SvcParams,
    SynthComponent,
    run_svc,
    synth_trace,
)
from motioncomfort import runtime, svc
from motioncomfort.svc import svc_states


def _head(channels: dict, fs: float = 50.0, n: int | None = None) -> MotionTrace:
    if n is None:
        n = len(next(iter(channels.values())))
    full = {a: channels.get(a, np.zeros(n)) for a in AXES}
    return MotionTrace(sample_rate_hz=fs, channels=full, frame_label="head")


def _assert_series_contract(series: MsiSeries):
    assert np.all(series.msi_percent >= 0.0)
    assert np.all(series.msi_percent <= 100.0)
    assert np.all(np.diff(series.msi_percent) >= 0.0)


def test_zero_motion_yields_identically_zero():
    series = run_svc(_head({}, n=5000))
    _assert_series_contract(series)
    assert np.all(series.msi_percent == 0.0)


def test_constant_offset_conflict_decays_exponentially():
    fs, dur, d = 50.0, 60.0, 2.0
    n = int(dur * fs)
    head = _head({"z": np.full(n, d)}, fs=fs)
    params = SvcParams()
    states = svc_states(head, params)
    t = np.arange(n) / fs
    want = d * np.exp(-t / params.tau_s)
    # first-order response closed form, up to the Euler pole error
    assert np.max(np.abs(states["conflict"] - want)) < 1e-3 * d
    _assert_series_contract(run_svc(head, params))


def test_constant_offset_msi_plateaus():
    fs, dur, d = 20.0, 2400.0, 2.0
    n = int(dur * fs)
    head = _head({"z": np.full(n, d)}, fs=fs)
    series = run_svc(head)
    _assert_series_contract(series)
    assert series.final > 0.0
    # conflict dies within seconds; the accumulator peaks and then holds
    i_80 = int(0.8 * n)
    assert series.msi_percent[-1] == series.msi_percent[i_80]


def test_low_frequency_sine_long_run():
    head = _head(
        {"z": 1.0 * np.sin(2 * np.pi * 0.2 * np.arange(int(1800 * 50)) / 50.0)}, fs=50.0
    )
    series = run_svc(head)
    _assert_series_contract(series)
    assert 0.0 < series.final < 100.0
    # sustained stimulus: strictly increasing over every quarter
    quarters = np.array_split(series.msi_percent, 4)
    for q in quarters:
        assert q[-1] > q[0]


def _oracle_final_msi(head: MotionTrace, params: SvcParams, refine: int) -> float:
    """Plain-loop explicit Euler at `refine` times the trace rate."""
    fs = head.sample_rate_hz * refine
    dt = 1.0 / fs
    n = head.n_samples
    t_src = np.arange(n) / head.sample_rate_hz
    t_fine = np.arange(n * refine) / fs
    ch = {a: np.interp(t_fine, t_src, head.channels[a]) for a in AXES}
    g, tau, mu, b, hill_n = params.g, params.tau_s, params.mu_s, params.b, params.n
    leak = params.orientation_leak_s
    roll_rate = pitch_rate = roll = pitch = 0.0
    v = [0.0, 0.0, g]
    i1 = i2 = 0.0
    peak = 0.0
    for k in range(t_fine.size):
        peak = max(peak, i2)
        gx = g * math.sin(pitch)
        gy = -g * math.cos(pitch) * math.sin(roll)
        gz = g * math.cos(pitch) * math.cos(roll)
        f = (ch["x"][k] + gx, ch["y"][k] + gy, ch["z"][k] + gz)
        c = math.sqrt(sum((fi - vi) ** 2 for fi, vi in zip(f, v)))
        h = c**hill_n / (b**hill_n + c**hill_n)
        i2 += dt * (i1 - i2) / mu
        i1 += dt * (h - i1) / mu
        v = [vi + dt * (fi - vi) / tau for vi, fi in zip(v, f)]
        roll += dt * (roll_rate - roll / leak)
        pitch += dt * (pitch_rate - pitch / leak)
        roll_rate += dt * (ch["roll"][k] - roll_rate / leak)
        pitch_rate += dt * (ch["pitch"][k] - pitch_rate / leak)
    return 100.0 * max(peak, i2)


def _oracle_head_trace() -> MotionTrace:
    return synth_trace(
        [
            SynthComponent(axis="z", kind="sine", amplitude=1.0, f0=0.2),
            SynthComponent(axis="x", kind="noise", amplitude=0.3, f0=0.05, f1=2.0, seed=31),
            SynthComponent(axis="pitch", kind="noise", amplitude=0.04, f0=0.05, f1=1.0, seed=32),
        ],
        duration_s=600.0,
        sample_rate_hz=50.0,
        frame_label="head",
    )


def test_fine_step_oracle_agreement():
    head = _oracle_head_trace()
    params = SvcParams()
    got = run_svc(head, params).final
    want = _oracle_final_msi(head, params, refine=10)
    assert want > 0.0
    assert abs(got - want) < 0.02 * want


def test_step_halving_convergence():
    head = _oracle_head_trace()
    base = run_svc(head).final
    # halve the integration step by resampling the same underlying signal
    fs2 = head.sample_rate_hz * 2
    n2 = head.n_samples * 2
    t_src = head.time_s
    t2 = np.arange(n2) / fs2
    halved = MotionTrace(
        sample_rate_hz=fs2,
        channels={a: np.interp(t2, t_src, head.channels[a]) for a in AXES},
        frame_label="head",
    )
    refined = run_svc(halved).final
    assert abs(refined - base) < 0.01 * base


def test_bounded_for_violent_input():
    rng = np.random.default_rng(33)
    head = _head(
        {a: 50.0 * rng.standard_normal(30000) for a in ("x", "y", "z")}, fs=50.0
    )
    series = run_svc(head)
    _assert_series_contract(series)
    assert series.final <= 100.0


def test_scaling_up_does_not_decrease_final_msi():
    rng = np.random.default_rng(34)
    channels = {a: 0.5 * rng.standard_normal(20000) for a in ("x", "y", "z")}
    channels["pitch"] = 0.02 * rng.standard_normal(20000)
    base = run_svc(_head(dict(channels), fs=50.0)).final
    doubled = run_svc(
        _head({a: 2.0 * v for a, v in channels.items()}, fs=50.0)
    ).final
    assert doubled >= base


def test_params_validation():
    with pytest.raises(DataError):
        SvcParams(tau_s=0.0)
    with pytest.raises(DataError):
        SvcParams(b=-1.0)
    with pytest.raises(DataError):
        SvcParams(n=0.5)
    # One numeric rule with the config loader: no bools, no strings.
    for name in ("tau_s", "b", "n", "mu_s", "g", "orientation_leak_s"):
        for bad in (True, "5", None, np.nan):
            with pytest.raises(DataError, match=f"SVC parameter {name}"):
                SvcParams(**{name: bad})
    # b**n must be a positive finite float, or the Hill squash divides 0 by 0 (or inf by inf).
    # The check itself must not warn, and a tiny but representable b**n still runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ({"b": 1e-300}, {"n": 1e300}, {"b": 2.0, "n": 1e300}, {"b": 1e200, "n": 2.0}):
            with pytest.raises(DataError, match=r"Hill constant b\*\*n"):
                SvcParams(**bad)
        head = _head({}, fs=100.0, n=100)  # at rest, so the conflict is exactly 0
        assert np.all(run_svc(head, SvcParams(b=1e-150)).msi_percent == 0.0)
    params = SvcParams(tau_s=5, mu_s=np.float32(600.0), g=np.float64(9.8))
    assert (params.tau_s, params.mu_s, params.g) == (5.0, 600.0, 9.8)
    assert all(type(v) is float for v in params.as_dict().values())


@pytest.mark.parametrize("params", [{"b": 1.0, "n": 1e300}, {"g": 1e300}, {"g": 1e200}])
def test_overflowing_conflict_or_squash_is_numeric_error(params):
    # conflict**n overflows (then inf / inf) or the squared conflict does: the finiteness
    # checks report it as a NumericError, and no RuntimeWarning escapes on the way.
    head = _head({"z": np.full(100, 3.0), "roll": np.full(100, 0.5)}, fs=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            run_svc(head, SvcParams(**params))


def test_step_must_resolve_time_constant():
    head = _head({"z": np.ones(10)}, fs=0.1)  # dt = 10 s >= tau_s
    with pytest.raises(DataError, match="coarse"):
        run_svc(head, SvcParams(tau_s=5.0))


@pytest.mark.parametrize(
    "name, value",
    [
        ("orientation_leak_s", 0.001),
        ("tau_s", 0.005),
        ("mu_s", 0.006),
        ("tau_s", 1e300),  # dt / value rounds away against 1: the decay is exactly 1
        ("mu_s", 1e308),
    ],
)
def test_every_euler_stage_must_resolve_its_time_constant(name, value):
    head = _head({"z": np.ones(10)}, fs=100.0)
    # dt = 0.01 s is longer than the short constants and negligible against the long ones
    match = f"coarse for {name}" if value < 0.01 else f"{name}=.* too long to resolve at 100 Hz"
    with pytest.raises(DataError, match=match):
        run_svc(head, SvcParams(**{name: value}))


@st.composite
def _accepted_run(draw):
    """A sample rate, SvcParams whose every time constant is >= the sample
    interval (the accepted range), and a head trace at that rate."""
    fs = draw(st.floats(min_value=0.5, max_value=2000.0))
    steps = st.floats(min_value=1.0, max_value=1e4)  # time constant / sample interval
    params = SvcParams(
        tau_s=draw(steps) / fs,
        mu_s=draw(steps) / fs,
        orientation_leak_s=draw(steps) / fs,
        b=draw(st.floats(min_value=1e-3, max_value=10.0)),
        n=draw(st.floats(min_value=1.0, max_value=8.0)),
        g=draw(st.floats(min_value=0.1, max_value=20.0)),
    )
    n = draw(st.integers(min_value=2, max_value=300))
    data = draw(arrays(np.float64, (6, n), elements=st.floats(-1e4, 1e4)))
    return _head(dict(zip(AXES, data)), fs=fs), params


@settings(max_examples=150, deadline=None)
@given(_accepted_run())
def test_msi_bounded_and_monotone_for_accepted_params(run):
    head, params = run
    _assert_series_contract(run_svc(head, params))


def _states_all_at_once(head: MotionTrace, p: SvcParams) -> dict:
    """The model written as one block that keeps every intermediate, (3, n) arrays included."""
    dt = 1.0 / head.sample_rate_hz

    def euler(x, gain_dt, time_constant, y0):
        return lfilter([0.0, gain_dt], [1.0, -(1.0 - dt / time_constant)], x, zi=[y0])[0]

    leak = p.orientation_leak_s
    roll = euler(euler(head.channels["roll"], dt, leak, 0.0), dt, leak, 0.0)
    pitch = euler(euler(head.channels["pitch"], dt, leak, 0.0), dt, leak, 0.0)
    gravity = np.stack(
        [p.g * np.sin(pitch), -p.g * np.cos(pitch) * np.sin(roll), p.g * np.cos(pitch) * np.cos(roll)]
    )
    sensed = np.stack([head.channels[a] for a in ("x", "y", "z")]) + gravity
    vertical = np.stack(
        [euler(sensed[i], dt / p.tau_s, p.tau_s, rest) for i, rest in enumerate((0.0, 0.0, p.g))]
    )
    conflict = np.sqrt(np.sum(np.square(sensed - vertical), axis=0))
    squashed = conflict**p.n / (p.b**p.n + conflict**p.n)
    stage1 = euler(squashed, dt / p.mu_s, p.mu_s, 0.0)
    stage2 = euler(stage1, dt / p.mu_s, p.mu_s, 0.0)
    return {
        "roll_angle": roll,
        "pitch_angle": pitch,
        "sensed": sensed,
        "subjective_vertical": vertical,
        "conflict": conflict,
        "squashed": squashed,
        "stage1": stage1,
        "stage2": stage2,
        "msi_percent": 100.0 * np.maximum.accumulate(stage2),
    }


# Blocks of a * n + b samples: 1, 2 and 7, then n - 1 (a tail block of 1 sample), n and 2 * n.
_BLOCK_SIZES = [(0, 1), (0, 2), (0, 7), (1, -1), (1, 0), (2, 0)]


@settings(max_examples=80, deadline=None)
@given(run=_accepted_run(), size=st.sampled_from(_BLOCK_SIZES))
def test_streamed_stages_are_bit_equal_to_keeping_every_stage(run, size):
    head, params = run
    want = _states_all_at_once(head, params)

    def no_thread(self):
        raise AssertionError("SVC started a thread")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svc, "_BLOCK_SAMPLES", max(1, size[0] * head.n_samples + size[1]))
        mp.setattr(threading.Thread, "start", no_thread)
        states = svc_states(head, params)
        series = run_svc(head, params)
    assert list(states) == list(want)
    for name, trajectory in want.items():
        assert states[name].shape == trajectory.shape
        assert states[name].tobytes() == trajectory.tobytes(), name
    assert series.msi_percent.tobytes() == want["msi_percent"].tobytes()


def test_a_tail_block_of_one_sample_carries_every_state():
    # 15 samples in blocks of 7: 7, 7 and 1.  A 2 s pulse of heave and roll: every state is
    # away from rest at the last sample, and stage2 peaks at sample 8 and then falls, so the
    # MSI of the lone last sample is the maximum carried from the block before.
    z, roll = np.zeros(15), np.zeros(15)
    z[:4], roll[:2], roll[2:4] = 3.0, 0.5, -0.5
    head = _head({"z": z, "roll": roll}, fs=2.0)
    params = SvcParams(tau_s=1.0, mu_s=1.0, orientation_leak_s=1.0)
    want = _states_all_at_once(head, params)
    assert np.argmax(want["stage2"]) == 8 and want["stage2"][-1] < 0.3 * want["stage2"][8]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svc, "_BLOCK_SAMPLES", 7)
        states = svc_states(head, params)
    for name, trajectory in want.items():
        assert states[name].tobytes() == trajectory.tobytes(), name


_SIGTOOLS = ("scipy.signal._sigtools", "signal/_sigtools")


def test_the_recurrences_run_lfilters_own_compiled_filter(monkeypatch):
    assert svc._linear_filter is _sigtools._linear_filter
    monkeypatch.delitem(sys.modules, _SIGTOOLS[0])
    loaded = runtime.scipy_kernel(*_SIGTOOLS, svc._filters_exactly)
    assert loaded._linear_filter is _sigtools._linear_filter
    assert _SIGTOOLS[0] not in sys.modules  # loaded from its file, not imported


def _off_by_one_ulp(b, a, x, axis, zi):
    y, zf = _sigtools._linear_filter(b, a, x, axis, zi)
    return np.nextafter(y, np.inf), zf


def _no_load(spec):
    raise ImportError(f"cannot load {spec.origin}")


def _checked_as(**names):
    """A check that runs SVC's on a module holding only `names`, not on the loaded module."""
    return lambda module: svc._filters_exactly(types.SimpleNamespace(**names))


@pytest.mark.parametrize(
    "patch, check",
    [
        (lambda mp, tmp: mp.setattr(runtime, "_SCIPY_FILE", f"{tmp}/%s.so"), svc._filters_exactly),
        (lambda mp, tmp: mp.setattr(runtime.importlib.util, "module_from_spec", _no_load),
         svc._filters_exactly),
        (lambda mp, tmp: None, _checked_as()),
        (lambda mp, tmp: None, _checked_as(_linear_filter=lambda b, a, x, zi: None)),
        (lambda mp, tmp: None, _checked_as(_linear_filter=_off_by_one_ulp)),
    ],
    ids=["no-file", "load-raises-ImportError", "no-_linear_filter", "another-signature",
         "wrong-value"],
)
def test_a_compiled_filter_that_fails_falls_back_to_importing_scipy_signal(
    monkeypatch, tmp_path, patch, check
):
    # Each failure is refused, and SVC takes the filter from scipy.signal's own import.
    patch(monkeypatch, tmp_path)
    monkeypatch.delitem(sys.modules, _SIGTOOLS[0])
    fallback = runtime.scipy_kernel(*_SIGTOOLS, check)
    assert fallback is sys.modules[_SIGTOOLS[0]] and "scipy.signal" in sys.modules
    assert fallback._linear_filter is _sigtools._linear_filter


def test_direct_filter_fallback_and_per_stage_lfilter_give_the_same_bits(monkeypatch, tmp_path):
    # 129 samples in blocks of 64: 64, 64 and 1, each carrying all nine filter states.
    rng = np.random.default_rng(27)
    head = _head({axis: rng.standard_normal(129) for axis in AXES}, fs=10.0)
    params = SvcParams(tau_s=2.0, mu_s=5.0, orientation_leak_s=3.0)
    want = _states_all_at_once(head, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "_SCIPY_FILE", f"{tmp_path}/%s.so")
        mp.delitem(sys.modules, _SIGTOOLS[0])
        fallback = runtime.scipy_kernel(*_SIGTOOLS, svc._filters_exactly)._linear_filter
    monkeypatch.setattr(svc, "_BLOCK_SAMPLES", 64)
    for linear_filter in (svc._linear_filter, fallback, lfilter):
        monkeypatch.setattr(svc, "_linear_filter", linear_filter)
        states = svc_states(head, params)
        for name, trajectory in want.items():
            assert states[name].tobytes() == trajectory.tobytes(), name


@pytest.mark.parametrize("params", [{"b": 1.0, "n": 1e300}, {"g": 1e300}])
def test_overflow_in_a_later_block_is_one_numeric_error(monkeypatch, params):
    # At rest for the first 50 samples, so the conflict is 0 there and only the
    # second block overflows, after the first has been yielded.
    z = np.concatenate([np.zeros(50), np.full(50, 30.0)])
    head = _head({"z": z, "roll": np.where(z > 0.0, 0.5, 0.0)}, fs=100.0)
    assert not np.any(svc_states(head)["conflict"][:50])
    monkeypatch.setattr(svc, "_BLOCK_SAMPLES", 50)
    yielded, blocks = [], svc._blocks

    def recorded(*args):
        for block, stages in blocks(*args):
            yielded.append((block.start, block.stop))
            yield block, stages

    monkeypatch.setattr(svc, "_blocks", recorded)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="non-finite"):
            run_svc(head, SvcParams(**params))
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert yielded == [(0, 50)]


def test_series_time_matches_trace():
    head = _head({"z": np.ones(100)}, fs=50.0)
    series = run_svc(head)
    assert series.time_s.shape == (100,)
    assert series.time_s[1] == pytest.approx(1 / 50.0)


def test_run_svc_hands_its_arrays_over_and_public_series_copy(monkeypatch):
    copied, kept, frozen_array = [], [], svc._frozen_array

    def spy(values, owned=False):
        (kept if owned else copied).append(values)
        return frozen_array(values, owned)

    monkeypatch.setattr(svc, "_frozen_array", spy)
    monkeypatch.setattr(svc, "_BLOCK_SAMPLES", 30)  # the MSI is written in 4 blocks
    series = run_svc(_head({"z": np.ones(100)}, fs=50.0))
    assert copied == []  # kept, not copied
    assert [id(a) for a in kept] == [id(series.time_s), id(series.msi_percent)]
    assert series.msi_percent.base is None  # the array run_svc filled, not a view of a block
    assert not series.time_s.flags.writeable and not series.msi_percent.flags.writeable
    t, m = np.arange(4.0), np.zeros(4)
    given_series = MsiSeries(t, m)
    assert len(copied) == 2  # the public constructor copied
    t[1] = m[1] = 7.0
    assert given_series.time_s[1] == 1.0 and given_series.msi_percent[1] == 0.0
    assert t.flags.writeable and m.flags.writeable  # and left the caller's arrays alone
    assert not given_series.time_s.flags.writeable
