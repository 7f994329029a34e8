from __future__ import annotations

import errno
import io
import os
import re
import sys
import tempfile
import threading
import tracemalloc
import types
import warnings
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import fft as _fft

from motioncomfort import (
    AXES,
    ConfigError,
    DataError,
    MotionTrace,
    SynthComponent,
    load_seat_spectra,
    load_trace,
    save_trace,
    synth_trace,
)
from motioncomfort import g17, runtime, traceio
from motioncomfort.report import save_msi_csv
from motioncomfort.svc import MsiSeries
from motioncomfort.traceio import atomic_write_text, format_rows
from conftest import fuzzed_body, random_trace

# Values whose text form is easy to get wrong: signed zero, the smallest
# subnormal, the largest double, integers, and values at or near a .2f tie.
AWKWARD = np.array([
    -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.0, 3.0, -42.0,
    0.125, 0.375, 1.005, 2.675, -0.005, 0.015, 1e16, 123456789.0, 1 / 3, -2.5e-300,
])


def test_load_small_well_formed_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "t_s,ax,ay,az,aroll,apitch,ayaw\n"
        "0,0.1,0,0,0,0,0\n"
        "0.01,0.2,0,0,0,0,0\n"
        "0.02,0.3,0,0,0,0,0\n"
    )
    trace = load_trace(path)
    assert trace.n_samples == 3
    assert trace.sample_rate_hz == 100.0
    np.testing.assert_allclose(trace.channels["x"], [0.1, 0.2, 0.3])


def test_jittered_timestamps_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "t_s,ax,ay,az,aroll,apitch,ayaw\n"
        "0,0,0,0,0,0,0\n"
        "0.0100001,0,0,0,0,0,0\n"  # 10 ppm jitter
        "0.02,0,0,0,0,0,0\n"
    )
    with pytest.raises(DataError, match="non-uniform"):
        load_trace(path)


def _time_column_outcome(path, t: np.ndarray) -> str:
    rows = "".join(f"{v!r},0,0,0,0,0,0\n" for v in t.tolist())
    path.write_text(traceio.TRACE_HEADER + "\n" + rows)
    try:
        return str(load_trace(path).sample_rate_hz)
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("block", [runtime.BLOCK, 7])
def test_the_rate_check_in_blocks_keeps_its_errors_their_order_and_its_maximum(
    tmp_path, monkeypatch, block
):
    # The time steps are checked in blocks of runtime.BLOCK.  A non-increasing step is reported
    # before a non-uniform one wherever each lies, and the largest step deviation decides as
    # the whole column's does: shifts of one row within a few ulp of 1 ppm of the step.
    path = tmp_path / "t.csv"
    t = np.arange(runtime.BLOCK + 100) / 100.0
    late = runtime.BLOCK  # at the default size, the step into the second block
    monkeypatch.setattr(runtime, "BLOCK", block)
    early_jitter_late_repeat = t.copy()
    early_jitter_late_repeat[10] += 1e-6
    early_jitter_late_repeat[late] = early_jitter_late_repeat[late - 1]
    assert _time_column_outcome(path, early_jitter_late_repeat).endswith(
        "time column is not strictly increasing"
    )
    t = t[:60]
    dt = (t[-1] - t[0]) / (len(t) - 1)
    outcomes = set()
    for shift in 1e-8 + np.spacing(t[40]) * np.arange(-4, 5):
        u = t.copy()
        u[40] += shift
        over = np.max(np.abs(np.diff(u) - dt)) > traceio.UNIFORMITY_TOL * dt
        got = _time_column_outcome(path, u)
        assert got.endswith("time step varies by more than 1 ppm)") if over else got == "100.0"
        outcomes.add(over)
    assert outcomes == {False, True}


def test_round_trip_bit_exact(tmp_path):
    trace = random_trace(20, n=257, fs=100.0)
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    back = load_trace(path)
    assert back.sample_rate_hz == trace.sample_rate_hz
    for axis in AXES:
        np.testing.assert_array_equal(back.channels[axis], trace.channels[axis])


def test_missing_columns_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("t_s,ax,ay,az\n0,0,0,0\n0.01,0,0,0\n")
    with pytest.raises(DataError, match="header"):
        load_trace(path)


def test_header_error_quotes_a_bounded_prefix(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x," * 100_000)  # no line break: the whole file is the first line
    with pytest.raises(DataError, match="header") as err:
        load_trace(path)
    assert len(str(err.value)) < 300


def test_nan_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "t_s,ax,ay,az,aroll,apitch,ayaw\n0,0,0,0,0,0,0\n0.01,nan,0,0,0,0,0\n"
    )
    with pytest.raises(DataError, match="non-finite"):
        load_trace(path)


def test_synth_sine_rms():
    trace = synth_trace(
        [SynthComponent(axis="z", kind="sine", amplitude=1.0, f0=1.0)], 60.0, 100.0
    )
    got = np.sqrt(np.mean(trace.channels["z"] ** 2))
    assert abs(got - 1 / np.sqrt(2)) < 1e-6


def test_synth_deterministic():
    spec = [SynthComponent(axis="y", kind="noise", amplitude=0.5, f0=0.1, f1=2.0, seed=7)]
    a = synth_trace(spec, 30.0, 100.0)
    b = synth_trace(spec, 30.0, 100.0)
    for axis in AXES:
        np.testing.assert_array_equal(a.channels[axis], b.channels[axis])


def test_noise_band_limited():
    trace = synth_trace(
        [SynthComponent(axis="x", kind="noise", amplitude=1.0, f0=0.1, f1=2.0, seed=8)],
        120.0,
        100.0,
    )
    x = trace.channels["x"]
    spectrum = np.abs(_fft.rfft(x)) ** 2
    freqs = _fft.rfftfreq(x.size, d=0.01)
    in_band = (freqs >= 0.1) & (freqs <= 2.0)
    assert spectrum[in_band].sum() >= 0.99 * spectrum.sum()
    assert np.sqrt(np.mean(x**2)) == pytest.approx(1.0, rel=1e-9)


def test_synth_rejects_supra_nyquist():
    with pytest.raises(DataError, match="Nyquist"):
        synth_trace(
            [SynthComponent(axis="x", kind="noise", amplitude=1.0, f0=0.1, f1=60.0)],
            10.0,
            100.0,
        )


def test_synth_components_add():
    spec = [
        SynthComponent(axis="z", kind="sine", amplitude=1.0, f0=1.0),
        SynthComponent(axis="z", kind="sine", amplitude=0.5, f0=2.0),
    ]
    trace = synth_trace(spec, 10.0, 100.0)
    t = trace.time_s
    want = np.sin(2 * np.pi * t) + 0.5 * np.sin(2 * np.pi * 2 * t)
    np.testing.assert_allclose(trace.channels["z"], want, atol=1e-12)


def test_synth_sweep_runs():
    trace = synth_trace(
        [SynthComponent(axis="x", kind="sweep", amplitude=1.0, f0=0.5, f1=5.0)],
        20.0,
        100.0,
    )
    assert np.max(np.abs(trace.channels["x"])) <= 1.0 + 1e-9
    assert np.std(trace.channels["x"]) > 0.1


def test_synth_trace_keeps_its_fresh_channels(monkeypatch):
    handed, frozen_array = [], traceio._frozen_array

    def spy(values, owned=False):
        assert owned, "synth_trace's channels were copied"
        handed.append(values)
        return frozen_array(values, owned)

    monkeypatch.setattr(traceio, "_frozen_array", spy)
    spec = [SynthComponent(axis="z", kind="sine", amplitude=1.0, f0=1.0)]
    trace = synth_trace(spec, 1.0, 50.0)
    assert len(handed) == len({id(a) for a in handed}) == len(AXES)
    assert all(trace.channels[axis] is a for axis, a in zip(AXES, handed))  # kept, not copied
    assert not any(channel.flags.writeable for channel in handed)


def test_dict_components_accepted():
    trace = synth_trace(
        [{"axis": "z", "kind": "sine", "amplitude": 2.0, "f0": 0.5}], 10.0, 50.0
    )
    assert np.max(np.abs(trace.channels["z"])) == pytest.approx(2.0, rel=1e-3)


@pytest.mark.parametrize(
    "n_rows", [0, 1, runtime.BLOCK - 1, runtime.BLOCK, runtime.BLOCK + 1]
)
def test_format_rows_matches_fstring_oracle(n_rows):
    a = np.resize(AWKWARD, n_rows)
    b = np.resize(-AWKWARD[::-1], n_rows) * 0.5
    # Oracle: an f-string per numpy scalar, one sample at a time.
    csv_oracle = "h\n" + "".join(f"{t:.17g},{m:.17g}\n" for t, m in zip(a, b))
    assert "".join(format_rows((a, b), "h\n")) == csv_oracle


def test_no_fast_double_rounds_up_to_a_power_of_ten():
    # 17 digits round up to 10**(k+1) only from the last 5e-18 (relative) below it, and the
    # only double there could be the largest one below 10**(k+1).  So g17 has no carry.
    for k in range(-11, 16):
        below = float(np.nextafter(g17._least_double_at_least(k + 1), 0.0))
        assert g17.FAST_LOW <= below < g17.FAST_HIGH
        assert Fraction(below) < Fraction(10) ** (k + 1) - Fraction(10) ** (k - 16) / 2


def test_exponent_estimate_is_exact_over_the_fast_domain():
    # g17 raises its estimate of floor(log10 |x|) by at most one, which is enough only if the
    # estimate is exactly floor(log10(2**e)) for |x| in [2**e, 2**(e + 1)).
    lowest, highest = (int(np.float64(v).view(np.uint64)) >> 52 for v in (g17.FAST_LOW, 1e16))
    for biased in range(lowest, highest + 1):
        power = Fraction(2) ** (biased - 1023)
        k = int(g17._K_ESTIMATE[biased]) - 12
        assert Fraction(10) ** k <= power < Fraction(10) ** (k + 1)


def test_save_trace_matches_fstring_oracle(tmp_path):
    n = runtime.BLOCK + 3
    channels = {axis: np.resize(np.roll(AWKWARD, i), n) for i, axis in enumerate(AXES)}
    trace = MotionTrace(sample_rate_hz=100.0, channels=channels)
    body = np.column_stack([trace.time_s] + [trace.channels[a] for a in AXES])
    rows = ["t_s,ax,ay,az,aroll,apitch,ayaw"]
    rows.extend(",".join(f"{v:.17g}" for v in row) for row in body)
    save_trace(trace, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text() == "\n".join(rows) + "\n"


FINITE = st.floats(allow_nan=False, allow_infinity=False)


# Integer rates, rates within 1e-12 to 1e-9 relative of an integer, and any other rate.
NEAR_INTEGER = st.builds(
    lambda k, d: k * (1.0 + d),
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=1e-12, max_value=1e-9) | st.floats(min_value=-1e-9, max_value=-1e-12),
)
RATES = (
    st.integers(min_value=1, max_value=5000).map(float)
    | NEAR_INTEGER
    | st.floats(min_value=1e-3, max_value=1e7)
)


def _column_fits_another_rate(fs: float, n: int) -> bool:
    """True when another rate load_trace may try (the nearest integer, or a double within
    4 ulp of `fs`) gives the same n-sample time column, and so the same file, as `fs`.  For
    a non-integer rate that is common below about 16 samples and happens for about 1 rate
    in 10,000 at 20 to 60.  An integer rate is tried first, so it always loads back."""
    t = np.arange(n) / fs
    others, up, down = [round(fs)], fs, fs
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        others += [up, down]
    return any(r != fs and r > 0 and np.array_equal(np.arange(n) / r, t) for r in others)


@settings(max_examples=120, deadline=None)
@given(
    fs=RATES,
    data=st.integers(min_value=2, max_value=40).flatmap(
        lambda n: arrays(np.float64, (6, n), elements=FINITE)
    ),
)
@example(fs=0.7, data=np.linspace(-1.0, 1.0, 6000).reshape(6, 1000))
@example(fs=12345.678, data=np.linspace(-1.0, 1.0, 600).reshape(6, 100))
@example(fs=1000000.5, data=np.linspace(-1.0, 1.0, 600).reshape(6, 100))
@example(fs=100.00000005, data=np.linspace(-1.0, 1.0, 120).reshape(6, 20))
@example(fs=100.00000005, data=np.linspace(-1.0, 1.0, 6000).reshape(6, 1000))
@example(fs=5000.000001, data=np.linspace(-1.0, 1.0, 120).reshape(6, 20))
@example(fs=5000.000001, data=np.linspace(-1.0, 1.0, 6000).reshape(6, 1000))
@example(fs=1000000.0001, data=np.linspace(-1.0, 1.0, 120).reshape(6, 20))
@example(fs=1000000.0001, data=np.linspace(-1.0, 1.0, 6000).reshape(6, 1000))
@example(fs=99.99999999, data=np.linspace(-1.0, 1.0, 120).reshape(6, 20))
@example(fs=99.99999999, data=np.linspace(-1.0, 1.0, 6000).reshape(6, 1000))
@example(fs=1000.0000004, data=np.linspace(-1.0, 1.0, 120).reshape(6, 20))
@example(fs=1000.0000004, data=np.linspace(-1.0, 1.0, 6000).reshape(6, 1000))
def test_round_trip_bit_exact_property(fs, data):
    assume(fs == round(fs) or not _column_fits_another_rate(fs, data.shape[1]))
    trace = MotionTrace(sample_rate_hz=fs, channels=dict(zip(AXES, data)))
    with tempfile.TemporaryDirectory() as tmp:
        save_trace(trace, Path(tmp) / "t.csv")
        back = load_trace(Path(tmp) / "t.csv")
    assert back.sample_rate_hz == trace.sample_rate_hz
    for axis in AXES:
        assert back.channels[axis].tobytes() == trace.channels[axis].tobytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_atomic_write_honours_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == mode


def test_atomic_write_chunks_and_failure_leaves_old_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(path, iter(["a,", "b\n", ""]))
    assert path.read_text() == "a,b\n"

    def failing():
        yield "partial"
        raise RuntimeError("formatter failed")

    with pytest.raises(RuntimeError):
        atomic_write_text(path, failing())
    assert path.read_text() == "a,b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _load(path, cpus: int = 1, spy: list | None = None) -> MotionTrace:
    """load_trace with `cpus` usable CPUs and a 1-byte minimum chunk, so every CPU gets a range."""
    parse_chunks = traceio._parse_chunks

    def spied(path, bounds, header_line):
        if spy is not None:
            spy.append(len(bounds) - 1)
        return parse_chunks(path, bounds, header_line)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "_MIN_CHUNK_BYTES", 1)
        mp.setattr(runtime, "usable_cpus", lambda: cpus)
        mp.setattr(traceio, "_parse_chunks", spied)
        return load_trace(path)


def _assert_same_trace(got: MotionTrace, want: MotionTrace) -> None:
    assert got.sample_rate_hz == want.sample_rate_hz
    for axis in AXES:
        assert got.channels[axis].tobytes() == want.channels[axis].tobytes()


def _trace_text(trace: MotionTrace, tmp_path) -> str:
    save_trace(trace, tmp_path / "plain.csv")
    return (tmp_path / "plain.csv").read_text()


def _decorate(text: str, every: int, extra: str) -> str:
    """Put `extra` lines after the header and after every `every`-th data row."""
    lines = text.splitlines()
    out = [lines[0], extra]
    for i, row in enumerate(lines[1:]):
        out.append(row)
        if i % every == every - 1:
            out.append(extra)
    return "\n".join(out) + "\n"


# Every form load_trace has always read: (name, rewrite of save_trace's text).
ACCEPTED_FORMS = {
    "comment_lines": lambda t: _decorate(t, 3, "# a comment, 1,2,3"),
    "inline_comments": lambda t: t.replace("\n", " # note\n").replace(" # note", "", 1),
    "leading_comments_and_blanks": lambda t: "# made by hand\n\n   \n  # indented\n" + t,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "cr": lambda t: t.replace("\n", "\r"),
    "no_final_newline": lambda t: t[:-1],
    "whitespace_lines": lambda t: _decorate(t, 2, " \t  "),
    "blank_lines": lambda t: _decorate(t, 4, ""),
    "indented_comment_lines": lambda t: _decorate(t, 5, "   # indented"),
    # numpy's parser ends a comment only at LF: these once hid the row after the comment.
    "comment_lines_ending_in_cr": lambda t: _decorate(t, 3, "# note\r").replace("\r\n", "\r"),
    "inline_comments_ending_in_cr": lambda t: "".join(
        row + (" # note\r" if i % 3 == 1 else "\n") for i, row in enumerate(t.split("\n"))
    ),
}


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("form", ACCEPTED_FORMS)
def test_accepted_input_forms(tmp_path, form, cpus):
    trace = random_trace(21, n=97, fs=50.0)
    path = tmp_path / "t.csv"
    path.write_bytes(ACCEPTED_FORMS[form](_trace_text(trace, tmp_path)).encode())
    _assert_same_trace(_load(path, cpus), trace)


LINE_DECORATIONS = ["", " # inline", "\n# comment", "\n", "\n  \t ", "\n   # indented"]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=12, max_value=60),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lead=st.sampled_from(["", "# c\n", "\n \n# c\n"]),
    newlines=st.sampled_from([["\n"], ["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]),
    read_bytes=st.just(traceio._READ_BYTES) | st.integers(min_value=1, max_value=64),
    final_newline=st.booleans(),
    data=st.data(),
)
def test_parallel_parse_equals_one_chunk_and_original(
    n, seed, lead, newlines, read_bytes, final_newline, data
):
    # Each line is ended by an LF, a CRLF or a lone CR (one form, or a mix line by line), and
    # small pieces put some piece ends right after a CR: the LF original's bytes, every way.
    trace = random_trace(seed, n=n, fs=100.0)
    with tempfile.TemporaryDirectory() as tmp:
        lines = _trace_text(trace, Path(tmp)).splitlines()
        extra = data.draw(st.lists(st.sampled_from(LINE_DECORATIONS), min_size=n, max_size=n))
        body = [lines[0]] + [row + tail for row, tail in zip(lines[1:], extra)]
        parts = (lead + "\n".join(body) + ("\n" if final_newline else "")).split("\n")
        ends = data.draw(st.lists(st.sampled_from(newlines), min_size=len(parts) - 1,
                                  max_size=len(parts) - 1))
        path = Path(tmp) / "t.csv"
        path.write_bytes("".join(map(str.__add__, parts, ends + [""])).encode())
        chunks: list[int] = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traceio, "_READ_BYTES", read_bytes)
            parallel = _load(path, cpus=4, spy=chunks)
            serial = _load(path, cpus=1)
    assert chunks[0] >= 3
    _assert_same_trace(parallel, serial)
    _assert_same_trace(parallel, trace)


def _outcome(load, path):
    """What loading `path` gives: the rate and channel bytes, or the error's type and text."""
    try:
        trace = load(path)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)
    return trace.sample_rate_hz, [trace.channels[axis].tobytes() for axis in AXES]


@settings(max_examples=30, deadline=None)
@given(body=fuzzed_body())
@example(body=b"0.0,0,0,0,0,0,0\n0.01,1,0,0,0,0,0\n# note\r0.02,2,0,0,0,0,0\n0.03,3,0,0,0,0,0\n")
def test_load_trace_fuzz_inline_and_forked_chunks_agree(body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(traceio.TRACE_HEADER.encode() + b"\n" + body)
        inline = _outcome(load_trace, path)
        forked = _outcome(lambda p: _load(p, cpus=3), path)
    assert inline == forked


def _strict_and_loadtxt(raw: bytes):
    """The strict path's (7, rows) values or None, and np.loadtxt's values as (7, rows) or None."""
    strict = traceio._strict_piece(raw)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an empty input, or 1e400 read as inf
            reference = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2).T
    except ValueError:
        reference = None
    return strict, reference


def _assert_declined_or_bit_equal(strict, reference) -> None:
    if strict is not None:
        assert reference is not None, "the strict path read bytes that np.loadtxt rejects"
        assert strict.shape == reference.shape
        assert strict.tobytes() == np.ascontiguousarray(reference).tobytes()


_STRICT_TOKEN = r"-?([0-9]+(\.[0-9]+)?|\.[0-9]+)([eE][+-]?[0-9]+)?"  # the strict grammar
# Tokens each check of the strict path exists for: the sign of a zero, one '.' and one exponent
# per token, where a sign may stand, what follows an exponent marker.
STRICT_EXAMPLES = [
    "-0", "-0.0e5", "-1e-400", ".5", "-.5", "00012", "9" * 25, "1e400", "1.5E+07", "-2e-5",
    "1.2.3", "1e", "1e+", "1-2", "1e5e5", "1e5.5", "1e-.5", "1e--5", "+1", "5.", "-", "",
]


def _tokens(longest: int):
    """Tokens of the strict grammar, with digit runs of up to `longest` digits."""
    digits = st.text("0123456789", min_size=1, max_size=longest)
    return st.builds(
        lambda sign, mantissa, exponent: sign + mantissa + exponent,
        st.sampled_from(["", "-"]),
        digits | st.tuples(st.text("0123456789", max_size=3), digits).map(".".join),
        st.just("") | st.tuples(st.sampled_from("eE"), st.sampled_from(["", "+", "-"]), digits).map(
            "".join
        ),
    )


@st.composite
def _edited_tokens(draw) -> str:
    """A short strict token with one or two characters inserted, replaced or deleted, or cut
    short."""
    token = draw(_tokens(2))
    for _ in range(draw(st.integers(1, 2))):
        at, char = draw(st.integers(0, len(token))), draw(st.sampled_from("05-+.eE"))
        edit = draw(st.sampled_from([char, token[at : at + 1] + char, "", None]))
        token = token[:at] if edit is None else token[:at] + edit + token[at + 1 :]
    return token


_NEAR_MISSES = _edited_tokens() | st.text("0123456789-+.eE", max_size=8)
_FLOAT_TEXTS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.floats().map(
    lambda x: f"{x:.17g}"
)
_FIELDS = _tokens(25) | _FLOAT_TEXTS | st.sampled_from(["-0", "-0.0e5", "-1e-400", "1e400"])
_FLAWS = ["none", "field", "field", "field", "move", "ending", "tail"]


@st.composite
def _strict_candidates(draw) -> tuple[bytes, bool]:
    """Rows of seven drawn fields with at most one flaw, and whether the bytes follow the
    strict grammar.  A flaw is a near-miss field, a field moved to the next row (6 and 8
    fields, 14 values), another line ending, or a last row without one."""
    rows = [[draw(_FIELDS) for _ in range(7)] for _ in range(draw(st.integers(1, 4)))]
    row, ending, tail = draw(st.integers(0, len(rows) - 1)), "\n", ""
    flaw = draw(st.sampled_from(_FLAWS))
    if flaw == "field":
        rows[row][draw(st.integers(0, 6))] = draw(_NEAR_MISSES)
    elif flaw == "move" and row + 1 < len(rows):
        rows[row + 1].insert(0, rows[row].pop())
    elif flaw == "ending":
        ending = draw(st.sampled_from(["\r\n", " \n", ""]))
    elif flaw == "tail":
        tail = ",".join(rows.pop()[: draw(st.integers(1, 7))]) if len(rows) > 1 else "7"
    strict = not tail and ending == "\n" and all(
        len(fields) == 7 and all(re.fullmatch(_STRICT_TOKEN, f) for f in fields) for fields in rows
    )
    return ("".join(",".join(fields) + ending for fields in rows) + tail).encode(), strict


@pytest.mark.parametrize(
    "raw",
    [
        b"0,1,2,3,4,5\n0,1,2,3,4,5,6,7\n",  # 6 then 8 fields: 14 values, two rows' worth
        b"0,1,2,3,4,5,6\n0,1,2,3,4,5,6",  # no final newline
        b"0,1,2,3,4,5,6\n7",
        b"0,1,2,3,4,5,6\n0,1,,3,4,5,6\n",  # an empty field
        b"0,1,2,3,4,5,6\n\n0,1,2,3,4,5,6\n",  # an empty line
        b"0,1,2,3,4,5,6\r\n",
        b"0,1,2,3,4,5,6 \n",
        b"0,1,2,3,4,5,6\n#c\n",
        b"0,1,2,nan,4,5,6\n",
        b"0,1,2,inf,4,5,6\n",
        b"",
    ],
)
def test_strict_path_declines_other_row_shapes(raw):
    assert traceio._strict_rows(np.frombuffer(raw, np.uint8)) is None
    assert _strict_and_loadtxt(raw)[0] is None


@settings(max_examples=300, deadline=None)
@given(candidate=_strict_candidates())
def test_strict_path_declines_or_is_bit_equal_to_loadtxt(candidate):
    raw, strict_grammar = candidate
    assert (traceio._strict_rows(np.frombuffer(raw, np.uint8)) is not None) == strict_grammar
    strict, reference = _strict_and_loadtxt(raw)
    _assert_declined_or_bit_equal(strict, reference)
    assert (strict is not None) == strict_grammar


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(_NEAR_MISSES | _FIELDS, max_size=20))
@example(tokens=STRICT_EXAMPLES)
def test_strict_byte_check_is_the_token_grammar(tokens):
    for token in tokens:
        grammar = re.fullmatch(_STRICT_TOKEN, token) is not None
        for raw in (f"{token},1,2,3,4,5,6\n".encode(), f"-0,1,2,3,4,5,{token}\n".encode()):
            assert (traceio._strict_rows(np.frombuffer(raw, np.uint8)) is not None) == grammar
            _assert_declined_or_bit_equal(*_strict_and_loadtxt(raw))


def test_saved_trace_takes_the_strict_path(tmp_path):
    trace = random_trace(24, n=300)
    save_trace(trace, tmp_path / "t.csv")
    body = (tmp_path / "t.csv").read_bytes().split(b"\n", 1)[1]
    values = traceio._strict_piece(body)
    assert values is not None
    for i, axis in enumerate(AXES):
        assert values[1 + i].tobytes() == trace.channels[axis].tobytes()


@pytest.mark.parametrize(
    "bad, reason",
    [("0.5,1,2,3,x,5,6", "malformed numeric data"), ("0.5,1,2", "expected 7 columns, got 3")],
)
def test_bad_row_names_its_file_line_in_any_chunk(tmp_path, bad, reason):
    text = _decorate(_trace_text(random_trace(22, n=60), tmp_path), 7, "# comment\n")
    lines = text.splitlines()
    line = len(lines) - 3  # in the last of four chunks
    lines[line - 1] = bad
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    messages = []
    for cpus in (1, 4):
        chunks: list[int] = []
        with pytest.raises(DataError) as err:
            _load(path, cpus, spy=chunks)
        messages.append(str(err.value))
    assert chunks == [4]
    assert messages[0] == messages[1]
    assert f": line {line}: {reason}" in messages[0]


@pytest.mark.parametrize("body", ["", "# only a comment\n\n", "0,0,0,0,0,0,0\n"])
def test_fewer_than_two_samples_rejected(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("t_s,ax,ay,az,aroll,apitch,ayaw\n" + body)
    with pytest.raises(DataError, match="at least 2 samples"):
        load_trace(path)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("body", [None, "", "# only a comment\n\n", "0,0,0,0,0,0,0\n"])
def test_empty_and_one_row_files_are_data_errors_on_every_path(tmp_path, body, cpus):
    path = tmp_path / "t.csv"
    path.write_text("" if body is None else traceio.TRACE_HEADER + "\n" + body)
    match = "empty trace file" if body is None else "at least 2 samples"
    for load in (lambda p: _load(p, cpus), load_seat_spectra):
        with pytest.raises(DataError, match=match):
            load(path)


def _read_bytes() -> int:
    """The bytes this thread has read so far: not the pool's threads, nor reaped children."""
    io_path = Path(f"/proc/self/task/{threading.get_native_id()}/io")
    return int(re.search(r"rchar: (\d+)", io_path.read_text()).group(1))


@pytest.mark.skipif(not Path("/proc/self/io").exists(), reason="reads /proc/self/task/*/io")
def test_forked_workers_count_and_parse_their_ranges_and_the_parent_reads_neither(tmp_path):
    path = tmp_path / "t.csv"
    trace = random_trace(27, n=20_000)
    save_trace(trace, path)
    for cpus, parse_passes in ((1, 2), (3, 0)):  # inline: a count pass, then the parse
        before = _read_bytes()
        chunks: list[int] = []
        _assert_same_trace(_load(path, cpus, spy=chunks), trace)
        assert chunks == [cpus]
        read = (_read_bytes() - before) / path.stat().st_size
        assert parse_passes <= read < parse_passes + 0.1


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("form", ["lf", "crlf", "cr", "no_final_newline", "comment_lines"])
def test_the_load_reserves_one_column_per_line_end(tmp_path, monkeypatch, form, cpus):
    # One column a line, whether an LF, a CRLF or a lone CR ends it.
    n = 300
    trace = random_trace(28, n=n)
    path = tmp_path / "t.csv"
    text = _trace_text(trace, tmp_path)
    text = ACCEPTED_FORMS[form](text) if form in ACCEPTED_FORMS else text
    data = text.split("\n", 1)[1] if form != "cr" else text.split("\r", 1)[1]
    path.write_bytes(text.encode())
    reserved = []
    shared = traceio._shared_floats
    monkeypatch.setattr(traceio, "_shared_floats", lambda k: reserved.append(k) or shared(k))
    _assert_same_trace(_load(path, cpus), trace)
    columns = len(data.splitlines())
    assert reserved == [columns, len(AXES) * 2 * (columns // 2 + 1)]  # time; channels with room
    assert columns == n if form != "comment_lines" else n < columns <= 1.5 * n


@pytest.mark.parametrize("cpus", [1, 4])
def test_a_bad_row_in_the_second_chunk_is_exit_3_naming_its_file_line(tmp_path, capsys, cpus):
    import multiprocessing

    from motioncomfort.cli import main

    text = _decorate(_trace_text(random_trace(29, n=80), tmp_path), 7, "# comment\n")
    lines = ["# exported", "", *text.splitlines()]
    line = 3 * len(lines) // 8  # in the second of four chunks
    lines[line - 1] = "0.5,1,2"
    path = tmp_path / "t.csv"
    parse_chunks = traceio._parse_chunks
    for newline in ("\n", "\r\n", "\r"):  # the same line number whatever ends the lines
        path.write_bytes((newline.join(lines) + newline).encode())
        bounds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traceio, "_MIN_CHUNK_BYTES", 1)
            mp.setattr(runtime, "usable_cpus", lambda: cpus)
            mp.setattr(traceio, "_parse_chunks", lambda *a: bounds.append(a[1]) or parse_chunks(*a))
            assert main(["assess", "--trace", str(path), "--out", str(tmp_path / "out")]) == 3
        offset = len(newline.join(lines[: line - 1]) + newline)
        assert len(bounds[0]) == cpus + 1
        if cpus == 4:
            assert bounds[0][1] <= offset < bounds[0][2]
        assert f": line {line}: expected 7 columns, got 3" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_a_line_start_follows_a_whole_line_end(tmp_path):
    # Lines of up to two read blocks (4,096 bytes), so that for some offsets the CR of a CRLF
    # is the last byte of a block: the line start at or after every offset is the next one
    # that bytes.splitlines finds, never between a CR and its LF.
    rng = np.random.default_rng(31)
    lengths = rng.permutation([0, 1, 3, 140, 4094, 4095, 4096, 4097, 8191] * 3)
    data = b"".join(b"7" * k + rng.choice([b"\n", b"\r\n", b"\r"]) for k in lengths) + b"1,2"
    path = tmp_path / "lines.bin"
    path.write_bytes(data)
    starts = np.cumsum([len(line) for line in data.splitlines(keepends=True)])
    with open(path, "rb") as fh:
        got = [traceio._line_start(fh, pos) for pos in range(1, len(data) + 1)]
    assert got == starts[np.searchsorted(starts, np.arange(1, len(data) + 1))].tolist()
    path.write_bytes(b"# a\r\n\r\n")
    with open(path, "rb") as fh:  # a file shorter than the size it was read with ends the search
        assert traceio._find_header(fh, 100) == (None, 2, 7)


def test_a_crlf_or_cr_only_load_peaks_near_the_lf_load(tmp_path, monkeypatch):
    # One process reads an 84,000-row (12 MB) trace and its CRLF and CR-only copies.
    # tracemalloc sees the pieces and their temporaries, not the trace's shared rows.
    # Measured: 8.8-8.9 MiB for each copy.  When a CR-only range was read as one piece, that
    # copy took 40.8 MiB (4.6x).
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 1)
    path = tmp_path / "t.csv"
    save_trace(random_trace(32, n=84_000), path)
    lf = path.read_bytes()
    peaks = []
    for text in (lf, lf.replace(b"\n", b"\r\n"), lf.replace(b"\n", b"\r")):
        path.write_bytes(text)
        tracemalloc.start()
        try:
            load_trace(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) < 1.5 * peaks[0], peaks


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a process pool was started")


def test_small_file_or_no_fork_starts_no_process(tmp_path, monkeypatch):
    import concurrent.futures
    import multiprocessing

    trace = random_trace(23, n=200)
    path = tmp_path / "t.csv"
    save_trace(trace, path)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _NoPool)
    save_trace(trace, tmp_path / "again.csv")
    save_msi_csv(MsiSeries(trace.time_s, np.linspace(0.0, 5.0, 200)), tmp_path / "msi.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()
    _assert_same_trace(load_trace(path), trace)
    with pytest.raises(AssertionError, match="pool was started"):
        _load(path, cpus=3)  # the stub is the pool a large file would use
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    _assert_same_trace(_load(path, cpus=3), trace)


_TINY_BLOCK = 4  # rows per block in the forked-formatter tests
_TINY_WORKER = 3 * _TINY_BLOCK  # rows per worker there


@contextmanager
def _forking_formatter(cpus: int = 3, block: int = _TINY_BLOCK):
    """format_rows with `cpus` usable CPUs and tiny blocks (`block` rows) and worker shares
    (three blocks); yields the worker counts of the pools it starts."""
    import concurrent.futures

    started: list[int] = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runtime, "BLOCK", block)
        mp.setattr(traceio, "_MIN_WORKER_ROWS", 3 * block)
        mp.setattr(runtime, "usable_cpus", lambda: cpus)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        yield started


# Row counts at block and worker-share boundaries: one, two, three and four workers' worth.
BOUNDARY_ROWS = sorted(
    {k * size + d for size in (_TINY_BLOCK, _TINY_WORKER) for k in range(5) for d in (-1, 0, 1)}
    - {-1}
)


def _around(value: float) -> list[float]:
    """`value` and its neighbours one ulp below and above."""
    return [float(np.nextafter(value, -np.inf)), value, float(np.nextafter(value, np.inf))]


def _ties() -> list[float]:
    """Exact 17-digit ties: x = odd / 2**(17 - k) in [10**k, 10**(k + 1)), whose exact
    decimal expansion ends in a 5 at the 18th significant digit (k = -7 to 15)."""
    rng = np.random.default_rng(17)
    ties = []
    for k in range(-7, 16):
        scale = 2 ** (17 - k)
        low = int(Fraction(10) ** k * scale) + 1
        high = min(int(Fraction(10) ** (k + 1) * scale), 2**53)
        for odd in (low | 1, (high - 2) | 1, int(rng.integers(low, high)) | 1):
            x = odd / scale
            digits = Fraction(x) * 10 ** (16 - k)  # the 17 digits, with a fraction of 1/2
            assert digits.denominator == 2 and 10**16 <= digits < 10**17
            ties.append(x)
    return ties


# Inputs that the exact formatter (`g17`) could get wrong: 1e-07, whose double lies below
# 10**-7 (9.9999999999999995e-08) though its log10 rounds to -7; 1e-14, whose double lies
# below 10**-14 but rounds up to it at 17 digits; the powers of ten from 1e-12 to 1e17 and
# the doubles one ulp either side; the exact ties; and both sides of each edge of the fast
# domain.
EXPLICIT = [1e-07, 1e-14, *(v for k in range(-12, 18) for v in _around(float(f"1e{k}")))]
EXPLICIT += _ties()
EXPLICIT += [0.0, 5e-324, *_around(2.2250738585072014e-308), 1.7976931348623157e308, np.inf]
EXPLICIT += [*_around(g17.FAST_LOW), *_around(g17.FAST_HIGH), np.nan]
EXPLICIT += [-v for v in EXPLICIT]


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(BOUNDARY_ROWS),
    cpus=st.integers(1, 3),
    values=st.lists(st.floats() | st.sampled_from(EXPLICIT + list(AWKWARD)), min_size=1),
)
@example(n=1, cpus=3, values=[1e-07])
@example(n=2, cpus=3, values=[1e-14, -1e-07])
@example(n=65537, cpus=3, values=EXPLICIT)
def test_forked_format_rows_equals_inline_and_oracle(n, cpus, values):
    a = np.resize(np.array(values), n)
    b = np.resize(AWKWARD, n)
    inline = "".join(format_rows((a, b), "h\n"))
    block = _TINY_BLOCK if n <= BOUNDARY_ROWS[-1] else 4096  # 65,537 rows: 17 blocks, not 16,385
    with _forking_formatter(cpus, block) as started:
        forked = "".join(format_rows((a, b), "h\n"))
    assert forked == inline
    assert inline == "h\n" + "".join(f"{t:.17g},{m:.17g}\n" for t, m in zip(a, b))
    # One column alone: no row of `a` waits on a value of `b` outside the fast domain.
    assert "".join(format_rows((a,))) == "".join(f"{t:.17g}\n" for t in a)
    workers = min(cpus, n // (3 * block))
    assert started == ([workers] if workers > 1 else [])


def test_forked_save_trace_is_byte_identical(tmp_path):
    trace = random_trace(24, n=5 * _TINY_WORKER + 1)
    save_trace(trace, tmp_path / "inline.csv")
    with _forking_formatter() as started:
        save_trace(trace, tmp_path / "forked.csv")
    assert started == [3]
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


def test_forked_parse_and_formatter_raise_no_fork_with_threads_warning(tmp_path):
    # Python 3.12 and later warn (DeprecationWarning) when a process that runs threads forks:
    # the child may deadlock.  Both forking paths must fork before any thread starts.  Before
    # 3.12 no such warning exists, so this shows nothing there.
    trace = random_trace(25, n=5 * _TINY_WORKER + 1)
    save_trace(trace, tmp_path / "t.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        chunks: list[int] = []
        _assert_same_trace(_load(tmp_path / "t.csv", cpus=3, spy=chunks), trace)
        with _forking_formatter() as started:
            save_trace(trace, tmp_path / "forked.csv")
    assert chunks == [3] and started == [3]
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "t.csv").read_bytes()


def test_forked_formatter_keeps_two_blocks_per_worker_in_flight():
    import concurrent.futures

    t = np.arange(20 * _TINY_BLOCK, dtype=float)
    submitted = []
    with _forking_formatter(cpus=2) as started, pytest.MonkeyPatch.context() as mp:
        pool_class = concurrent.futures.ProcessPoolExecutor
        submit = pool_class.submit
        mp.setattr(pool_class, "submit", lambda pool, *a: submitted.append(a) or submit(pool, *a))
        chunks = format_rows((t,))
        next(chunks)  # the header
        ahead = [len(submitted) - i for i, _ in enumerate(chunks)]
    assert started == [2]
    assert len(submitted) == 20
    assert max(ahead) == 2 * 2 + 1  # the block being yielded and two per worker behind it


class _FailingFile:
    """A text file whose third chunk fails to write, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, chunks):
        for i, chunk in enumerate(chunks):
            if i == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            self.fh.write(chunk)


@pytest.mark.parametrize("where", ["worker", "write"])
def test_failed_forked_write_keeps_old_file_and_no_child(tmp_path, monkeypatch, where):
    import multiprocessing

    path = tmp_path / "msi.csv"
    atomic_write_text(path, "old\n")
    t = np.arange(8 * _TINY_WORKER, dtype=float)
    m = t.astype(object)
    if where == "worker":
        m[-1] = "not a number"  # "%.17g" fails on it in the last block
    else:
        fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *a, **k: _FailingFile(fdopen(*a, **k)))
    with _forking_formatter() as started:
        with pytest.raises(TypeError if where == "worker" else ConfigError) as failure:
            atomic_write_text(path, format_rows((t, m), "time_s,msi_percent\n"))
    if where == "write":
        assert isinstance(failure.value.__cause__, OSError)
    assert started == [3]
    # `failure` still holds the traceback, and with it the formatter's frames.
    assert multiprocessing.active_children() == []
    assert failure.traceback
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["msi.csv"]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_on_every_cpu_runs_each_task_once_and_no_task_as_a_no_op(monkeypatch, cpus, count):
    starts = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (starts.append(self), start(self)))
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    threads = threading.active_count()
    ran = []
    runtime.on_every_cpu(ran.append, count)
    assert sorted(ran) == list(range(count))
    assert len(starts) == max(0, min(cpus, count) - 1)  # no helper without a task for it
    assert threading.active_count() == threads


@pytest.mark.parametrize("cpus", [1, 3])
def test_on_every_cpu_runs_every_task_with_overflow_and_invalid_results_ignored(
    monkeypatch, cpus
):
    # An overflow or invalid result on any thread is left for the next stage's check: no
    # task raises or prints numpy's RuntimeWarning, and the caller's error state is kept.
    monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
    states = []

    def task(i: int) -> None:
        big = np.multiply(np.full(4, 1e308), 10.0)  # inf
        np.subtract(big, big)  # NaN
        state = np.geterr()
        states.append((threading.get_ident() == caller, state["over"], state["invalid"]))

    caller, before = threading.get_ident(), np.geterr()
    runtime.on_every_cpu(task, 3)
    assert np.geterr() == before
    assert [state[1:] for state in states] == [("ignore", "ignore")] * 3
    assert sum(not state[0] for state in states) == cpus - 1  # tasks that ran on helper threads


def _replace_line(at: int, *new: str):
    return lambda lines: lines.__setitem__(slice(at - 1, at), list(new))


@pytest.mark.parametrize("cpus", [1, 3])
def test_numpy_reads_every_block_when_scipys_compiled_reader_is_missing_or_changed(
    tmp_path, cpus
):
    # No reader file and the module hidden (an ImportError), or a reader that takes other
    # arguments (TypeError) or lacks a name (AttributeError): the blocks are declined, and numpy
    # reads the same bits, inline and in forked workers alike.
    path = tmp_path / "t.csv"
    save_trace(random_trace(27, n=300), path)
    want = _outcome(lambda p: _load(p, cpus), path)
    body = path.read_bytes().split(b"\n", 1)[1]

    def other_api(stream, parallelism):
        raise TypeError("open_read_stream(): incompatible function arguments")

    reader, cached = traceio._compiled_reader(), traceio._compiled_reader
    name = "scipy.io._fast_matrix_market._fmm_core"

    def hidden(mp):
        mp.setattr(runtime, "_SCIPY_FILE", f"{tmp_path}/no-such-dir/%s.so")
        mp.delitem(sys.modules, name, raising=False)
        mp.setitem(sys.modules, "scipy.io._fast_matrix_market", None)

    for patch in (
        hidden,
        lambda mp: mp.setattr(traceio, "_compiled_reader", lambda: types.SimpleNamespace(
            open_read_stream=other_api, read_body_array=reader.read_body_array)),
        lambda mp: mp.setattr(traceio, "_compiled_reader", lambda: types.SimpleNamespace(
            open_read_stream=reader.open_read_stream)),
    ):
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            cached.cache_clear()  # the reader is loaded again, under the patch
            assert traceio._strict_piece(body) is None
            assert _outcome(lambda p: _load(p, cpus), path) == want
        cached.cache_clear()
    assert traceio._compiled_reader() is not None


@pytest.mark.parametrize(
    "edit, bad_line",
    [
        (_replace_line(32, "0.5,1,2,3,x,5,6"), 32),  # data row 30, after many pieces
        (_replace_line(32, "# late", "0.5,1,2"), 33),  # a comment, then a bad row
        (_replace_line(32, "   ", "<row>"), None),  # a blank line: the values are unchanged
        (_replace_line(32, "# late\r<row>"), None),  # a comment ended by a lone CR
    ],
)
def test_only_the_piece_with_a_late_line_reaches_numpy(tmp_path, edit, bad_line):
    trace = random_trace(26, n=40)
    lines = _trace_text(trace, tmp_path).splitlines()
    row = lines[31]
    edit(lines)
    lines = [line.replace("<row>", row) for line in lines]
    path = tmp_path / "t.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    body = path.read_bytes().split(b"\n", 1)[1].replace(b"\r", b"\n")  # as the pieces hold it
    late = sum(len(line) + 1 for line in lines[1:31])  # the offset of line 32 in the body
    loose_parse, strict_piece = traceio._loose_parse, traceio._strict_piece
    outcomes = []
    for read_bytes in (2 << 20, 200):  # one piece for all rows, or about two rows a piece
        handed, pieces = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traceio, "_READ_BYTES", read_bytes)
            mp.setattr(traceio, "_loose_parse", lambda raw: handed.append(raw) or loose_parse(raw))
            mp.setattr(traceio, "_strict_piece", lambda r: pieces.append(r) or strict_piece(r))
            outcomes.append(_outcome(load_trace, path))
        at = pieces.index(handed[0])
        assert handed == [pieces[at]]  # every other piece is read strictly
        start = len(b"".join(pieces[:at]))
        assert start <= late < start + len(handed[0])  # the piece that holds line 32
        if bad_line is None:
            assert b"".join(pieces) == body  # the pieces after it are read, and strictly
        else:
            assert at == len(pieces) - 1 and body.startswith(b"".join(pieces))
    assert start >= 2 * 200  # with small pieces, strict ones come before it
    assert outcomes[0] == outcomes[1]
    if bad_line is None:
        assert outcomes[0] == _outcome(load_trace, tmp_path / "plain.csv")
    else:
        assert outcomes[0][0] is DataError and f": line {bad_line}: " in outcomes[0][1]


@settings(max_examples=150, deadline=None)
@given(body=fuzzed_body())
def test_the_piece_size_never_changes_a_load(body):
    # One line a piece against the default: the same values, rate, error and line number.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(traceio.TRACE_HEADER.encode() + b"\n" + body)
        want = _outcome(load_trace, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traceio, "_READ_BYTES", 1)
            assert _outcome(load_trace, path) == want
            assert _outcome(lambda p: _load(p, cpus=3), path) == want
