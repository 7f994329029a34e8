from __future__ import annotations

import errno
import io
import os
import re
import sys
import tempfile
import threading
import warnings
from contextlib import contextmanager
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
    load_trace,
    save_trace,
    synth_trace,
)
from motioncomfort import traceio
from motioncomfort.report import save_msi_csv
from motioncomfort.svc import MsiSeries
from motioncomfort.traceio import _BLOCK_ROWS, atomic_write_text, format_rows
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
    "n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1]
)
def test_format_rows_matches_fstring_oracle(n_rows):
    a = np.resize(AWKWARD, n_rows)
    b = np.resize(-AWKWARD[::-1], n_rows) * 0.5
    # Oracle: an f-string per numpy scalar, one sample at a time.
    csv_oracle = "h\n" + "".join(f"{t:.17g},{m:.17g}\n" for t, m in zip(a, b))
    svg_oracle = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(a, b))
    assert "".join(format_rows((a, b), "%.17g,%.17g\n", "h\n")) == csv_oracle
    assert "".join(format_rows((a, b), "%.2f,%.2f "))[:-1] == svg_oracle


def test_save_trace_matches_fstring_oracle(tmp_path):
    n = _BLOCK_ROWS + 3
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

    def spied(path, bounds):
        if spy is not None:
            spy.append(len(bounds) - 1)
        return parse_chunks(path, bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "_MIN_CHUNK_BYTES", 1)
        mp.setattr(traceio, "_usable_cpus", lambda: cpus)
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
    newline=st.sampled_from(["\n", "\r\n"]),
    final_newline=st.booleans(),
    data=st.data(),
)
def test_parallel_parse_equals_one_chunk_and_original(n, seed, lead, newline, final_newline, data):
    trace = random_trace(seed, n=n, fs=100.0)
    with tempfile.TemporaryDirectory() as tmp:
        lines = _trace_text(trace, Path(tmp)).splitlines()
        extra = data.draw(st.lists(st.sampled_from(LINE_DECORATIONS), min_size=n, max_size=n))
        body = [lines[0]] + [row + tail for row, tail in zip(lines[1:], extra)]
        text = (lead + "\n".join(body) + ("\n" if final_newline else "")).replace("\n", newline)
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode())
        chunks: list[int] = []
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


def _strict_and_loadtxt(raw: bytes, block_bytes: int):
    """The strict path's (7, rows) values or None, and np.loadtxt's values as (7, rows) or None."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "_STRICT_BLOCK_BYTES", block_bytes)
        parts, stop = traceio._strict_blocks(raw)
    strict = np.concatenate(parts, axis=1) if parts and stop == len(raw) else None
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
    for block_bytes in (1, 2 << 20):
        assert _strict_and_loadtxt(raw, block_bytes)[0] is None


@settings(max_examples=300, deadline=None)
@given(candidate=_strict_candidates(), block_bytes=st.sampled_from([1, 40, 2 << 20]))
def test_strict_path_declines_or_is_bit_equal_to_loadtxt(candidate, block_bytes):
    raw, strict_grammar = candidate
    assert (traceio._strict_rows(np.frombuffer(raw, np.uint8)) is not None) == strict_grammar
    strict, reference = _strict_and_loadtxt(raw, block_bytes)
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
            _assert_declined_or_bit_equal(*_strict_and_loadtxt(raw, 2 << 20))


def test_saved_trace_takes_the_strict_path(tmp_path):
    trace = random_trace(24, n=300)
    save_trace(trace, tmp_path / "t.csv")
    body = (tmp_path / "t.csv").read_bytes().split(b"\n", 1)[1]
    parts, stop = traceio._strict_blocks(body)
    assert stop == len(body)
    values = np.concatenate(parts, axis=1)
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
def _forking_formatter(cpus: int = 3):
    """format_rows with `cpus` usable CPUs and tiny blocks and worker shares; yields the
    worker counts of the pools it starts."""
    import concurrent.futures

    started: list[int] = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(traceio, "_BLOCK_ROWS", _TINY_BLOCK)
        mp.setattr(traceio, "_MIN_WORKER_ROWS", _TINY_WORKER)
        mp.setattr(traceio, "_usable_cpus", lambda: cpus)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
        yield started


# Row counts at block and worker-share boundaries: one, two, three and four workers' worth.
BOUNDARY_ROWS = sorted(
    {k * size + d for size in (_TINY_BLOCK, _TINY_WORKER) for k in range(5) for d in (-1, 0, 1)}
    - {-1}
)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(BOUNDARY_ROWS), cpus=st.integers(1, 3), data=st.data())
def test_forked_format_rows_equals_inline_and_oracle(n, cpus, data):
    a = data.draw(arrays(np.float64, n, elements=FINITE | st.sampled_from(list(AWKWARD))))
    b = np.resize(AWKWARD, n)
    inline = "".join(format_rows((a, b), "%.17g,%.17g\n", "h\n"))
    with _forking_formatter(cpus) as started:
        forked = "".join(format_rows((a, b), "%.17g,%.17g\n", "h\n"))
    assert forked == inline
    assert inline == "h\n" + "".join(f"{t:.17g},{m:.17g}\n" for t, m in zip(a, b))
    workers = min(cpus, n // _TINY_WORKER)
    assert started == ([workers] if workers > 1 else [])


def test_forked_save_trace_is_byte_identical(tmp_path):
    trace = random_trace(24, n=5 * _TINY_WORKER + 1)
    save_trace(trace, tmp_path / "inline.csv")
    with _forking_formatter() as started:
        save_trace(trace, tmp_path / "forked.csv")
    assert started == [3]
    assert (tmp_path / "forked.csv").read_bytes() == (tmp_path / "inline.csv").read_bytes()


def test_forked_formatter_keeps_two_blocks_per_worker_in_flight():
    import concurrent.futures

    t = np.arange(20 * _TINY_BLOCK, dtype=float)
    submitted = []
    with _forking_formatter(cpus=2) as started, pytest.MonkeyPatch.context() as mp:
        pool_class = concurrent.futures.ProcessPoolExecutor
        submit = pool_class.submit
        mp.setattr(pool_class, "submit", lambda pool, *a: submitted.append(a) or submit(pool, *a))
        chunks = format_rows((t,), "%.17g\n")
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
            atomic_write_text(path, format_rows((t, m), "%.17g,%.17g\n", "time_s,msi_percent\n"))
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
    monkeypatch.setattr(traceio, "_usable_cpus", lambda: cpus)
    threads = threading.active_count()
    ran = []
    traceio._on_every_cpu(ran.append, count)
    assert sorted(ran) == list(range(count))
    assert len(starts) == max(0, min(cpus, count) - 1)  # no helper without a task for it
    assert threading.active_count() == threads


def _replace_line(at: int, *new: str):
    return lambda lines: lines.__setitem__(slice(at - 1, at), list(new))


@pytest.mark.parametrize("cpus", [1, 3])
def test_numpy_reads_every_block_when_scipys_compiled_reader_is_missing_or_changed(
    tmp_path, cpus
):
    # The module hidden (an ImportError), or a reader that takes other arguments (TypeError)
    # or lacks a name (AttributeError): the blocks are declined, and numpy reads the same bits,
    # inline and in forked workers alike.
    path = tmp_path / "t.csv"
    save_trace(random_trace(27, n=300), path)
    want = _outcome(lambda p: _load(p, cpus), path)
    body = path.read_bytes().split(b"\n", 1)[1]

    def other_api(stream, parallelism):
        raise TypeError("unexpected keyword argument 'parallelism'")

    def no_body_reader(cursor):
        raise AttributeError("module has no attribute '_read_body_array'")

    reader = traceio._compiled_reader()
    for patch in (
        lambda mp: mp.setitem(sys.modules, "scipy.io._fast_matrix_market", None),
        lambda mp: mp.setattr(traceio, "_compiled_reader", lambda: (other_api, reader[1])),
        lambda mp: mp.setattr(traceio, "_compiled_reader", lambda: (reader[0], no_body_reader)),
    ):
        with pytest.MonkeyPatch.context() as mp:
            patch(mp)
            assert traceio._strict_blocks(body) == ([], 0)
            assert _outcome(lambda p: _load(p, cpus), path) == want


@pytest.mark.parametrize(
    "edit, bad_line",
    [
        (_replace_line(32, "0.5,1,2,3,x,5,6"), 32),  # data row 30, after many blocks
        (_replace_line(32, "# late", "0.5,1,2"), 33),  # a comment, then a bad row
        (_replace_line(32, "   ", "<row>"), None),  # a blank line: the values are unchanged
        (_replace_line(32, "# late\r<row>"), None),  # a comment ended by a lone CR
    ],
)
def test_strict_blocks_before_a_late_line_are_read_and_numpy_gets_the_rest(
    tmp_path, edit, bad_line
):
    trace = random_trace(26, n=40)
    lines = _trace_text(trace, tmp_path).splitlines()
    row = lines[31]
    edit(lines)
    lines = [line.replace("<row>", row) for line in lines]
    path = tmp_path / "t.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode())
    body = path.read_bytes().split(b"\n", 1)[1]
    loose_parse, handed = traceio._loose_parse, []
    outcomes = []
    for block_bytes in (2 << 20, 200):  # one block for all rows, or about two rows a block
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(traceio, "_STRICT_BLOCK_BYTES", block_bytes)
            mp.setattr(traceio, "_loose_parse", lambda raw: handed.append(raw) or loose_parse(raw))
            outcomes.append(_outcome(load_trace, path))
    assert outcomes[0] == outcomes[1]
    assert handed[0] == body  # the only block is declined: numpy reads every row
    late = sum(len(line) + 1 for line in lines[1:31])  # the offset of line 32 in the body
    assert body.endswith(handed[1]) and 2 * 200 <= len(body) - len(handed[1]) <= late
    if bad_line is None:
        assert outcomes[0] == _outcome(load_trace, tmp_path / "plain.csv")
    else:
        assert outcomes[0][0] is DataError and f": line {bad_line}: " in outcomes[0][1]
