from __future__ import annotations

import errno
import os
import tempfile
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
from conftest import random_trace

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


# Integer rates, and rates that load_trace does not snap to an integer (within 1e-9).
RATES = st.integers(min_value=1, max_value=5000).map(float) | st.floats(
    min_value=1e-3, max_value=1e7
).filter(lambda fs: abs(fs - round(fs)) > 1e-9 * fs)
# Below about 16 samples the time column can fit more than one rate near 1/dt.
MIN_SAMPLES_FOR_EXACT_RATE = 20


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
def test_round_trip_bit_exact_property(fs, data):
    assume(fs == round(fs) or data.shape[1] >= MIN_SAMPLES_FOR_EXACT_RATE)
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
        with pytest.raises(TypeError if where == "worker" else OSError) as failure:
            atomic_write_text(path, format_rows((t, m), "%.17g,%.17g\n", "time_s,msi_percent\n"))
    assert started == [3]
    # `failure` still holds the traceback, and with it the formatter's frames.
    assert multiprocessing.active_children() == []
    assert failure.traceback
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["msi.csv"]
