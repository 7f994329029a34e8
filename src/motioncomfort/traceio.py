"""The 6-DOF motion trace type, and reading, writing and synthesizing traces.

`MotionTrace` lives here, below `transmission` (which imports it back), so
trace I/O and the sickness-incidence model import nothing from that layer.
So do `_on_every_cpu` and `_in_blocks`, the thread runners that the spectral
core, the RC/MS read-offs and the sickness-incidence model share.

Trace files are CSV with header ``t_s,ax,ay,az,aroll,apitch,ayaw`` and a
uniform time column (relative step deviation at most 1 ppm).  Values are
written with 17 significant digits so a save/load round trip is bit exact.
"""

from __future__ import annotations

import io
import numbers
import os
import re
import threading
import uuid
import warnings
from dataclasses import MISSING, InitVar, dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import fft as _fft

from .errors import ConfigError, DataError
from .frf import AXES, _frozen_array, _is_real, _naming

TRACE_HEADER = "t_s,ax,ay,az,aroll,apitch,ayaw"  # time, then the AXES in order

UNIFORMITY_TOL = 1e-6  # max relative deviation of the time step
_BLOCK_ROWS = 65536  # rows per formatted chunk; bounds the temporary argument tuple
_MIN_WORKER_ROWS = 4 * _BLOCK_ROWS  # fewest rows format_rows gives a worker process
_MIN_CHUNK_BYTES = 16 << 20  # smallest range load_trace gives a worker process
MAX_SYNTH_SAMPLES = 50_000_000  # about 139 h at 100 Hz, 400 MB per float64 channel


@dataclass(frozen=True)
class MotionTrace:
    """Uniformly sampled 6-DOF acceleration time series.

    Channels x, y, z are translational accelerations in m/s^2; roll, pitch,
    yaw are rotational accelerations in rad/s^2.  All six arrays must be
    present, equal length (>= 2) and finite.

    The channels are kept as read-only copies, except that producers inside the package
    pass ``_owned=True`` for fresh float64 arrays that nothing else holds, which are made
    read-only and kept (`frf._frozen_array`).
    """

    sample_rate_hz: float
    channels: Mapping[str, np.ndarray] = field(repr=False)
    frame_label: str = "seat"
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        fs = float(self.sample_rate_hz)
        if not np.isfinite(fs) or fs <= 0.0:
            raise DataError(f"sample rate must be positive, got {fs!r}")
        incoming = dict(self.channels)
        missing = [a for a in AXES if a not in incoming]
        if missing:
            raise DataError(f"trace is missing channels {missing}")
        extra = [a for a in incoming if a not in AXES]
        if extra:
            raise DataError(f"trace has unknown channels {extra}")
        arrays = {}
        n = None
        for axis in AXES:
            arr = _frozen_array(incoming[axis], _owned)
            if arr.ndim != 1:
                raise DataError(f"channel {axis} must be 1-D")
            if n is None:
                n = arr.size
            elif arr.size != n:
                raise DataError("trace channels have inconsistent lengths")
            if not np.all(np.isfinite(arr)):
                raise DataError(f"channel {axis} contains non-finite samples")
            arrays[axis] = arr
        if n is None or n < 2:
            raise DataError("trace must have at least 2 samples")
        object.__setattr__(self, "sample_rate_hz", fs)
        object.__setattr__(self, "channels", MappingProxyType(arrays))
        object.__setattr__(self, "frame_label", str(self.frame_label))

    @property
    def n_samples(self) -> int:
        return int(self.channels["x"].size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    @property
    def time_s(self) -> np.ndarray:
        t = np.arange(self.n_samples, dtype=np.float64)  # divided in place: one array, not two
        t /= self.sample_rate_hz
        return t

    @classmethod
    def from_channels(cls, sample_rate_hz, frame_label="seat", **channels) -> "MotionTrace":
        """Build a trace from keyword channels, zero-filling absent axes."""
        given = {k: np.asarray(v, dtype=np.float64) for k, v in channels.items()}
        if not given:
            raise DataError("at least one channel is required")
        n = len(next(iter(given.values())))
        full = {axis: given.get(axis, np.zeros(n)) for axis in AXES}
        return cls(sample_rate_hz=sample_rate_hz, channels=full, frame_label=frame_label)


def _format_block(row_format: str, *columns: np.ndarray) -> str:
    """Rows of equal-length float columns as text: one ``%`` on Python floats."""
    block = np.column_stack(columns)
    return (row_format * len(block)) % tuple(block.ravel().tolist())


def format_rows(columns: Sequence[np.ndarray], row_format: str, header: str = "") -> Iterator[str]:
    """Yield `header`, then the rows of equal-length float columns as text (the bytes of an
    f-string per value) in row blocks.  With two or more usable CPUs and at least two
    workers' worth of rows (`_MIN_WORKER_ROWS` each), forked workers format the blocks,
    yielded in order; otherwise they are formatted inline.  The text is the same either way.
    """
    yield header
    n = len(columns[0])
    starts = range(0, n, _BLOCK_ROWS)
    blocks = [(row_format, *(c[s : s + _BLOCK_ROWS] for c in columns)) for s in starts]
    yield from _fork_map(min(_usable_cpus(), n // _MIN_WORKER_ROWS), _format_block, blocks)


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write `text` (a string or string chunks) via a temp file and rename.

    Readers never see partials.  The mode is what ``open()`` gives under the umask.  A path
    that cannot be written is a ConfigError.
    """
    path = Path(path)
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}.tmp"
    fd = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        if fd is not None:
            tmp.unlink(missing_ok=True)
        if hasattr(text, "close"):
            text.close()  # a generator's worker processes end now, not when it is collected
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        raise


class _BadLine(NamedTuple):
    """The first line of a chunk that is not 7 numbers: its 0-based index there, and why."""

    index: int
    reason: str


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_every_cpu(task: Callable[[int], None], count: int) -> None:
    """Run ``task(i)`` for every i in range(count), on every usable CPU.

    The calling thread takes i = 0, k, 2k, ... and each of the k - 1 helper
    threads the indices after it; a count of 0 runs nothing.  Every thread is
    joined before this returns, and the first exception raised by any task is
    raised here.  numpy's error state is per thread: a task that relies on one
    opens its own `np.errstate`.
    """
    k = max(1, min(_usable_cpus(), count))
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for i in range(first, count, k):
                task(i)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(j,)) for j in range(1, k)]
    for thread in helpers:
        thread.start()
    run(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]


def _in_blocks(task: Callable[[int, int], None], n: int, size: int) -> None:
    """Run ``task(lo, hi)`` over equal blocks that cover range(n), on every usable CPU.

    Each block holds `size` to 2 * `size` items, or all n when n < 2 * `size`.
    """
    count = max(1, n // size)
    _on_every_cpu(lambda i: task(n * i // count, n * (i + 1) // count), count)


# The strict row grammar: seven tokens -?(D+(.D+)?|.D+)([eE][+-]?D+)? (D a digit) split by
# six commas and ended by one LF.  It is checked on the marks, the bytes that are not digits:
# each mark's code (0 for a byte the grammar does not allow), and whether digits come
# between it and the mark before.  An exponent's '-' is recoded as '+'.
_SEP, _MINUS, _PLUS, _DOT, _EXP = 1, 2, 3, 4, 5
_CODES = dict(zip(b",\n-+.eE", [_SEP, _SEP, _MINUS, _PLUS, _DOT, _EXP, _EXP]))
_MARK = bytes(_CODES.get(i, 0) for i in range(256))  # a bytes.translate table of mark codes
# At 8 * a + b, where mark b may follow mark a: bit 1 after digits, bit 2 right after it.
_FOLLOWS = bytes(
    {
        (_SEP, _SEP): 1, (_SEP, _MINUS): 2, (_SEP, _DOT): 3, (_SEP, _EXP): 1,
        (_MINUS, _SEP): 1, (_MINUS, _DOT): 3, (_MINUS, _EXP): 1,
        (_PLUS, _SEP): 1, (_DOT, _SEP): 1, (_DOT, _EXP): 1,
        (_EXP, _SEP): 1, (_EXP, _MINUS): 2, (_EXP, _PLUS): 2,
    }.get(divmod(i, 8), 0)
    for i in range(256)
)
_LONE_CR = re.compile(rb"\r(?!\n)")
_COMMA_TO_LF = bytes.maketrans(b",", b"\n")
_STRICT_BLOCK_BYTES = 2 << 20  # about this many bytes of whole rows per compiled read


def _strict_rows(data: np.ndarray) -> int | None:
    """The number of rows in the bytes `data` if each is seven strict tokens split by six commas
    and ended by LF, else None."""
    if not (data.size and data[-1] == ord("\n")):
        return None
    at = np.flatnonzero(data - 48 >= 10)  # the marks; digits are 48 to 57
    marks = data[at].tobytes()
    code = np.frombuffer(marks.translate(_MARK), np.uint8).copy()
    adjacent = np.diff(at, prepend=-1) == 1  # no digit between a mark and the one before
    before = np.full_like(code, _SEP)  # the first row starts after a line end
    before[1:] = code[:-1]
    code[(code == _MINUS) & (before == _EXP) & adjacent] = _PLUS
    before[1:] = code[:-1]
    allowed = np.frombuffer((before * 8 + code).tobytes().translate(_FOLLOWS), np.uint8)
    if not np.all(allowed & (adjacent.view(np.uint8) + 1)):
        return None
    separators = marks.translate(None, b"-+.eE")
    rows = len(separators) // 7
    return rows if separators == b",,,,,,\n" * rows else None


def _compiled_reader() -> tuple[Callable, Callable] | None:
    """scipy's compiled Matrix Market reader, as (_get_read_cursor, _read_body_array), or None
    where this scipy does not have it."""
    try:
        from scipy.io._fast_matrix_market import _get_read_cursor, _read_body_array
    except ImportError:
        return None
    return _get_read_cursor, _read_body_array


def _strict_blocks(raw: bytes) -> tuple[list[np.ndarray], int]:
    """The leading blocks of `raw` that `_strict_rows` accepts, read as (7, rows) channel-major
    values, and the offset where they end: where a block is declined or the reader fails, or
    the end of `raw`.  The values are bit-equal to `np.loadtxt`'s.

    Each block of about `_STRICT_BLOCK_BYTES` of whole rows is checked, then read with one
    thread by scipy's compiled Matrix Market reader (what `scipy.io.mmread` runs) as the body
    of a 7 x rows `array`, which lists the values column by column.  That reader drops the sign
    of a zero, so a zero whose token starts with '-' is made -0.0 again.  A reader that this
    scipy lacks, or that takes other arguments, declines the block.
    """
    reader = _compiled_reader()  # imported by _parse_chunks before any worker forks
    if reader is None:
        return [], 0
    get_read_cursor, read_body_array = reader
    data = np.frombuffer(raw, np.uint8)
    parts, lo = [], 0
    while lo < len(raw):
        hi = raw.find(b"\n", lo + _STRICT_BLOCK_BYTES) + 1 or len(raw)
        block = data[lo:hi]
        rows = _strict_rows(block)
        if rows is None:
            break
        head = b"%%%%MatrixMarket matrix array real general\n7 %d\n" % rows
        stream = io.BytesIO(head + raw[lo:hi].translate(_COMMA_TO_LF))
        try:
            values = read_body_array(get_read_cursor(stream, parallelism=1)[0])
        except (ValueError, AttributeError, TypeError):  # a bad block, or another reader API
            break
        if not values.all():
            zero = np.flatnonzero(values.T == 0.0)  # token indices, row by row
            ends = np.flatnonzero((block == ord(",")) | (block == ord("\n")))
            starts = np.concatenate(([0], ends[:-1] + 1))[zero]
            negative = zero[block[starts] == ord("-")]
            values[negative % 7, negative // 7] = -0.0
        parts.append(values)
        lo = hi
    return parts, lo


def _as_array(lines) -> np.ndarray | None:
    """`lines` (a list or a byte stream) as an (n, 7) array; None unless each row is 7 numbers."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError:
        return None
    return data.reshape(-1, 7) if data.shape[1] == 7 or data.size == 0 else None


def _row_error(line: str) -> str:
    """Why one row is not 7 numbers."""
    try:
        return f"expected 7 columns, got {np.loadtxt([line], delimiter=',', ndmin=2).shape[1]}"
    except ValueError:
        return f"malformed numeric data {line.strip()[:80]!r}"


def _loose_parse(raw: bytes) -> np.ndarray | _BadLine:
    """Rows of 7 numbers among blank and comment lines as (7, rows) values, with numpy."""
    # numpy ends a comment only at LF, so a lone CR would hide the row after a comment:
    # such bytes go straight to the line filter.
    lone_cr = b"\r" in raw and _LONE_CR.search(raw) is not None
    data = None if lone_cr else _as_array(io.BytesIO(raw))
    if data is not None:
        return data.T
    # numpy reads a whitespace-only line as a 1-column row: drop blank and comment
    # lines as text, then parse again.
    lines = [ln.decode(errors="replace") for ln in raw.splitlines()]
    keep = [i for i, ln in enumerate(lines) if ln.strip() and not ln.lstrip().startswith("#")]
    rows = [lines[i] for i in keep]
    data = _as_array(rows)
    if data is not None:
        return data.T
    lo, hi = 0, len(rows)  # the first bad row is in rows[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _as_array(rows[lo:mid]) is not None else (lo, mid)
    return _BadLine(keep[lo], _row_error(rows[lo]))


def _parse_chunk(path, start: int, stop: int) -> list[np.ndarray] | _BadLine:
    """Parse bytes [start, stop) of a trace file, which begin and end on line boundaries, as
    (7, rows) channel-major parts: strictly block by block while it can (`_strict_blocks`),
    then the rest, from the first block it declines, with numpy (`_loose_parse`)."""
    with open(path, "rb") as fh:
        fh.seek(start)
        raw = fh.read(stop - start)
    parts, strict_stop = _strict_blocks(raw)
    if strict_stop < len(raw):
        rest = _loose_parse(raw[strict_stop:])
        if isinstance(rest, _BadLine):  # each strict row is one line
            return rest._replace(index=rest.index + sum(part.shape[1] for part in parts))
        parts.append(rest)
    return parts


def _fork_map(workers: int, fn, tasks: list[tuple]) -> Iterator:
    """``fn(*args)`` for each tuple in `tasks`, yielded in order: in up to `workers` forked
    processes when that and the number of tasks are above one, inline otherwise.  At most two
    tasks per worker run ahead of the consumer, so a slow one holds a few results, not all."""
    workers = min(workers, len(tasks))
    if workers > 1:
        import multiprocessing
        from collections import deque
        from concurrent.futures import ProcessPoolExecutor

        # Only fork: spawn and forkserver would make every caller's script need a
        # __main__ guard.
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                pending: deque = deque()
                for args in tasks:
                    pending.append(pool.submit(fn, *args))
                    if len(pending) > 2 * workers:
                        yield pending.popleft().result()
                while pending:
                    yield pending.popleft().result()
            return
    yield from (fn(*args) for args in tasks)


def _parse_chunks(path, bounds: list[int]) -> list[list[np.ndarray] | _BadLine]:
    """Parse the ranges between consecutive `bounds`: in forked workers when there are several."""
    _compiled_reader()  # imported for _strict_blocks before any fork
    ranges = [(path, lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return list(_fork_map(len(ranges), _parse_chunk, ranges))


def _find_header(fh) -> tuple[str | None, int, int]:
    """The first line neither blank nor a comment, its line number and the offset after it."""
    lines = offset = 0
    for block in fh:  # blocks end at LF; a lone CR ends a line too
        for line in block.splitlines(keepends=True):
            lines += 1
            offset += len(line)
            text = line.decode(errors="replace").strip()
            if text and not text.startswith("#"):
                return text, lines, offset
    return None, lines, offset


def _next_line_start(fh, pos: int) -> int:
    """The first offset at or after `pos` that follows an LF, or the end of the file."""
    fh.seek(pos - 1)
    fh.readline()
    return fh.tell()


def _count_lines(fh, start: int, stop: int) -> int:
    """The number of lines in bytes [start, stop) of `fh`; `stop` follows an LF."""
    fh.seek(start)
    n = 0
    while fh.tell() < stop:
        n += len(fh.readline().splitlines())
    return n


def load_trace(path) -> MotionTrace:
    """Load a trace CSV (the module's format), inferring the sample rate from the time column.

    Blank lines and ``#`` comments may appear anywhere, and LF, CRLF and CR
    line endings are all read.  When the data after the header spans at least
    two 16 MiB chunks and more than one CPU is usable, it is cut at line
    boundaries into one byte range per CPU (at most one per 16 MiB), and forked
    worker processes parse the ranges in parallel; otherwise, and where the
    platform cannot fork, one range is parsed inline.  A range is read block by
    block by scipy's compiled reader, on one thread, while each block's rows are
    all seven plain decimals split by commas and ended by LF, as `save_trace`
    writes them (`_strict_blocks`); the rest of the range, from the first other
    block, by ``np.loadtxt``, and line by line where that fails or the rest
    holds a lone CR (which numpy would misread).  The values are
    bit-identical on every path, and they are copied once, from the parsed
    parts into the trace's channels.  A row that is not 7 numbers is a
    DataError that names its 1-based line in the file.  The sample rate is the
    first of these candidates whose ``np.arange(n) / rate`` is exactly the
    time column: the integer within 1e-9 relative of 1/dt, if there is one,
    then the doubles within 4 ulp of 1/dt, nearest first.  If none is, it is
    the first candidate.  So a saved trace loads at its own rate (a
    non-integer one from about 16 samples on), and a hand-written decimal
    column at the integer.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            header, header_line, start = _find_header(fh)
            if header is None:
                raise DataError(f"{path}: empty trace file")
            if header != TRACE_HEADER:
                raise DataError(f"{path}: expected header {TRACE_HEADER!r}, got {header[:80]!r}")
            stop = os.fstat(fh.fileno()).st_size
            k = max(1, min(_usable_cpus(), (stop - start) // _MIN_CHUNK_BYTES))
            cuts = [_next_line_start(fh, start + (stop - start) * i // k) for i in range(1, k)]
            bounds = [start, *sorted(set(cuts) - {stop}), stop]
            chunks = _parse_chunks(path, bounds)
            for lo, chunk in zip(bounds, chunks):
                if isinstance(chunk, _BadLine):
                    line = header_line + _count_lines(fh, start, lo) + chunk.index + 1
                    raise DataError(f"{path}: line {line}: {chunk.reason}")
            parts = [part for chunk in chunks for part in chunk]
            del chunks
    except OSError as exc:
        raise ConfigError(f"cannot read trace file {path}: {exc}") from exc
    n = sum(part.shape[1] for part in parts)
    if n < 2:
        raise DataError(f"{path}: a trace needs at least 2 samples")
    t, channels = np.empty(n), np.empty((len(AXES), n))
    hi = 0
    for i, part in enumerate(parts):
        lo, hi = hi, hi + part.shape[1]
        t[lo:hi], channels[:, lo:hi] = part[0], part[1:]
        parts[i] = None
    if not np.all(np.isfinite(t)):  # the channels are checked by MotionTrace
        raise DataError(f"{path}: time column contains non-finite values")

    steps = np.diff(t)
    if np.any(steps <= 0.0):
        raise DataError(f"{path}: time column is not strictly increasing")
    dt = (t[-1] - t[0]) / (n - 1)
    if np.max(np.abs(steps - dt)) > UNIFORMITY_TOL * dt:
        raise DataError(f"{path}: non-uniform sampling (time step varies by more than 1 ppm)")
    fs = 1.0 / dt
    near, up, down = [fs], fs, fs
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    candidates = sorted(near, key=lambda r: abs(r - fs))
    if round(fs) > 0 and abs(fs - round(fs)) <= 1e-9 * fs:
        candidates.insert(0, round(fs))
    exact = (r for r in candidates if (n - 1) / r == t[-1] and np.array_equal(np.arange(n) / r, t))
    fs = float(next(exact, candidates[0]))
    del t, steps
    with _naming(path):
        return MotionTrace(fs, dict(zip(AXES, channels)), path.stem, _owned=True)


def save_trace(trace: MotionTrace, path) -> None:
    """Write a trace in the load_trace format (17 significant digits), streamed."""
    cols = [trace.time_s] + [trace.channels[axis] for axis in AXES]
    row_format = ",".join(["%.17g"] * len(cols)) + "\n"
    atomic_write_text(path, format_rows(cols, row_format, TRACE_HEADER + "\n"))


@dataclass(frozen=True)
class SynthComponent:
    """One synthetic ingredient on one axis.

    kind is ``sine`` (f0), ``sweep`` (linear chirp f0 -> f1) or ``noise``
    (seeded Gaussian noise spectrally masked to [f0, f1] and scaled so its
    RMS equals `amplitude`).
    """

    axis: str
    kind: str
    amplitude: float
    f0: float
    f1: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.axis not in AXES:
            raise DataError(f"unknown axis {self.axis!r}")
        if self.kind not in ("sine", "sweep", "noise"):
            raise DataError(f"unknown component kind {self.kind!r}")
        if self.kind in ("sweep", "noise") and self.f1 is None:
            raise DataError(f"{self.kind} component needs f1")
        for name in ("amplitude", "f0", "f1"):
            v = getattr(self, name)
            if name == "f1" and v is None:
                continue
            if not _is_real(v) or not 0.0 <= v < np.inf:
                raise DataError(f"{name} must be finite and >= 0, got {v!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise DataError(f"seed must be an integer >= 0, got {seed!r}")


def _component(spec) -> SynthComponent:
    """A SynthComponent, or one built from a JSON object with its field names."""
    if isinstance(spec, SynthComponent):
        return spec
    if not isinstance(spec, dict):
        raise ConfigError(f"a synth component must be an object, got {spec!r}")
    names = [f.name for f in fields(SynthComponent)]
    required = [f.name for f in fields(SynthComponent) if f.default is MISSING]
    if not set(required) <= set(spec) <= set(names):
        raise ConfigError(f"synth component {spec!r} needs keys {required}, allows {names}")
    return SynthComponent(**spec)


def _component_signal(comp: SynthComponent, t: np.ndarray, fs: float) -> np.ndarray:
    nyquist = fs / 2.0
    top = comp.f0 if comp.f1 is None else max(comp.f0, comp.f1)
    if top > nyquist:
        raise DataError(f"component frequency {top} Hz exceeds Nyquist {nyquist} Hz")
    if comp.kind == "sine":
        return comp.amplitude * np.sin(2.0 * np.pi * comp.f0 * t)
    if comp.kind == "sweep":
        duration = t[-1] + (t[1] - t[0]) if t.size > 1 else 1.0
        rate = (comp.f1 - comp.f0) / (2.0 * duration)
        return comp.amplitude * np.sin(2.0 * np.pi * (comp.f0 + rate * t) * t)
    # noise: white Gaussian, hard spectral mask to [f0, f1], rescaled to RMS.
    rng = np.random.default_rng(comp.seed)
    white = rng.standard_normal(t.size)
    spectrum = _fft.rfft(white)
    freqs = _fft.rfftfreq(t.size, d=1.0 / fs)
    spectrum[(freqs < comp.f0) | (freqs > comp.f1)] = 0.0
    shaped = _fft.irfft(spectrum, n=t.size)
    scale = np.sqrt(np.mean(np.square(shaped)))
    if scale > 0.0:
        shaped *= comp.amplitude / scale
    return shaped


def synth_trace(
    components: Iterable[SynthComponent | dict],
    duration_s: float,
    sample_rate_hz: float,
    frame_label: str = "seat",
) -> MotionTrace:
    """Deterministic synthetic trace from a list of components.

    Components on the same axis add.  Dicts are accepted and converted, so
    JSON specs can be passed straight through.
    """
    fs = float(sample_rate_hz)
    if not np.isfinite(fs) or fs <= 0.0:
        raise DataError("sample rate must be positive")
    samples = float(duration_s) * fs
    if not np.isfinite(samples):
        raise DataError(f"duration must be finite, got {duration_s!r}")
    if samples > MAX_SYNTH_SAMPLES:
        raise DataError(f"duration x rate is {samples:.3g} samples, above {MAX_SYNTH_SAMPLES:,}")
    n = int(round(samples))
    if n < 2:
        raise DataError("duration too short for the sample rate")
    t = np.arange(n) / fs
    channels = {axis: np.zeros(n) for axis in AXES}
    for comp in map(_component, components):
        channels[comp.axis] = channels[comp.axis] + _component_signal(comp, t, fs)
    return MotionTrace(fs, channels, frame_label, _owned=True)


#: Demo mix used by the CLI when no synthesis spec is given: broadband
#: translational noise, gentler rotational noise, and a vertical tone.
DEMO_COMPONENTS: Sequence[SynthComponent] = (
    SynthComponent(axis="x", kind="noise", amplitude=0.4, f0=0.05, f1=4.0, seed=11),
    SynthComponent(axis="y", kind="noise", amplitude=0.3, f0=0.05, f1=4.0, seed=12),
    SynthComponent(axis="z", kind="noise", amplitude=0.8, f0=0.05, f1=4.0, seed=13),
    SynthComponent(axis="z", kind="sine", amplitude=0.5, f0=1.0),
    SynthComponent(axis="roll", kind="noise", amplitude=0.05, f0=0.05, f1=2.0, seed=14),
    SynthComponent(axis="pitch", kind="noise", amplitude=0.06, f0=0.05, f1=2.0, seed=15),
    SynthComponent(axis="yaw", kind="noise", amplitude=0.04, f0=0.05, f1=2.0, seed=16),
)
