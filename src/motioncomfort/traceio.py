"""The 6-DOF motion trace type, and reading, writing and synthesizing traces.

`MotionTrace` lives here, below `transmission` (which imports it back), so
trace I/O and the sickness-incidence model import nothing from that layer.

Trace files are CSV with header ``t_s,ax,ay,az,aroll,apitch,ayaw`` and a
uniform time column (relative step deviation at most 1 ppm).  Values are
written with 17 significant digits so a save/load round trip is bit exact.
"""

from __future__ import annotations

import functools
import io
import itertools
import mmap
import numbers
import os
import re
import uuid
import warnings
from dataclasses import MISSING, InitVar, dataclass, field, fields
from pathlib import Path
from types import MappingProxyType, ModuleType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import g17, runtime
from .errors import ConfigError, DataError
from .frf import AXES, _frozen_array, _is_real, _naming
from .spectral import _pocketfft, bin_frequencies

TRACE_HEADER = "t_s,ax,ay,az,aroll,apitch,ayaw"  # time, then the AXES in order

UNIFORMITY_TOL = 1e-6  # max relative deviation of the time step
_MIN_WORKER_ROWS = 4 * runtime.BLOCK  # fewest rows format_rows forks a worker for; tests patch it
_MIN_CHUNK_BYTES = 16 << 20  # smallest range load_trace gives a worker process
_READ_BYTES = 2 << 20  # a trace parse reads its range in pieces of about this many bytes
MAX_SYNTH_SAMPLES = 50_000_000  # about 139 h at 100 Hz, 400 MB per float64 channel


def _seconds(n: int, rate: float) -> np.ndarray:
    return np.divide(t := np.arange(n, dtype=np.float64), rate, out=t)  # one array, not two


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
        return _seconds(self.n_samples, self.sample_rate_hz)

    @classmethod
    def from_channels(cls, sample_rate_hz, frame_label="seat", **channels) -> "MotionTrace":
        """Build a trace from keyword channels, zero-filling absent axes."""
        given = {k: np.asarray(v, dtype=np.float64) for k, v in channels.items()}
        if not given:
            raise DataError("at least one channel is required")
        n = len(next(iter(given.values())))
        full = {axis: given.get(axis, np.zeros(n)) for axis in AXES}
        return cls(sample_rate_hz=sample_rate_hz, channels=full, frame_label=frame_label)


def _format_block(*columns: np.ndarray) -> str:
    """Rows of equal-length float columns as text (`g17.rows`)."""
    return g17.rows(np.column_stack(columns))


def format_rows(columns: Sequence[np.ndarray], header: str = "") -> Iterator[str]:
    """Yield `header`, then the rows of equal-length float columns as text in row blocks:
    each value as ``'%.17g' % value`` writes it, split by commas, each row ended by LF
    (`g17.rows`), `runtime.BLOCK` rows a block.  With two or more usable CPUs and two workers'
    worth of rows (`_MIN_WORKER_ROWS` each), forked workers format the blocks, yielded in
    order; otherwise they are formatted inline.  The text is the same either way.
    """
    yield header
    n = len(columns[0])
    blocks = [tuple(c[s : s + runtime.BLOCK] for c in columns) for s in range(0, n, runtime.BLOCK)]
    workers = min(runtime.usable_cpus(), n // _MIN_WORKER_ROWS)
    yield from runtime.fork_map(workers, _format_block, blocks)


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
_COMMA_TO_LF = bytes.maketrans(b",", b"\n")
_LINE_END = re.compile(rb"\r\n?|\n")  # a CRLF is one line end
# The (time column, channel rows) that the parse workers of each load in progress write, by
# key: a forked worker inherits them, where a task's arguments would be pickled copies.
_DESTINATIONS: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_LOADS = itertools.count()


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


def _reads_exactly(core) -> bool:
    body = io.BytesIO(b"%%MatrixMarket matrix array real general\n2 2\n1\n-2.5\n.5\n4e3\n")
    values = np.zeros((2, 2))
    core.read_body_array(core.open_read_stream(body, 1), values)  # column by column
    return values.tolist() == [[1.0, 0.5], [-2.5, 4000.0]]


@functools.cache
def _compiled_reader() -> ModuleType | None:
    """scipy's compiled Matrix Market reader (`scipy.io.mmread`'s), or None where scipy lacks it;
    loaded once, from its file, as importing `scipy.io` imports `scipy.sparse` (0.1 s a process)."""
    name, path = "scipy.io._fast_matrix_market._fmm_core", "io/_fast_matrix_market/_fmm_core"
    try:
        return runtime.scipy_kernel(name, path, _reads_exactly)
    except ImportError:
        return None


def _strict_piece(raw: bytes) -> np.ndarray | None:
    """The rows of `raw` as (7, rows) channel-major values, bit-equal to `np.loadtxt`'s, if
    `_strict_rows` accepts them and the compiled reader reads them, else None.

    Its lines end in LF only (`_pieces`), and a piece with a '#' is declined before the check.
    The rows are read with one thread by scipy's compiled Matrix Market reader (what
    `scipy.io.mmread` runs) as the body of a 7 x rows `array`, which lists the values column by
    column.  That reader drops the sign of a zero, so a zero whose token starts with '-' is made
    -0.0 again.  A reader that this scipy lacks, or that takes other arguments, declines it.
    """
    reader = _compiled_reader()  # imported by _parse_chunks before any worker forks
    data = np.frombuffer(raw, np.uint8)
    if reader is None or b"#" in raw or (rows := _strict_rows(data)) is None:
        return None
    head = b"%%%%MatrixMarket matrix array real general\n7 %d\n" % rows
    values, body = np.zeros((7, rows)), io.BytesIO(head + raw.translate(_COMMA_TO_LF))
    try:
        reader.read_body_array(reader.open_read_stream(body, 1), values)
    except (ValueError, AttributeError, TypeError):  # a bad piece, or another reader API
        return None
    if not values.all():
        zero = np.flatnonzero(values.T == 0.0)  # token indices, row by row
        ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))
        starts = np.concatenate(([0], ends[:-1] + 1))[zero]
        negative = zero[data[starts] == ord("-")]
        values[negative % 7, negative // 7] = -0.0
    return values


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
    if (data := _as_array(io.BytesIO(raw))) is not None:
        return data.T
    # numpy reads a whitespace-only line as a 1-column row: drop blank and comment lines, retry.
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


def _line_start(fh, pos: int) -> int:
    """The first offset at or after `pos` (> 0) of the binary file `fh` that follows an LF, a
    CRLF or a lone CR, or the end of the file: never one between the CR and the LF of a CRLF."""
    fh.seek(at := pos - 1)
    while block := fh.read(4096):
        if end := _LINE_END.search(block):
            split = end[0] == b"\r" and end.end() == len(block)  # is its LF in the next block?
            return at + end.end() + (split and fh.read(1) == b"\n")
        at += len(block)
    return at


def _pieces(fh, start: int, stop: int) -> Iterator[bytes]:
    """Bytes [start, stop) of the binary file `fh`, both line starts (`_line_start`), in pieces
    of about `_READ_BYTES` that end at line starts, with every line end made one LF."""
    while start < stop:
        end = stop if stop - start <= _READ_BYTES else _line_start(fh, start + _READ_BYTES)
        fh.seek(start)
        piece = fh.read(end - start)
        if not piece:  # the file shrank
            return
        if b"\r" in piece:
            piece = piece.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        yield piece
        start = end


def _line_ends(path, start: int, stop: int) -> int:
    """The lines in bytes [start, stop) of a trace file, both line starts: a bound on its rows."""
    ends, last = 0, b"\n"
    with open(path, "rb") as fh:
        for piece in _pieces(fh, start, stop):
            ends, last = ends + piece.count(b"\n"), piece[-1:]
    return ends + (last != b"\n")


def _parse_chunk(key: int, path, start: int, stop: int, at: int) -> tuple[int, int] | _BadLine:
    """Parse bytes [start, stop) of a trace file, which begin and end at line starts, into
    the destination ``_DESTINATIONS[key]`` from column `at` on; return (rows, lines), or the
    first line that is not 7 numbers.  Each piece (`_pieces`) is read strictly if it can be
    (`_strict_piece`, one line a row), else with numpy (`_loose_parse`)."""
    t, channels = _DESTINATIONS[key]
    end, lines = at, 0
    with open(path, "rb") as fh:
        for piece in _pieces(fh, start, stop):
            values = _strict_piece(piece)
            if values is not None:
                lines += values.shape[1]
            else:
                values = _loose_parse(piece)
                if isinstance(values, _BadLine):
                    return values._replace(index=values.index + lines)
                lines += len(piece.splitlines())
            lo, end = end, end + values.shape[1]
            t[lo:end], channels[:, lo:end] = values[0], values[1:]
            del values  # before the next piece is read
    return end - at, lines


def _shared_floats(count: int) -> np.ndarray:
    """`count` zeros in a fresh anonymous mapping, which forked workers write through: it is
    MAP_SHARED, mmap's default on POSIX (not `multiprocessing.shared_memory`, whose /dev/shm is
    often small)."""
    return np.frombuffer(mmap.mmap(-1, 8 * max(count, 1)), np.float64)[:count]  # no length 0


def _parse_chunks(path, bounds: list[int], header_line: int) -> tuple[np.ndarray, np.ndarray]:
    """The time column and the (6, room) channel rows of the ranges between consecutive
    `bounds`, each range parsed in a forked worker when there are several.

    Each worker first counts its range's lines (`_line_ends`), a bound on its rows.  Then
    the time column and the channel rows are mapped (`_shared_floats`), each range gets the
    columns its bound allows from where the ranges before it end, and each worker writes its
    rows there (`_parse_chunk`), handing back only its row and line counts.  Last, the gaps
    that blank and comment lines leave are closed in place.  A row that is not 7 numbers is a
    DataError naming its 1-based line, counted from the `header_line`.
    """
    _compiled_reader()  # imported for _strict_piece before any fork
    ranges = list(zip(bounds[:-1], bounds[1:]))
    counts = runtime.fork_map(len(ranges), _line_ends, [(path, lo, hi) for lo, hi in ranges])
    slots = list(itertools.accumulate(counts, initial=0))
    room = 2 * (slots[-1] // 2 + 1)  # for the spectrum of every length up to the bound
    key = next(_LOADS)
    _DESTINATIONS[key] = t, channels = (
        _shared_floats(slots[-1]), _shared_floats(len(AXES) * room).reshape(len(AXES), room)
    )
    try:
        tasks = [(key, path, lo, hi, at) for (lo, hi), at in zip(ranges, slots)]
        results = list(runtime.fork_map(len(ranges), _parse_chunk, tasks))
    finally:
        del _DESTINATIONS[key]
    line = header_line
    for result in results:
        if isinstance(result, _BadLine):
            raise DataError(f"{path}: line {line + result.index + 1}: {result.reason}")
        line += result[1]
    n = 0
    for at, (rows, _) in zip(slots, results):
        # Ascending blocks: a block's source lies past what the blocks before it wrote.
        for lo in range(0, rows if at > n else 0, runtime.BLOCK):
            hi = min(lo + runtime.BLOCK, rows)
            t[n + lo : n + hi] = t[at + lo : at + hi]
            channels[:, n + lo : n + hi] = channels[:, at + lo : at + hi]
        n += rows
    return t[:n], channels


def _find_header(fh, stop: int) -> tuple[str | None, int, int]:
    """The first line of `fh` (`stop` bytes) neither blank nor a comment, its number, its end."""
    lines = offset = 0
    while offset < stop and (end := _line_start(fh, offset + 1)) > offset:  # or the file shrank
        fh.seek(offset)
        text = fh.read(end - offset).decode(errors="replace").strip()
        lines, offset = lines + 1, end
        if text and not text.startswith("#"):
            return text, lines, offset
    return None, lines, offset


def load_trace(path) -> MotionTrace:
    """Load a trace CSV (the module's format), inferring the sample rate from the time column.

    Blank lines and ``#`` comments may appear anywhere, and an LF, a CRLF or a
    lone CR ends a line (`_line_start`).  When the data after the header spans
    at least two 16 MiB chunks and more than one CPU is usable, it is cut at
    line starts into one byte range per CPU (at most one per 16 MiB), and
    forked worker processes parse the ranges in parallel; otherwise, and where
    the platform cannot fork, one range is parsed inline.  Workers (or the
    inline parse) write the values straight into the trace's rows, which live
    in anonymous shared memory; only row and line counts come back
    (`_parse_chunks`).  A range is read in pieces of about 2 MiB of whole
    lines, each line ended by one LF (`_pieces`).  A piece whose rows are all
    seven plain decimals split by commas, as `save_trace` writes them, is read
    by scipy's compiled reader on one thread (`_strict_piece`); any other piece
    by ``np.loadtxt``, and line by line where that fails.  The values are
    bit-identical on every path.  Each channel is the first n floats of its row
    of one writable (6, room) float array, with room for the channel's spectrum
    (2 * (n // 2 + 1) floats), which `transmission.load_seat_spectra` writes
    over it.  A row that is not 7 numbers is a DataError that names its 1-based
    line in the file.  The sample rate is the first of these candidates whose
    ``np.arange(n) / rate`` is exactly the time column: the integer within 1e-9
    relative of 1/dt, if there is one, then the doubles within 4 ulp of 1/dt,
    nearest first.  If none is, it is the first candidate.  So a saved trace
    loads at its own rate (a non-integer one from about 16 samples on), and a
    hand-written decimal column at the integer.
    """
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            stop = os.fstat(fh.fileno()).st_size
            header, header_line, start = _find_header(fh, stop)
            if header is None:
                raise DataError(f"{path}: empty trace file")
            if header != TRACE_HEADER:
                raise DataError(f"{path}: expected header {TRACE_HEADER!r}, got {header[:80]!r}")
            k = max(1, min(runtime.usable_cpus(), (stop - start) // _MIN_CHUNK_BYTES))
            cuts = [_line_start(fh, start + (stop - start) * i // k) for i in range(1, k)]
            bounds = [start, *sorted(set(cuts) - {stop}), stop]
        t, channels = _parse_chunks(path, bounds, header_line)
    except OSError as exc:
        raise ConfigError(f"cannot read trace file {path}: {exc}") from exc
    n = len(t)
    if n < 2:
        raise DataError(f"{path}: a trace needs at least 2 samples")
    if not np.all(np.isfinite(t)):  # the channels are checked by MotionTrace
        raise DataError(f"{path}: time column contains non-finite values")

    dt, worst = (t[-1] - t[0]) / (n - 1), 0.0
    for lo in range(0, n - 1, runtime.BLOCK):  # the rate check in blocks, each worked in place
        steps = np.diff(t[lo : lo + runtime.BLOCK + 1])
        if np.any(steps <= 0.0):
            raise DataError(f"{path}: time column is not strictly increasing")
        worst = max(worst, np.max(np.abs(np.subtract(steps, dt, out=steps), out=steps)))
    if worst > UNIFORMITY_TOL * dt:
        raise DataError(f"{path}: non-uniform sampling (time step varies by more than 1 ppm)")
    fs = 1.0 / dt
    near, up, down = [fs], fs, fs
    for _ in range(4):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        near += [up, down]
    candidates = sorted(near, key=lambda r: abs(r - fs))
    if round(fs) > 0 and abs(fs - round(fs)) <= 1e-9 * fs:
        candidates.insert(0, round(fs))
    exact = (r for r in candidates if (n - 1) / r == t[-1] and np.array_equal(_seconds(n, r), t))
    fs = float(next(exact, candidates[0]))
    del t
    with _naming(path):
        return MotionTrace(fs, dict(zip(AXES, channels[:, :n])), path.stem, _owned=True)


def save_trace(trace: MotionTrace, path) -> None:
    """Write a trace in the load_trace format (17 significant digits), streamed."""
    cols = [trace.time_s] + [trace.channels[axis] for axis in AXES]
    atomic_write_text(path, format_rows(cols, TRACE_HEADER + "\n"))


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
    spectrum = _pocketfft.r2c(white, (-1,), True, 0, None, 1)  # scipy.fft.rfft's call
    freqs = bin_frequencies(t.size, fs)
    spectrum[(freqs < comp.f0) | (freqs > comp.f1)] = 0.0
    shaped = _pocketfft.c2r(spectrum, (-1,), t.size, False, 2, None, 1)  # and irfft's
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
