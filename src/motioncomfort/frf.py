"""Tabulated frequency response functions and the head-transmission channel map.

A seat-to-head transmissibility is stored as gain and unwrapped phase over an
ascending frequency grid (`FrfCurve`).  Fourteen such curves, keyed by
`FrfChannelId`, make up one `FrfBundle`:

    set 1: z -> z, z -> pitch
    set 2: pitch -> x, pitch -> z, pitch -> pitch
    set 3: roll -> y, roll -> yaw, roll -> roll
    set 4: x -> x, x -> pitch
    set 5: y -> y, y -> yaw, y -> roll
    set 6: yaw -> yaw

Bundles come in four configurations: EXP (measured transmissibilities), AHM
(detailed body model), EHM (reduced body model) and NHM (no body model, the
head rigidly follows the seat: unit diagonal, zero cross coupling).

Curves interpolate linearly in (gain, unwrapped phase) and hold the nearest
tabulated value outside the tabulated band.  The response at 0 Hz is forced
real so that real signals stay real through an inverse transform.  The block
build of the head spectra (`transmission`) relies on that hold: it calls
`evaluate_grid` only on the bins inside a curve's band and fills the held
bins below and above it with the edge response, which gives the same bits.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import ComfortError, ConfigError, DataError

logger = logging.getLogger(__name__)

AXES = ("x", "y", "z", "roll", "pitch", "yaw")
TRANSLATIONAL_AXES = frozenset({"x", "y", "z"})

TRANSLATIONAL_UNIT = "m/s2"
ROTATIONAL_UNIT = "rad/s2"

MODEL_IDS = ("EXP", "AHM", "EHM", "NHM")

#: The 14 legal (set, input axis, output axis) channels.
LEGAL_CHANNELS = frozenset(
    {
        (1, "z", "z"),
        (1, "z", "pitch"),
        (2, "pitch", "x"),
        (2, "pitch", "z"),
        (2, "pitch", "pitch"),
        (3, "roll", "y"),
        (3, "roll", "yaw"),
        (3, "roll", "roll"),
        (4, "x", "x"),
        (4, "x", "pitch"),
        (5, "y", "y"),
        (5, "y", "yaw"),
        (5, "y", "roll"),
        (6, "yaw", "yaw"),
    }
)


def axis_unit(axis: str) -> str:
    return TRANSLATIONAL_UNIT if axis in TRANSLATIONAL_AXES else ROTATIONAL_UNIT


def _frozen_array(values, owned: bool = False) -> np.ndarray:
    """A read-only float64 copy of `values`; with `owned`, `values` itself, a fresh float64
    array that nothing else holds, made read-only.  The one place that decides copy-or-keep."""
    arr = np.asarray(values, dtype=np.float64) if owned else np.array(values, dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _is_real(value) -> bool:
    """True for a finite real number (int, float, numpy's too) that a float holds, False for a
    bool, an infinity, a NaN, an int too large for a float or anything else."""
    try:
        return isinstance(value, numbers.Real) and type(value) is not bool and math.isfinite(value)
    except OverflowError:
        return False


def _checked_grid(values, what: str) -> np.ndarray:
    """`values` as a 1-D float grid; DataError unless non-empty, finite, >= 0 and increasing."""
    grid = np.atleast_1d(np.asarray(values, dtype=np.float64))
    if grid.ndim != 1 or grid.size == 0:
        raise DataError(f"{what} must be a non-empty 1-D array")
    if not np.all(np.isfinite(grid)) or np.any(grid < 0.0):
        raise DataError(f"{what} must be finite and >= 0")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise DataError(f"{what} must be strictly increasing")
    return grid


@dataclass(frozen=True)
class FrfChannelId:
    """One input-axis -> output-axis transmission channel of a bundle."""

    input_axis: str
    output_axis: str
    set_id: int

    def __post_init__(self):
        key = (self.set_id, self.input_axis, self.output_axis)
        if key not in LEGAL_CHANNELS:
            raise DataError(
                f"illegal FRF channel: set {self.set_id} {self.input_axis}->{self.output_axis}"
            )

    @property
    def is_diagonal(self) -> bool:
        return self.input_axis == self.output_axis

    @property
    def units(self) -> tuple[str, str]:
        return axis_unit(self.input_axis), axis_unit(self.output_axis)

    def __str__(self) -> str:
        return f"set{self.set_id}:{self.input_axis}->{self.output_axis}"


#: All channel ids in deterministic (set, input, output) order.
CHANNEL_IDS = tuple(
    FrfChannelId(input_axis=i, output_axis=o, set_id=s)
    for s, i, o in sorted(LEGAL_CHANNELS)
)


@dataclass(frozen=True)
class FrfCurve:
    """One tabulated complex frequency response.

    Parameters
    ----------
    freq_hz : array
        Strictly increasing, non-negative frequencies.  A single-point curve
        represents a constant response.
    gain : array
        Non-negative magnitudes, output unit per input unit.
    phase_rad : array
        Phases in radians.  Stored unwrapped: any jump larger than pi between
        adjacent samples is removed at construction by adding multiples of
        2*pi, so interpolation never crosses a wrap discontinuity.
    units : (str, str)
        (input unit, output unit), each "m/s2" or "rad/s2".
    """

    freq_hz: np.ndarray
    gain: np.ndarray
    phase_rad: np.ndarray
    units: tuple[str, str] = (TRANSLATIONAL_UNIT, TRANSLATIONAL_UNIT)

    def __post_init__(self):
        freq = _checked_grid(self.freq_hz, "frequency grid")
        gain = np.atleast_1d(np.asarray(self.gain, dtype=np.float64))
        phase = np.atleast_1d(np.asarray(self.phase_rad, dtype=np.float64))
        if gain.shape != freq.shape or phase.shape != freq.shape:
            raise DataError("gain and phase must match the frequency grid length")
        if not np.all(np.isfinite(gain)) or np.any(gain < 0.0):
            raise DataError("gains must be finite and >= 0")
        if not np.all(np.isfinite(phase)):
            raise DataError("phases must be finite")
        if phase.size > 1:
            phase = np.unwrap(phase)
        valid = {TRANSLATIONAL_UNIT, ROTATIONAL_UNIT}
        if self.units[0] not in valid or self.units[1] not in valid:
            raise DataError(f"unknown units {self.units!r}")
        object.__setattr__(self, "freq_hz", _frozen_array(freq))
        object.__setattr__(self, "gain", _frozen_array(gain))
        object.__setattr__(self, "phase_rad", _frozen_array(phase))
        object.__setattr__(self, "units", (str(self.units[0]), str(self.units[1])))

    @classmethod
    def constant(
        cls, gain: float, phase_rad: float = 0.0, units=(TRANSLATIONAL_UNIT, TRANSLATIONAL_UNIT)
    ) -> "FrfCurve":
        """A frequency-independent response, tabulated as a single point."""
        return cls(
            freq_hz=np.array([0.0]),
            gain=np.array([float(gain)]),
            phase_rad=np.array([float(phase_rad)]),
            units=units,
        )

    @property
    def max_freq_hz(self) -> float:
        return float(self.freq_hz[-1])

    def is_constant(self, gain: float, phase_rad: float = 0.0) -> bool:
        return bool(np.all(self.gain == gain) and np.all(self.phase_rad == phase_rad))


def interpolate_frf(curve: FrfCurve, grid) -> FrfCurve:
    """Resample a curve onto a new frequency grid.

    Gain and unwrapped phase are interpolated linearly between tabulated
    points; outside the tabulated band the nearest tabulated value is held.
    The grid must be strictly increasing and non-negative.  Grids coarser
    than the tabulation can alias rapidly varying phase, which is inherent
    to sampled phase data.
    """
    gain = np.interp(grid, curve.freq_hz, curve.gain)
    phase = np.interp(grid, curve.freq_hz, curve.phase_rad)
    return FrfCurve(freq_hz=grid, gain=gain, phase_rad=phase, units=curve.units)


def evaluate_grid(curve: FrfCurve, freqs: np.ndarray) -> np.ndarray:
    """Complex response gain*exp(i*phase) at each frequency of an array.

    Uses the interpolation and hold rules of `interpolate_frf`.  At exactly
    0 Hz the phase is dropped so the response is real.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    gain = np.interp(freqs, curve.freq_hz, curve.gain)
    phase = np.interp(freqs, curve.freq_hz, curve.phase_rad)
    response = gain * np.exp(1j * phase)
    dc = freqs == 0.0
    if np.any(dc):
        response[dc] = gain[dc]
    return response


def evaluate_frf(curve: FrfCurve, f: float) -> complex:
    """Complex response at a single frequency (Hz)."""
    f = float(f)
    if not math.isfinite(f) or f < 0.0:
        raise DataError(f"frequency must be finite and >= 0, got {f!r}")
    return complex(evaluate_grid(curve, np.array([f]))[0])


@dataclass(frozen=True)
class FrfBundle:
    """The full 14-channel map for one human-model configuration."""

    model_id: str
    channels: Mapping[FrfChannelId, FrfCurve] = field(repr=False)

    def __post_init__(self):
        if self.model_id not in MODEL_IDS:
            raise DataError(f"unknown model id {self.model_id!r}, expected one of {MODEL_IDS}")
        channels = dict(self.channels)
        present = set(channels)
        expected = set(CHANNEL_IDS)
        if present != expected:
            missing = sorted(str(c) for c in expected - present)
            extra = sorted(str(c) for c in present - expected)
            raise DataError(f"bundle channels mismatch: missing={missing} extra={extra}")
        for cid, curve in channels.items():
            if curve.units != cid.units:
                raise DataError(f"channel {cid} units {curve.units} do not match axes {cid.units}")
        if self.model_id == "NHM":
            for cid, curve in channels.items():
                if cid.is_diagonal:
                    if not curve.is_constant(1.0, 0.0):
                        raise DataError(f"NHM diagonal channel {cid} must be constant unit gain")
                elif not curve.is_constant(0.0, 0.0):
                    raise DataError(f"NHM cross channel {cid} must be constant zero")
        object.__setattr__(
            self, "channels", MappingProxyType({c: channels[c] for c in CHANNEL_IDS})
        )

    def curve(self, input_axis: str, output_axis: str) -> FrfCurve:
        for cid in CHANNEL_IDS:
            if cid.input_axis == input_axis and cid.output_axis == output_axis:
                return self.channels[cid]
        raise KeyError(f"no channel {input_axis}->{output_axis}")

    @property
    def max_freq_hz(self) -> float:
        return max(curve.max_freq_hz for curve in self.channels.values())


def identity_bundle() -> FrfBundle:
    """The NHM configuration: head motion equals seat motion.

    Diagonal channels are constant unit gain with zero phase; cross-axis
    channels are constant zero, so no seat axis leaks into a different
    head axis.
    """
    channels = {}
    for cid in CHANNEL_IDS:
        gain = 1.0 if cid.is_diagonal else 0.0
        channels[cid] = FrfCurve.constant(gain, 0.0, units=cid.units)
    return FrfBundle(model_id="NHM", channels=channels)


@contextmanager
def _input_file(path, what: str, error: type[ComfortError]):
    """`path` open as UTF-8 text, read in the block.  A file that cannot be read is a
    ConfigError; text that is not UTF-8, JSON that does not parse or nests deeper than the
    parser goes (RFC 8259 §9 lets it limit depth), or a row that `csv` rejects, is `error`."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError, csv.Error) as exc:
        raise error(f"malformed {what} {path}: {exc}") from exc


@contextmanager
def _naming(path, error: type[ComfortError] = DataError):
    """Prefix `path` to a config or data error raised in the block, which builds objects from
    that file, and raise it as `error`."""
    try:
        yield
    except (ConfigError, DataError) as exc:
        raise error(f"{path}: {exc}") from exc


def read_json_file(path, what: str, error: type[ComfortError]):
    """The JSON document in `path`; errors name it as `what` (see `_input_file`)."""
    with _input_file(path, what, error) as fh:
        return json.load(fh)


def read_csv_table(path, columns: Sequence[str]) -> np.ndarray:
    """Rows of a numeric CSV table with the exact header `columns` (# comments).

    A file that cannot be read is a ConfigError; one that is not UTF-8 a DataError.
    """
    rows = []
    with _input_file(path, "table", DataError) as fh:
        header = None
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if header is None:
                header = [c.strip() for c in row]
                if header != list(columns):
                    raise DataError(f"{path}: expected header {','.join(columns)}, got {header}")
                continue
            if len(row) != len(columns):
                raise DataError(f"{path}:{lineno}: expected {len(columns)} columns, got {len(row)}")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_frf_csv(path, units: tuple[str, str]) -> FrfCurve:
    """Load one channel file: CSV with header ``freq_hz,gain,phase_deg``.

    Lines starting with ``#`` are comments.  Phase is converted to radians
    and unwrapped by the curve constructor.
    """
    path = Path(path)
    data = read_csv_table(path, ("freq_hz", "gain", "phase_deg"))
    with _naming(path):
        return FrfCurve(
            freq_hz=data[:, 0], gain=data[:, 1], phase_rad=np.deg2rad(data[:, 2]), units=units
        )


def load_frf_bundle(manifest_path) -> FrfBundle:
    """Load a bundle from a JSON manifest naming one CSV file per channel.

    Channel file paths are resolved relative to the manifest's directory.
    Missing cross-axis channels default to constant-zero curves with a
    logged warning; missing diagonal channels are an error.
    """
    manifest_path = Path(manifest_path)
    manifest = read_json_file(manifest_path, "bundle manifest", DataError)
    if not isinstance(manifest, dict) or "model_id" not in manifest or "channels" not in manifest:
        raise DataError(f"{manifest_path}: manifest must contain 'model_id' and 'channels'")
    if not isinstance(manifest["channels"], list):
        raise DataError(f"{manifest_path}: 'channels' must be a list")

    base = manifest_path.parent
    channels: dict[FrfChannelId, FrfCurve] = {}
    for entry in manifest["channels"]:
        try:
            set_id = entry["set"]
            if isinstance(set_id, bool) or not isinstance(set_id, int):  # not 1.5, true or "1"
                raise TypeError(f"set {set_id!r} is not an integer")
            cid = FrfChannelId(input_axis=entry["in"], output_axis=entry["out"], set_id=set_id)
            file_ref = entry["file"]
            if not isinstance(file_ref, str) or "\0" in file_ref:
                raise TypeError(f"file {file_ref!r} is not a path string")
            units = (entry["in_unit"], entry["out_unit"])
        except (KeyError, TypeError, ValueError, DataError) as exc:
            raise DataError(f"{manifest_path}: malformed channel entry {entry!r}") from exc
        if cid in channels:
            raise DataError(f"{manifest_path}: duplicate channel {cid}")
        if tuple(units) != cid.units:
            raise DataError(
                f"{manifest_path}: channel {cid} declares units {units}, expected {cid.units}"
            )
        curve_path = Path(file_ref)
        if not curve_path.is_absolute():
            curve_path = base / curve_path
        channels[cid] = read_frf_csv(curve_path, units=cid.units)

    missing = [cid for cid in CHANNEL_IDS if cid not in channels]
    for cid in missing:
        if cid.is_diagonal:
            raise DataError(f"{manifest_path}: missing diagonal channel {cid}")
        channels[cid] = FrfCurve.constant(0.0, 0.0, units=cid.units)
    with _naming(manifest_path):
        bundle = FrfBundle(model_id=str(manifest["model_id"]), channels=channels)
    for cid in missing:  # once the bundle loads, so that an error is the only line printed
        logger.warning(
            "bundle %s: channel %s missing, assuming no coupling (constant zero)",
            manifest_path.name,
            cid,
        )
    return bundle


_DATA_DIR = Path(__file__).resolve().parent / "data"


def builtin_bundle(model_id: str) -> FrfBundle:
    """Resolve a model id to a bundle.

    NHM is constructed programmatically.  EXP, AHM and EHM load the packaged
    fixture bundles, which are synthetic stand-ins with plausible shapes (see
    the bundle manifests); substitute measured data via an explicit manifest
    for production use.
    """
    model_id = known_model_id(model_id)
    if model_id == "NHM":
        return identity_bundle()
    return load_frf_bundle(_DATA_DIR / "bundles" / model_id.lower() / "manifest.json")


def known_model_id(model_id: str) -> str:
    """`model_id` upper-cased, if it is one of `MODEL_IDS`; else a ConfigError."""
    model_id = str(model_id).upper()
    if model_id not in MODEL_IDS:
        raise ConfigError(f"unknown model id {model_id!r}, expected one of {MODEL_IDS}")
    return model_id
