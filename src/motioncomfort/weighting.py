"""Frequency-weighting curves and the two comfort metric regimes.

Weighting is applied as zero-phase magnitude multiplication in the frequency
domain: the tabulated magnitude is interpolated onto the transform bins and
multiplied in, with no phase term.  Downstream metrics consume RMS values
only, which are insensitive to phase for batch records, so this keeps the
tabulated magnitudes exact.  A causal real-time realization of the standard
filters would differ transiently; that is out of scope here.

The built-in registry ships seven curves:

    Wk     vertical ride-comfort weighting (ISO 2631-1)
    We     rotational ride-comfort weighting (ISO 2631-1)
    Wf     vertical motion-sickness weighting (ISO 2631-1)
    Wfx    longitudinal motion-sickness weighting
    Wfy    lateral motion-sickness weighting
    Wfr    rotational motion-sickness weighting
    Unity  constant 1

Wk, We and Wf are tabulated from the ISO 2631-1 rational-filter
parameterization at one-third-octave centers.  Wfx, Wfy and Wfr are
synthetic low-frequency shapes standing in for published curves that are
not redistributable here; the CSV headers carry that provenance and the
files can be replaced without code changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import spectral
from .errors import ConfigError, DataError
from .frf import AXES, _checked_grid, _frozen_array, _is_real, read_csv_table

WEIGHTING_NAMES = ("Wk", "We", "Wf", "Wfx", "Wfy", "Wfr", "Unity")

#: Per-axis multiplying factors of the quadratic combination, overridable.
DEFAULT_K_FACTORS: Mapping[str, float] = MappingProxyType(
    {"x": 1.0, "y": 1.0, "z": 1.0, "roll": 0.63, "pitch": 0.4, "yaw": 0.2}
)

RC_AXIS_WEIGHTING: Mapping[str, str] = MappingProxyType(
    {"x": "Unity", "y": "Unity", "z": "Wk", "roll": "We", "pitch": "We", "yaw": "We"}
)

MS_AXIS_WEIGHTING: Mapping[str, str] = MappingProxyType(
    {"x": "Wfx", "y": "Wfy", "z": "Wf", "roll": "Wfr", "pitch": "Wfr", "yaw": "Wfr"}
)


@dataclass(frozen=True)
class WeightingCurve:
    """A unitless frequency-dependent magnitude, >= 0, on an ascending grid."""

    name: str
    freq_hz: np.ndarray = field(repr=False)
    magnitude: np.ndarray = field(repr=False)

    def __post_init__(self):
        freq = _checked_grid(self.freq_hz, "weighting grid")
        mag = np.atleast_1d(np.asarray(self.magnitude, dtype=np.float64))
        if mag.shape != freq.shape:
            raise DataError("weighting magnitude must match the weighting grid length")
        if not np.all(np.isfinite(mag)) or np.any(mag < 0.0):
            raise DataError("weighting magnitudes must be finite and >= 0")
        object.__setattr__(self, "name", str(self.name))
        object.__setattr__(self, "freq_hz", _frozen_array(freq))
        object.__setattr__(self, "magnitude", _frozen_array(mag))

    @classmethod
    def unity(cls) -> "WeightingCurve":
        return cls(name="Unity", freq_hz=np.array([0.0]), magnitude=np.array([1.0]))

    def at(self, freqs) -> np.ndarray:
        """Interpolated magnitude at the given frequencies (edge values held)."""
        return np.interp(np.asarray(freqs, dtype=np.float64), self.freq_hz, self.magnitude)


def apply_weighting(signal, curve: WeightingCurve, sample_rate_hz: float) -> np.ndarray:
    """Weight a signal by zero-phase spectral multiplication."""
    return spectral.apply_response(signal, sample_rate_hz, curve.at)


def load_weighting_csv(path, name: str | None = None) -> WeightingCurve:
    """Load a curve from CSV with header ``freq_hz,magnitude`` (# comments)."""
    path = Path(path)
    data = read_csv_table(path, ("freq_hz", "magnitude"))
    freq = _checked_grid(data[:, 0], f"{path}: frequency column")
    return WeightingCurve(name=name or path.stem, freq_hz=freq, magnitude=data[:, 1])


_DATA_DIR = Path(__file__).resolve().parent / "data" / "weightings"


@lru_cache(maxsize=1)
def _builtin() -> Mapping[str, WeightingCurve]:
    curves = {"Unity": WeightingCurve.unity()}
    for name in WEIGHTING_NAMES:
        if name == "Unity":
            continue
        path = _DATA_DIR / f"{name.lower()}.csv"
        if not path.exists():
            raise DataError(f"bundled weighting table missing: {path}")
        curves[name] = load_weighting_csv(path, name=name)
    return MappingProxyType(curves)


def builtin_weightings() -> dict[str, WeightingCurve]:
    """The named built-in curves, as a fresh mutable registry."""
    return dict(_builtin())


@dataclass(frozen=True)
class MetricRegime:
    """Which curve weights each axis, and the per-axis combination factors."""

    kind: str
    axis_weighting: Mapping[str, str]
    k_factors: Mapping[str, float]

    def __post_init__(self):
        if self.kind not in ("RC", "MS"):
            raise ConfigError(f"regime kind must be 'RC' or 'MS', got {self.kind!r}")
        weighting = dict(self.axis_weighting)
        factors = dict(self.k_factors)
        if set(weighting) != set(AXES):
            raise ConfigError("axis_weighting must name a curve for each of the six axes")
        if set(factors) != set(AXES):
            raise ConfigError("k_factors must provide a factor for each of the six axes")
        for axis, k in factors.items():
            if not _is_real(k) or not 0.0 <= k < np.inf:
                raise ConfigError(f"k factor for {axis} must be finite and >= 0, got {k!r}")
            factors[axis] = float(k)
        object.__setattr__(self, "axis_weighting", MappingProxyType(weighting))
        object.__setattr__(self, "k_factors", MappingProxyType(factors))


def ride_comfort_regime(k_factors: Mapping[str, float] | None = None) -> MetricRegime:
    """Default ride-comfort regime: Wk on z, We on rotations, x and y unweighted."""
    return MetricRegime(
        kind="RC",
        axis_weighting=RC_AXIS_WEIGHTING,
        k_factors=k_factors or DEFAULT_K_FACTORS,
    )


def motion_sickness_regime(k_factors: Mapping[str, float] | None = None) -> MetricRegime:
    """Default motion-sickness regime: the low-frequency Wf family on every axis."""
    return MetricRegime(
        kind="MS",
        axis_weighting=MS_AXIS_WEIGHTING,
        k_factors=k_factors or DEFAULT_K_FACTORS,
    )


def unity_regime(kind: str = "RC") -> MetricRegime:
    """All-axes Unity weighting with k = 1, reducing the total to a plain norm."""
    return MetricRegime(
        kind=kind,
        axis_weighting={axis: "Unity" for axis in AXES},
        k_factors={axis: 1.0 for axis in AXES},
    )
