"""Weighted-RMS comfort values per axis and their quadratic combination.

Per axis: weight the acceleration, take the RMS.  Per regime: combine the
six axis values as sqrt(sum k_i^2 v_i^2).  `full_assessment` runs the whole
pipeline (transmission, both regimes, sickness-incidence accumulation) and
assembles a report that echoes enough configuration to reproduce it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import spectral, traceio
from .errors import ConfigError, DataError, NumericError
from .frf import AXES, FrfBundle
from .svc import MsiSeries, SvcParams, run_svc
from .traceio import MotionTrace
from .transmission import head_spectra, head_trace, seat_spectra
from .weighting import (
    MetricRegime,
    WeightingCurve,
    apply_weighting,
    builtin_weightings,
    motion_sickness_regime,
    ride_comfort_regime,
)


def rms(signal) -> float:
    """Root mean square, sqrt(mean(s^2)), of a non-empty finite signal.

    The discrete mean of squares already realizes the time-average of the
    squared signal, so no sample rate enters.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.size == 0:
        raise DataError("cannot take the RMS of an empty signal")
    if not np.all(np.isfinite(x)):
        raise DataError("signal contains non-finite samples")
    return float(np.sqrt(np.mean(np.square(x))))


def combine(per_axis: Mapping[str, float], k_factors: Mapping[str, float]) -> float:
    """Overall metric sqrt(sum_i k_i^2 v_i^2) over the six axes; NumericError if not finite."""
    acc = 0.0
    for axis in AXES:
        try:
            v = float(per_axis[axis])
            k = float(k_factors[axis])
            acc += (k * v) ** 2
        except KeyError as exc:
            raise DataError(f"missing axis {exc} in per-axis values or k factors") from exc
        except OverflowError:
            acc = float("inf")
        if v < 0.0 or k < 0.0:
            raise DataError(f"negative value for axis {axis}: v={v}, k={k}")
    if not np.isfinite(acc):  # every assessment path checks its values here
        raise NumericError(f"non-finite weighted RMS values {dict(per_axis)}")
    return float(np.sqrt(acc))


@dataclass(frozen=True)
class RegimeResult:
    """Per-axis weighted RMS values and their combined total for one regime."""

    kind: str
    per_axis: Mapping[str, float]
    total: float
    weighting_names: Mapping[str, str]
    k_factors: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "per_axis", MappingProxyType(dict(self.per_axis)))
        object.__setattr__(self, "weighting_names", MappingProxyType(dict(self.weighting_names)))
        object.__setattr__(self, "k_factors", MappingProxyType(dict(self.k_factors)))


def _regime_result(regime: MetricRegime, per_axis: Mapping[str, float]) -> RegimeResult:
    return RegimeResult(
        kind=regime.kind,
        per_axis=per_axis,
        total=combine(per_axis, regime.k_factors),
        weighting_names=regime.axis_weighting,
        k_factors=regime.k_factors,
    )


def _resolve_curves(regime: MetricRegime, registry) -> dict[str, WeightingCurve]:
    curves = registry if registry is not None else builtin_weightings()
    resolved = {}
    for axis in AXES:
        name = regime.axis_weighting[axis]
        try:
            resolved[axis] = curves[name]
        except KeyError as exc:
            raise ConfigError(f"unknown weighting curve {name!r} for axis {axis}") from exc
    return resolved


def assess(
    trace: MotionTrace,
    regime: MetricRegime,
    registry: Mapping[str, WeightingCurve] | None = None,
) -> RegimeResult:
    """Weighted RMS per axis plus combined total for one regime."""
    curves = _resolve_curves(regime, registry)
    fs = trace.sample_rate_hz
    return _regime_result(
        regime,
        {axis: rms(apply_weighting(trace.channels[axis], curves[axis], fs)) for axis in AXES},
    )


@dataclass(frozen=True)
class ComfortReport:
    """Everything one assessment produced, with its configuration echo."""

    model_id: str
    rc: RegimeResult
    ms: RegimeResult
    msi: MsiSeries | None
    duration_s: float
    sample_rate_hz: float
    config_echo: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "config_echo", MappingProxyType(dict(self.config_echo)))


def _config_echo(rc: MetricRegime, ms: MetricRegime, svc_params: SvcParams | None) -> dict:
    echo: dict[str, object] = {
        "rc": {"weighting": dict(rc.axis_weighting), "k_factors": dict(rc.k_factors)},
        "ms": {"weighting": dict(ms.axis_weighting), "k_factors": dict(ms.k_factors)},
    }
    if svc_params is not None:
        echo["svc"] = svc_params.as_dict()
    return echo


def full_assessment(
    seat: MotionTrace,
    bundle: FrfBundle,
    *,
    rc: MetricRegime | None = None,
    ms: MetricRegime | None = None,
    svc_params: SvcParams | None = None,
    registry: Mapping[str, WeightingCurve] | None = None,
    include_svc: bool = True,
    timings: dict | None = None,
) -> ComfortReport:
    """Transmit seat motion to the head, then assess both regimes plus MSI.

    This is the batch path: the head spectra come from the spectral core in
    `transmission` (one forward FFT per seat channel, one inverse FFT per
    head axis), and the weighted RMS values are read off the head spectra
    (Parseval), which is arithmetically equivalent to weighting in the time
    domain followed by a time-domain RMS; each regime's read-off takes one
    task per axis on every usable CPU.  MSI runs on the head trace.
    Results match `transmit` + `assess` + `run_svc` to fp round-off.
    Pass a dict as `timings` to collect per-stage wall times in seconds.
    """
    return _assess_spectra(seat, bundle, None, rc, ms, svc_params, registry, include_svc, timings)


def _assess_spectra(seat, bundle, spectra, rc, ms, svc_params, registry, include_svc, timings):
    """`full_assessment` that reuses `spectra`, the seat's `seat_spectra`, unless None."""
    rc = rc if rc is not None else ride_comfort_regime()
    ms = ms if ms is not None else motion_sickness_regime()
    svc_params = svc_params if svc_params is not None else SvcParams()
    rc_curves = _resolve_curves(rc, registry)
    ms_curves = _resolve_curves(ms, registry)
    fs = seat.sample_rate_hz
    n = seat.n_samples

    t0 = time.perf_counter()
    # Built here rather than passed in by full_assessment, since a caller's reference would keep
    # the seat spectra (95 MB at the bench length) alive through the inverse FFTs and SVC.
    rows = head_spectra(seat, bundle, seat_spectra(seat) if spectra is None else spectra)
    t1 = time.perf_counter()

    freqs = spectral.bin_frequencies(n, fs)

    def spectral_assess(regime: MetricRegime, curves) -> RegimeResult:
        per_axis = np.empty(len(AXES))

        def read_off(i: int) -> None:  # w * w * |H|^2 in one array; an overflow reaches combine
            with np.errstate(over="ignore", invalid="ignore"):
                weighted = curves[AXES[i]].at(freqs)
                np.multiply(weighted, weighted, out=weighted)
                power = np.abs(rows.view(np.complex128)[i])
                np.multiply(weighted, np.square(power, out=power), out=weighted)
                per_axis[i] = np.sqrt(spectral.spectrum_mean_square(weighted, n))

        traceio._on_every_cpu(read_off, len(AXES))
        return _regime_result(regime, dict(zip(AXES, per_axis.tolist())))

    # Both read-offs run on the head spectra before head_trace overwrites them with the signals.
    rc_result = spectral_assess(rc, rc_curves)
    t2 = time.perf_counter()
    ms_result = spectral_assess(ms, ms_curves)
    t3 = time.perf_counter()
    head = head_trace(seat, rows)
    t4 = time.perf_counter()

    msi = run_svc(head, svc_params) if include_svc else None
    t5 = time.perf_counter()

    if timings is not None:
        timings["transmit_s"] = (t1 - t0) + (t4 - t3)  # head spectra, then their inverse FFTs
        timings["rc_s"] = t2 - t1
        timings["ms_s"] = t3 - t2
        timings["svc_s"] = t5 - t4
        timings["total_s"] = t5 - t0

    return ComfortReport(
        model_id=bundle.model_id,
        rc=rc_result,
        ms=ms_result,
        msi=msi,
        duration_s=seat.duration_s,
        sample_rate_hz=fs,
        config_echo=_config_echo(rc, ms, svc_params if include_svc else None),
    )
