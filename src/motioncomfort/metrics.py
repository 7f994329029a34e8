"""Weighted-RMS comfort values per axis and their quadratic combination.

Per axis: weight the acceleration, take the RMS.  Per regime: combine the
six axis values as sqrt(sum k_i^2 v_i^2).  `full_assessment` runs the whole
pipeline (transmission, both regimes, sickness-incidence accumulation) and
assembles a report that echoes enough configuration to reproduce it.  It
takes a seat trace or its `seat_spectra`; the spectra are all it reads, and
it takes them over, so a caller that passes ``seat_spectra(trace)`` and keeps
no name for the trace frees the trace after its forward FFTs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import runtime, spectral
from .errors import ConfigError, DataError, NumericError
from .frf import AXES, FrfBundle
from .svc import MsiSeries, SvcParams, _incidence
from .traceio import _seconds
from .transmission import MotionTrace, SeatSpectra, _spectra_of, head_spectra, head_trace
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
    """Overall metric sqrt(sum_i k_i^2 v_i^2) over the six axes; NumericError if not finite.

    The error names the first axis at which the sum stops being finite, with its k and v: a
    non-finite v, or a (k * v)**2 that overflows or takes the sum past the largest float.
    """
    acc, culprit = 0.0, None
    for axis in AXES:
        try:
            v = float(per_axis[axis])
            k = float(k_factors[axis])
        except KeyError as exc:
            raise DataError(f"missing axis {exc} in per-axis values or k factors") from exc
        if v < 0.0 or k < 0.0:
            raise DataError(f"negative value for axis {axis}: v={v}, k={k}")
        try:
            acc += (k * v) ** 2
        except OverflowError:
            acc = float("inf")
        if culprit is None and not np.isfinite(acc):
            culprit = axis, k, v
    if culprit is not None:  # every assessment path checks its values here
        axis, k, v = culprit
        raise NumericError(f"non-finite sum of (k * v)**2 at axis {axis}, k={k!r}, v={v!r}")
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
    seat: MotionTrace | SeatSpectra,
    bundle: FrfBundle,
    *,
    rc: MetricRegime | None = None,
    ms: MetricRegime | None = None,
    svc_params: SvcParams | None = None,
    registry: Mapping[str, WeightingCurve] | None = None,
    include_svc: bool = True,
) -> ComfortReport:
    """Transmit seat motion to the head, then assess both regimes plus MSI.

    This is the batch path: the head spectra come from the spectral core in
    `transmission` (one forward FFT per seat channel, one inverse FFT per
    head axis), and the weighted RMS values are read off the head spectra
    (Parseval), which is arithmetically equivalent to weighting in the time
    domain followed by a time-domain RMS; each regime's read-off takes one
    task per axis on every usable CPU.  MSI runs on the head trace, which is
    built (six inverse FFTs) only when `include_svc` is set.
    Results match `transmit` + `assess` + `run_svc` to fp round-off.
    `seat` is a trace, or its `seat_spectra`, which this takes over: the head
    spectra and then the head signals overwrite them, and they are left
    read-only.  A trace is only read.  `report.compare` runs this once per
    model, each but the last on a copy of the seat spectra.  SVC runs beside
    the head signals alone: they go before the MSI's time column is made.
    """
    rc = rc if rc is not None else ride_comfort_regime()
    ms = ms if ms is not None else motion_sickness_regime()
    svc_params = svc_params if svc_params is not None else SvcParams()
    rc_curves = _resolve_curves(rc, registry)
    ms_curves = _resolve_curves(ms, registry)

    model = bundle.model_id  # named in each stage's log line
    with runtime.stage("head spectra", model=model):
        spectra = _spectra_of(seat)
        fs, n = spectra.sample_rate_hz, spectra.n_samples
        rows = head_spectra(spectra, bundle)
    freqs = spectral.bin_frequencies(n, fs)

    def spectral_assess(name: str, regime: MetricRegime, curves) -> RegimeResult:
        per_axis = np.empty(len(AXES))

        def read_off(i: int) -> None:  # w * w * |H|^2 in one array; an overflow reaches combine
            weighted, row = curves[AXES[i]].at(freqs), rows.view(np.complex128)[i]
            for lo in range(0, len(weighted), runtime.BLOCK):
                part = weighted[lo : lo + runtime.BLOCK]
                np.multiply(part, part, out=part)
                power = np.abs(row[lo : lo + runtime.BLOCK])
                np.multiply(part, np.square(power, out=power), out=part)
            per_axis[i] = np.sqrt(spectral.spectrum_mean_square(weighted, n))

        with runtime.stage(name, model=model):
            runtime.on_every_cpu(read_off, len(AXES))
        return _regime_result(regime, dict(zip(AXES, per_axis.tolist())))

    # Both read-offs run on the head spectra before head_trace overwrites them with the signals.
    rc_result = spectral_assess("RC", rc, rc_curves)
    ms_result = spectral_assess("MS", ms, ms_curves)
    del freqs  # the read-offs' bin frequencies, before the inverse FFTs
    if include_svc:  # only SVC reads the head trace
        with runtime.stage("inverse FFTs", model=model):
            head = head_trace(spectra, rows)  # it leaves the rows read-only
        with runtime.stage("SVC", model=model):  # all head signal names go before the time column
            msi = _incidence(head, svc_params)
            del seat, spectra, rows, head
            msi = MsiSeries(time_s=_seconds(n, fs), msi_percent=msi, _owned=True)
    else:
        rows.base.flags.writeable = False  # spent: they hold the head spectra
        msi = None

    return ComfortReport(
        model_id=bundle.model_id,
        rc=rc_result,
        ms=ms_result,
        msi=msi,
        duration_s=n / fs,
        sample_rate_hz=fs,
        config_echo=_config_echo(rc, ms, svc_params if include_svc else None),
    )
