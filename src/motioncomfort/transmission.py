"""Seat-to-head transmission of 6-DOF acceleration traces.

Each head channel is the sum of the bundle channels feeding it:

    x_h     = (x->x)         + (pitch->x)
    y_h     = (y->y)         + (roll->y)
    z_h     = (z->z)         + (pitch->z)
    roll_h  = (roll->roll)   + (y->roll)
    pitch_h = (pitch->pitch) + (z->pitch) + (x->pitch)
    yaw_h   = (yaw->yaw)     + (y->yaw)   + (roll->yaw)

One spectral core serves `transmit`, `metrics.full_assessment` and
`report.compare`: `seat_spectra` transforms each seat channel once at the
exact length, `_channel_products` multiplies those spectra by the 14
tabulated responses, and `head_motion` sums the products per head axis and
inverts each sum once.  The whole pipeline is linear and deterministic.

The trace type, `MotionTrace`, is defined in `traceio` and imported here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from . import spectral
from .frf import AXES, CHANNEL_IDS, FrfBundle, FrfChannelId, FrfCurve, evaluate_grid
from .traceio import MotionTrace, _Owned

logger = logging.getLogger(__name__)


def _warn_if_undersampled(sample_rate_hz: float, max_tabulated_hz: float, what: str) -> None:
    # Guard: the trace should resolve the full tabulated band, fs > 2*f_max.
    if max_tabulated_hz > 0.0 and sample_rate_hz <= 2.0 * max_tabulated_hz:
        logger.warning(
            "sample rate %g Hz does not exceed twice the tabulated band edge %g Hz of %s; "
            "the response above Nyquist cannot be represented",
            sample_rate_hz,
            max_tabulated_hz,
            what,
        )


def fft_apply(signal, curve: FrfCurve, sample_rate_hz: float) -> np.ndarray:
    """Apply one tabulated response to one signal, returning a real array.

    output = irfft(evaluate(curve, f_k) * rfft(signal)), f_k = k*fs/n.
    """
    _warn_if_undersampled(float(sample_rate_hz), curve.max_freq_hz, "curve")
    return spectral.apply_response(
        signal, sample_rate_hz, lambda freqs: evaluate_grid(curve, freqs)
    )


def seat_spectra(seat: MotionTrace) -> dict[str, np.ndarray]:
    """The exact-length real FFT of each seat channel, one transform per axis."""
    return {axis: spectral.rfft(seat.channels[axis]) for axis in AXES}


def _channel_products(seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray]):
    """Yield (channel id, input spectrum * channel response), a fresh array, in CHANNEL_IDS order."""
    n = seat.n_samples
    freqs = spectral.bin_frequencies(n, seat.sample_rate_hz)
    for cid in CHANNEL_IDS:
        response = spectral.force_real_endpoints(evaluate_grid(bundle.channels[cid], freqs), n)
        yield cid, np.multiply(spectra[cid.input_axis], response, out=response)


def head_motion(seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray]):
    """(head trace, head spectra) for `seat`, given its `seat_spectra`.

    A head spectrum sums the channel products feeding that axis; one inverse
    FFT per head axis gives the head trace, which keeps the inverse FFT output
    without copying it.
    """
    _warn_if_undersampled(seat.sample_rate_hz, bundle.max_freq_hz, f"bundle {bundle.model_id}")
    head_spectra = dict.fromkeys(AXES)
    for cid, part in _channel_products(seat, bundle, spectra):
        prev = head_spectra[cid.output_axis]
        # Products are fresh arrays, so each axis sums into its first product in place.
        head_spectra[cid.output_axis] = part if prev is None else np.add(prev, part, out=prev)
    n = seat.n_samples
    channels = {axis: spectral.irfft(head_spectra[axis], n=n) for axis in AXES}
    return MotionTrace(seat.sample_rate_hz, _Owned(channels), "head"), head_spectra


@dataclass(frozen=True)
class ContributionBreakdown:
    """Per head axis, the time-domain contribution of each feeding channel.

    `contributions` is computed on first access (one inverse FFT per channel)
    and then cached.  Each axis's contributions sum to the head channel of
    `transmit` to floating-point round-off.
    """

    seat: MotionTrace
    bundle: FrfBundle

    @cached_property
    def contributions(self) -> Mapping[str, Mapping[FrfChannelId, np.ndarray]]:
        parts: dict[str, dict[FrfChannelId, np.ndarray]] = {axis: {} for axis in AXES}
        products = _channel_products(self.seat, self.bundle, seat_spectra(self.seat))
        for cid, product in products:
            parts[cid.output_axis][cid] = spectral.irfft(product, n=self.seat.n_samples)
        return MappingProxyType({axis: MappingProxyType(parts[axis]) for axis in AXES})

    def total(self, axis: str) -> np.ndarray:
        return sum(self.contributions[axis].values())


def transmit(seat: MotionTrace, bundle: FrfBundle) -> tuple[MotionTrace, ContributionBreakdown]:
    """Predict head motion from seat motion through one bundle.

    Returns the head trace (six forward and six inverse FFTs) and the
    per-channel breakdown, which costs nothing until `contributions` is read.
    """
    head, _ = head_motion(seat, bundle, seat_spectra(seat))
    return head, ContributionBreakdown(seat=seat, bundle=bundle)
