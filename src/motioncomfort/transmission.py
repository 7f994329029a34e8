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

The six forward and the six inverse transforms each run on every usable CPU
(`_fill_rows`): the calling thread and one helper thread per further CPU take
rows in turn, since pocketfft releases the GIL.  Each transform runs alone at
the exact length, so the output bits do not depend on the number of threads.

The trace type, `MotionTrace`, is defined in `traceio` and imported here.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

from . import spectral, traceio
from .frf import AXES, CHANNEL_IDS, FrfBundle, FrfChannelId, FrfCurve, evaluate_grid
from .traceio import MotionTrace

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


def _fill_rows(out: np.ndarray, transform: Callable, inputs: Sequence) -> None:
    """Set ``out[i] = transform(inputs[i])`` for every row, on every usable CPU.

    The calling thread takes rows 0, k, 2k, ... and each of the k - 1 helper
    threads the rows after it.  Each result is copied into `out`, which the
    caller allocated, and dropped at once, so no thread keeps an array of its
    own.  Every thread is joined before this returns, and the first exception
    raised in any row is raised here.
    """
    k = min(traceio._usable_cpus(), len(inputs))
    errors: list[BaseException] = []

    def run(first: int) -> None:
        try:
            for i in range(first, len(inputs), k):
                out[i] = transform(inputs[i])
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


def seat_spectra(seat: MotionTrace) -> dict[str, np.ndarray]:
    """The exact-length real FFT of each seat channel, one transform per axis.

    The spectra are the rows of one (6, n // 2 + 1) array.
    """
    out = np.empty((len(AXES), seat.n_samples // 2 + 1), dtype=np.complex128)
    _fill_rows(out, spectral.rfft, [seat.channels[axis] for axis in AXES])
    return dict(zip(AXES, out))


def _channel_products(seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray]):
    """Yield (channel id, input spectrum * channel response), a fresh array, in CHANNEL_IDS order."""
    n = seat.n_samples
    freqs = spectral.bin_frequencies(n, seat.sample_rate_hz)
    for cid in CHANNEL_IDS:
        response = spectral.force_real_endpoints(evaluate_grid(bundle.channels[cid], freqs), n)
        yield cid, np.multiply(spectra[cid.input_axis], response, out=response)


def head_motion(seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray]):
    """(head trace, head power) for `seat`, given its `seat_spectra`.

    A head spectrum sums the channel products feeding that axis, and its
    power |H|^2 is all that RC and MS read of it.  One inverse FFT per head
    axis then gives the head trace.  Each axis's spectrum and signal share
    one row of one array: the signal overwrites the spectrum it came from,
    and the head trace keeps those rows without copying.  The seat spectra
    are released once the sums are built, which frees them when the caller
    handed over its only reference.
    """
    _warn_if_undersampled(seat.sample_rate_hz, bundle.max_freq_hz, f"bundle {bundle.model_id}")
    n = seat.n_samples
    rows = np.empty((len(AXES), 2 * (n // 2 + 1)))  # n doubles, or n // 2 + 1 complex
    head_spectra = rows.view(np.complex128)
    summed = set()
    for cid, part in _channel_products(seat, bundle, spectra):
        total = head_spectra[AXES.index(cid.output_axis)]
        if cid.output_axis in summed:
            np.add(total, part, out=total)
        else:  # copied, not added to zeros, which would turn -0.0 into +0.0
            np.copyto(total, part)
            summed.add(cid.output_axis)
    del spectra
    with np.errstate(over="ignore"):  # an overflow is reported by metrics.combine
        power = {axis: np.abs(total) ** 2 for axis, total in zip(AXES, head_spectra)}
    signals = rows[:, :n]
    _fill_rows(signals, lambda total: spectral.irfft(total, n=n), head_spectra)
    rows.flags.writeable = False
    return MotionTrace(seat.sample_rate_hz, dict(zip(AXES, signals)), "head", _owned=True), power


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
