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
exact length, `_summed_products` multiplies those spectra by the 14
tabulated responses and sums the products per head axis, and `head_motion`
inverts each sum once.  The whole pipeline is linear and deterministic.

All three stages run on every usable CPU (`traceio._on_every_cpu`): the
calling thread and one helper thread per further CPU take tasks in turn,
since pocketfft and numpy's array loops release the GIL.  The six forward
and the six inverse transforms are one task each and run alone at the exact
length; the task that inverts a head axis first takes its power |H|^2.  The
channel products are built in blocks of bins (`_BLOCK_BINS`), one task a
block.  In a block, each response is evaluated only on the bins strictly
inside its curve's tabulated band; the bins below and above it are filled
with the edge response the curve holds there.  Every step of a product works
bin by bin, so the output bits do not depend on the number of threads.

The trace type, `MotionTrace`, is defined in `traceio` and imported here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import spectral, traceio
from .frf import AXES, CHANNEL_IDS, FrfBundle, FrfChannelId, FrfCurve, evaluate_grid
from .traceio import MotionTrace

logger = logging.getLogger(__name__)

_BLOCK_BINS = 65536  # bins per task of the channel-product build


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
    """The exact-length real FFT of each seat channel, one transform per axis.

    The spectra are the rows of one (6, n // 2 + 1) array, each filled by one
    task on every usable CPU.
    """
    out = np.empty((len(AXES), seat.n_samples // 2 + 1), dtype=np.complex128)
    channels = [seat.channels[axis] for axis in AXES]

    def transform(i: int) -> None:
        out[i] = spectral.rfft(channels[i])

    traceio._on_every_cpu(transform, len(AXES))
    return dict(zip(AXES, out))


def _held_band(curve: FrfCurve, freqs: np.ndarray) -> tuple[int, int, complex, complex]:
    """(first, stop, below, above) of one curve on the ascending bin grid `freqs`.

    Bins [first, stop) lie strictly inside the tabulated band.  The curve
    holds its edge values outside it: bins before `first`, DC apart, take
    `below`, and bins from `stop` on take `above`.
    """
    f = curve.freq_hz
    # Above, not at, the upper edge: at 0 Hz (a one-point curve) the response is made real.
    below, above = evaluate_grid(curve, np.array([f[0], f[-1] + 1.0]))
    first, stop = np.searchsorted(freqs, f[0], "right"), np.searchsorted(freqs, f[-1], "left")
    return int(first), int(stop), below, above


def _block_response(curve: FrfCurve, band: tuple, freqs: np.ndarray, lo: int, hi: int):
    """The response on bins [lo, hi), at least 2 of them, given the curve's `_held_band`.

    `evaluate_grid` runs on the in-band bins and the held values fill the
    rest.  The DC bin is always evaluated, since its response is made real.
    An evaluated part is never a single bin: it takes in a held neighbour
    instead, as a guard, because numpy's complex loops can round a lone
    element differently (the in-place multiply does on AVX-512 builds).  The
    bits equal those of one `evaluate_grid` call on all bins.
    """
    first, stop, below, above = band
    start = 0 if lo == 0 else max(lo, first)
    end = max(start + (lo == 0), min(hi, stop))  # bin 0 (DC) is always evaluated
    if end - start == 1:
        start, end = (start, end + 1) if end < hi else (start - 1, end)
    if start == lo and end == hi:
        return evaluate_grid(curve, freqs[lo:hi])
    response = np.empty(hi - lo, dtype=np.complex128)
    response[: start - lo] = below
    if end > start:
        response[start - lo : end - lo] = evaluate_grid(curve, freqs[start:end])
    response[end - lo :] = above
    return response


def _summed_products(
    seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray], row_of: Sequence[int]
) -> np.ndarray:
    """Float rows whose n // 2 + 1 complex bins each hold a sum of channel products.

    Channel ``CHANNEL_IDS[j]``'s product (input spectrum times response, DC
    and Nyquist made real) goes to row ``row_of[j]``: copied if it is the
    row's first (adding it to zeros would turn -0.0 into +0.0), else added.
    The bins are cut into equal blocks of `_BLOCK_BINS` to 2 * `_BLOCK_BINS`
    (or one block of all), built on every usable CPU.  Each step works bin by
    bin, so the bits do not depend on the blocks as long as each holds at
    least 2 bins (numpy's in-place complex multiply rounds a lone bin
    differently).  A response is evaluated only inside its curve's tabulated
    band and filled with the held edge value outside it (`_block_response`).
    """
    n = seat.n_samples
    m = n // 2 + 1
    rows = np.empty((max(row_of) + 1, 2 * m))
    sums = rows.view(np.complex128)
    freqs = spectral.bin_frequencies(n, seat.sample_rate_hz)
    curves = [bundle.channels[cid] for cid in CHANNEL_IDS]
    bands = [_held_band(curve, freqs) for curve in curves]

    def build(lo: int, hi: int) -> None:
        filled = set()
        for cid, row, curve, band in zip(CHANNEL_IDS, row_of, curves, bands):
            response = _block_response(curve, band, freqs, lo, hi)
            if lo == 0:
                response[0] = response[0].real
            if hi == m and n % 2 == 0:
                response[-1] = response[-1].real
            # This operand order: the swapped one differs in the last bit on some CPUs.
            np.multiply(spectra[cid.input_axis][lo:hi], response, out=response)
            total = sums[row, lo:hi]
            if row in filled:
                np.add(total, response, out=total)
            else:
                np.copyto(total, response)
                filled.add(row)

    traceio._in_blocks(build, m, _BLOCK_BINS)
    return rows


def _inverted_rows(rows: np.ndarray, n: int, power: np.ndarray | None = None) -> np.ndarray:
    """Overwrite each row's spectrum with its length-n inverse FFT, on every usable CPU.

    With `power`, each row's task first sets ``power[i]`` to the spectrum's
    |H|^2.  Returns the (read-only) signals, views of `rows`.
    """
    spectra = rows.view(np.complex128)

    def invert(i: int) -> None:
        if power is not None:
            with np.errstate(over="ignore"):  # an overflow is reported by metrics.combine
                np.square(np.abs(spectra[i], out=power[i]), out=power[i])
        rows[i, :n] = spectral.irfft(spectra[i], n=n)

    traceio._on_every_cpu(invert, len(rows))
    rows.flags.writeable = False
    return rows[:, :n]


def _head_rows(seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray]):
    """The six head spectra as float rows (`_summed_products`), after the undersampling check."""
    _warn_if_undersampled(seat.sample_rate_hz, bundle.max_freq_hz, f"bundle {bundle.model_id}")
    return _summed_products(seat, bundle, spectra, [AXES.index(c.output_axis) for c in CHANNEL_IDS])


def head_motion(seat: MotionTrace, bundle: FrfBundle, spectra: Mapping[str, np.ndarray]):
    """(head trace, head power) for `seat`, given its `seat_spectra`.

    A head spectrum sums the channel products feeding that axis, and its
    power |H|^2 is all that RC and MS read of it.  One inverse FFT per head
    axis then gives the head trace; the task that inverts an axis computes
    its power first.  Each axis's spectrum and signal share one row of one
    array: the signal overwrites the spectrum it came from, and the head
    trace keeps those rows without copying.  The seat spectra are released
    once the sums are built, which frees them when the caller handed over its
    only reference.
    """
    rows = _head_rows(seat, bundle, spectra)
    del spectra
    power = np.empty((len(AXES), rows.shape[1] // 2))
    signals = _inverted_rows(rows, seat.n_samples, power)
    head = MotionTrace(seat.sample_rate_hz, dict(zip(AXES, signals)), "head", _owned=True)
    return head, dict(zip(AXES, power))


@dataclass(frozen=True)
class ContributionBreakdown:
    """Per head axis, the time-domain contribution of each feeding channel.

    `contributions` is computed on first access (one inverse FFT per channel)
    and then cached; its arrays are read-only.  Each axis's contributions sum
    to the head channel of `transmit` to floating-point round-off.
    """

    seat: MotionTrace
    bundle: FrfBundle

    @cached_property
    def contributions(self) -> Mapping[str, Mapping[FrfChannelId, np.ndarray]]:
        rows = _summed_products(
            self.seat, self.bundle, seat_spectra(self.seat), range(len(CHANNEL_IDS))
        )
        parts: dict[str, dict[FrfChannelId, np.ndarray]] = {axis: {} for axis in AXES}
        for cid, signal in zip(CHANNEL_IDS, _inverted_rows(rows, self.seat.n_samples)):
            parts[cid.output_axis][cid] = signal
        return MappingProxyType({axis: MappingProxyType(parts[axis]) for axis in AXES})

    def total(self, axis: str) -> np.ndarray:
        return sum(self.contributions[axis].values())


def transmit(seat: MotionTrace, bundle: FrfBundle) -> tuple[MotionTrace, ContributionBreakdown]:
    """Predict head motion from seat motion through one bundle.

    Returns the head trace (six forward and six inverse FFTs) and the
    per-channel breakdown, which costs nothing until `contributions` is read.
    """
    rows = _head_rows(seat, bundle, seat_spectra(seat))
    signals = _inverted_rows(rows, seat.n_samples)  # without the power, which only RC and MS read
    head = MotionTrace(seat.sample_rate_hz, dict(zip(AXES, signals)), "head", _owned=True)
    return head, ContributionBreakdown(seat=seat, bundle=bundle)
