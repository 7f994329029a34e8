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
exact length, `head_spectra` multiplies those spectra by the 14 tabulated
responses and sums the products per head axis, and `head_trace` inverts
each sum once, in place: each inverse FFT writes its signal into its own
row's memory, with no signal-sized temporary.  `seat_spectra` returns a `SeatSpectra`: the bins
with the trace's length and sample rate, which is all that the later stages
read, so a caller that hands it on without keeping the trace frees the trace
after its forward FFTs.  `load_seat_spectra` goes further: each channel's
spectrum overwrites the channel in the row that `traceio.load_trace` parsed
it into, so the trace, the seat spectra, the head spectra and the head
signals are one buffer in turn.  `head_spectra` takes the seat spectra over and
writes the head spectra over them, block by block of bins, so the two are
never held whole at once; `compare` hands every model but the last a copy of
the seat spectra.  `full_assessment` reads RC and MS off the head spectra between
the last two steps.  The whole pipeline is linear and deterministic.

All three stages run on every usable CPU (`runtime.on_every_cpu`): the
calling thread and one helper thread per further CPU take tasks in turn,
since pocketfft and numpy's array loops release the GIL.  The six forward
and the six inverse transforms are one task each and run alone at the exact
length.  The channel products are built in blocks of bins, one task a
block.  In a block, each response is evaluated only on the bins
strictly inside its curve's tabulated band; the bins below and above it are
filled with the edge response the curve holds there.  Every step of a
product works bin by bin, so the output bits do not depend on the number of
threads.

The trace type, `MotionTrace`, is defined in `traceio` and imported here.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import runtime, spectral, traceio
from .errors import DataError, NumericError
from .frf import AXES, CHANNEL_IDS, FrfBundle, FrfChannelId, FrfCurve, _naming, evaluate_grid
from .traceio import MotionTrace

logger = logging.getLogger(__name__)

_MIN_BLOCK_BINS = 4096  # a floor on the product build's blocks (for speed), not a block size


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


class SeatSpectra(NamedTuple):
    """The exact-length real FFTs of a seat trace's six channels, with its length and rate.

    Row i of `bins`, a complex (6, n_samples // 2 + 1) array, is axis
    ``AXES[i]``'s spectrum.  `head_spectra` writes the head spectra over it, and
    `full_assessment` takes it over: it writes the head spectra, and then the
    head signals, over `bins`, and leaves it read-only.  `compare` hands each
    model but the last a copy, ``_replace(bins=bins.copy())``, and the last
    model the spectra themselves.
    """

    bins: np.ndarray
    n_samples: int
    sample_rate_hz: float


def seat_spectra(seat: MotionTrace) -> SeatSpectra:
    """The exact-length real FFT of each seat channel, one transform per axis.

    Each row of the bins is filled in place by one task on every usable CPU.
    """
    bins = np.empty((len(AXES), seat.n_samples // 2 + 1), dtype=np.complex128)
    return _spectra_into(seat, bins)


def load_seat_spectra(path) -> SeatSpectra:
    """``seat_spectra(load_trace(path))``, bit for bit, with each channel's spectrum written over
    the channel itself.

    `traceio.load_trace` leaves each channel at the start of its own row of one writable
    array, with room for the channel's spectrum; the trace is held nowhere else, so each
    transform writes its spectrum over its own row.  From the CSV to the head signals of
    `full_assessment`, one trace-sized buffer is held.
    """
    seat = traceio.load_trace(path)
    rows = seat.channels[AXES[0]].base.view(np.complex128).reshape(len(AXES), -1)
    return _spectra_into(seat, rows[:, : seat.n_samples // 2 + 1])


def _spectra_into(seat: MotionTrace, bins: np.ndarray) -> SeatSpectra:
    """`seat_spectra` written to the complex (6, n // 2 + 1) rows `bins`, which may hold the
    channels themselves: `spectral.rfft` reads a signal whole before it writes its row."""
    channels = [seat.channels[axis] for axis in AXES]

    def transform(i: int) -> None:
        spectral.rfft(channels[i], out=bins[i])

    runtime.on_every_cpu(transform, len(AXES))
    return SeatSpectra(bins, seat.n_samples, seat.sample_rate_hz)


def _spectra_of(seat: MotionTrace | SeatSpectra) -> SeatSpectra:
    """`seat` if it is a `SeatSpectra` that no run has taken over yet, else its `seat_spectra`."""
    if not isinstance(seat, SeatSpectra):
        return seat_spectra(seat)
    bins, m = seat.bins, seat.n_samples // 2 + 1
    if bins.dtype != np.complex128 or bins.shape != (len(AXES), m) or not bins.flags.writeable:
        raise DataError(
            f"seat spectra must be the writable complex ({len(AXES)}, {m}) bins of seat_spectra; "
            "a run that took them over left them read-only"
        )
    return seat


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
    rest.  The DC bin is always evaluated, since `evaluate_grid` makes it real.
    The bits equal those of one `evaluate_grid` call on all bins.
    """
    first, stop, below, above = band
    start = 0 if lo == 0 else max(lo, first)
    end = max(start + (lo == 0), min(hi, stop))  # bin 0 (DC) is always evaluated
    if start == lo and end == hi:
        return evaluate_grid(curve, freqs[lo:hi])
    response = np.empty(hi - lo, dtype=np.complex128)
    response[: start - lo] = below
    response[start - lo : end - lo] = evaluate_grid(curve, freqs[start:end])
    response[end - lo :] = above
    return response


def _summed_products(
    spectra: SeatSpectra, bundle: FrfBundle, row_of: Sequence[int], out: np.ndarray
) -> np.ndarray:
    """Fill the complex rows `out` with sums of channel products; return them as float rows.

    Channel ``CHANNEL_IDS[j]``'s product (the `seat_spectra` row of its input
    axis times its response, DC and Nyquist made real) goes to row ``row_of[j]``:
    copied if it is the row's first (adding it to zeros would turn -0.0 into
    +0.0), else added.  Each block's sums are built in a temporary and copied
    over the block of `out` once all its products are taken, so `out` may be
    ``spectra.bins`` itself, as it is for `head_spectra`; the contribution
    breakdown passes rows of its own.  The bins are cut into equal blocks of
    `size` to 2 * `size` (or one block of all), built on every usable CPU, where
    `size` is the bins over 16 * cpus, held within [`_MIN_BLOCK_BINS`,
    `runtime.BLOCK`]: the live temporaries of all threads together are at most
    1/8 of `out` on any CPU count, or 2 * `_MIN_BLOCK_BINS` bins a thread where
    the floor holds.  Each step works bin by bin, so the bits do not depend on
    the blocks as long as each holds at least 2 bins (numpy's in-place complex
    multiply rounds a lone bin differently).  A response is evaluated only
    inside its curve's tabulated band and filled with the held edge value
    outside it (`_block_response`).
    """
    bins, n = spectra.bins, spectra.n_samples
    m = n // 2 + 1
    inputs = [AXES.index(cid.input_axis) for cid in CHANNEL_IDS]
    freqs = spectral.bin_frequencies(n, spectra.sample_rate_hz)
    curves = [bundle.channels[cid] for cid in CHANNEL_IDS]
    bands = [_held_band(curve, freqs) for curve in curves]
    size = min(runtime.BLOCK, max(_MIN_BLOCK_BINS, m // (16 * runtime.usable_cpus())))
    count = max(1, m // size)

    def build(i: int) -> None:
        lo, hi = m * i // count, m * (i + 1) // count
        sums = np.empty((len(out), hi - lo), np.complex128)
        filled = set()
        for k, row, curve, band in zip(inputs, row_of, curves, bands):
            response = _block_response(curve, band, freqs, lo, hi)
            if hi == m and n % 2 == 0:  # the RC and MS read-offs would read its imaginary part
                response[-1] = response[-1].real
            # This operand order: the swapped one differs in the last bit on some CPUs.
            np.multiply(bins[k, lo:hi], response, out=response)
            if row in filled:
                np.add(sums[row], response, out=sums[row])
            else:
                np.copyto(sums[row], response)
                filled.add(row)
        out[:, lo:hi] = sums

    runtime.on_every_cpu(build, count)
    return out.view(np.float64)


def _inverted_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Overwrite each row's spectrum with its length-n inverse FFT, on every usable CPU.

    Each transform writes its signal straight into the row's own float memory
    (`spectral.irfft`'s `out=`).  Returns the signals, views of `rows`; `rows`
    and the array that owns its memory are made read-only.
    """
    spectra = rows.view(np.complex128)

    def invert(i: int) -> None:
        spectral.irfft(spectra[i], n, out=rows[i, :n])

    runtime.on_every_cpu(invert, len(rows))
    for array in (rows, rows.base):
        array.flags.writeable = False
    return rows[:, :n]


def head_spectra(spectra: SeatSpectra, bundle: FrfBundle) -> np.ndarray:
    """The six head spectra of a seat, written over its `seat_spectra`, after the undersampling
    check.

    Takes `spectra` over: its bins hold the head spectra on return.  Row i of
    the float result, a view of the bins, holds axis ``AXES[i]``'s n // 2 + 1
    complex bins (``rows.view(np.complex128)[i]``): the sum of the channel
    products feeding it, with room for the signal that `head_trace` writes
    over it.
    """
    _warn_if_undersampled(spectra.sample_rate_hz, bundle.max_freq_hz, f"bundle {bundle.model_id}")
    row_of = [AXES.index(c.output_axis) for c in CHANNEL_IDS]
    return _summed_products(spectra, bundle, row_of, spectra.bins)


def head_trace(spectra: SeatSpectra, rows: np.ndarray) -> MotionTrace:
    """The head trace from the `head_spectra` rows of the seat `spectra`: one inverse FFT per
    head axis, at the seat's length and sample rate.

    Each axis's signal overwrites the spectrum it came from, and the trace
    keeps those rows (now read-only) without copying.
    """
    signals = _inverted_rows(rows, spectra.n_samples)
    with _naming("head trace", NumericError):  # a finite seat whose head overflows
        return MotionTrace(spectra.sample_rate_hz, dict(zip(AXES, signals)), "head", _owned=True)


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
        spectra = seat_spectra(self.seat)
        n = spectra.n_samples
        products = np.empty((len(CHANNEL_IDS), n // 2 + 1), np.complex128)
        rows = _summed_products(spectra, self.bundle, range(len(CHANNEL_IDS)), products)
        del spectra  # before the inverse FFTs
        parts: dict[str, dict[FrfChannelId, np.ndarray]] = {axis: {} for axis in AXES}
        for cid, signal in zip(CHANNEL_IDS, _inverted_rows(rows, n)):
            parts[cid.output_axis][cid] = signal
        return MappingProxyType({axis: MappingProxyType(parts[axis]) for axis in AXES})

    def total(self, axis: str) -> np.ndarray:
        return sum(self.contributions[axis].values())


def transmit(seat: MotionTrace, bundle: FrfBundle) -> tuple[MotionTrace, ContributionBreakdown]:
    """Predict head motion from seat motion through one bundle.

    Returns the head trace (six forward and six inverse FFTs) and the
    per-channel breakdown, which costs nothing until `contributions` is read.
    """
    spectra = seat_spectra(seat)
    head = head_trace(spectra, head_spectra(spectra, bundle))
    return head, ContributionBreakdown(seat=seat, bundle=bundle)
