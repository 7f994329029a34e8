"""FFT-domain application of tabulated responses to sampled signals.

Transforms run at the exact signal length (no windowing, no zero padding),
which gives circular-convolution semantics over the full record and keeps
bin-aligned sinusoids exact for any length, primes included.  All spectral
arithmetic is double precision.

`rfft` and `irfft` split a length n = a * p of at least `_MIN_SPLIT_LENGTH`
samples whose largest prime factor p is at least `_MIN_SPLIT_PRIME`, occurs
once and leaves a >= 3: the exact length-n DFT is then a (p, a)
two-dimensional DFT under the Good-Thomas prime-factor index maps, with no
twiddle factors and no padding, where pocketfft would run a generic radix-p
pass (p^2 <= n) or a Bluestein transform of the whole length.  The length
stays exact; the results differ from pocketfft's in the last bits only, and
are the same on every run and thread.  A split transform holds one complex
(p, a // 2 + 1) plane, transformed in place by rows and by columns with the
bits of scipy's `rfft2` or `irfft2`.  `rfft` at every other length, and
`apply_response` (the time-domain oracle's path), run pocketfft as scipy.fft
does; `irfft` there runs the same pocketfft pass in place, as scipy.fftpack
does, with scipy.fft's bits.  Every transform, split or not, that is given a
row as `out=` writes its result straight into it.  pocketfft is loaded from
its file (`runtime.scipy_kernel`; importing `scipy.fft` costs 0.2 s a process)
and called as scipy.fft and scipy.fftpack call it.  The index tables of the
last split length (9 bytes a sample) are kept on purpose after the run that
built them, so that `report.compare`'s models and the contribution breakdown
reuse them.
"""

from __future__ import annotations

import functools
import threading
from typing import NamedTuple

import numpy as np

from . import runtime
from .errors import DataError

_MIN_SPLIT_LENGTH = 65536  # shorter transforms gain too little to pay for the index tables
_MIN_SPLIT_PRIME = 300  # below it the split's inverse is slower at some lengths near 2e6
_GATHER_BINS = 65536  # a split rfft gathers its bins from the plane in chunks of this many
_ROW_SAMPLES = 65536  # a split transform's row passes take blocks of about this many samples


def _transforms_exactly(fft) -> bool:
    x, bins, a = np.array([1.0, 2.0, 4.0, 8.0]), np.array([15, -3 + 6j, -5]), (-1,)
    got = [fft.r2c(x, a, True, 0, None, 1), fft.c2c(x + 0j, a, True, 0, None, 1)[:3],
           fft.c2r(bins, a, 4, False, 2, None, 1), fft.r2r_fftpack(x, a, True, True, 0, None, 1)]
    return [g.tolist() for g in got] == [bins.tolist()] * 2 + [x.tolist(), [15, -3, 6, -5]]


_pocketfft = runtime.scipy_kernel("scipy.fft._pocketfft.pypocketfft", "fft/_pocketfft/pypocketfft",
                                  _transforms_exactly)


def bin_frequencies(n: int, sample_rate_hz: float) -> np.ndarray:
    return np.arange(n // 2 + 1) * (1.0 / (n * (1.0 / float(sample_rate_hz))))  # numpy's rfftfreq


def apply_response(signal, sample_rate_hz: float, response_at) -> np.ndarray:
    """real-FFT -> multiply by response_at(bin frequencies) -> inverse real-FFT.

    `response_at` maps an array of frequencies (Hz) to a complex or real
    response array of the same shape.  The imaginary part of a complex
    response at DC and, for even n, at Nyquist is dropped: a real signal only
    has cosine content in those bins.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DataError("signal must be a 1-D array with at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise DataError("signal contains non-finite samples")
    n = x.size
    spectrum = _pocketfft.r2c(x, (-1,), True, 0, None, 1)
    response = np.asarray(response_at(bin_frequencies(n, sample_rate_hz)))
    if np.iscomplexobj(response):
        response = response.copy()  # not the caller's array
        response[0] = response[0].real
        if n % 2 == 0:
            response[-1] = response[-1].real
    spectrum *= response
    return _pocketfft.c2r(spectrum, (-1,), n, False, 2, None, 1)


@functools.lru_cache(maxsize=64)
def _split(n: int) -> tuple[int, int] | None:
    """(a, p) with n = a * p for a length that is split, else None.

    At a = 1 or 2 the split runs the same Bluestein work as the whole length, and gains nothing.
    """
    if n < _MIN_SPLIT_LENGTH:
        return None
    rest, p, d = n, 1, 2
    while d * d <= rest:
        while rest % d == 0:
            rest, p = rest // d, d
        d += 1 + (d > 2)
    p = max(p, rest)
    if p < _MIN_SPLIT_PRIME or n // p < 3 or (n // p) % p == 0:
        return None
    return n // p, p


class _Plan(NamedTuple):
    """The index maps of one split length n = a * p, on a (p, a) grid with q = a // 2 + 1.

    `samples` holds sample (p * i1 + a * i2) mod n at [i2, i1].  Bin k of the
    half spectrum is flat entry `bins[k]` of the (p, q) rfft2 output,
    conjugated where `bins_conj` is set; entry [k2, k1] of that half-plane is
    bin `plane[k2, k1]` of the half spectrum, conjugated where `plane_conj`.
    """

    a: int
    p: int
    samples: np.ndarray
    bins: np.ndarray
    bins_conj: np.ndarray
    plane: np.ndarray
    plane_conj: np.ndarray


def _make_plan(a: int, p: int) -> _Plan:
    """The index maps of n = a * p, built in place: each sum of two terms below n is below 2n."""
    n = a * p
    index = np.int32 if 2 * n <= np.iinfo(np.int32).max else np.intp
    q = a // 2 + 1

    def outer_mod_n(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        table = np.add.outer(rows.astype(index), cols.astype(index))
        np.subtract(table, n, out=table, where=table >= n)
        return table

    samples = outer_mod_n(np.arange(p) * a, np.arange(a) * p)
    k1 = np.arange(n // 2 + 1, dtype=index) % a
    bins = np.arange(n // 2 + 1, dtype=index) % p  # k2, then the flat index
    bins_conj = k1 > a // 2  # bin k is the conjugate of the mirrored entry [-k2, a - k1]
    np.subtract(a, k1, out=k1, where=bins_conj)
    np.subtract(p, bins, out=bins, where=bins_conj & (bins > 0))
    bins *= q
    bins += k1
    # Chinese remainder theorem: entry [k2, k1] is bin k with k mod p = k2 and k mod a = k1.
    crt_p, crt_a = a * pow(a, -1, p), p * pow(p, -1, a)
    plane = outer_mod_n(np.arange(p) * crt_p % n, np.arange(q) * crt_a % n)
    plane_conj = plane > n // 2
    np.subtract(n, plane, out=plane, where=plane_conj)
    return _Plan(a, p, samples, bins, bins_conj, plane, plane_conj)


_plan_lock = threading.Lock()
_plan: _Plan | None = None


def _plan_of(a: int, p: int) -> _Plan:
    """The plan of a * p, built once under a lock (transforms run on every CPU); one is kept."""
    global _plan
    with _plan_lock:
        if _plan is None or (_plan.a, _plan.p) != (a, p):
            _plan = None  # frees the old tables before the new ones are built
            _plan = _make_plan(a, p)
        return _plan


def rfft(signal: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The n // 2 + 1 bins of the real FFT of `signal`, as scipy.fft.rfft gives them.

    They are written to the complex row `out` if one is given, by pocketfft itself at a
    length that is not split.  A split length runs FFTPACK's real pass in place over its
    plane's rows, block by block, then an FFT along p, and gathers the bins into `out` in
    chunks of `_GATHER_BINS`, with no spectrum-sized temporary.  `out` may be the signal's
    own memory (its row, with room for the bins): the signal is read whole, into a split
    length's plane or pocketfft's line buffer, before any bin is written.
    """
    x = np.asarray(signal, np.float64)
    split = _split(n := len(x))
    if split is None:
        return _pocketfft.r2c(x, (-1,), True, 0, out, 1)
    plan = _plan_of(*split)
    a, step = plan.a, max(1, _ROW_SAMPLES // plan.a)
    plane = np.empty((plan.p, a // 2 + 1), np.complex128)
    # Rows start one float in: FFTPACK's Re 0, Re 1, Im 1, ... is then complex layout but Re 0.
    for lo in range(0, plan.p, step):
        block, rows = plane.view(np.float64)[lo : lo + step], plan.samples[lo : lo + step]
        np.take(x, rows, out=block[:, 1 : a + 1], mode="clip")  # "raise" would buffer `out`
        _pocketfft.r2r_fftpack(block[:, 1 : a + 1], (-1,), True, True, 0, block[:, 1 : a + 1], 1)
        block[:, 0] = block[:, 1]
        block[:, 1 : a + 2 : a] = 0.0  # Im 0 and, for even a, Im a / 2 (odd a ends at Im 0)
    flat = _pocketfft.c2c(plane, (0,), True, 0, plane, 1).ravel()
    out = np.empty(n // 2 + 1, np.complex128) if out is None else out
    for lo in range(0, len(out), _GATHER_BINS):
        chunk = slice(lo, lo + _GATHER_BINS)
        part = out[chunk]
        part[:] = flat[plan.bins[chunk]]
        np.negative(part.imag, out=part.imag, where=plan.bins_conj[chunk])
    return out


def irfft(spectrum: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The length-n real inverse FFT of `spectrum`, as scipy.fft.irfft(spectrum, n=n).

    It is written to the float row `out` of n samples if one is given, which
    may be the first n floats of the complex `spectrum`'s own memory: the
    spectrum is then inverted in place.  A length that is not split, or a
    spectrum cut or padded with zeros to n // 2 + 1 bins (as scipy.fft does),
    shifts the bins down one float, into FFTPACK's half-complex order (Re 0,
    Re 1, Im 1, ...), and runs pocketfft's backward pass over them in place,
    the pass that scipy.fft.irfft runs on a copy.  A split length runs an
    inverse FFT along p over its plane in place, then scatters the real inverse
    of each block of rows straight into the row.
    """
    spectrum = spectrum if len(spectrum) else np.zeros(1)  # scipy.fft pads an empty one too
    split = _split(n) if len(spectrum) == n // 2 + 1 else None
    if split is None:
        floats = np.ascontiguousarray(spectrum, np.complex128).view(np.float64)
        out = np.empty(n) if out is None else out
        out[0] = floats[0]  # irfft reads only the real part of DC and, for even n, of Nyquist
        out[1 : len(floats) - 1] = floats[2 : n + 1]
        out[len(floats) - 1 :] = 0.0  # the bins that a short spectrum lacks
        return _pocketfft.r2r_fftpack(out, (-1,), False, False, 2, out, 1)
    plan = _plan_of(*split)
    plane = np.asarray(spectrum, np.complex128)[plan.plane]
    np.negative(plane.imag, out=plane.imag, where=plan.plane_conj)
    # irfft reads only the real part of DC and, for even n, of Nyquist (at [0, a / 2]).
    plane[0, 0] = plane[0, 0].real
    if n % 2 == 0:
        plane[0, -1] = plane[0, -1].real
    _pocketfft.c2c(plane, (0,), False, 0, plane, 1)  # scipy.fft.ifft's norm="forward"
    out = np.empty(n) if out is None else out
    scale = float(1 / np.longdouble(n))  # irfft2's factor: pocketfft takes 1 / n in long double
    step = max(1, _ROW_SAMPLES // plan.a)
    for lo in range(0, plan.p, step):
        values = _pocketfft.c2r(plane[lo : lo + step], (1,), plan.a, False, 0, None, 1)
        out[plan.samples[lo : lo + step]] = values * scale
    return out


def spectrum_mean_square(weighted_power: np.ndarray, n: int) -> float:
    """Mean square of a real length-n signal from its one-sided power spectrum.

    `weighted_power` holds |X_k|^2 (optionally scaled by a squared real
    weighting) for the rfft bins of the signal.  Interior bins count twice
    (Parseval for the one-sided layout); DC and, for even n, Nyquist count
    once.
    """
    acc = 2.0 * float(np.sum(weighted_power))
    acc -= float(weighted_power[0])
    if n % 2 == 0:
        acc -= float(weighted_power[-1])
    return acc / (float(n) * float(n))
