"""FFT-domain application of tabulated responses to sampled signals.

Transforms run at the exact signal length (no windowing, no zero padding),
which gives circular-convolution semantics over the full record and keeps
bin-aligned sinusoids exact for any length, primes included.  All spectral
arithmetic is double precision.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

from .errors import DataError


def bin_frequencies(n: int, sample_rate_hz: float) -> np.ndarray:
    return _fft.rfftfreq(n, d=1.0 / float(sample_rate_hz))


def force_real_endpoints(response: np.ndarray, n: int) -> np.ndarray:
    """Zero the imaginary part of the DC bin and, for even n, the Nyquist bin.

    A real signal only has cosine content in those bins, so any imaginary
    response component there is unrepresentable.
    """
    if not np.iscomplexobj(response):
        return response
    out = np.array(response, copy=True)
    out[0] = out[0].real
    if n % 2 == 0:
        out[-1] = out[-1].real
    return out


def apply_response(signal, sample_rate_hz: float, response_at) -> np.ndarray:
    """real-FFT -> multiply by response_at(bin frequencies) -> inverse real-FFT.

    `response_at` maps an array of frequencies (Hz) to a complex or real
    response array of the same shape.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise DataError("signal must be a 1-D array with at least 2 samples")
    if not np.all(np.isfinite(x)):
        raise DataError("signal contains non-finite samples")
    n = x.size
    spectrum = _fft.rfft(x)
    response = np.asarray(response_at(bin_frequencies(n, sample_rate_hz)))
    spectrum *= force_real_endpoints(response, n)
    return _fft.irfft(spectrum, n=n)


def rfft(signal: np.ndarray) -> np.ndarray:
    return _fft.rfft(signal)


def irfft(spectrum: np.ndarray, n: int) -> np.ndarray:
    return _fft.irfft(spectrum, n=n)


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
