"""The prime-factor split of `spectral.rfft` and `spectral.irfft` against scipy.fft."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft

from motioncomfort import (
    AXES,
    MODEL_IDS,
    assess,
    builtin_bundle,
    full_assessment,
    identity_bundle,
    motion_sickness_regime,
    ride_comfort_regime,
    transmit,
)
from motioncomfort import runtime, spectral
from motioncomfort.transmission import head_spectra, head_trace, seat_spectra
from conftest import random_trace, rel_err
from test_transmission import _reference_sums

_SPLIT_PRIMES = (307, 683, 1009, 6007, 65537)


def _largest_prime_factor(n: int) -> int:
    d = 2
    while d * d <= n:
        n, d = (n // d, d) if n % d == 0 else (n, d + 1)
    return n


@st.composite
def split_lengths(draw) -> tuple[int, int, int]:
    """(n, a, p): n = a * p from 65,536 to about 300,000, p one of `_SPLIT_PRIMES` and larger
    than every prime factor of a, so p is n's largest prime factor and occurs once."""
    p = draw(st.sampled_from(_SPLIT_PRIMES))
    a = draw(st.integers(max(3, -(-65536 // p)), 300_000 // p))
    if a % 2 != draw(st.integers(0, 1)) and a + 1 <= 300_000 // p:
        a += 1  # even and odd a alike
    if _largest_prime_factor(a) >= p:
        a = next(b for b in range(a, 0, -1) if b >= 3 and _largest_prime_factor(b) < p)
    return a * p, a, p


def _rfft2_split(x: np.ndarray) -> np.ndarray:
    """A split length's half spectrum as first written: scipy's rfft2 of the whole gathered
    (p, a) plane, then its bins gathered at once."""
    plan = spectral._plan_of(*spectral._split(len(x)))
    spectrum = scipy_fft.rfft2(x[plan.samples]).ravel()[plan.bins]
    np.negative(spectrum.imag, out=spectrum.imag, where=plan.bins_conj)
    return spectrum


def _irfft2_split(spectrum: np.ndarray, n: int) -> np.ndarray:
    """A split length's signal as first written: scipy's irfft2 of the whole gathered plane."""
    plan = spectral._plan_of(*spectral._split(n))
    plane = spectrum[plan.plane]
    np.negative(plane.imag, out=plane.imag, where=plan.plane_conj)
    plane[0, 0] = plane[0, 0].real
    if n % 2 == 0:
        plane[0, -1] = plane[0, -1].real
    signal = np.empty(n)
    signal[plan.samples] = scipy_fft.irfft2(plane, s=(plan.p, plan.a))
    return signal


def test_which_lengths_are_split():
    assert spectral._split(1_980_700) == (2900, 683)  # 2^2 * 5^2 * 29 * 683
    assert spectral._split(100 * 683) == (100, 683)
    assert spectral._split(3 * 65537) == (3, 65537)
    assert spectral._split(96 * 683) == (96, 683)  # 65,568 samples
    for n in (
        2**7 * 5**6,  # the compare-models length: smooth
        90 * 683,  # below 65,536
        683 * 683 * 2,  # the largest prime factor occurs twice
        2 * 65537,  # a = 2
        65537,  # a prime
        1_999_725,  # 6825 * 293: the largest prime factor is below the crossover
        1366,
        6007,
    ):
        assert spectral._split(n) is None, n


@settings(max_examples=25, deadline=None)
@given(length=split_lengths(), seed=st.integers(0, 2**32 - 1))
@example(length=(100 * 683, 100, 683), seed=0)
@example(length=(99 * 683, 99, 683), seed=1)
@example(length=(3 * 65537, 3, 65537), seed=2)
@example(length=(4 * 65537, 4, 65537), seed=3)
def test_split_transforms_match_scipy(length, seed):
    n, a, p = length
    assert spectral._split(n) == (a, p)
    x = np.random.default_rng(seed).standard_normal(n)
    want = scipy_fft.rfft(x)
    got = spectral.rfft(x)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    back = spectral.irfft(got, n)
    assert back.shape == (n,) and back.dtype == np.float64
    assert np.max(np.abs(back - x)) <= 1e-12 * np.max(np.abs(x))

    # irfft reads only the real part of DC and, for even n, of Nyquist, as scipy's does.
    endpoints = want.copy()
    endpoints[0] += 3.5j
    endpoints[-1] += -2.25j
    if n % 2 == 0:
        assert np.array_equal(spectral.irfft(endpoints, n), spectral.irfft(want, n))
        assert np.array_equal(scipy_fft.irfft(endpoints, n=n), scipy_fft.irfft(want, n=n))
    else:  # the last bin is an ordinary one: its imaginary part counts
        assert not np.array_equal(spectral.irfft(endpoints, n), spectral.irfft(want, n))
    assert np.max(np.abs(spectral.irfft(endpoints, n) - scipy_fft.irfft(endpoints, n=n))) <= (
        1e-12 * np.max(np.abs(x))
    )


@settings(max_examples=20, deadline=None)
@given(length=split_lengths(), seed=st.integers(0, 2**32 - 1))
@example(length=(100 * 683, 100, 683), seed=0)  # even a
@example(length=(101 * 683, 101, 683), seed=1)  # odd a and n
@example(length=(3 * 65537, 3, 65537), seed=2)  # a = 3
@example(length=(144 * 683, 144, 683), seed=3)  # 1.0 / n is not 1 / n in long double
def test_split_transforms_keep_the_bits_of_rfft2_and_irfft2(length, seed):
    # The row passes run block by block over one plane; the bits are those of scipy's
    # two-dimensional transforms of the whole plane, also into the signal's own row.
    n, a, p = length
    assert spectral._split(n) == (a, p)
    rows = np.full((3, n // 2 + 1), np.nan, np.complex128)
    row, x = rows[1], rows.view(np.float64)[1, :n]
    x[:] = np.random.default_rng(seed).standard_normal(n)
    want = _rfft2_split(x)
    assert spectral.rfft(x).tobytes() == want.tobytes()
    assert spectral.rfft(x, out=row) is row  # load_seat_spectra's layout
    assert row.tobytes() == want.tobytes()
    # Non-zero imaginary parts at DC and, for even n, Nyquist, which both ignore.
    spectrum = want * (1.0 + 0.5j) + 0.25j
    signal = _irfft2_split(spectrum, n)
    assert spectral.irfft(spectrum, n).tobytes() == signal.tobytes()
    row[:] = spectrum
    assert spectral.irfft(row, n, out=x) is x  # head_trace's layout
    assert x.tobytes() == signal.tobytes()
    assert np.isnan(rows[[0, 2]]).all()


@settings(max_examples=25, deadline=None)
@given(
    n=st.one_of(
        st.integers(2, 70_000),
        st.sampled_from([65537, 2 * 65537, 683 * 683 * 2, 1366, 6007, 6825 * 293, 2**7 * 5**6]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_lengths_that_are_not_split_give_scipys_bits(n, seed):
    if spectral._split(n) is not None:
        return
    x = np.random.default_rng(seed).standard_normal(n)
    spectrum = scipy_fft.rfft(x)
    assert np.array_equal(spectral.rfft(x), spectrum)
    assert np.array_equal(spectral.irfft(spectrum, n), scipy_fft.irfft(spectrum, n=n))
    # A half spectrum of another length than n // 2 + 1 is never split.
    assert np.array_equal(spectral.irfft(spectrum[:-1], n), scipy_fft.irfft(spectrum[:-1], n=n))


@pytest.mark.parametrize("n", [3001, 100 * 683, 2**9 * 3 * 683])  # the last two are split
def test_rfft_into_a_row_gives_the_bits_of_one_whole_gather(monkeypatch, n):
    x = np.random.default_rng(5).standard_normal(n)
    want = scipy_fft.rfft(x) if spectral._split(n) is None else _rfft2_split(x)
    assert spectral.rfft(x).tobytes() == want.tobytes()
    for chunk in (65536, 1000, 7):
        monkeypatch.setattr(spectral, "_GATHER_BINS", chunk)
        rows = np.full((3, n // 2 + 1), np.nan, np.complex128)
        row = rows[1]
        assert spectral.rfft(x, out=row) is row
        assert row.tobytes() == want.tobytes()
        assert np.isnan(rows[[0, 2]]).all()  # nothing written outside the row


@settings(max_examples=40, deadline=None)
@given(
    n=st.one_of(
        st.integers(2, 5000),
        st.sampled_from([2, 3, 6007, 65537, 2**7 * 5**4, 100 * 683, 99 * 683, 120 * 683]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100 * 683, seed=0)  # split, even
@example(n=99 * 683, seed=1)  # split, odd
@example(n=2**7 * 5**4, seed=2)  # not split, even
@example(n=6007, seed=3)  # not split, prime
def test_rfft_over_the_signals_own_padded_row_gives_the_bits_of_a_fresh_output(n, seed):
    # transmission.load_seat_spectra writes each channel's spectrum over the channel's own row.
    rng = np.random.default_rng(seed)
    m = n // 2 + 1
    x = rng.standard_normal(n)
    want = spectral.rfft(x, out=np.empty(m, np.complex128))
    rows = np.full((3, m), np.nan, np.complex128)
    floats = rows.view(np.float64)
    floats[1, :n] = x
    row = rows[1]
    assert spectral.rfft(floats[1, :n], out=row) is row
    assert row.tobytes() == want.tobytes()
    assert np.isnan(rows[[0, 2]]).all()  # nothing written outside the row


@pytest.mark.parametrize("n", [2**17, 60_000])
def test_an_unsplit_rfft_writes_into_its_own_row_and_allocates_no_spectrum(n):
    # pocketfft reads the signal into its own line buffer, then writes the bins into `out`.
    assert spectral._split(n) is None
    m = n // 2 + 1
    x = np.random.default_rng(n).standard_normal(n)
    want = spectral.rfft(x)
    floats = np.empty(2 * m)
    floats[:n] = x
    row = floats.view(np.complex128)
    tracemalloc.start()
    try:
        got = spectral.rfft(floats[:n], out=row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is row
    assert row.tobytes() == want.tobytes()
    assert peak < 0.1 * row.nbytes


@settings(max_examples=60, deadline=None)
@given(
    n=st.one_of(
        st.integers(2, 5000),
        st.sampled_from([2, 3, 4, 5, 6007, 65537, 2**7 * 5**4, 100 * 683, 99 * 683, 3 * 65537]),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=2, seed=0)
@example(n=3, seed=1)
@example(n=100 * 683, seed=2)  # split, even
@example(n=99 * 683, seed=3)  # split, odd
def test_irfft_into_the_spectrums_own_row_gives_the_bits_of_a_fresh_output(n, seed):
    # Even, odd, prime and split lengths.  The imaginary parts of DC and, for even n, of
    # Nyquist are not 0: the in-place shift must drop them as scipy does.  An unsplit length
    # gives scipy.fft's bits; a split one those of the split into fresh memory.
    rng = np.random.default_rng(seed)
    m = n // 2 + 1
    spectrum = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    want = scipy_fft.irfft(spectrum, n=n)
    if spectral._split(n) is not None:
        assert np.max(np.abs(spectral.irfft(spectrum, n) - want)) <= 1e-12 * np.max(np.abs(want))
        want = spectral.irfft(spectrum, n)
    rows = np.full((3, m), np.nan, np.complex128)
    rows[1] = spectrum
    row = rows.view(np.float64)[1, :n]
    assert spectral.irfft(rows[1], n, out=row) is row
    assert row.tobytes() == want.tobytes()
    assert np.isnan(rows[[0, 2]]).all()  # nothing written outside the row
    given = spectrum.copy()
    out = np.empty(n)
    assert spectral.irfft(spectrum, n, out=out) is out
    assert out.tobytes() == want.tobytes()
    assert spectrum.tobytes() == given.tobytes()  # a spectrum apart from `out` is only read


def test_a_spectrum_of_another_length_is_not_split():
    n = 100 * 683
    spectrum = scipy_fft.rfft(np.random.default_rng(4).standard_normal(n))
    for bins in (spectrum[:-1], np.concatenate([spectrum, [1.0 + 2.0j]])):
        assert np.array_equal(spectral.irfft(bins, n), scipy_fft.irfft(bins, n=n))


def _sequential_core(seat, bundle):
    """Seat spectra and head signals from one spectral.rfft / irfft call a channel."""
    spectra = {axis: spectral.rfft(seat.channels[axis]) for axis in AXES}
    sums = _reference_sums(seat, bundle, spectra)
    return spectra, {axis: spectral.irfft(sums[axis], n=seat.n_samples) for axis in AXES}


@settings(max_examples=6, deadline=None)
@given(
    n=st.sampled_from([100 * 683, 99 * 683, 3 * 65537, 330 * 307]),
    model=st.sampled_from(MODEL_IDS),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=100 * 683, model="EXP", seed=0)
def test_split_core_is_bit_equal_on_1_2_and_3_cpus(n, model, seed):
    assert spectral._split(n) is not None
    seat, bundle = random_trace(seed, n=n), builtin_bundle(model)
    want_spectra, want_head = _sequential_core(seat, bundle)
    threads = threading.active_count()
    for cpus in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runtime, "usable_cpus", lambda: cpus)
            spectra = seat_spectra(seat)
            taken = spectra._replace(bins=spectra.bins.copy())  # head_spectra overwrites them
            head = head_trace(taken, head_spectra(taken, bundle))
            transmitted, _ = transmit(seat, bundle)
        assert threading.active_count() == threads
        for i, axis in enumerate(AXES):
            assert np.array_equal(spectra.bins[i], want_spectra[axis])
            assert np.array_equal(head.channels[axis], want_head[axis])
            assert np.array_equal(transmitted.channels[axis], want_head[axis])


def test_plan_is_built_once_when_rows_run_on_every_cpu(monkeypatch):
    built = []
    make_plan = spectral._make_plan
    monkeypatch.setattr(spectral, "_make_plan", lambda *a: built.append(a) or make_plan(*a))
    monkeypatch.setattr(spectral, "_plan", None)
    monkeypatch.setattr(runtime, "usable_cpus", lambda: 3)
    seat = random_trace(5, n=100 * 683)
    head, _ = transmit(seat, builtin_bundle("EXP"))
    assert built == [(100, 683)]
    transmit(random_trace(6, n=99 * 683), builtin_bundle("EXP"))  # one plan is kept
    assert built[1:] == [(99, 683)] and spectral._plan.a == 99


def test_threads_switching_between_two_split_lengths_each_use_their_own_plan():
    signals = [np.random.default_rng(n).standard_normal(n) for n in (100 * 683, 99 * 683)]
    spectra = [spectral.rfft(x) for x in signals]
    want = [(x, X, spectral.irfft(X, len(x))) for x, X in zip(signals, spectra)]
    failures = []

    def run(first: int) -> None:
        for i in range(first, first + 8):
            x, spectrum, back = want[i % 2]
            same = np.array_equal(spectral.rfft(x), spectrum)
            if not (same and np.array_equal(spectral.irfft(spectrum, len(x)), back)):
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(j,)) for j in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_split_length_spectral_rc_and_ms_match_the_time_domain_oracle():
    """Criterion 2 at a split length: the identity bundle's spectral read-offs against
    `assess`, which weights each channel with scipy.fft directly."""
    bundle = identity_bundle()
    rc_regime, ms_regime = ride_comfort_regime(), motion_sickness_regime()
    for seed in range(2):
        seat = random_trace(2000 + seed, n=100 * 683)
        report = full_assessment(seat, bundle, include_svc=False)
        oracle = assess(seat, rc_regime), assess(seat, ms_regime)
        for got, want in zip((report.rc, report.ms), oracle):
            for axis in AXES:
                assert rel_err(got.per_axis[axis], want.per_axis[axis]) < 1e-9
            assert rel_err(got.total, want.total) < 1e-9
