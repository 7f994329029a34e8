from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from motioncomfort import AXES, MotionTrace, SynthComponent, synth_trace

BROADBAND_COMPONENTS = (
    SynthComponent(axis="x", kind="noise", amplitude=0.4, f0=0.05, f1=4.0, seed=101),
    SynthComponent(axis="y", kind="noise", amplitude=0.3, f0=0.05, f1=4.0, seed=102),
    SynthComponent(axis="z", kind="noise", amplitude=0.8, f0=0.05, f1=4.0, seed=103),
    SynthComponent(axis="z", kind="sine", amplitude=0.5, f0=1.0),
    SynthComponent(axis="roll", kind="noise", amplitude=0.05, f0=0.05, f1=2.0, seed=104),
    SynthComponent(axis="pitch", kind="noise", amplitude=0.06, f0=0.05, f1=2.0, seed=105),
    SynthComponent(axis="yaw", kind="noise", amplitude=0.04, f0=0.05, f1=2.0, seed=106),
)


def random_trace(seed: int, n: int = 2000, fs: float = 100.0, scale: float = 1.0) -> MotionTrace:
    """A dense random trace with energy on every axis."""
    rng = np.random.default_rng(seed)
    channels = {axis: scale * rng.standard_normal(n) for axis in AXES}
    return MotionTrace(sample_rate_hz=fs, channels=channels)


# Bytes that stress the trace parser, mixed with uniform 100 Hz rows by `fuzzed_body`.
FUZZ_TOKENS = [
    b"0", b"1", b"7", b",", b".", b"e", b"-", b"+", b"#", b" ", b"\t", b"\n", b"\r", b"\r\n",
    b"\x00", b"\xff", b"\xc3\x28", b"nan", b"inf", b"1e400",
]


@st.composite
def fuzzed_body(draw, fuzz: bool = True) -> bytes:
    """The bytes after a trace header: valid rows with fuzz tokens between some of them (none
    without `fuzz`)."""
    junk = st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=4) | st.just([])
    junk = junk if fuzz else st.just([])
    parts = []
    for i in range(draw(st.integers(min_value=0, max_value=12))):
        parts += draw(junk)
        parts.append(f"{i / 100!r},{i},-0.5,1e-3,0,0,7".encode())
        parts.append(draw(st.sampled_from([b"\n", b"\r\n", b"\r"])))
    return b"".join(parts + draw(junk))


def sine_trace(axis: str, amplitude: float, f0: float, duration_s: float, fs: float) -> MotionTrace:
    return synth_trace(
        [SynthComponent(axis=axis, kind="sine", amplitude=amplitude, f0=f0)], duration_s, fs
    )


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / denom


@pytest.fixture(scope="session")
def broadband_seat() -> MotionTrace:
    return synth_trace(BROADBAND_COMPONENTS, 600.0, 100.0)
