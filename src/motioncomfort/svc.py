"""Subjective-vertical-conflict accumulation of motion sickness incidence.

The model tracks the mismatch between the specific force the vestibular
system senses and the slowly adapting internal estimate of "down":

1. Head roll and pitch angles come from the rotational acceleration
   channels, integrated twice with a leak on both stages so that
   acceleration-only input cannot drift the angles without bound.
2. The sensed specific force is the translational head acceleration plus
   gravity expressed in the tilted head frame.
3. The subjective vertical is a first-order low-pass of the sensed specific
   force (time constant `tau_s`), initialized at rest so a stationary trace
   produces no startup transient.
4. The conflict is the vector magnitude of (sensed - subjective); it is
   squashed through a Hill function c^n / (b^n + c^n).
5. Two cascaded leaky integrators (time constant `mu_s`) accumulate the
   squashed conflict; 100x their output, kept monotone by a running
   maximum, is the incidence percentage.  Incidence counts the fraction of
   a population that has become sick, so it cannot decrease.

Integration is explicit Euler at the trace sample rate; the recurrences are
evaluated by the C filter that `scipy.signal.lfilter` runs, which reproduces
the Euler update exactly.  `runtime.scipy_kernel` loads it from its file, as
importing `scipy.signal` also imports `scipy.stats` (0.6 s and 50 MB a process).
All parameters are exposed on `SvcParams` and can be substituted; the
defaults give plausible shapes but are not fitted to any dataset.

The model streams over the trace in blocks of `_BLOCK_SAMPLES` samples, one
loop on the calling thread.  Each block runs every stage in model order; the
nine filter recurrences carry their state from each block to the next
(`zi` in, `zf` out), and so does the running maximum.  Every other step
works sample by sample, so the bits do not depend on the block size.
`run_svc` holds the MSI and one block of each stage, then makes the time
column; `svc_states` writes every block into its 13 full-length arrays.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field
from typing import Iterator, Mapping

import numpy as np

from . import runtime
from .errors import DataError, NumericError
from .frf import _frozen_array, _is_real
from .traceio import MotionTrace

_BLOCK_SAMPLES = 16384  # samples per block of the streamed model: its own size, for SVC's peak


@dataclass(frozen=True)
class SvcParams:
    """Model constants, all strictly positive.

    tau_s   : subjective-vertical adaptation time constant (s)
    b       : conflict half-sensitivity of the Hill squash (m/s^2)
    n       : Hill exponent (>= 1)
    mu_s    : accumulator time constant (s)
    g       : gravity magnitude (m/s^2)
    orientation_leak_s : drift-correction leak on the angle integrators (s)
    """

    tau_s: float = 5.0
    b: float = 0.5
    n: float = 2.0
    mu_s: float = 720.0
    g: float = 9.81
    orientation_leak_s: float = 30.0

    def __post_init__(self):
        for name in ("tau_s", "b", "n", "mu_s", "g", "orientation_leak_s"):
            value = getattr(self, name)
            if not _is_real(value) or value <= 0.0:
                raise DataError(f"SVC parameter {name} must be finite and > 0, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.n < 1.0:
            raise DataError(f"Hill exponent must be >= 1, got {self.n}")
        with np.errstate(over="ignore", under="ignore"):  # b**n that no float holds: inf or 0
            b_n = np.float64(self.b) ** self.n
        if not 0.0 < b_n < np.inf:  # else the Hill squash divides 0 by 0 or inf by inf
            raise DataError(f"Hill constant b**n = {self.b:g}**{self.n:g} under- or overflows")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MsiSeries:
    """Motion sickness incidence over time, percent of population, in [0, 100].

    The arrays are kept as read-only copies.  `run_svc` passes ``_owned=True``
    for its fresh float64 arrays that nothing else holds: those are made
    read-only and kept, not copied (`frf._frozen_array`).
    """

    time_s: np.ndarray = field(repr=False)
    msi_percent: np.ndarray = field(repr=False)
    _owned: InitVar[bool] = False

    def __post_init__(self, _owned):
        t, m = _frozen_array(self.time_s, _owned), _frozen_array(self.msi_percent, _owned)
        if t.ndim != 1 or t.shape != m.shape or t.size == 0:
            raise DataError("time and MSI arrays must be matching non-empty 1-D arrays")
        object.__setattr__(self, "time_s", t)
        object.__setattr__(self, "msi_percent", m)

    @property
    def final(self) -> float:
        return float(self.msi_percent[-1])


def _filters_exactly(sigtools) -> bool:
    b, a, x, zi = (np.array(v) for v in ([0.0, 0.5], [1.0, -0.5], [1.0, 2.0, 4.0], [1.0]))
    y, zf = sigtools._linear_filter(b, a, x, -1, zi)
    return (y.tolist(), zf.tolist()) == ([1.0, 1.0, 1.5], [2.75])


_sigtools = runtime.scipy_kernel("scipy.signal._sigtools", "signal/_sigtools", _filters_exactly)
_linear_filter = _sigtools._linear_filter  # (b, a, x, axis, zi): the call that lfilter makes


class _Euler:
    """One explicit Euler recurrence y[k+1] = decay*y[k] + gain_dt*x[k], y[0] = y0, run block
    by block by `lfilter`'s C filter, loaded without `scipy.signal` (`_linear_filter`): each
    call carries the state on to the next block, so the bits are those of one call on all input."""

    def __init__(self, gain_dt: float, decay: float, y0: float):
        self.b, self.a = np.array([0.0, gain_dt]), np.array([1.0, -decay])
        self.state = np.array([float(y0)])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y, self.state = _linear_filter(self.b, self.a, x, -1, self.state)
        return y


def _blocks(head: MotionTrace, params: SvcParams | None) -> Iterator[tuple[slice, dict]]:
    """Yield (samples, stages) for each block of `_BLOCK_SAMPLES` samples in turn.

    `stages` maps each stage's name, in model order, to its values on those
    samples; ``sensed`` and ``subjective_vertical`` are (3, m) rows.  The first
    block with a non-finite conflict or MSI raises a NumericError.
    """
    p = params if params is not None else SvcParams()
    fs = head.sample_rate_hz
    dt = 1.0 / fs
    # Every Euler stage needs decay in [0, 1): stable, no overshoot, so MSI stays in [0, 100].
    step = {name: dt / getattr(p, name) for name in ("orientation_leak_s", "tau_s", "mu_s")}
    decay = {name: 1.0 - s for name, s in step.items()}
    for name, d in decay.items():
        if d == 1.0:  # dt / time constant rounds away against 1: the stage never moves
            raise DataError(f"{name}={getattr(p, name):g} s is too long to resolve at {fs:g} Hz")
        if not 0.0 <= d < 1.0:
            raise DataError(
                f"sample interval {dt:g} s is too coarse for {name}={getattr(p, name):g} s; "
                "each explicit integration stage needs sample_rate_hz * time constant >= 1"
            )
    channels = head.channels
    leak = decay["orientation_leak_s"]
    roll_rate, roll_angle, pitch_rate, pitch_angle = (_Euler(dt, leak, 0.0) for _ in range(4))
    verticals = [_Euler(step["tau_s"], decay["tau_s"], rest) for rest in (0.0, 0.0, p.g)]
    accumulators = [_Euler(step["mu_s"], decay["mu_s"], 0.0) for _ in range(2)]
    b_n = p.b**p.n
    peak = -np.inf  # the running maximum of stage2 up to the block
    for lo in range(0, head.n_samples, _BLOCK_SAMPLES):
        block = slice(lo, lo + _BLOCK_SAMPLES)
        roll = roll_angle(roll_rate(channels["roll"][block]))
        pitch = pitch_angle(pitch_rate(channels["pitch"][block]))
        m = len(roll)
        sensed, vertical, conflict = np.empty((3, m)), np.empty((3, m)), np.zeros(m)
        # Overflow and invalid results are ignored: the finiteness checks report their inf or NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            # Head acceleration plus gravity in the tilted head frame (magnitude g for any
            # angles): g sin(p), (-g cos(p)) sin(r), (g cos(p)) cos(r) on sensed axis 0, 1, 2.
            cos_p = np.cos(pitch)
            np.multiply(np.sin(pitch, out=sensed[0]), p.g, out=sensed[0])
            g_cos_p = np.multiply(cos_p, -p.g)
            np.multiply(g_cos_p, np.sin(roll, out=sensed[1]), out=sensed[1])
            np.multiply(cos_p, p.g, out=g_cos_p)
            np.multiply(g_cos_p, np.cos(roll, out=sensed[2]), out=sensed[2])
            for i, axis in enumerate(("x", "y", "z")):
                sensed[i] += channels[axis][block]
                vertical[i] = verticals[i](sensed[i])
                diff = np.subtract(sensed[i], vertical[i])
                conflict += np.square(diff, out=diff)  # |sensed - vertical|, summed axis by axis
            np.sqrt(conflict, out=conflict)
            if not np.all(np.isfinite(conflict)):
                raise NumericError("SVC produced non-finite conflict values")
            cn = conflict**p.n
            squashed = np.divide(cn, b_n + cn, out=cn)
            stage1 = accumulators[0](squashed)
            stage2 = accumulators[1](stage1)
            running = np.maximum.accumulate(stage2)
            np.maximum(running, peak, out=running)
            peak = running[-1]
            msi = 100.0 * running
        if not np.all(np.isfinite(msi)):
            raise NumericError("SVC produced non-finite msi values")
        yield block, {
            "roll_angle": roll,
            "pitch_angle": pitch,
            "sensed": sensed,
            "subjective_vertical": vertical,
            "conflict": conflict,
            "squashed": squashed,
            "stage1": stage1,
            "stage2": stage2,
            "msi_percent": msi,
        }


def svc_states(head: MotionTrace, params: SvcParams | None = None) -> Mapping[str, np.ndarray]:
    """All intermediate trajectories of the model, keyed by name.

    Returns arrays aligned with the trace timeline: ``roll_angle``,
    ``pitch_angle`` (rad), ``sensed`` and ``subjective_vertical`` (3, n)
    specific forces, ``conflict`` (m/s^2), ``squashed`` (unitless), the two
    accumulator stages ``stage1`` and ``stage2``, and ``msi_percent``.
    All of them are kept, 13 arrays of the trace's length, each written block
    by block.
    """
    n = head.n_samples
    states: dict[str, np.ndarray] = {}
    for block, stages in _blocks(head, params):
        for name, values in stages.items():
            if name not in states:
                states[name] = np.empty(values.shape[:-1] + (n,))
            states[name][..., block] = values
    return states


def _incidence(head: MotionTrace, params: SvcParams | None) -> np.ndarray:
    """`run_svc`'s incidence, a fresh array; each block's stages go before the next block."""
    msi = np.empty(head.n_samples)
    for block, stages in _blocks(head, params):
        msi[block] = stages["msi_percent"]
        del stages
    return msi


def run_svc(head: MotionTrace, params: SvcParams | None = None) -> MsiSeries:
    """Run the model over a head trace and return the incidence time series.

    Keeps the incidence and one block of each stage, then makes the time column.
    """
    msi = _incidence(head, params)
    return MsiSeries(time_s=head.time_s, msi_percent=msi, _owned=True)
