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
evaluated with `scipy.signal.lfilter`, which reproduces the Euler update
exactly.  All parameters are exposed on `SvcParams` and can be substituted;
the defaults give plausible shapes but are not fitted to any dataset.

The per-sample stages (sensed force, conflict, squash) run in blocks of
samples (`_BLOCK_SAMPLES`) on every usable CPU (`traceio._on_every_cpu`).
Every step works sample by sample, so the bits do not depend on the blocks
or the threads.  The nine `lfilter` recurrences run on the calling thread:
`lfilter` holds the GIL, so a second thread would only wait for it.

One generator runs the model stage by stage and drops each array once no
later stage needs it.  Steps 2 to 4 run one sensed axis at a time: the
axis's sensed force, then its subjective vertical, then its squared
difference added into the conflict, after which both rows are dropped.
`svc_states` keeps every stage and stacks the three axes' rows; `run_svc`
keeps only the MSI.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np
from scipy.signal import lfilter

from . import traceio
from .errors import DataError, NumericError
from .frf import _frozen_array, _is_real
from .traceio import MotionTrace

_BLOCK_SAMPLES = 65536  # samples per task of the per-sample stages


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
            if not _is_real(value) or not 0.0 < value < np.inf:
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


def _euler_stage(x: np.ndarray, gain_dt: float, decay: float, y0: float) -> np.ndarray:
    # y[k+1] = decay*y[k] + gain_dt*x[k], y[0] = y0, evaluated in C by lfilter.
    b = np.array([0.0, gain_dt])
    a = np.array([1.0, -decay])
    y, _ = lfilter(b, a, x, zi=np.array([float(y0)]))
    return y


def _per_sample(task: Callable[[int, int], None], n: int) -> None:
    """Run ``task(lo, hi)`` over blocks of `_BLOCK_SAMPLES` samples (`traceio._in_blocks`).

    Each task ignores overflow and invalid results: the inf or NaN they leave
    is reported by the finiteness checks.
    """

    def run(lo: int, hi: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            task(lo, hi)

    traceio._in_blocks(run, n, _BLOCK_SAMPLES)


def _stages(head: MotionTrace, params: SvcParams | None) -> Iterator[tuple[str, np.ndarray]]:
    """Yield (name, trajectory) in model order; drop each array once no later stage needs it."""
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
    n = head.n_samples

    leak = decay["orientation_leak_s"]
    roll = _euler_stage(_euler_stage(channels["roll"], dt, leak, 0.0), dt, leak, 0.0)
    yield "roll_angle", roll
    pitch = _euler_stage(_euler_stage(channels["pitch"], dt, leak, 0.0), dt, leak, 0.0)
    yield "pitch_angle", pitch

    # Head acceleration plus gravity in the tilted head frame (magnitude g for any angles):
    # g sin(p), (-g cos(p)) sin(r), (g cos(p)) cos(r) on sensed axis 0, 1, 2.
    def sense(i: int) -> np.ndarray:
        row, channel = np.empty(n), channels[("x", "y", "z")[i]]

        def task(lo: int, hi: int) -> None:
            out = row[lo:hi]
            if i == 0:
                np.multiply(np.sin(pitch[lo:hi], out=out), p.g, out=out)
            else:
                g_cos_p = np.cos(pitch[lo:hi])
                np.multiply(g_cos_p, -p.g if i == 1 else p.g, out=g_cos_p)
                trig = np.sin if i == 1 else np.cos
                np.multiply(g_cos_p, trig(roll[lo:hi], out=out), out=out)
            out += channel[lo:hi]

        _per_sample(task, n)
        return row

    # |sensed - vertical|, summed axis by axis.  Each axis's sensed force and subjective
    # vertical are dropped before the next axis is sensed.
    conflict = np.zeros(n)
    for i, rest in enumerate((0.0, 0.0, p.g)):
        sensed = sense(i)
        yield "sensed", sensed
        vertical = _euler_stage(sensed, step["tau_s"], decay["tau_s"], rest)
        yield "subjective_vertical", vertical

        def measure(lo: int, hi: int) -> None:
            out, diff = conflict[lo:hi], np.subtract(sensed[lo:hi], vertical[lo:hi])
            out += np.square(diff, out=diff)
            if i == 2:  # the last axis
                np.sqrt(out, out=out)

        _per_sample(measure, n)
        del sensed, vertical
    del pitch, roll
    if not np.all(np.isfinite(conflict)):
        raise NumericError("SVC produced non-finite conflict values")
    yield "conflict", conflict

    stage = np.empty(n)
    b_n = p.b**p.n

    def squash(lo: int, hi: int) -> None:
        cn = conflict[lo:hi] ** p.n
        np.divide(cn, b_n + cn, out=stage[lo:hi])

    _per_sample(squash, n)
    del conflict
    yield "squashed", stage
    for name in ("stage1", "stage2"):  # rebinding `stage` drops the stage before
        stage = _euler_stage(stage, step["mu_s"], decay["mu_s"], 0.0)
        yield name, stage

    msi = 100.0 * np.maximum.accumulate(stage)
    del stage
    if not np.all(np.isfinite(msi)):
        raise NumericError("SVC produced non-finite msi values")
    yield "msi_percent", msi


def svc_states(head: MotionTrace, params: SvcParams | None = None) -> Mapping[str, np.ndarray]:
    """All intermediate trajectories of the model, keyed by name.

    Returns arrays aligned with the trace timeline: ``roll_angle``,
    ``pitch_angle`` (rad), ``sensed`` and ``subjective_vertical`` (3, n)
    specific forces, ``conflict`` (m/s^2), ``squashed`` (unitless), the two
    accumulator stages ``stage1`` and ``stage2``, and ``msi_percent``.
    All of them are kept, 13 arrays of the trace's length.
    """
    states: dict[str, np.ndarray] = {}
    axis = 0  # the sensed axis of the next sensed/subjective_vertical row
    for name, trajectory in _stages(head, params):
        if name not in ("sensed", "subjective_vertical"):
            states[name] = trajectory
            continue
        if name not in states:  # its first row: axis 0
            states[name] = np.empty((3, trajectory.size))
        states[name][axis] = trajectory
        axis += name == "subjective_vertical"  # the last row of each axis
    return states


def run_svc(head: MotionTrace, params: SvcParams | None = None) -> MsiSeries:
    """Run the model over a head trace and return the incidence time series.

    Keeps only the incidence: about 5 arrays of the trace's length are live at once (both
    angles, the conflict, and one sensed axis with its subjective vertical).
    """
    for _, msi in _stages(head, params):
        pass
    return MsiSeries(time_s=head.time_s, msi_percent=msi, _owned=True)
