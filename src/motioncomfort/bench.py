"""Wall-clock benchmark of the full assessment pipeline."""

from __future__ import annotations

import platform
from dataclasses import asdict, dataclass

from . import runtime
from .frf import FrfBundle
from .metrics import full_assessment
from .traceio import DEMO_COMPONENTS, synth_trace


@dataclass(frozen=True)
class BenchmarkResult:
    """Stage timings for one synthetic run plus the realtime factor."""

    model_id: str
    duration_s: float
    sample_rate_hz: float
    n_samples: int
    transmit_s: float
    rc_s: float
    ms_s: float
    svc_s: float
    total_s: float
    realtime_factor: float
    machine: str

    def as_dict(self) -> dict:
        return asdict(self)

    def summary(self) -> str:
        return (
            f"{self.model_id}: simulated {self.duration_s:.6g} s "
            f"({self.n_samples} samples at {self.sample_rate_hz:g} Hz) "
            f"in {self.total_s:.3f} s wall, {self.realtime_factor:.0f}x realtime "
            f"(transmit {self.transmit_s:.3f}, rc {self.rc_s:.3f}, "
            f"ms {self.ms_s:.3f}, svc {self.svc_s:.3f})"
        )


def benchmark(
    trace_length_s: float,
    sample_rate_hz: float,
    bundle: FrfBundle,
    *,
    include_svc: bool = True,
) -> BenchmarkResult:
    """Time transmit + both assessments (+ incidence) on a synthetic trace.

    Trace synthesis is excluded from the timed region.  The realtime factor
    is simulated duration divided by wall time.
    """
    trace = synth_trace(DEMO_COMPONENTS, trace_length_s, sample_rate_hz)
    runtime.SECONDS.clear()
    with runtime.stage("assessment", model=bundle.model_id):
        full_assessment(trace, bundle, include_svc=include_svc)
    seconds, total = runtime.SECONDS, runtime.SECONDS["assessment"]
    return BenchmarkResult(
        model_id=bundle.model_id,
        duration_s=trace.duration_s,
        sample_rate_hz=trace.sample_rate_hz,
        n_samples=trace.n_samples,
        transmit_s=seconds["head spectra"] + seconds.get("inverse FFTs", 0.0),
        rc_s=seconds["RC"],
        ms_s=seconds["MS"],
        svc_s=seconds.get("SVC", 0.0),
        total_s=total,
        realtime_factor=trace.duration_s / total if total > 0.0 else float("inf"),
        machine=platform.machine() or "unknown",
    )
