"""Seat-to-head motion transmission and motion comfort assessment.

Predicts occupant head motion from 6-DOF seat acceleration traces through
tabulated frequency response functions of selectable fidelity, and assesses
ride comfort, motion sickness and sickness incidence.
"""

from .bench import BenchmarkResult, benchmark
from .errors import ComfortError, ConfigError, DataError, NumericError
from .frf import (
    AXES,
    CHANNEL_IDS,
    FrfBundle,
    FrfChannelId,
    FrfCurve,
    MODEL_IDS,
    builtin_bundle,
    evaluate_frf,
    identity_bundle,
    interpolate_frf,
    load_frf_bundle,
    read_frf_csv,
)
from .metrics import ComfortReport, RegimeResult, assess, combine, full_assessment, rms
from .report import ComparisonTable, compare, emit_report
from .svc import MsiSeries, SvcParams, run_svc, svc_states
from .traceio import MotionTrace, SynthComponent, load_trace, save_trace, synth_trace
from .transmission import (
    ContributionBreakdown,
    SeatSpectra,
    fft_apply,
    load_seat_spectra,
    seat_spectra,
    transmit,
)
from .weighting import (
    DEFAULT_K_FACTORS,
    MetricRegime,
    WeightingCurve,
    apply_weighting,
    builtin_weightings,
    load_weighting_csv,
    motion_sickness_regime,
    ride_comfort_regime,
    unity_regime,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "BenchmarkResult",
    "CHANNEL_IDS",
    "ComfortError",
    "ComfortReport",
    "ComparisonTable",
    "ConfigError",
    "ContributionBreakdown",
    "DEFAULT_K_FACTORS",
    "DataError",
    "FrfBundle",
    "FrfChannelId",
    "FrfCurve",
    "MODEL_IDS",
    "MetricRegime",
    "MotionTrace",
    "MsiSeries",
    "NumericError",
    "RegimeResult",
    "SeatSpectra",
    "SvcParams",
    "SynthComponent",
    "WeightingCurve",
    "apply_weighting",
    "assess",
    "benchmark",
    "builtin_bundle",
    "builtin_weightings",
    "combine",
    "compare",
    "emit_report",
    "evaluate_frf",
    "fft_apply",
    "full_assessment",
    "identity_bundle",
    "interpolate_frf",
    "load_frf_bundle",
    "load_seat_spectra",
    "load_trace",
    "load_weighting_csv",
    "motion_sickness_regime",
    "read_frf_csv",
    "ride_comfort_regime",
    "rms",
    "run_svc",
    "save_trace",
    "seat_spectra",
    "svc_states",
    "synth_trace",
    "transmit",
    "unity_regime",
]
