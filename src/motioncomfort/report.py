"""Report serialization (JSON, MSI CSV, SVG) and multi-model comparison."""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import runtime
from .errors import ConfigError
from .frf import AXES, builtin_bundle, known_model_id
from .metrics import ComfortReport, full_assessment
from .svc import MsiSeries, SvcParams
from .traceio import MotionTrace, atomic_write_text, format_rows
from .transmission import SeatSpectra, _spectra_of
from .weighting import MetricRegime, WeightingCurve

REPORT_SCHEMA = 1
SVG_WIDTH = 900  # report.svg size in pixels
SVG_HEIGHT = 520


def report_to_dict(report: ComfortReport, msi_filename: str | None) -> dict:
    """The JSON document for a report.  Floats are kept at full precision."""
    doc = {
        "schema": REPORT_SCHEMA,
        "model_id": report.model_id,
        "trace": {
            "duration_s": report.duration_s,
            "sample_rate_hz": report.sample_rate_hz,
        },
        "rc": {"per_axis": {a: report.rc.per_axis[a] for a in AXES}, "total": report.rc.total},
        "ms": {"per_axis": {a: report.ms.per_axis[a] for a in AXES}, "total": report.ms.total},
        "msi": None,
        "config_echo": dict(report.config_echo),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if report.msi is not None:
        doc["msi"] = {"final": report.msi.final, "series_path": msi_filename}
    return doc


def _pixel_extremes(x_of, y_of, n: int, columns: int) -> np.ndarray:
    """Indices of the points to draw, in order: all n up to ``2 * columns``, else the first,
    the last and the first lowest and highest `y` of each run of samples in one pixel column.
    ``x_of(part)`` and ``y_of(part)`` give `x` and `y` at a slice of the samples, about
    `runtime.BLOCK` at a time; `x` (non-decreasing, in [0, `columns`]) gives the column
    ``min(floor(x), columns - 1)``."""
    if n <= 2 * columns:
        return np.arange(n)
    starts, previous = [], -1
    for lo in range(0, n, runtime.BLOCK):
        column = np.minimum(x_of(slice(lo, lo + runtime.BLOCK)).astype(np.intp), columns - 1)
        starts.append(np.flatnonzero(np.diff(column, prepend=previous)) + lo)
        previous = column[-1]
    edges = np.append(np.concatenate(starts), n)  # each run's first index, then n
    keep, first = [np.array([0, n - 1])], 0
    while first < len(edges) - 1:  # whole runs, about `runtime.BLOCK` samples in all at a time
        last = max(first + 1, np.searchsorted(edges, edges[first] + runtime.BLOCK, "right") - 1)
        lo = edges[first]
        y, runs = y_of(slice(lo, edges[last])), edges[first:last] - lo
        for reduce in (np.minimum, np.maximum):
            extremes = np.repeat(reduce.reduceat(y, runs), np.diff(edges[first : last + 1]))
            hits = np.flatnonzero(y == extremes)
            keep.append(hits[np.searchsorted(hits, runs)] + lo)
        first = last
    return np.unique(np.concatenate(keep))


def render_report_svg(report: ComfortReport) -> str:
    """A static overview figure, `SVG_WIDTH` by `SVG_HEIGHT`: MSI curve on top, bars below.

    Presentation only; the JSON report carries the authoritative numbers.
    The MSI series is one polyline drawn at screen resolution: one point per
    sample up to two per pixel column of the plot, otherwise each column's
    lowest and highest point plus the first and last sample.
    """
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<text x="20" y="24" font-family="sans-serif" font-size="16">'
        f"model {report.model_id}: RC total {report.rc.total:.6g}, "
        f"MS total {report.ms.total:.6g}</text>",
    ]
    top = {"x0": 60.0, "y0": 40.0, "w": SVG_WIDTH - 90.0, "h": 200.0}
    if report.msi is not None:
        t = report.msi.time_s
        m = report.msi.msi_percent
        t_span = max(float(t[-1] - t[0]), 1e-12)
        m_max = max(float(np.max(m)), 1.0)
        columns = max(int(top["w"]), 1)

        def frac(part) -> np.ndarray:
            return (t[part] - t[0]) / t_span

        def ys(part) -> np.ndarray:
            return top["y0"] + top["h"] - (m[part] / m_max) * top["h"]

        keep = _pixel_extremes(lambda part: frac(part) * columns, ys, len(m), columns)
        xs = top["x0"] + frac(keep) * top["w"]
        drawn = np.column_stack((xs, ys(keep))).ravel().tolist()
        points = " ".join(["%.2f,%.2f"] * len(keep)) % tuple(drawn)
        parts.append(
            f'<polyline fill="none" stroke="#1f6fb2" stroke-width="1.5" points="{points}"/>'
        )
        parts.append(
            f'<text x="{top["x0"]}" y="{top["y0"] + top["h"] + 18:.0f}" '
            f'font-family="sans-serif" font-size="12">'
            f"sickness incidence, final {report.msi.final:.4g}% "
            f"(peak axis scale {m_max:.4g}%)</text>"
        )
    else:
        parts.append(
            f'<text x="{top["x0"]}" y="{top["y0"] + 20:.0f}" font-family="sans-serif" '
            f'font-size="12">no incidence series</text>'
        )

    bars_y0 = 300.0
    bars_h = 160.0
    group_w = (SVG_WIDTH - 90.0) / (2 * len(AXES))
    values = [("RC", report.rc, "#d08a26"), ("MS", report.ms, "#4a9a57")]
    peak = max(
        max(res.per_axis[a] for a in AXES) for _, res, _ in values
    )
    peak = max(peak, 1e-12)
    x = 60.0
    for label, res, color in values:
        for axis in AXES:
            v = res.per_axis[axis]
            h = v / peak * bars_h
            parts.append(
                f'<rect x="{x + 3:.1f}" y="{bars_y0 + bars_h - h:.1f}" '
                f'width="{group_w - 6:.1f}" height="{h:.1f}" fill="{color}"/>'
            )
            parts.append(
                f'<text x="{x + group_w / 2:.1f}" y="{bars_y0 + bars_h + 14:.0f}" '
                f'font-family="sans-serif" font-size="10" text-anchor="middle">'
                f"{label}.{axis}</text>"
            )
            x += group_w
    parts.append("</svg>")
    return "\n".join(parts)


def save_msi_csv(series: MsiSeries, path) -> None:
    """Write an MSI series as ``time_s,msi_percent`` rows (17 significant digits)."""
    columns = (series.time_s, series.msi_percent)
    atomic_write_text(path, format_rows(columns, "time_s,msi_percent\n"))


def emit_report(report: ComfortReport, out_dir) -> dict[str, Path]:
    """Write ``report.json``, ``msi.csv`` (when there is an MSI series) and ``report.svg``.

    All writes are atomic; the MSI CSV is written by `save_msi_csv`.  The
    JSON is strict (no NaN or Infinity).  Returns the paths that were written.
    """
    out_dir = Path(out_dir)
    written: dict[str, Path] = {}

    msi_name = "msi.csv" if report.msi is not None else None
    if report.msi is not None:
        written["msi_csv"] = out_dir / msi_name
        save_msi_csv(report.msi, written["msi_csv"])

    doc = report_to_dict(report, msi_name)
    written["report_json"] = out_dir / "report.json"
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    atomic_write_text(written["report_json"], text)

    written["report_svg"] = out_dir / "report.svg"
    atomic_write_text(written["report_svg"], render_report_svg(report) + "\n")
    return written


@dataclass(frozen=True)
class ComparisonRow:
    """One model's totals.  A `*_vs_nhm` ratio is None when the NHM total is 0,
    written as an empty CSV cell and as ``-`` in the text table.
    """

    model_id: str
    rc_per_axis: Mapping[str, float]
    rc_total: float
    ms_per_axis: Mapping[str, float]
    ms_total: float
    msi_final: float
    rc_total_vs_nhm: float | None
    ms_total_vs_nhm: float | None

    def _values(self) -> list[float | None]:
        """The numbers after the model id, in column order."""
        return (
            [self.rc_per_axis[a] for a in AXES] + [self.rc_total]
            + [self.ms_per_axis[a] for a in AXES] + [self.ms_total, self.msi_final]
            + [self.rc_total_vs_nhm, self.ms_total_vs_nhm]
        )


def _ratio(total: float, baseline: float) -> float | None:
    return total / baseline if baseline > 0.0 else None


def _csv_cell(value: float | None) -> str:
    return "" if value is None else f"{value:.17g}"


def _text_cell(value: float | None, width: int) -> str:
    return f"{'-':>{width}}" if value is None else f"{value:>{width}.4f}"


@dataclass(frozen=True)
class ComparisonTable:
    """Per-model assessment rows plus totals relative to the NHM baseline."""

    rows: Sequence[ComparisonRow] = field(default_factory=tuple)

    def to_csv(self) -> str:
        cols = (
            ["model"]
            + [f"rc_{a}" for a in AXES]
            + ["rc_total"]
            + [f"ms_{a}" for a in AXES]
            + ["ms_total", "msi_final", "rc_total_vs_nhm", "ms_total_vs_nhm"]
        )
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join([row.model_id] + [_csv_cell(v) for v in row._values()]))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = (
            f"{'model':<6}"
            + "".join(f"{'rc_' + a:>10}" for a in AXES)
            + f"{'rc_tot':>10}"
            + "".join(f"{'ms_' + a:>10}" for a in AXES)
            + f"{'ms_tot':>10}{'msi%':>10}{'rc/nhm':>9}{'ms/nhm':>9}"
        )
        lines = [header]
        widths = [10] * (2 * len(AXES) + 3) + [9, 9]
        for row in self.rows:
            cells = (_text_cell(v, w) for v, w in zip(row._values(), widths))
            lines.append(f"{row.model_id:<6}" + "".join(cells))
        return "\n".join(lines)


def compared_models(model_ids: Sequence[str]) -> list[str]:
    """The model ids of a comparison, upper-cased; a ConfigError for fewer than 2 or for an
    unknown one.  The CLI checks them so before it reads the trace."""
    model_ids = list(model_ids)
    if len(model_ids) < 2:
        raise ConfigError("compare needs at least 2 models")
    return [known_model_id(m) for m in model_ids]


def compare(
    trace: MotionTrace | SeatSpectra,
    model_ids: Sequence[str],
    *,
    rc: MetricRegime | None = None,
    ms: MetricRegime | None = None,
    svc_params: SvcParams | None = None,
    registry: Mapping[str, WeightingCurve] | None = None,
) -> ComparisonTable:
    """Assess one trace under several model configurations.

    Ratios are taken against the NHM baseline, which is computed even when
    NHM is not among the requested models.  Requesting a model twice yields
    two identical rows.  The seat is transformed once (`trace` may be given as
    its `seat_spectra`), and each model runs `full_assessment` on a copy of
    the spectra, but the last model takes the spectra themselves over, and no
    name here keeps them.  Each model's report, MSI series included, is
    dropped once its row is built, before the next model runs.  Every model's
    bundle is resolved before any FFT, so an unknown id costs none.
    """
    model_ids = compared_models(model_ids)
    # NHM first: the baseline.
    bundles = {m: builtin_bundle(m) for m in dict.fromkeys(["NHM", *model_ids])}

    shared, trace = [_spectra_of(trace)], None  # the last model pops them: no name here keeps them
    rows: dict[str, ComparisonRow] = {}
    for k, (model_id, bundle) in enumerate(bundles.items()):
        last = k == len(bundles) - 1  # no name holds a copy: it goes when its run returns
        rep = full_assessment(
            shared.pop() if last else shared[0]._replace(bins=shared[0].bins.copy()), bundle,
            rc=rc, ms=ms, svc_params=svc_params, registry=registry,
        )
        nhm = rows.get("NHM")  # None while NHM itself runs: its ratios are to itself
        rows[model_id] = ComparisonRow(
            model_id=model_id,
            rc_per_axis=dict(rep.rc.per_axis),
            rc_total=rep.rc.total,
            ms_per_axis=dict(rep.ms.per_axis),
            ms_total=rep.ms.total,
            msi_final=rep.msi.final,
            rc_total_vs_nhm=_ratio(rep.rc.total, nhm.rc_total if nhm else rep.rc.total),
            ms_total_vs_nhm=_ratio(rep.ms.total, nhm.ms_total if nhm else rep.ms.total),
        )
        del rep  # keep only the row's numbers, not the MSI series
    return ComparisonTable(rows=tuple(rows[m] for m in model_ids))
