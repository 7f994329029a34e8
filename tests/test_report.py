from __future__ import annotations

import dataclasses
import json
import xml.etree.ElementTree as ET

import jsonschema
import numpy as np
import pytest

from motioncomfort import (
    AXES,
    MotionTrace,
    builtin_bundle,
    compare,
    emit_report,
    full_assessment,
    identity_bundle,
)
from motioncomfort import report as report_module
from motioncomfort import runtime, spectral
from motioncomfort.errors import ConfigError
from motioncomfort.report import render_report_svg
from motioncomfort.svc import MsiSeries
from conftest import random_trace

REPORT_SCHEMA = {
    "type": "object",
    "required": ["schema", "model_id", "trace", "rc", "ms", "msi", "config_echo"],
    "properties": {
        "schema": {"const": 1},
        "model_id": {"enum": ["EXP", "AHM", "EHM", "NHM"]},
        "trace": {
            "type": "object",
            "required": ["duration_s", "sample_rate_hz"],
            "properties": {
                "duration_s": {"type": "number"},
                "sample_rate_hz": {"type": "number"},
            },
        },
        "rc": {"$ref": "#/$defs/regime"},
        "ms": {"$ref": "#/$defs/regime"},
        "msi": {
            "oneOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["final", "series_path"],
                    "properties": {
                        "final": {"type": "number"},
                        "series_path": {"type": "string"},
                    },
                },
            ]
        },
        "config_echo": {"type": "object"},
        "created_utc": {"type": "string"},
    },
    "$defs": {
        "regime": {
            "type": "object",
            "required": ["per_axis", "total"],
            "properties": {
                "per_axis": {
                    "type": "object",
                    "required": list(AXES),
                    "additionalProperties": {"type": "number"},
                },
                "total": {"type": "number"},
            },
        }
    },
}


@pytest.fixture(scope="module")
def report():
    return full_assessment(random_trace(40, n=600), builtin_bundle("EXP"))


def test_report_json_validates_against_schema(tmp_path, report):
    written = emit_report(report, tmp_path)
    doc = json.loads(written["report_json"].read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_json_totals_bit_exact(tmp_path, report):
    written = emit_report(report, tmp_path)
    doc = json.loads(written["report_json"].read_text())
    assert doc["rc"]["total"] == report.rc.total
    assert doc["ms"]["total"] == report.ms.total
    assert doc["msi"]["final"] == report.msi.final
    for axis in AXES:
        assert doc["rc"]["per_axis"][axis] == report.rc.per_axis[axis]


def test_svg_has_one_polyline_with_n_points(tmp_path, report):
    written = emit_report(report, tmp_path)
    root = ET.fromstring(written["report_svg"].read_text())
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polylines = root.findall(".//svg:polyline", ns)
    assert len(polylines) == 1
    points = polylines[0].attrib["points"].split()
    assert len(points) == report.msi.time_s.size


PLOT_X0, PLOT_Y0, PLOT_W, PLOT_H = 60.0, 40.0, 810.0, 200.0  # the MSI plot at the default size


def _with_msi(report, t: np.ndarray, m: np.ndarray):
    return dataclasses.replace(report, msi=MsiSeries(t, m))


def _polyline_points(report) -> str:
    root = ET.fromstring(render_report_svg(report))
    return root.find(".//{http://www.w3.org/2000/svg}polyline").attrib["points"]


def _drawn_y(m: np.ndarray) -> np.ndarray:
    return PLOT_Y0 + PLOT_H - (m / max(float(np.max(m)), 1.0)) * PLOT_H


@pytest.mark.parametrize("n", [1, 2, 600, int(2 * PLOT_W)])
def test_svg_keeps_every_sample_up_to_two_per_pixel_column(report, n):
    rng = np.random.default_rng(n)
    t = np.cumsum(rng.uniform(0.5, 1.5, n))
    m = rng.uniform(0.0, 100.0, n)
    x = PLOT_X0 + (t - t[0]) / max(float(t[-1] - t[0]), 1e-12) * PLOT_W
    oracle = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, _drawn_y(m)))
    assert _polyline_points(_with_msi(report, t, m)) == oracle


def test_svg_points_match_fstring_oracle_at_two_decimals(report):
    # Coordinates at or next to a .2f tie (x.xx5): each point is the text of an f-string
    # per coordinate.
    t = np.array([0.0, 0.005, 1.005, 2.675, 3.015, 4.125, 405.0, 809.995, 810.0])
    m = np.array([100.0, 0.0025, 50.0025, 1.3375, 99.9975, 0.0, 37.5, 120.0, 120.0])
    x = PLOT_X0 + (t - t[0]) / max(float(t[-1] - t[0]), 1e-12) * PLOT_W
    y = _drawn_y(m)
    oracle = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(x, y))
    assert _polyline_points(_with_msi(report, t, m)) == oracle


def test_svg_draws_each_pixel_columns_extremes(report):
    k = 32  # samples per pixel column, none within 1/64 px of a column edge
    pos = (np.arange(int(PLOT_W) * k) + 0.5) / k
    t = np.concatenate([[0.0], pos, [PLOT_W]])  # the plot spans exactly PLOT_W time units
    m = np.random.default_rng(41).uniform(0.0, 100.0, t.size)
    points = _polyline_points(_with_msi(report, t, m)).split()
    drawn = np.array([[float(v) for v in p.split(",")] for p in points])
    assert len(drawn) <= 2 * PLOT_W + 2
    y = np.array([float(f"{v:.2f}") for v in _drawn_y(m)])
    assert tuple(drawn[0]) == (PLOT_X0, y[0])
    assert tuple(drawn[-1]) == (PLOT_X0 + PLOT_W, y[-1])
    column = np.minimum(t.astype(int), int(PLOT_W) - 1)
    drawn_column = np.minimum((drawn[:, 0] - PLOT_X0).astype(int), int(PLOT_W) - 1)
    assert np.all(np.diff(drawn[:, 0]) > 0)
    for c in range(int(PLOT_W)):
        want, got = y[column == c], drawn[drawn_column == c, 1]
        assert (got.min(), got.max()) == (want.min(), want.max())


def _whole_series_points(report) -> str:
    """The MSI polyline's points as the drawing was first written: whole-series arrays."""
    t, m = report.msi.time_s, report.msi.msi_percent
    n, columns = len(m), int(PLOT_W)
    frac = (t - t[0]) / max(float(t[-1] - t[0]), 1e-12)
    ys = PLOT_Y0 + PLOT_H - (m / max(float(np.max(m)), 1.0)) * PLOT_H
    keep = np.arange(n)
    if n > 2 * columns:
        column = np.minimum((frac * columns).astype(np.intp), columns - 1)
        new = np.diff(column, prepend=-1) != 0
        starts = np.flatnonzero(new)
        segment = np.cumsum(new) - 1
        kept = [np.array([0, n - 1])]
        for reduce in (np.minimum, np.maximum):
            hits = np.flatnonzero(ys == reduce.reduceat(ys, starts)[segment])
            kept.append(hits[np.searchsorted(hits, starts)])
        keep = np.unique(np.concatenate(kept))
    drawn = np.column_stack((PLOT_X0 + frac[keep] * PLOT_W, ys[keep])).ravel().tolist()
    return " ".join(["%.2f,%.2f"] * len(keep)) % tuple(drawn)


def _msi_series(kind: str, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    if kind == "random":
        return np.cumsum(rng.uniform(0.0, 2.0, n)), rng.uniform(0.0, 100.0, n)
    if kind == "ties":  # few distinct values: every column has tied extremes
        return t, rng.integers(0, 4, n) * 12.5
    if kind == "gap":  # a jump in time: one pixel column holds most samples
        return np.where(np.arange(n) < n - 500, t, t + 1e6), rng.uniform(0.0, 1.0, n)
    steps = rng.uniform(0.0, 1e-4, n) * (rng.uniform(size=n) < 0.01)  # monotone with plateaus
    return t, np.round(np.cumsum(steps), 5)


@pytest.mark.parametrize("kind", ["random", "ties", "gap", "monotone"])
@pytest.mark.parametrize("chunk", [65536, 1000, 7])
def test_svg_draws_the_points_of_the_whole_series_drawing(monkeypatch, report, kind, chunk):
    monkeypatch.setattr(runtime, "BLOCK", chunk)
    for n, seed in ((int(2 * PLOT_W) + 1, 0), (200_003, 1), (70_000, 2)):
        series = _with_msi(report, *_msi_series(kind, n, seed))
        svg = render_report_svg(series)
        want = _whole_series_points(series)
        assert svg.count("<polyline") == 1 and f' points="{want}"/>' in svg, (kind, n)


def test_msi_csv_written(tmp_path, report):
    written = emit_report(report, tmp_path)
    lines = written["msi_csv"].read_text().strip().splitlines()
    assert lines[0] == "time_s,msi_percent"
    assert len(lines) == 1 + report.msi.time_s.size


def test_report_deterministic_modulo_timestamp(tmp_path, report):
    a = emit_report(report, tmp_path / "a")["report_json"].read_text()
    b = emit_report(report, tmp_path / "b")["report_json"].read_text()

    def strip(text):
        return "\n".join(ln for ln in text.splitlines() if "created_utc" not in ln)

    assert strip(a) == strip(b)


def test_compare_duplicate_nhm_rows_identical():
    trace = random_trace(41, n=500)
    table = compare(trace, ["NHM", "NHM"])
    assert len(table.rows) == 2
    r0, r1 = table.rows
    assert r0.rc_total == r1.rc_total
    assert r0.rc_total_vs_nhm == 1.0
    assert r1.ms_total_vs_nhm == 1.0


def test_compare_coupled_bundle_beats_nhm(broadband_seat):
    table = compare(broadband_seat, ["EXP", "NHM"])
    exp_row = next(r for r in table.rows if r.model_id == "EXP")
    nhm_row = next(r for r in table.rows if r.model_id == "NHM")
    assert exp_row.rc_total_vs_nhm > 1.0
    assert nhm_row.rc_total_vs_nhm == 1.0
    assert exp_row.msi_final > nhm_row.msi_final


def test_compare_table_schema():
    trace = random_trace(42, n=400)
    table = compare(trace, ["NHM", "NHM"])
    header = table.to_csv().splitlines()[0].split(",")
    for axis in AXES:
        assert f"rc_{axis}" in header
        assert f"ms_{axis}" in header
    for col in ("model", "rc_total", "ms_total", "msi_final",
                "rc_total_vs_nhm", "ms_total_vs_nhm"):
        assert col in header
    assert len(table.to_text().splitlines()) == 3


def test_compare_zero_nhm_baseline_has_no_ratio():
    zero = MotionTrace(sample_rate_hz=100.0, channels={a: np.zeros(300) for a in AXES})
    table = compare(zero, ["EXP", "NHM"])
    for row in table.rows:
        assert row.rc_total == row.ms_total == 0.0
        assert row.rc_total_vs_nhm is None and row.ms_total_vs_nhm is None
    for line in table.to_csv().splitlines()[1:]:
        assert line.endswith(",,") and "nan" not in line
    for line in table.to_text().splitlines()[1:]:
        assert line.split()[-2:] == ["-", "-"]


def test_compare_needs_two_models():
    with pytest.raises(ConfigError, match="2 models"):
        compare(random_trace(43, n=300), ["NHM"])


def test_compare_resolves_every_model_id_before_any_fft(monkeypatch):
    transforms, assessed = [], []
    rfft, assess_model = spectral.rfft, report_module.full_assessment

    def assess(spectra, bundle, **kwargs):
        assessed.append(bundle.model_id)
        return assess_model(spectra, bundle, **kwargs)

    monkeypatch.setattr(spectral, "rfft", lambda *a, **k: transforms.append(1) or rfft(*a, **k))
    monkeypatch.setattr(report_module, "full_assessment", assess)
    with pytest.raises(ConfigError, match="unknown model id 'FOO'"):
        compare(random_trace(43, n=300), ["EXP", "AHM", "foo"])
    assert transforms == [] and assessed == []
    compare(random_trace(43, n=300), ["ehm", "EXP"])
    assert len(transforms) == 6 and assessed == ["NHM", "EHM", "EXP"]


def test_emit_without_svc(tmp_path):
    report = full_assessment(random_trace(44, n=300), identity_bundle(), include_svc=False)
    written = emit_report(report, tmp_path)
    assert "msi_csv" not in written
    doc = json.loads(written["report_json"].read_text())
    assert doc["msi"] is None
    jsonschema.validate(doc, REPORT_SCHEMA)
