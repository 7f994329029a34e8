from __future__ import annotations

import numpy as np
import pytest

from motioncomfort import (
    AXES,
    ConfigError,
    DataError,
    MetricRegime,
    WeightingCurve,
    apply_weighting,
    builtin_weightings,
    motion_sickness_regime,
    ride_comfort_regime,
)
from motioncomfort.weighting import DEFAULT_K_FACTORS, WEIGHTING_NAMES, load_weighting_csv
from conftest import rel_err


def test_unity_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4096)
    y = apply_weighting(x, WeightingCurve.unity(), 100.0)
    assert rel_err(y, x) < 1e-9


def test_tabulated_magnitude_scales_sinusoid():
    fs, f0, n = 100.0, 2.0, 2000
    t = np.arange(n) / fs
    x = np.sin(2 * np.pi * f0 * t)
    curve = WeightingCurve(name="half", freq_hz=[1.0, 2.0, 4.0], magnitude=[0.5, 0.5, 0.5])
    y = apply_weighting(x, curve, fs)
    assert rel_err(y, 0.5 * x) < 1e-6


def test_zero_curve_annihilates():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(5000)
    curve = WeightingCurve(name="null", freq_hz=[0.0, 50.0], magnitude=[0.0, 0.0])
    y = apply_weighting(x, curve, 100.0)
    assert np.sqrt(np.mean(y**2)) < 1e-9 * np.sqrt(np.mean(x**2))


def test_registry_has_exactly_the_seven_names():
    registry = builtin_weightings()
    assert set(registry) == set(WEIGHTING_NAMES)
    assert len(registry) == 7
    assert registry["Unity"].magnitude[0] == 1.0


def test_wf_shape():
    wf = builtin_weightings()["Wf"]
    peak_freq = wf.freq_hz[np.argmax(wf.magnitude)]
    assert 0.125 <= peak_freq <= 0.25
    above_1hz = wf.magnitude[wf.freq_hz > 1.0]
    assert above_1hz.size and np.all(above_1hz < 0.1)


def test_wk_shape():
    wk = builtin_weightings()["Wk"]
    assert wk.at(1.0) < wk.at(8.0)


def test_zero_phase_preserves_even_symmetry():
    # an even signal has a real spectrum; real weighting keeps it real, so the
    # output stays even: no phase distortion
    rng = np.random.default_rng(2)
    n = 4096
    half = rng.standard_normal(n // 2 - 1)
    x = np.concatenate([[rng.standard_normal()], half, [rng.standard_normal()], half[::-1]])
    assert rel_err(x, np.roll(x[::-1], 1)) < 1e-12  # DFT-even
    wk = builtin_weightings()["Wk"]
    y = apply_weighting(x, wk, 100.0)
    assert rel_err(y, np.roll(y[::-1], 1)) < 1e-6


def test_energy_bound():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3000)
    for name in ("Wk", "We", "Wf", "Wfx"):
        curve = builtin_weightings()[name]
        y = apply_weighting(x, curve, 100.0)
        lhs = np.sqrt(np.mean(y**2))
        rhs = float(np.max(curve.magnitude)) * np.sqrt(np.mean(x**2))
        assert lhs <= rhs * (1 + 1e-12)


def test_default_regimes():
    rc = ride_comfort_regime()
    assert rc.kind == "RC"
    assert rc.axis_weighting["x"] == "Unity" and rc.axis_weighting["y"] == "Unity"
    assert rc.axis_weighting["z"] == "Wk"
    for axis in ("roll", "pitch", "yaw"):
        assert rc.axis_weighting[axis] == "We"
    ms = motion_sickness_regime()
    assert ms.kind == "MS"
    assert ms.axis_weighting["x"] == "Wfx"
    assert ms.axis_weighting["y"] == "Wfy"
    assert ms.axis_weighting["z"] == "Wf"
    for axis in ("roll", "pitch", "yaw"):
        assert ms.axis_weighting[axis] == "Wfr"
    for regime in (rc, ms):
        assert dict(regime.k_factors) == dict(DEFAULT_K_FACTORS)
    assert DEFAULT_K_FACTORS == {
        "x": 1.0, "y": 1.0, "z": 1.0, "roll": 0.63, "pitch": 0.4, "yaw": 0.2
    }


def test_regime_validation():
    with pytest.raises(ConfigError):
        MetricRegime(kind="XX", axis_weighting=dict.fromkeys(AXES, "Unity"),
                     k_factors=dict.fromkeys(AXES, 1.0))
    with pytest.raises(ConfigError):
        MetricRegime(kind="RC", axis_weighting={"x": "Unity"},
                     k_factors=dict.fromkeys(AXES, 1.0))
    with pytest.raises(ConfigError):
        MetricRegime(kind="RC", axis_weighting=dict.fromkeys(AXES, "Unity"),
                     k_factors=dict.fromkeys(AXES, -1.0))
    # One numeric rule with the config loader: no bools, no strings.
    for bad in (True, "2", None, np.inf):
        with pytest.raises(ConfigError, match="k factor"):
            MetricRegime(kind="RC", axis_weighting=dict.fromkeys(AXES, "Unity"),
                         k_factors={**dict.fromkeys(AXES, 1.0), "z": bad})
    for good in (2, np.float32(0.5), np.float64(1.5), np.int64(3)):
        regime = MetricRegime(kind="RC", axis_weighting=dict.fromkeys(AXES, "Unity"),
                              k_factors={**dict.fromkeys(AXES, 1.0), "z": good})
        assert type(regime.k_factors["z"]) is float and regime.k_factors["z"] == float(good)


def test_curve_validation():
    with pytest.raises(DataError):
        WeightingCurve(name="bad", freq_hz=[1.0, 2.0], magnitude=[-0.1, 0.5])
    with pytest.raises(DataError):
        WeightingCurve(name="bad", freq_hz=[2.0, 1.0], magnitude=[0.1, 0.5])


def test_weighting_file_grid_error_names_the_file(tmp_path):
    path = tmp_path / "wk_decreasing.csv"
    path.write_text("freq_hz,magnitude\n2.0,0.5\n1.0,0.4\n")
    with pytest.raises(DataError, match="strictly increasing") as err:
        load_weighting_csv(path)
    assert str(path) in str(err.value)
