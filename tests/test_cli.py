from __future__ import annotations

import json

import numpy as np
import pytest

from motioncomfort.cli import main
from motioncomfort import load_trace, save_trace
from conftest import random_trace


def _synth(tmp_path, duration="30"):
    rc = main(["synth", "--duration", duration, "--rate", "100", "--out", str(tmp_path)])
    assert rc == 0
    return tmp_path / "trace.csv"


def test_synth_then_assess(tmp_path, capsys):
    trace = _synth(tmp_path)
    rc = main(["assess", "--trace", str(trace), "--model", "EXP", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "rc_total=" in out and "msi_final=" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["model_id"] == "EXP"
    assert (tmp_path / "msi.csv").exists()
    assert (tmp_path / "report.svg").exists()


def test_transmit_writes_head_trace(tmp_path):
    trace = _synth(tmp_path)
    rc = main(["transmit", "--trace", str(trace), "--model", "NHM", "--out", str(tmp_path)])
    assert rc == 0
    head = load_trace(tmp_path / "head.csv")
    seat = load_trace(trace)
    np.testing.assert_allclose(
        head.channels["z"], seat.channels["z"], rtol=0, atol=1e-9
    )


def test_compare_writes_table(tmp_path, capsys):
    trace = _synth(tmp_path)
    rc = main(
        ["compare", "--trace", str(trace), "--models", "EXP,NHM", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "comparison.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert "EXP" in capsys.readouterr().out


def test_svc_verb(tmp_path, capsys):
    trace = _synth(tmp_path)
    rc = main(["svc", "--trace", str(trace), "--out", str(tmp_path)])
    assert rc == 0
    assert "msi_final=" in capsys.readouterr().out
    assert (tmp_path / "msi.csv").exists()


def test_bench_verb(tmp_path, capsys):
    rc = main(
        ["bench", "--duration", "30", "--rate", "100", "--model", "NHM", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "bench.json").read_text())
    assert doc["realtime_factor"] > 1.0
    assert "x realtime" in capsys.readouterr().out


def test_missing_trace_is_single_line_config_error(tmp_path, capsys):
    rc = main(["assess", "--trace", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error[config]:")


def test_malformed_trace_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t_s,ax,ay,az,aroll,apitch,ayaw\n0,1,2\n")
    rc = main(["assess", "--trace", str(bad), "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error[data]:")


@pytest.mark.parametrize("extra", [[], ["--no-svc"]])
def test_overflowing_trace_is_single_line_numeric_error(tmp_path, capsys, extra):
    trace = tmp_path / "big.csv"
    save_trace(random_trace(41, n=3000, scale=1e160), trace)
    out = tmp_path / "out"
    rc = main(["assess", "--trace", str(trace), "--model", "EXP", "--out", str(out), *extra])
    assert rc == 4
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("error[numeric]:")
    assert not (out / "report.json").exists()


def test_unknown_model_is_config_error(tmp_path, capsys):
    trace = _synth(tmp_path)
    rc = main(["assess", "--trace", str(trace), "--model", "XXX", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error[config]:")


def test_config_overrides_flow_into_report(tmp_path):
    trace = _synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_factors": {"pitch": 0.8}, "svc": {"tau_s": 4.0}}))
    rc = main(
        ["assess", "--trace", str(trace), "--model", "NHM",
         "--config", str(cfg), "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["config_echo"]["rc"]["k_factors"]["pitch"] == 0.8
    assert doc["config_echo"]["svc"]["tau_s"] == 4.0


def test_bad_config_key_rejected(tmp_path, capsys):
    trace = _synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k_factor": {"pitch": 0.8}}))
    rc = main(["assess", "--trace", str(trace), "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_custom_manifest_via_config(tmp_path):
    # point the config at the packaged EXP manifest explicitly
    from motioncomfort import frf

    manifest = frf._DATA_DIR / "bundles" / "exp" / "manifest.json"
    trace = _synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bundle_manifest": str(manifest)}))
    rc = main(["assess", "--trace", str(trace), "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["model_id"] == "EXP"


def test_trace_and_out_from_config(tmp_path, capsys):
    trace = _synth(tmp_path)
    out2 = tmp_path / "results"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trace": str(trace), "out": str(out2)}))
    rc = main(["assess", "--config", str(cfg)])
    assert rc == 0
    assert (out2 / "report.json").exists()


def test_missing_trace_everywhere_is_config_error(tmp_path, capsys):
    rc = main(["assess", "--out", str(tmp_path)])
    assert rc == 2
    assert "no input trace" in capsys.readouterr().err


def test_synth_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps([{"axis": "z", "kind": "sine", "amplitude": 1.0, "f0": 1.0}])
    )
    rc = main(
        ["synth", "--spec", str(spec), "--duration", "10", "--rate", "50",
         "--out", str(tmp_path)]
    )
    assert rc == 0
    trace = load_trace(tmp_path / "trace.csv")
    assert trace.n_samples == 500
    assert abs(np.sqrt(np.mean(trace.channels["z"] ** 2)) - 2**-0.5) < 1e-6


_SINE = {"axis": "z", "kind": "sine", "amplitude": 1.0, "f0": 1.0}
_NOISE = {"axis": "x", "kind": "noise", "amplitude": 1.0, "f0": 0.1, "f1": 2.0}


@pytest.mark.parametrize(
    "config, spec, duration, kind, code",
    [
        ({"k_factors": 5}, None, "1", "config", 2),
        ({"svc": [1, 2]}, None, "1", "config", 2),
        ({"weighting_files": "wk.csv"}, None, "1", "config", 2),
        ({"k_factors": {"pitch": -1}}, None, "1", "config", 2),
        ({"k_factors": {"heave": 1}}, None, "1", "config", 2),
        ({"svc": {"tau": 5}}, None, "1", "config", 2),
        ({"svc": {"tau_s": "5"}}, None, "1", "config", 2),
        ({"svc": {"b": 1e200}}, None, "1", "config", 2),
        (b'{"svc": {"\xff": 1}}', None, "1", "config", 2),
        (None, b'[{"axis": "\xff"}]', "1", "config", 2),
        (None, [5], "1", "config", 2),
        (None, [dict(_SINE, phase=0.3)], "1", "config", 2),
        (None, [{"axis": "z", "kind": "sine"}], "1", "config", 2),
        (None, [dict(_NOISE, f1="abc")], "1", "data", 3),
        (None, [dict(_SINE, amplitude="1.5")], "1", "data", 3),
        (None, [dict(_NOISE, seed=-1)], "1", "data", 3),
        (None, [dict(_NOISE, seed=1.5)], "1", "data", 3),
        (None, None, "nan", "data", 3),
        (None, None, "inf", "data", 3),
        (None, None, "1e12", "data", 3),
    ],
    ids=["k_factors", "svc", "weighting_files", "k_negative", "k_unknown_axis",
         "svc_unknown", "svc_string", "svc_hill_overflow", "config_not_utf8",
         "spec_not_utf8", "entry", "unknown_key", "missing_key",
         "f1", "amplitude", "seed", "seed_float", "duration_nan", "duration_inf",
         "duration_too_long"],
)
def test_malformed_config_or_synth_input_is_one_line_error(
    tmp_path, capsys, config, spec, duration, kind, code
):
    argv = ["synth", "--duration", duration, "--rate", "10", "--out", str(tmp_path)]
    for flag, name, doc in (("--config", "cfg.json", config), ("--spec", "spec.json", spec)):
        if doc is not None:
            text = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
            (tmp_path / name).write_bytes(text)
            argv += [flag, str(tmp_path / name)]
    assert main(argv) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[{kind}]:")
    assert not (tmp_path / "trace.csv").exists()


def _exp_manifest(first_file) -> dict:
    """The packaged EXP manifest with absolute channel paths, the first one `first_file`."""
    from motioncomfort import frf

    packaged = frf._DATA_DIR / "bundles" / "exp"
    manifest = json.loads((packaged / "manifest.json").read_text())
    for entry in manifest["channels"]:
        entry["file"] = str(packaged / entry["file"])
    manifest["channels"][0]["file"] = str(first_file)
    return manifest


def _bad_input(tmp_path, case: str) -> list[str]:
    """Write the config of one bad-input case and the files it names; return its flags."""
    cfg = tmp_path / "cfg.json"
    table = tmp_path / "tables"
    table.mkdir()
    if case == "weighting_dir":
        config = {"weighting_files": {"Wk": "tables"}}
    elif case == "weighting_not_utf8":
        (table / "wk.csv").write_bytes(b"freq_hz,magnitude\n0,1\n# \xff\n1,1\n")
        config = {"weighting_files": {"Wk": "tables/wk.csv"}}
    elif case in ("manifest_channel_dir", "manifest_not_utf8"):
        manifest = tmp_path / "manifest.json"
        if case == "manifest_channel_dir":
            manifest.write_text(json.dumps(_exp_manifest(first_file=table)))
        else:
            manifest.write_bytes(b'{"model_id": "\xff"}')
        config = {"bundle_manifest": str(manifest)}
    elif case == "svc_tau_negative":
        config = {"svc": {"tau_s": -1}}
    cfg.write_text(json.dumps(config))
    return ["--config", str(cfg)]


@pytest.mark.parametrize("verb", ["transmit", "assess", "synth"])
@pytest.mark.parametrize(
    "case, kind, code",
    [
        ("weighting_dir", "config", 2),
        ("weighting_not_utf8", "data", 3),
        ("manifest_channel_dir", "config", 2),
        ("manifest_not_utf8", "data", 3),
        ("svc_tau_negative", "config", 2),
    ],
)
def test_bad_input_file_is_one_line_error_before_the_trace_is_read(
    tmp_path, capsys, monkeypatch, verb, case, kind, code
):
    trace = tmp_path / "seat.csv"
    save_trace(random_trace(5, n=400), trace)
    read = []
    monkeypatch.setattr("motioncomfort.cli.load_trace", lambda path: read.append(path))
    argv = [verb, "--trace", str(trace)] if verb != "synth" else ["synth", "--duration", "1"]
    assert main([*argv, "--out", str(tmp_path / "out"), *_bad_input(tmp_path, case)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error[{kind}]:")
    assert read == [] and not (tmp_path / "out").exists()


def test_bad_svc_override_names_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"svc": {"tau_s": -1}}))
    assert main(["svc", "--trace", str(tmp_path / "absent.csv"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[config]: {cfg}: SVC parameter tau_s")
