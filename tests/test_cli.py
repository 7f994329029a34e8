from __future__ import annotations

import contextlib
import gc
import io
import json
import logging
import os
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from motioncomfort import cli, metrics, traceio
from motioncomfort.cli import main
from motioncomfort import AXES, MotionTrace, load_trace, save_trace
from motioncomfort.traceio import TRACE_HEADER
from motioncomfort.weighting import WEIGHTING_NAMES
from conftest import fuzzed_body, random_trace


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


@pytest.mark.parametrize("n", [3001, 100 * 683])  # 68,300 takes the prime-factor split
@pytest.mark.parametrize("verb", ["assess", "compare", "transmit"])
def test_the_seat_trace_is_freed_before_the_head_is_built_or_written(
    monkeypatch, tmp_path, verb, n
):
    # assess and compare hand the trace's spectra on, so no name holds the trace after its
    # forward FFTs; transmit drops it with the breakdown before head.csv is written.
    path = tmp_path / "trace.csv"
    save_trace(random_trace(45, n=n), path)
    traces, alive = [], []
    loader = cli if verb == "transmit" else traceio  # load_seat_spectra calls traceio.load_trace
    load = loader.load_trace

    def load_and_watch(trace_path):
        trace = load(trace_path)
        traces.append(weakref.ref(trace))
        return trace

    owner, name = (cli, "save_trace") if verb == "transmit" else (metrics, "head_spectra")
    spied = getattr(owner, name)
    monkeypatch.setattr(loader, "load_trace", load_and_watch)
    monkeypatch.setattr(
        owner, name, lambda *a, **k: alive.append(traces[0]() is not None) or spied(*a, **k)
    )
    args = ["--model", "EXP"] if verb != "compare" else ["--models", "EXP,NHM"]
    gc.disable()  # freed by its last reference going, not by a cycle collection
    try:
        assert main([verb, "--trace", str(path), *args, "--out", str(tmp_path)]) == 0
    finally:
        gc.enable()
    assert len(traces) == 1 and alive[0] is False
    assert len(alive) == (2 if verb == "compare" else 1)


@pytest.mark.parametrize("verb", ["compare", "svc", "synth"])
def test_model_flag_is_rejected_by_verbs_that_do_not_read_it(verb, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([verb, "--model", "EXP", "--out", str(tmp_path)])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --model EXP" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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
    for scale in (1e152, 1e160):  # at 1e160 the head power overflows, at 1e152 the read-off's sum
        trace = tmp_path / f"big{scale:g}.csv"
        save_trace(random_trace(41, n=3000, scale=scale), trace)
        out = tmp_path / f"out{scale:g}"
        rc = main(["assess", "--trace", str(trace), "--model", "EXP", "--out", str(out), *extra])
        assert rc == 4
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("error[numeric]:")
        assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "svc", [{"b": 1.0, "n": 1e300}, {"g": 1e300}], ids=["hill_overflow", "gain_overflow"]
)
def test_svc_values_that_overflow_at_run_time_are_one_numeric_error(tmp_path, capsys, svc):
    trace = _synth(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"svc": svc}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["assess", "--trace", str(trace), "--config", str(cfg), "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[numeric]:")
    assert not out.exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("verb", ["assess", "transmit"])
def test_unknown_model_is_config_error_before_the_trace_is_read(
    tmp_path, capsys, monkeypatch, verb
):
    trace = _synth(tmp_path)
    read = []
    monkeypatch.setattr(cli, "load_trace", lambda path: read.append(path))
    rc = main([verb, "--trace", str(trace), "--model", "XXX", "--out", str(tmp_path)])
    assert rc == 2 and read == []
    assert capsys.readouterr().err.startswith("error[config]:")


@pytest.mark.parametrize("models", ["EXP,AHM,FOO", "EXP", "EXP,,"])
def test_compare_model_ids_are_checked_before_the_trace_is_read(
    tmp_path, capsys, monkeypatch, models
):
    trace = _synth(tmp_path)
    read = []
    monkeypatch.setattr(cli, "load_trace", lambda path: read.append(path))
    rc = main(["compare", "--trace", str(trace), "--models", models, "--out", str(tmp_path)])
    assert rc == 2 and read == []
    assert capsys.readouterr().err.startswith("error[config]:")
    assert not (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize("verb", ["assess", "compare"])
def test_a_closed_stdout_exits_0_with_every_output_written_and_no_traceback(tmp_path, verb):
    # The pipe's read end is closed before the run starts, as in `motioncomfort assess ... |
    # true`: the summary cannot be printed, but the files are written first.
    trace = _synth(tmp_path)
    args = ["--model", "EXP"] if verb == "assess" else ["--models", "EXP,NHM"]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "motioncomfort.cli", verb, "--trace", str(trace), *args,
             "--out", str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    written = ["report.json", "msi.csv", "report.svg"] if verb == "assess" else ["comparison.csv"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(written)


_PEAK_SCRIPT = """
import re, sys
import motioncomfort.cli


def kib(field):
    with open("/proc/self/status") as status:
        return int(re.search(field + r":\\s+(\\d+) kB", status.read()).group(1))


base = kib("VmRSS")  # the resident set after the imports, not their peak
code = motioncomfort.cli.main(["assess", "--no-svc", "--model", "EXP", "--trace", sys.argv[1],
                               "--out", sys.argv[2]])
print(code, base, kib("VmHWM"))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_assess_holds_one_trace_sized_buffer_from_the_csv_to_the_head_spectra(tmp_path):
    # tracemalloc does not see the load's anonymous mapping, so this reads the peak RSS of a
    # fresh process above its RSS after the imports.  The peak is VmHWM, the process's own
    # (its ru_maxrss would also hold this process's peak, which exec carries over).  The
    # load's buffer (the seat, 1x, with its time column), the spectra written over it and one
    # rfft's scratch per thread come to about 2.2x the seat's bytes on 2 CPUs and 1.9x on one;
    # the spectra in memory of their own (`seat_spectra(load_trace(path))`) to 3.1x and 2.6x.
    # Values of 1/16 and a 128 Hz rate keep the CSV short (53 MB).
    n = 2**20
    rng = np.random.default_rng(7)
    trace = MotionTrace(128.0, {axis: rng.integers(-64, 64, n) / 16 for axis in AXES})
    path = tmp_path / "trace.csv"
    save_trace(trace, path)
    del trace
    src = str(Path(cli.__file__).resolve().parents[1])
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_var}
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_SCRIPT, str(path), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    code, base_kib, peak_kib = map(int, proc.stdout.splitlines()[-1].split())
    assert code == 0, proc.stderr
    assert (peak_kib - base_kib) * 1024 < 2.4 * len(AXES) * n * 8


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


def _exp_manifest(first_file=None) -> dict:
    """The packaged EXP manifest with absolute channel paths, the first one `first_file` if
    given."""
    from motioncomfort import frf

    packaged = frf._DATA_DIR / "bundles" / "exp"
    manifest = json.loads((packaged / "manifest.json").read_text())
    for entry in manifest["channels"]:
        entry["file"] = str(packaged / entry["file"])
    if first_file is not None:
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


def _run_cli(args) -> tuple[int, list[str]]:
    """`main(args)`'s exit code and stderr lines, log lines included as the console script
    prints them: without pytest's log handlers on the root logger, `main` installs its own."""
    stderr, root = io.StringIO(), logging.getLogger()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(stderr):
        mp.setattr(root, "handlers", [])
        mp.setattr(root, "level", root.level)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(args)
    return rc, stderr.getvalue().splitlines()


def _verb_args(verb: str, trace) -> list[str]:
    if verb == "synth":
        return ["synth", "--duration", "1"]
    if verb == "compare":
        return ["compare", "--trace", str(trace), "--models", "EXP,NHM"]
    return [verb, "--trace", str(trace), "--model", "EXP"]


@pytest.mark.parametrize("verb", ["assess", "compare"])
def test_overflowing_k_factor_exits_4_naming_its_axis(tmp_path, verb):
    save_trace(random_trace(10, n=300), tmp_path / "t.csv")
    (tmp_path / "cfg.json").write_text(json.dumps({"k_factors": {"z": 1e308}}))
    args = [*_verb_args(verb, tmp_path / "t.csv"), "--config", str(tmp_path / "cfg.json")]
    rc, err = _run_cli([*args, "--out", str(tmp_path / "out")])
    assert rc == 4
    _assert_one_error_line_last(err)
    assert err[-1].startswith("error[numeric]: ")
    assert "axis z, k=1e+308, v=" in err[-1] and "'x'" not in err[-1]


_OUTPUT_NAMES = ("head.csv", "msi.csv", "report.json", "report.svg", "comparison.csv", "trace.csv")


@pytest.mark.parametrize("verb", ["assess", "compare", "transmit", "synth"])
@pytest.mark.parametrize("case", ["file", "under_file", "target_is_dir"])
def test_unwritable_output_path_is_one_line_config_error(tmp_path, verb, case):
    trace = tmp_path / "seat.csv"
    save_trace(random_trace(6, n=400), trace)
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = {"file": afile, "under_file": afile / "sub", "target_is_dir": tmp_path / "out"}[case]
    if case == "target_is_dir":  # the rename fails, after the temp file is written
        for name in _OUTPUT_NAMES:
            (out / name).mkdir(parents=True)
    rc, err = _run_cli([*_verb_args(verb, trace), "--out", str(out)])
    assert rc == 2
    assert len(err) == 1 and err[0].startswith("error[config]: cannot write ")
    assert afile.read_text() == "kept\n"
    assert not [p for p in tmp_path.rglob("*.tmp")]


def test_manifest_missing_a_diagonal_prints_its_error_and_no_warning(tmp_path):
    manifest = _exp_manifest()
    manifest["channels"] = [e for e in manifest["channels"] if (e["set"], e["in"]) != (1, "z")]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "cfg.json").write_text(json.dumps({"bundle_manifest": "manifest.json"}))
    trace = tmp_path / "seat.csv"
    save_trace(random_trace(7, n=400), trace)
    argv = ["assess", "--trace", str(trace), "--config", str(tmp_path / "cfg.json")]
    rc, err = _run_cli([*argv, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert err == [f"error[data]: {tmp_path / 'manifest.json'}: missing diagonal channel set1:z->z"]


@pytest.mark.parametrize("case", ["set_float", "set_bool", "set_string_digit"])
def test_manifest_set_that_is_not_a_json_integer_is_a_malformed_entry(tmp_path, case):
    manifest = _edge_manifest(case)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "cfg.json").write_text(json.dumps({"bundle_manifest": "manifest.json"}))
    trace = tmp_path / "seat.csv"
    save_trace(random_trace(7, n=400), trace)
    argv = ["assess", "--trace", str(trace), "--config", str(tmp_path / "cfg.json")]
    rc, err = _run_cli([*argv, "--out", str(tmp_path / "out")])
    assert rc == 3
    entry = manifest["channels"][0]
    assert err == [f"error[data]: {tmp_path / 'manifest.json'}: malformed channel entry {entry!r}"]


@pytest.mark.parametrize("name", ["wk", "Zz"])
def test_weighting_file_named_for_no_builtin_curve_is_a_config_error(tmp_path, name):
    (tmp_path / "w.csv").write_text("freq_hz,magnitude\n0,2\n10,2\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weighting_files": {name: "w.csv"}}))
    trace = tmp_path / "seat.csv"
    save_trace(random_trace(8, n=400), trace)
    argv = ["assess", "--trace", str(trace), "--config", str(cfg), "--out", str(tmp_path / "out")]
    rc, err = _run_cli(argv)
    assert rc == 2
    names = sorted(WEIGHTING_NAMES)
    assert err == [f"error[config]: {cfg}: weighting_files name {name!r} not in {names}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "case, message",
    [
        ("trace_nan", "channel y contains non-finite samples"),
        ("frf_gain_negative", "gains must be finite and >= 0"),
        ("weighting_negative", "weighting magnitudes must be finite and >= 0"),
        ("model_id_unknown", "unknown model id 'XHM'"),
    ],
)
def test_content_error_from_a_loaded_file_names_that_file(tmp_path, case, message):
    trace = tmp_path / "seat.csv"
    save_trace(random_trace(9, n=400), trace)
    config, manifest = {}, _exp_manifest()
    if case == "trace_nan":
        named = trace
        lines = trace.read_text().splitlines()
        cells = lines[5].split(",")
        cells[2] = "nan"
        lines[5] = ",".join(cells)
        trace.write_text("\n".join(lines) + "\n")
    elif case == "frf_gain_negative":
        named = tmp_path / "set1_z_pitch.csv"
        named.write_text("freq_hz,gain,phase_deg\n0.5,0.1,0\n5,-0.1,-10\n")
        manifest = _exp_manifest(first_file=named)
    elif case == "weighting_negative":
        named = tmp_path / "wk.csv"
        named.write_text("freq_hz,magnitude\n0.5,1\n5,-1\n")
        config["weighting_files"] = {"Wk": str(named)}
    else:
        named = tmp_path / "manifest.json"
        manifest["model_id"] = "XHM"
    if case in ("frf_gain_negative", "model_id_unknown"):
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        config["bundle_manifest"] = "manifest.json"
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    argv = ["assess", "--trace", str(trace), "--config", str(tmp_path / "cfg.json")]
    rc, err = _run_cli([*argv, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert len(err) == 1 and err[0].startswith(f"error[data]: {named}: {message}")


# SVC overrides the validators accept, two of which overflow at run time, and one they reject.
SVC_OVERRIDES = [
    None, {"tau_s": 4.0}, {"b": 1.0, "n": 1e300}, {"g": 1e300}, {"mu_s": 1e-300}, {"tau_s": -1}
]


@settings(max_examples=100, deadline=None)
@given(
    body=fuzzed_body() | fuzzed_body(fuzz=False),
    svc=st.sampled_from(SVC_OVERRIDES),
    model=st.sampled_from(["EXP", "NHM"]),
    no_svc=st.booleans(),
)
def test_cli_assess_exits_0_with_strict_json_or_prints_one_error_line(body, svc, model, no_svc):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trace, out = tmp / "t.csv", tmp / "out"
        trace.write_bytes(TRACE_HEADER.encode() + b"\n" + body)
        args = ["assess", "--trace", str(trace), "--model", model, "--out", str(out)]
        args += ["--no-svc"] if no_svc else []
        if svc is not None:
            (tmp / "cfg.json").write_text(json.dumps({"svc": svc}))
            args += ["--config", str(tmp / "cfg.json")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = _run_cli(args)
        event(f"exit {rc}")
        if rc == 0:
            doc = json.loads((out / "report.json").read_text(), parse_constant=_not_strict_json)
            if not no_svc:
                assert 0.0 <= doc["msi"]["final"] <= 100.0
                msi = np.loadtxt(out / "msi.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
                assert np.all((msi >= 0.0) & (msi <= 100.0))
        else:
            assert rc in (2, 3, 4)
            _assert_one_error_line_last(err)


def _assert_one_error_line_last(err: list[str]) -> None:
    """The CLI's error contract: one `error[kind]` line, last, after only `WARNING` lines (an
    undersampled trace or a defaulted cross channel is logged before a later error)."""
    assert err and err[-1].startswith("error[")
    assert all(line.startswith("WARNING ") for line in err[:-1])


def _not_strict_json(name: str):
    raise AssertionError(f"report.json holds {name}, which strict JSON has not")


def _edge_manifest(case: str) -> dict:
    """The EXP manifest with a diagonal or a cross channel dropped, one channel twice, or one
    channel's set mislabelled or not a JSON integer."""
    manifest = _exp_manifest()
    channels = manifest["channels"]
    keys = [(e["set"], e["in"], e["out"]) for e in channels]
    if case == "missing_diagonal":
        del channels[keys.index((1, "z", "z"))]
    elif case == "missing_cross":
        del channels[keys.index((1, "z", "pitch"))]
    elif case == "duplicate":
        channels.append(dict(channels[0]))
    else:
        channels[0]["set"] = {
            "set_7": 7, "set_text": "one", "set_float": 1.5, "set_bool": True,
            "set_string_digit": "1",
        }[case]
    return manifest


_EDGE_MANIFESTS = [
    "missing_diagonal", "missing_cross", "duplicate", "set_7", "set_text", "set_float", "set_bool",
    "set_string_digit",
]
# Frequency columns of a weighting file: two points, one, a repeated one, and a decreasing pair.
_EDGE_GRIDS = {"two": (0.5, 50.0), "one": (0.5,), "duplicate": (0.5, 0.5, 50.0),
               "decreasing": (50.0, 0.5)}


@settings(max_examples=200, deadline=None)
@given(
    verb=st.sampled_from(["assess", "compare", "transmit"]),
    out=st.just("dir") | st.sampled_from(["file", "under_file"]),
    manifest=st.none() | st.sampled_from(_EDGE_MANIFESTS),
    weighting=st.none()
    | st.tuples(
        st.sampled_from(["Wk", "Wfx", "Unity", "wk", "Zz"]),
        st.sampled_from([0.0, 1.0, 1e300, -1.0]),
        st.sampled_from(sorted(_EDGE_GRIDS)),
    ),
    k_factor=st.none()
    | st.sampled_from(
        [("z", -1.0), ("z", float("nan")), ("pitch", True), ("z", "1"), ("z", 1e308), ("q", 1.0)]
    ),
)
def test_cli_config_and_output_edges_exit_0_with_strict_json_or_print_one_error_line(
    verb, out, manifest, weighting, k_factor
):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        trace, config = tmp / "t.csv", {}
        save_trace(random_trace(10, n=300), trace)
        (tmp / "afile").write_text("kept\n")
        afile = tmp / "afile"
        out_dir = {"dir": tmp / "out", "file": afile, "under_file": afile / "sub"}[out]
        if manifest is not None:
            (tmp / "manifest.json").write_text(json.dumps(_edge_manifest(manifest)))
            config["bundle_manifest"] = "manifest.json"
        if weighting is not None:
            name, magnitude, grid = weighting
            rows = "".join(f"{f!r},{magnitude!r}\n" for f in _EDGE_GRIDS[grid])
            (tmp / "w.csv").write_text("freq_hz,magnitude\n" + rows)
            config["weighting_files"] = {name: "w.csv"}
        if k_factor is not None:
            config["k_factors"] = dict([k_factor])  # json writes NaN, which it also reads
        (tmp / "cfg.json").write_text(json.dumps(config))
        args = [*_verb_args(verb, trace), "--config", str(tmp / "cfg.json"), "--out", str(out_dir)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, err = _run_cli(args)
        event(f"{verb} exit {rc}")
        if rc == 0:
            if verb == "assess":
                text = (out_dir / "report.json").read_text()
                doc = json.loads(text, parse_constant=_not_strict_json)
                assert 0.0 <= doc["msi"]["final"] <= 100.0
            else:
                assert (out_dir / ("head.csv" if verb == "transmit" else "comparison.csv")).exists()
        else:
            assert rc in (2, 3, 4)
            _assert_one_error_line_last(err)
        assert (tmp / "afile").read_text() == "kept\n"
        assert not [p for p in tmp.rglob("*.tmp")]
