"""Command-line interface.

Verbs: transmit, assess, compare, svc, synth, bench.  Errors print a single
``error[<kind>]: message`` line to stderr and exit with 2 (config), 3 (data)
or 4 (numeric failure).  That line is always the last on stderr: ``WARNING``
lines logged earlier in the run (an undersampled trace, a defaulted cross
channel) may come before it.  The summary goes to stdout once every output
is written; a stdout that its reader has closed loses only the summary, and
the run still exits 0.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .bench import benchmark
from .config import RunConfig, load_run_config
from .errors import ComfortError, ConfigError
from .frf import read_json_file
from .metrics import full_assessment
from .report import compare, compared_models, emit_report, save_msi_csv
from .svc import run_svc
from .traceio import DEMO_COMPONENTS, atomic_write_text, load_trace, save_trace, synth_trace
from .transmission import load_seat_spectra, transmit


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config with overrides")
    common.add_argument("--out", metavar="DIR", default=None, help="output directory")
    common.add_argument("-v", "--verbose", action="store_true", help="log each stage's seconds")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    model = argparse.ArgumentParser(add_help=False, parents=[common])  # for one-bundle verbs
    model.add_argument(
        "--model",
        metavar="ID",
        default="NHM",
        help="bundle configuration: EXP, AHM, EHM or NHM (default NHM)",
    )
    parser = argparse.ArgumentParser(
        prog="motioncomfort",
        description="Seat-to-head motion transmission and comfort assessment",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("transmit", parents=[model], help="predict head motion from a seat trace")
    p.add_argument("--trace", help="seat trace CSV (or 'trace' in --config)")

    p = sub.add_parser("assess", parents=[model], help="full comfort assessment of a seat trace")
    p.add_argument("--trace", help="seat trace CSV (or 'trace' in --config)")
    p.add_argument("--no-svc", action="store_true", help="skip the sickness-incidence model")

    p = sub.add_parser("compare", parents=[common], help="assess one trace under several models")
    p.allow_abbrev = False  # so --model is rejected, not read as --models
    p.add_argument("--trace", help="seat trace CSV (or 'trace' in --config)")
    p.add_argument(
        "--models",
        default="EXP,AHM,EHM,NHM",
        help="comma-separated model ids (default EXP,AHM,EHM,NHM)",
    )

    p = sub.add_parser("svc", parents=[common], help="sickness incidence of a head trace")
    p.add_argument("--trace", help="head trace CSV (or 'trace' in --config)")

    p = sub.add_parser("synth", parents=[common], help="write a synthetic trace")
    p.add_argument("--spec", help="JSON synthesis spec (list of components)")
    p.add_argument("--duration", type=float, default=60.0, help="seconds (default 60)")
    p.add_argument("--rate", type=float, default=100.0, help="sample rate Hz (default 100)")

    p = sub.add_parser("bench", parents=[model], help="time the full pipeline")
    p.add_argument("--duration", type=float, default=19807.0, help="seconds (default 19807)")
    p.add_argument("--rate", type=float, default=100.0, help="sample rate Hz (default 100)")
    p.add_argument("--no-svc", action="store_true", help="skip the sickness-incidence model")
    return parser


def _trace_path(args, cfg: RunConfig):
    path = args.trace or cfg.trace_path
    if path is None:
        raise ConfigError("no input trace: pass --trace or set 'trace' in the config")
    return path


def _run(args) -> list[str]:
    """Run one verb; return the summary lines for stdout, printed once every output is written."""
    cfg = load_run_config(args.config) if args.config else RunConfig()
    out_dir = Path(args.out) if args.out else (cfg.out_dir or Path("."))

    # No name holds a seat trace past the call that needs it: assess and compare get its
    # spectra, so it is freed after its forward FFTs, and transmit drops it with the breakdown.
    # A bundle or model id is resolved before the trace is read, so a bad one costs no FFT.
    if args.verb == "transmit":
        bundle = cfg.resolve_bundle(args.model)
        head = transmit(load_trace(_trace_path(args, cfg)), bundle)[0]
        out = out_dir / "head.csv"
        save_trace(head, out)
        return [f"wrote {out}"]

    if args.verb == "assess":
        bundle = cfg.resolve_bundle(args.model)
        report = full_assessment(
            load_seat_spectra(_trace_path(args, cfg)),
            bundle,
            rc=cfg.rc,
            ms=cfg.ms,
            svc_params=cfg.svc_params,
            registry=cfg.registry,
            include_svc=not args.no_svc,
        )
        written = emit_report(report, out_dir)
        totals = f"rc_total={report.rc.total:.6g} ms_total={report.ms.total:.6g}"
        if report.msi is not None:
            totals += f" msi_final={report.msi.final:.6g}"
        return [totals] + [f"wrote {path}" for path in written.values()]

    if args.verb == "compare":
        if cfg.bundle is not None:
            raise ConfigError("compare works on named model configurations, not a fixed manifest")
        model_ids = compared_models([m.strip() for m in args.models.split(",") if m.strip()])
        table = compare(
            load_seat_spectra(_trace_path(args, cfg)),
            model_ids,
            rc=cfg.rc,
            ms=cfg.ms,
            svc_params=cfg.svc_params,
            registry=cfg.registry,
        )
        out = out_dir / "comparison.csv"
        atomic_write_text(out, table.to_csv())
        return [table.to_text(), f"wrote {out}"]

    if args.verb == "svc":
        head = load_trace(_trace_path(args, cfg))
        series = run_svc(head, cfg.svc_params)
        out = out_dir / "msi.csv"
        save_msi_csv(series, out)
        return [f"msi_final={series.final:.6g}", f"wrote {out}"]

    if args.verb == "synth":
        if args.spec:
            components = read_json_file(args.spec, "synth spec", ConfigError)
            if not isinstance(components, list):
                raise ConfigError("synth spec must be a JSON list of components")
        else:
            components = DEMO_COMPONENTS
        trace = synth_trace(components, args.duration, args.rate)
        out = out_dir / "trace.csv"
        save_trace(trace, out)
        return [f"wrote {out}"]

    if args.verb == "bench":
        bundle = cfg.resolve_bundle(args.model)
        result = benchmark(args.duration, args.rate, bundle, include_svc=not args.no_svc)
        out = out_dir / "bench.json"
        atomic_write_text(out, json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n")
        return [result.summary(), f"wrote {out}"]

    raise ConfigError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        lines = _run(args)
    except ComfortError as exc:
        print(f"error[{exc.kind}]: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        # The reader closed stdout (`... | head -1`).  Every output is written by now, so only
        # the summary is lost; the exit's own flush of it goes to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
