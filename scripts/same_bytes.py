#!/usr/bin/env python3
"""Check that the threaded stages and every trace parse path write the same bytes.

Usage: python scripts/same_bytes.py OUT [--against MANIFEST]

Runs ``python -m motioncomfort.cli`` from whatever package is importable (set PYTHONPATH to
a checkout's ``src`` to check that checkout) on four synthetic traces:

- prime: 6,007 samples, a prime, so pocketfft runs Bluestein FFTs;
- blocks: 262,145 samples, 131,073 bins: two blocks of the product build, SVC's last block
  is 1 sample;
- split: 68,300 = 2^2 * 5^2 * 683 samples, prime-factor split FFTs;
- oddsplit: 68,983 = 101 * 683 samples, a split with an odd cofactor.

Each trace runs on one CPU (the process pinned to one usable CPU: no helper thread, no fork)
and on all of them, and the checks below must hold; the first that fails ends the run with
exit code 1.  Then every file under OUT is hashed (sha256, with each ``"created_utc"`` line of
a JSON file left out) into OUT/manifest.json.  With ``--against``, the paths whose hashes
differ from those of MANIFEST (or that only one of the two has) are printed, and the exit
code is 1 if there are any: run it once in each of two checkouts to see which outputs a
change moves.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterator

TRACES = {"prime": "60.07", "blocks": "2621.45", "split": "683", "oddsplit": "689.83"}
CPUS = ("one", "all")
MODELS = {"blocks": ["EXP", "AHM", "EHM", "NHM"], "split": ["EXP", "NHM"],
          "oddsplit": ["EXP", "NHM"]}  # the seat spectra handed over; all four at blocks
CREATED = b'"created_utc"'


class Mismatch(Exception):
    pass


def _pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def cli(cpus: str, *args: str) -> None:
    """``python -m motioncomfort.cli *args``, on one usable CPU or on all."""
    pin = _pin_to_one_cpu if cpus == "one" else None
    subprocess.run([sys.executable, "-m", "motioncomfort.cli", *args], check=True,
                   preexec_fn=pin)


def stripped(path: Path) -> bytes:
    """The file's bytes, without the lines that hold ``"created_utc"`` if it is JSON."""
    data = path.read_bytes()
    if path.suffix != ".json":
        return data
    return b"".join(line for line in data.splitlines(True) if CREATED not in line)


def same(a: Path, b: Path, what: str) -> None:
    if stripped(a) != stripped(b):
        raise Mismatch(f"{a} and {b} differ: {what}")


def copies(trace: Path) -> Iterator[tuple[str, bytes]]:
    """The CRLF, commented, late and CR-only copies of an LF trace file, one at a time."""
    data = trace.read_bytes()
    yield "crlf", data.replace(b"\n", b"\r\n")
    lines = data.splitlines(True)
    yield "commented", b"".join(b"# a comment\n\n" * ((i + 1) % 1000 == 0) + line
                                for i, line in enumerate(lines))
    at = len(lines) * 7 // 10 - 1  # a '#' line and a whitespace-only line at about 70 %
    yield "late", b"".join(lines[:at] + [b"# late\n", b"   \n"] + lines[at:])
    yield "cr", data.replace(b"\n", b"\r")


def check_compare_rows(folder: Path, models: list[str]) -> None:
    """Each compare row is that model's own assess, also for the models that run on a copy of
    the shared seat spectra.  EXP's assess ran into `folder`, each other model's below it."""
    rows = list(csv.DictReader(open(folder / "comparison.csv")))
    docs = {r["model"]: json.loads((folder / ("" if r["model"] == "EXP" else r["model"])
                                    / "report.json").read_text()) for r in rows}
    keys = (("rc", "total"), ("ms", "total"), ("msi", "final"))
    bad = [r["model"] for r in rows
           if [float(r[k]) for k in ("rc_total", "ms_total", "msi_final")]
           != [docs[r["model"]][k][v] for k, v in keys]]
    if len(rows) != len(models) or bad:
        raise Mismatch(f"{folder}: compare rows differ from assess: {bad}")


def check_trace(out: Path, name: str, duration: str) -> None:
    base = out / name
    cli("all", "synth", "--duration", duration, "--out", str(base))
    trace = str(base / "trace.csv")
    models = MODELS.get(name, [])
    for cpus in CPUS:
        here = base / cpus
        cli(cpus, "transmit", "--trace", trace, "--model", "EXP", "--out", str(here))
        cli(cpus, "assess", "--trace", trace, "--model", "EXP", "--out", str(here))
        # The public run_svc on the head that transmit wrote gives assess's MSI bytes.
        cli(cpus, "svc", "--trace", str(here / "head.csv"), "--out", str(here / "svc"))
        same(here / "msi.csv", here / "svc" / "msi.csv", "svc against assess")
        if models:
            cli(cpus, "compare", "--trace", trace, "--models", ",".join(models), "--out",
                str(here))
            for m in models[1:]:
                cli(cpus, "assess", "--trace", trace, "--model", m, "--out", str(here / m))
            check_compare_rows(here, models)
        if name == "blocks":  # without SVC no head trace is built; RC and MS must not change
            cli(cpus, "assess", "--no-svc", "--trace", trace, "--model", "EXP", "--out",
                str(here / "nosvc"))
            full, nosvc = (json.loads((here / p).read_text())
                           for p in ("report.json", "nosvc/report.json"))
            if [full[k] for k in ("rc", "ms")] != [nosvc[k] for k in ("rc", "ms")]:
                raise Mismatch(f"{here}: assess --no-svc: rc/ms differ from assess")
    files = ["head.csv", "msi.csv", "report.json"]
    files += ["comparison.csv"] if models else []
    files += ["nosvc/report.json"] if name == "blocks" else []
    for f in files:
        same(base / "one" / f, base / "all" / f, "one CPU against all")
    # A CRLF copy, whose line ends the load makes LFs before either parse sees them; a
    # commented copy (a '#' line and a blank line every 1,000 rows, whose gaps the load
    # closes); a late copy (numpy reads the piece that holds its '#' and whitespace-only
    # lines, the pieces after it are read strictly); a CR-only copy.  Each is read on one CPU
    # and on all, and gives the LF original's bytes.  The prime trace takes the CRLF copy only.
    for form, data in copies(base / "trace.csv"):
        if name == "prime" and form != "crlf":
            break
        (base / form).mkdir()
        (base / form / "trace.csv").write_bytes(data)
        for cpus in CPUS:
            here, args = base / form / cpus, ["--trace", str(base / form / "trace.csv")]
            if form == "crlf":
                cli(cpus, "transmit", *args, "--model", "EXP", "--out", str(here))
            cli(cpus, "assess", *args, "--model", "EXP", "--out", str(here))
            for f in ["head.csv"] * (form == "crlf") + ["msi.csv", "report.json"]:
                same(base / "all" / f, here / f, f"LF against {form} on {cpus} CPU(s)")


def manifest(out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(stripped(p)).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="a new or empty folder for the outputs")
    parser.add_argument("--against", type=Path, help="a manifest.json to diff against")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    try:
        for name, duration in TRACES.items():
            check_trace(args.out, name, duration)
    except (Mismatch, subprocess.CalledProcessError) as exc:
        print(exc, file=sys.stderr)
        return 1
    hashes = manifest(args.out)
    (args.out / "manifest.json").write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"{len(hashes)} outputs, every check held: {args.out / 'manifest.json'}")
    if args.against is None:
        return 0
    theirs = json.loads(args.against.read_text())
    differ = sorted(p for p in hashes.keys() | theirs.keys() if hashes.get(p) != theirs.get(p))
    for path in differ:
        print(path)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
