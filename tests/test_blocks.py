"""No output depends on `runtime.BLOCK`, the block size of every streamed loop.

The read-offs, the channel-product build, a split FFT's row passes and bin gather, the MSI
CSV's formatted chunks, a load's gap-closing move and rate check and the SVG thinning all
take `runtime.BLOCK` elements at a time.  Each output of the pipeline must keep its bytes at
any block size of at least 2, in particular at sizes that do not divide the lengths.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from motioncomfort import runtime, traceio
from motioncomfort.errors import DataError
from motioncomfort.frf import AXES, builtin_bundle
from motioncomfort.metrics import full_assessment
from motioncomfort.report import compare, render_report_svg, save_msi_csv
from motioncomfort.traceio import load_trace, save_trace
from motioncomfort.transmission import transmit
from conftest import random_trace


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return digest.hexdigest()


def _commented_copy(seat, path) -> None:
    """`seat` saved as CSV with a comment line and a blank line every 1,000 rows."""
    save_trace(seat, path)
    lines = path.read_bytes().split(b"\n")
    for at in range(len(lines) - len(lines) % 1000, 0, -1000):
        lines[at:at] = [b"# a comment", b""]
    path.write_bytes(b"\n".join(lines))


def _digests(seat, commented, out) -> dict[str, str]:
    """The sha256 of each output of the pipeline on `seat` at the current `runtime.BLOCK`."""
    bundle = builtin_bundle("EXP")
    head, _ = transmit(seat, bundle)
    report = full_assessment(seat, bundle)
    save_msi_csv(report.msi, out / "msi.csv")
    with pytest.MonkeyPatch.context() as mp:  # three ranges on any CPU count: two gaps to close
        mp.setattr(runtime, "usable_cpus", lambda: 3)
        mp.setattr(traceio, "_MIN_CHUNK_BYTES", commented.stat().st_size // 3)
        loaded = load_trace(commented)
    per_axis = [getattr(report, r).per_axis[a] for r in ("rc", "ms") for a in AXES]
    return {
        "transmit head": _sha(*(head.channels[a] for a in AXES)),
        "rc and ms": _sha(np.array(per_axis)),
        "msi": _sha(report.msi.time_s, report.msi.msi_percent),
        "report.svg": _sha(render_report_svg(report).encode()),
        "msi.csv": _sha((out / "msi.csv").read_bytes()),
        "compare": _sha(compare(seat, ["EXP", "NHM"]).to_csv().encode()),
        "commented load": _sha(np.float64(loaded.sample_rate_hz), *loaded.channels.values()),
    }


# 6,007 is a prime (pocketfft's Bluestein); 68,300 = 100 * 683 and 68,983 = 101 * 683 are
# split, even and odd, with two row passes at the default size; 262,144 has 131,073 bins, two
# read-off and gather blocks.  4,099 and 1,031 are primes; 64 cuts every loop into many blocks
# and a split's row passes into single rows, and runs at two lengths only, to keep the run short.
@pytest.mark.parametrize(
    "n, blocks",
    [(6007, (4099, 1031, 64)), (68_300, (4099, 1031, 64)), (68_983, (4099, 1031)),
     (262_144, (4099, 1031))],
)
def test_no_output_depends_on_the_block_size(tmp_path, n, blocks):
    seat = random_trace(n % 997, n=n)
    commented = tmp_path / "commented.csv"
    _commented_copy(seat, commented)
    want = _digests(seat, commented, tmp_path)  # at the default size
    for block in blocks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runtime, "BLOCK", block)
            got = _digests(seat, commented, tmp_path)
        assert [k for k in want if got[k] != want[k]] == [], block


@pytest.mark.parametrize("block", [runtime.BLOCK, 4099, 1031, 64])
def test_a_repeated_time_next_to_a_block_edge_is_found_at_every_block_size(
    tmp_path, monkeypatch, block
):
    # The rate check's blocks overlap by one sample, so the step across an edge is checked.
    monkeypatch.setattr(runtime, "BLOCK", block)
    path = tmp_path / "t.csv"
    for at in (block - 1, block, block + 1):  # the steps into, across and out of the edge
        t = np.arange(block + 100) / 100.0
        t[at] = t[at - 1]
        rows = "".join(f"{v!r},0,0,0,0,0,0\n" for v in t.tolist())
        path.write_text(traceio.TRACE_HEADER + "\n" + rows)
        with pytest.raises(DataError, match="time column is not strictly increasing"):
            load_trace(path)
