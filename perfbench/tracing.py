"""Per-layer spans recorded from outside the program.

`Tracer.install` wraps the public functions listed in `TARGETS` with timing
wrappers.  A wrapper replaces every binding of the original object inside the
``motioncomfort`` package (module globals such as ``motioncomfort.cli.load_trace``,
class attributes, and keyword defaults such as ``compare(resolve_bundle=...)``),
so it sits on the name each calling module looks up.  A target that no longer
exists is reported as absent.

Spans hold (id, parent id, name, start, end, counters) and stay in memory
until `dump` writes them out.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

LAYERS = ("traceio", "frf", "spectral", "transmission", "weighting", "metrics", "svc", "report", "cli")
HARNESS = "bench"  # prefix of the harness's own spans (passes and items)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_mb(path) -> float:
    return os.path.getsize(path) / 1e6


#: (module, attribute path, {counter: f(args, kwargs, result)}) per traced function.
TARGETS = (
    ("traceio", "load_trace", {"mb_in": lambda a, k, r: _file_mb(_arg(a, k, 0, "path"))}),
    ("traceio", "save_trace", {"mb_out": lambda a, k, r: _file_mb(_arg(a, k, 1, "path"))}),
    ("traceio", "atomic_write_text", {"mb_out": lambda a, k, r: _file_mb(_arg(a, k, 0, "path"))}),
    ("frf", "builtin_bundle", {}),
    ("frf", "evaluate_grid", {"points": lambda a, k, r: len(_arg(a, k, 1, "freqs"))}),
    ("spectral", "rfft", {"fft_points": lambda a, k, r: len(_arg(a, k, 0, "signal"))}),
    ("spectral", "irfft", {"fft_points": lambda a, k, r: int(_arg(a, k, 1, "n"))}),
    ("transmission", "transmit", {}),
    ("transmission", "MotionTrace.__post_init__", {}),
    ("weighting", "WeightingCurve.at", {}),
    ("metrics", "full_assessment", {}),
    ("svc", "run_svc", {"samples": lambda a, k, r: _arg(a, k, 0, "head").n_samples}),
    ("report", "emit_report", {"mb_out": lambda a, k, r: sum(_file_mb(p) for p in r.values())}),
    ("report", "render_report_svg", {"kb_out": lambda a, k, r: len(r.encode()) / 1e3}),
    ("report", "compare", {}),
    ("cli", "main", {}),
)

COUNTER_UNITS = {"mb_in": "MB", "mb_out": "MB", "kb_out": "kB", "points": "count", "samples": "count"}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for module, attr, counters in TARGETS:
        base = f"{module}.{attr}"
        names += [(f"{base}.calls", "count"), (f"{base}.self_s", "s")]
        names += [(f"{base}.{c}", COUNTER_UNITS[c]) for c in counters if c != "fft_points"]
        if attr == "irfft":
            names.append(("spectral.fft_points", "count"))
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("unattributed_s", "s"), ("trace_overhead", "ratio")]
    return names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, counters]
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (kind, owner, key, original)
        self.absent: list[str] = []
        self.counter_errors: dict[str, int] = {}

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, name, time.perf_counter(), None, {}])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, counters):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span_id)
            for counter, measure in counters.items():
                try:
                    tracer.spans[span_id][5][counter] = measure(args, kwargs, result)
                except (LookupError, TypeError, AttributeError, OSError):
                    tracer.counter_errors[name] = tracer.counter_errors.get(name, 0) + 1
            return result

        return wrapper

    # -- installation --------------------------------------------------------
    def install(self, package: str = "motioncomfort") -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for module, attr, counters in TARGETS:
            name = f"{module}.{attr}"
            owner = sys.modules.get(f"{package}.{module}")
            original = owner
            for part in attr.split(".") if owner is not None else ():
                owner, original = original, getattr(original, part, None)
            if original is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, counters)
            if attr.count("."):  # a method: patch the class attribute
                self._patch("attr", owner, attr.rsplit(".", 1)[1], original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch("attr", mod, key, original, wrapper)
                    elif callable(value) and getattr(value, "__kwdefaults__", None):
                        for kw, default in value.__kwdefaults__.items():
                            if default is original:
                                self._patch("kwdefault", value, kw, original, wrapper)

    def _patch(self, kind, owner, key, original, wrapper) -> None:
        if kind == "attr":
            setattr(owner, key, wrapper)
        else:
            owner.__kwdefaults__[key] = wrapper
        self._patches.append((kind, owner, key, original))

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._patches):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner.__kwdefaults__[key] = original
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, start, end, counters in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, **counters}) + "\n")

    def summary(self, untraced_walls: list[float]) -> dict[str, float]:
        """Per-pass means of every per-layer metric over the traced passes."""
        child_s = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        totals: dict[str, float] = {name: 0.0 for name, _ in metric_names()}
        pass_walls, top_level_s = [], 0.0
        for span_id, parent, name, start, end, counters in self.spans:
            if name == f"{HARNESS}.pass":
                pass_walls.append(end - start)
                continue
            if name.startswith(HARNESS + "."):
                continue
            self_s = end - start - child_s[span_id]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
            totals[f"{name.split('.', 1)[0]}.self_s"] += self_s
            for counter, value in counters.items():
                key = "spectral.fft_points" if counter == "fft_points" else f"{name}.{counter}"
                totals[key] += value
            if parent is None or self.spans[parent][2].startswith(HARNESS + "."):
                top_level_s += end - start
        passes = max(len(pass_walls), 1)
        metrics = {k: v / passes for k, v in totals.items()}
        metrics["unattributed_s"] = (sum(pass_walls) - top_level_s) / passes
        metrics["trace_overhead"] = (
            statistics.median(pass_walls) / statistics.median(untraced_walls) - 1.0
            if pass_walls and untraced_walls
            else 0.0
        )
        return metrics
