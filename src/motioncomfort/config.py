"""Run configuration: file-based overrides for bundles, weightings and SVC."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .frf import AXES, FrfBundle, _is_real, builtin_bundle, load_frf_bundle
from .svc import SvcParams
from .weighting import (
    DEFAULT_K_FACTORS,
    WeightingCurve,
    builtin_weightings,
    load_weighting_csv,
    motion_sickness_regime,
    ride_comfort_regime,
)

_SVC_FIELDS = set(SvcParams().as_dict())


@dataclass(frozen=True)
class RunConfig:
    """Validated override set, loaded from a JSON file.

    Recognized keys: ``trace`` (input trace path), ``out`` (output
    directory), ``bundle_manifest`` (path), ``k_factors`` (axis -> number),
    ``weighting_files`` (curve name -> CSV path), ``svc`` (SvcParams
    fields).  Relative paths resolve against the config file's directory.
    Command-line flags take precedence over ``trace`` and ``out``.
    """

    trace_path: Path | None = None
    out_dir: Path | None = None
    bundle_manifest: Path | None = None
    k_factors: Mapping[str, float] = field(default_factory=dict)
    weighting_files: Mapping[str, Path] = field(default_factory=dict)
    svc_overrides: Mapping[str, float] = field(default_factory=dict)

    def registry(self) -> dict[str, WeightingCurve]:
        curves = builtin_weightings()
        for name, path in self.weighting_files.items():
            curves[name] = load_weighting_csv(path, name=name)
        return curves

    def regimes(self):
        merged = dict(DEFAULT_K_FACTORS)
        merged.update(self.k_factors)
        return ride_comfort_regime(merged), motion_sickness_regime(merged)

    def svc_params(self) -> SvcParams:
        return SvcParams(**self.svc_overrides)

    def resolve_bundle(self, model_id: str | None) -> FrfBundle:
        if self.bundle_manifest is not None:
            return load_frf_bundle(self.bundle_manifest)
        return builtin_bundle(model_id or "NHM")


def load_run_config(path) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    known = {"trace", "out", "bundle_manifest", "k_factors", "weighting_files", "svc"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")

    for key in ("k_factors", "weighting_files", "svc"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{path}: {key} must be a JSON object")

    base = path.parent

    def resolve(p) -> Path:
        p = Path(str(p))
        return p if p.is_absolute() else base / p

    trace_path = None
    if "trace" in raw:
        trace_path = resolve(raw["trace"])
        if not trace_path.exists():
            raise ConfigError(f"{path}: trace file not found: {trace_path}")

    out_dir = resolve(raw["out"]) if "out" in raw else None

    bundle_manifest = None
    if "bundle_manifest" in raw:
        bundle_manifest = resolve(raw["bundle_manifest"])
        if not bundle_manifest.exists():
            raise ConfigError(f"{path}: bundle manifest not found: {bundle_manifest}")

    k_factors: dict[str, float] = {}
    for axis, value in raw.get("k_factors", {}).items():
        if axis not in AXES:
            raise ConfigError(f"{path}: unknown axis {axis!r} in k_factors")
        if not _is_real(value) or value < 0:
            raise ConfigError(f"{path}: k_factors[{axis}] must be a number >= 0")
        k_factors[axis] = float(value)

    weighting_files: dict[str, Path] = {}
    for name, ref in raw.get("weighting_files", {}).items():
        p = resolve(ref)
        if not p.exists():
            raise ConfigError(f"{path}: weighting file for {name!r} not found: {p}")
        weighting_files[str(name)] = p

    svc_overrides: dict[str, float] = {}
    for name, value in raw.get("svc", {}).items():
        if name not in _SVC_FIELDS:
            raise ConfigError(f"{path}: unknown svc parameter {name!r}")
        if not _is_real(value):
            raise ConfigError(f"{path}: svc parameter {name} must be a number")
        svc_overrides[name] = float(value)

    return RunConfig(
        trace_path=trace_path,
        out_dir=out_dir,
        bundle_manifest=bundle_manifest,
        k_factors=k_factors,
        weighting_files=weighting_files,
        svc_overrides=svc_overrides,
    )
