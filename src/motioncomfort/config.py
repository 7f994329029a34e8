"""Run configuration: file-based overrides for bundles, weightings and SVC."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ConfigError
from .frf import FrfBundle, _naming, builtin_bundle, load_frf_bundle, read_json_file
from .svc import SvcParams
from .weighting import (
    DEFAULT_K_FACTORS,
    MetricRegime,
    WeightingCurve,
    builtin_weightings,
    load_weighting_csv,
    motion_sickness_regime,
    ride_comfort_regime,
)

_SVC_FIELDS = set(SvcParams().as_dict())


@dataclass(frozen=True)
class RunConfig:
    """The objects a run uses, validated when loaded from a JSON file.

    Recognized keys: ``trace`` (input trace path), ``out`` (output
    directory), ``bundle_manifest`` (path, loaded as `bundle`), ``k_factors``
    (axis -> number, merged into both regimes), ``weighting_files`` (a
    built-in curve name -> CSV path, replacing it), ``svc`` (SvcParams
    fields).  Relative paths resolve against the config file's directory.
    Command-line flags take precedence over ``trace`` and ``out``.
    """

    trace_path: Path | None = None
    out_dir: Path | None = None
    bundle: FrfBundle | None = None
    rc: MetricRegime = field(default_factory=ride_comfort_regime)
    ms: MetricRegime = field(default_factory=motion_sickness_regime)
    svc_params: SvcParams = field(default_factory=SvcParams)
    registry: Mapping[str, WeightingCurve] = field(default_factory=builtin_weightings)

    def resolve_bundle(self, model_id: str | None) -> FrfBundle:
        return self.bundle if self.bundle is not None else builtin_bundle(model_id or "NHM")


def load_run_config(path) -> RunConfig:
    """Read and check a config file; a bad override is a ConfigError that names the file."""
    path = Path(path)
    raw = read_json_file(path, "config", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")

    known = {"trace", "out", "bundle_manifest", "k_factors", "weighting_files", "svc"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")

    for key in ("k_factors", "weighting_files", "svc"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"{path}: {key} must be a JSON object")
    unknown = set(raw.get("svc", {})) - _SVC_FIELDS
    if unknown:
        raise ConfigError(f"{path}: unknown svc parameters {sorted(unknown)}")

    base = path.parent

    def resolve(key: str, p) -> Path:  # an absolute path stays as it is
        if not isinstance(p, str) or "\0" in p:
            raise ConfigError(f"{path}: {key} must be a path string, not {p!r}")
        return base / p

    k_factors = {**DEFAULT_K_FACTORS, **raw.get("k_factors", {})}
    with _naming(path, ConfigError):
        rc, ms = ride_comfort_regime(k_factors), motion_sickness_regime(k_factors)
        svc_params = SvcParams(**raw.get("svc", {}))

    registry = builtin_weightings()
    for name, ref in raw.get("weighting_files", {}).items():
        if name not in registry:  # a config cannot map an axis to a new name: no regime uses it
            raise ConfigError(f"{path}: weighting_files name {name!r} not in {sorted(registry)}")
        registry[name] = load_weighting_csv(resolve(f"weighting_files.{name}", ref), name=name)
    manifest = raw.get("bundle_manifest")

    return RunConfig(
        trace_path=None if raw.get("trace") is None else resolve("trace", raw["trace"]),
        out_dir=None if raw.get("out") is None else resolve("out", raw["out"]),
        bundle=None if manifest is None else load_frf_bundle(resolve("bundle_manifest", manifest)),
        rc=rc,
        ms=ms,
        svc_params=svc_params,
        registry=registry,
    )
