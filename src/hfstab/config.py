"""Run configuration: strict-schema JSON file plus CLI flag overrides."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping

from .collisions import CollisionOptions
from .models import ModelSpec, ModelError, make_model, model_from_config

__all__ = ["ConfigError", "RunConfig", "load_config", "apply_flags",
           "build_model"]

_TOP_KEYS = {"model", "params", "g", "h", "alpha", "beta", "sigma",
             "N", "n_max", "collision", "wave", "hill", "output"}
_COLLISION_KEYS = {"grid_points", "residual_tol", "lambda_tol"}
_WAVE_KEYS = {"amplitude", "modes", "steps", "mean"}
_HILL_KEYS = {"mu_count", "M", "refine"}

# model parameters that may be set by a top-level config key or a CLI flag
_FLAG_PARAMS = ("g", "h", "alpha", "beta", "sigma")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    model: str | dict = "gkdv"
    params: dict = field(default_factory=dict)
    N: int = 1
    n_max: int = 10
    collision: CollisionOptions = field(default_factory=CollisionOptions)
    wave_amplitude: float = 0.0
    wave_modes: int = 64
    wave_steps: int = 10
    wave_mean: float = 0.0
    hill_mu_count: int = 200
    hill_M: int = 64
    hill_refine: bool = True
    output: str | None = None


def _check_keys(section: Mapping, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _coerce(value, kind, where: str):
    try:
        if kind is int:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError
            return int(value)
        if kind is float:
            return float(value)
        if kind is bool:
            if not isinstance(value, bool):
                raise ValueError
            return value
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")


def load_config(path: str | None) -> RunConfig:
    """Read a config file (or return defaults) with strict key validation."""
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path!r} at offset {exc.pos}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "config")

    if "model" in data:
        m = data["model"]
        if not isinstance(m, (str, dict)):
            raise ConfigError("'model' must be a model id or an inline object")
        cfg.model = m
    if "params" in data:
        if not isinstance(data["params"], dict):
            raise ConfigError("'params' must be an object")
        cfg.params.update({k: _coerce(v, float, f"params.{k}")
                           for k, v in data["params"].items()})
    for name in _FLAG_PARAMS:
        if name in data:
            cfg.params[name] = _coerce(data[name], float, name)
    if "N" in data:
        cfg.N = _coerce(data["N"], int, "N")
    if "n_max" in data:
        cfg.n_max = _coerce(data["n_max"], int, "n_max")
    if "collision" in data:
        sec = data["collision"]
        _check_keys(sec, _COLLISION_KEYS, "collision")
        cfg.collision = CollisionOptions(
            grid_points=_coerce(sec.get("grid_points", 1024), int,
                                "collision.grid_points"),
            residual_tol=_coerce(sec.get("residual_tol", 1e-9), float,
                                 "collision.residual_tol"),
            lambda_tol=_coerce(sec.get("lambda_tol", 1e-8), float,
                               "collision.lambda_tol"))
    if "wave" in data:
        sec = data["wave"]
        _check_keys(sec, _WAVE_KEYS, "wave")
        cfg.wave_amplitude = _coerce(sec.get("amplitude", 0.0), float,
                                     "wave.amplitude")
        cfg.wave_modes = _coerce(sec.get("modes", 64), int, "wave.modes")
        cfg.wave_steps = _coerce(sec.get("steps", 10), int, "wave.steps")
        cfg.wave_mean = _coerce(sec.get("mean", 0.0), float, "wave.mean")
    if "hill" in data:
        sec = data["hill"]
        _check_keys(sec, _HILL_KEYS, "hill")
        cfg.hill_mu_count = _coerce(sec.get("mu_count", 200), int,
                                    "hill.mu_count")
        cfg.hill_M = _coerce(sec.get("M", 64), int, "hill.M")
        cfg.hill_refine = _coerce(sec.get("refine", True), bool, "hill.refine")
    if "output" in data:
        if not isinstance(data["output"], str):
            raise ConfigError("'output' must be a path string")
        cfg.output = data["output"]
    return cfg


def apply_flags(cfg: RunConfig, args) -> RunConfig:
    """CLI flags take precedence over config-file values."""
    if getattr(args, "model", None) is not None:
        cfg.model = args.model
    for name in _FLAG_PARAMS:
        v = getattr(args, name, None)
        if v is not None:
            cfg.params[name] = v
    if getattr(args, "N", None) is not None:
        cfg.N = args.N
    if getattr(args, "n_max", None) is not None:
        cfg.n_max = args.n_max
    if getattr(args, "out", None) is not None:
        cfg.output = args.out
    if getattr(args, "amplitude", None) is not None:
        cfg.wave_amplitude = args.amplitude
    if getattr(args, "modes", None) is not None:
        cfg.wave_modes = args.modes
    if getattr(args, "steps", None) is not None:
        cfg.wave_steps = args.steps
    if getattr(args, "mean", None) is not None:
        cfg.wave_mean = args.mean
    if getattr(args, "mu_count", None) is not None:
        cfg.hill_mu_count = args.mu_count
    if getattr(args, "M", None) is not None:
        cfg.hill_M = args.M
    if getattr(args, "refine", None) is not None:
        cfg.hill_refine = args.refine
    if cfg.N < 1:
        raise ConfigError(f"N must be >= 1, got {cfg.N}")
    if cfg.n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {cfg.n_max}")
    return cfg


def build_model(cfg: RunConfig) -> ModelSpec:
    if isinstance(cfg.model, dict):
        spec = dict(cfg.model)
        if cfg.params:
            merged = dict(spec.get("params", {}))
            merged.update(cfg.params)
            spec["params"] = merged
        return model_from_config(spec)
    return make_model(cfg.model, cfg.params or None)
