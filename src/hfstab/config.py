"""Run configuration: strict-schema JSON file plus CLI flag overrides."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Mapping

from .models import ModelSpec, make_model, model_from_config

__all__ = ["ConfigError", "RunConfig", "load_config", "apply_flags",
           "build_model"]

# section -> the RunConfig fields it sets (wave: in cmd_spectrum's order)
_SECTIONS = {"wave": ("amplitude", "mean", "modes", "steps"),
             "hill": ("mu_count", "M")}
# each field of a section -> its config key, such as "wave.modes"
_KEYS = {key: f"{name}.{key}" for name, keys in _SECTIONS.items()
         for key in keys}
# model parameters that may be set by a top-level config key or a CLI flag
_FLAG_PARAMS = ("g", "h", "alpha", "beta", "sigma")


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    """A run's settings.  A field's name is its config key, in its
    ``_SECTIONS`` section if any, and its CLI flag's ``dest``; a config
    value must have the type of the field's default.  ``model`` and the
    values of ``params`` are kept as given, for ``models`` to check."""
    model: str | dict = "gkdv"
    params: dict = field(default_factory=dict)
    N: int = 1
    n_max: int = 10
    amplitude: float = 0.0
    mean: float = 0.0
    modes: int = 64
    steps: int = 10
    mu_count: int = 200
    M: int = 64
    output: str | None = None


def _check_keys(section: Mapping, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown)}")


def _object(sec, where: str, allowed: set | None = None) -> dict:
    """``sec``, which must be an object, with only ``allowed`` keys if given."""
    if not isinstance(sec, dict):
        raise ConfigError(f"{where!r} must be an object")
    if allowed is not None:
        _check_keys(sec, allowed, where)
    return sec


def _coerce(value, kind, where: str):
    """``value`` as ``kind``, int or float; a JSON string or boolean is not
    a number, though Python would convert it."""
    try:
        if isinstance(value, (bool, str)) or (kind is int
                                              and int(value) != value):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
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
    _check_keys(data, {f.name for f in fields(cfg)} - set(_KEYS)
                | set(_FLAG_PARAMS) | set(_SECTIONS), "config")

    # parameter values, and an inline model's keys, are checked by models
    if "model" in data:
        if not isinstance(data["model"], (str, dict)):
            raise ConfigError("'model' must be a model id or an inline object")
        cfg.model = data["model"]
    if "params" in data:
        cfg.params.update(_object(data["params"], "params"))
    cfg.params.update((k, data[k]) for k in _FLAG_PARAMS if k in data)
    for key in ("N", "n_max"):
        if key in data:
            setattr(cfg, key, _coerce(data[key], int, key))
    for name, keys in _SECTIONS.items():
        if name in data:
            for key, v in _object(data[name], name, set(keys)).items():
                kind = type(getattr(cfg, key))
                setattr(cfg, key, _coerce(v, kind, f"{name}.{key}"))
    if "output" in data:
        if not isinstance(data["output"], str):
            raise ConfigError("'output' must be a path string")
        cfg.output = data["output"]
    return cfg


def apply_flags(cfg: RunConfig, args) -> RunConfig:
    """CLI flags take precedence over config-file values.  Every number
    must be finite as a double: an int compares with the largest double
    exactly, so one too large to convert is refused too."""
    for f in fields(cfg):
        v = getattr(args, f.name, None)
        if v is not None:
            setattr(cfg, f.name, v)
        v = getattr(cfg, f.name)
        if isinstance(v, (int, float)) and not abs(v) <= sys.float_info.max:
            raise ConfigError(f"{_KEYS.get(f.name, f.name)} must be finite, "
                              f"got {v!r}")
    for name in _FLAG_PARAMS:
        v = getattr(args, name, None)
        if v is not None:
            cfg.params[name] = v
    if cfg.N < 1:
        raise ConfigError(f"N must be >= 1, got {cfg.N}")
    if cfg.n_max < 1:
        raise ConfigError(f"n_max must be >= 1, got {cfg.n_max}")
    return cfg


def build_model(cfg: RunConfig) -> ModelSpec:
    """The run's model, its ``params`` over an inline model's own."""
    if isinstance(cfg.model, dict):
        return model_from_config(cfg.model, cfg.params)
    return make_model(cfg.model, cfg.params or None)
