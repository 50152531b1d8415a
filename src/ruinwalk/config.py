"""Model configuration: premium rate, claim law, tolerances, run controls."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .distributions import ClaimDistribution, config_number, distribution_from_dict
from .errors import ConfigError


@dataclass(frozen=True)
class ModelConfig:
    kappa: int
    dist: ClaimDistribution
    u_max: int = 30
    t_max: int = 200
    tol_root: float = 1e-10
    tol_cluster: float = 1e-6
    tol_boundary: float = 1e-8
    tol_real: float = 1e-8
    mc_paths: int = 100_000
    mc_horizon: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kappa, int) or self.kappa < 1:
            raise ConfigError(f"kappa must be a positive integer, got {self.kappa!r}")
        for name in ("tol_root", "tol_cluster", "tol_boundary", "tol_real"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.u_max < 0 or self.t_max < 1:
            raise ConfigError("u_max must be >= 0 and t_max >= 1")
        if self.mc_paths < 1 or self.mc_horizon < 1:
            raise ConfigError("mc_paths and mc_horizon must be >= 1")


def _integer(name: str, value) -> int:
    """An integer from a config file; bools and non-integral numbers are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def config_from_dict(raw: dict) -> ModelConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - {"kappa", "dist", "u_max", "t_max", "tolerances", "mc"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        kappa = _integer("kappa", raw["kappa"])
        dist = distribution_from_dict(raw["dist"])
    except KeyError as exc:
        raise ConfigError(f"config is missing required key {exc}") from None
    kwargs: dict = {}
    for key in ("u_max", "t_max"):
        if key in raw:
            kwargs[key] = _integer(key, raw[key])
    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("'tolerances' must be an object")
    for key in tol:
        if key not in ("tol_root", "tol_cluster", "tol_boundary", "tol_real"):
            raise ConfigError(f"unknown tolerance {key!r}")
        kwargs[key] = config_number(key, tol[key])
    mc = raw.get("mc", {})
    if not isinstance(mc, dict):
        raise ConfigError("'mc' must be an object")
    mc_map = {"paths": "mc_paths", "horizon": "mc_horizon", "seed": "seed"}
    for key in mc:
        if key not in mc_map:
            raise ConfigError(f"unknown mc key {key!r}")
        kwargs[mc_map[key]] = _integer(f"mc.{key}", mc[key])
    return ModelConfig(kappa=kappa, dist=dist, **kwargs)


def load_config(path: str | Path) -> ModelConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file cannot be read: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    return config_from_dict(raw)
