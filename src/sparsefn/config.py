"""Experiment configuration files: strict JSON parsing with path-precise errors.

Unknown keys are rejected (anti-typo), every type violation names the
offending path, and defaults are filled at parse time so a parsed config
serializes to something that reparses equal.  The Lepski constant
``estimator.zeta`` is the exception: it stays None unless the config sets it,
and each grid cell resolves it from its own ``alpha`` when the adaptive
estimator runs (``estimators.default_zeta``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .estimators import VARIANTS
from .loading import LoadingSpec
from .noise import FAMILIES, NoiseModel
from .sim import GRID_AXES, EstimatorSpec, Grid, SimConfig, ThetaSpec, check_grid

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending path."""


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int
    sim: SimConfig
    grid: Grid

    def to_dict(self) -> dict:
        return {"schema_version": self.schema_version, **self.sim.to_dict(self.grid.axes)}


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required key")
    return obj[key]


def _check_keys(obj, allowed: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for k in obj:
        if k not in allowed:
            raise ConfigError(f"{path}.{k}: unknown key")


def _number(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):  # json.loads also reads the literals NaN and Infinity
        raise ConfigError(f"{path}: expected a finite number")
    return x


def _integer(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}: expected an integer")
    return v


def _list(v, path: str, check) -> tuple:
    """The elements of a JSON list as a tuple, each validated by ``check``."""
    if not isinstance(v, list):
        raise ConfigError(f"{path}: expected a list")
    for i, x in enumerate(v):
        check(x, f"{path}[{i}]")
    return tuple(v)


def _build(cls, path: str, **fields):
    """``cls(**fields)``, its ValueError reported under ``path``.  The fields
    are parsed before the call, so their own errors keep their paths."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string")
    return v


def _parse_loading(obj, path: str) -> LoadingSpec:
    _check_keys(obj, {"kind", "d", "values", "gamma_d", "gamma_lambda", "c", "gamma"}, path)
    kind = _string(_require(obj, "kind", path), f"{path}.kind")
    return _build(
        LoadingSpec, path,
        kind=kind,
        d=_integer(obj["d"], f"{path}.d") if "d" in obj else None,
        values=_list(obj["values"], f"{path}.values", _number) if "values" in obj else None,
        gamma_d=_number(obj["gamma_d"], f"{path}.gamma_d") if "gamma_d" in obj else None,
        gamma_lambda=(_number(obj["gamma_lambda"], f"{path}.gamma_lambda")
                      if "gamma_lambda" in obj else None),
        c=_number(obj["c"], f"{path}.c") if "c" in obj else None,
        gamma=_number(obj["gamma"], f"{path}.gamma") if "gamma" in obj else None,
    )


def _parse_noise(obj, path: str) -> NoiseModel:
    _check_keys(obj, {"family", "alpha", "tau", "class"}, path)
    family = _string(_require(obj, "family", path), f"{path}.family")
    if family not in FAMILIES:
        raise ConfigError(f"{path}.family: unknown family {family!r}")
    return _build(
        NoiseModel, path,
        family=family,
        alpha=_number(_require(obj, "alpha", path), f"{path}.alpha"),
        tau=_number(_require(obj, "tau", path), f"{path}.tau"),
        tail_class=_string(obj.get("class", "G"), f"{path}.class"),
    )


def _parse_estimator(obj, path: str) -> EstimatorSpec:
    _check_keys(obj, {"variant", "s", "kappa", "zeta", "gamma_split", "c_h"}, path)
    variant = _string(obj.get("variant", "oracle"), f"{path}.variant")
    if variant not in VARIANTS:
        raise ConfigError(f"{path}.variant: unknown variant {variant!r}")
    return _build(
        EstimatorSpec, path,
        variant=variant,
        s=_integer(obj["s"], f"{path}.s") if "s" in obj else None,
        kappa=_number(obj.get("kappa", 1.0), f"{path}.kappa"),
        zeta=_number(obj["zeta"], f"{path}.zeta") if obj.get("zeta") is not None else None,
        gamma_split=_number(obj.get("gamma_split", 0.5), f"{path}.gamma_split"),
        c_h=_number(obj["c_h"], f"{path}.c_h") if obj.get("c_h") is not None else None,
    )


def _parse_theta(obj, path: str) -> ThetaSpec:
    _check_keys(obj, {"kind", "support", "values", "rho", "n_spikes", "placement",
                      "s", "c1", "c_alpha2"}, path)
    kind = _string(obj.get("kind", "zero"), f"{path}.kind")
    return _build(
        ThetaSpec, path,
        kind=kind,
        support=_list(obj["support"], f"{path}.support", _integer) if "support" in obj else None,
        values=_list(obj["values"], f"{path}.values", _number) if "values" in obj else None,
        rho=_number(obj["rho"], f"{path}.rho") if "rho" in obj else None,
        n_spikes=_integer(obj["n_spikes"], f"{path}.n_spikes") if "n_spikes" in obj else None,
        placement=_string(obj.get("placement", "tail"), f"{path}.placement"),
        s=_integer(obj["s"], f"{path}.s") if "s" in obj else None,
        c1=_number(obj["c1"], f"{path}.c1") if "c1" in obj else None,
        c_alpha2=_number(obj.get("c_alpha2", 1.0), f"{path}.c_alpha2"),
    )


def parse_config(text: str) -> ExperimentConfig:
    """Parse a UTF-8 JSON experiment config; raises ConfigError with the
    offending field path on any violation."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"<root>: invalid JSON ({exc})") from exc
    _check_keys(obj, {"schema_version", "seed", "sigma", "loading", "noise",
                      "estimator", "theta", "simulation"}, "<root>")
    version = _integer(_require(obj, "schema_version", "<root>"), "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    seed = _integer(_require(obj, "seed", "<root>"), "seed")
    sigma = _number(obj.get("sigma", 1.0), "sigma")
    loading = _parse_loading(_require(obj, "loading", "<root>"), "loading")
    noise = _parse_noise(_require(obj, "noise", "<root>"), "noise")
    estimator = _parse_estimator(obj.get("estimator", {}), "estimator")

    sim_obj = obj.get("simulation", {})
    _check_keys(sim_obj, {"replicates", "s_assumed", "grid"}, "simulation")
    replicates = _integer(sim_obj.get("replicates", 1), "simulation.replicates")
    s_assumed = _integer(sim_obj.get("s_assumed", estimator.s if estimator.s else 1),
                         "simulation.s_assumed")
    theta = _parse_theta(obj.get("theta", {"kind": "zero"}), "theta")
    grid = sim_obj.get("grid")

    sim = _build(SimConfig, "simulation", loading=loading, noise=noise, sigma=sigma,
                 theta=theta, estimator=estimator, replicates=replicates, seed=seed,
                 s_assumed=s_assumed)
    if grid is not None:
        _check_grid_values(grid)
    try:
        return ExperimentConfig(version, sim, check_grid(sim, grid or {}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_GRID_VALUES = {"d": _integer, "estimator": _string, "s": _integer}  # the rest: numbers


def _check_grid_values(grid) -> None:
    if not isinstance(grid, dict):
        raise ConfigError("simulation.grid: expected an object of axis lists")
    for axis, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"simulation.grid.{axis}: expected a nonempty list")
        if axis in GRID_AXES:
            for i, value in enumerate(values):
                _GRID_VALUES.get(axis, _number)(value, f"simulation.grid.{axis}[{i}]")


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)
