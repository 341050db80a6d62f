"""Experiment configuration files: strict JSON parsing with path-precise errors.

Each spec dataclass (``LoadingSpec``, ``NoiseModel``, ``EstimatorSpec``,
``ThetaSpec``) is the schema of its config object and of the CLI options that
set its fields: ``_schema`` reads keys, types and defaults from its fields and
``sim.spec_dict`` writes them back, so a parsed config serializes to something
that reparses equal.  Unknown keys are rejected (anti-typo), and so is a field
that its kind does not read (``LOADING_KINDS``, ``THETA_KINDS``); every
violation names the offending path.  An unset ``estimator.zeta`` stays None,
and each grid cell resolves it from its own ``alpha`` (``default_zeta``).
``sim.check_grid`` alone decides what a ``simulation.grid`` entry may be.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import typing
from dataclasses import dataclass

from .estimators import VARIANTS, EstimationInput, EstimatorSpec
from .loading import LoadingSpec
from .lowerbound import ThetaSpec
from .noise import FAMILIES, NoiseModel
from .sim import Grid, SimConfig, check_grid

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "serialize_config"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending path."""


@dataclass(frozen=True)
class ExperimentConfig:
    schema_version: int
    sim: SimConfig
    grid: Grid


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}: missing required key")
    return obj[key]


def _check_keys(obj, allowed, path: str) -> None:
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
    """``cls(**fields)`` of parsed fields, its ValueError reported under ``path``
    (under ``path.key`` or ``path.key[i]`` when the error names a field or a
    list entry first: ``rho: ...``, ``support[1]: ...``)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        sep = "." if re.match(r"\w+(\[\d+\])?: ", str(exc)) else ": "
        raise ConfigError(f"{path}{sep}{exc}") from exc


def _string(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(f"{path}: expected a string")
    return v


_CHECKS = {int: _integer, float: _number, str: _string}
_CHOICES = {(NoiseModel, "family"): FAMILIES, (EstimatorSpec, "variant"): VARIANTS}


@functools.cache
def _schema(cls) -> dict:
    """JSON key -> (field name, type, check, default, choices) for each field
    of the spec dataclass ``cls``, read from its fields and type hints; the
    type (int, float or str) is the value's, or each element's of a tuple."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        if f.default is None:  # ``X | None``: check X
            (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        if typing.get_origin(hint) is tuple:  # ``tuple[X, ...]``: a JSON list of X
            hint = typing.get_args(hint)[0]
            check = functools.partial(_list, check=_CHECKS[hint])
        else:
            check = _CHECKS[hint]
        schema[f.metadata.get("json", f.name)] = (f.name, hint, check, f.default,
                                                  _CHOICES.get((cls, f.name)))
    return schema


def _parse_spec(cls, obj, path: str):
    """The spec dataclass ``cls`` from its JSON object ``obj`` at ``path``.  A
    field without a default is required, and JSON null stands for an absent
    key only where the default is None."""
    schema = _schema(cls)
    _check_keys(obj, schema, path)
    fields = {}
    for key, (name, _type, check, default, choices) in schema.items():
        v = obj.get(key)
        if v is None and (default is None or key not in obj):
            if default is dataclasses.MISSING:
                raise ConfigError(f"{path}.{key}: missing required key")
            continue
        fields[name] = check(v, f"{path}.{key}")
        if choices is not None and fields[name] not in choices:
            raise ConfigError(f"{path}.{key}: unknown {key} {fields[name]!r}")
    return _build(cls, path, **fields)


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
    sigma = _number(obj.get("sigma", EstimationInput.sigma), "sigma")
    loading = _parse_spec(LoadingSpec, _require(obj, "loading", "<root>"), "loading")
    noise = _parse_spec(NoiseModel, _require(obj, "noise", "<root>"), "noise")
    estimator = _parse_spec(EstimatorSpec, obj.get("estimator", {}), "estimator")

    sim_obj = obj.get("simulation", {})
    _check_keys(sim_obj, {"replicates", "s_assumed", "grid"}, "simulation")
    replicates = _integer(sim_obj.get("replicates", 1), "simulation.replicates")
    s_assumed = _integer(sim_obj.get("s_assumed", estimator.s or 1), "simulation.s_assumed")
    theta = _parse_spec(ThetaSpec, obj.get("theta", {}), "theta")
    grid = sim_obj.get("grid")

    sim = _build(SimConfig, "simulation", loading=loading, noise=noise, sigma=sigma,
                 theta=theta, estimator=estimator, replicates=replicates, seed=seed,
                 s_assumed=s_assumed)
    try:
        return ExperimentConfig(version, sim, check_grid(sim, {} if grid is None else grid))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps({"schema_version": config.schema_version,
                       **config.sim.to_dict(config.grid.axes)}, indent=2, sort_keys=True)
