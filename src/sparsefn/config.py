"""Experiment configuration files: strict JSON parsing with path-precise errors.

Each spec dataclass (``LoadingSpec``, ``NoiseModel``, ``EstimatorSpec``,
``ThetaSpec``) is the schema of its config object and of the CLI options that
set its fields: ``loading.spec_schema`` reads keys, types and defaults from
its hints and ``sim.spec_dict`` writes them back, so a parsed config
serializes to something that reparses equal.  One rule, ``loading.check_value``,
types every field, here and in each spec's ``__post_init__``, so a spec built
in Python passes it too and an int in a float field is held as a float.
Unknown keys are rejected (anti-typo), and so is a field that its kind does
not read (``LOADING_KINDS``, ``THETA_KINDS``); every violation names the
offending path.  An unset ``estimator.zeta`` stays None,
and each grid cell resolves it from its own ``alpha`` (``default_zeta``).
``sim.check_grid`` alone decides what a ``simulation.grid`` entry may be.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass

from .estimators import VARIANTS, EstimationInput, EstimatorSpec
from .loading import LoadingSpec, check_value, spec_schema
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
        raise ValueError(f"{path}.{key}: missing required key")
    return obj[key]


def _check_keys(obj, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    for k in obj:
        if k not in allowed:
            raise ValueError(f"{path}.{k}: unknown key")


def _build(cls, path: str, **fields):
    """``cls(**fields)``, its ValueError reported under ``path``, or at ``path.key``
    when it names a field or list entry first (``rho: ...``, ``support[1]: ...``)."""
    try:
        return cls(**fields)
    except ValueError as exc:
        sep = "." if re.match(r"\w+(\[\d+\])?: ", str(exc)) else ": "
        raise ValueError(f"{path}{sep}{exc}") from exc


_CHOICES = {(NoiseModel, "family"): FAMILIES, (EstimatorSpec, "variant"): VARIANTS}


def _parse_spec(cls, obj, path: str):
    """The spec dataclass ``cls`` from its JSON object ``obj`` at ``path``,
    each field checked by ``check_value`` in ``spec_schema`` order, then by
    its choices.  A field without a default is required, and JSON null
    stands for an absent key only where the default is None."""
    schema = spec_schema(cls)
    _check_keys(obj, schema, path)
    fields = {}
    for key, (name, kind, default) in schema.items():
        v = obj.get(key)
        if v is None and (default is None or key not in obj):
            if default is dataclasses.MISSING:
                raise ValueError(f"{path}.{key}: missing required key")
            continue
        fields[name] = check_value(kind, v, f"{path}.{key}")
        choices = _CHOICES.get((cls, name))
        if choices is not None and fields[name] not in choices:
            raise ValueError(f"{path}.{key}: unknown {key} {fields[name]!r}")
    return _build(cls, path, **fields)


def parse_config(text: str) -> ExperimentConfig:
    """Parse a UTF-8 JSON experiment config; raises ConfigError with the
    offending field path on any violation."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"<root>: invalid JSON ({exc})") from exc
    try:
        _check_keys(obj, {"schema_version", "seed", "sigma", "loading", "noise",
                          "estimator", "theta", "simulation"}, "<root>")
        version = check_value(int, _require(obj, "schema_version", "<root>"), "schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
        seed = check_value(int, _require(obj, "seed", "<root>"), "seed")
        sigma = check_value(float, obj.get("sigma", EstimationInput.sigma), "sigma")
        loading = _parse_spec(LoadingSpec, _require(obj, "loading", "<root>"), "loading")
        noise = _parse_spec(NoiseModel, _require(obj, "noise", "<root>"), "noise")
        estimator = _parse_spec(EstimatorSpec, obj.get("estimator", {}), "estimator")

        sim_obj = obj.get("simulation", {})
        _check_keys(sim_obj, {"replicates", "s_assumed", "grid"}, "simulation")
        replicates = check_value(int, sim_obj.get("replicates", 1), "simulation.replicates")
        s_assumed = check_value(int, sim_obj.get("s_assumed", estimator.s or 1),
                                "simulation.s_assumed")
        theta = _parse_spec(ThetaSpec, obj.get("theta", {}), "theta")
        grid = sim_obj.get("grid")

        sim = _build(SimConfig, "simulation", loading=loading, noise=noise, sigma=sigma,
                     theta=theta, estimator=estimator, replicates=replicates, seed=seed,
                     s_assumed=s_assumed)
        return ExperimentConfig(version, sim, check_grid(sim, {} if grid is None else grid))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def serialize_config(config: ExperimentConfig) -> str:
    return json.dumps({"schema_version": config.schema_version,
                       **config.sim.to_dict(config.grid.axes)}, indent=2, sort_keys=True)
