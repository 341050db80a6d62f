"""One type rule for every spec field: ``loading.check_value``, read from the
dataclass hints (``loading.spec_schema``) and applied by each spec's
``__post_init__`` (``loading.check_types``), so a spec built in Python is
held to the rule of a config file."""

import dataclasses
import math
import re
from typing import get_args, get_origin

import numpy as np
import pytest

import sparsefn.sim as sim
from sparsefn.config import ExperimentConfig, parse_config, serialize_config
from sparsefn.estimators import EstimationInput, EstimatorSpec
from sparsefn.loading import LoadingSpec, check_types, make_loading, spec_schema
from sparsefn.lowerbound import ThetaSpec
from sparsefn.noise import NoiseModel
from sparsefn.rates import RateCalculator
from sparsefn.sim import SimConfig, _replace_unchecked, check_grid, run_risk
from sparsefn.threshold import TOLERANCES, PhiKernel, solve_adaptive_beta, solve_lambda_H


def config(**kw) -> SimConfig:
    fields = dict(loading=LoadingSpec("homogeneous", d=20), noise=NoiseModel("gaussian", 2.0, 2.0),
                  sigma=1.0, theta=ThetaSpec("spike_grid", rho=1.0, n_spikes=2),
                  estimator=EstimatorSpec("oracle", s=2), replicates=4, seed=7, s_assumed=2)
    return SimConfig(**(fields | kw))


# a valid instance of every class whose fields the rule types
BASES = [LoadingSpec("homogeneous", d=20), NoiseModel("gaussian", 2.0, 1.0), EstimatorSpec(),
         ThetaSpec(), config()]
NOUNS = {int: "an integer", float: "a number", str: "a string"}
REJECTED = {
    int: [(2.5, "an integer"), (True, "an integer"), (np.int64(2), "an integer"),
          ("2", "an integer")],
    float: [(True, "a number"), ("1", "a number"), (math.nan, "a finite number"),
            (math.inf, "a finite number"), (10**400, "a finite number")],
    str: [(3, "a string"), (np.float64(1.0), "a string")],
}
FIELDS = [(base, name, kind) for base in BASES
          for name, kind, _default in spec_schema(type(base)).values()]
IDS = [f"{type(base).__name__}.{name}" for base, name, _kind in FIELDS]


@pytest.mark.parametrize("base, name, kind", FIELDS, ids=IDS)
def test_every_spec_field_is_held_to_its_hint(base, name, kind):
    # driven by the schema: a field added later is covered without an edit here
    if get_origin(kind) is tuple:
        element = get_args(kind)[0]
        bad = {int: 2.5, float: "x"}[element]
        cases = [(1, f"{name}: expected a list"),
                 ([element(1), bad], f"{name}[1]: expected {NOUNS[element]}")]
    else:
        cases = [(value, f"{name}: expected {noun}") for value, noun in REJECTED[kind]]
    for value, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(base, **{name: value})  # the type is checked first
    # held alone, without the ranges and kind rows that other checks read
    if kind is float:
        spec = _replace_unchecked(base, **{name: 2})
        check_types(spec)
        assert type(getattr(spec, name)) is float and getattr(spec, name) == 2.0
    if get_origin(kind) is tuple:
        spec = _replace_unchecked(base, **{name: [1, 2]})
        check_types(spec)
        assert getattr(spec, name) == (1, 2) and type(getattr(spec, name)) is tuple


def test_library_config_with_int_floats_hashes_as_its_file():
    # 2 == 2.0, and a spec holds an int in a float field as a float, so the
    # library config and its serialized config file run and hash alike
    lib = config(noise=NoiseModel("gaussian", 2, 1), sigma=1)
    assert lib == config(noise=NoiseModel("gaussian", 2.0, 1.0), sigma=1.0)
    reparsed = parse_config(serialize_config(ExperimentConfig(1, lib, check_grid(lib, {}))))
    assert reparsed.sim == lib
    assert run_risk(reparsed.sim).config_hash == run_risk(lib).config_hash


def test_fractional_d_is_rejected_not_truncated():
    # it used to run d = 20 and hash 'd': 20.5
    with pytest.raises(ValueError, match=r"^d: expected an integer$"):
        LoadingSpec("homogeneous", d=20.5)


@pytest.mark.parametrize("build, message", [
    (lambda: config(loading=LoadingSpec("homogeneous", d=np.int64(20))), "d: expected an integer"),
    (lambda: config(replicates=2.0), "replicates: expected an integer"),
    (lambda: config(seed=1.5), "seed: expected an integer"),
    (lambda: config(s_assumed=True), "s_assumed: expected an integer"),
], ids=["d-numpy", "replicates-float", "seed-float", "s_assumed-bool"])
def test_bad_library_value_fails_at_its_field_before_any_replicate(build, message,
                                                                   monkeypatch):
    def replicate(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(sim, "_stacked_replicates", replicate)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_risk(build())


def test_theta_spec_from_lists_holds_tuples_and_hashes():
    spec = ThetaSpec("fixed", support=[0, 1], values=[1, 2.0])
    assert spec.support == (0, 1) and spec.values == (1.0, 2.0)
    assert type(spec.values[0]) is float
    assert hash(spec) == hash(ThetaSpec("fixed", support=(0, 1), values=(1.0, 2.0)))


LOADING = make_loading(LoadingSpec("homogeneous", d=10))
# the float scalars of the classes that are not specs: name -> build from it
SCALARS = {
    "PhiKernel.alpha": lambda v: PhiKernel(LOADING, v),
    "RateCalculator.alpha": lambda v: RateCalculator(LOADING, v),
    "EstimationInput.alpha": lambda v: EstimationInput(np.ones(10), LOADING, v, 2.0),
    "EstimationInput.tau": lambda v: EstimationInput(np.ones(10), LOADING, 1.0, v),
    "EstimationInput.sigma": lambda v: EstimationInput(np.ones(10), LOADING, 1.0, 2.0, sigma=v),
}


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
@pytest.mark.parametrize("scalar", SCALARS)
def test_float_scalars_outside_specs_refuse_a_bool_or_a_str(scalar, value):
    name = scalar.split(".")[1]
    with pytest.raises(ValueError, match=f"^{name}: expected a number$"):
        SCALARS[scalar](value)
    held = SCALARS[scalar](1)  # an int is held as a float
    assert type(getattr(held, name)) is float and getattr(held, name) == 1.0


# the threshold entry points that take alpha and s themselves
SOLVES = {"solve_lambda_H": solve_lambda_H, "solve_adaptive_beta": solve_adaptive_beta}


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
@pytest.mark.parametrize("solve", SOLVES)
def test_threshold_solves_refuse_a_bool_or_a_str_alpha(solve, value):
    with pytest.raises(ValueError, match="^alpha: expected a number$"):
        SOLVES[solve](LOADING, value, 2)
    assert SOLVES[solve](LOADING, 1, 2).meets(TOLERANCES)  # an int alpha is a number


@pytest.mark.parametrize("value", [2.7, True, "3", np.int64(2)], ids=repr)
@pytest.mark.parametrize("solve", SOLVES)
def test_threshold_solves_refuse_s_that_is_not_an_int(solve, value):
    """s = 2.7 solved s = 2, True s = 1 and "3" s = 3 when s was truncated."""
    with pytest.raises(ValueError, match="^s: expected an integer$"):
        SOLVES[solve](LOADING, 1.0, value)
