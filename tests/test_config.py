"""The config schema: each spec dataclass is the only description of its
config object, so parsing, serializing and hashing read the same fields."""

import json
import re
from pathlib import Path

import pytest

from sparsefn.config import ConfigError, parse_config, serialize_config
from sparsefn.loading import LoadingSpec
from sparsefn.lowerbound import THETA_KINDS
from sparsefn.noise import NoiseModel
from sparsefn.sim import EstimatorSpec, SimConfig, ThetaSpec, meta, spec_dict
from test_cli import BASE_CONFIG

# every key of every spec set, with non-default values where the spec allows
SPIKE_CONFIG = {
    "schema_version": 1, "seed": 5, "sigma": 0.5,
    "loading": {"kind": "explicit", "values": [3.0, 2.0, 1.0, 0.5, 0.25]},
    "noise": {"family": "shifted_exponential", "alpha": 1.0, "tau": 3.0, "class": "H"},
    "estimator": {"variant": "nonsym", "s": 2, "kappa": 1.5, "zeta": 500.0,
                  "gamma_split": 0.25, "c_h": 2.0},
    "theta": {"kind": "spike_grid", "rho": 1.5, "n_spikes": 2, "placement": "head"},
    "simulation": {"replicates": 4, "s_assumed": 2},
}
SPIKE_SIM = SimConfig(
    LoadingSpec("explicit", values=(3.0, 2.0, 1.0, 0.5, 0.25)),
    NoiseModel("shifted_exponential", 1.0, 3.0, tail_class="H"), 0.5,
    ThetaSpec("spike_grid", rho=1.5, n_spikes=2, placement="head"),
    EstimatorSpec("nonsym", s=2, kappa=1.5, zeta=500.0, gamma_split=0.25, c_h=2.0),
    replicates=4, seed=5, s_assumed=2)

PRIOR_CONFIG = {
    "schema_version": 1, "seed": 7,
    "loading": {"kind": "two_phase", "d": 400, "gamma_d": 0.4, "gamma_lambda": 0.2},
    "noise": {"family": "symm_weibull", "alpha": 1.0, "tau": 2.0},
    "estimator": {"variant": "adaptive"},
    "theta": {"kind": "prior", "s": 3, "c1": 0.5, "c_alpha2": 0.75},
    "simulation": {"replicates": 6, "s_assumed": 3,
                   "grid": {"estimator": ["adaptive", "plugin"]}},
}
PRIOR_SIM = SimConfig(
    LoadingSpec("two_phase", d=400, gamma_d=0.4, gamma_lambda=0.2),
    NoiseModel("symm_weibull", 1.0, 2.0), 1.0,
    ThetaSpec("prior", s=3, c1=0.5, c_alpha2=0.75), EstimatorSpec("adaptive"),
    replicates=6, seed=7, s_assumed=3)

FIXED_CONFIG = {
    "schema_version": 1, "seed": 3,
    "loading": {"kind": "exp_decay", "d": 50, "c": 0.1, "gamma": 1.5},
    "noise": {"family": "rademacher", "alpha": 2.0, "tau": 2.0, "class": "G"},
    "theta": {"kind": "fixed", "support": [4, 0, 7], "values": [1.0, -2.0, 0.5]},
}
FIXED_SIM = SimConfig(
    LoadingSpec("exp_decay", d=50, c=0.1, gamma=1.5), NoiseModel("rademacher", 2.0, 2.0),
    1.0, ThetaSpec("fixed", support=(4, 0, 7), values=(1.0, -2.0, 0.5)), EstimatorSpec(),
    replicates=1, seed=3, s_assumed=1)


@pytest.mark.parametrize("obj, sim", [(SPIKE_CONFIG, SPIKE_SIM), (PRIOR_CONFIG, PRIOR_SIM),
                                      (FIXED_CONFIG, FIXED_SIM)],
                         ids=["spike_grid", "prior", "fixed"])
def test_config_parses_to_its_dataclasses_and_round_trips(obj, sim):
    cfg = parse_config(json.dumps(obj))
    assert cfg.sim == sim
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    layout = json.loads(text)
    assert layout["loading"] == obj["loading"] and layout["theta"] == obj["theta"]
    assert layout["noise"] == {"class": "G", **obj["noise"]}
    for spec, section in [(sim.loading, "loading"), (sim.noise, "noise"),
                          (sim.estimator, "estimator"), (sim.theta, "theta")]:
        assert spec_dict(spec) == layout[section]
    # every estimator knob is written, the defaults included
    assert layout["estimator"] == {"kappa": 1.0, "gamma_split": 0.5, **obj.get("estimator", {}),
                                   "variant": sim.estimator.variant}


@pytest.mark.parametrize("obj, section, key", [
    (BASE_CONFIG, "loading", "values"), (BASE_CONFIG, "loading", "c"),
    (SPIKE_CONFIG, "estimator", "s"), (SPIKE_CONFIG, "estimator", "zeta"),
    (SPIKE_CONFIG, "estimator", "c_h"), (SPIKE_CONFIG, "theta", "placement"),
    (BASE_CONFIG, "theta", "c1"), (PRIOR_CONFIG, "theta", "c_alpha2")])
def test_null_on_a_none_default_is_an_absent_key(obj, section, key):
    absent = json.loads(json.dumps(obj))
    absent[section].pop(key, None)
    with_null = json.loads(json.dumps(absent))
    with_null[section][key] = None
    assert parse_config(json.dumps(with_null)) == parse_config(json.dumps(absent))


@pytest.mark.parametrize("section, key", [
    ("loading", "kind"), ("noise", "family"), ("noise", "alpha"), ("noise", "tau"),
    ("noise", "class"), ("estimator", "variant"), ("estimator", "kappa"),
    ("estimator", "gamma_split"), ("theta", "kind")])
def test_null_on_a_required_or_valued_field_fails_at_its_path(section, key):
    obj = json.loads(json.dumps(BASE_CONFIG))
    obj[section][key] = None
    with pytest.raises(ConfigError, match="^" + re.escape(f"{section}.{key}: expected a")):
        parse_config(json.dumps(obj))


@pytest.mark.parametrize("section, key", [("loading", "kind"), ("noise", "family"),
                                          ("noise", "alpha"), ("noise", "tau")])
def test_missing_required_key_names_its_path(section, key):
    obj = json.loads(json.dumps(BASE_CONFIG))
    del obj[section][key]
    with pytest.raises(ConfigError, match="^" + re.escape(f"{section}.{key}: missing")):
        parse_config(json.dumps(obj))


def test_theta_keeps_placement_and_c_alpha2_only_on_their_kinds():
    # placement belongs to spike_grid and c_alpha2 to prior: other kinds reject them
    for kind, fields in [("fixed", dict(support=(0,), values=(1.0,))),
                         ("spike_grid", dict(rho=1.0, n_spikes=2)),
                         ("prior", dict(s=2, c1=0.5))]:
        for key, value in [("placement", "head"), ("c_alpha2", 2.0)]:
            if key in THETA_KINDS[kind]:
                continue
            with pytest.raises(ValueError, match=f"^{key}: not read by kind '{kind}'"):
                ThetaSpec(kind, **fields, **{key: value})
    fixed = ThetaSpec("fixed", support=(0,), values=(1.0,))
    assert spec_dict(fixed) == {"kind": "fixed", "support": [0], "values": [1.0]}
    spikes = ThetaSpec("spike_grid", rho=1.0, n_spikes=2)
    assert (spikes.placement, spikes.c_alpha2) == ("tail", None)
    prior = ThetaSpec("prior", s=2, c1=0.5)
    assert (prior.placement, prior.c_alpha2) == (None, 1.0)
    assert ThetaSpec().kind == "zero" and spec_dict(ThetaSpec()) == {"kind": "zero"}
    with pytest.raises(ValueError, match="placement"):
        ThetaSpec("spike_grid", rho=1.0, n_spikes=2, placement="")


@pytest.mark.parametrize("section, patch, message", [
    ("loading", {"kind": "homogeneous", "d": 20, "values": [1.0]},
     "loading.values: not read by kind 'homogeneous'"),
    ("loading", {"kind": "homogeneous", "d": 20, "gamma_d": 3.0},
     "loading.gamma_d: not read by kind 'homogeneous'"),
    ("loading", {"kind": "explicit", "values": [1.0], "d": 1},
     "loading.d: not read by kind 'explicit'"),
    ("loading", {"kind": "two_phase", "d": 20, "gamma_d": 0.5},
     "loading.gamma_lambda: required by kind 'two_phase'"),
    ("loading", {"kind": "exp_decay", "c": 0.1, "gamma": 1.0},
     "loading.d: required by kind 'exp_decay'"),
    ("loading", {"kind": "explicit", "values": []},
     "loading.values: an explicit loading needs at least one"),
    ("theta", {"kind": "zero", "rho": 1.0}, "theta.rho: not read by kind 'zero'"),
    ("theta", {"kind": "zero", "placement": "tail"}, "theta.placement: not read by kind 'zero'"),
    ("theta", {"kind": "fixed", "support": [0], "values": [1.0], "c_alpha2": 1.0},
     "theta.c_alpha2: not read by kind 'fixed'"),
    ("theta", {"kind": "spike_grid", "rho": 1.0}, "theta.n_spikes: required by kind 'spike_grid'"),
    ("theta", {"kind": "prior", "c1": 0.5}, "theta.s: required by kind 'prior'"),
])
def test_a_field_off_its_kinds_row_fails_at_its_path(section, patch, message):
    obj = json.loads(json.dumps(BASE_CONFIG))
    obj[section] = patch
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config(json.dumps(obj))


@pytest.mark.parametrize("theta, defaults", [
    ({"kind": "prior", "s": 2}, {"c1": 0.5, "c_alpha2": 1.0}),
    ({"kind": "spike_grid", "rho": 1.0, "n_spikes": 2}, {"placement": "tail"}),
])
def test_kind_defaults_fill_and_hash_like_written_values(theta, defaults):
    obj = dict(BASE_CONFIG, theta=theta, simulation={"replicates": 2, "s_assumed": 2})
    cfg, written = (parse_config(json.dumps(o)) for o in (obj, dict(obj, theta=theta | defaults)))
    assert cfg == written
    assert meta(cfg.sim.to_dict(), 1) == meta(written.sim.to_dict(), 1)


def test_theta_rejects_a_repeated_support_index():
    with pytest.raises(ValueError, match=re.escape("support[2]: 0 repeats an earlier index")):
        ThetaSpec("fixed", support=(0, 3, 0), values=(1.0, 2.0, 5.0))


@pytest.mark.parametrize("obj, expected", [
    (BASE_CONFIG, "a2cea0a16d0cae5845223629444e9c04508f60f509a03e735f07ae81bcfc9caa"),
    (SPIKE_CONFIG, "d92cd65ce27e3377a2ece5a64c37c3571cc433428c29bdd1ab23a0cab1a519d4"),
    (PRIOR_CONFIG, "caab7f46b458caf1e220a265f7db3e5429bb86adb3db7cec2305b39f3bae1074"),
], ids=["base", "spike_grid", "prior"])
def test_config_hash_is_pinned(obj, expected):
    cfg = parse_config(json.dumps(obj))  # the hash that ``simulate`` writes for it
    assert meta(cfg.sim.to_dict(cfg.grid.axes), cfg.sim.seed)["config_hash"] == expected


def test_readme_config_example_parses_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Experiment config \(`simulate`\)\n\n```json\n(.*?)```",
                      readme, re.S)
    assert block, "README has no experiment-config example"
    example = json.loads(block.group(1))
    cfg = parse_config(block.group(1))
    assert parse_config(serialize_config(cfg)) == cfg
    layout = json.loads(serialize_config(cfg))
    for section in ("loading", "noise", "estimator", "theta"):
        assert layout[section].items() >= example[section].items()
