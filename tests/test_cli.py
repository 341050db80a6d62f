import argparse
import json
import math
import re
import warnings

import numpy as np
import pytest

from sparsefn.cli import _build_parser, main
from sparsefn.config import ConfigError, parse_config, serialize_config
from sparsefn.estimators import VARIANTS
from sparsefn.loading import LoadingSpec
from sparsefn.noise import NoiseModel
from sparsefn.rates import RateCalculator
from sparsefn.sim import EstimatorSpec, SimConfig, ThetaSpec, run_risk
from sparsefn.threshold import BracketError


BASE_CONFIG = {
    "schema_version": 1,
    "seed": 11,
    "sigma": 1.0,
    "loading": {"kind": "homogeneous", "d": 40},
    "noise": {"family": "gaussian", "alpha": 2.0, "tau": 2.0, "class": "G"},
    "estimator": {"variant": "oracle", "s": 3},
    "theta": {"kind": "spike_grid", "rho": 1.0, "n_spikes": 3},
    "simulation": {"replicates": 25, "s_assumed": 3, "grid": {"rho": [0.5, 2.0]}},
}


def run_json(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


# -- config parsing --------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps({
        "schema_version": 1, "seed": 1,
        "loading": {"kind": "homogeneous", "d": 10},
        "noise": {"family": "gaussian", "alpha": 2.0, "tau": 2.0},
    }))
    assert cfg.sim.estimator.kappa == 1.0
    assert cfg.sim.estimator.zeta == 1e3  # alpha >= 2 rule
    assert cfg.sim.estimator.gamma_split == 0.5
    assert cfg.sim.theta.kind == "zero"
    assert cfg.sim.replicates == 1

    low_alpha = dict(BASE_CONFIG, noise={"family": "symm_weibull", "alpha": 1.0,
                                         "tau": 2.0, "class": "G"})
    cfg2 = parse_config(json.dumps(low_alpha))
    assert cfg2.sim.estimator.zeta == 1e4


def test_typo_rejection_names_path():
    bad = dict(BASE_CONFIG, loading={"kindd": "homogeneus"})
    with pytest.raises(ConfigError, match=r"loading\.kindd"):
        parse_config(json.dumps(bad))
    bad2 = dict(BASE_CONFIG, noise={"family": "gausian", "alpha": 2.0, "tau": 2.0})
    with pytest.raises(ConfigError, match=r"noise\.family"):
        parse_config(json.dumps(bad2))
    bad3 = dict(BASE_CONFIG)
    bad3["estimator"] = {"variant": "oracle", "s": "three"}
    with pytest.raises(ConfigError, match=r"estimator\.s"):
        parse_config(json.dumps(bad3))


@pytest.mark.parametrize("patch, path", [
    ({"sigma": float("nan")}, "sigma"),
    ({"sigma": 10**400}, "sigma"),
    ({"noise": {"family": "gaussian", "alpha": float("inf"), "tau": 2.0}}, "noise.alpha"),
    ({"estimator": {"variant": "oracle", "kappa": float("-inf")}}, "estimator.kappa"),
    ({"loading": {"kind": "explicit", "values": ["a", 1.0]}}, "loading.values[0]"),
    ({"loading": {"kind": "explicit", "values": [1.0, float("nan")]}}, "loading.values[1]"),
    ({"loading": {"kind": "explicit", "values": 3.0}}, "loading.values"),
    ({"theta": {"kind": "fixed", "support": [0, 1.5], "values": [1.0, 2.0]}},
     "theta.support[1]"),
    ({"theta": {"kind": "fixed", "support": [0], "values": [float("inf")]}},
     "theta.values[0]"),
    ({"simulation": {"replicates": 3, "workers": 2}}, "simulation.workers"),  # removed key
])
def test_bad_numbers_rejected_with_path(patch, path):
    with pytest.raises(ConfigError, match="^" + re.escape(path) + ":"):
        parse_config(json.dumps(dict(BASE_CONFIG, **patch)))


def test_schema_version_checked():
    bad = dict(BASE_CONFIG, schema_version=2)
    with pytest.raises(ConfigError, match="schema_version"):
        parse_config(json.dumps(bad))


def test_round_trip():
    cfg = parse_config(json.dumps(BASE_CONFIG))
    again = parse_config(serialize_config(cfg))
    assert again == cfg


# -- CLI -------------------------------------------------------------------------

def test_solve_fixture(capsys):
    rc, payload = run_json(capsys, ["solve", "--loading-spec", "homogeneous",
                                    "--d", "100", "--alpha", "2", "--s", "5"])
    assert rc == 0
    assert payload["beta"] == pytest.approx(2.772589, abs=1e-6)
    assert payload["lambda"] == pytest.approx(1.665109, abs=1e-6)
    assert payload["meta"]["tool_version"]
    assert payload["meta"]["config_hash"]


def test_solve_adaptive_and_asym(capsys):
    rc, p = run_json(capsys, ["solve", "--loading-spec", "homogeneous", "--d", "100",
                              "--alpha", "2", "--s", "5", "--equation", "adaptive"])
    assert rc == 0 and p["equation"] == "adaptive"
    rc, p = run_json(capsys, ["solve", "--loading-spec", "homogeneous", "--d", "110",
                              "--alpha", "1", "--s", "10", "--equation", "asym"])
    assert rc == 0
    assert p["lambda"] == pytest.approx(math.log(1.1), abs=1e-8)


def test_rate_json_and_csv(tmp_path, capsys):
    rc, p = run_json(capsys, ["rate", "--loading-spec", "homogeneous", "--d", "100",
                              "--alpha", "2", "--s", "5"])
    assert rc == 0
    assert p["phi_o"] == pytest.approx(117.192, abs=1e-3)
    assert p["closed_form"] == pytest.approx(25 * math.log(5), rel=1e-9)
    out = tmp_path / "rates.csv"
    rc = main(["rate", "--loading-spec", "homogeneous", "--d", "100", "--alpha", "2",
               "--csv", "--s-grid", "1,5,10", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1].split(",")[:6] == ["s", "beta", "lambda_o", "nu", "j1", "phi_o"]
    assert len(lines) == 5

    # generated families carry their closed-form cross-check in the last columns
    out2 = tmp_path / "rates2.csv"
    rc = main(["rate", "--loading-spec", "exp_decay", "--d", "200", "--c", "0.01",
               "--gamma", "1", "--alpha", "2", "--csv", "--s-grid", "2,4",
               "--out", str(out2)])
    assert rc == 0
    for line in out2.read_text().splitlines()[2:]:
        closed, ratio = line.split(",")[-2:]
        assert float(closed) > 0.0 and 0.05 <= float(ratio) <= 20.0


def test_estimate_and_exit_codes(tmp_path, capsys):
    yfile = tmp_path / "y.txt"
    yfile.write_text("4.0\n1.0\n-0.5\n")
    rc, p = run_json(capsys, ["estimate", "--variant", "oracle", "--s", "1",
                              "--alpha", "2", "--tau", "2", "--sigma", "1",
                              "--loading-spec", "homogeneous", "--d", "3",
                              "--y-file", str(yfile)])
    assert rc == 0
    assert p["value"] == 4.0 and p["kept_indices"] == [0]

    # collier on a non-homogeneous loading is an input error: exit 1
    lfile = tmp_path / "loading.txt"
    lfile.write_text("2.0\n1.0\n1.0\n")
    rc = main(["estimate", "--variant", "collier", "--s", "1", "--alpha", "2",
               "--tau", "2", "--loading-file", str(lfile), "--y-file", str(yfile)])
    assert rc == 1


def test_estimate_adaptive_and_unknown_sigma(tmp_path, capsys):
    yfile = tmp_path / "y.txt"
    yfile.write_text("\n".join(["0.0"] * 40) + "\n")
    rc, p = run_json(capsys, ["estimate", "--variant", "adaptive", "--alpha", "2",
                              "--tau", "2", "--loading-spec", "homogeneous",
                              "--d", "40", "--y-file", str(yfile)])
    assert rc == 0 and p["value"] == 0.0 and p["s_used"] == 1

    y2 = tmp_path / "y2.txt"
    y2.write_text("5.0\n" + "\n".join(["0.1", "-0.1"] * 10) + "\n")
    rc, p = run_json(capsys, ["estimate", "--variant", "unknown-sigma", "--s", "1",
                              "--alpha", "2", "--tau", "2", "--sigma-unknown",
                              "--loading-spec", "homogeneous", "--d", "21",
                              "--y-file", str(y2)])
    assert rc == 0 and p["value"] == 5.0


def test_test_subcommand(tmp_path, capsys):
    yfile = tmp_path / "y.txt"
    y = ["0.0"] * 100
    y[0] = "20.0"
    yfile.write_text("\n".join(y) + "\n")
    rc, p = run_json(capsys, ["test", "--s", "5", "--alpha", "2", "--tau", "2",
                              "--sigma", "1", "--loading-spec", "homogeneous",
                              "--d", "100", "--y-file", str(yfile),
                              "--t0", "0.0", "--B", "1.0"])
    assert rc == 0
    assert p["decision"] == 1
    assert p["statistic"] == pytest.approx(20.0)
    assert p["threshold"] == pytest.approx(math.sqrt(117.192), abs=1e-3)


def test_prior_subcommand(tmp_path, capsys):
    samples = tmp_path / "draws.txt"
    rc, p = run_json(capsys, ["prior", "--loading-spec", "homogeneous", "--d", "100",
                              "--alpha", "2", "--s", "5", "--c1", "1.0",
                              "--samples", "8", "--samples-out", str(samples),
                              "--seed", "3"])
    assert rc == 0
    assert p["sum_pi"] == pytest.approx(2.5, rel=1e-8)
    assert p["chi2_bound"] == pytest.approx(math.e, rel=1e-6)
    rows = samples.read_text().splitlines()
    assert len(rows) == 8 and len(rows[0].split()) == 100


def test_prior_bound_is_finite_when_pi_underflows(capsys):
    # the tail pi_j underflow to 0 where exp(|gamma_j / C2|^alpha) overflows
    def no_nan(name):
        raise ValueError(f"non-finite JSON constant {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["prior", "--loading-spec", "exp_decay", "--d", "3000", "--c", "0.01",
                   "--gamma", "1", "--alpha", "2", "--s", "3", "--c1", "0.5"])
    p = json.loads(capsys.readouterr().out, parse_constant=no_nan)
    assert rc == 0
    assert 1.0 <= p["chi2_bound"] < math.inf and p["tv_bound"] >= 0.0


def test_simulate_worker_invariance(tmp_path):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(BASE_CONFIG))
    o1, o2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(o1), "--workers", "1"]) == 0
    assert main(["simulate", "--config", str(cpath), "--out", str(o2), "--workers", "8"]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_simulate_json_format(tmp_path, capsys):
    cpath = tmp_path / "c.json"
    cfg = dict(BASE_CONFIG)
    cfg["simulation"] = {"replicates": 5, "s_assumed": 3}
    cpath.write_text(json.dumps(cfg))
    rc = main(["simulate", "--config", str(cpath), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tool_version"] and payload["config_hash"] and payload["seed"] == 11
    assert len(payload["rows"]) == 1


def test_simulate_bad_config_exit_1(tmp_path):
    cpath = tmp_path / "bad.json"
    cpath.write_text(json.dumps(dict(BASE_CONFIG, loading={"kind": "homogeneus"})))
    assert main(["simulate", "--config", str(cpath)]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 1


def test_missing_required_args_exit_1():
    assert main(["solve", "--alpha", "2"]) == 1          # no loading
    assert main(["rate", "--loading-spec", "homogeneous", "--d", "10",
                 "--alpha", "2"]) == 1                   # no --s and no --csv


def test_workers_env_default(tmp_path, monkeypatch):
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(BASE_CONFIG))
    ref, out = tmp_path / "ref.csv", tmp_path / "env.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(ref),
                 "--workers", "1"]) == 0
    monkeypatch.setenv("SPARSEFN_WORKERS", "3")
    assert main(["simulate", "--config", str(cpath), "--out", str(out)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_cli_test_rejects_non_oracle_variant(tmp_path):
    yfile = tmp_path / "y.txt"
    yfile.write_text("\n".join(["0.0"] * 10) + "\n")
    assert main(["test", "--variant", "collier", "--s", "3", "--alpha", "2",
                 "--tau", "2", "--loading-spec", "homogeneous", "--d", "10",
                 "--y-file", str(yfile), "--t0", "0", "--B", "1"]) == 1


def _estimate_variant_choices() -> list:
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return list(next(a for a in sub.choices["estimate"]._actions
                     if a.dest == "variant").choices)


@pytest.mark.parametrize("name", list(VARIANTS))
def test_registered_variant_is_wired_through_cli_and_sim(name, tmp_path, capsys):
    assert _estimate_variant_choices() == list(VARIANTS)
    variant = VARIANTS[name]
    yfile = tmp_path / "y.txt"
    yfile.write_text("3.0\n" + "".join(f"{0.1 * (-1) ** i}\n" for i in range(39)))
    argv = ["estimate", "--variant", name, "--alpha", "2", "--tau", "2",
            "--loading-spec", "homogeneous", "--d", "40", "--y-file", str(yfile)]
    rc, p = run_json(capsys, argv + ["--s", "1"])
    assert rc == 0 and p["variant"] == name
    assert main(argv) == (1 if variant.needs_s else 0)

    report = run_risk(SimConfig(
        loading=LoadingSpec("homogeneous", d=40), noise=NoiseModel("gaussian", 2.0, 2.0),
        sigma=1.0, theta=ThetaSpec("zero"), estimator=EstimatorSpec(name), replicates=2,
        seed=5, s_assumed=2))
    row = report.rows[0]
    assert math.isfinite(row["mse"]) and row["rate_kind"] == variant.rate_kind


def test_drop_zeros_reads_count_and_dimension(tmp_path, capsys):
    lfile = tmp_path / "loading.txt"
    lfile.write_text("2.0\n0.0\n-1.0\n0\n0.5\n")
    argv = ["rate", "--loading-file", str(lfile), "--alpha", "2", "--csv"]
    assert main(argv) == 1  # zero loadings are rejected unless dropped
    capsys.readouterr()
    assert main(argv + ["--drop-zeros"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "dropped 2 zero loadings\n"
    # without --s-grid the CSV has one row per s = 1..d
    assert [line.split(",")[0] for line in captured.out.splitlines()[2:]] == ["1", "2", "3"]


def _grid_config(tmp_path, **kw) -> str:
    cfg = dict(BASE_CONFIG, theta={"kind": "zero"}, **kw)
    cfg["simulation"] = {"replicates": 3, "s_assumed": 2, "grid": {"sigma": [1.0, 2.0]}}
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(cfg))
    return str(cpath)


def test_bracket_failure_inside_simulation_exits_2(tmp_path, capsys, monkeypatch):
    def no_bracket(self, s):
        raise BracketError("no sign change")

    monkeypatch.setattr(RateCalculator, "oracle", no_bracket)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", _grid_config(tmp_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numerical failure: replicate 0 failed")
    assert not out.exists()


def test_solve_root_below_float_resolution_exits_2(tmp_path, capsys):
    lpath = tmp_path / "loading.txt"
    lpath.write_text("1.0\n1e-100\n")
    out = tmp_path / "sol.json"
    assert main(["solve", "--loading-file", str(lpath), "--alpha", "4", "--target", "1e3",
                 "--out", str(out)]) == 2
    assert "below float resolution" in capsys.readouterr().err
    assert not out.exists()


def test_cell_set_up_failure_names_the_cell_and_exits_1(tmp_path, capsys):
    cfg = dict(BASE_CONFIG, loading={"kind": "explicit", "values": [50.0] + [1.0] * 30},
               noise={"family": "gaussian", "alpha": 2.0, "tau": 1.0},
               theta={"kind": "prior", "s": 2, "c1": 1.9})
    cfg["simulation"] = {"replicates": 3, "s_assumed": 2, "grid": {"s": [1, 2, 3]}}
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: cell set-up failed \(seed=11, cell=\[\['s', \d\]\]\): "
                    r"c1 too large", err), err
    assert not out.exists()


def test_bracket_failure_in_cell_set_up_exits_2(tmp_path, capsys, monkeypatch):
    def no_bracket(self, s):
        raise BracketError("no sign change")

    monkeypatch.setattr(RateCalculator, "oracle", no_bracket)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(BASE_CONFIG))  # spike_grid theta: set-up solves lambda_o
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "numerical failure: cell set-up failed (seed=11, cell=[['rho', 0.5]]): no sign change")
    assert not out.exists()


def test_rate_csv_builds_the_loading_once(tmp_path, monkeypatch):
    from sparsefn.loading import LoadingVector

    built = []
    real = LoadingVector.__post_init__

    def counting(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(LoadingVector, "__post_init__", counting)
    out = tmp_path / "rate.csv"
    assert main(["rate", "--loading-spec", "exp_decay", "--d", "300", "--c", "0.05",
                 "--gamma", "1", "--alpha", "1", "--csv", "--s-grid", "1,2,3",
                 "--out", str(out)]) == 0
    assert len(built) == 1
    assert out.read_text().count("\n") == 5  # meta, header, three rows


def test_input_failure_inside_simulation_exits_1(tmp_path, capsys):
    cpath = _grid_config(tmp_path, estimator={"variant": "collier", "s": 2},
                         loading={"kind": "two_phase", "d": 40, "gamma_d": 0.4,
                                  "gamma_lambda": 0.2})
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", cpath, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: replicate 0 failed") and "homogeneous" in err
    assert not out.exists()


def test_simulate_rejects_nan_sigma_before_any_replicate(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("sparsefn.sim.sample_with", never)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(dict(BASE_CONFIG, sigma=float("nan"))))
    assert "NaN" in cpath.read_text()
    assert main(["simulate", "--config", str(cpath)]) == 1
    assert capsys.readouterr().err.startswith("config error: sigma:")


def _with_sim(grid=None, **patch):
    cfg = dict(BASE_CONFIG, **patch)
    cfg["simulation"] = {"replicates": 3, "s_assumed": 3}
    if grid is not None:
        cfg["simulation"]["grid"] = grid
    return cfg


@pytest.mark.parametrize("cfg, message", [
    (_with_sim({"s": [1, 2, 50]}), "simulation.grid.s[2]: estimator.s=50 must be in [1, 40]"),
    (_with_sim({"rho": [1.0]}, theta={"kind": "spike_grid", "rho": 1.0, "n_spikes": 41}),
     "theta.n_spikes: 41 must be in [1, 40]"),
    (_with_sim({"s": [3, 45]}, estimator={"variant": "adaptive"},
               theta={"kind": "prior", "s": 2, "c1": 0.5}),
     "simulation.grid.s[1]: theta.s=45 must be in [1, 40]"),
    (_with_sim({"d": [50, 20]}, theta={"kind": "fixed", "support": [0, 30], "values": [1.0, 2.0]}),
     "simulation.grid.d[1]: theta.support[1]=30 must be in [0, 19]"),
    (_with_sim(estimator={"variant": "oracle", "s": 41}), "estimator.s: 41 must be in [1, 40]"),
    (_with_sim({"s": [1, "2"]}), "simulation.grid.s[1]: expected an integer"),
    (_with_sim({"estimator": ["oracle", "fancy"]}), "simulation.grid.estimator[1]: unknown"),
    (_with_sim({"rho": [1.0]}, theta={"kind": "zero"}),
     "simulation.grid.rho[0]: rho axis requires a spike_grid theta"),
])
def test_every_grid_cell_checked_at_parse_time(cfg, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config(json.dumps(cfg))


def test_simulate_rejects_out_of_range_cell_before_any_replicate(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("sparsefn.sim.sample_with", never)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(_with_sim({"s": [1, 2, 50]})))
    out = tmp_path / "out.csv"
    assert main(["simulate", "--config", str(cpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "config error: simulation.grid.s[2]: estimator.s=50 must be in [1, 40]\n")
    assert not out.exists()
