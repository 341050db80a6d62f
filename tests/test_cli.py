import argparse
import functools
import json
import math
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import sparsefn.cli as cli
import sparsefn.threshold as threshold
from sparsefn.cli import _build_parser, main
from sparsefn.config import ConfigError, parse_config, serialize_config
from sparsefn.estimators import VARIANTS
from sparsefn.loading import LoadingSpec
from sparsefn.noise import NoiseModel
from sparsefn.rates import RateCalculator
from sparsefn.sim import EstimatorSpec, SimConfig, ThetaSpec, run_risk
from sparsefn.threshold import BracketError, Tolerances


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


def _strict_json(text: str):
    """json.loads that rejects the non-standard constants NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# -- config parsing --------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config(json.dumps({
        "schema_version": 1, "seed": 1,
        "loading": {"kind": "homogeneous", "d": 10},
        "noise": {"family": "gaussian", "alpha": 2.0, "tau": 2.0},
    }))
    assert cfg.sim.estimator.kappa == 1.0
    assert cfg.sim.estimator.zeta is None  # resolved per cell from its alpha
    assert cfg.sim.estimator.gamma_split == 0.5
    assert cfg.sim.theta.kind == "zero"
    assert cfg.sim.replicates == 1

    low_alpha = dict(BASE_CONFIG, noise={"family": "symm_weibull", "alpha": 1.0,
                                         "tau": 2.0, "class": "G"})
    cfg2 = parse_config(json.dumps(low_alpha))
    assert cfg2.sim.estimator.zeta is None


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
    # estimator constants are range-checked at parse time, before any replicate
    ({"estimator": {"variant": "adaptive", "zeta": -1}}, "estimator"),
    ({"estimator": {"variant": "oracle", "kappa": -1}}, "estimator"),
    ({"estimator": {"variant": "unknown-sigma", "gamma_split": 0.9}}, "estimator"),
    ({"estimator": {"variant": "nonsym", "c_h": -1}}, "estimator"),
    # a repeated index would drop a value: theta[0] = 5.0 and the 1.0 lost
    ({"theta": {"kind": "fixed", "support": [0, 0], "values": [1.0, 5.0]},
      "simulation": {"replicates": 3, "s_assumed": 3}}, "theta.support[1]"),
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
    assert p["meta"]["seed"] == 3 and p["meta"]["stream_scheme"] == 2


def test_prior_bound_is_finite_when_pi_underflows(capsys):
    # the tail pi_j underflow to 0 where exp(|gamma_j / C2|^alpha) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["prior", "--loading-spec", "exp_decay", "--d", "3000", "--c", "0.01",
                   "--gamma", "1", "--alpha", "2", "--s", "3", "--c1", "0.5"])
    p = _strict_json(capsys.readouterr().out)
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
    assert payload["stream_scheme"] == 2
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


@pytest.mark.parametrize("extra", [["--s", "0"], ["--csv", "--s", "0"],
                                   ["--csv", "--s-grid", "0,1"]])
def test_rate_s_out_of_range_exits_1(extra, capsys):
    # with --csv, --s 0 is an s like any other, not a request for the default table
    assert main(["rate", "--loading-spec", "homogeneous", "--d", "10", "--alpha", "2",
                 *extra]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: s must be in [1, 10]\n")


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


def _subcommands() -> dict:
    return next(a for a in _build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _estimate_variant_choices() -> list:
    return list(next(a for a in _subcommands()["estimate"]._actions
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


def test_solve_with_unmet_residual_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(threshold, "TOLERANCES", Tolerances(max_iter=4))
    out = tmp_path / "sol.json"
    assert main(["solve", "--loading-spec", "exp_decay", "--d", "100", "--c", "3",
                 "--gamma", "1", "--alpha", "2", "--equation", "asym", "--s", "7",
                 "--out", str(out)]) == 2
    assert "residual unmet" in capsys.readouterr().err
    assert not out.exists()


def test_parser_is_built_once_and_keeps_no_arguments(capsys, monkeypatch):
    built = []
    build = _build_parser.__wrapped__
    monkeypatch.setattr(cli, "_build_parser", functools.cache(
        lambda: built.append(1) or build()))
    spec = ["--loading-spec", "homogeneous", "--d", "20", "--alpha", "2"]
    rc, first = run_json(capsys, ["solve", *spec, "--equation", "adaptive", "--s", "3"])
    assert rc == 0 and first["equation"] == "adaptive"
    # --s and --equation of the first call do not carry over
    assert main(["solve", *spec, "--equation", "adaptive"]) == 1
    assert "adaptive equation needs --s" in capsys.readouterr().err
    rc, third = run_json(capsys, ["solve", *spec, "--target", "2.0"])
    assert rc == 0 and third["equation"] == "oracle" and third["target"] == 2.0
    assert built == [1]


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
    built = []
    real = cli.make_loading

    def counting(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(cli, "make_loading", counting)
    out = tmp_path / "rate.csv"
    assert main(["rate", "--loading-spec", "exp_decay", "--d", "300", "--c", "0.05",
                 "--gamma", "1", "--alpha", "1", "--csv", "--s-grid", "1,2,3",
                 "--out", str(out)]) == 0
    assert len(built) == 1
    assert out.read_text().count("\n") == 5  # meta, header, three rows


@pytest.mark.parametrize("spec", [
    ["--loading-spec", "two_phase", "--gamma-d", "0.4", "--gamma-lambda", "0.2"],
    ["--loading-spec", "homogeneous"],
])
@pytest.mark.parametrize("command", [
    ["rate", "--alpha", "1", "--csv", "--s-grid", "1,2,5"],
    ["solve", "--alpha", "1", "--equation", "asym", "--s", "5"],
])
def test_rate_and_solve_on_levels_build_no_d_vector(tmp_path, command, spec):
    """At d = 1e6 a d-vector of floats is 8 MB; numpy reports its buffers
    to tracemalloc."""
    import tracemalloc

    argv = [*command, *spec, "--d", "1000000", "--out", str(tmp_path / "out")]
    assert main(argv) == 0  # imports and first-call set-up outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def test_grid_entry_out_of_range_for_the_base_alone_is_accepted():
    # s=50 does not fit the base's d=40, but the only cell has d=100
    grid = parse_config(json.dumps(_with_sim({"d": [100], "s": [50]}))).grid
    assert grid.cells == [{"d": 100, "s": 50}]
    assert grid.configs[0].estimator.s == 50 and grid.configs[0].loading.d == 100


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


def test_simulate_checks_the_grid_once(tmp_path, monkeypatch):
    import sparsefn.config as config
    import sparsefn.sim as sim

    calls = []
    real = sim.check_grid

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(config, "check_grid", counting)
    monkeypatch.setattr(sim, "check_grid", counting)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(BASE_CONFIG))
    assert main(["simulate", "--config", str(cpath), "--out", str(tmp_path / "o.csv")]) == 0
    assert len(calls) == 1


# -- non-finite input and strict JSON --------------------------------------------

_LOADING = ["--loading-spec", "homogeneous", "--d", "10", "--alpha", "2", "--s", "1"]
_OBSERVED = _LOADING + ["--tau", "2", "--y-file", "y.txt"]
_VALID_ARGV = {
    "solve": ["solve", *_LOADING],
    "rate": ["rate", *_LOADING],
    "estimate": ["estimate", *_OBSERVED],
    "test": ["test", *_OBSERVED, "--t0", "0", "--B", "1"],
    "prior": ["prior", *_LOADING],
}


def _float_options() -> list:
    """(subcommand, option) for every option that takes a float."""
    return [(name, action.option_strings[-1]) for name, sub in _subcommands().items()
            for action in sub._actions if action.type in (float, cli._finite_float)]


def test_every_float_option_is_checked_for_finiteness():
    options = _float_options()
    assert {name for name, _opt in options} == set(_VALID_ARGV)
    assert ("solve", "--gamma-d") in options and ("test", "--B") in options
    assert all(action.type is not float for sub in _subcommands().values()
               for action in sub._actions)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, option", _float_options())
def test_non_finite_float_option_exits_1_naming_it(command, option, value, capsys):
    assert main(_VALID_ARGV[command] + [f"{option}={value}"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: argument {option}: not a finite number: {value!r}\n"


@pytest.mark.parametrize("name", ["loading-file", "y-file"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_file_entry_exits_1_naming_file_and_line(name, value, tmp_path, capsys):
    path = tmp_path / "floats.txt"
    path.write_text(f"1.0\n\n{value}\n0.5\n")
    good = tmp_path / "good.txt"
    good.write_text("1.0\n2.0\n0.5\n")
    files = {"loading-file": str(good), "y-file": str(good), name: str(path)}
    argv = ["estimate", "--alpha", "2", "--tau", "2", "--s", "1",
            "--loading-file", files["loading-file"], "--y-file", files["y-file"]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: cannot read floats from {path}: "
                   f"line 3: not a finite number: {value!r}\n")


def test_every_json_output_is_strict(tmp_path, capsys):
    yfile = tmp_path / "y.txt"
    yfile.write_text("3.0\n" + "".join(f"{0.1 * (-1) ** i}\n" for i in range(9)))
    observed = ["--alpha", "2", "--tau", "2", "--s", "2", "--loading-spec", "homogeneous",
                "--d", "10", "--y-file", str(yfile)]
    cpath = tmp_path / "c.json"
    cfg = dict(BASE_CONFIG)
    cfg["simulation"] = {"replicates": 1, "s_assumed": 3}  # one replicate: no mse_se
    cpath.write_text(json.dumps(cfg))
    argvs = [
        ["solve", *_LOADING],
        ["rate", *_LOADING],
        ["estimate", *observed],
        ["test", *observed, "--t0", "0", "--B", "1"],
        ["prior", *_LOADING, "--c-alpha1", "1e5"],  # a bound beyond the float range
        ["simulate", "--config", str(cpath), "--format", "json"],
    ]
    outputs = []
    for argv in argvs:
        assert main(argv) == 0, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        outputs.append(_strict_json(captured.out))
    assert outputs[4]["chi2_bound"] is None and outputs[4]["tv_bound"] is None
    assert outputs[5]["rows"][0]["mse_se"] is None


# -- one schema for the CLI and the config ---------------------------------------

def _error(capsys, argv) -> str:
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_s_grid_entry_that_is_not_an_integer_names_the_option(capsys):
    err = _error(capsys, ["rate", "--loading-spec", "homogeneous", "--d", "10",
                          "--alpha", "2", "--csv", "--s-grid", "1,,2"])
    assert err == "error: argument --s-grid: invalid comma-separated integers: '1,,2'\n"


def test_negative_sample_count_names_the_option(capsys):
    err = _error(capsys, ["prior", "--loading-spec", "homogeneous", "--d", "10",
                          "--alpha", "2", "--s", "2", "--samples", "-3"])
    assert err == "error: argument --samples: must be >= 0, got -3\n"


def test_loading_sources_are_exclusive_and_drop_zeros_needs_a_file(tmp_path, capsys):
    lfile = tmp_path / "loading.txt"
    lfile.write_text("2.0\n0.0\n1.0\n")
    rate = ["rate", "--alpha", "2", "--s", "1"]
    err = _error(capsys, [*rate, "--loading-spec", "homogeneous", "--d", "3",
                          "--loading-file", str(lfile)])
    assert err.startswith("error: argument --loading-file: not allowed with argument "
                          "--loading-spec")
    err = _error(capsys, [*rate, "--loading-spec", "homogeneous", "--d", "3", "--drop-zeros"])
    assert err == "error: argument --drop-zeros: requires --loading-file\n"
    err = _error(capsys, rate)
    assert "--loading-spec --loading-file is required" in err


@pytest.mark.parametrize("argv, message", [
    (["--loading-spec", "homogeneous", "--d", "10", "--gamma-d", "3", "--c", "9"],
     "argument --gamma-d: not read by kind 'homogeneous'"),
    (["--loading-spec", "two_phase", "--d", "10", "--gamma-d", "0.5"],
     "argument --gamma-lambda: required by kind 'two_phase'"),
    (["--loading-spec", "exp_decay", "--c", "0.1", "--gamma", "1"],
     "argument --d: required by kind 'exp_decay'"),
    (["--loading-spec", "exp_decay", "--d", "10", "--c", "0.1", "--gamma", "0.5"],
     "argument --gamma: must be >= 1"),
    (["--loading-file", "{lfile}", "--d", "3"], "argument --d: not read by kind 'explicit'"),
    (["--loading-file", "{empty}"],
     "argument --loading-file: an explicit loading needs at least one"),
])
def test_loading_option_off_its_kind_names_the_option(argv, message, tmp_path, capsys):
    (tmp_path / "l.txt").write_text("2.0\n1.0\n1.0\n")
    (tmp_path / "e.txt").write_text("\n")
    argv = [a.format(lfile=tmp_path / "l.txt", empty=tmp_path / "e.txt") for a in argv]
    err = _error(capsys, ["solve", *argv, "--alpha", "2", "--s", "1"])
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("option, value, key, message", [
    ("--gamma-split", "0.9", "gamma_split", "must be in (0, 1/2]"),
    ("--zeta", "-1", "zeta", "must be positive and finite"),
    ("--c-h", "-3", "c_h", "must be positive and finite"),
    ("--kappa", "0", "kappa", "must be positive and finite"),
])
def test_cli_rejects_every_estimator_knob_that_the_config_rejects(option, value, key, message,
                                                                  tmp_path, capsys):
    yfile = tmp_path / "y.txt"
    yfile.write_text("1.0\n" * 10)
    err = _error(capsys, ["estimate", "--variant", "oracle", "--s", "2", "--alpha", "2",
                          "--tau", "2", "--loading-spec", "homogeneous", "--d", "10",
                          "--y-file", str(yfile), option, value])
    assert err == f"error: argument {option}: {message}\n"
    cfg = dict(BASE_CONFIG, estimator={"variant": "oracle", key: float(value)})
    with pytest.raises(ConfigError, match="^" + re.escape(f"estimator: {key} {message}")):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("option, value, key, message", [
    ("--c1", "3", "c1", "must be in (0, 2)"),
    ("--c-alpha2", "-1", "c_alpha2", "must be positive and finite"),
])
def test_cli_rejects_every_prior_knob_that_the_config_rejects(option, value, key, message,
                                                              capsys):
    err = _error(capsys, ["prior", "--loading-spec", "homogeneous", "--d", "10", "--alpha", "2",
                          "--s", "2", option, value])
    assert err == f"error: argument {option}: {message}\n"
    cfg = dict(BASE_CONFIG, theta={"kind": "prior", "s": 2, key: float(value)},
               simulation={"replicates": 2, "s_assumed": 2})
    with pytest.raises(ConfigError, match="^" + re.escape(f"theta: {key} {message}")):
        parse_config(json.dumps(cfg))


def test_cli_defaults_are_the_spec_defaults():
    subs = _subcommands()

    def default(command, dest):
        return next(a for a in subs[command]._actions if a.dest == dest).default

    for key in ("variant", "s", "kappa", "zeta", "gamma_split", "c_h"):
        assert default("estimate", key) == getattr(EstimatorSpec(), key)
    assert default("test", "kappa") == EstimatorSpec().kappa
    prior = ThetaSpec("prior", s=2)
    assert (default("prior", "c1"), default("prior", "c_alpha2")) == (prior.c1, prior.c_alpha2)


def test_test_takes_only_the_options_its_statistic_reads():
    options = {o for a in _subcommands()["test"]._actions for o in a.option_strings}
    assert options - {"-h", "--help"} == {
        "--loading-spec", "--loading-file", "--drop-zeros", "--d", "--gamma-d",
        "--gamma-lambda", "--c", "--gamma", "--s", "--kappa", "--alpha", "--tau", "--sigma",
        "--y-file", "--out", "--t0", "--B"}


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "sparsefn " in b]
    assert len(blocks) == 1, "README has no single CLI example block"
    commands = [line for line in blocks[0].replace("\\\n", " ").splitlines()
                if line.startswith("sparsefn ")]
    assert {shlex.split(c)[1] for c in commands} == set(_subcommands())
    for command in commands:
        _build_parser().parse_args(shlex.split(command)[1:])


_HOMOGENEOUS_20 = ["--loading-spec", "homogeneous", "--d", "20", "--alpha", "2"]


@pytest.mark.parametrize("argv, message", [
    (["solve", *_HOMOGENEOUS_20, "--equation", "adaptive", "--s", "2", "--target", "5"],
     "argument --target: not read by equation 'adaptive'"),
    (["solve", *_HOMOGENEOUS_20, "--equation", "asym", "--s", "2", "--target", "5"],
     "argument --target: not read by equation 'asym'"),
    (["rate", *_HOMOGENEOUS_20, "--s", "2", "--s-grid", "1,2"],
     "argument --s-grid: not read without --csv"),
    (["rate", *_HOMOGENEOUS_20, "--csv", "--s", "7", "--s-grid", "1,2"],
     "argument --s: not read with --s-grid"),
])
def test_option_that_the_mode_does_not_read_is_rejected(argv, message, capsys):
    assert _error(capsys, argv) == f"error: {message}\n"


@pytest.mark.parametrize("argv, digest", [
    (["solve", *_HOMOGENEOUS_20, "--s", "2", "--target", "1.5"],
     "1e690a771ef77569d4b5a7dc91cde7e6ae413a348c3ed808bb5bca5a921d7711"),
    (["solve", *_HOMOGENEOUS_20, "--equation", "adaptive", "--s", "2"],
     "91a701cbe6a66b22703822faaf97323525e18eff188a638c855720b153e9b18f"),
    (["solve", *_HOMOGENEOUS_20, "--equation", "asym", "--s", "2"],
     "657b462310aa9b194f0963d7f7d08d0328b4715bec1f4f72d2d679142fd98ceb"),
    (["rate", *_HOMOGENEOUS_20, "--s", "2"],
     "2ed6909a34be0a09d008fa3d35a708e740bd42ed7610934a81455c51277c02d4"),
    (["rate", *_HOMOGENEOUS_20, "--csv", "--s", "7"],
     "9397dc729be72cf470a71f9ca79c46699733e23ccd96e88dc3a7b61cc3861dc8"),
    (["rate", *_HOMOGENEOUS_20, "--csv", "--s-grid", "1,2"],
     "2fbc3c76ede74f0e44cc2c4e6c67a8c802e8232bd49f4f2a606c0cef66e05c59"),
])
def test_calls_beside_the_rejected_ones_keep_their_hash(argv, digest, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    if out.startswith("{"):
        assert json.loads(out)["meta"]["config_hash"] == digest
    else:
        assert f"config_hash={digest}" in out.splitlines()[0].split()
