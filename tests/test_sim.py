import dataclasses
import json
import math
import re

import numpy as np
import pytest

from sparsefn.estimators import mom_sigma
from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.noise import NoiseModel, sample_with
from sparsefn.sim import (
    EstimatorSpec,
    SimConfig,
    SimulationError,
    ThetaSpec,
    calibrate_test_threshold,
    config_hash,
    meta,
    risk_grid,
    run_mom_coverage,
    run_risk,
    run_test_power,
)
from sparsefn.streams import Stream

GAUSS = NoiseModel("gaussian", 2.0, 2.0, "G")


def config(**kw):
    base = dict(
        loading=LoadingSpec("homogeneous", d=40),
        noise=GAUSS,
        sigma=1.0,
        theta=ThetaSpec("spike_grid", rho=1.0, n_spikes=3),
        estimator=EstimatorSpec("oracle", s=3),
        replicates=40,
        seed=2024,
        s_assumed=3,
    )
    base.update(kw)
    return SimConfig(**base)


def test_zero_noise_zero_theta_mse_zero():
    rep = run_risk(config(sigma=0.0, theta=ThetaSpec("zero")))
    assert rep.rows[0]["mse"] == 0.0


def test_zero_noise_fixed_theta_recovered_exactly():
    rep = run_risk(config(
        sigma=0.0,
        theta=ThetaSpec("fixed", support=(0, 5, 11), values=(4.0, -3.0, 2.0)),
    ))
    assert rep.rows[0]["mse"] == 0.0


def test_report_is_deterministic_and_hashed():
    c = config()
    r1, r2 = run_risk(c), run_risk(c)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    assert r1.config_hash == meta(c.to_dict(), c.seed)["config_hash"]
    assert len(r1.config_hash) == 64


def test_different_seeds_differ():
    a = run_risk(config(seed=1)).rows[0]["mse"]
    b = run_risk(config(seed=2)).rows[0]["mse"]
    assert a != b


def test_grid_axis_order_and_worker_invariance():
    c = config(replicates=25)
    g1 = risk_grid(c, {"rho": [0.5, 1.0], "estimator": ["oracle", "plugin"]})
    g2 = risk_grid(c, {"estimator": ["oracle", "plugin"], "rho": [0.5, 1.0]})
    assert g1.to_csv() == g2.to_csv()
    assert len(g1.rows) == 4


def test_single_cell_grid_matches_run_risk():
    c = config(replicates=30)
    # run_risk uses the empty cell key; a 1-cell grid keyed by rho shares the
    # theta but derives streams from its own coordinates, so compare contents
    g = risk_grid(c, {"rho": [1.0]})
    assert len(g.rows) == 1
    assert g.rows[0]["estimator"] == "oracle"
    assert g.rows[0]["n_rep"] == 30


def test_estimator_axis_is_paired_on_shared_noise():
    # plugin on theta = 0 reduces to sum(sigma xi); oracle at huge rho keeps
    # the same draws, so identical streams make the comparison paired:
    # repeating the grid flips nothing
    c = config(replicates=15)
    g = risk_grid(c, {"estimator": ["oracle", "plugin"], "s": [3]})
    again = risk_grid(c, {"estimator": ["oracle", "plugin"], "s": [3]})
    assert g.to_csv() == again.to_csv()
    mse = {row["estimator"]: row["mse"] for row in g.rows}
    assert mse["oracle"] != mse["plugin"]


def test_grid_rejects_unknown_axis():
    with pytest.raises(ValueError):
        risk_grid(config(), {"bananas": [1]})


@pytest.mark.parametrize("grid, message", [
    ({"d": [20.9]}, "simulation.grid.d[0]: expected an integer"),
    ({"rho": [0.5], "s": [1, 2.7]}, "simulation.grid.s[1]: expected an integer"),
    ({"d": [True]}, "simulation.grid.d[0]: expected an integer"),
    ({"sigma": ["1"]}, "simulation.grid.sigma[0]: expected a number"),
    ({"rho": [1.0, math.nan]}, "simulation.grid.rho[1]: expected a finite number"),
    ({"alpha": [10**400]}, "simulation.grid.alpha[0]: expected a finite number"),
    ({"estimator": [3]}, "simulation.grid.estimator[0]: expected a string"),
    ({"s": [np.int64(2)]}, "simulation.grid.s[0]: expected an integer"),
    ({"rho": [np.float64(0.5)]}, "simulation.grid.rho[0]: expected a number"),
    ([["rho", [1.0]]], "simulation.grid: expected an object of axis lists"),
    ({"rho": []}, "simulation.grid.rho: expected a nonempty list"),
    # types are checked in the grid's key order, before any axis must be known
    ({"bananas": [1], "d": [2.5]}, "simulation.grid.d[0]: expected an integer"),
], ids=["d-float", "s-float", "d-bool", "sigma-str", "rho-nan", "alpha-huge-int",
        "estimator-int", "s-numpy", "rho-numpy", "not-a-dict", "empty-axis", "key-order"])
def test_library_grids_pass_the_config_gate(grid, message):
    # a grid from Python is held to the rules of a config file's grid, with
    # the same message, instead of running a coerced entry and writing the
    # entry as given into the CSV and its config_hash
    from sparsefn.config import ConfigError, parse_config
    from sparsefn.sim import check_grid

    for call in (check_grid, risk_grid):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(config(), grid)
    if not any(isinstance(v, np.generic) for values in dict(grid).values() for v in values):
        obj = {"schema_version": 1, **config().to_dict()}
        obj["simulation"]["grid"] = grid
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(json.dumps(obj))


@pytest.mark.parametrize("grid, name", [({1: [2], "rho": [1.0]}, "1"),
                                        ({"rho": [1.0], ("s",): [2]}, "('s',)")])
def test_library_grid_axis_names_must_be_strings(grid, name):
    # mixed key types used to fail in sorted() with a TypeError and no path
    # (a config file cannot reach this: JSON keys are strings)
    from sparsefn.sim import check_grid

    message = f"simulation.grid: axis names must be strings, not {name}"
    for call in (check_grid, risk_grid):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(config(), grid)


def test_library_grid_of_tuples_equals_its_list_grid():
    c = config(replicates=5)
    as_lists = risk_grid(c, {"rho": [0.5, 2], "s": [1, 3]})
    as_tuples = risk_grid(c, {"rho": (0.5, 2), "s": (1, 3)})
    assert as_tuples.to_csv() == as_lists.to_csv()
    assert as_tuples.to_json() == as_lists.to_json()


@pytest.mark.parametrize("sigma", [math.nan, math.inf])
def test_config_rejects_non_finite_sigma(sigma):
    with pytest.raises(ValueError, match="finite"):
        config(sigma=sigma)


def test_rate_denominator_kind_per_variant():
    adaptive = run_risk(config(estimator=EstimatorSpec("adaptive"), replicates=5))
    assert adaptive.rows[0]["rate_kind"] == "phi_adp"
    oracle = run_risk(config(replicates=5))
    assert oracle.rows[0]["rate_kind"] == "phi_o"
    assert oracle.rows[0]["ratio"] == pytest.approx(
        oracle.rows[0]["mse"] / oracle.rows[0]["rate_value"])


def test_mse_se_shrinks_with_replicates():
    small = run_risk(config(replicates=100)).rows[0]["mse_se"]
    large = run_risk(config(replicates=400)).rows[0]["mse_se"]
    assert large < small  # ~2x shrink expected, direction is the sanity check


def test_prior_theta_redrawn_per_replicate():
    c = config(
        loading=LoadingSpec("homogeneous", d=100),
        theta=ThetaSpec("prior", s=5, c1=0.5),
        estimator=EstimatorSpec("oracle", s=5),
        s_assumed=5,
        replicates=60,
        sigma=0.0,  # exact recovery per draw: mse measures nothing but pairing
    )
    rep = run_risk(c)
    assert rep.rows[0]["mse"] == 0.0  # recovery is exact at sigma = 0

    c2 = config(
        loading=LoadingSpec("homogeneous", d=100),
        theta=ThetaSpec("prior", s=5, c1=0.5),
        estimator=EstimatorSpec("plugin"),
        s_assumed=5,
        replicates=60,
    )
    rep2 = run_risk(c2)
    assert rep2.rows[0]["mse"] > 0.0


def test_mom_coverage_smoke():
    c = config(
        loading=LoadingSpec("homogeneous", d=400),
        theta=ThetaSpec("fixed", support=tuple(range(4)), values=(1.0,) * 4),
        estimator=EstimatorSpec("unknown-sigma", s=4),
        s_assumed=4,
        replicates=200,
    )
    rep = run_mom_coverage(c)
    assert rep.n_rep == 200
    assert rep.coverage >= 0.95
    assert rep.mean_abs_rel_err < 0.6


def test_mom_coverage_trend_toward_boundary():
    # recorded trend: inside the valid regime s_true < floor(gamma d)/4 the
    # coverage stays essentially at 1 and is NOT monotone at desk scale,
    # because light contamination offsets the lower-middle median's downward
    # bias (tiny blocks: the median of Exp(1) block means sits near 0.69)
    coverages = []
    for s_true in (2, 12, 24):
        c = config(
            loading=LoadingSpec("homogeneous", d=200),
            theta=ThetaSpec("fixed", support=tuple(range(s_true)),
                            values=(10.0,) * s_true),
            estimator=EstimatorSpec("unknown-sigma", s=s_true),
            s_assumed=s_true,
            replicates=300,
        )
        coverages.append(run_mom_coverage(c).coverage)
    print("coverage trend over s_true in (2, 12, 24):", coverages)
    assert min(coverages) >= 0.95


def test_mom_coverage_rejects_zero_sigma():
    with pytest.raises(ValueError, match=r"^sigma=0\.0 must be positive"):
        run_mom_coverage(config(sigma=0.0))


def test_mom_coverage_requires_fixed_theta():
    c = config(theta=ThetaSpec("prior", s=3, c1=0.5))
    with pytest.raises(ValueError):
        run_mom_coverage(c)


def test_test_power_extremes():
    c = config(
        loading=LoadingSpec("homogeneous", d=100),
        theta=ThetaSpec("zero"),
        estimator=EstimatorSpec("oracle", s=5),
        s_assumed=5,
        replicates=150,
    )
    phi_o = 117.19244861479409
    rep = run_test_power(c, t0=0.0, B=1.0, rho_grid=[8.0 * math.sqrt(phi_o)])
    t1 = max(r["error_rate"] for r in rep.rows if r["kind"] == "type1")
    t2 = max(r["error_rate"] for r in rep.rows if r["kind"] == "type2")
    assert t1 <= 0.05
    assert t2 <= 0.05
    # huge B never rejects
    rep_b = run_test_power(c, t0=0.0, B=1e6, rho_grid=[1.0])
    assert all(r["error_rate"] == 0.0 for r in rep_b.rows if r["kind"] == "type1")
    assert all(r["error_rate"] == 1.0 for r in rep_b.rows if r["kind"] == "type2")


def test_test_power_nonzero_null_value():
    c = config(
        loading=LoadingSpec("homogeneous", d=100),
        theta=ThetaSpec("zero"),
        estimator=EstimatorSpec("oracle", s=5),
        s_assumed=5,
        replicates=100,
    )
    rep = run_test_power(c, t0=7.0, B=1.0, rho_grid=[100.0])
    kinds = {r["kind"] for r in rep.rows}
    assert kinds == {"type1", "type2"}
    t1 = max(r["error_rate"] for r in rep.rows if r["kind"] == "type1")
    t2 = max(r["error_rate"] for r in rep.rows if r["kind"] == "type2")
    assert t1 <= 0.1 and t2 <= 0.1


def test_estimator_s_defaults_to_s_assumed():
    a = run_risk(config(estimator=EstimatorSpec("oracle"), replicates=10))
    b = run_risk(config(estimator=EstimatorSpec("oracle", s=3), replicates=10))
    assert a.rows[0]["mse"] == b.rows[0]["mse"]


def test_distinct_data_cells_use_distinct_streams():
    g = risk_grid(config(replicates=20), {"rho": [0.5, 1.0, 2.0]})
    mses = [r["mse"] for r in g.rows]
    assert len(set(mses)) == len(mses)


def test_calibrated_threshold_controls_type1():
    c = config(
        loading=LoadingSpec("homogeneous", d=100),
        theta=ThetaSpec("zero"),
        estimator=EstimatorSpec("oracle", s=5),
        s_assumed=5,
        replicates=400,
    )
    B = calibrate_test_threshold(c, t0=0.0, epsilon=0.1)
    assert B > 0.0
    rep = run_test_power(c, t0=0.0, B=B, rho_grid=[])
    t1 = max(r["error_rate"] for r in rep.rows if r["kind"] == "type1")
    assert t1 <= 0.1


def test_csv_columns_and_meta_line():
    rep = risk_grid(config(replicates=5), {"rho": [1.0, 2.0]})
    lines = rep.to_csv().splitlines()
    assert lines[0].startswith("# sparsefn ")
    assert lines[0].endswith(f"config_hash={rep.config_hash} seed=2024 stream_scheme=2")
    assert lines[1] == "rho,estimator,n_rep,mse,mse_se,rate_kind,rate_value,ratio"
    assert len(lines) == 4


def test_risk_grid_checks_every_cell_before_any_replicate(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr("sparsefn.sim.sample_with", never)
    message = "simulation.grid.s[1]: estimator.s=41 must be in [1, 40]"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        risk_grid(config(), {"s": [1, 41]})
    message = "simulation.grid cell {'d': 30, 's': 35}: estimator.s=35 must be in [1, 30]"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        risk_grid(config(), {"d": [30, 40], "s": [1, 35]})
    with pytest.raises(ValueError, match=r"^theta\.support\[0\]: 40 must be in \[0, 39\]"):
        run_risk(config(theta=ThetaSpec("fixed", support=(40,), values=(1.0,))))


def test_estimator_axis_draws_noise_once_per_data_cell_replicate(monkeypatch):
    import sparsefn.sim as sim

    blocks = []
    real = sim.sample_with

    def counting(noise, d, streams, replicates):
        xi = real(noise, d, streams, replicates)
        blocks.append(([stream.tags for stream in streams], xi.shape))
        return xi

    monkeypatch.setattr(sim, "sample_with", counting)
    reps = 7
    rep = risk_grid(config(replicates=reps),
                    {"estimator": ["oracle", "plugin", "nonsym", "unknown-sigma"],
                     "rho": [0.5, 1.0, 2.0]})
    assert len(rep.rows) == 12
    # rows drawn = data cells x R: each data cell's stream once, its R rows
    # stacked with the other data cells' in one (3 R, d) block
    tags = [("cell", [["rho", rho]], "xi") for rho in (0.5, 1.0, 2.0)]
    assert blocks == [(tags, (3 * reps, 40))]


def test_each_replicate_sorted_once_across_the_estimator_axis(monkeypatch):
    import sparsefn.estimators as estimators
    from sparsefn.loading import LoadingVector

    calls = []
    real = LoadingVector.to_sorted

    def counting(self, x):
        calls.append(x.shape)
        return real(self, x)

    def no_family(*args, **kwargs):
        raise AssertionError("adaptive recomputed its member through family_estimate")

    monkeypatch.setattr(LoadingVector, "to_sorted", counting)
    monkeypatch.setattr(estimators, "family_estimate", no_family)
    reps = 7
    rep = risk_grid(config(replicates=reps),
                    {"estimator": ["oracle", "nonsym", "unknown-sigma", "adaptive"]})
    assert len(rep.rows) == 4
    # rows gathered = data cells x R: one gather of the (R, d) block
    assert calls == [(reps, 40)]


def test_mom_coverage_reads_y_without_a_sorted_gather(monkeypatch):
    from sparsefn.loading import LoadingVector

    def no_gather(self, x):
        raise AssertionError("coverage gathered y into sorted order")

    monkeypatch.setattr(LoadingVector, "to_sorted", no_gather)
    rep = run_mom_coverage(config(theta=ThetaSpec("zero"), replicates=9))
    assert rep.n_rep == 9


def test_oracle_equation_solved_once_per_loading_alpha_and_s(monkeypatch):
    import sparsefn.rates as rates

    solved = []
    real = rates._solve_phi

    def counting(kernel, targets):
        solved.append((kernel.alpha, *targets))
        return real(kernel, targets)

    monkeypatch.setattr(rates, "_solve_phi", counting)
    rep = risk_grid(config(replicates=2),
                    {"estimator": ["oracle", "plugin", "unknown-sigma"],
                     "rho": [0.5, 2.0], "s": [2, 3], "d": [40, 50]})
    assert len(rep.rows) == 24
    # one oracle solve (target s/2) per distinct (d, alpha, s): two d, two s
    assert sorted(solved) == [(2.0, 1.0)] * 2 + [(2.0, 1.5)] * 2


def test_multi_estimator_rows_equal_single_estimator_rows():
    c = config(replicates=12)
    estimators = ["oracle", "adaptive", "family", "plugin", "nonsym"]
    axes = {"rho": [0.5, 2.0], "s": [2, 3]}
    joint = risk_grid(c, dict(axes, estimator=estimators)).rows
    for name in estimators:
        alone = risk_grid(c, dict(axes, estimator=[name])).rows
        assert alone == [row for row in joint if row["estimator"] == name]


def _pinned_config():
    return SimConfig(loading=LoadingSpec("homogeneous", d=100),
                     noise=NoiseModel("gaussian", 2.0, 1.0, "G"), sigma=1.0,
                     theta=ThetaSpec("zero"), estimator=EstimatorSpec("oracle", s=5),
                     replicates=50, seed=7, s_assumed=5)


def test_experiments_reproduce_their_pinned_outputs():
    # every experiment draws its replicates on the streams it always used:
    # coverage ("cell", [], "xi"), calibration ("test", "calib", fixture),
    # test power ("test", "null", fixture) and ("test", "alt", fixture, rho)
    c = _pinned_config()
    rep = run_mom_coverage(c)
    assert (rep.coverage.hex(), rep.mean_abs_rel_err.hex(), rep.n_rep) == (
        "0x1.eb851eb851eb8p-1", "0x1.22b39bb7863c3p-2", 50)
    xi = sample_with(c.noise, 100, Stream(7, "cell", [], "xi"), 50)
    est = mom_sigma(xi)
    assert rep.coverage == np.count_nonzero((0.5 <= est) & (est <= 1.5)) / 50
    B = calibrate_test_threshold(c, t0=0.0, epsilon=0.1)
    assert B.hex() == "0x1.403e8bcd7e02bp+0"
    csv = run_test_power(c, t0=0.0, B=B, rho_grid=[2.0, 40.0]).to_csv()
    assert csv.splitlines()[1:] == [
        "kind,fixture,rho,error_rate,n_rep",
        "type1,point,0.0,0.06,50",
        "type1,cancelling_pair,0.0,0.06,50",
        "type2,single+,2.0,1.0,50",
        "type2,single-,2.0,1.0,50",
        "type2,spread5,2.0,0.98,50",
        "type2,single+,40.0,0.0,50",
        "type2,single-,40.0,0.0,50",
        "type2,spread5,40.0,0.0,50",
    ]


@pytest.mark.parametrize("experiment", [
    run_mom_coverage,
    lambda c: calibrate_test_threshold(c, t0=0.0, epsilon=0.1),
    lambda c: run_test_power(c, t0=0.0, B=1.0, rho_grid=[2.0]),
    run_risk,
], ids=["coverage", "calibration", "test_power", "risk"])
def test_failed_replicate_names_seed_and_replicate(experiment, monkeypatch):
    import sparsefn.sim as sim

    calls = []
    real = sim.sample_with

    def nan_at_replicate_3(noise, d, stream, replicates):
        calls.append(d)
        xi = real(noise, d, stream, replicates)
        if len(calls) == 1:  # row 3 of the first block drawn
            xi[3] = np.nan
        return xi

    monkeypatch.setattr(sim, "sample_with", nan_at_replicate_3)
    with pytest.raises(SimulationError, match=r"^replicate 3 failed \(seed=7, ") as err:
        experiment(_pinned_config())
    assert isinstance(err.value.__cause__, ValueError)


def test_failed_replicate_in_a_shared_block_names_its_own_cell(monkeypatch):
    # three data cells share one block; replicate 3 of the middle one fails,
    # and the error names that cell as when it runs alone
    import sparsefn.sim as sim

    real = sim.sample_with
    failing = ("cell", [["rho", 1.0]], "xi")
    blocks = []

    def nan_in_the_middle_cell(noise, d, streams, replicates):
        xi = real(noise, d, streams, replicates)
        tags = [stream.tags for stream in streams]
        blocks.append(len(tags))
        if failing in tags:
            xi[tags.index(failing) * replicates + 3] = np.nan
        return xi

    monkeypatch.setattr(sim, "sample_with", nan_in_the_middle_cell)
    message = (r"^replicate 3 failed \(seed=7, cell=\[\['rho', 1\.0\]\]\): "
               r"y entries must be finite$")
    with pytest.raises(SimulationError, match=message) as err:
        risk_grid(config(seed=7, replicates=10), {"rho": [0.5, 1.0, 2.0],
                                                  "estimator": ["oracle", "plugin"]})
    assert isinstance(err.value.__cause__, ValueError)
    assert blocks == [3, 1, 1]  # the block, then its data cells one at a time


@pytest.mark.parametrize("base, axes", [
    (config(replicates=17),
     {"rho": [0.5, 2.0], "s": [1, 2, 4],
      "estimator": ["collier", "family", "adaptive", "unknown-sigma", "oracle", "nonsym"]}),
    (config(replicates=9, theta=ThetaSpec("prior", s=2, c1=0.5),
            noise=NoiseModel("symm_weibull", 1.0, 2.0, "G")),
     {"s": [1, 2, 3], "estimator": ["oracle", "family", "plugin"]}),
], ids=["spike_grid-gaussian", "prior-symm_weibull"])
def test_block_rows_equal_each_data_cell_run_alone(base, axes, monkeypatch):
    # the data cells share one block, with one s per row; each data cell's
    # streams are keyed by its coordinates, so run as its own one-cell grid
    # it draws the same rows and must give the same rows bit for bit
    import sparsefn.sim as sim

    blocks = []
    real = sim.sample_with

    def counting(noise, d, streams, replicates):
        blocks.append(len(streams))
        return real(noise, d, streams, replicates)

    monkeypatch.setattr(sim, "sample_with", counting)
    joint = risk_grid(base, axes).rows
    assert blocks[0] == len(joint) // len(axes["estimator"]) > 1
    data_axes = [a for a in sorted(axes) if a != "estimator"]
    for row in joint:
        if row["estimator"] != axes["estimator"][0]:
            continue
        alone = risk_grid(base, dict({a: [row[a]] for a in data_axes},
                                     estimator=axes["estimator"])).rows
        assert alone == [r for r in joint if all(r[a] == row[a] for a in data_axes)]


@pytest.mark.parametrize("base", [
    config(),
    config(theta=ThetaSpec("prior", s=2, c1=0.5), estimator=EstimatorSpec("family")),
    config(theta=ThetaSpec("zero"), estimator=EstimatorSpec("plugin", s=2)),
], ids=["spike_grid", "prior", "zero"])
def test_unchecked_cells_equal_checked_cells(base):
    from sparsefn.sim import _apply_cell, check_grid

    grid = {"alpha": [1.0, 2.0], "d": [40, 50], "estimator": ["oracle", "plugin", "adaptive"],
            "s": [2, 3], "sigma": [0.5, 1.0]}
    if base.theta.kind == "spike_grid":
        grid["rho"] = [0.5, 2.0]
    checked = check_grid(base, grid)
    assert len(checked.configs) == math.prod(len(v) for v in grid.values())
    assert checked.configs == [_apply_cell(base, cell) for cell in checked.cells]


def test_config_hash_records_the_stream_scheme():
    c = config()
    hashed = meta(c.to_dict(), c.seed)["config_hash"]
    assert hashed == config_hash({**c.to_dict(), "stream_scheme": 2})
    assert hashed != config_hash(c.to_dict())
    assert json.loads(run_risk(config(replicates=2)).to_json())["stream_scheme"] == 2


def test_replicate_rows_do_not_depend_on_the_replicate_count(monkeypatch):
    # the prefix property end to end: the theta and noise rows of an R run
    # are the first R rows of a 2R run
    import sparsefn.sim as sim

    drawn = []
    for name in ("sample_with", "draw_prior"):
        real = getattr(sim, name)

        def recording(*args, _real=real, **kwargs):
            out = _real(*args, **kwargs)
            drawn.append(out)
            return out

        monkeypatch.setattr(sim, name, recording)
    c = config(loading=LoadingSpec("homogeneous", d=100), theta=ThetaSpec("prior", s=5, c1=0.5),
               estimator=EstimatorSpec("oracle", s=5), s_assumed=5,
               noise=NoiseModel("symm_weibull", 1.0, 2.0, "G"))
    run_risk(dataclasses.replace(c, replicates=6))
    theta6, xi6 = drawn
    drawn.clear()
    run_risk(dataclasses.replace(c, replicates=12))
    theta12, xi12 = drawn
    np.testing.assert_array_equal(theta6, theta12[:6])
    np.testing.assert_array_equal(xi6, xi12[:6])


def test_zeta_default_resolves_per_alpha_cell(monkeypatch):
    # an unset Lepski constant follows each cell's alpha (1e3 for alpha >= 2,
    # else 1e4), not the base config's
    import sparsefn.estimators as estimators
    from sparsefn.config import parse_config

    seen = set()
    real = estimators._lepski_core

    def recording(inp, zeta, calc):
        seen.add((inp.alpha, zeta))
        return real(inp, zeta, calc)

    monkeypatch.setattr(estimators, "_lepski_core", recording)
    cfg = parse_config(json.dumps({
        "schema_version": 1, "seed": 3,
        "loading": {"kind": "homogeneous", "d": 20},
        "noise": {"family": "symm_weibull", "alpha": 2.0, "tau": 2.0},
        "estimator": {"variant": "adaptive"},
        "simulation": {"replicates": 2, "grid": {"alpha": [1.0, 2.0]}},
    }))
    risk_grid(cfg.sim, cfg.grid)
    assert seen == {(1.0, 1e4), (2.0, 1e3)}
