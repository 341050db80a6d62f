"""Output metadata: every ``config_hash`` comes from ``sim.meta`` over the
inputs that made the output, and over nothing else."""

import json
import re

import pytest

from sparsefn import __version__
from sparsefn.cli import main
from sparsefn.config import parse_config, serialize_config
from sparsefn.loading import LoadingSpec
from sparsefn.noise import NoiseModel
from sparsefn.sim import EstimatorSpec, SimConfig, ThetaSpec, config_hash, run_test_power

CONFIG = {
    "schema_version": 1,
    "seed": 5,
    "sigma": 1.0,
    "loading": {"kind": "homogeneous", "d": 30},
    "noise": {"family": "gaussian", "alpha": 2.0, "tau": 2.0, "class": "G"},
    "estimator": {"variant": "oracle", "s": 2},
    "theta": {"kind": "spike_grid", "rho": 1.0, "n_spikes": 2},
    "simulation": {"replicates": 4, "s_assumed": 2,
                   "grid": {"rho": [0.5, 2.0], "estimator": ["oracle", "plugin"]}},
}
SEEDED_LINE = re.compile(rf"^# sparsefn {re.escape(__version__)} "
                         r"config_hash=[0-9a-f]{64} seed=\d+ stream_scheme=2$")


def _csv_hash(text: str) -> str:
    return re.search(r"config_hash=([0-9a-f]{64})", text.splitlines()[0]).group(1)


def _simulate(tmp_path, text: str, *flags: str, name: str = "out.csv") -> str:
    cpath = tmp_path / "config.json"
    cpath.write_text(text)
    out = tmp_path / name
    assert main(["simulate", "--config", str(cpath), "--out", str(out), *flags]) == 0
    return out.read_text()


def _json_hash(capsys, argv) -> str:
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["meta"]["config_hash"]


# -- what the hash covers ----------------------------------------------------------

def test_simulate_hash_covers_the_grid_values(tmp_path):
    wide = json.loads(json.dumps(CONFIG))
    wide["simulation"]["grid"]["rho"] = [0.5, 3.0]
    a = _simulate(tmp_path, json.dumps(CONFIG))
    b = _simulate(tmp_path, json.dumps(wide))
    assert a.splitlines()[1:] != b.splitlines()[1:]
    assert _csv_hash(a) != _csv_hash(b)


def test_simulate_hash_is_the_serialized_config_plus_the_stream_scheme(tmp_path):
    text = json.dumps(CONFIG)
    layout = json.loads(serialize_config(parse_config(text)))
    del layout["schema_version"]
    out = _simulate(tmp_path, text)
    assert SEEDED_LINE.match(out.splitlines()[0])
    assert _csv_hash(out) == config_hash({**layout, "stream_scheme": 2})


@pytest.mark.parametrize("change", [{"t0": 0.5}, {"B": 2.0}, {"rho_grid": [0.5, 3.0]}])
def test_test_power_hash_covers_its_arguments(change):
    c = SimConfig(LoadingSpec("homogeneous", d=20), NoiseModel("gaussian", 2.0, 2.0, "G"),
                  1.0, ThetaSpec("zero"), EstimatorSpec("oracle", s=3), 3, 1, 3)
    args = {"t0": 0.0, "B": 1.0, "rho_grid": [0.5, 2.0]}
    assert (run_test_power(c, **args).config_hash
            != run_test_power(c, **{**args, **change}).config_hash)


def test_rate_hash_counts_the_loading_read_not_its_path(tmp_path, capsys):
    lfile = tmp_path / "loading.txt"
    argv = ["rate", "--loading-file", str(lfile), "--alpha", "2", "--s", "2"]
    lfile.write_text("3.0\n2.0\n1.0\n1.0\n")
    first = _json_hash(capsys, argv)
    lfile.write_text("5.0\n2.0\n1.0\n1.0\n")
    assert _json_hash(capsys, argv) != first

    moved = tmp_path / "elsewhere.txt"
    moved.write_text("3.0\n2.0\n1.0\n1.0\n")
    assert _json_hash(capsys, ["rate", "--loading-file", str(moved),
                               "--alpha", "2", "--s", "2"]) == first


@pytest.mark.parametrize("variant, flags", [
    (["--variant", "nonsym"], ["--c-h", "0.5"]),
    (["--variant", "unknown-sigma", "--sigma-unknown"], ["--shuffle-blocks", "3"]),
])
def test_estimate_hash_covers_every_argument(tmp_path, capsys, variant, flags):
    yfile = tmp_path / "y.txt"
    yfile.write_text("\n".join(["4.0", "1.0", "-0.5", "0.2"] * 5) + "\n")
    argv = ["estimate", *variant, "--s", "1", "--alpha", "2", "--tau", "2",
            "--loading-spec", "homogeneous", "--d", "20", "--y-file", str(yfile)]
    assert _json_hash(capsys, argv) != _json_hash(capsys, argv + flags)


def test_estimate_hash_counts_the_observations_read(tmp_path, capsys):
    yfile = tmp_path / "y.txt"
    argv = ["estimate", "--s", "1", "--alpha", "2", "--tau", "2",
            "--loading-spec", "homogeneous", "--d", "3", "--y-file", str(yfile)]
    yfile.write_text("4.0\n1.0\n-0.5\n")
    first = _json_hash(capsys, argv)
    yfile.write_text("4.0\n1.0\n0.5\n")
    assert _json_hash(capsys, argv) != first


def test_rate_csv_meta_line_has_no_seed(tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["rate", "--loading-spec", "homogeneous", "--d", "50", "--alpha", "2",
                 "--csv", "--s-grid", "1,2", "--out", str(out)]) == 0
    line = out.read_text().splitlines()[0]
    assert re.match(rf"^# sparsefn {re.escape(__version__)} config_hash=[0-9a-f]{{64}}$", line)


# -- what the hash leaves out ------------------------------------------------------

def test_simulate_hash_ignores_runs_workers_out_and_format(tmp_path):
    text = json.dumps(CONFIG)
    first = _simulate(tmp_path, text)
    assert _simulate(tmp_path, text) == first
    assert _simulate(tmp_path, text, "--workers", "3", name="other.csv") == first
    as_json = json.loads(_simulate(tmp_path, text, "--format", "json", name="out.json"))
    assert as_json["config_hash"] == _csv_hash(first)


def test_simulate_hash_ignores_key_order_and_whitespace(tmp_path):
    def reversed_keys(obj):
        if isinstance(obj, dict):
            return {k: reversed_keys(obj[k]) for k in reversed(list(obj))}
        return obj

    compact = _simulate(tmp_path, json.dumps(CONFIG, separators=(",", ":")))
    spread = _simulate(tmp_path, json.dumps(reversed_keys(CONFIG), indent=7) + "\n\n")
    assert _csv_hash(compact) == _csv_hash(spread)


def test_cli_hash_ignores_repeats_and_out_paths(tmp_path, capsys):
    argv = ["solve", "--loading-spec", "homogeneous", "--d", "100", "--alpha", "2", "--s", "5"]
    first = _json_hash(capsys, argv)
    assert _json_hash(capsys, argv) == first
    for name in ("a.json", "b.json"):
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    a, b = (json.loads((tmp_path / n).read_text())["meta"]["config_hash"]
            for n in ("a.json", "b.json"))
    assert a == b == first

    m1, m2 = (json.loads(_prior(capsys, tmp_path / name))["meta"]
              for name in ("d1.txt", "d2.txt"))
    assert m1 == m2 and m1["stream_scheme"] == 2


def _prior(capsys, samples_out) -> str:
    assert main(["prior", "--loading-spec", "homogeneous", "--d", "20", "--alpha", "2",
                 "--s", "2", "--samples", "2", "--samples-out", str(samples_out),
                 "--seed", "4"]) == 0
    return capsys.readouterr().out
