"""The benchmark's workloads: seeded inputs, CLI calls, item counts, checks.

A workload turns (seed, round index) into the ``sparsefn`` CLI calls of one
round.  Inputs come from ``random.Random`` so that generating them imports
neither numpy nor sparsefn; the same seed gives the same inputs.  Each round
draws a fresh master seed and a dimension from a narrow range, so a cache
kept across ``cli.main`` calls cannot turn later rounds into repeats of the
first -- a user pays per-process costs on every invocation.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass

RATIO_BAND = (0.2, 10.0)      # acceptance criterion 3: phi_o / closed form
SOLVER_REL_TOL = 1e-10        # solver residual contract


@dataclass(frozen=True)
class Call:
    """One ``cli.main`` invocation; ``out`` is the file named by ``--out``."""

    argv: list
    out: str
    kind: str


def _read_csv(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# sparsefn "):
        raise ValueError("missing '# sparsefn' meta line")
    reader = csv.DictReader(io.StringIO("\n".join(lines[1:])))
    return list(reader.fieldnames or []), list(reader)


def _finite(row: dict, col: str) -> float:
    v = float(row[col])
    if not math.isfinite(v):
        raise ValueError(f"{col}={row[col]!r} is not finite")
    return v


# ---------------------------------------------------------------------------
# Monte Carlo risk grids: `sparsefn simulate`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulateWorkload:
    name: str
    config: dict          # experiment config; seed and loading.d are set per round
    d_range: tuple        # loading.d is drawn from range(*d_range)
    speed_kernel: str = "arrays"  # the HostSpeed kernel (bench/run.py) like its work

    @property
    def cells(self) -> int:
        return math.prod(len(v) for v in self.config["simulation"]["grid"].values())

    @property
    def replicates(self) -> int:
        return self.config["simulation"]["replicates"]

    @property
    def items_per_round(self) -> int:
        return self.cells * self.replicates

    def round_inputs(self, rng: random.Random) -> dict:
        return {"seed": rng.randrange(2**31), "d": rng.randrange(*self.d_range)}

    def config_text(self, inputs: dict) -> str:
        cfg = copy.deepcopy(self.config)
        cfg["seed"] = inputs["seed"]
        cfg["loading"]["d"] = inputs["d"]
        return json.dumps(cfg, sort_keys=True)

    def setup(self, inputs: dict, tmp: str) -> None:
        """Write and parse the config, build its loading (set-up timing)."""
        from sparsefn.config import parse_config
        from sparsefn.loading import make_loading

        text = self.config_text(inputs)
        with open(os.path.join(tmp, "setup.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
        make_loading(parse_config(text).sim.loading)

    def calls(self, inputs: dict, tmp: str) -> list[Call]:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.config_text(inputs))
        out = os.path.join(tmp, "risk.csv")
        argv = ["simulate", "--config", path, "--workers", "1", "--format", "csv",
                "--out", out]
        return [Call(argv, out, "simulate")]

    def check(self, call: Call, inputs: dict, text: str) -> None:
        """Raise ValueError unless every cell row is complete and finite."""
        cols, rows = _read_csv(text)
        for col in ("estimator", "n_rep", "mse", "ratio"):
            if col not in cols:
                raise ValueError(f"missing column {col!r}")
        if len(rows) != self.cells:
            raise ValueError(f"{len(rows)} rows, expected {self.cells}")
        for row in rows:
            if int(row["n_rep"]) != self.replicates:
                raise ValueError(f"n_rep={row['n_rep']}, expected {self.replicates}")
            _finite(row, "mse")
            _finite(row, "ratio")


# ---------------------------------------------------------------------------
# Rate profiles at large d: `sparsefn rate --csv` and `sparsefn solve --equation asym`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateWorkload:
    name: str
    loadings: tuple       # (kind, {spec field: value}) pairs; d is set per round
    d_range: tuple
    ladder: int           # rate rows for s = 1..ladder; the asym solve uses s = ladder
    alpha: float = 1.0
    speed_kernel: str = "arrays"  # the HostSpeed kernel (bench/run.py) like its work

    @property
    def items_per_round(self) -> int:
        return len(self.loadings) * (self.ladder + 1)

    def round_inputs(self, rng: random.Random) -> dict:
        return {"d": rng.randrange(*self.d_range)}

    def _spec(self, index: int, d: int):
        from sparsefn.loading import LoadingSpec

        kind, fields = self.loadings[index]
        return LoadingSpec(kind, d=d, **fields)

    def setup(self, inputs: dict, tmp: str) -> None:
        from sparsefn.loading import make_loading

        for i in range(len(self.loadings)):
            make_loading(self._spec(i, inputs["d"]))

    def calls(self, inputs: dict, tmp: str) -> list[Call]:
        out = []
        grid = ",".join(str(s) for s in range(1, self.ladder + 1))
        for i, (kind, fields) in enumerate(self.loadings):
            spec_args = ["--loading-spec", kind, "--d", str(inputs["d"])]
            for key, value in fields.items():
                spec_args += ["--" + key.replace("_", "-"), repr(value)]
            rate_out = os.path.join(tmp, f"rate{i}.csv")
            out.append(Call(["rate", *spec_args, "--alpha", repr(self.alpha), "--csv",
                             "--s-grid", grid, "--out", rate_out],
                            rate_out, f"rate:{i}"))
            asym_out = os.path.join(tmp, f"asym{i}.json")
            out.append(Call(["solve", *spec_args, "--alpha", repr(self.alpha),
                             "--equation", "asym", "--s", str(self.ladder),
                             "--out", asym_out],
                            asym_out, f"asym:{i}"))
        return out

    def check(self, call: Call, inputs: dict, text: str) -> None:
        """Raise ValueError unless the reported roots solve their equations to
        the solver contract and phi_o stays within the closed-form band."""
        import numpy as np
        from sparsefn.loading import make_loading
        from sparsefn.threshold import adaptive_target, log_phi_objective

        # rebuilt per check: a loading kept across rounds would raise peak_rss_mb
        what, index = call.kind.split(":")
        loading = make_loading(self._spec(int(index), inputs["d"]))
        if what == "asym":
            sol = json.loads(text)
            s = self.ladder
            tail = loading.abs_values[s * s - 1:]
            total = float(np.exp(-((sol["lambda"] / tail) ** self.alpha)).sum())
            if not abs(total - s) <= SOLVER_REL_TOL * s:
                raise ValueError(f"asym residual {total - s:.3e} at s={s}")
            return
        _cols, rows = _read_csv(text)
        if [int(r["s"]) for r in rows] != list(range(1, self.ladder + 1)):
            raise ValueError("rate rows do not cover s = 1..ladder")
        for row in rows:
            s = int(row["s"])
            roots = [(_finite(row, "beta"), s / 2.0)]
            lam_star = _finite(row, "lambda_star")
            if self.alpha == 1.0 and lam_star > 0.0:  # then beta_star == lambda_star
                roots.append((lam_star, adaptive_target(s)))
            for beta, target in roots:
                rel = math.expm1(log_phi_objective(loading, self.alpha, beta)
                                 - math.log(target))
                if not abs(rel) <= SOLVER_REL_TOL:
                    raise ValueError(f"s={s}: phi({beta!r}) off target by {rel:.3e}")
            ratio = _finite(row, "ratio")
            if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
                raise ValueError(f"s={s}: phi_o/closed_form={ratio} outside {RATIO_BAND}")


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

def build(tiny: bool = False) -> dict:
    """Workloads by name; ``tiny`` shrinks every size for the smoke test.

    Why each workload is in the benchmark is recorded in BENCHMARK.json.
    """
    # a round takes at most ~3 s, so that a 35 s run holds a dozen rounds or more
    small_reps, large_reps, large_d, rate_d = (3, 2, 400, 20_000) if tiny else \
        (40, 2, 10_000, 250_000)
    workloads = [
        # per-replicate fixed costs.  One worker: with --workers 2 the GIL-bound
        # thread pool made run medians spread too widely to hold a bound.
        SimulateWorkload(
            name="mc-small-d",
            config={
                "schema_version": 1, "sigma": 1.0,
                "loading": {"kind": "homogeneous"},
                "noise": {"family": "gaussian", "alpha": 2.0, "tau": 1.0},
                "estimator": {"variant": "oracle"},
                "theta": {"kind": "spike_grid", "rho": 1.0, "n_spikes": 1},
                "simulation": {"replicates": small_reps, "s_assumed": 1, "grid": {
                    "estimator": ["oracle", "plugin", "nonsym", "unknown-sigma"],
                    "s": [1, 2, 5], "rho": [0.5, 1.0, 2.0]}},
            },
            d_range=(100, 120),
            speed_kernel="calls",
        ),
        # the adaptive ladder, recomputed on every replicate
        SimulateWorkload(
            name="mc-large-d",
            config={
                "schema_version": 1, "sigma": 1.0,
                "loading": {"kind": "two_phase", "gamma_d": 0.4, "gamma_lambda": 0.2},
                "noise": {"family": "symm_weibull", "alpha": 1.0, "tau": 2.0},
                "estimator": {"variant": "oracle"},
                "theta": {"kind": "prior", "s": 5, "c1": 1.0},
                "simulation": {"replicates": large_reps, "s_assumed": 5, "grid": {
                    "estimator": ["oracle", "adaptive", "plugin"]}},
            },
            d_range=(large_d, large_d + large_d // 100),
        ),
        # threshold solves at large d on a tied and an untied loading; no
        # stream, noise or estimator code runs
        RateWorkload(
            name="rate-large-d",
            loadings=(("two_phase", {"gamma_d": 0.4, "gamma_lambda": 0.2}),
                      ("exp_decay", {"c": 2.0 / rate_d, "gamma": 1.0})),
            d_range=(rate_d, rate_d + rate_d // 1000),
            ladder=2,
        ),
    ]
    return {w.name: w for w in workloads}
