"""Seeded, replicated Monte Carlo experiments over estimator risk and tests.

Determinism contract: every random draw comes from a scheme-2 stream keyed by
(master seed, data-generating cell coordinates, role), in which replicate r
reads counter segment r (see ``streams``).  The estimator identity is
deliberately excluded from the stream key, so sweeping the ``estimator`` axis
compares variants on identical noise (paired design) while distinct data
cells get provably distinct streams.

The replicate loop is a block computation: ``_stacked_replicates`` draws
the R replicates of a data cell as one (R, d) block of theta and noise, and
every statistic maps the block to R values.  The risk grid stacks the blocks
of consecutive data cells that share their loading, noise, sigma and
estimator list into one (cells * R, d) block of at most ``_BLOCK_ELEMENTS``
elements (or one data cell): each data cell draws its rows from its own
streams, one ``EstimationInput`` validates the block, and each estimator
runs once, with one sparsity level per row, so every row is the row the data
cell gives alone.  A block that fails runs again one data cell at a time,
and the error names the data cell, seed and replicate that fail alone.
Risk, coverage, test power and calibration reduce over the values in
replicate order, so repeated runs are byte-identical, and a run with more
replicates repeats the draws of a shorter one.

``check_grid`` is the one gate of a grid, from a config file or from Python,
and builds the cells without re-running the specs' checks.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .estimators import (VARIANTS, EstimationInput, EstimatorSpec, linear_test, mom_sigma,
                         oracle_estimate)
from .loading import LoadingSpec, LoadingVector, check_types, check_value, make_loading
from .lowerbound import ThetaSpec, build_prior, draw_prior
from .noise import NoiseModel, sample_with
from .rates import RateCalculator
from .streams import STREAM_SCHEME, Stream

__all__ = [
    "SimConfig",
    "SimulationReport",
    "MomCoverageReport",
    "SimulationError",
    "run_risk",
    "risk_grid",
    "run_mom_coverage",
    "run_test_power",
    "calibrate_test_threshold",
    "GRID_AXES",
    "Grid",
    "config_hash",
    "meta",
    "check_grid",
    "spec_dict",
    "strict_json",
]

_GRID_TYPES = {"alpha": float, "d": int, "estimator": str, "rho": float, "s": int,
               "sigma": float}  # axis -> the type of the field it sets
GRID_AXES = tuple(_GRID_TYPES)
_THETA_SPARSITY = {"spike_grid": "n_spikes", "prior": "s"}  # the theta field the s axis sets
RESULT_COLUMNS = ["estimator", "n_rep", "mse", "mse_se", "rate_kind", "rate_value", "ratio"]


class SimulationError(RuntimeError):
    """A data cell's set-up or a replicate failed, annotated for reproduction."""


def config_hash(params: dict) -> str:
    """SHA-256 of the compact, key-sorted JSON form of ``params``."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def meta(params: dict, seed: int | None = None) -> dict:
    """The metadata of an output made from ``params``, every input that
    decides it, resolved: ``{tool_version, config_hash, seed}``.  A seeded
    output also records, and hashes, the stream scheme its draws come from."""
    scheme = {} if seed is None else {"stream_scheme": STREAM_SCHEME}
    return {"tool_version": __version__, "config_hash": config_hash({**params, **scheme}),
            "seed": seed, **scheme}


@dataclass(frozen=True)
class SimConfig:
    loading: LoadingSpec
    noise: NoiseModel
    sigma: float
    theta: ThetaSpec
    estimator: EstimatorSpec
    replicates: int
    seed: int
    s_assumed: int

    def __post_init__(self) -> None:
        check_types(self)
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if not self.sigma >= 0:
            raise ValueError("sigma must be nonnegative and finite")
        if self.s_assumed < 1:
            raise ValueError("s_assumed must be >= 1")

    def to_dict(self, grid: dict | None = None) -> dict:
        """The experiment-config layout that ``config.serialize_config``
        writes, without its ``schema_version``; ``grid`` when it has axes."""
        simulation = {"replicates": self.replicates, "s_assumed": self.s_assumed}
        if grid:
            simulation["grid"] = grid
        return {"seed": self.seed, "sigma": self.sigma, "loading": spec_dict(self.loading),
                "noise": spec_dict(self.noise), "estimator": spec_dict(self.estimator),
                "theta": spec_dict(self.theta), "simulation": simulation}


def spec_dict(spec) -> dict:
    """The config-file form of a spec dataclass (``LoadingSpec``, ``NoiseModel``,
    ``EstimatorSpec``, ``ThetaSpec``): every field that is set (not None), under
    its JSON name (``metadata["json"]``, else the field name), tuples as lists."""
    out = {}
    for f in dataclasses.fields(spec):
        v = getattr(spec, f.name)
        if v is not None:
            out[f.metadata.get("json", f.name)] = list(v) if isinstance(v, tuple) else v
    return out


@dataclass
class SimulationReport:
    """Rows plus ``meta``, the metadata that reproduces them (see ``meta``)."""

    kind: str
    columns: list[str]
    rows: list[dict]
    meta: dict

    config_hash = property(lambda self: self.meta["config_hash"])

    def _meta_line(self) -> str:
        fields = [f"{k}={self.meta[k]}" for k in ("config_hash", "seed", "stream_scheme")
                  if self.meta.get(k) is not None]
        return " ".join(["# sparsefn", self.meta["tool_version"], *fields])

    def to_csv(self) -> str:
        def fmt(v) -> str:
            if isinstance(v, float):
                return repr(v)
            return "" if v is None else str(v)

        lines = [self._meta_line(), ",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(fmt(row.get(c)) for c in self.columns))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return strict_json({**self.meta, "kind": self.kind, "columns": self.columns,
                            "rows": self.rows}, sort_keys=True)


def strict_json(payload, **kwargs) -> str:
    """``json.dumps`` writing every non-finite float as null: strict JSON has
    no NaN or Infinity.  Floats survive the round trip bit for bit."""
    nulled = json.loads(json.dumps(payload), parse_constant=lambda _name: None)
    return json.dumps(nulled, allow_nan=False, **kwargs)


# ---------------------------------------------------------------------------
# theta realization
# ---------------------------------------------------------------------------

def _fixed_theta(config: SimConfig, loading: LoadingVector,
                 calc: RateCalculator) -> np.ndarray | None:
    """The theta vector for replicate-invariant kinds, None for 'prior'."""
    spec = config.theta
    d = loading.d
    if spec.kind == "zero":
        return np.zeros(d)
    if spec.kind == "fixed":
        theta = np.zeros(d)
        support = np.asarray(spec.support, dtype=int)
        if support.size and (support.min() < 0 or support.max() >= d):
            raise ValueError("fixed theta support out of range")
        theta[support] = np.asarray(spec.values, dtype=float)
        return theta
    if spec.kind == "spike_grid":
        k = spec.n_spikes
        if not 1 <= k <= d:
            raise ValueError(f"n_spikes must be in [1, {d}]")
        lam = calc.oracle(k).lambda_o
        mag = spec.rho * config.sigma * config.noise.tau * lam
        positions = np.arange(d - k, d) if spec.placement == "tail" else np.arange(k)
        theta_sorted = np.zeros(d)
        theta_sorted[positions] = mag / loading.values[positions]
        return loading.to_original(theta_sorted)
    return None


# ---------------------------------------------------------------------------
# single-cell risk experiment
# ---------------------------------------------------------------------------

def _spec_d(spec: LoadingSpec) -> int:
    return len(spec.values) if spec.kind == "explicit" else spec.d


def _cell_problem(config: SimConfig) -> tuple[str, str] | None:
    """The first sparsity level or support index of ``config`` that does not
    fit its loading's dimension d, as (field path, "value must be in [lo, hi]"),
    or None."""
    d = _spec_d(config.loading)
    variant = VARIANTS[config.estimator.variant]
    sparsity = []
    if variant.needs_s:
        sparsity.append(("estimator.s", config.estimator.s) if config.estimator.s is not None
                        else ("simulation.s_assumed", config.s_assumed))
    if variant.rate_kind == "phi_o":  # phi_o(s_assumed) needs s_assumed <= d
        sparsity.append(("simulation.s_assumed", config.s_assumed))
    theta = config.theta
    key = _THETA_SPARSITY.get(theta.kind)
    if key is not None:
        sparsity.append((f"theta.{key}", getattr(theta, key)))
    for field, value in sparsity:
        if not 1 <= value <= d:
            return field, f"{value} must be in [1, {d}]"
    if theta.kind == "fixed":
        for i, j in enumerate(theta.support):
            if not 0 <= j < d:
                return f"theta.support[{i}]", f"{j} must be in [0, {d - 1}]"
    return None


def _data_tags(cell: dict) -> list:
    return [[k, cell[k]] for k in sorted(cell) if k != "estimator"]


def _estimation_input(config: SimConfig, loading: LoadingVector, y: np.ndarray):
    return EstimationInput(y, loading, config.noise.alpha, config.noise.tau,
                           sigma=config.sigma, kappa=config.estimator.kappa)


def _stacked_replicates(config: SimConfig, loading: LoadingVector, draws, statistic,
                        where: str):
    """``statistic(y, thetas)`` on the replicates of every draw, stacked in
    one (k R, d) block: the one replicate computation of every experiment.
    Draw i is ``(xi_tags, theta, prior, theta_tags)``; row r of its theta is
    drawn from segment r of the stream ``(seed, *theta_tags)`` when ``prior``
    is given (else every row is ``theta``), row r of its xi from segment r of
    ``(seed, *xi_tags)``, and ``y = theta + sigma * xi`` fills rows
    i R .. i R + R - 1; ``thetas`` holds each draw's theta.  A ValueError or
    RuntimeError becomes a SimulationError (its cause) naming the seed, the
    first row of y that is not finite (row 0 when every row is), which is a
    replicate when there is one draw, and ``where``."""
    y, R = None, config.replicates
    try:
        thetas = [theta if prior is None else
                  draw_prior(prior, Stream(config.seed, *theta_tags), R)
                  for _xi_tags, theta, prior, theta_tags in draws]
        y = sample_with(config.noise, loading.d,
                        [Stream(config.seed, *draw[0]) for draw in draws], R)
        y *= config.sigma  # y = theta + sigma * xi, in xi's buffer
        for i, theta in enumerate(thetas):
            y[i * R:(i + 1) * R] += theta
        return statistic(y, thetas)
    except (ValueError, RuntimeError) as exc:
        bad = [] if y is None else np.flatnonzero(~np.isfinite(y).all(axis=1))
        r = int(bad[0]) if len(bad) else 0
        raise SimulationError(
            f"replicate {r} failed (seed={config.seed}, {where}): {exc}") from exc


def _replicates(config: SimConfig, loading: LoadingVector, xi_tags, statistic, where: str,
                theta: np.ndarray):
    """``statistic(y, theta)`` on the (R, d) block of one draw's replicates
    around a fixed ``theta`` (``_stacked_replicates``)."""
    return _stacked_replicates(config, loading, [(xi_tags, theta, None, ())],
                               lambda y, thetas: statistic(y, thetas[0]), where)


# A block holds at most this many elements of y, or one data cell if that is
# more: past it, a larger block saves little per call and holds more memory.
_BLOCK_ELEMENTS = 1 << 14


def _block_rows(data_cells: list[tuple[list[SimConfig], list[dict]]],
                calc: RateCalculator | None) -> tuple[list[dict], RateCalculator]:
    """The rows of consecutive data cells that share their loading, noise,
    sigma and estimator list, run as one (cells * R, d) block: each data
    cell's theta and noise rows come from its own streams, one
    ``EstimationInput`` holds them all, and each estimator runs once, with
    one s per row where the cells' s differ.  A data cell is ``(configs,
    cells)``, which differ only in the estimator.  ``calc`` is the calculator
    of the cells' (loading, alpha), or None to build one.  Returns the rows
    of every cell, data cell by data cell, and the calculator used."""
    first = data_cells[0][0][0]
    draws = []
    for configs, cells in data_cells:
        config, tags = configs[0], _data_tags(cells[0])
        try:
            if calc is None:
                calc = RateCalculator(make_loading(config.loading), config.noise.alpha)
            theta = _fixed_theta(config, calc.loading, calc)
            prior = build_prior(calc.loading, config.noise.alpha, config.theta.s,
                                config.theta.c1, config.theta.c_alpha2,
                                calculator=calc) if config.theta.kind == "prior" else None
        except (ValueError, RuntimeError) as exc:
            raise SimulationError(
                f"cell set-up failed (seed={config.seed}, cell={tags}): {exc}") from exc
        draws.append((tags, theta, prior))
    loading, R = calc.loading, first.replicates
    runs = []
    for members in zip(*(configs for configs, _cells in data_cells)):  # one estimator
        s = [c.estimator.s if c.estimator.s is not None else c.s_assumed for c in members]
        runs.append((VARIANTS[members[0].estimator.variant].run,
                     s[0] if s.count(s[0]) == len(s) else np.repeat(s, R), members[0].estimator))

    def squared_errors(y: np.ndarray, thetas: list[np.ndarray]) -> list[np.ndarray]:
        inp = _estimation_input(first, loading, y)
        targets = [(np.atleast_2d(theta) * loading.original_values).sum(axis=1)
                   for theta in thetas]  # one per row, or one for every row
        target = np.concatenate([t.repeat(R // t.size) for t in targets])
        return [(run(inp, s, calc, zeta=spec.zeta, c_h=spec.c_h, gamma_split=spec.gamma_split,
                     shuffle_seed=None).value - target) ** 2
                for run, s, spec in runs]

    errors = _stacked_replicates(
        first, loading, [(("cell", tags, "xi"), theta, prior, ("cell", tags, "theta"))
                         for tags, theta, prior in draws],
        squared_errors, f"cell={draws[0][0]}")
    rows = []
    for i, (configs, cells) in enumerate(data_cells):
        for config, cell, errs in zip(configs, cells, [e[i * R:(i + 1) * R] for e in errors]):
            mse = math.fsum(errs.tolist()) / R
            mse_se = (math.sqrt(math.fsum(((errs - mse) ** 2).tolist()) / (R - 1) / R)
                      if R > 1 else float("nan"))
            rate_kind = VARIANTS[config.estimator.variant].rate_kind
            rate_value = getattr(calc, rate_kind)(config.s_assumed)
            denom = config.sigma**2 * rate_value
            ratio = mse / denom if denom > 0 else float("inf") if mse > 0 else 0.0
            rows.append(dict(cell, estimator=config.estimator.variant, n_rep=R, mse=mse,
                             mse_se=mse_se, rate_kind=rate_kind, rate_value=rate_value,
                             ratio=ratio))
    return rows, calc


def _run_block(data_cells: list[tuple[list[SimConfig], list[dict]]],
               calc: RateCalculator | None) -> tuple[list[dict], RateCalculator]:
    """``_block_rows``; a block of several data cells that fails is run again
    one data cell at a time, so that the first data cell to fail raises the
    error it raises alone: the same cell, seed and replicate."""
    try:
        return _block_rows(data_cells, calc)
    except SimulationError:
        if len(data_cells) == 1:
            raise
    rows = []
    for data_cell in data_cells:
        cell_rows, calc = _block_rows([data_cell], calc)
        rows += cell_rows
    return rows, calc


def run_risk(config: SimConfig) -> SimulationReport:
    """Replicated risk experiment for a single configuration."""
    return risk_grid(config, {})


def _replace_unchecked(obj, **changes):
    """``dataclasses.replace`` without ``__post_init__``, for changes that
    have been validated on their own."""
    new = object.__new__(type(obj))
    new.__dict__.update(vars(obj), **changes)
    return new


def _apply_cell(base: SimConfig, cell: dict, replace=dataclasses.replace) -> SimConfig:
    loading, noise, theta = base.loading, base.noise, base.theta
    estimator, sigma, s_assumed = base.estimator, base.sigma, base.s_assumed
    for axis, value in cell.items():
        if axis == "d":
            if loading.kind == "explicit":
                raise ValueError("cannot sweep d over an explicit loading")
            loading = replace(loading, d=value)
        elif axis == "alpha":
            noise = replace(noise, alpha=float(value))
        elif axis == "sigma":
            sigma = float(value)
        elif axis == "rho":
            if theta.kind != "spike_grid":
                raise ValueError("rho axis requires a spike_grid theta")
            theta = replace(theta, rho=float(value))
        elif axis == "s":
            s_assumed = value
            if estimator.s is not None or VARIANTS[estimator.variant].needs_s:
                estimator = replace(estimator, s=value)
            if theta.kind in _THETA_SPARSITY:
                theta = replace(theta, **{_THETA_SPARSITY[theta.kind]: value})
        else:  # estimator
            estimator = replace(estimator, variant=value)
    return replace(base, loading=loading, noise=noise, sigma=sigma, theta=theta,
                   estimator=estimator, s_assumed=s_assumed)


@dataclass(frozen=True)
class Grid:
    """A sweep whose every cell ``check_grid`` has built and range-checked:
    ``axes`` as declared, ``cells`` in sorted-axis product order and
    ``configs``, the base with each cell applied."""

    axes: dict
    cells: list[dict]
    configs: list[SimConfig]


def check_grid(base: SimConfig, grid: dict) -> Grid:
    """Every cell of ``grid`` and its config, each range-checked, so no cell
    fails on a range after earlier cells have run.  The one gate of a grid,
    from a config file or from Python: first, in key order, ``grid`` is a
    dict from axis names (strings) to nonempty lists (or tuples), and each
    entry of a known axis passes ``loading.check_value`` for the type of its
    field (``_GRID_TYPES``) as given, since the CSV and the hash read it so:
    no numpy scalar runs.  Then every axis must be known.

    A failure raises ValueError at a config path: ``simulation.grid.<axis>[i]``
    when that entry alone breaks a base that is fine without it, the base
    field when the base is at fault, and the whole cell otherwise.  Entries
    are tried alone only to name a failure that a cell shows: an entry that
    breaks the base alone may still make valid cells with the other axes.

    Every spec check reads one field, and each axis sets its own fields, so
    a cell passes its specs' checks when each of its entries passes them
    alone on the base.  So each entry is applied to the base once, checked,
    and the cells are built from the base without checking their specs
    again; ``_cell_problem``, which reads fields that different axes set,
    runs on every cell."""
    if not isinstance(grid, dict):
        raise ValueError("simulation.grid: expected an object of axis lists")
    for axis, values in grid.items():
        if type(axis) is not str:  # sorted() below compares the names
            raise ValueError(f"simulation.grid: axis names must be strings, not {axis!r}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"simulation.grid.{axis}: expected a nonempty list")
        if axis in _GRID_TYPES:
            for i, value in enumerate(values):  # not JSON's type (a numpy scalar): fails as None
                check_value(_GRID_TYPES[axis], value if type(value) in (int, float, str) else None,
                            f"simulation.grid.{axis}[{i}]")
    axes = sorted(grid)
    for a in axes:
        if a not in GRID_AXES:
            raise ValueError(f"simulation.grid.{a}: unknown grid axis; supported: {GRID_AXES}")
    try:
        for a in axes:
            for value in grid[a]:
                _apply_cell(base, {a: value})
    except ValueError:
        _blame_grid_entry(base, grid)
        raise
    cells = [dict(zip(axes, combo)) for combo in itertools.product(*(grid[a] for a in axes))]
    configs = []
    for cell in cells:
        config = _apply_cell(base, cell, _replace_unchecked)
        problem = _cell_problem(config)
        if problem is not None:
            _blame_grid_entry(base, grid)
            if problem == _cell_problem(base):
                raise ValueError(f"{problem[0]}: {problem[1]}")
            raise ValueError(f"simulation.grid cell {cell}: {problem[0]}={problem[1]}")
        configs.append(config)
    return Grid(dict(grid), cells, configs)


def _blame_grid_entry(base: SimConfig, grid: dict) -> None:
    """Raise ValueError at the first grid entry that alone breaks ``base`` in
    a way the base does not."""
    base_problem = _cell_problem(base)
    for a in sorted(grid):
        for i, value in enumerate(grid[a]):
            where = f"simulation.grid.{a}[{i}]"
            try:
                problem = _cell_problem(_apply_cell(base, {a: value}))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from exc
            if problem is not None and problem != base_problem:
                raise ValueError(f"{where}: {problem[0]}={problem[1]}")


def risk_grid(base: SimConfig, grid: dict | Grid) -> SimulationReport:
    """Cartesian sweep over ``grid``, a dict of axis lists or the Grid that
    ``check_grid`` built from one over ``base``, run cell-major: cells that
    differ only in their estimator form one data cell, whose streams are
    keyed by its (sorted) coordinates, so axis declaration order never
    changes the result.  Rows come back in sorted-axis product order."""
    if not isinstance(grid, Grid):
        grid = check_grid(base, grid)
    cells, configs = grid.cells, grid.configs
    data_cells: dict[str, list[int]] = {}
    for i, cell in enumerate(cells):
        data_cells.setdefault(repr(_data_tags(cell)), []).append(i)

    # consecutive data cells that share a block key form blocks of at most
    # _BLOCK_ELEMENTS elements of y (or one data cell)
    blocks: list[list[list[int]]] = []
    block_key = None
    for members in data_cells.values():
        config = configs[members[0]]
        key = (config.loading, config.noise, config.sigma,
               [_replace_unchecked(configs[i].estimator, s=None) for i in members])
        size = config.replicates * _spec_d(config.loading)
        if key == block_key and (len(blocks[-1]) + 1) * size <= _BLOCK_ELEMENTS:
            blocks[-1].append(members)
        else:
            blocks.append([members])
            block_key = key

    rows: list = [None] * len(cells)
    calc_key = calc = None  # consecutive blocks on one (loading, alpha) share a calculator
    for block in blocks:
        config = configs[block[0][0]]
        if (config.loading, config.noise.alpha) != calc_key:
            calc_key, calc = (config.loading, config.noise.alpha), None
        block_rows, calc = _run_block([([configs[i] for i in members],
                                        [cells[i] for i in members]) for members in block],
                                      calc)
        for i, row in zip([i for members in block for i in members], block_rows):
            rows[i] = row
    cell_cols = [a for a in sorted(grid.axes) if a not in RESULT_COLUMNS]
    return SimulationReport("risk", cell_cols + RESULT_COLUMNS, rows,
                            meta(base.to_dict(grid.axes), base.seed))


# ---------------------------------------------------------------------------
# median-of-means coverage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomCoverageReport:
    coverage: float
    mean_abs_rel_err: float
    n_rep: int


def run_mom_coverage(config: SimConfig) -> MomCoverageReport:
    """Fraction of replicates with sigma_hat^2 / sigma^2 in [1/2, 3/2].
    Reads the y block only: median-of-means needs no sorted view."""
    if config.sigma == 0.0:
        raise ValueError("sigma=0.0 must be positive: mom coverage reports "
                         "sigma_hat^2 / sigma^2")
    loading = make_loading(config.loading)
    theta = _fixed_theta(config, loading, RateCalculator(loading, config.noise.alpha))
    if theta is None:
        raise ValueError("run_mom_coverage needs a replicate-invariant theta")
    s2 = config.sigma**2
    ests = _replicates(config, loading, ("cell", [], "xi"),
                       lambda y, _: mom_sigma(y, config.estimator.gamma_split),
                       "mom coverage", theta=theta)
    n = config.replicates
    hits = int(np.count_nonzero((0.5 * s2 <= ests) & (ests <= 1.5 * s2)))
    return MomCoverageReport(hits / n, math.fsum((np.abs(ests - s2) / s2).tolist()) / n, n)


# ---------------------------------------------------------------------------
# testing: error rates over a separation grid
# ---------------------------------------------------------------------------

def _null_fixtures(loading: LoadingVector, calc: RateCalculator, s: int,
                   t0: float, sigma: float, tau: float) -> list[tuple[str, np.ndarray, int]]:
    d = loading.d
    eta = loading.values
    base = np.zeros(d)
    support = 0
    if t0 != 0.0:
        base[0] = t0 / eta[0]
        support = 1
    fixtures = [("point", base, support)]
    if d >= support + 2 and s >= support + 2:
        m = sigma * tau * calc.oracle(s).lambda_o
        if m > 0.0:
            pair = base.copy()
            pair[d - 2] += m / eta[d - 2]
            pair[d - 1] -= m / eta[d - 1]
            fixtures.append(("cancelling_pair", pair, support + 2))
    return fixtures


def _alt_fixtures(loading: LoadingVector, s: int, t0: float, rho: float,
                  base: np.ndarray, base_support: int) -> list[tuple[str, np.ndarray]]:
    d = loading.d
    eta = loading.values
    out = []
    single = base.copy()
    single[d - 1] += rho / eta[d - 1]
    out.append(("single+", single))
    single_m = base.copy()
    single_m[d - 1] -= rho / eta[d - 1]
    out.append(("single-", single_m))
    k = min(s - base_support, d - base_support)
    if k >= 2:
        spread = base.copy()
        spread[d - k:] += (rho / k) / eta[d - k:]
        out.append((f"spread{k}", spread))
    return out


def _test_setup(config: SimConfig, t0: float):
    """The loading, calculator and null fixtures that the test experiments share."""
    loading = make_loading(config.loading)
    calc = RateCalculator(loading, config.noise.alpha)
    nulls = _null_fixtures(loading, calc, config.s_assumed, t0, config.sigma, config.noise.tau)
    return loading, calc, nulls


def run_test_power(config: SimConfig, t0: float, B: float, rho_grid) -> SimulationReport:
    """Type I frequency on null fixtures with L(theta) = t0, and type II
    frequency at each rho on alternatives with |L(theta) - t0| = rho."""
    loading, calc, nulls = _test_setup(config, t0)
    s = config.s_assumed
    base, base_support = nulls[0][1], nulls[0][2]
    runs = [("type1", label, 0.0, theta, ("test", "null", label)) for label, theta, _ in nulls]
    rhos = [float(rho) for rho in rho_grid]
    for rho in rhos:
        runs += [("type2", label, rho, theta, ("test", "alt", label, rho))
                 for label, theta in _alt_fixtures(loading, s, t0, rho, base, base_support)]

    def decisions(y: np.ndarray, _theta) -> np.ndarray:
        return linear_test(_estimation_input(config, loading, y), s, t0, B,
                           calculator=calc).decision

    rows = []
    for kind, fixture, rho, theta_sorted, tags in runs:
        rejected = _replicates(config, loading, tags, decisions,
                               f"{kind} fixture={fixture} rho={rho!r}",
                               theta=loading.to_original(theta_sorted))
        bad = int(np.count_nonzero((rejected == 1) != (kind == "type2")))
        rows.append({"kind": kind, "fixture": fixture, "rho": rho,
                     "error_rate": bad / config.replicates, "n_rep": config.replicates})
    params = {**config.to_dict(), "t0": float(t0), "B": float(B), "rho_grid": rhos}
    return SimulationReport("test_power", ["kind", "fixture", "rho", "error_rate", "n_rep"],
                            rows, meta(params, config.seed))


def calibrate_test_threshold(config: SimConfig, t0: float, epsilon: float) -> float:
    """Pick B as the worst per-fixture (1 - epsilon/2) quantile of the null
    statistic |L_hat - t0| / (sigma sqrt(phi_o)), on calibration streams
    disjoint from the evaluation streams."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    loading, calc, nulls = _test_setup(config, t0)
    s = config.s_assumed
    scale = config.sigma * math.sqrt(calc.phi_o(s))
    worst = 0.0
    for label, theta_sorted, _support in nulls:
        stats = _replicates(
            config, loading, ("test", "calib", label),
            lambda y, _: np.abs(oracle_estimate(_estimation_input(config, loading, y), s,
                                                calculator=calc).value - t0) / scale,
            f"calibration fixture={label}", theta=loading.to_original(theta_sorted))
        worst = max(worst, float(np.quantile(stats, 1.0 - epsilon / 2.0, method="higher")))
    return worst
