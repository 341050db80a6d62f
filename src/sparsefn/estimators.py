"""Estimators of the linear functional and the associated test.

Shared shape: plug-in on the large-loading head (sorted positions up to a
cutoff), hard thresholding on the tail.  The threshold multiplier ``kappa``
is exposed because the displayed thresholds carry an unresolved constant;
risk-bound constants absorb it and the default is 1.  Comparisons at the
threshold use strict ``>``.

``EstimationInput`` holds one observation vector or an (R, d) block of R
replicate rows.  It sorts the rows into decreasing-|loading| order once and
keeps that view with ``eta * y``; every thresholding estimator is one call
of ``_estimate`` on it with its own threshold and cutoff (the adaptive one
reads both from the rate table its Lepski scan already used), and maps the
block to R values.  An estimator that takes the sparsity level ``s`` takes
it as a scalar or as one value per row, and reads its threshold and cutoff
once per distinct value.  A single vector is the R = 1 case of the same
code, so row r of a block's result equals the result on row r alone, at
row r's s, bit for bit.
Kept indices are reported in the caller's original order.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .loading import LoadingVector
from .rates import RateCalculator, RateTable, j3_index
from .streams import generator
from .threshold import reduce_last

__all__ = [
    "VARIANTS",
    "Variant",
    "EstimatorSpec",
    "EstimationInput",
    "EstimateResult",
    "TestResult",
    "LepskiSelection",
    "default_zeta",
    "oracle_estimate",
    "collier_estimate",
    "family_estimate",
    "plugin_estimate",
    "lepski_select",
    "adaptive_estimate",
    "nonsymmetric_estimate",
    "mom_sigma",
    "unknown_sigma_estimate",
    "linear_test",
]

def default_zeta(alpha: float) -> float:
    """Lepski band constant: the theory only requires 'sufficiently large'."""
    return 1e3 if alpha >= 2.0 else 1e4


@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run and its knobs; None means use defaults.  Every
    variant accepts every knob and ignores those its estimator does not take,
    since the ``estimator`` grid axis swaps the variant and keeps the knobs."""

    variant: str = "oracle"
    s: int | None = None
    kappa: float = 1.0
    zeta: float | None = None
    gamma_split: float = 0.5
    c_h: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown estimator variant {self.variant!r}")
        for name in ("kappa", "zeta", "c_h"):  # zeta and c_h may be None: the default
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0.0 < self.gamma_split <= 0.5:
            raise ValueError("gamma_split must be in (0, 1/2]")


@dataclass(frozen=True)
class EstimationInput:
    """Observations plus everything the estimators need to threshold them.

    ``y`` is one vector of length d or an (R, d) block of replicate rows, in
    the loading's original coordinate order; it is validated once.  ``sigma``
    is the known noise level, or ``None`` when unknown (median-of-means
    route).  ``sigma = 0`` is admitted for degenerate-noise experiments, where
    every threshold vanishes and recovery is exact.  ``ys`` (the rows of ``y``
    in sorted-loading order) and ``etay`` (``loading.values * ys``) are (R, d)
    arrays, R = 1 for a single vector, built once, read-only.
    """

    y: np.ndarray
    loading: LoadingVector
    alpha: float
    tau: float
    sigma: float | None = 1.0
    kappa: float = EstimatorSpec.kappa
    ys: np.ndarray = field(init=False, repr=False, compare=False)
    etay: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        if y.ndim not in (1, 2) or y.shape[-1] != self.loading.d or not y.size:
            raise ValueError(f"y must have length d={self.loading.d}, or be an (R, d) block")
        if not np.all(np.isfinite(y)):
            raise ValueError("y entries must be finite")
        if not (math.isfinite(self.alpha) and math.isfinite(self.tau)
                and self.alpha > 0 and self.tau > 0):
            raise ValueError("alpha and tau must be positive and finite")
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be nonnegative and finite, or None (unknown)")
        EstimatorSpec(kappa=self.kappa)  # range-checks kappa
        ys = self.loading.to_sorted(np.atleast_2d(y))
        etay = self.loading.values * ys
        for name, arr in (("y", y), ("ys", ys), ("etay", etay)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def block(self) -> bool:
        """True for an (R, d) block, False for a single vector."""
        return self.y.ndim == 2

    def require_sigma(self) -> float:
        if self.sigma is None:
            raise ValueError("this estimator requires a known sigma")
        return self.sigma


@dataclass(frozen=True, eq=False)
class EstimateResult:
    """An estimate; ``keep`` is a read-only boolean mask of the kept
    coordinates in the caller's original order, and ``kept_indices`` lists
    them, built on first read.  Equality and hashing go by
    (value, s_used, threshold, kept_indices, variant).

    The estimate of an (R, d) block holds (R,) arrays of values, sizes and
    thresholds, an (R, d) mask, and one ``kept_indices`` tuple per row;
    ``row(r)`` is row r's estimate.
    """

    value: float
    s_used: int
    threshold: float
    keep: np.ndarray = field(repr=False)
    variant: str

    def __post_init__(self) -> None:
        keep = np.asarray(self.keep)
        if keep.dtype != bool or keep.ndim not in (1, 2):
            raise TypeError("keep must be a boolean mask, one row per estimate")
        keep.flags.writeable = False
        object.__setattr__(self, "keep", keep)

    def row(self, r: int) -> EstimateResult:
        if self.keep.ndim == 1:
            raise ValueError("row() needs the estimate of a block")
        return EstimateResult(float(self.value[r]), int(self.s_used[r]),
                              float(self.threshold[r]), self.keep[r], self.variant)

    @cached_property
    def kept_indices(self) -> tuple:
        if self.keep.ndim == 2:
            return tuple(tuple(np.flatnonzero(k).tolist()) for k in self.keep)
        return tuple(np.flatnonzero(self.keep).tolist())

    def _key(self) -> tuple:
        if self.keep.ndim == 2:
            return tuple(self.row(r)._key() for r in range(len(self.keep)))
        return (self.value, self.s_used, self.threshold, self.kept_indices, self.variant)

    def __eq__(self, other):
        if not isinstance(other, EstimateResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


@dataclass(frozen=True)
class TestResult:
    """One test, or (R,) arrays of decisions and statistics for a block."""

    decision: int
    statistic: float
    threshold: float


@dataclass(frozen=True)
class LepskiSelection:
    s_hat: int
    s_star: int
    s0: int
    estimates: tuple[float, ...]          # family estimates for s = 1..s0
    deviations: tuple[tuple[int, int, float, float, bool], ...]
    # rows (s, s_prime, |diff|, omega_{s_prime}, within_band)


def _calc(inp: EstimationInput, calculator: RateCalculator | None) -> RateCalculator:
    if calculator is not None:
        return calculator
    return RateCalculator(inp.loading, inp.alpha)


def _result(inp: EstimationInput, value: np.ndarray, s_used, threshold, keep: np.ndarray,
            variant: str) -> EstimateResult:
    """Per-row ``value`` (R,), ``s_used`` and ``threshold`` (scalars or (R,))
    and ``keep`` (R, d, original order) as the result for ``inp``: arrays for
    a block, scalars for a single vector."""
    rows = keep.shape[0]
    s_used = np.asarray(s_used, dtype=int)
    threshold = np.asarray(threshold, dtype=float)
    if inp.block:  # a scalar holds for every row (repeat: broadcast_to costs more)
        return EstimateResult(value, s_used.repeat(rows // s_used.size),
                              threshold.repeat(rows // threshold.size), keep, variant)
    return EstimateResult(float(value[0]), int(s_used.flat[0]), float(threshold.flat[0]),
                          keep[0], variant)


def _per_s(s, at) -> tuple:
    """``at(s)``, a tuple of per-estimate parameters, for a scalar ``s``; for
    one s per row, a tuple of (R,) arrays holding each row's ``at(s)``, with
    ``at`` called once per distinct s, in increasing order."""
    if np.ndim(s) == 0:
        return at(s)
    keys = sorted(dict.fromkeys(np.asarray(s).tolist()))
    rows = np.searchsorted(keys, s)
    return tuple(np.array(col)[rows] for col in zip(*map(at, keys)))


def _check_s(s: int, d: int) -> int:
    s = int(s)
    if not 1 <= s <= d:
        raise ValueError(f"s must be in [1, {d}]")
    return s


def _estimate(inp: EstimationInput, s, threshold, cutoff, variant: str,
              stat: np.ndarray | None = None) -> EstimateResult:
    """Plug-in on the sorted head ``[:cutoff]``, strict hard threshold on
    ``stat`` (default |eta*y|, in sorted order) beyond, on every row;
    ``s``, ``threshold`` and ``cutoff`` are scalars or one per row.  A
    ``stat`` array is this call's to overwrite: it receives the kept terms."""
    stat = np.abs(inp.etay) if stat is None else stat
    keep = stat > np.reshape(threshold, (-1, 1))
    keep |= np.arange(inp.loading.d) < np.reshape(cutoff, (-1, 1))
    stat[...] = 0.0  # np.where(keep, etay, 0.0), in stat's buffer
    np.copyto(stat, inp.etay, where=keep)
    value = stat.sum(axis=1)
    return _result(inp, value, s, threshold, inp.loading.to_original(keep), variant)


def oracle_estimate(inp: EstimationInput, s, *,
                    calculator: RateCalculator | None = None) -> EstimateResult:
    """Thresholding estimator with known sparsity: plug-in up to j1, threshold
    kappa * sigma * tau * lambda_o beyond; ``s`` is a scalar or one per row."""
    sigma = inp.require_sigma()
    calc = _calc(inp, calculator)

    def at(s):
        prof = calc.oracle(s)
        return inp.kappa * sigma * inp.tau * prof.lambda_o, prof.j1

    return _estimate(inp, s, *_per_s(s, at), "oracle")


def plugin_estimate(inp: EstimationInput) -> EstimateResult:
    """Pure plug-in sum over all coordinates; the no-thresholding baseline."""
    rows = np.atleast_2d(inp.y)
    value = (rows * inp.loading.original_values).sum(axis=1)
    return _result(inp, value, inp.loading.d, 0.0, np.ones(rows.shape, dtype=bool), "plugin")


def collier_estimate(inp: EstimationInput, s) -> EstimateResult:
    """Homogeneous-loading reference: threshold sigma*sqrt(2 log(1 + d/s^2))
    for s below sqrt(d), plug-in otherwise; ``s`` is a scalar or one per row."""
    sigma = inp.require_sigma()
    if not np.all(inp.loading.values == 1.0):
        raise ValueError("collier_estimate requires a homogeneous loading (all ones)")
    d = inp.loading.d

    def at(s):
        s = _check_s(s, d)
        if s >= math.sqrt(d):
            return 0.0, d
        return sigma * math.sqrt(2.0 * math.log1p(d / s**2)), 0

    return _estimate(inp, s, *_per_s(s, at), "collier")


def family_estimate(inp: EstimationInput, s, *,
                    calculator: RateCalculator | None = None) -> EstimateResult:
    """Member s of the adaptive family: lambda_star(s) and j2(s) in place of
    the oracle quantities; ``s`` is a scalar or one per row."""
    sigma = inp.require_sigma()
    calc = _calc(inp, calculator)

    def at(s):
        return inp.kappa * sigma * inp.tau * calc.lambda_star(s), calc.j2(s)

    return _estimate(inp, s, *_per_s(s, at), "family")


def _first_kept(keys: np.ndarray, thr: np.ndarray, head_from: np.ndarray) -> np.ndarray:
    """Index s - 1 of the first family member keeping each coordinate: the
    first whose plug-in head holds it (``head_from``) or whose threshold
    ``thr`` (nonincreasing in s) lies strictly below its |etay| (``keys``).

    A coordinate is kept before its head member only if its key beats the
    threshold of the member before that one; only those coordinates, a few
    percent of an estimation input that is mostly noise, are searched among
    the thresholds."""
    first = np.broadcast_to(head_from, keys.shape).copy()
    early = keys > np.concatenate(([np.inf], thr))[head_from]
    first[early] = np.searchsorted(-thr, -keys[early], side="right")  # thr(s) < key
    return first


def _family_values(inp: EstimationInput, table: RateTable) -> np.ndarray:
    """(R, n) family estimates for s = 1..n = len(table.j2), in O(d) per row
    plus a search among the n thresholds for each coordinate kept before its
    plug-in head (``_first_kept``).

    j2(s) is nondecreasing and the threshold nonincreasing in s, so once a
    coordinate is kept -- in the plug-in head or above the threshold -- every
    later member keeps it too.  Each coordinate's etay is therefore added at
    the first member keeping it, and a prefix sum over s gives every member.
    Row r's coordinates go to bins r * (n + 1) + s - 1, so one bincount sums
    every row in its own order.
    """
    sigma = inp.require_sigma()
    thr = inp.kappa * sigma * inp.tau * table.lambda_star
    first = _first_kept(np.abs(inp.etay), thr, table.head_from)
    rows, n = first.shape[0], thr.size
    first += (n + 1) * np.arange(rows)[:, None]
    sums = np.bincount(first.ravel(), weights=inp.etay.ravel(), minlength=rows * (n + 1))
    return np.cumsum(sums.reshape(rows, n + 1)[:, :n], axis=1)


def _lepski_core(inp: EstimationInput, zeta: float,
                 calc: RateCalculator) -> tuple[np.ndarray, int, int, np.ndarray, np.ndarray]:
    """Shared selection machinery: (s_hat per row, s_star, comparison cap,
    (R, cap) values, omega).  The scan runs over s, on the rows still
    without a selection."""
    EstimatorSpec(zeta=zeta)  # range-checks zeta
    sigma = inp.require_sigma()
    s_star = calc.s_star()
    table = calc.table()
    cap = table.j2.size  # min(s0, d)
    values = _family_values(inp, table)
    omega = np.sqrt(zeta * sigma**2 * table.phi_adp)
    s_hat = np.full(values.shape[0], s_star + 1)
    pending = np.arange(values.shape[0])
    for s in range(1, s_star + 1):
        if not pending.size:
            break
        tail = values[pending, s:cap]
        ok = np.all(np.abs(values[pending, s - 1:s] - tail) <= omega[s:cap], axis=1)
        s_hat[pending[ok]] = s
        pending = pending[~ok]
    return s_hat, s_star, cap, values, omega


def lepski_select(inp: EstimationInput, zeta: float, *,
                  calculator: RateCalculator | None = None) -> LepskiSelection:
    """Smallest s in [1, s_star] whose estimate agrees with every coarser one
    within omega_{s'} = sqrt(zeta sigma^2 phi_adp(s')); s0 if none qualifies.

    Estimators and bands are constant for s > s0, so the comparison range
    (s, d] collapses to (s, s0] without changing the selection.  Takes a
    single observation vector.
    """
    if inp.block:
        raise ValueError("lepski_select takes a single observation vector, not a block")
    calc = _calc(inp, calculator)
    s_hat, s_star, cap, values, omega = _lepski_core(inp, zeta, calc)
    s_hat, values = int(s_hat[0]), values[0]
    rows = [(s, sp, float(abs(values[s - 1] - values[sp - 1])), float(omega[sp - 1]),
             bool(abs(values[s - 1] - values[sp - 1]) <= omega[sp - 1]))
            for s in range(1, s_star + 1) for sp in range(s + 1, cap + 1)]
    return LepskiSelection(int(s_hat), int(s_star), int(s_star + 1),
                           tuple(float(v) for v in values), tuple(rows))


def adaptive_estimate(inp: EstimationInput, zeta: float | None = None, *,
                      calculator: RateCalculator | None = None) -> EstimateResult:
    """Lepski-selected member of the adaptive family: member min(s_hat, s0)
    with ``s_used = s_hat``, its threshold and cutoff read from the rate
    table."""
    if zeta is None:
        zeta = default_zeta(inp.alpha)
    calc = _calc(inp, calculator)
    s_hat, _s_star, cap, _values, _omega = _lepski_core(inp, zeta, calc)
    table = calc.table()
    m = np.minimum(s_hat, cap)
    thr = inp.kappa * inp.sigma * inp.tau * table.lambda_star[m - 1]
    return _estimate(inp, s_hat, thr, table.j2[m - 1], "adaptive")


def nonsymmetric_estimate(inp: EstimationInput, s, c_h: float | None = None, *,
                          calculator: RateCalculator | None = None) -> EstimateResult:
    """Estimator for non-symmetric noise: plug-in up to j3(s), threshold on
    |y_j| (not |eta_j y_j|) beyond, with level c_h sigma log^(1/alpha)(ed/s);
    ``s`` is a scalar or one per row.

    Default ``c_h = tau * 4**(1/alpha)``.
    """
    sigma = inp.require_sigma()
    d = inp.loading.d
    EstimatorSpec(c_h=c_h)  # range-checks c_h
    if c_h is None:
        c_h = inp.tau * 4.0 ** (1.0 / inp.alpha)

    def at(s):
        s = _check_s(s, d)
        thr = c_h * sigma * (1.0 + math.log(d / s)) ** (1.0 / inp.alpha)
        return thr, j3_index(d, s, inp.alpha)

    return _estimate(inp, s, *_per_s(s, at), "nonsym", stat=np.abs(inp.ys))


def mom_sigma(y, gamma_split: float = EstimatorSpec.gamma_split, shuffle_seed: int | None = None):
    """Median-of-means estimate of sigma^2 from contiguous blocks of y_j^2.

    ``m = floor(gamma_split * d)`` blocks; the first ``d mod m`` blocks get one
    extra element.  Even m takes the lower middle order statistic, so the
    result is deterministic in the input order.  Blocking in input order is
    permutation sensitive; ``shuffle_seed`` applies a seeded permutation first
    for robustness experiments.  A vector gives a float, an (R, d) block one
    estimate per row.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2):
        raise ValueError("y must be a vector or an (R, d) block")
    rows = np.atleast_2d(y)
    d = rows.shape[1]
    if d < 2:
        raise ValueError("median-of-means needs d >= 2")
    EstimatorSpec(gamma_split=gamma_split)  # range-checks gamma_split
    m = math.floor(gamma_split * d)
    if m < 1:
        raise ValueError("floor(gamma_split * d) must be >= 1")
    if not np.all(np.isfinite(rows)):
        raise ValueError("y entries must be finite")
    if shuffle_seed is not None:
        rows = rows[:, generator(shuffle_seed, "mom-shuffle").permutation(d)]
    base, extra = divmod(d, m)
    head = extra * (base + 1)
    sq = rows * rows
    r = rows.shape[0]
    means = np.concatenate([reduce_last(np.add, sq[:, :head].reshape(r, extra, base + 1))
                            / (base + 1),
                            reduce_last(np.add, sq[:, head:].reshape(r, m - extra, base)) / base],
                           axis=1)
    k = (m - 1) // 2
    out = np.partition(means, k, axis=1)[:, k]
    return float(out[0]) if y.ndim == 1 else out


def unknown_sigma_estimate(inp: EstimationInput, s,
                           gamma_split: float = EstimatorSpec.gamma_split,
                           shuffle_seed: int | None = None, *,
                           calculator: RateCalculator | None = None) -> EstimateResult:
    """Oracle-shape estimator with sigma replaced by the median-of-means
    estimate and the threshold constant inflated by sqrt(2); ``s`` is a
    scalar or one per row."""
    d = inp.loading.d
    m = math.floor(gamma_split * d)
    calc = _calc(inp, calculator)

    def at(s):
        s = _check_s(s, d)
        if not s < m / 4:  # stacklevel: at, _per_s, this function, its caller
            warnings.warn(f"s={s} is not below floor(gamma_split*d)/4={m / 4:g}; "
                          "the variance-estimate guarantee degrades", stacklevel=4)
        prof = calc.oracle(s)
        return prof.lambda_o, prof.j1

    lam, j1 = _per_s(s, at)
    sigma_hat = np.sqrt(mom_sigma(inp.y, gamma_split, shuffle_seed))
    thr = inp.kappa * math.sqrt(2.0) * sigma_hat * inp.tau * lam
    return _estimate(inp, s, thr, j1, "unknown-sigma")


def linear_test(inp: EstimationInput, s: int, t0: float, B: float, *,
                calculator: RateCalculator | None = None) -> TestResult:
    """Reject when |L_hat_s - t0| exceeds B sigma sqrt(phi_o(s)); one
    decision per row of a block."""
    if not 0.0 < B < math.inf:
        raise ValueError("B must be positive and finite")
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    s = int(s)
    if s < 2:
        warnings.warn("the testing guarantee is stated for s >= 2", stacklevel=2)
    sigma = inp.require_sigma()
    calc = _calc(inp, calculator)
    stat = oracle_estimate(inp, s, calculator=calc).value
    thr = B * sigma * math.sqrt(calc.phi_o(s))
    decision = np.abs(stat - t0) > thr
    if inp.block:
        return TestResult(decision.astype(int), stat, float(thr))
    return TestResult(int(decision), float(stat), float(thr))


@dataclass(frozen=True)
class Variant:
    """A registered estimator: how to call it, whether it needs the sparsity
    level ``s``, and the rate benchmark (a RateCalculator method name) its
    risk is reported against.

    ``run(inp, s, calculator, *, zeta, c_h, gamma_split, shuffle_seed)``
    ignores the arguments its estimator does not take.
    """

    run: Callable[..., EstimateResult]
    needs_s: bool
    rate_kind: str


# The entries look the estimators up in this module's namespace at call time,
# so a wrapper installed on a module attribute sees every call.
VARIANTS = {
    "oracle": Variant(lambda inp, s, calc, **_: oracle_estimate(inp, s, calculator=calc),
                      True, "phi_o"),
    "family": Variant(lambda inp, s, calc, **_: family_estimate(inp, s, calculator=calc),
                      True, "phi_o"),
    "adaptive": Variant(lambda inp, s, calc, zeta, **_:
                        adaptive_estimate(inp, zeta, calculator=calc), False, "phi_adp"),
    "nonsym": Variant(lambda inp, s, calc, c_h, **_:
                      nonsymmetric_estimate(inp, s, c_h, calculator=calc), True, "phi_o"),
    "unknown-sigma": Variant(lambda inp, s, calc, gamma_split, shuffle_seed, **_:
                             unknown_sigma_estimate(inp, s, gamma_split, shuffle_seed,
                                                    calculator=calc), True, "phi_o"),
    "collier": Variant(lambda inp, s, calc, **_: collier_estimate(inp, s), True, "phi_o"),
    "plugin": Variant(lambda inp, s, calc, **_: plugin_estimate(inp), False, "phi_o"),
}
