"""Rate functionals and index cutoffs derived from the threshold equations.

Oracle quantities for a sparsity level s: the root beta of the threshold
equation at target s/2, the threshold lambda_o = max(beta,0)^(1/alpha), the
tail energy nu, the plug-in cutoff j1 and the benchmark
phi_o = (lambda_o * s + nu)^2.  Adaptive analogues replace the target by
s / (2 sqrt(log(es))) and carry the extra log(es) factor in nu_star.

A RateCalculator serves one (loading, alpha): it holds one PhiKernel, solves
every equation through it and memoizes solves per s.  Every solve returns
log nu^2 at max(beta, 0) with its root, and nu and nu_star read only that.
Its ``table()`` solves the adaptive equation for every s = 1..min(s0, d) in
one batched solve and tabulates what the Lepski selection reads, so a
simulation cell, which owns one calculator, does that work once rather than
once per replicate.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .loading import LoadingVector, LoadingSpec, check_value, effective_dimension
from .threshold import (
    PhiKernel,
    ThresholdSolution,
    _solve_phi,
    _threshold_solution,
    adaptive_target,
)

__all__ = [
    "RateProfile",
    "AdaptiveRateProfile",
    "RateTable",
    "RateCalculator",
    "oracle_rate",
    "oracle_rate_decomposed",
    "adaptive_rate",
    "j3_index",
    "closed_form_rate",
    "check_assumption",
    "AssumptionReport",
]


@dataclass(frozen=True)
class RateProfile:
    """All oracle rate quantities for one (loading, alpha, s) triple."""

    s: int
    alpha: float
    beta: float
    lambda_o: float
    nu: float
    j1: int
    phi_o: float


@dataclass(frozen=True)
class AdaptiveRateProfile:
    """Adaptive analogue of RateProfile, including the family cutoffs."""

    s: int
    alpha: float
    beta_star: float
    lambda_star: float
    nu_star: float
    j2: int
    s_star: int
    s0: int
    phi_star: float
    phi_adp: float


class RateTable(NamedTuple):
    """Adaptive quantities for s = 1..min(s0, d), indexed by s - 1.

    ``head_from[j]`` is the first index s - 1 whose plug-in head (sorted
    positions below j2(s)) contains sorted position j, or len(j2) if none.
    """

    lambda_star: np.ndarray
    j2: np.ndarray
    nu_star: np.ndarray
    phi_adp: np.ndarray
    head_from: np.ndarray


def _check_s(s) -> int:
    """``s`` as an int: an int or a numpy integer (``estimators`` passes
    those), never a bool, a float or a str, which ``int`` would truncate or
    parse."""
    if isinstance(s, (int, np.integer)) and not isinstance(s, bool):
        return int(s)
    raise ValueError("s: expected an integer")


def _cutoff(loading: LoadingVector, lam):
    """max{ j : |eta_j| >= lam } with the empty-set convention 0 (ties
    included), for a scalar or an array of lam; d at lam = 0."""
    levels = loading.levels
    return levels.covered(levels.values.size
                          - np.searchsorted(levels.values[::-1], lam, side="left"))


class RateCalculator:
    """Rate computations for a fixed loading and tail parameter."""

    def __init__(self, loading: LoadingVector, alpha: float):
        alpha = check_value(float, alpha, "alpha")
        if not alpha > 0:
            raise ValueError("alpha must be positive and finite")
        self.loading = loading
        self.alpha = alpha
        self._oracle: dict[int, RateProfile] = {}
        self._star: dict[int, tuple[ThresholdSolution, float]] = {}  # s -> (root, log nu^2)
        self._ladder: tuple | None = None  # (targets, beta, g, iterations, log nu^2) for s = 1..n
        self._table: RateTable | None = None
        self._s_star: int | None = None
        self._kernel = PhiKernel(loading, alpha)

    def _solve(self, targets) -> tuple:
        """The solve record (targets, beta, g, iterations, log nu^2 at
        max(beta, 0)) of ``targets``, one entry per target."""
        targets = np.asarray(targets, dtype=float)
        return (targets, *_solve_phi(self._kernel, targets))

    def _root(self, equation: str, record: tuple, i: int) -> tuple[ThresholdSolution, float]:
        """Entry i of a solve record: its root and log nu^2 at max(beta, 0)."""
        target, beta, g, iters, log_nu2 = (col[i].item() for col in record)
        return _threshold_solution(equation, self.alpha, target, beta, g, iters), log_nu2

    @staticmethod
    def _nu_star(s: np.ndarray, log_nu2: np.ndarray) -> np.ndarray:
        """nu_star at each s from log nu^2 at max(beta, 0), beta its adaptive root."""
        return np.sqrt((1.0 + np.log(s)) * np.exp(log_nu2))

    def _phi_adp(self, s: np.ndarray, lam: np.ndarray, nu: np.ndarray) -> np.ndarray:
        """phi_adp at s = 1, ... (each s <= min(s0, d)) from lambda_star and
        nu_star there: phi_star = (s lambda_star)^2 + nu_star^2, and below
        alpha = 2 at least phi_star(1) log(es)^2."""
        phi = (s * lam) ** 2 + nu**2
        if self.alpha < 2.0:
            phi = np.maximum(phi, phi[0] * (1.0 + np.log(s)) ** 2)
        return phi

    # -- oracle side ---------------------------------------------------------

    def oracle(self, s: int) -> RateProfile:
        s = _check_s(s)
        if not 1 <= s <= self.loading.d:
            raise ValueError(f"s must be in [1, {self.loading.d}]")
        prof = self._oracle.get(s)
        if prof is None:
            sol, log_nu2 = self._root("oracle", self._solve([s / 2.0]), 0)
            lam, nu = sol.lambda_, math.exp(0.5 * log_nu2)
            prof = RateProfile(s, self.alpha, sol.beta, lam, nu, int(_cutoff(self.loading, lam)),
                               (lam * s + nu) ** 2)
            self._oracle[s] = prof
        return prof

    def phi_o(self, s: int) -> float:
        return self.oracle(s).phi_o

    # -- adaptive side -------------------------------------------------------

    def _adaptive(self, s: int) -> tuple[ThresholdSolution, float]:
        """The adaptive root at s and log nu^2 at max(beta, 0): the ladder's
        once it is solved and holds s, else a one-target solve."""
        if not 1 <= s <= self.loading.d:
            raise ValueError(f"s must be in [1, {self.loading.d}]")
        star = self._star.get(s)
        if star is None:
            if self._ladder is not None and s <= self._ladder[0].size:
                star = self._root("adaptive", self._ladder, s - 1)
            else:
                star = self._root("adaptive", self._solve([adaptive_target(s)]), 0)
            self._star[s] = star
        return star

    def star_solution(self, s: int) -> ThresholdSolution:
        return self._adaptive(_check_s(s))[0]

    def lambda_star(self, s: int) -> float:
        return self.star_solution(s).lambda_

    def j2(self, s: int) -> int:
        return int(_cutoff(self.loading, self.lambda_star(s)))

    def nu_star(self, s: int) -> float:
        s = _check_s(s)
        log_nu2 = self._adaptive(s)[1]
        return float(self._nu_star(np.array([float(s)]), np.array([log_nu2]))[0])

    def table(self) -> RateTable:
        """The adaptive ladder for s = 1..min(s0, d), solved in one batched
        solve on the first call.  ``lambda_star``, ``j2`` and ``nu_star``
        equal the per-s methods exactly: they read the same solve record.  The
        targets, their logs and the powers max(beta, 0)^(1/alpha) stay per-s
        Python floats: numpy's log and power differ from ``math``'s in the last
        bit on some inputs."""
        if self._table is None:
            n = min(self.s0(), self.loading.d)
            self._ladder = self._solve([adaptive_target(s) for s in range(1, n + 1)])
            _targets, beta, _g, _iters, log_nu2 = self._ladder
            inv = 1.0 / self.alpha
            lam = np.array([max(b, 0.0) ** inv for b in beta.tolist()])
            j2 = _cutoff(self.loading, lam)
            s = np.arange(1, n + 1)
            nu = self._nu_star(s, log_nu2)
            phi = self._phi_adp(s, lam, nu)
            # j2 is nondecreasing: sorted positions j2(s-1) <= j < j2(s) first join at s
            head_from = np.repeat(np.arange(n + 1), np.diff(j2, prepend=0, append=self.loading.d))
            for arr in (lam, j2, nu, phi, head_from):
                arr.flags.writeable = False
            self._table = RateTable(lam, j2, nu, phi, head_from)
        return self._table

    def s_star(self) -> int:
        """Largest s with lambda_star(s) > 0, i.e. adaptive_target(s) < phi(0); 0 if none."""
        if self._s_star is None:
            log_phi0 = float(self._kernel.log_phi(np.zeros(1))[0])
            # the target is increasing in s: s = 1..s_star lie below phi(0)
            self._s_star = bisect.bisect_left(range(1, self.loading.d + 1), log_phi0,
                                              key=lambda s: math.log(adaptive_target(s)))
        return self._s_star

    def s0(self) -> int:
        return self.s_star() + 1

    def phi_star(self, s: int) -> float:
        s = _check_s(s)
        s0 = min(self.s0(), self.loading.d)
        if s > s0:
            s = s0
        sol = self.star_solution(s)
        return (s * sol.lambda_) ** 2 + self.nu_star(s) ** 2

    def phi_adp(self, s: int) -> float:
        """Flat beyond s0: phi_adp(s) = phi_adp(min(s, s0))."""
        s = min(_check_s(s), self.s0(), self.loading.d)
        ks = np.array([1.0, s])
        lam = np.array([self.lambda_star(1), self.lambda_star(s)])
        nu = np.array([self.nu_star(1), self.nu_star(s)])
        return float(self._phi_adp(ks, lam, nu)[1])

    def adaptive(self, s: int) -> AdaptiveRateProfile:
        s = _check_s(s)
        if not 1 <= s <= self.loading.d:
            raise ValueError(f"s must be in [1, {self.loading.d}]")
        sol = self.star_solution(s)
        return AdaptiveRateProfile(
            s=s,
            alpha=self.alpha,
            beta_star=sol.beta,
            lambda_star=sol.lambda_,
            nu_star=self.nu_star(s),
            j2=self.j2(s),
            s_star=self.s_star(),
            s0=self.s0(),
            phi_star=self.phi_star(s),
            phi_adp=self.phi_adp(s),
        )


def oracle_rate(loading: LoadingVector, alpha: float, s: int) -> RateProfile:
    return RateCalculator(loading, alpha).oracle(s)


def oracle_rate_decomposed(loading: LoadingVector, alpha: float, s: int) -> tuple[float, float]:
    """(lambda_o^2 s^2, head energy sum_{j <= j1} eta_j^2); phi_o matches their
    sum only up to constants, so callers compare within a band."""
    prof = oracle_rate(loading, alpha, s)
    head = float((loading.values[: prof.j1] ** 2).sum())
    return (prof.lambda_o * prof.s) ** 2, head


def adaptive_rate(loading: LoadingVector, alpha: float, s: int) -> AdaptiveRateProfile:
    return RateCalculator(loading, alpha).adaptive(s)


def j3_index(d: int, s: int, alpha: float) -> int:
    """ceil(s^2 log^(2/alpha)(ed/s)) clipped at d; plug-in cutoff of the
    non-symmetric estimator."""
    d, s = int(d), _check_s(s)
    if not 1 <= s <= d:
        raise ValueError(f"s must be in [1, {d}]")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    val = s * s * (1.0 + math.log(d / s)) ** (2.0 / alpha)
    return min(math.ceil(val), d)


def _log_pow(x: float, alpha: float) -> float:
    return math.log1p(x) ** (2.0 / alpha)


def closed_form_rate(example_kind: str, params: dict, s: int) -> float:
    """Closed-form benchmark rates for the three example loading families.

    These are cross-check oracles only: each is the analytic rate up to
    multiplicative constants, never used inside the solvers.  Two-phase
    rates are the two-regime sum (head subvector + full homogeneous vector),
    which agrees with the tabulated branch values up to a factor of two.
    """
    s = _check_s(s)
    if s < 1:
        raise ValueError("s must be >= 1")
    alpha = float(params["alpha"])
    log_es = 1.0 + math.log(s)

    if example_kind == "homogeneous_oracle":
        d = int(params["d"])
        return s * s * _log_pow(d ** (alpha / 2.0) / s**alpha, alpha)
    if example_kind == "homogeneous_adaptive":
        d = int(params["d"])
        return s * s * _log_pow(d ** (alpha / 2.0) * log_es ** (alpha / 2.0) / s**alpha, alpha)
    if example_kind in ("two_phase_oracle", "two_phase_adaptive"):
        d = int(params["d"])
        gd, gl = float(params["gamma_d"]), float(params["gamma_lambda"])
        boost = 1.0 if example_kind == "two_phase_oracle" else log_es ** (alpha / 2.0)
        head = d ** (2.0 * gl) * s * s * _log_pow(d ** (gd * alpha / 2.0) * boost / s**alpha, alpha)
        full = s * s * _log_pow(d ** (alpha / 2.0) * boost / s**alpha, alpha)
        return head + full
    if example_kind == "exp_decay_oracle":
        j0 = int(params["j0"])
        return s * s * _log_pow(j0 / (s * s), alpha)
    if example_kind == "exp_decay_adaptive":
        j0 = int(params["j0"])
        s_turn = math.sqrt(j0 * (1.0 + math.log(j0)))
        if s <= s_turn:
            return s * s * _log_pow(j0 * log_es / (s * s), alpha)
        return j0 * (1.0 + math.log(j0))
    raise ValueError(f"unknown example kind {example_kind!r}")


@dataclass(frozen=True)
class AssumptionReport:
    """Ratio diagnostics for the adaptive-rate growth condition.

    ``max_ratio_low`` is max over s <= s_cut of phi_adp(s)/phi_o(s);
    ``min_ratio_high`` is min over s >= s_cut of
    phi_adp(s) / (phi_o(1) * (s ^ s0)^gamma0).  No pass/fail threshold is
    applied: the condition's constants are unspecified, the caller judges.
    """

    s_cut: int
    gamma0: float
    s0: int
    max_ratio_low: float
    argmax_low: int
    min_ratio_high: float
    argmin_high: int
    grid_low: tuple[int, ...]
    grid_high: tuple[int, ...]


def _log_grid(lo: int, hi: int, n: int) -> list[int]:
    pts = np.unique(np.round(np.exp(np.linspace(math.log(lo), math.log(hi), n))).astype(int))
    return [int(p) for p in pts if lo <= p <= hi]


def check_assumption(loading: LoadingVector, alpha: float, s_cut: int, gamma0: float,
                     grid_size: int = 40) -> AssumptionReport:
    d = loading.d
    s_cut = int(s_cut)
    if not 1 <= s_cut <= d:
        raise ValueError(f"s_cut must be in [1, {d}]")
    if not 0.0 < gamma0 < 2.0:
        raise ValueError("gamma0 must be in (0, 2)")
    calc = RateCalculator(loading, alpha)
    s0 = calc.s0()

    low = list(range(1, s_cut + 1)) if s_cut <= grid_size else _log_grid(1, s_cut, grid_size)
    high = sorted(set(_log_grid(s_cut, d, grid_size))
                  | {s for s in (s_cut, s0 - 1, s0, s0 + 1, d) if s_cut <= s <= d})

    ratios_low = [(calc.phi_adp(s) / calc.phi_o(s), s) for s in low]
    max_low, arg_low = max(ratios_low)
    phi1 = calc.phi_o(1)
    ratios_high = [(calc.phi_adp(s) / (phi1 * min(s, s0) ** gamma0), s) for s in high]
    min_high, arg_high = min(ratios_high)
    return AssumptionReport(
        s_cut=s_cut,
        gamma0=gamma0,
        s0=s0,
        max_ratio_low=max_low,
        argmax_low=arg_low,
        min_ratio_high=min_high,
        argmin_high=arg_high,
        grid_low=tuple(low),
        grid_high=tuple(high),
    )


def closed_form_for_spec(spec: LoadingSpec, loading: LoadingVector, alpha: float,
                         s: int) -> float | None:
    """Closed-form oracle benchmark for ``spec`` (built as ``loading``), if any."""
    if spec.kind == "homogeneous":
        return closed_form_rate("homogeneous_oracle", {"d": spec.d, "alpha": alpha}, s)
    if spec.kind == "two_phase":
        return closed_form_rate(
            "two_phase_oracle",
            {"d": spec.d, "alpha": alpha, "gamma_d": spec.gamma_d, "gamma_lambda": spec.gamma_lambda},
            s,
        )
    if spec.kind == "exp_decay":
        j0 = effective_dimension(loading)
        return closed_form_rate("exp_decay_oracle", {"j0": j0, "alpha": alpha}, s)
    return None
