"""Least-favorable random-sparsity prior and its chi-square mixture bound.

Each coordinate is independently active with probability pi_j proportional to
|eta_j| exp(-beta_+/|eta_j|^alpha); active coordinates take the value gamma_j,
chosen so that eta_j * gamma_j = C2 * max(|eta_j|, lambda_o) is non-increasing.
The chi-square bound on the induced mixture vs. the all-zero model follows the
product/Fubini chain with the shifted extremal density, reported together with
the implied total-variation bound sqrt(bound - 1) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loading import LoadingVector
from .rates import RateCalculator
from .streams import generator

__all__ = [
    "LeastFavorablePrior",
    "PriorMoments",
    "Chi2Bound",
    "build_prior",
    "prior_moments",
    "sample_prior",
    "draw_prior",
    "chi2_mixture_bound",
    "chi2_shifted_extremal",
]


@dataclass(frozen=True)
class LeastFavorablePrior:
    """Activation probabilities and values, in sorted-loading order."""

    loading: LoadingVector
    alpha: float
    s: int
    c1: float
    c_alpha2: float
    pi: np.ndarray
    gamma: np.ndarray
    lambda_o: float
    nu: float
    j1: int

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        gam = np.asarray(self.gamma, dtype=float)
        pi.flags.writeable = False
        gam.flags.writeable = False
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "gamma", gam)


def build_prior(loading: LoadingVector, alpha: float, s: int, c1: float,
                c_alpha2: float = 1.0,
                calculator: RateCalculator | None = None) -> LeastFavorablePrior:
    """Construct the prior; rejects configurations where any pi_j >= 1.  A
    ``calculator`` for (loading, alpha) replaces a new one."""
    if not 0.0 < c1 < 2.0:
        raise ValueError("c1 must be in (0, 2)")
    if c_alpha2 <= 0:
        raise ValueError("c_alpha2 must be positive")
    prof = (calculator or RateCalculator(loading, alpha)).oracle(s)
    beta_plus = max(prof.beta, 0.0)
    abs_eta = loading.abs_values
    weights = abs_eta * np.exp(-beta_plus / abs_eta**alpha)
    pi = c1 * weights / prof.nu
    if np.any(pi >= 1.0):
        raise ValueError("c1 too large for this loading: some pi_j >= 1")

    gamma = np.empty(loading.d)
    gamma[: prof.j1] = c_alpha2 * np.sign(loading.values[: prof.j1])
    if prof.j1 < loading.d:
        gamma[prof.j1:] = c_alpha2 * prof.lambda_o / loading.values[prof.j1:]
    return LeastFavorablePrior(loading, float(alpha), int(s), float(c1), float(c_alpha2),
                               pi, gamma, prof.lambda_o, prof.nu, prof.j1)


@dataclass(frozen=True)
class PriorMoments:
    mean_support: float
    var_support: float
    mean_L: float
    var_L: float


def prior_moments(prior: LeastFavorablePrior) -> PriorMoments:
    pi, gam = prior.pi, prior.gamma
    eta = prior.loading.values
    q = pi * (1.0 - pi)
    return PriorMoments(
        mean_support=float(pi.sum()),
        var_support=float(q.sum()),
        mean_L=float((eta * gam * pi).sum()),
        var_L=float((eta**2 * gam**2 * q).sum()),
    )


def draw_prior(prior: LeastFavorablePrior, rng: np.random.Generator,
               size: int | None = None) -> np.ndarray:
    """Draw theta (original coordinate order) from an explicit generator."""
    n = 1 if size is None else int(size)
    active = rng.random((n, prior.loading.d)) < prior.pi
    theta_sorted = active * prior.gamma
    theta = np.empty_like(theta_sorted)
    theta[:, prior.loading.order] = theta_sorted
    return theta[0] if size is None else theta


def sample_prior(prior: LeastFavorablePrior, seed: int,
                 size: int | None = None) -> np.ndarray:
    """Draw theta (original coordinate order); shape (d,) or (size, d)."""
    return draw_prior(prior, generator(seed, "prior", prior.s, prior.c1), size)


def chi2_shifted_extremal(alpha: float, gamma: float, half_width: float = 40.0,
                          n_points: int = 200_001) -> float:
    """1 + chi^2(f(. - gamma) || f) for the unit-variance double
    power-exponential density f, by trapezoid quadrature.

    Cross-check oracle for the analytic mixture bound; not used by any
    estimator or bound computation.
    """
    from .noise import sigma_alpha

    sig = sigma_alpha(alpha)
    norm = sig * (2.0 / alpha) * math.exp(math.lgamma(1.0 / alpha))
    x = np.linspace(-half_width, half_width, n_points)
    # f(x - gamma)^2 / f(x), all in the exponent
    expo = (np.abs(x) ** alpha - 2.0 * np.abs(x - gamma) ** alpha) / sig**alpha
    return float(np.trapezoid(np.exp(expo), x) / norm)


@dataclass(frozen=True)
class Chi2Bound:
    bound: float      # upper bound on 1 + chi^2(P2 || P1)
    tv_bound: float   # implied bound sqrt(bound - 1) / 2 on total variation


def chi2_mixture_bound(prior: LeastFavorablePrior, alpha: float,
                       c_alpha1: float = 1.0) -> Chi2Bound:
    """exp(sum_j pi_j^2 * C1 * exp(|gamma_j / C2|^alpha)) and the TV bound.

    ``c_alpha1 = 1`` is exact for alpha <= 1 and alpha = 2; for other alpha
    only existence of the constant is known, so it is a knob.
    """
    if c_alpha1 < 1.0:
        raise ValueError("c_alpha1 must be >= 1")
    # each term as one exponential: pi_j can underflow to 0 where exp(z_j)
    # overflows, and 0 * inf is NaN; a zero pi_j contributes exp(-inf) = 0
    live = prior.pi > 0.0
    z = np.abs(prior.gamma[live] / prior.c_alpha2) ** alpha
    expo = float(np.exp(2.0 * np.log(prior.pi[live]) + math.log(c_alpha1) + z).sum())
    bound = math.exp(expo)
    return Chi2Bound(bound, math.sqrt(max(bound - 1.0, 0.0)) / 2.0)
