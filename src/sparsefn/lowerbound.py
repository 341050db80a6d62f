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
from functools import cached_property

import numpy as np

from .loading import LoadingVector, check_kind, check_types
from .rates import RateCalculator
from .streams import Stream

__all__ = [
    "THETA_KINDS",
    "ThetaSpec",
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

# kind -> {field: default} of every field that the kind reads; None: required
THETA_KINDS = {
    "zero": {},
    "fixed": {"support": None, "values": None},
    "spike_grid": {"rho": None, "n_spikes": None, "placement": "tail"},
    "prior": {"s": None, "c1": 0.5, "c_alpha2": 1.0},
}
C_ALPHA1 = 1.0  # the chi-square bound constant C1 (see ``chi2_mixture_bound``)


@dataclass(frozen=True)
class ThetaSpec:
    """Signal configurations.

    ``zero``       -- theta = 0;
    ``fixed``      -- explicit support (original-order indices) and values;
    ``spike_grid`` -- n_spikes coordinates at magnitude
                      rho * sigma * tau * lambda_o(n_spikes) / eta_j, placed on
                      the smallest ("tail") or largest ("head") loadings;
    ``prior``      -- random draw from the least-favorable prior per replicate.

    A kind reads the fields of its row of ``THETA_KINDS``; the rest stay unset.
    """

    kind: str = "zero"
    support: tuple[int, ...] | None = None
    values: tuple[float, ...] | None = None
    rho: float | None = None
    n_spikes: int | None = None
    placement: str | None = None
    s: int | None = None
    c1: float | None = None
    c_alpha2: float | None = None

    def __post_init__(self) -> None:
        check_types(self)
        check_kind(self, "theta", THETA_KINDS)
        if self.kind == "fixed":
            if len(self.support) != len(self.values):
                raise ValueError("support and values must have equal length")
            if len(set(self.support)) < len(self.support):
                i = next(i for i, j in enumerate(self.support) if j in self.support[:i])
                raise ValueError(f"support[{i}]: {self.support[i]} repeats an earlier index")
        if self.placement not in (None, "tail", "head"):
            raise ValueError("placement: must be 'tail' or 'head'")
        if self.c1 is not None and not 0.0 < self.c1 < 2.0:
            raise ValueError("c1 must be in (0, 2)")
        if self.c_alpha2 is not None and not self.c_alpha2 > 0.0:
            raise ValueError("c_alpha2 must be positive and finite")


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

    @cached_property
    def _level_tables(self) -> tuple[np.ndarray, ...] | None:
        """For a tied loading, per level: (first sorted position, size,
        offset of its CDF table in ``cdf``, table length, offset of its
        position uniforms in a replicate's segment) and the concatenated
        tables ``cdf``.  None for a loading with more than d/2 levels
        (untied, or nearly so), where one uniform per coordinate costs no
        more."""
        levels = self.loading.levels
        if 2 * levels.values.size > self.loading.d:
            return None
        starts = levels.ends - levels.counts
        tables = [_binomial_cdf(int(n), float(self.pi[j]))
                  for n, j in zip(levels.counts, starts)]
        lengths = np.array([t.size for t in tables])
        cdf_from = np.cumsum(lengths) - lengths
        # a level's count is at most its table length - 1: one uniform per position
        pos_from = starts.size + np.cumsum(lengths - 1) - (lengths - 1)
        return starts, levels.counts, cdf_from, lengths, pos_from, np.concatenate(tables)


def build_prior(loading: LoadingVector, alpha: float, s: int, c1: float,
                c_alpha2: float = THETA_KINDS["prior"]["c_alpha2"],
                calculator: RateCalculator | None = None) -> LeastFavorablePrior:
    """Construct the prior; rejects configurations where any pi_j >= 1.  A
    ``calculator`` for (loading, alpha) replaces a new one."""
    spec = ThetaSpec("prior", s=s, c1=c1, c_alpha2=c_alpha2)  # types s, range-checks c1, c_alpha2
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
    return LeastFavorablePrior(loading, float(alpha), s, spec.c1, spec.c_alpha2,
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


def _binomial_cdf(n: int, p: float) -> np.ndarray:
    """The CDF of Binomial(n, p) at 0..K, K the first count at which it
    rounds to 1 (set to 1 exactly), so an inverse-CDF count from a uniform
    in [0, 1) is at most K.  The mass cut off lies below float resolution."""
    if p <= 0.0:
        return np.ones(1)
    top = min(n, int(n * p + 12.0 * math.sqrt(n * p * (1.0 - p)) + 30.0))
    k = np.arange(top)
    step = np.log((n - k) / (k + 1.0)) + (math.log(p) - math.log1p(-p))
    log_pmf = np.concatenate([[0.0], np.cumsum(step)])  # relative to pmf(0)
    cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
    cdf /= cdf[-1]
    cdf[-1] = 1.0
    return cdf[:int(np.searchsorted(cdf, 1.0)) + 1]


def draw_prior(prior: LeastFavorablePrior, stream: Stream,
               size: int | None = None) -> np.ndarray:
    """Draw theta (original coordinate order), shape (d,), or (size, d) with
    row r from counter segment r of ``stream``.

    An untied loading (more than d/2 levels) compares one uniform per
    coordinate with pi_j.  A tied loading draws a binomial count per level (``LoadingVector.levels``) by
    inverse CDF, one uniform per level, then that many distinct positions in
    the level by Floyd's algorithm, one uniform per position (Devroye,
    *Non-Uniform Random Variate Generation*, 1986), so a draw reads O(levels
    + support) uniforms instead of d.
    """
    n = 1 if size is None else int(size)
    loading, tables = prior.loading, prior._level_tables
    if tables is None:
        active = stream.uniforms(n, loading.d) < prior.pi
        theta = loading.to_original(np.where(active, prior.gamma, 0.0))
        return theta[0] if size is None else theta
    starts, sizes, cdf_from, lengths, pos_from, cdf = tables
    u = stream.uniforms(n, starts.size + int((lengths - 1).sum()))
    # inverse CDF: count = #{table entries <= u}, by binary lifting within each table
    counts = np.zeros((n, starts.size), dtype=np.intp)
    step = 1 << (int(lengths.max()).bit_length() - 1)
    while step:
        up = counts + step
        below = cdf[cdf_from + np.minimum(up, lengths) - 1] <= u[:, :starts.size]
        counts = np.where(below & (up < lengths), up, counts)
        step >>= 1
    rows, levels = np.nonzero(counts)
    c = counts[rows, levels]
    theta = np.zeros((n, loading.d))
    if c.size:
        # Floyd: for j = m - c .. m - 1 take t uniform in [0, j], or j when t is taken
        m, col = sizes[levels], pos_from[levels]
        chosen = np.empty((c.size, int(c.max())), dtype=np.intp)
        for t in range(chosen.shape[1]):
            act = np.flatnonzero(c > t)
            j = m[act] - c[act] + t
            pick = np.minimum((u[rows[act], col[act] + t] * (j + 1)).astype(np.intp), j)
            taken = np.any(chosen[act, :t] == pick[:, None], axis=1)
            chosen[act, t] = np.where(taken, j, pick)
        mask = np.arange(chosen.shape[1]) < c[:, None]
        pos = (starts[levels][:, None] + chosen)[mask]
        theta[np.repeat(rows, c), loading.order[pos]] = prior.gamma[pos]
    return theta[0] if size is None else theta


def sample_prior(prior: LeastFavorablePrior, seed: int,
                 size: int | None = None) -> np.ndarray:
    """Draw theta (original coordinate order); shape (d,) or (size, d)."""
    return draw_prior(prior, Stream(seed, "prior", prior.s, prior.c1), size)


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
                       c_alpha1: float = C_ALPHA1) -> Chi2Bound:
    """exp(sum_j pi_j^2 * C1 * exp(|gamma_j / C2|^alpha)) and the TV bound.

    ``c_alpha1 = 1`` is exact for alpha <= 1 and alpha = 2; for other alpha
    only existence of the constant is known, so it is a knob.
    """
    if not 1.0 <= c_alpha1 < math.inf:
        raise ValueError("c_alpha1 must be >= 1 and finite")
    # each term as one exponential: pi_j can underflow to 0 where exp(z_j)
    # overflows, and 0 * inf is NaN; a zero pi_j contributes exp(-inf) = 0
    live = prior.pi > 0.0
    z = np.abs(prior.gamma[live] / prior.c_alpha2) ** alpha
    expo = float(np.exp(2.0 * np.log(prior.pi[live]) + math.log(c_alpha1) + z).sum())
    try:
        bound = math.exp(expo)
    except OverflowError:  # a bound beyond the float range
        bound = math.inf
    return Chi2Bound(bound, math.sqrt(max(bound - 1.0, 0.0)) / 2.0)
