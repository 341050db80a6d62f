"""Unit-variance noise families with declared sub-Weibull tail classes.

Class G demands symmetry and the tail bound 2 exp(-2 (t/tau)^alpha); class H
drops the symmetry and the factor 2 inside the exponent, giving
2 exp(-(t/tau)^alpha).  Declarations are validated empirically by
``tail_check`` rather than at construction.

All variates are derived from raw Philox uniforms inside this module
(Box-Muller normals, Marsaglia-Tsang gammas, inverse-CDF exponentials), so a
stream depends only on the frozen bit generator, not on numpy's distribution
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .streams import generator

__all__ = [
    "NoiseModel",
    "sample",
    "minimal_tau",
    "sigma_alpha",
    "tail_check",
    "TailCheckReport",
    "TailCheckRow",
    "FAMILIES",
    "sample_with",
]

FAMILIES = ("gaussian", "symm_weibull", "rademacher", "uniform_sym", "shifted_exponential")
_SYMMETRIC = ("gaussian", "symm_weibull", "rademacher", "uniform_sym")


@dataclass(frozen=True)
class NoiseModel:
    """A named mean-zero, unit-variance noise family with tail declaration."""

    family: str
    alpha: float
    tau: float
    tail_class: str = "G"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.tau)
                and self.alpha > 0 and self.tau > 0):
            raise ValueError("alpha and tau must be positive and finite")
        if self.tail_class not in ("G", "H"):
            raise ValueError("tail class must be 'G' or 'H'")
        if self.tail_class == "G" and self.family not in _SYMMETRIC:
            raise ValueError(f"{self.family} is not symmetric, declare class 'H'")

    def to_dict(self) -> dict:
        return {"family": self.family, "alpha": self.alpha, "tau": self.tau,
                "class": self.tail_class}


def sigma_alpha(alpha: float) -> float:
    """Scale sqrt(Gamma(1/alpha) / Gamma(3/alpha)) that gives the double
    power-exponential density exp(-|x/sigma|^alpha) unit variance."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return math.exp(0.5 * (math.lgamma(1.0 / alpha) - math.lgamma(3.0 / alpha)))


def minimal_tau(alpha: float) -> float:
    """Smallest tau for which the extremal density satisfies the class-G
    moment bound: sigma_alpha * (1 - 2^-alpha)^(-1/alpha)."""
    return sigma_alpha(alpha) * (1.0 - 2.0 ** (-alpha)) ** (-1.0 / alpha)


def _standard_normal(rng: np.random.Generator, n: int) -> np.ndarray:
    # Box-Muller on raw uniforms; 1 - u keeps the log argument in (0, 1].
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n]


def _standard_gamma(rng: np.random.Generator, shape: float, n: int) -> np.ndarray:
    """Marsaglia-Tsang rejection sampler, valid for every shape > 0.

    Shapes below one (alpha > 1 in the sub-Weibull construction) use the
    boost Gamma(k) = Gamma(k+1) * U^(1/k).
    """
    if shape <= 0:
        raise ValueError("shape must be positive")
    boost = None
    k = shape
    if k < 1.0:
        boost = rng.random(n) ** (1.0 / k)
        k = k + 1.0
    d = k - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n)
    pending = np.arange(n)
    while pending.size:
        m = pending.size
        z = _standard_normal(rng, m)
        v = (1.0 + c * z) ** 3
        u = rng.random(m)
        pos = v > 0.0
        logv = np.log(np.where(pos, v, 1.0))
        ok = pos & (np.log(u) < 0.5 * z * z + d * (1.0 - v + logv))
        out[pending[ok]] = d * v[ok]
        pending = pending[~ok]
    if boost is not None:
        out *= boost
    return out


def sample_with(model: NoiseModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n variates from an explicit generator (sim harness entry point)."""
    if model.family == "gaussian":
        return _standard_normal(rng, n)
    if model.family == "symm_weibull":
        sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        g = _standard_gamma(rng, 1.0 / model.alpha, n)
        return sign * sigma_alpha(model.alpha) * g ** (1.0 / model.alpha)
    if model.family == "rademacher":
        return np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if model.family == "uniform_sym":
        return (2.0 * rng.random(n) - 1.0) * math.sqrt(3.0)
    # shifted_exponential: unit-rate exponential minus its mean
    return -np.log(1.0 - rng.random(n)) - 1.0


def sample(model: NoiseModel, n: int, seed: int) -> np.ndarray:
    """Draw n variates; deterministic in (model, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = generator(seed, "noise", model.family, model.alpha)
    return sample_with(model, n, rng)


@dataclass(frozen=True)
class TailCheckRow:
    t: float
    empirical: float
    bound: float
    margin: float
    stderr: float
    ok: bool


@dataclass(frozen=True)
class TailCheckReport:
    model: NoiseModel
    n: int
    rows: tuple[TailCheckRow, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def class_tail_bound(model: NoiseModel, t: float) -> float:
    """Declared class bound at t: 2 exp(-2 (t/tau)^alpha) for G, one factor
    of 2 less in the exponent for H."""
    scale = 2.0 if model.tail_class == "G" else 1.0
    return 2.0 * math.exp(-scale * (t / model.tau) ** model.alpha)


def tail_check(model: NoiseModel, t_grid, n: int, seed: int) -> TailCheckReport:
    """Compare empirical exceedance frequencies against the class bound.

    A row passes when the empirical frequency does not exceed the bound by
    more than three binomial standard errors (computed at the bound).
    """
    x = np.abs(sample(model, n, seed))
    rows = []
    for t in t_grid:
        t = float(t)
        if t <= 0:
            raise ValueError("t_grid must be positive")
        emp = float((x >= t).mean())
        bound = class_tail_bound(model, t)
        se = math.sqrt(max(bound * (1.0 - bound), 0.0) / n)
        margin = bound - emp
        rows.append(TailCheckRow(t, emp, bound, margin, se, margin >= -3.0 * se))
    return TailCheckReport(model, n, tuple(rows))
