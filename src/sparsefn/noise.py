"""Unit-variance noise families with declared sub-Weibull tail classes.

Class G demands symmetry and the tail bound 2 exp(-2 (t/tau)^alpha); class H
drops the symmetry and the factor 2 inside the exponent, giving
2 exp(-(t/tau)^alpha).  Declarations are validated empirically by
``tail_check`` rather than at construction.

All variates are derived from raw Philox uniforms inside this module
(Box-Muller normals, Marsaglia-Tsang gammas, inverse-CDF exponentials), so a
stream depends only on the frozen bit generator, not on numpy's distribution
implementations.

``sample_with`` draws R replicates as one block: each family reads a fixed
number of uniforms per variate, so replicate r's variates are a transform of
its own counter segment of the stream (see ``streams``).  symm_weibull's
rejection step gets a fixed candidate budget per replicate
(``GAMMA_BUDGET``); a replicate that runs past it takes the rest of its
variates from its fallback stream, keyed by (seed, tags, r).  Given a list
of streams, ``sample_with`` stacks their blocks in one transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .loading import check_types
from .streams import Stream, uniforms

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
    tail_class: str = field(default="G", metadata={"json": "class"})

    def __post_init__(self) -> None:
        check_types(self)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.family!r}")
        if not (self.alpha > 0 and self.tau > 0):
            raise ValueError("alpha and tau must be positive and finite")
        if self.tail_class not in ("G", "H"):
            raise ValueError("tail class must be 'G' or 'H'")
        if self.tail_class == "G" and self.family not in _SYMMETRIC:
            raise ValueError(f"{self.family} is not symmetric, declare class 'H'")


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


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Normals from an (R, 2m) uniform block, written over it and returned:
    the first m columns give the radius, the last m the angle.  Works in
    place where it can: a block's temporaries are large, and fresh ones cost
    page faults."""
    m = u.shape[1] // 2
    r = np.negative(u[:, :m])
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    angle = u[:, m:] * (2.0 * np.pi)
    np.cos(angle, out=u[:, :m])
    u[:, :m] *= r
    np.sin(angle, out=angle)
    np.multiply(angle, r, out=u[:, m:])
    return u


def _marsaglia_tsang(k: float, z: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gamma(k) candidates for shape k >= 1 from normals z and uniforms u:
    (values, accepted), accepted when log u < z^2/2 + d (1 - v + log v)."""
    d = k - 1.0 / 3.0
    v = z / math.sqrt(9.0 * d)
    v += 1.0
    square = v * v
    v *= square  # v = (1 + z / sqrt(9 d))^3
    pos = v > 0.0
    bound = np.log(np.where(pos, v, 1.0))
    bound -= v
    bound += 1.0
    bound *= d
    np.square(z, out=square)
    square *= 0.5
    bound += square
    ok = np.log(u, out=square) < bound
    ok &= pos
    v *= d
    return v, ok


def _gamma_rejection(rng: np.random.Generator, k: float, n: int) -> np.ndarray:
    """n Gamma(k) variates, k >= 1, by rejection rounds on a free-running generator."""
    out = []
    while n:
        u = rng.random((1, 2 * (-(-n // 2)) + n))
        values, ok = _marsaglia_tsang(k, _box_muller(u[:, :-n])[:, :n], u[:, -n:])
        out.append(values[ok])
        n -= int(ok.sum())
    return np.concatenate(out)


# Marsaglia-Tsang candidates per replicate: ceil(GAMMA_BUDGET * n) + 8, rounded
# up to even, for n variates.  Acceptance is at least 0.95 for every shape >= 1,
# so a replicate runs past its budget with negligible probability (more than 5
# standard deviations out at n = 100, more at larger n); if it does, the rest of
# its variates come from its own fallback stream.
GAMMA_BUDGET = 1.1


def _layout(model: NoiseModel, n: int) -> tuple[int, ...]:
    """The column widths of one replicate's segment, in segment order."""
    if model.family == "gaussian":
        return (2 * (-(-n // 2)),)
    if model.family != "symm_weibull":
        return (n,)
    k = -(-math.ceil(GAMMA_BUDGET * n) // 2) * 2 + 8   # candidates, an even count
    boost = n if 1.0 / model.alpha < 1.0 else 0
    return (n, boost, k, k)  # sign, boost, Box-Muller normals, acceptance uniforms


def _standard_gamma(shape: float, n: int, parts: list, streams: list, R: int) -> np.ndarray:
    """(k R, n) Gamma(shape) variates for the k stacked blocks of ``streams``:
    Marsaglia-Tsang on each replicate's candidate budget, in candidate order.
    Shapes below one (alpha > 1) use the boost Gamma(k) = Gamma(k+1) * U^(1/k)."""
    boost, normals, accept = parts
    k = shape + 1.0 if shape < 1.0 else shape
    values, ok = _marsaglia_tsang(k, _box_muller(normals), accept)
    accepted = values[ok]  # row by row, in candidate order
    got = ok.sum(axis=1)
    first = np.cumsum(got) - got
    full = got >= n
    out = np.empty((ok.shape[0], n))
    out[full] = accepted[first[full, None] + np.arange(n)]
    for r in np.flatnonzero(~full):  # past the budget: the rest from r's fallback
        rest = _gamma_rejection(streams[r // R].fallback(r % R), k, n - got[r])
        out[r] = np.concatenate([accepted[first[r]:first[r] + got[r]], rest])
    if shape < 1.0:
        out *= boost ** (1.0 / shape)
    return out


def sample_with(model: NoiseModel, n: int, stream: Stream | list[Stream],
                replicates: int = 1) -> np.ndarray:
    """(replicates, n) variates; row r is drawn from counter segment r of
    ``stream`` (its fallback stream for a symm_weibull replicate that runs
    past its candidate budget).  A list of k streams gives the k blocks
    stacked, (k * replicates, n), each as its stream alone gives it: every
    row is a transform of its own uniforms, so the k blocks are one
    transform."""
    streams = [stream] if isinstance(stream, Stream) else stream
    widths = _layout(model, n)
    u = uniforms(streams, replicates, sum(widths))
    parts = np.split(u, np.cumsum(widths)[:-1], axis=1)
    if model.family == "gaussian":
        return _box_muller(parts[0])[:, :n]
    if model.family == "symm_weibull":
        g = _standard_gamma(1.0 / model.alpha, n, parts[1:], streams, replicates)
        g **= 1.0 / model.alpha
        g *= sigma_alpha(model.alpha)
        return np.negative(g, out=g, where=parts[0] < 0.5)  # the sign
    if model.family == "rademacher":
        return np.where(parts[0] < 0.5, -1.0, 1.0)
    if model.family == "uniform_sym":
        return (2.0 * parts[0] - 1.0) * math.sqrt(3.0)
    # shifted_exponential: unit-rate exponential minus its mean
    return -np.log(1.0 - parts[0]) - 1.0


def sample(model: NoiseModel, n: int, seed: int) -> np.ndarray:
    """Draw n variates; deterministic in (model, seed)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sample_with(model, n, Stream(seed, "noise", model.family, model.alpha))[0]


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
