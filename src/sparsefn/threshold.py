"""Implicit threshold equations and their monotone bisection solvers.

The central objective is

    phi(beta) = sum_j |eta_j| exp(-beta/|eta_j|^alpha)
                / sqrt(sum_j eta_j^2 exp(-beta/|eta_j|^alpha)),

which is continuous, strictly decreasing, diverges as beta -> -inf and
vanishes as beta -> +inf, so every positive target has a unique root.  All
evaluation happens in the log domain: the weights exp(-beta/|eta_j|^alpha)
span hundreds of orders of magnitude long before the ratio itself leaves the
representable range.

Bisection (after geometric bracket expansion from beta = 0) is used instead of
Newton: the derivative is available but unconditional convergence matters more
than speed for a solve that runs once per (sparsity, loading) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loading import LoadingVector

__all__ = [
    "Tolerances",
    "ThresholdSolution",
    "BracketError",
    "phi_objective",
    "log_phi_objective",
    "solve_beta",
    "solve_adaptive_beta",
    "solve_lambda_H",
    "adaptive_target",
]


class BracketError(RuntimeError):
    """No sign change found within the bracket expansion cap."""


@dataclass(frozen=True)
class Tolerances:
    """Stopping rules for the threshold solvers.

    ``rel``/``abs`` bound the achieved objective residual, which is the
    meaningful contract (beta enters rates only through the objective).
    ``width`` stops bisection once the bracket is this small relative to the
    root scale; together with the iteration cap it is a backstop for
    ill-conditioned loadings where the residual target sits below float
    resolution.
    """

    rel: float = 1e-10
    abs: float = 0.0
    width: float = 1e-12
    max_iter: int = 200
    max_doublings: int = 120


@dataclass(frozen=True)
class ThresholdSolution:
    """A solved implicit equation.

    ``beta`` is the root of the objective; for the ``asym`` equation the root
    is the threshold itself.  ``lambda_`` is ``max(beta, 0) ** (1/alpha)`` for
    the oracle/adaptive equations and equals ``beta`` for ``asym``.
    ``residual`` is ``objective(beta) - target``.
    """

    equation: str
    target: float
    beta: float
    lambda_: float
    residual: float
    iterations: int

    def meets(self, tol: Tolerances) -> bool:
        return abs(self.residual) <= tol.rel * self.target + tol.abs

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "target": self.target,
            "beta": self.beta,
            "lambda": self.lambda_,
            "residual": self.residual,
            "iterations": self.iterations,
        }


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + math.log(float(np.exp(x - m).sum()))


def _safe_expm1(g: float) -> float:
    # expm1 overflows for g > ~709; far from the root only the magnitude matters
    return math.expm1(g) if abs(g) < 700.0 else math.copysign(math.inf, g)


def log_phi_objective(loading: LoadingVector, alpha: float, beta: float) -> float:
    """log(phi(beta)); finite for every finite beta and valid loading."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    log_eta = np.log(loading.abs_values)
    w = -beta / loading.abs_values**alpha
    return _logsumexp(log_eta + w) - 0.5 * _logsumexp(2.0 * log_eta + w)


def log_energy(loading: LoadingVector, alpha: float, beta: float) -> float:
    """log(sum_j eta_j^2 exp(-beta/|eta_j|^alpha)): log(nu^2) at beta >= 0."""
    w = -beta / loading.abs_values**alpha
    return _logsumexp(2.0 * np.log(loading.abs_values) + w)


def phi_objective(loading: LoadingVector, alpha: float, beta: float) -> float:
    """phi(beta) itself; overflows to inf only when the true value exceeds
    the float64 range (beta very negative with tiny loadings)."""
    lp = log_phi_objective(loading, alpha, beta)
    return math.exp(lp) if lp < 709.0 else math.inf


def _solve_decreasing(g, tol: Tolerances, resid_rel_of,
                      rel_cap: float) -> tuple[float, float, int]:
    """Root of a strictly decreasing g: geometric bracket expansion from 0,
    probing x = +-1, +-2, +-4, ... on the root's side, then bisection.

    ``resid_rel_of`` maps a g-value to the relative objective residual and
    ``rel_cap`` is the residual stopping level.  Returns
    (root, g(root), evaluations of g)."""
    iters = 1
    g0 = g(0.0)
    if g0 == 0.0:
        return 0.0, 0.0, iters

    direction = 1.0 if g0 > 0.0 else -1.0
    near, step = 0.0, 1.0
    for _ in range(tol.max_doublings):
        far = direction * step
        gfar = g(far)
        iters += 1
        if direction * gfar <= 0.0:
            break
        near = far
        step *= 2.0
    else:
        span = f"[0, {step}]" if direction > 0.0 else f"[-{step}, 0]"
        raise BracketError(f"no sign change in {span} after {tol.max_doublings} doublings")
    lo, hi = (near, far) if direction > 0.0 else (far, near)

    best_x, best_g = lo, g(lo)
    ghi = g(hi)
    if abs(ghi) < abs(best_g):
        best_x, best_g = hi, ghi
    while iters < tol.max_iter:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        gm = g(mid)
        iters += 1
        if abs(gm) < abs(best_g):
            best_x, best_g = mid, gm
        if abs(resid_rel_of(gm)) <= rel_cap:
            break
        if gm > 0.0:
            lo = mid
        else:
            hi = mid
        # width relative to the root scale, so tiny ill-conditioned roots
        # keep refining until the residual contract is met
        if hi - lo < tol.width * max(abs(mid), tol.width):
            break
    return best_x, best_g, iters


def solve_beta(loading: LoadingVector, alpha: float, target: float,
               tol: Tolerances | None = None, equation: str = "oracle") -> ThresholdSolution:
    """Solve phi(beta) = target by bracket expansion from 0 plus bisection."""
    if target <= 0 or not math.isfinite(target):
        raise ValueError("target must be positive and finite")
    tol = tol or Tolerances()
    log_target = math.log(target)

    def g(b: float) -> float:
        return log_phi_objective(loading, alpha, b) - log_target

    beta, gbest, iters = _solve_decreasing(g, tol, _safe_expm1,
                                           rel_cap=tol.rel + tol.abs / target)
    lam = max(beta, 0.0) ** (1.0 / alpha)
    residual = _safe_expm1(gbest) * target
    return ThresholdSolution(equation, target, beta, lam, residual, iters)


def adaptive_target(s: int) -> float:
    """Right-hand side of the adaptive threshold equation, s / (2 sqrt(log(es)))."""
    return s / (2.0 * math.sqrt(1.0 + math.log(s)))


def solve_adaptive_beta(loading: LoadingVector, alpha: float, s: int,
                        tol: Tolerances | None = None) -> ThresholdSolution:
    """Adaptive-family threshold: the oracle equation at target s/(2 sqrt(log(es)))."""
    s = int(s)
    if not 1 <= s <= loading.d:
        raise ValueError(f"s must be in [1, {loading.d}]")
    sol = solve_beta(loading, alpha, adaptive_target(s), tol, equation="adaptive")
    return sol


def solve_lambda_H(loading: LoadingVector, alpha: float, s: int,
                   tol: Tolerances | None = None) -> ThresholdSolution:
    """Solve sum_{j >= s^2} exp(-(lambda/|eta_j|)^alpha) = s for lambda >= 0.

    The sum runs literally over j = s^2, ..., d (d - s^2 + 1 terms), which
    requires s^2 + s <= d + 1 for a nonnegative root to exist.
    """
    s = int(s)
    d = loading.d
    if s < 1:
        raise ValueError("s must be >= 1")
    if s * s + s > d + 1:
        raise ValueError(f"existence requires s^2 + s <= d + 1 (s={s}, d={d})")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    tol = tol or Tolerances()
    tail = loading.abs_values[s * s - 1:]

    def g(lam: float) -> float:
        return float(np.exp(-((lam / tail) ** alpha)).sum()) - s

    # g(0) = d - s^2 + 1 - s >= 0, so the expansion always runs upward
    lam, gbest, iters = _solve_decreasing(g, tol, lambda v: v / s,
                                          rel_cap=tol.rel + tol.abs / s)
    return ThresholdSolution("asym", float(s), lam, lam, gbest, iters)
