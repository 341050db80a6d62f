"""Implicit threshold equations and their monotone bisection solvers.

The central objective is

    phi(beta) = sum_j |eta_j| exp(-beta/|eta_j|^alpha)
                / sqrt(sum_j eta_j^2 exp(-beta/|eta_j|^alpha)),

which is continuous, strictly decreasing, diverges as beta -> -inf and
vanishes as beta -> +inf, so every positive target has a unique root.  All
evaluation happens in the log domain: the weights exp(-beta/|eta_j|^alpha)
span hundreds of orders of magnitude long before the ratio itself leaves the
representable range.  A ``PhiKernel`` evaluates on the loading's distinct
|eta| levels, so a loading with few distinct values (homogeneous, two_phase)
costs O(#levels) per evaluation, not O(d).

Bisection (after geometric bracket expansion from beta = 0) is used instead of
Newton: unconditional convergence matters more than speed.  One bisection
serves a whole vector of targets -- the adaptive ladder s = 1..s0 is one
call -- and steps each target's bracket exactly as a one-target solve would.
"""

from __future__ import annotations

import contextlib
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
    """No root found: no sign change within the bracket expansion cap, or a
    root closer to 0 than the smallest float, which no beta can represent."""


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


_BLOCK = 1 << 16  # elements (rows x levels) per kernel evaluation block


class PhiKernel:
    """log phi, log nu^2 and tail sums for one (loading, alpha), on the
    loading's distinct |eta| levels u_k with multiplicities c_k.

    Holds ``log_u``, ``neg_r = -u^-alpha`` formed in log space as
    ``-exp(-alpha log u)`` (-inf where it overflows) and ``a1 = log u + log c``;
    without ties ``a1`` is ``log_u`` itself, so an untied loading keeps two
    d-length arrays.  The level exponents are ``w_k = beta * neg_r_k``,
    exactly 0 at beta = 0, and every evaluation subtracts the dominant one,
    ``w_top``, exactly:

        log phi = w_top/2 + LSE(a1 + delta) - LSE(a1 + log u + delta)/2,
        delta_k = w_k - w_top <= 0,

    so the log-sum-exps stay finite and a log phi beyond the float range comes
    out as +-inf, never NaN.  Every method takes a vector of betas (rows) and
    evaluates them in blocks of about ``_BLOCK`` elements.
    """

    def __init__(self, loading: LoadingVector, alpha: float):
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        self.levels = loading.levels
        self.alpha = float(alpha)
        self.log_u = np.log(self.levels.values)
        with np.errstate(over="ignore"):
            self.neg_r = -np.exp(self.log_u * -self.alpha)
        self.a1 = self.log_u + np.log(self.levels.counts) if self.levels.tied else self.log_u
        # u^-alpha is largest at the last level
        self._r_inf = bool(np.isinf(self.neg_r[-1]))
        self._bounded = bool(self.neg_r[-1] >= -1.0)

    def _lse_pair(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w_top, [LSE(a1 + delta), LSE(a1 + log u + delta)]) for a block of rows."""
        x = np.empty((2, betas.size, self.neg_r.size))
        w = x[0]
        if self._r_inf and not betas.all():  # 0 * inf: rows at beta = 0 stay 0
            w[...] = 0.0
            np.multiply(betas[:, None], self.neg_r, out=w, where=betas[:, None] != 0.0)
        else:
            np.multiply(betas[:, None], self.neg_r, out=w)
        top = w.max(axis=1)
        if self._bounded or np.isfinite(top).all():
            w -= top[:, None]
        else:  # the log is w_top's infinity; a zero delta keeps the row finite
            finite = np.isfinite(top)
            w -= np.where(finite, top, 0.0)[:, None]
            w[~finite] = 0.0
        w += self.a1
        np.add(w, self.log_u, out=x[1])
        m = x.max(axis=2)
        x -= m[:, :, None]
        np.exp(x, out=x)
        return top, m + np.log(x.sum(axis=2))

    def _log_phi_block(self, betas: np.ndarray) -> np.ndarray:
        top, (lse1, lse2) = self._lse_pair(betas)
        return lse1 - 0.5 * (lse2 - top)

    def _log_energy_block(self, betas: np.ndarray) -> np.ndarray:
        top, (_lse1, lse2) = self._lse_pair(betas)
        return top + lse2

    def _rows(self, block, betas) -> np.ndarray:
        betas = np.asarray(betas, dtype=float)
        step = max(1, _BLOCK // self.neg_r.size)
        # exponents saturate to -+inf; with every |eta| >= 1 they cannot overflow
        with contextlib.nullcontext() if self._bounded else np.errstate(over="ignore"):
            if betas.size <= step:
                return block(betas)
            return np.concatenate([block(betas[i:i + step])
                                   for i in range(0, betas.size, step)])

    def log_phi(self, betas) -> np.ndarray:
        """log phi(beta) for each beta."""
        return self._rows(self._log_phi_block, betas)

    def log_energy(self, betas) -> np.ndarray:
        """log(sum_j eta_j^2 exp(-beta/|eta_j|^alpha)) for each beta: log(nu^2) at beta >= 0."""
        return self._rows(self._log_energy_block, betas)

    def tail_sum(self, lams, start: int) -> np.ndarray:
        """sum_{j >= start} exp(-(lam/|eta_j|)^alpha) over 0-based sorted
        positions j, for each lam >= 0; (lam/u)^alpha is formed in log space."""
        lv = self.levels
        k = lv.level_of(start)
        log_u = self.log_u[k:]
        counts = None
        if lv.tied:
            counts = lv.counts[k:].astype(float)
            counts[0] = lv.ends[k] - start  # the part of level k at or after start

        def block(lam: np.ndarray) -> np.ndarray:
            w = np.empty((lam.size, log_u.size))
            with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf; saturate to inf
                np.subtract(np.log(lam)[:, None], log_u, out=w)
                w *= self.alpha
                np.exp(w, out=w)
            np.negative(w, out=w)
            np.exp(w, out=w)
            if counts is not None:
                w *= counts
            return w.sum(axis=1)

        return self._rows(block, lams)


def log_phi_objective(loading: LoadingVector, alpha: float, beta: float) -> float:
    """log(phi(beta)); finite for every finite beta and valid loading unless
    the true value leaves the float range, which gives +-inf (never NaN)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return float(PhiKernel(loading, alpha).log_phi(np.array([beta]))[0])


def phi_objective(loading: LoadingVector, alpha: float, beta: float) -> float:
    """phi(beta) itself; overflows to inf only when the true value exceeds
    the float64 range (beta very negative with tiny loadings)."""
    lp = log_phi_objective(loading, alpha, beta)
    return math.exp(lp) if lp < 709.0 else math.inf


def _safe_expm1(g: float) -> float:
    # expm1 overflows for g > ~709; far from the root only the magnitude matters
    return math.expm1(g) if abs(g) < 700.0 else math.copysign(math.inf, g)


def _solve_decreasing(f, targets, tol: Tolerances, resid_rel_of,
                      rel_caps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of F(x) = t for a strictly decreasing F and a vector of targets t.

    ``f`` maps a vector of x to F(x).  Each target gets a geometric bracket
    expansion from 0, probing x = +-1, +-2, +-4, ... on its root's side, then
    bisection, exactly as if it were solved alone; every step evaluates the
    targets still active in one call to ``f`` (F(0) once for all, and at most
    two distinct x per expansion step).  ``resid_rel_of`` maps g = F(x) - t to
    the relative residual and ``rel_caps[i]`` is target i's stopping level.
    Returns (root, g(root), evaluations of g) per target.  A target that ends
    above its level costs one more, uncounted, evaluation at the smallest
    float on its root's side; a sign change there raises BracketError.
    """
    t = [float(x) for x in targets]
    n = len(t)
    f0 = float(f(np.zeros(1))[0])
    g = [f0 - ti for ti in t]           # g at the best probe so far
    root = [0.0] * n
    iters = [1] * n
    sign = [1.0 if gi > 0.0 else -1.0 for gi in g]
    g_near = g[:]  # g at the last probe without a sign change
    lo, hi, g_lo, g_hi = [0.0] * n, [0.0] * n, [0.0] * n, [0.0] * n

    rows = [i for i in range(n) if g[i] != 0.0]
    step = 1.0
    for _ in range(tol.max_doublings):
        if not rows:
            break
        dirs = sorted({sign[i] for i in rows})
        f_far = dict(zip(dirs, f(np.array(dirs) * step).tolist()))
        open_rows = []
        for i in rows:
            far = sign[i] * step
            g_far = f_far[sign[i]] - t[i]
            iters[i] += 1
            if sign[i] * g_far > 0.0:
                g_near[i] = g_far
                open_rows.append(i)
                continue
            near = sign[i] * 0.5 * step if step > 1.0 else 0.0
            if sign[i] > 0.0:
                lo[i], hi[i], g_lo[i], g_hi[i] = near, far, g_near[i], g_far
            else:
                lo[i], hi[i], g_lo[i], g_hi[i] = far, near, g_far, g_near[i]
        rows = open_rows
        step *= 2.0
    if rows:
        span = f"[0, {step}]" if sign[rows[0]] > 0.0 else f"[-{step}, 0]"
        raise BracketError(f"no sign change in {span} after {tol.max_doublings} doublings")

    # bisection; the expansion evaluated both bracket ends, start from the better
    active, mids = [], []
    for i in range(n):
        if g[i] == 0.0:
            continue
        root[i], g[i] = (hi[i], g_hi[i]) if abs(g_hi[i]) < abs(g_lo[i]) else (lo[i], g_lo[i])
        mid = 0.5 * (lo[i] + hi[i])
        if iters[i] < tol.max_iter and mid != lo[i] and mid != hi[i]:
            active.append(i)
            mids.append(mid)
    width = tol.width
    while active:
        f_mid = f(np.array(mids)).tolist()
        next_active, next_mids = [], []
        for i, mid, fm in zip(active, mids, f_mid):
            gm = fm - t[i]
            iters[i] += 1
            if abs(gm) < abs(g[i]):
                root[i], g[i] = mid, gm
            if abs(resid_rel_of(gm)) <= rel_caps[i]:
                continue
            if gm > 0.0:
                lo[i] = mid
            else:
                hi[i] = mid
            # width relative to the root scale, so tiny ill-conditioned roots
            # keep refining until the residual contract is met
            if hi[i] - lo[i] < width * max(abs(mid), width):
                continue
            mid = 0.5 * (lo[i] + hi[i])
            if iters[i] < tol.max_iter and mid != lo[i] and mid != hi[i]:
                next_active.append(i)
                next_mids.append(mid)
        active, mids = next_active, next_mids
    # A root strictly between 0 and the smallest float of its sign has no float
    # to stand for it: fail rather than return 0 with the residual unmet.
    unmet = [i for i in range(n) if abs(resid_rel_of(g[i])) > rel_caps[i]]
    if unmet:
        dirs = sorted({sign[i] for i in unmet})
        f_tiny = dict(zip(dirs, f(np.array(dirs) * math.ulp(0.0)).tolist()))
        for i in unmet:
            if sign[i] * (f_tiny[sign[i]] - t[i]) < 0.0:  # sign change inside
                span = "(0, 5e-324)" if sign[i] > 0.0 else "(-5e-324, 0)"
                raise BracketError(f"root in {span}, below float resolution; best x = "
                                   f"{root[i]!r} leaves relative residual "
                                   f"{resid_rel_of(g[i]):.3g}")
    return np.array(root), np.array(g), np.array(iters)


def _solve_phi(kernel: PhiKernel, targets, tol: Tolerances | None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(beta, g(beta), iterations) solving phi(beta) = target for every
    positive target in one batched bisection, with g = log phi - log target."""
    tol = tol or Tolerances()
    return _solve_decreasing(kernel.log_phi, [math.log(x) for x in targets], tol,
                             _safe_expm1, [tol.rel + tol.abs / x for x in targets])


def _threshold_solution(equation: str, alpha: float, target: float, beta: float, g: float,
                        iters: int) -> ThresholdSolution:
    """One root of ``_solve_phi`` as a ThresholdSolution."""
    return ThresholdSolution(equation, target, beta, max(beta, 0.0) ** (1.0 / alpha),
                             _safe_expm1(g) * target, int(iters))


def solve_beta(loading: LoadingVector, alpha: float, target: float,
               tol: Tolerances | None = None, equation: str = "oracle") -> ThresholdSolution:
    """Solve phi(beta) = target by bracket expansion from 0 plus bisection."""
    if target <= 0 or not math.isfinite(target):
        raise ValueError("target must be positive and finite")
    beta, g, iters = _solve_phi(PhiKernel(loading, alpha), [target], tol)
    return _threshold_solution(equation, alpha, float(target), float(beta[0]), float(g[0]),
                               int(iters[0]))


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
    kernel = PhiKernel(loading, alpha)

    # g(0) = d - s^2 + 1 - s >= 0, so the expansion always runs upward
    lam, g, iters = _solve_decreasing(lambda x: kernel.tail_sum(x, s * s - 1), [s], tol,
                                      lambda v: v / s, [tol.rel + tol.abs / s])
    lam_ = float(lam[0])
    return ThresholdSolution("asym", float(s), lam_, lam_, float(g[0]), int(iters[0]))
