"""Implicit threshold equations and their bracketed monotone solver.

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

Every equation (oracle, adaptive and the asym tail sum) is solved by one
routine: geometric bracket expansion from beta = 0, then Chandrupatla's
method (Adv. Eng. Software 28(3), 1997) inside the bracket.  Each step is an
inverse quadratic interpolation when the last three points show it to be
safe and a bisection step otherwise, so the root stays bracketed and
converges superlinearly, in about a third of bisection's evaluations; no
derivative is needed.  One solve serves a whole vector of targets -- the
adaptive ladder s = 1..s0 is one call -- and steps each target's bracket
exactly as a one-target solve would.
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
    ``width`` is a purely relative x tolerance: every new point keeps at
    least ``width * |x|`` from both bracket ends (x the end with the smaller
    residual), and a solve stops once the bracket is narrower than twice
    that.  With the iteration cap and the end of the floats strictly inside
    the bracket it is a backstop for ill-conditioned loadings where the
    residual target sits below float resolution; having no absolute floor,
    it never stops a root near 0 before the residual is met.
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

    One pass over the levels gives both log phi and log nu^2, and the kernel
    remembers both for every beta it has evaluated: the solves on one kernel
    share their expansion probes, a repeated target costs no evaluation, and
    nu^2 at a root the solver probed is already known.
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
        self._memo: dict[float, list[float]] = {}  # beta -> [log phi, log nu^2]

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

    def _probe_block(self, betas: np.ndarray) -> np.ndarray:
        """Rows of (log phi, log nu^2) for a block of betas."""
        top, (lse1, lse2) = self._lse_pair(betas)
        return np.stack([lse1 - 0.5 * (lse2 - top), top + lse2], axis=1)

    def _rows(self, block, betas) -> np.ndarray:
        betas = np.asarray(betas, dtype=float)
        step = max(1, _BLOCK // self.neg_r.size)
        # exponents saturate to -+inf; with every |eta| >= 1 they cannot overflow
        with contextlib.nullcontext() if self._bounded else np.errstate(over="ignore"):
            if betas.size <= step:
                return block(betas)
            return np.concatenate([block(betas[i:i + step])
                                   for i in range(0, betas.size, step)])

    def _probe(self, betas) -> list[list[float]]:
        """[log phi, log nu^2] for each beta; only betas not seen before are evaluated."""
        keys = np.asarray(betas, dtype=float).tolist()
        memo = self._memo
        new = [b for b in dict.fromkeys(keys) if b not in memo]
        if new:
            memo.update(zip(new, self._rows(self._probe_block, new).tolist()))
        return [memo[b] for b in keys]

    def log_phi(self, betas) -> np.ndarray:
        """log phi(beta) for each beta."""
        return np.array([p[0] for p in self._probe(betas)])

    def log_energy(self, betas) -> np.ndarray:
        """log(sum_j eta_j^2 exp(-beta/|eta_j|^alpha)) for each beta: log(nu^2) at beta >= 0."""
        return np.array([p[1] for p in self._probe(betas)])

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


def _chandrupatla_x(x1: float, f1: float, x2: float, f2: float, x3: float | None,
                    f3: float, width: float) -> float | None:
    """Next probe strictly inside the bracket between x1 (the newest point)
    and x2, across which g changes sign; x3 is the point the bracket dropped
    last (None before the first step).

    Chandrupatla's step: inverse quadratic interpolation through the three
    points where it is monotone on the bracket, kept at least
    ``width * |x_best|`` from both ends, x_best being the end with the smaller
    |g|; a bisection step otherwise.  The step is an offset from x_best, where
    the root lies nearest, so a root next to an end at 0 keeps its relative
    precision.  A bisection step between same-sign ends more than a factor 4
    apart takes their geometric mean: a root 170 decades below the larger end
    is then some 10 steps away, not 570.  None once the bracket is narrower
    than twice ``width * |x_best|``, or no float lies strictly inside it.
    """
    (xb, fb), (xo, fo) = ((x1, f1), (x2, f2)) if abs(f1) < abs(f2) else ((x2, f2), (x1, f1))
    span = xo - xb
    tl = width * abs(xb) / abs(span)
    if tl > 0.5:
        return None
    t = None
    if x3 is not None:
        xi = (x1 - x2) / (x3 - x2)
        ph = (f1 - f2) / (f3 - f2)
        if ph * ph < xi and (1.0 - ph) * (1.0 - ph) < 1.0 - xi:
            t = (fb / (fo - fb) * f3 / (fo - f3)
                 + (x3 - xb) / span * fb / (f3 - fb) * fo / (f3 - fo))
            t = min(1.0 - tl, max(tl, t))
    if t is None:
        t = 0.5
        if (min(xb, xo) > 0.0 or max(xb, xo) < 0.0) and not 0.25 < xb / xo < 4.0:
            x = math.copysign(math.sqrt(abs(xb)) * math.sqrt(abs(xo)), xb)
            if x != xb and x != xo:
                return x
    for step in (t, 0.5):  # a step that rounds onto an end falls back to the midpoint
        x = xb + step * span
        if x != xb and x != xo:
            return x
    return None


def _solve_decreasing(f, targets, tol: Tolerances, resid_rel_of,
                      rel_caps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of F(x) = t for a strictly decreasing F and a vector of targets t.

    ``f`` maps a vector of x to F(x).  Each target gets a geometric bracket
    expansion from 0, probing x = +-1, +-2, +-4, ... on its root's side, then
    Chandrupatla steps (``_chandrupatla_x``) inside the bracket, exactly as if
    it were solved alone; every step evaluates the targets still active in one
    call to ``f`` (F(0) once for all, and at most two distinct x per expansion
    step).  ``resid_rel_of`` maps g = F(x) - t to the relative residual and
    ``rel_caps[i]`` is target i's stopping level.  Returns (root, g(root),
    evaluations of g) per target, the root being the probe with the smallest
    |g|.  A target that ends above its level costs one more, uncounted,
    evaluation at the smallest float on its root's side; a sign change there
    raises BracketError.
    """
    t = [float(x) for x in targets]
    n = len(t)
    f0 = float(f(np.zeros(1))[0])
    g = [f0 - ti for ti in t]           # g at the best probe so far
    root = [0.0] * n
    iters = [1] * n
    sign = [1.0 if gi > 0.0 else -1.0 for gi in g]
    # the bracket: x1 the newest probe, x2 the other end, x3 the end dropped last
    x1, f1, x2, f2 = [0.0] * n, [0.0] * n, [0.0] * n, g[:]
    x3: list[float | None] = [None] * n
    f3 = [0.0] * n

    rows = [i for i in range(n) if g[i] != 0.0]
    step = 1.0
    for _ in range(tol.max_doublings):
        if not rows:
            break
        dirs = sorted({sign[i] for i in rows})
        f_far = dict(zip(dirs, f(np.array(dirs) * step).tolist()))
        open_rows = []
        for i in rows:
            x1[i], f1[i] = sign[i] * step, f_far[sign[i]] - t[i]
            iters[i] += 1
            if sign[i] * f1[i] > 0.0:  # no sign change yet: the probe is the near end
                x2[i], f2[i] = x1[i], f1[i]
                open_rows.append(i)
        rows = open_rows
        step *= 2.0
    if rows:
        span = f"[0, {step}]" if sign[rows[0]] > 0.0 else f"[-{step}, 0]"
        raise BracketError(f"no sign change in {span} after {tol.max_doublings} doublings")

    # the expansion evaluated both bracket ends; start from the better
    active, xs = [], []
    for i in range(n):
        if g[i] == 0.0:
            continue
        root[i], g[i] = (x1[i], f1[i]) if abs(f1[i]) < abs(f2[i]) else (x2[i], f2[i])
        x = _chandrupatla_x(x1[i], f1[i], x2[i], f2[i], None, 0.0, tol.width)
        if iters[i] < tol.max_iter and x is not None:
            active.append(i)
            xs.append(x)
    while active:
        f_x = f(np.array(xs)).tolist()
        next_active, next_xs = [], []
        for i, x, fx in zip(active, xs, f_x):
            gx = fx - t[i]
            iters[i] += 1
            if abs(gx) < abs(g[i]):
                root[i], g[i] = x, gx
            if abs(resid_rel_of(gx)) <= rel_caps[i]:
                continue
            if (gx > 0.0) == (f1[i] > 0.0):  # x replaces the newest end
                x3[i], f3[i] = x1[i], f1[i]
            else:                            # x replaces the other end
                x3[i], f3[i] = x2[i], f2[i]
                x2[i], f2[i] = x1[i], f1[i]
            x1[i], f1[i] = x, gx
            x = _chandrupatla_x(x1[i], f1[i], x2[i], f2[i], x3[i], f3[i], tol.width)
            if iters[i] < tol.max_iter and x is not None:
                next_active.append(i)
                next_xs.append(x)
        active, xs = next_active, next_xs
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
    positive target in one batched solve, with g = log phi - log target."""
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
    """Solve phi(beta) = target by bracket expansion from 0 plus Chandrupatla steps."""
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
