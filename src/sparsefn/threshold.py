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
routine: geometric bracket expansion from 0 (probes 1, 2, 4, ... of either
sign for phi; for the tail sum from the power of two nearest the tail's own
scale, ``solve_lambda_H``), then Chandrupatla's
method (Adv. Eng. Software 28(3), 1997) inside the bracket.  Each step is an
inverse quadratic interpolation when the last three points show it to be
safe and a bisection step otherwise, so the root stays bracketed and
converges superlinearly, in about a third of bisection's evaluations; no
derivative is needed.  One solve serves a whole vector of targets -- the
adaptive ladder s = 1..s0 is one call.  A one-target solve (every
``solve_beta`` and ``solve_lambda_H``) steps on plain floats in Python; a
solve of two or more targets keeps every bracket in float64 arrays and takes
all active targets' steps in one pass of numpy operations, the same float
operations in the same order as the Python step, so every target gets the
probes, root, residual and evaluation count of its one-target solve.  Both
loops evaluate through one function from probes to rows whose first column
is the objective, and return with each root the row at its best probe, so a
phi root carries log nu^2, which the rates read.  A one-target phi solve
reads its rows through the kernel's memo; a batch shares its expansion
probes among the targets and evaluates each distinct probe once as a plain
kernel row.

A root far below a bracket end at 0 (a steep tail, where the objective is
flat between the probes and interpolation is refused) would cost one halving
per factor 2.  So when a halving toward 0 stays on the same side of the root
and fails to halve |g| (the objective is flat there), the next bisection
step is the exponent step: the geometric mean of the nonzero end and the
smallest normal float, which bisects the exponent, so that any representable
root is some 10 steps away.  A solve stops when its residual is met, when no
float lies inside its bracket, or at ``max_iter`` evaluations; a residual
still unmet then raises BracketError.

Every kernel row is scaled to the first level of its 709-nat segment, in
rates p_k = expm1(alpha (log u_f - log u_k)) >= 0 (``_scaled_rates``): a phi
row at beta >= 0 and every tail row take one multiply and one exponential per
level, exp(t p_k) <= 1 with t <= 0 the segment's first exponent, and sum
them leaf by leaf with einsum, never a BLAS dot (``_leaf_sums``), so no row
needs a maximum, holds a buffer of its length, or depends on the CPU count.
A phi row at beta < 0 computes its maxima first (``PhiKernel``).  A tail row
is log T = -B + log sum_k c_k exp(-B p_k), in the log domain with B scaled to
the tail's first level (``_log_tail``).  Every row runs in the caller's
thread.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .loading import LoadingVector, check_value

__all__ = [
    "Tolerances",
    "TOLERANCES",
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

    ``rel`` bounds the achieved relative objective residual, which is the
    meaningful contract (beta enters rates only through the objective).
    ``width`` only keeps interpolation steps off the bracket ends: every
    interpolated point keeps at least ``width * |x|`` from both ends (x the
    end with the smaller residual), and a bracket narrower than twice that
    takes its midpoint.  It never stops a solve: that is the residual test,
    the end of the floats strictly inside the bracket, or ``max_iter``.
    """

    rel: float = 1e-10
    width: float = 1e-12
    max_iter: int = 200
    max_doublings: int = 120


TOLERANCES = Tolerances()  # the stopping rules of every solve


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
        return abs(self.residual) <= tol.rel * self.target

    def to_dict(self) -> dict:
        return {
            "equation": self.equation,
            "target": self.target,
            "beta": self.beta,
            "lambda": self.lambda_,
            "residual": self.residual,
            "iterations": self.iterations,
        }


# elements (rows x levels) per kernel evaluation block, and per leaf buffer of
# a row's sums: no row longer than this holds a buffer of its length
_BLOCK = 1 << 16
_RUN = 128  # levels per partial sum of a row: numpy's pairwise block
_FMAX = sys.float_info.max


def reduce_last(ufunc: np.ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=-1)`` for np.add or np.maximum.  numpy reduces a
    last axis shorter than 8 element by element; one pass per column is the
    same float operations in the same order (a sum from 0.0, as numpy's
    starts), so the result is bit for bit numpy's, at a fraction of the cost
    on many short rows."""
    k = a.shape[-1]
    if not 0 < k < 8:
        return ufunc.reduce(a, axis=-1)
    out = a[..., 0] + 0.0 if ufunc is np.add else a[..., 0].copy()
    for j in range(1, k):
        ufunc(out, a[..., j], out=out)
    return out


def _scaled_rates(values: np.ndarray, alpha: float):
    """(p, segments, shifts) for decreasing levels u: with x_k = alpha (log
    u_0 - log u_k), rising from 0, the levels split into segments (first,
    end) wherever x passes 709 nats of the segment's first level's x_f
    (``shifts``), and the rates p_k = expm1(x_k - x_f) >= 0, so that
    u_k^-alpha = u_f^-alpha (1 + p_k) and no rate overflows."""
    p = np.log(values)
    p -= float(p[0])
    p *= -alpha
    firsts = [0]
    while (f := int(np.searchsorted(p, p[firsts[-1]] + 709.0, side="right"))) < p.size:
        firsts.append(f)
    shifts, segments = p[firsts], list(zip(firsts, firsts[1:] + [p.size]))
    for (f, e), shift in zip(segments, shifts):
        x = p[f:e]
        if f:  # the first segment's shift is 0
            x -= shift
        np.expm1(x, out=x)
    return p, segments, shifts


def _leaf_sums(t: np.ndarray, p: np.ndarray, w1: np.ndarray | None,
               w2: np.ndarray | None = None) -> np.ndarray:
    """Per row t, with E_k = exp(t p_k): [sum_k w1_k E_k] and, where ``w2`` is
    given, [sum_k w1_k E_k, sum_k w1_k w2_k E_k]; w1 = 1 where None.

    Per level, one multiply, one exponential and a multiply by w1, leaf by
    leaf in one buffer of at most ``_BLOCK`` elements.  Each run of ``_RUN``
    levels is summed alone, the second sum by ``np.einsum`` against w2
    (never a BLAS dot, whose bits can depend on the thread count), and
    numpy's pairwise sum adds up the runs' sums: einsum alone adds a long row
    in a few running sums, up to some 60 eps off at 2^16 levels, the runs
    some 2 eps.  So a row's bits depend neither on the other rows of its
    block nor on the leaves.  Fewer than 8 levels take one pass each over
    the block's rows, numpy's order for so few."""
    r, n = t.size, p.size
    if n < 8:
        e = np.exp(np.multiply.outer(p, t))
        if w1 is None:
            return reduce_last(np.add, e.T)[None]
        w = w1[:, None] if w2 is None else np.stack([w1, w1 * w2], axis=1)
        sums = w[0, :, None] * e[0]
        for i in range(1, n):
            sums += w[i, :, None] * e[i]
        return sums
    leaf = max(_BLOCK // r // _RUN, 1) * _RUN
    buf = np.empty(r * min(n, leaf))
    runs = np.empty((1 if w2 is None else 2, r, -(-n // _RUN)))  # the rest's sums last
    for lo in range(0, n, leaf):
        hi = min(lo + leaf, n)
        e = buf[:r * (hi - lo)].reshape(r, hi - lo)
        np.exp(np.multiply(t[:, None], p[lo:hi], out=e), out=e)
        if w1 is not None:
            e *= w1[lo:hi]
        m = (hi - lo) // _RUN  # whole runs from lo, a shorter rest from mid
        mid = lo + m * _RUN
        if m:
            x = e[:, :mid - lo].reshape(r, m, _RUN)
            out = runs[:, :, lo // _RUN:lo // _RUN + m]
            x.sum(axis=-1, out=out[0])
            if w2 is not None:
                np.einsum("rmi,mi->rm", x, w2[lo:mid].reshape(m, _RUN), out=out[1])
        if hi > mid:
            x = e[:, mid - lo:]
            runs[0, :, -1] = x.sum(axis=-1)
            if w2 is not None:
                runs[1, :, -1] = (x * w2[mid:hi]).sum(axis=-1)
    return runs[..., 0] if runs.shape[-1] == 1 else runs.sum(axis=-1)


class PhiKernel:
    """log phi and log nu^2 for one (loading, alpha), on the loading's
    distinct |eta| levels u_0 > u_1 > ... with multiplicities c_k.

    Reads nothing of the loading but its ``levels``, so a homogeneous or
    two_phase kernel costs O(levels) at any d.  On first use it splits the
    levels into 709-nat segments and forms, per level, the rate p_k >= 0
    scaled to its segment's first level u_f (``_scaled_rates``) and rho_k =
    u_k/u_f <= 1: two arrays of the levels' length, and a third on a tied
    kernel, c_k rho_k.  With t = -beta u_f^-alpha, one multiply by a factor
    formed once per segment, the exponent of level k is -beta u_k^-alpha =
    t + t p_k, so a segment's two sums are

        sum_k c_k u_k exp(-beta u_k^-alpha) = u_f e^t S1,  S1 = sum_k c_k rho_k E_k,
        sum_k c_k u_k^2 exp(-beta u_k^-alpha) = u_f^2 e^t S2,  S2 = sum_k c_k rho_k^2 E_k,

    with E_k = exp(t p_k).  Every later segment starts more than 709 nats
    lower, where t_j - t_0 rounds to t_j, so the segments combine by
    ``logaddexp`` relative to the first one's t_0 = w_top, the exponent of
    the top level, which each row adds back exactly:

        log phi = LSE1 - (LSE2 - w_top)/2,  log nu^2 = LSE2 + w_top.

    A row at beta >= 0 takes one multiply and one exponential per level, a
    multiply by c_k rho_k, then a pairwise sum and an einsum against rho
    (``_leaf_sums``), with t clamped to the float range.  There E_k <= 1 and
    each S >= c_f >= 1, so the row needs no maxima and is finite for any
    finite loading unless w_top itself overflows, where both columns are
    -inf.  A row at beta < 0, whose top
    level is the last, computes its maxima first and takes two exponentials
    in one buffer of its length (``_rows_down``).  Each row takes its path
    by its own sign, and a block holding both signs is split, so a row's
    bits depend on its beta alone.  Every method takes a vector of betas
    (rows) and evaluates them in blocks of about ``_BLOCK`` elements.

    One pass over the levels gives both log phi and log nu^2, a row.  ``rows``
    evaluates rows without a lookup, for the batched solves, which share
    their own repeated probes.  ``_probe`` reads them through a memo of every
    row it has evaluated, for one-target solves, ``log_phi`` and
    ``log_energy``: the one-target solves on one kernel share their expansion
    probes, and a repeated target costs no evaluation.
    """

    def __init__(self, loading: LoadingVector, alpha: float):
        self.alpha = _check_alpha(alpha)
        self.levels = loading.levels
        self._memo: dict[float, list[float]] = {}  # beta -> [log phi, log nu^2]

    @cached_property
    def _terms(self):
        """(p, c rho, rho, segments, offsets, factors): per segment j,
        offsets[j] = [[log u_f], [2 log u_f]], and factors whose product is
        -u_f^-alpha: -exp(-alpha log u_f) (inf past the floats), or, where
        that is below the normal floats and would lose the bits that t p_k
        scales up, [-g, g, g] with g = exp(-alpha log u_f / 3).  Where g is
        too, every u^-alpha of the segment is below e^-1416: t may be 0."""
        u, counts = self.levels.values, self.levels.counts
        p, segments, _shifts = _scaled_rates(u, self.alpha)
        log_uf = np.log(u[[first for first, _ in segments]])
        a = log_uf * -self.alpha
        with np.errstate(over="ignore"):
            factors = [-np.exp(a)[:, None]]
        fine = -factors[0] < sys.float_info.min
        if fine.any():
            g = np.exp(a / 3.0)[:, None]
            factors = [np.where(fine, -g, factors[0]), *[np.where(fine, g, 1.0)] * 2]
        rho = np.empty(u.size)
        for first, end in segments:
            np.divide(u[first:end], u[first], out=rho[first:end])
        w1 = rho if counts is None else rho * counts
        return p, w1, rho, segments, np.multiply.outer(log_uf, [[1.0], [2.0]]), factors

    @cached_property
    def _down_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(-u^-alpha, log u, log u + log c) per level, built on the first
        row at beta < 0."""
        log_u = np.log(self.levels.values)
        with np.errstate(over="ignore"):
            neg_r = -np.exp(log_u * -self.alpha)
        counts = self.levels.counts
        return neg_r, log_u, log_u if counts is None else log_u + np.log(counts)

    def _tops(self, betas: np.ndarray) -> np.ndarray:
        """t_j = -beta u_f^-alpha per segment (rows), 0 at beta = 0."""
        first, *rest = self._terms[5]
        t = np.zeros((first.size, betas.size))
        np.multiply(first, betas, out=t, where=betas != 0.0)
        for c in rest:
            t *= c
        return t

    def _rows_up(self, t: np.ndarray) -> np.ndarray:
        """[LSE1, LSE2] relative to w_top = t_0 for rows at beta >= 0, from
        their t."""
        p, w1, rho, segments, offsets, _ = self._terms
        for j, (f, e) in enumerate(segments):
            s = np.log(_leaf_sums(np.maximum(t[j], -_FMAX), p[f:e], w1[f:e], rho[f:e]))
            s += offsets[j]
            lse = np.logaddexp(lse, s + t[j]) if j else s
        return lse

    def _rows_down(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w_top, [LSE1, LSE2] relative to it) for rows at beta < 0, whose
        top level is the last: the exponents w_k = -beta u_k^-alpha, their
        maximum w_top, then both log-sum-exps in one buffer of the row's
        length.  A row whose w_top passes the float range keeps a zero
        delta, so that both columns come out +inf."""
        neg_r, log_u, a1 = self._down_terms
        n, r = neg_r.size, betas.size
        # level-major on fewer than 8 levels: reduce_last passes contiguous columns
        x = np.empty((2, n, r)).transpose(0, 2, 1) if n < 8 else np.empty((2, r, n))
        np.multiply(betas[:, None], neg_r, out=x[0])
        top = reduce_last(np.maximum, x[0])
        over = np.isposinf(top)
        x[0] -= np.where(over, 0.0, top)[:, None]
        if over.any():
            x[0, over] = 0.0
        x[0] += a1
        np.add(x[0], log_u, out=x[1])
        m = reduce_last(np.maximum, x)
        x -= m[:, :, None]
        np.exp(x, out=x)
        return top, m + np.log(reduce_last(np.add, x))

    def _probe_block(self, betas: np.ndarray) -> np.ndarray:
        """Rows of (log phi, log nu^2) for a block of betas, each by the path
        of its sign."""
        up = betas >= 0.0
        if up.all():
            t = self._tops(betas)
            top, lse = t[0], self._rows_up(t)
        elif not up.any():
            top, lse = self._rows_down(betas)
        else:
            top, lse, down = np.empty(betas.size), np.empty((2, betas.size)), ~up
            t = self._tops(betas[up])
            top[up], lse[:, up] = t[0], self._rows_up(t)
            top[down], lse[:, down] = self._rows_down(betas[down])
        lse[0] -= 0.5 * (lse[1] - top)
        lse[1] += top
        return lse.T

    def rows(self, betas) -> np.ndarray:
        """Rows of (log phi, log nu^2), one per beta, evaluated without a memo
        lookup."""
        betas = np.asarray(betas, dtype=float)
        step = max(1, _BLOCK // self.levels.values.size)
        # exponents saturate to -+inf
        with np.errstate(over="ignore"):
            if betas.size <= step:
                return self._probe_block(betas)
            return np.concatenate([self._probe_block(betas[i:i + step])
                                   for i in range(0, betas.size, step)])

    def _probe(self, betas) -> np.ndarray:
        """``rows`` through the memo: only betas not seen before are evaluated."""
        keys = np.asarray(betas, dtype=float).tolist()
        memo = self._memo
        new = [b for b in dict.fromkeys(keys) if b not in memo]
        if new:
            memo.update(zip(new, self.rows(new).tolist()))
        return np.array([memo[b] for b in keys]).reshape(-1, 2)

    def log_phi(self, betas) -> np.ndarray:
        """log phi(beta) for each beta."""
        return self._probe(betas)[:, 0]

    def log_energy(self, betas) -> np.ndarray:
        """log(sum_j eta_j^2 exp(-beta/|eta_j|^alpha)) for each beta: log(nu^2) at beta >= 0."""
        return self._probe(betas)[:, 1]


def log_phi_objective(loading: LoadingVector, alpha: float, beta: float) -> float:
    """log(phi(beta)); finite for every finite beta and valid loading unless
    the true value leaves the float range, which gives +-inf (never NaN)."""
    if not math.isfinite(beta):
        raise ValueError("beta must be finite")
    return float(PhiKernel(loading, alpha).log_phi(np.array([beta]))[0])


def phi_objective(loading: LoadingVector, alpha: float, beta: float) -> float:
    """phi(beta) itself; overflows to inf only when the true value exceeds
    the float64 range (beta very negative with tiny loadings)."""
    lp = log_phi_objective(loading, alpha, beta)
    try:
        return math.exp(lp)
    except OverflowError:
        return math.inf


def _safe_expm1(g: float) -> float:
    # expm1 overflows for g > ~709; far from the root only the magnitude matters
    return math.expm1(g) if abs(g) < 700.0 else math.copysign(math.inf, g)


def _chandrupatla_x(x1: float, f1: float, x2: float, f2: float, x3: float | None,
                    f3: float, width: float, stalled: bool = False) -> float | None:
    """Next probe strictly inside the bracket between x1 (the newest point)
    and x2, across which g changes sign; x3 is the point the bracket dropped
    last (None before the first step).  ``stalled`` says that the last step
    halved the bracket toward an end at 0 without crossing the root or
    halving |g|.

    Chandrupatla's step: inverse quadratic interpolation through the three
    points where it is monotone on the bracket, kept at least
    ``width * |x_best|`` from both ends, x_best being the end with the smaller
    |g|, or its midpoint when the bracket is narrower than twice that; a
    bisection step otherwise.  The step is an offset from x_best, where
    the root lies nearest, so a root next to an end at 0 keeps its relative
    precision.  A bisection step between same-sign ends more than a factor 4
    apart takes their geometric mean: a root 170 decades below the larger end
    is then some 10 steps away, not 570.  A bisection step after a stalled
    halving is the exponent step (see the module docstring).  None once no
    float lies strictly inside the bracket.
    """
    (xb, fb), (xo, fo) = ((x1, f1), (x2, f2)) if abs(f1) < abs(f2) else ((x2, f2), (x1, f1))
    span = xo - xb
    tl = min(width * abs(xb) / abs(span), 0.5)
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
        if stalled or (min(xb, xo) > 0.0 or max(xb, xo) < 0.0) and not 0.25 < xb / xo < 4.0:
            a, b = (x1, sys.float_info.min) if stalled else (xb, xo)
            x = math.copysign(math.sqrt(abs(a)) * math.sqrt(abs(b)), a)
            if min(xb, xo) < x < max(xb, xo):
                return x
    for step in (t, 0.5):  # a step that rounds onto an end falls back to the midpoint
        x = xb + step * span
        if x != xb and x != xo:
            return x
    return None


def _chandrupatla_xs(x1, f1, x2, f2, x3, f3, width: float, stalled=None) -> np.ndarray:
    """``_chandrupatla_x`` on arrays of brackets, NaN where it returns None;
    ``x3``, ``f3`` and ``stalled`` are None before the first step.  Every
    bracket goes through the same float operations in the same order, so it
    gets exactly the probe its one-target step would."""
    best1 = np.abs(f1) < np.abs(f2)
    xb, fb, xo, fo = np.where(best1, (x1, f1, x2, f2), (x2, f2, x1, f1))
    span = xo - xb
    tl = np.minimum(width * np.abs(xb) / np.abs(span), 0.5)
    x = half = xb + 0.5 * span
    bisect = np.ones(xb.shape, dtype=bool)
    if stalled is None:
        stalled = ~bisect
    if x3 is not None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            ph = (f1 - f2) / (f3 - f2)
            iqi = (ph * ph < xi) & ((1.0 - ph) * (1.0 - ph) < 1.0 - xi)
            t = (fb / (fo - fb) * f3 / (fo - f3)
                 + (x3 - xb) / span * fb / (f3 - fb) * fo / (f3 - fo))
            # min(1 - tl, max(tl, t)) as Python takes it, a NaN t giving tl
            t = np.where(t > tl, t, tl)
            t = np.where(t < 1.0 - tl, t, 1.0 - tl)
        x = np.where(iqi, xb + t * span, half)
        bisect = ~iqi
    on_end = (x == xb) | (x == xo)
    if on_end.any():  # a step that rounds onto an end falls back to the midpoint
        x = np.where(on_end, half, x)
        x[(x == xb) | (x == xo)] = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = xb / xo
    far = (np.sign(xb) * np.sign(xo) > 0.0) & ~((0.25 < ratio) & (ratio < 4.0))
    geo = bisect & (stalled | far)
    if geo.any():  # the geometric mean of the ends, or of x1 and the smallest normal
        a, b = np.where(stalled, x1, xb), np.where(stalled, sys.float_info.min, xo)
        mean = np.copysign(np.sqrt(np.abs(a)) * np.sqrt(np.abs(b)), a)
        geo &= (np.minimum(xb, xo) < mean) & (mean < np.maximum(xb, xo))
        x = np.where(geo, mean, x)
    return x


def _no_sign_change(sign: float, step: float) -> BracketError:
    span = f"[0, {step}]" if sign > 0.0 else f"[-{step}, 0]"
    return BracketError(f"no sign change in {span} after {TOLERANCES.max_doublings} doublings")


def _unmet(rows_of, target: float, sign: float, root: float, g: float, iters: int,
           resid_rel_of) -> BracketError:
    """The error of a target whose best probe misses its level; a root
    strictly between 0 and the smallest float of its sign has no float to
    stand for it."""
    if sign * (float(rows_of(np.array([sign * math.ulp(0.0)]))[0, 0]) - target) < 0.0:
        why = f"root in {'(0, 5e-324)' if sign > 0.0 else '(-5e-324, 0)'}, " \
              "below float resolution"
    else:
        why = f"residual unmet after {iters} evaluations"
    return BracketError(f"{why}; best x = {root!r} leaves relative residual "
                        f"{resid_rel_of(g):.3g}")


def _solve_decreasing(rows_of, t: np.ndarray, row0: np.ndarray, resid_rel_of,
                      start: float = 1.0):
    """The root of F(x) = t for a strictly decreasing F and one target t (a
    one-element array), on plain floats.

    ``rows_of`` maps a vector of x to rows whose column 0 is F(x), and ``row0``
    is its row at x = 0.  After F(0), a geometric bracket expansion from 0
    probes x = +-start, +-2 start, +-4 start, ... on the root's side, then
    Chandrupatla steps (``_chandrupatla_x``) inside the bracket take one
    ``rows_of`` call each.
    ``resid_rel_of`` maps g = F(x) - t to the relative residual, and the solve
    stops once that is within ``TOLERANCES.rel``.  Returns (root, g(root),
    evaluations of g, the row at the root) as one-element arrays and a one-row
    array, the root being the probe with the smallest |g|.  A target that
    ends above its level raises BracketError, after one more, uncounted,
    evaluation at the smallest float on its root's side tells a root below
    float resolution from a solve that ran out of steps.

    A batch of targets is ``_solve_arrays``: the same arguments at start 1,
    and for each target exactly this solve's probes, root and evaluations.
    """
    tol = TOLERANCES
    t = float(t[0])
    g = float(row0[0]) - t              # g at the best probe so far
    if g == 0.0:
        return np.zeros(1), np.array([g]), np.ones(1, dtype=int), row0[None]
    sign = 1.0 if g > 0.0 else -1.0
    # the bracket: x1 the newest probe, x2 the other end, x3 the end dropped last
    x2, f2, row2, step = 0.0, g, row0, start
    for iters in range(2, tol.max_doublings + 2):  # evaluations, F(0) included
        x1 = sign * step
        row1 = rows_of(np.array([x1]))[0]
        f1 = float(row1[0]) - t
        if not sign * f1 > 0.0:
            break
        x2, f2, row2, step = x1, f1, row1, 2.0 * step  # no sign change yet: the near end
    else:
        raise _no_sign_change(sign, step)

    # the expansion evaluated both bracket ends; start from the better
    root, g, at = (x1, f1, row1) if abs(f1) < abs(f2) else (x2, f2, row2)
    x = _chandrupatla_x(x1, f1, x2, f2, None, 0.0, tol.width)
    stalled = False  # the last step halved toward 0, crossing neither the root nor |g|/2
    while iters < tol.max_iter and x is not None:
        row = rows_of(np.array([x]))[0]
        gx = float(row[0]) - t
        iters += 1
        if abs(gx) < abs(g):
            root, g, at = x, gx, row
        if abs(resid_rel_of(gx)) <= tol.rel:
            break
        if (gx > 0.0) == (f1 > 0.0):  # x replaces the newest end
            stalled = x2 == 0.0 and x == 0.5 * x1 and abs(gx) > 0.5 * abs(f1)
            x3, f3 = x1, f1
        else:                         # x replaces the other end
            stalled = False
            x3, f3 = x2, f2
            x2, f2 = x1, f1
        x1, f1 = x, gx
        x = _chandrupatla_x(x1, f1, x2, f2, x3, f3, tol.width, stalled)
    if abs(resid_rel_of(g)) > tol.rel:
        raise _unmet(rows_of, t, sign, root, g, iters, resid_rel_of)
    return np.array([root]), np.array([g]), np.array([iters]), at[None]


def _meets_band(resid_rel_of, rel: float) -> tuple[float, float]:
    """(lo, hi) with lo <= g <= hi exactly where abs(resid_rel_of(g)) <= rel,
    for a resid_rel_of that is 0 at 0 and increasing: each end is bisected
    down to adjacent floats, so that testing an array of g against the band
    decides as the scalar test does on each.  (numpy's expm1 may differ from
    math.expm1 in the last bit.)"""
    ends = []
    for side in (-rel, rel):
        a, b = 0.0, side  # resid_rel_of meets rel at a and misses it at b
        while abs(resid_rel_of(b)) <= rel:
            a, b = b, 2.0 * b
        while (m := a + 0.5 * (b - a)) != a and m != b:
            a, b = (m, b) if abs(resid_rel_of(m)) <= rel else (a, m)
        ends.append(a)
    return ends[0], ends[1]


def _solve_arrays(rows_of, t: np.ndarray, row0: np.ndarray, resid_rel_of):
    """``_solve_decreasing`` for a vector of targets t, every target's state in
    float64 arrays: each target gets the probes, root, g and evaluation count
    of its one-target solve.

    It takes and returns what ``_solve_decreasing`` does, one entry per
    target.  The expansion probes +-1, +-2, +-4, ... are shared: one
    ``rows_of`` call per doubling, on each side of 0 until the side's farthest
    root is bracketed, and each target's bracket ends at its first probe with
    a sign change.  Every later round takes all active targets' Chandrupatla
    steps in one pass of numpy operations (``_chandrupatla_xs``) and evaluates
    the distinct steps in one ``rows_of`` call.
    """
    tol = TOLERANCES
    lo, hi = _meets_band(resid_rel_of, tol.rel)
    g = row0[0] - t                     # g at the best probe so far
    act = np.flatnonzero(g != 0.0)
    root = np.zeros(t.size)
    iters = np.ones(t.size, dtype=int)
    at = np.tile(row0, (t.size, 1))     # the row at the best probe so far

    # a side doubles until its farthest target (the smallest t above 0, the
    # largest below) sees a sign change: every nearer one has seen it by then
    sides = []
    for sign in (-1.0, 1.0):
        on = np.flatnonzero(sign * g > 0.0)
        if on.size:
            sides.append((sign, on, t[on].min() if sign > 0.0 else t[on].max(), [row0]))
    expanding, step = sides, 1.0
    for _ in range(tol.max_doublings):
        if not expanding:
            break
        rows = rows_of(np.array([side[0] for side in expanding]) * step)
        for side, row in zip(expanding, rows):
            side[3].append(row)
        expanding = [side for side, row in zip(expanding, rows)
                     if side[0] * (row[0] - side[2]) > 0.0]
        step *= 2.0
    brackets = []
    for sign, on, _far, probed in sides:
        rows = np.array(probed)         # at x = 0, sign, 2 sign, 4 sign, ...
        f = rows[:, :1] - t[on]         # g at each probe (row) for each target (column)
        brackets.append((sign, on, rows, f, ~(sign * f[1:] > 0.0)))
    if expanding:  # the first target still without a sign change names the error
        i = np.concatenate([on[~change.any(axis=0)] for _, on, _, _, change in brackets]).min()
        raise _no_sign_change(1.0 if g[i] > 0.0 else -1.0, step)

    # rows x1 f1 x2 f2: x1 the probe with the sign change, x2 the other end;
    # the expansion evaluated both, so each target starts from the better
    br = np.empty((4, t.size))
    for sign, on, rows, f, change in brackets:
        k = change.argmax(axis=0) + 1   # the first probe with a sign change
        cols = np.arange(on.size)
        x = np.concatenate([[0.0], np.ldexp(sign, np.arange(rows.shape[0] - 1))])
        f1, f2 = f[k, cols], f[k - 1, cols]
        near = np.where(np.abs(f1) < np.abs(f2), k, k - 1)
        root[on], g[on], at[on] = x[near], f[near, cols], rows[near]
        br[:, on] = x[k], f1, x[k - 1], f2
        iters[on] = k + 1
    br = br[:, act]
    x = _chandrupatla_xs(*br, None, None, tol.width)
    keep = ~np.isnan(x) & (iters[act] < tol.max_iter)
    while True:
        act, x, br = act[keep], x[keep], br.compress(keep, axis=1)
        if not act.size:
            break
        # targets that share a step are neighbours (a ladder's roots are
        # monotone in its targets): each run of equal steps takes one row
        first = np.empty(x.size, dtype=bool)
        first[0] = True
        np.not_equal(x[1:], x[:-1], out=first[1:])
        rows = rows_of(x[first])[np.cumsum(first) - 1]
        gx = rows[:, 0] - t[act]
        iters[act] += 1
        better = np.abs(gx) < np.abs(g[act])
        i = act[better]
        root[i], g[i], at[i] = x[better], gx[better], rows[better]
        # rows x1 f1 x2 f2 x3 f3: x3 the end the bracket dropped last
        same = (gx > 0.0) == (br[1] > 0.0)  # x replaces the newest end
        stalled = (same & (br[2] == 0.0) & (x == 0.5 * br[0])
                   & (np.abs(gx) > 0.5 * np.abs(br[1])))  # as in _solve_decreasing
        nxt = np.empty((6, act.size))
        nxt[0], nxt[1] = x, gx
        nxt[2:4] = np.where(same, br[2:4], br[:2])
        nxt[4:] = np.where(same, br[:2], br[2:4])
        br = nxt
        x = _chandrupatla_xs(*br, tol.width, stalled)
        keep = ((gx < lo) | (gx > hi)) & ~np.isnan(x) & (iters[act] < tol.max_iter)
    unmet = np.flatnonzero((g < lo) | (g > hi))
    if unmet.size:
        i = unmet[0]
        sign = 1.0 if row0[0] - t[i] > 0.0 else -1.0
        raise _unmet(rows_of, float(t[i]), sign, float(root[i]), float(g[i]), int(iters[i]),
                     resid_rel_of)
    return root, g, iters, at


def _solve_phi(kernel: PhiKernel, targets):
    """(beta, g(beta), iterations, log nu^2 at max(beta, 0)) per positive
    target, solving phi(beta) = target with g = log phi - log target.

    One target steps in Python on the kernel's memo (``_solve_decreasing``),
    two or more on arrays on plain kernel rows (``_solve_arrays``): an array
    round costs some 100 numpy calls whatever the number of targets, and a
    lone target took about 500 us on arrays, 60 us in Python (2 vCPUs).  The
    row at 0, read once through the memo, gives log nu^2 for a root at or
    below 0.
    """
    log_t = np.array([math.log(x) for x in np.asarray(targets, dtype=float).tolist()])
    row0 = kernel._probe(np.zeros(1))[0]
    solve, rows_of = ((_solve_decreasing, kernel._probe) if log_t.size == 1
                      else (_solve_arrays, kernel.rows))
    beta, g, iters, at = solve(rows_of, log_t, row0, _safe_expm1)
    return beta, g, iters, np.where(beta > 0.0, at[:, 1], row0[1])


def _threshold_solution(equation: str, alpha: float, target: float, beta: float, g: float,
                        iters: int) -> ThresholdSolution:
    """One root of ``_solve_phi`` as a ThresholdSolution."""
    return ThresholdSolution(equation, target, beta, max(beta, 0.0) ** (1.0 / alpha),
                             _safe_expm1(g) * target, int(iters))


def solve_beta(loading: LoadingVector, alpha: float, target: float,
               equation: str = "oracle") -> ThresholdSolution:
    """Solve phi(beta) = target by bracket expansion from 0 plus Chandrupatla steps."""
    if target <= 0 or not math.isfinite(target):
        raise ValueError("target must be positive and finite")
    beta, g, iters, _log_nu2 = _solve_phi(PhiKernel(loading, alpha), [target])
    return _threshold_solution(equation, alpha, float(target), float(beta[0]), float(g[0]),
                               int(iters[0]))


def adaptive_target(s: int) -> float:
    """Right-hand side of the adaptive threshold equation, s / (2 sqrt(log(es)))."""
    return s / (2.0 * math.sqrt(1.0 + math.log(s)))


def solve_adaptive_beta(loading: LoadingVector, alpha: float, s: int) -> ThresholdSolution:
    """Adaptive-family threshold: the oracle equation at target s/(2 sqrt(log(es)))."""
    s = check_value(int, s, "s")
    if not 1 <= s <= loading.d:
        raise ValueError(f"s must be in [1, {loading.d}]")
    return solve_beta(loading, alpha, adaptive_target(s), equation="adaptive")


def _log_tail(levels, alpha: float, start: int):
    """The asym equation's rows: lams >= 0 -> rows whose one column is log
    T(lam), T(lam) = sum over 0-based sorted positions j >= start of
    exp(-(lam/|eta_j|)^alpha).  With u_top the tail's first level, counts
    c_k that cut level 0 to its part at or after ``start``, and B =
    (lam/u_top)^alpha formed in log space per row,

        log T = -B + log sum_k c_k exp(-B p_k),

    with the rates p_k >= 0 of ``_scaled_rates``, formed here once, and a
    logaddexp over their 709-nat segments, each scaled to its first level.
    The sum holds c_0 >= 1: T never underflows to 0, and a row is -inf only
    at B = inf.  Each segment sums leaf by leaf (``_leaf_sums``), its terms
    times the counts when tied."""
    k = levels.level_of(start)
    u = levels.values[k:]
    p, segments, shifts = _scaled_rates(u, alpha)
    log_top = math.log(u[0])
    counts = None if levels.counts is None else levels.counts[k:].astype(float)
    if counts is not None:
        counts[0] = levels.ends[k] - start

    def rows(lams) -> np.ndarray:
        lam = np.asarray(lams, dtype=float)
        out = np.empty((len(segments), lam.size))
        # log 0 = -inf, and B and B p_k saturate to inf
        with np.errstate(divide="ignore", over="ignore"):
            b = np.exp((np.log(lam) - log_top) * alpha + shifts[:, None])
            for j, (f, e) in enumerate(segments):
                # B = inf: -B, not NaN, is the row
                sums = _leaf_sums(np.negative(np.minimum(b[j], _FMAX)), p[f:e],
                                  None if counts is None else counts[f:e])
                out[j] = np.log(sums[0]) - b[j]
        return np.logaddexp.reduce(out)[:, None]

    return rows


def _check_alpha(alpha) -> float:
    if not (alpha := check_value(float, alpha, "alpha")) > 0.0:
        raise ValueError("alpha must be positive and finite")
    return alpha


def solve_lambda_H(loading: LoadingVector, alpha: float, s: int) -> ThresholdSolution:
    """Solve sum_{j >= s^2} exp(-(lambda/|eta_j|)^alpha) = s for lambda >= 0.

    The sum runs literally over j = s^2, ..., d (n = d - s^2 + 1 terms), which
    requires s^2 + s <= d + 1 for a nonnegative root to exist.  g = log T -
    log s on the rows of ``_log_tail``, so T - s = expm1(g) s, held to 1e-10 s.
    The expansion starts at the tail's own scale: the power of two nearest
    u_m max(1, log(n/s))^(1/alpha) among the normal floats, u_m the level at
    sorted position min(s^2 + s - 1, d - 1)."""
    s = check_value(int, s, "s")
    d = loading.d
    if s < 1:
        raise ValueError("s must be >= 1")
    if s * s + s > d + 1:
        raise ValueError(f"existence requires s^2 + s <= d + 1 (s={s}, d={d})")
    alpha = _check_alpha(alpha)
    levels, n = loading.levels, d - s * s + 1
    u_m = float(levels.values[levels.level_of(min(s * s + s - 1, d - 1))])
    scale = round(math.log2(u_m) + math.log2(max(1.0, math.log(n / s))) / alpha)
    # g(0) = log n - log s >= 0, so the expansion always runs upward
    lam, g, iters, _row = _solve_decreasing(
        _log_tail(levels, alpha, s * s - 1), np.array([math.log(s)]),
        np.array([math.log(n)]), _safe_expm1, math.ldexp(1.0, min(max(scale, -1022), 1023)))
    lam_ = float(lam[0])
    return ThresholdSolution("asym", float(s), lam_, lam_, _safe_expm1(float(g[0])) * s,
                             int(iters[0]))
