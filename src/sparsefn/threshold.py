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

Two kinds of kernel row need no maximum computed before their sum: every
tail row, and every phi row of an untied loading at beta >= 0, whose levels
are sorted, so that the maxima the row subtracts are its first level's.  Each
such row walks numpy's pairwise-sum tree down to leaves of at most ``_LEAF``
levels (``_walk``), running every pass on each leaf in one leaf-sized buffer,
so the row's sum is numpy's bit for bit and no row holds a buffer of its own
length.  Every row runs in the caller's thread, on any CPU count.

Every kernel row takes one exponential per level.  A phi row exponentiates
only the first log-sum-exp's terms e_k and reads the second from the sum of
e_k u_k, unless its scalars put that sum out of range (``PhiKernel``).  A
tail row is log T = -B + log sum_k c_k exp(B q_k), in the log domain with
rates q_k <= 0 scaled to the tail's first level (``_log_tail``).
"""

from __future__ import annotations

import contextlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial

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


_BLOCK = 1 << 16  # elements (rows x levels) per kernel evaluation block
# A walked row runs its pass chain on leaves of at most _LEAF levels, in one
# leaf-sized buffer (d = 2.5e5: 2^16 levels beat 2^14).
_LEAF = 1 << 16
_NO_ROWS = np.empty(0, dtype=np.intp)


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


def _tree_sum(lo: int, n: int, leaf):
    """The sum of levels lo..lo+n-1 as numpy's pairwise sum of n > 128
    elements forms it: split at ``n//2 - (n//2) % 8`` down to leaves of at
    most ``_LEAF`` levels, ``leaf(lo, hi)`` the sum of each, added back up
    the same tree.  So the sum is numpy's bit for bit."""
    if n <= _LEAF:
        return leaf(lo, lo + n)
    h = n // 2 - (n // 2) % 8
    return _tree_sum(lo, h, leaf) + _tree_sum(lo + h, n - h, leaf)


def _walk(n: int, shape: tuple[int, ...], leaf):
    """The sum over n > 0 levels of ``leaf(buf, lo, hi)``, the sums over
    levels lo..hi-1 of a block of ``shape`` rows, added up numpy's pairwise
    tree (``_tree_sum``), so bit for bit numpy's sum of the whole row.  Each
    leaf writes into ``buf``, a leaf-sized buffer that this call allocates
    for the row, so no row holds a buffer of its own length, and rows that
    threads evaluate at once write into buffers of their own."""
    buf = np.empty((*shape, min(n, _LEAF)))
    return _tree_sum(0, n, partial(leaf, buf))


class PhiKernel:
    """log phi and log nu^2 for one (loading, alpha), on the loading's
    distinct |eta| levels u_0 > u_1 > ... with multiplicities c_k.

    Reads nothing of the loading but its ``levels``, so a homogeneous or
    two_phase kernel costs O(levels) at any d.  Each array it holds over the
    levels is built on first use: ``neg_r = -u^-alpha``, formed in log space
    as ``-exp(-alpha log u)`` (-inf where it overflows); the exponent gap
    ``gap = log u - log u_0``; and on a tied kernel ``a1 = gap + log c``.  So
    an untied kernel holds two arrays of its levels' length, a tied one
    three.  The level exponents are ``w_k = beta * neg_r_k``, exactly 0
    at beta = 0, and every evaluation subtracts the dominant one, ``w_top``,
    exactly:

        log phi = w_top/2 + LSE(log u + log c + delta)
                  - LSE(2 log u + log c + delta)/2,
        delta_k = w_k - w_top <= 0,

    so the log-sum-exps stay finite and a log phi beyond the float range comes
    out as +-inf, never NaN.  Every method takes a vector of betas (rows) and
    evaluates them in blocks of about ``_BLOCK`` elements.

    A row takes one exponential per level: with y_k = delta_k + gap_k
    + log c_k (log c = 0 untied) and its maximum m1,

        e_k = exp(y_k - m1),  LSE1 = (m1 + log u_0) + log sum e_k,
        LSE2 = (m1 + log u_0) + log sum e_k u_k,

    since the second term's level is the first's times u_k.  With m2 =
    max(y + gap), the second sum's largest term is e_j u_j = exp(m2 - m1 +
    log u_0), and its factor e_j >= exp(m2 - m1), as gap <= 0.  A row where
    either lies below e^-600, so that the sum's largest terms could lose bits
    below the normal range, or the term above e^700 / levels, so that the sum
    could overflow, exponentiates its second term too: LSE2 = (m2 + 2 log u_0)
    + log sum exp(y_k + gap_k - m2).  m2 - m1 lies in [gap_last, 0], so on a
    kernel whose levels span at most 599 nats, with log u_last >= -599 and
    log u_0 <= 700 - log levels (``_narrow``, checked once per kernel), no
    row needs that check or m2.  (Scaling u_k by c = exp(m1 - m2 - log u_0)
    instead would need a clamp where u_k c overflows, and there e_k is
    subnormal: a clamped product could lose a term of order 1.)

    One pass over the levels gives both log phi and log nu^2, a row.  ``rows``
    evaluates rows without a lookup, for the batched solves, which share
    their own repeated probes.  ``_probe`` reads them through a memo of every
    row it has evaluated, for one-target solves, ``log_phi`` and
    ``log_energy``: the one-target solves on one kernel share their expansion
    probes, and a repeated target costs no evaluation.

    Each row of a block with every beta in [0, inf) on a kernel whose maxima
    are known (``_falls``) walks its levels (``_walk``): on an untied kernel
    whose ``gap`` and ``neg_r`` fall as floats (checked once per kernel),
    ``w_top`` and both maxima are the first level's (m1 = m2 = 0), known
    before the walk starts.  So a walked row is bit for bit the row that one
    buffer of its length gives, which is the path of tied kernels and of
    blocks holding a beta < 0: they compute their maxima first.  No row
    writes into memory another row can see, so threads may share a kernel.
    """

    def __init__(self, loading: LoadingVector, alpha: float):
        self.alpha = _check_alpha(alpha)
        self.levels = loading.levels
        # u^-alpha is largest at the last level
        neg_r_last = self._neg_r(self.levels.values[-1:])[0]
        self._r_inf = bool(np.isinf(neg_r_last))
        self._bounded = bool(neg_r_last >= -1.0)
        self._memo: dict[float, list[float]] = {}  # beta -> [log phi, log nu^2]

    def _neg_r(self, u: np.ndarray) -> np.ndarray:
        x = np.log(u)
        x *= -self.alpha
        with np.errstate(over="ignore"):
            np.exp(x, out=x)
        return np.negative(x, out=x)

    @cached_property
    def neg_r(self) -> np.ndarray:
        """-u^-alpha per level, built on the first row."""
        return self._neg_r(self.levels.values)

    @cached_property
    def gap(self) -> tuple[float, np.ndarray]:
        """(log u_0, log u - log u_0 per level)."""
        gap = np.log(self.levels.values)
        log_top = float(gap[0])
        gap -= log_top
        return log_top, gap

    @cached_property
    def a1(self) -> np.ndarray:
        """gap + log c per level of a tied kernel."""
        return self.gap[1] + np.log(self.levels.counts)

    @cached_property
    def _narrow(self) -> bool:
        """Whether no phi row's second sum can leave its range: m2 - m1 lies
        in [gap_last, 0] (rounded by far less than a nat), and the bounds
        hold at both ends."""
        log_top, gap = self.gap
        return (float(gap[-1]) >= -599.0 - min(log_top, 0.0)
                and 700.0 - math.log(gap.size) - log_top >= 0.0)

    @cached_property
    def _falls(self) -> bool:
        """Whether the maxima of a phi row at betas in [0, inf) are its first
        level's: on an untied kernel whose ``gap`` and ``neg_r`` fall with
        the level as floats."""
        return not self.levels.tied and all(bool((v[:-1] >= v[1:]).all())
                                            for v in (self.gap[1], self.neg_r))

    def _exponents(self, betas: np.ndarray, lo: int, hi: int, x: np.ndarray) -> None:
        """x[0] = w over levels lo..hi-1 for a block of rows."""
        w, neg_r = x[0], self.neg_r[lo:hi]
        if self._r_inf and not betas.all():  # 0 * inf: rows at beta = 0 stay 0
            w[...] = 0.0
            np.multiply(betas[:, None], neg_r, out=w, where=betas[:, None] != 0.0)
        else:
            np.multiply(betas[:, None], neg_r, out=w)

    def _first_terms(self, top: np.ndarray, a1: np.ndarray, w: np.ndarray) -> None:
        """w = a1 + delta in place, from w = w over the levels of a1."""
        if self._bounded or np.isfinite(top).all():
            w -= top[:, None]
        else:  # the log is w_top's infinity; a zero delta keeps the row finite
            finite = np.isfinite(top)
            w -= np.where(finite, top, 0.0)[:, None]
            w[~finite] = 0.0
        w += a1

    def _lse_pair(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w_top, [LSE1, LSE2]) for a block of rows.  Where the maxima are
        the first level's (``_falls``, every beta in [0, inf)), the row walks
        leaves (``_walk``); otherwise it computes its maxima in one buffer of
        the row's length."""
        lv = self.levels
        n = lv.values.size
        falls = self._falls and bool(((betas >= 0.0) & (betas < math.inf)).all())
        k = 1 if falls else n  # the levels that hold the maxima
        log_top, gap = self.gap
        a1 = self.a1 if lv.tied else gap
        x = np.empty((2, betas.size, k))
        self._exponents(betas, 0, k, x)
        top = reduce_last(np.maximum, x[0])
        self._first_terms(top, a1[:k], x[0])
        m1 = reduce_last(np.maximum, x[0])
        slow = _NO_ROWS
        if not self._narrow:  # rows whose second sum leaves its range
            np.add(x[0], gap[:k], out=x[1])
            m2 = reduce_last(np.maximum, x[1])
            lower = m2 - m1
            slow = np.flatnonzero(~((lower >= -600.0 - min(log_top, 0.0))
                                    & (lower <= 700.0 - math.log(n) - log_top)))

        def sums(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
            """[sum e_k, sum e_k u_k] over levels lo..hi-1, from x[0] = y; a
            slow row's second sum is of exp(y + gap - m2)."""
            y, second = x
            if slow.size:
                term = y[slow] + gap[lo:hi]
                term -= m2[slow, None]
                np.exp(term, out=term)
            if not falls:  # a walked row's m1 is 0
                y -= m1[:, None]
            np.exp(y, out=y)
            np.multiply(y, lv.values[lo:hi], out=second)
            if slow.size:
                second[slow] = term
            return reduce_last(np.add, x)

        if falls:
            def leaf(buf: np.ndarray, lo: int, hi: int) -> np.ndarray:
                x = buf[:, :, :hi - lo]
                self._exponents(betas, lo, hi, x)
                self._first_terms(top, a1[lo:hi], x[0])
                return sums(x, lo, hi)

            total = _walk(n, x.shape[:2], leaf)
        else:
            total = sums(x, 0, n)
        offset = m1 + log_top
        if slow.size:
            offset = np.stack([offset, offset])
            offset[1, slow] = m2[slow] + 2.0 * log_top
        return top, offset + np.log(total)

    def _probe_block(self, betas: np.ndarray) -> np.ndarray:
        """Rows of (log phi, log nu^2) for a block of betas."""
        top, (lse1, lse2) = self._lse_pair(betas)
        return np.stack([lse1 - 0.5 * (lse2 - top), top + lse2], axis=1)

    def rows(self, betas) -> np.ndarray:
        """Rows of (log phi, log nu^2), one per beta, evaluated without a memo
        lookup."""
        betas = np.asarray(betas, dtype=float)
        step = max(1, _BLOCK // self.levels.values.size)
        # exponents saturate to -+inf; with every |eta| >= 1 they cannot overflow
        with contextlib.nullcontext() if self._bounded else np.errstate(over="ignore"):
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
    exp(-(lam/|eta_j|)^alpha).  With u_top the tail's first level, rates
    q_k = -expm1(alpha (log u_top - log u_k)) <= 0 formed here once, counts
    c_k that cut level 0 to its part at or after ``start``, and B =
    (lam/u_top)^alpha formed in log space per row,

        log T = -B + log sum_k c_k exp(B q_k),

    whose sum holds c_0 >= 1: T never underflows to 0, and a row is -inf only
    at B = inf.  A rate past 709 nats would overflow, so the tail splits into
    segments where alpha log u passes 709 nats of the segment's first level,
    each scaled to that level, and a row is the logaddexp of its segments'.
    A row walks each segment (``_walk``) in three passes per level (B q_k,
    its exponential, the sum; one more for counts): numpy's pairwise sum bit
    for bit, and no buffer of the tail's length."""
    k = levels.level_of(start)
    q = np.log(levels.values[k:])
    log_top = float(q[0])
    q -= log_top
    q *= -alpha  # alpha (log u_top - log u_k), rising from 0
    firsts = [0]
    while (f := int(np.searchsorted(q, q[firsts[-1]] + 709.0, side="right"))) < q.size:
        firsts.append(f)
    shifts, segments = q[firsts], list(zip(firsts, firsts[1:] + [q.size]))
    for (f, e), shift in zip(segments, shifts):
        x = q[f:e]
        np.negative(np.expm1(np.subtract(x, shift, out=x), out=x), out=x)
    counts = None if levels.counts is None else levels.counts[k:].astype(float)
    if counts is not None:
        counts[0] = levels.ends[k] - start

    def rows(lams) -> np.ndarray:
        lam = np.asarray(lams, dtype=float)
        out = np.empty((len(segments), lam.size))
        # log 0 = -inf, and B and B q_k saturate to +-inf
        with np.errstate(divide="ignore", over="ignore"):
            b = np.exp((np.log(lam) - log_top) * alpha + shifts[:, None])
            for j, (f, e) in enumerate(segments):
                bj = np.minimum(b[j], sys.float_info.max)  # B = inf: -B, not NaN, is the row
                def leaf(buf: np.ndarray, lo: int, hi: int, f=f, bj=bj) -> np.ndarray:
                    w = buf[:, :hi - lo]
                    np.exp(np.multiply(bj[:, None], q[f + lo:f + hi], out=w), out=w)
                    if counts is not None:
                        w *= counts[f + lo:f + hi]
                    return reduce_last(np.add, w)

                out[j] = np.log(_walk(e - f, lam.shape, leaf)) - b[j]
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
