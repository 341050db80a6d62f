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
per factor 2.  So when a halving toward 0 stays on the same side of the root,
the next bisection step is the exponent step: the geometric mean of the
nonzero end and the smallest normal float, which bisects the exponent, so
that any representable root is some 10 steps away.  A solve stops when its
residual is met, when no float lies inside its bracket, or at ``max_iter``
evaluations; a residual still unmet then raises BracketError.

An untied loading of ``_SPLIT`` levels or more costs a full kernel row per
probe, so on two CPUs or more each row runs in two halves at once, the
caller's thread taking the lower half and one helper thread the upper
(``_sum_halves``).  The halves meet at the point where numpy's pairwise sum
splits the row, so the row's sum is the sum of the halves' sums bit for
bit.  The levels are sorted, so at beta >= 0 the maxima a phi row subtracts
are its first level's, known before the split: no half waits for the other,
and every output is the one-thread output.  Each half walks the pairwise
sum's tree down to leaves of at most ``_LEAF`` levels (``_tree_sum``) in a
leaf-sized buffer that the calling thread allocates for the row, so no row
holds a buffer of its own length, and threads may share a kernel.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .loading import LoadingVector

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
# Levels (> 128) from which an untied kernel row runs in two halves.  On 2
# vCPUs, exp_decay (BENCH_16.json "cutoff", medians of 3 runs), a split row
# takes this share of its one-thread time: at 2^15 levels 1.5-1.7 (phi row)
# and 1.7-2.0 (tail row), at 2^16 0.90-0.98 and 1.29-1.39, at 2^17 0.60-0.64
# and 0.77-0.87, at 2^18 0.47-0.60 and 0.53-0.99.  Below 2^16 a block of
# several rows takes 0.8-1.2 (phi) and 1.1-1.7 (tail) of it.
_SPLIT = 1 << 17
# Each half of a split row runs its pass chain on leaves of at most _LEAF
# levels, in one leaf-sized buffer per half (d = 2.5e5: 2^16 levels beat 2^14).
_LEAF = 1 << 16
_helper: tuple[int, object] | None = None  # (pid, the executor of upper halves)


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tree_sum(lo: int, n: int, leaf):
    """The sum of levels lo..lo+n-1 as numpy's pairwise sum of n > 128
    elements forms it: split at ``n//2 - (n//2) % 8`` down to leaves of at
    most ``_LEAF`` levels, ``leaf(lo, hi)`` the sum of each, added back up
    the same tree.  So the sum is numpy's bit for bit."""
    if n <= _LEAF:
        return leaf(lo, lo + n)
    h = n // 2 - (n // 2) % 8
    return _tree_sum(lo, h, leaf) + _tree_sum(lo + h, n - h, leaf)


def _sum_halves(n: int, half):
    """half(0, h) + half(h, n): the lower half of n levels in this thread and
    the upper half at the same time in the helper thread, which the first
    call makes.  The upper half runs in a copy of the caller's context, so
    under its numpy errstate.  h is the point where numpy's pairwise sum of
    n > 128 elements splits them, so a sum over the levels equals the sum of
    the two halves' sums bit for bit.

    An idle helper can take milliseconds to wake, longer than a half takes
    (2 vCPUs: median 0.2 ms, 90th percentile 1.4-2 ms), so an upper half
    that the helper has not started when the lower one is done runs in this
    thread instead, rather than wait for the helper.  The cancelled job stays
    in the helper's queue until the helper wakes, so it reaches ``half``, and
    the buffer ``half`` writes into, only through a list emptied here."""
    global _helper
    if _helper is None or _helper[0] != os.getpid():  # a forked child has no helper thread
        from concurrent.futures import ThreadPoolExecutor
        _helper = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="sparsefn-half"))
    h = n // 2 - (n // 2) % 8
    job = [half]
    upper = _helper[1].submit(contextvars.copy_context().run, lambda: job[0](h, n))
    try:
        lower = half(0, h)
    finally:  # a started upper half writes into the caller's buffer: wait for it
        here = upper.cancel()
        if not here:
            higher = upper.result()
        job.clear()
    return lower + (half(h, n) if here else higher)


class PhiKernel:
    """log phi, log nu^2 and tail sums for one (loading, alpha), on the
    loading's distinct |eta| levels u_k with multiplicities c_k.

    Reads nothing of the loading but its ``levels``, so a homogeneous or
    two_phase kernel costs O(levels) at any d.  Holds ``log_u``,
    ``a1 = log u + log c`` and, from the first phi evaluation on,
    ``neg_r = -u^-alpha`` formed in log space as ``-exp(-alpha log u)`` (-inf
    where it overflows); a tail sum (the asym solve) reads only ``log_u``.
    Without ties ``a1`` is ``log_u`` itself, so an untied loading keeps two
    d-length arrays.  The level exponents are ``w_k = beta * neg_r_k``,
    exactly 0 at beta = 0, and every evaluation subtracts the dominant one,
    ``w_top``, exactly:

        log phi = w_top/2 + LSE(a1 + delta) - LSE(a1 + log u + delta)/2,
        delta_k = w_k - w_top <= 0,

    so the log-sum-exps stay finite and a log phi beyond the float range comes
    out as +-inf, never NaN.  Every method takes a vector of betas (rows) and
    evaluates them in blocks of about ``_BLOCK`` elements.

    One pass over the levels gives both log phi and log nu^2, a row.  ``rows``
    evaluates rows without a lookup, for the batched solves, which share
    their own repeated probes.  ``_probe`` reads them through a memo of every
    row it has evaluated, for one-target solves, ``log_phi`` and
    ``log_energy``: the one-target solves on one kernel share their expansion
    probes, and a repeated target costs no evaluation.

    An untied kernel of at least ``_SPLIT`` levels, in a process that may run
    on two CPUs or more, evaluates each tail-sum row, and each phi row of a
    block with every beta in [0, inf), in two halves at once
    (``_sum_halves``).  Each half runs the whole chain of passes on each leaf
    of its levels (``_tree_sum``), in a leaf-sized buffer that the calling
    thread allocates for the row, and the row's sum is the sum of the
    halves' sums.  The levels fall, and so,
    when ``log_u`` and ``neg_r`` fall as floats too (checked once per
    kernel), do the exponents at beta >= 0 and both LSE terms: ``w_top`` and
    both LSE maxima are the first level's, known before either half starts.
    So no half waits for the other, and every row is bit for bit the
    one-thread row.  No row writes into memory another row can see, so
    threads may share a kernel.
    """

    def __init__(self, loading: LoadingVector, alpha: float):
        if not 0.0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        self.levels = loading.levels
        self.alpha = float(alpha)
        self.log_u = np.log(self.levels.values)
        self.a1 = self.log_u + np.log(self.levels.counts) if self.levels.tied else self.log_u
        # u^-alpha is largest at the last level
        neg_r_last = self._neg_r(self.log_u[-1:])[0]
        self._r_inf = bool(np.isinf(neg_r_last))
        self._bounded = bool(neg_r_last >= -1.0)
        self._memo: dict[float, list[float]] = {}  # beta -> [log phi, log nu^2]

    def _neg_r(self, log_u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return -np.exp(log_u * -self.alpha)

    @cached_property
    def neg_r(self) -> np.ndarray:
        """-u^-alpha per level, built on the first phi evaluation (a tail
        sum reads only ``log_u``)."""
        return self._neg_r(self.log_u)

    @cached_property
    def _splits(self) -> bool:
        """Whether rows of ``_SPLIT`` levels or more run in two halves: on an
        untied kernel, in a process that may run on two CPUs or more."""
        return not self.levels.tied and self.log_u.size >= _SPLIT and _cpus() > 1

    @cached_property
    def _split_phi(self) -> bool:
        """Whether phi rows at betas >= 0 run in two halves: where rows split,
        if ``log_u`` and ``neg_r`` fall with the level as floats."""
        return self._splits and all(bool((v[:-1] >= v[1:]).all())
                                    for v in (self.log_u, self.neg_r))

    def _exponents(self, betas: np.ndarray, lo: int, hi: int, x: np.ndarray) -> None:
        """x[0] = w over levels lo..hi-1 for a block of rows."""
        w, neg_r = x[0], self.neg_r[lo:hi]
        if self._r_inf and not betas.all():  # 0 * inf: rows at beta = 0 stay 0
            w[...] = 0.0
            np.multiply(betas[:, None], neg_r, out=w, where=betas[:, None] != 0.0)
        else:
            np.multiply(betas[:, None], neg_r, out=w)

    def _lse_terms(self, top: np.ndarray, lo: int, hi: int, x: np.ndarray) -> None:
        """x[0] = a1 + delta and x[1] = a1 + log u + delta over levels lo..hi-1,
        from x[0] = w."""
        w = x[0]
        if self._bounded or np.isfinite(top).all():
            w -= top[:, None]
        else:  # the log is w_top's infinity; a zero delta keeps the row finite
            finite = np.isfinite(top)
            w -= np.where(finite, top, 0.0)[:, None]
            w[~finite] = 0.0
        w += self.a1[lo:hi]
        np.add(w, self.log_u[lo:hi], out=x[1])

    def _lse_pair(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w_top, [LSE(a1 + delta), LSE(a1 + log u + delta)]) for a block of rows."""
        n = self.log_u.size
        if self._split_phi and ((betas >= 0.0) & (betas < math.inf)).all():
            return self._lse_pair_halves(betas)
        x = np.empty((2, betas.size, n))
        self._exponents(betas, 0, n, x)
        top = reduce_last(np.maximum, x[0])
        self._lse_terms(top, 0, n, x)
        m = reduce_last(np.maximum, x)
        x -= m[:, :, None]
        np.exp(x, out=x)
        return top, m + np.log(reduce_last(np.add, x))

    def _lse_pair_halves(self, betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``_lse_pair`` of rows at betas >= 0 in two halves: every term
        falls with the level, so the maxima are the first level's."""
        first = np.empty((2, betas.size, 1))
        self._exponents(betas, 0, 1, first)
        top = first[0, :, 0].copy()
        self._lse_terms(top, 0, 1, first)
        m = first[:, :, 0]
        leaves = np.empty((2, 2, betas.size, _LEAF))  # the helper's arena would keep it

        def half(lo: int, hi: int) -> np.ndarray:
            buf = leaves[int(lo > 0)]

            def leaf(a: int, b: int) -> np.ndarray:
                x = buf[:, :, :b - a]
                self._exponents(betas, a, b, x)
                self._lse_terms(top, a, b, x)
                x -= m[:, :, None]
                np.exp(x, out=x)
                return x.sum(axis=2)

            return _tree_sum(lo, hi - lo, leaf)

        return top, m + np.log(_sum_halves(self.log_u.size, half))

    def _probe_block(self, betas: np.ndarray) -> np.ndarray:
        """Rows of (log phi, log nu^2) for a block of betas."""
        top, (lse1, lse2) = self._lse_pair(betas)
        return np.stack([lse1 - 0.5 * (lse2 - top), top + lse2], axis=1)

    def _rows(self, block, betas) -> np.ndarray:
        betas = np.asarray(betas, dtype=float)
        step = max(1, _BLOCK // self.log_u.size)
        # exponents saturate to -+inf; with every |eta| >= 1 they cannot overflow
        with contextlib.nullcontext() if self._bounded else np.errstate(over="ignore"):
            if betas.size <= step:
                return block(betas)
            return np.concatenate([block(betas[i:i + step])
                                   for i in range(0, betas.size, step)])

    def rows(self, betas) -> np.ndarray:
        """Rows of (log phi, log nu^2), one per beta, evaluated without a memo
        lookup."""
        return self._rows(self._probe_block, betas)

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

        def terms(lam: np.ndarray, w: np.ndarray, lo: int, hi: int) -> np.ndarray:
            w = w[:, :hi - lo]
            with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf; saturate to inf
                np.subtract(np.log(lam)[:, None], log_u[lo:hi], out=w)
                w *= self.alpha
                np.exp(w, out=w)
            np.negative(w, out=w)
            np.exp(w, out=w)
            if counts is not None:
                w *= counts[lo:hi]
            return reduce_last(np.add, w)

        def block(lam: np.ndarray) -> np.ndarray:
            n = log_u.size
            if not (self._splits and n >= _SPLIT):
                return terms(lam, np.empty((lam.size, n)), 0, n)
            leaves = np.empty((2, lam.size, _LEAF))  # the helper's arena would keep it
            return _sum_halves(n, lambda lo, hi: _tree_sum(
                lo, hi - lo, partial(terms, lam, leaves[int(lo > 0)])))

        return self._rows(block, lams)


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
    |g|, or its midpoint when the bracket is narrower than twice that; a
    bisection step otherwise.  The step is an offset from x_best, where
    the root lies nearest, so a root next to an end at 0 keeps its relative
    precision.  A bisection step between same-sign ends more than a factor 4
    apart takes their geometric mean: a root 170 decades below the larger end
    is then some 10 steps away, not 570.  Against an end at exactly 0, a
    bisection step after a halving that did not cross the root is the exponent
    step (see the module docstring).  None once no float lies strictly inside
    the bracket.
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
        stalled = x2 == 0.0 and x3 is not None and x1 == 0.5 * x3  # the exponent step
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


def _chandrupatla_xs(x1, f1, x2, f2, x3, f3, width: float) -> np.ndarray:
    """``_chandrupatla_x`` on arrays of brackets, NaN where it returns None;
    ``x3`` and ``f3`` are None before the first step.  Every bracket goes
    through the same float operations in the same order, so it gets exactly
    the probe its one-target step would."""
    best1 = np.abs(f1) < np.abs(f2)
    xb, fb, xo, fo = np.where(best1, (x1, f1, x2, f2), (x2, f2, x1, f1))
    span = xo - xb
    tl = np.minimum(width * np.abs(xb) / np.abs(span), 0.5)
    x = half = xb + 0.5 * span
    bisect = np.ones(xb.shape, dtype=bool)
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
        stalled = (x2 == 0.0) & (x1 == 0.5 * x3)  # the exponent step
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


def _solve_decreasing(rows_of, t: np.ndarray, row0: np.ndarray, resid_rel_of):
    """The root of F(x) = t for a strictly decreasing F and one target t (a
    one-element array), on plain floats.

    ``rows_of`` maps a vector of x to rows whose column 0 is F(x), and ``row0``
    is its row at x = 0.  After F(0), a geometric bracket expansion from 0
    probes x = +-1, +-2, +-4, ... on the root's side, then Chandrupatla steps
    (``_chandrupatla_x``) inside the bracket take one ``rows_of`` call each.
    ``resid_rel_of`` maps g = F(x) - t to the relative residual, and the solve
    stops once that is within ``TOLERANCES.rel``.  Returns (root, g(root),
    evaluations of g, the row at the root) as one-element arrays and a one-row
    array, the root being the probe with the smallest |g|.  A target that
    ends above its level raises BracketError, after one more, uncounted,
    evaluation at the smallest float on its root's side tells a root below
    float resolution from a solve that ran out of steps.

    A batch of targets is ``_solve_arrays``, which takes the same arguments and
    gives each target exactly this solve's probes, root and evaluation count.
    """
    tol = TOLERANCES
    t = float(t[0])
    g = float(row0[0]) - t              # g at the best probe so far
    if g == 0.0:
        return np.zeros(1), np.array([g]), np.ones(1, dtype=int), row0[None]
    sign = 1.0 if g > 0.0 else -1.0
    # the bracket: x1 the newest probe, x2 the other end, x3 the end dropped last
    x2, f2, row2, step = 0.0, g, row0, 1.0
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
    while iters < tol.max_iter and x is not None:
        row = rows_of(np.array([x]))[0]
        gx = float(row[0]) - t
        iters += 1
        if abs(gx) < abs(g):
            root, g, at = x, gx, row
        if abs(resid_rel_of(gx)) <= tol.rel:
            break
        if (gx > 0.0) == (f1 > 0.0):  # x replaces the newest end
            x3, f3 = x1, f1
        else:                         # x replaces the other end
            x3, f3 = x2, f2
            x2, f2 = x1, f1
        x1, f1 = x, gx
        x = _chandrupatla_x(x1, f1, x2, f2, x3, f3, tol.width)
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
        nxt = np.empty((6, act.size))
        nxt[0], nxt[1] = x, gx
        nxt[2:4] = np.where(same, br[2:4], br[:2])
        nxt[4:] = np.where(same, br[:2], br[2:4])
        br = nxt
        x = _chandrupatla_xs(*br, tol.width)
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
    s = int(s)
    if not 1 <= s <= loading.d:
        raise ValueError(f"s must be in [1, {loading.d}]")
    return solve_beta(loading, alpha, adaptive_target(s), equation="adaptive")


def solve_lambda_H(loading: LoadingVector, alpha: float, s: int) -> ThresholdSolution:
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
    kernel = PhiKernel(loading, alpha)

    def rows_of(lams: np.ndarray) -> np.ndarray:
        return kernel.tail_sum(lams, s * s - 1)[:, None]

    # g(0) = d - s^2 + 1 - s >= 0, so the expansion always runs upward
    lam, g, iters, _row = _solve_decreasing(rows_of, np.array([float(s)]),
                                            rows_of(np.zeros(1))[0], lambda v: v / s)
    lam_ = float(lam[0])
    return ThresholdSolution("asym", float(s), lam_, lam_, float(g[0]), int(iters[0]))
