"""Kernel rows that walk leaves, split up numpy's pairwise-sum tree, give
every phi row, tail row, solve record and CLI output bit for bit as one buffer
of the row's length does, in the caller's thread; and the numpy properties
that this rests on still hold.

``small_leaves`` lowers the leaf size to numpy's pairwise block of 128, so
that rows of a few hundred levels split into several leaves.
"""

import contextlib
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsefn.threshold as threshold
from sparsefn.cli import main
from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.rates import RateCalculator
from sparsefn.threshold import (BracketError, PhiKernel, _log_tail, reduce_last, solve_beta,
                                solve_lambda_H)
from test_contracts import explicit_loadings

BETAS = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e3, 1e30, 1e300]
NEGATIVE = [-1e-300, -1e-3, -2.0, -1e3]
LAMS = [0.0, 5e-324, 1e-8, 0.3, 1.0, 7.0, 1e5, 1e300]


@pytest.fixture(scope="module")
def small_leaves():
    """A context manager: rows evaluated inside it walk leaves of at most 128
    levels (numpy's pairwise block), so a row of more than 128 levels walks
    several."""

    @contextlib.contextmanager
    def leaves():
        mp = pytest.MonkeyPatch()
        mp.setattr(threshold, "_LEAF", 128)
        try:
            yield
        finally:
            mp.undo()

    return leaves


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _kernel_record(lv, alpha: float) -> list:
    """Every kernel row, tail row and solve record on lv, with the messages of
    the solves that raise."""
    k = PhiKernel(lv, alpha)
    out = [_bits(k.rows(BETAS)), _bits(k.rows(BETAS + NEGATIVE)),
           *(_bits(k.rows([b])) for b in BETAS + NEGATIVE),
           *(_bits(_log_tail(lv.levels, alpha, start)(LAMS)) for start in (0, 1, lv.d // 3))]
    for solve in (lambda: RateCalculator(lv, alpha).table(),
                  lambda: RateCalculator(lv, alpha)._solve([0.5, 2.0, 7.0]),
                  lambda: solve_beta(lv, alpha, 1.5).to_dict(),
                  lambda: solve_lambda_H(lv, alpha, 1).to_dict()):
        try:
            record = solve()
        except BracketError as err:
            out.append(str(err))
        else:
            out.append(repr(record.values()) if isinstance(record, dict)
                       else [_bits(field) for field in record])
    return out


def _untied_loadings(min_d: int):
    return explicit_loadings().filter(lambda lv: lv.d >= min_d and not lv.levels.tied)


@settings(max_examples=25)
@given(_untied_loadings(129), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_split_rows_equal_one_thread_rows(small_leaves, lv, alpha):
    """Rows of d > 128 levels walk several leaves of 128 levels, and give the
    record that leaves of 2^16 levels give."""
    one = _kernel_record(lv, alpha)
    with small_leaves():
        many = _kernel_record(lv, alpha)
    assert many == one


def test_threads_sharing_a_kernel_get_one_thread_rows(small_leaves):
    """Each walked row has its own leaf buffer, so two threads evaluating
    rows on one kernel at once get the rows one thread gets."""
    lv = make_loading(LoadingSpec("exp_decay", d=20_000, c=1e-4, gamma=1.0))
    betas = [[0.5 + 0.01 * i] for i in range(40)]
    lams = [[0.3 + 0.01 * i] for i in range(40)]
    kernel, tail = PhiKernel(lv, 1.0), _log_tail(lv.levels, 1.0, 1)
    one = [_bits(kernel.rows(b)) + _bits(tail(lam)) for b, lam in zip(betas, lams)]
    with small_leaves():
        shared, shared_tail = PhiKernel(lv, 1.0), _log_tail(lv.levels, 1.0, 1)
        got = [None, None]

        def evaluate(t: int) -> None:
            order = zip(betas[t::2] + betas[1 - t::2], lams[t::2] + lams[1 - t::2])
            got[t] = [_bits(shared.rows(b)) + _bits(shared_tail(lam)) for b, lam in order]

        threads = [threading.Thread(target=evaluate, args=(t,)) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert got[0] == one[0::2] + one[1::2]
    assert got[1] == one[1::2] + one[0::2]


@pytest.mark.parametrize("values, alpha", [
    (np.geomspace(1.0, 1e5, 300), 2.0),             # every |eta| >= 1: bounded
    (np.geomspace(1e-300, 1e-200, 300), 4.0),       # u^-alpha overflows: r_inf
    (np.geomspace(1e-300, 1e300, 1000), 0.5),
    (1.0 + np.arange(400) * 2.0**-50, 1.0),         # adjacent floats
])
def test_split_rows_on_extreme_levels(small_leaves, values, alpha):
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    one = _kernel_record(lv, alpha)
    with small_leaves():
        many = _kernel_record(lv, alpha)
        assert PhiKernel(lv, alpha)._falls
    assert many == one


TINY = sys.float_info.min


def _exponents(kernel: PhiKernel, beta: float) -> np.ndarray:
    """w = beta * neg_r over the levels, 0 at beta = 0 where neg_r is -inf."""
    if beta == 0.0 and kernel._r_inf:
        return np.zeros(kernel.neg_r.size)
    return beta * kernel.neg_r


def _row_scalars(kernel: PhiKernel, beta: float):
    """(w_top, y = delta + gap + log c, m1, m2, whether the second sum's
    largest term exp(m2 - m1 + log u_0) and its factor e_j >= exp(m2 - m1)
    lie in [e^-600, e^700 / levels]) of a row."""
    log_top, gap = kernel.gap
    a1 = gap + np.log(kernel.levels.counts) if kernel.levels.tied else gap
    with np.errstate(over="ignore"):
        w = _exponents(kernel, beta)
        top = w.max()
        y = ((w - top) if np.isfinite(top) else np.zeros(w.size)) + a1
    m1, m2 = y.max(), (y + gap).max()
    lower = m2 - m1
    return top, y, m1, m2, bool(-600.0 - min(log_top, 0.0) <= lower
                                <= 700.0 - math.log(w.size) - log_top)


def _one_buffer_rows(kernel: PhiKernel, betas) -> np.ndarray:
    """Rows (log phi, log nu^2) in the one-exponential form, each in one
    buffer of the row's length: e = exp(y - m1) with y = delta + gap + log c,
    LSE1 = (m1 + log u_0) + log sum e and LSE2 = (m1 + log u_0) + log sum e u,
    or (m2 + 2 log u_0) + log sum exp(y + gap - m2) where the second sum's
    largest term or its factor leaves its range."""
    log_top, gap = kernel.gap
    rows = []
    for beta in betas:
        top, y, m1, m2, fast = _row_scalars(kernel, beta)
        e = np.exp(y - m1)
        lse1 = (m1 + log_top) + np.log(e.sum())
        if fast:
            lse2 = (m1 + log_top) + np.log((e * kernel.levels.values).sum())
        else:
            lse2 = (m2 + 2.0 * log_top) + np.log(np.exp(y + gap - m2).sum())
        rows.append([lse1 - 0.5 * (lse2 - top), top + lse2])
    return np.array(rows)


def _one_buffer_tail(lv, alpha: float, lams, start: int) -> np.ndarray:
    """``_log_tail`` rows with each segment's sum in one buffer of the
    segment's length: -B_j + log sum_k c_k exp(B_j q_k), q_k = -expm1(x_k -
    x_f) with x = alpha (log u_top - log u) and x_f its value at the
    segment's first level, B_j = exp(alpha (log lam - log u_top) + x_f), and
    segments that start where x passes 709 nats of the last start."""
    levels = lv.levels
    k = levels.level_of(start)
    u = levels.values[k:]
    counts = np.ones(u.size) if levels.counts is None else levels.counts[k:].astype(float)
    counts[0] = (k + 1 if levels.ends is None else levels.ends[k]) - start
    x = (np.log(u) - np.log(u[0])) * -alpha
    firsts = [0]
    while (f := int(np.searchsorted(x, x[firsts[-1]] + 709.0, side="right"))) < x.size:
        firsts.append(f)
    lam = np.asarray(lams, dtype=float)
    parts = []
    with np.errstate(divide="ignore", over="ignore"):
        log_b = (np.log(lam) - np.log(u[0])) * alpha
        for f, e in zip(firsts, firsts[1:] + [x.size]):
            b = np.exp(log_b + x[f])
            terms = np.exp(np.minimum(b, sys.float_info.max)[:, None] * -np.expm1(x[f:e] - x[f]))
            parts.append(np.log((terms * counts[f:e]).sum(axis=1)) - b)
    return np.logaddexp.reduce(parts)[:, None]


def _two_exp_tail(lv, alpha: float, lams, start: int) -> np.ndarray:
    """T(lam) itself, summed over sorted positions as exp(-exp(alpha (log lam
    - log |eta|))) per term, the form of every tail row before rows were
    scaled."""
    lam = np.asarray(lams, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        w = np.exp((np.log(lam)[:, None] - np.log(lv.abs_values[start:])) * alpha)
    return np.exp(-w).sum(axis=1)


def _assert_tail_near_two_exp(new: np.ndarray, old: np.ndarray) -> None:
    """log T rows against the two-exp sums: no NaN, within the pinned bound
    where the sum is a normal float, and below the normals where it is not."""
    assert not np.isnan(new).any()
    normal = old >= TINY
    with np.errstate(divide="ignore"):
        assert (np.abs(new[normal] - np.log(old[normal])) <= TAIL_REL).all()
    assert (new[~normal] <= math.log(TINY) + TAIL_REL).all()


def _two_exp_rows(kernel: PhiKernel, betas) -> tuple[np.ndarray, np.ndarray]:
    """Rows (log phi, log nu^2) in the form that exponentiates both LSE
    terms: the form of every row before rows took one exponential per
    level.  With them, per row, the size of the terms that log phi =
    LSE1 - (LSE2 - w_top)/2 is formed from, max(1, |LSE1|, |LSE2|, |w_top|),
    which scales its rounding error."""
    log_u = np.log(kernel.levels.values)
    a1 = log_u + np.log(kernel.levels.counts) if kernel.levels.tied else log_u
    rows, sizes = [], []
    with np.errstate(over="ignore"):
        for beta in betas:
            w = _exponents(kernel, beta)
            top = w.max()
            x1 = ((w - top) if np.isfinite(top) else np.zeros(a1.size)) + a1
            x2 = x1 + log_u
            lse1, lse2 = (x.max() + np.log(np.exp(x - x.max()).sum()) for x in (x1, x2))
            rows.append([lse1 - 0.5 * (lse2 - top), top + lse2])
            sizes.append(max(1.0, abs(lse1), abs(lse2), abs(top)))
    return np.array(rows), np.array(sizes)


def _one_buffer_kernel(lv, alpha: float) -> PhiKernel:
    """A kernel whose phi rows all compute their maxima in one buffer."""
    kernel = PhiKernel(lv, alpha)
    vars(kernel)["_falls"] = False  # the cached property, forced off
    return kernel


@settings(max_examples=25)
@given(_untied_loadings(1), st.sampled_from([0.5, 1.0, 2.0, 4.0]),
       st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=4))
def test_walked_rows_equal_one_buffer_rows(small_leaves, lv, alpha, drawn):
    """Rows at betas in [0, inf) walk leaves of 2^16 levels or of 128, or
    compute their maxima in one buffer: each is bit for bit the row of the
    one-exponential form in one buffer of its length, and each tail row the
    row of one buffer per segment."""
    betas = BETAS + drawn
    ref = PhiKernel(lv, alpha)
    rows = _one_buffer_rows(ref, betas)
    want = [_bits(rows), *(_bits(row) for row in rows),
            *(_bits(_one_buffer_tail(lv, alpha, LAMS, start)) for start in (0, lv.d // 3))]
    for walk in (contextlib.nullcontext, small_leaves):
        with walk():
            kernel = PhiKernel(lv, alpha)
            got = [_bits(kernel.rows(betas)), *(_bits(kernel.rows([b])) for b in betas),
                   *(_bits(_log_tail(lv.levels, alpha, start)(LAMS)) for start in (0, lv.d // 3))]
            assert kernel._falls
        assert got == want
    assert _bits(_one_buffer_kernel(lv, alpha).rows(betas)) == want[0]


# |new - old| between the one-exponential rows and the two-exp forms,
# relative to the size of log phi's terms (``_two_exp_rows``) and to
# max(1, |log nu^2|), and |new - old| / old between tail sums (now |log T -
# log old|, the same measure to first order), pinned from a
# first measurement over two sets of 2300 draws of the test below and over
# 12002 betas of either sign from 1e-322 to 1e307 on 38 wide loadings at
# alpha 0.5, 1 and 4 (worst: 3.7e-16 on log phi, 1.8e-15 on log nu^2,
# 2.2e-13 on tail sums)
LOG_PHI_REL, LOG_NU2_REL, TAIL_REL = 1e-15, 4e-15, 5e-13


def _assert_near_two_exp(kernel: PhiKernel, betas) -> None:
    """Rows of any kernel against the two-exp form: each is bit for bit the
    one-exponential row in one buffer, finite where the two-exp row is, the
    same infinity where it is not, and within the pinned bounds."""
    with np.errstate(over="ignore"):
        new, (old, size) = kernel.rows(betas), _two_exp_rows(kernel, betas)
        assert _bits(new) == _bits(_one_buffer_rows(kernel, betas))
    finite = np.isfinite(old)
    assert (np.isfinite(new) == finite).all()
    assert _bits(new[~finite]) == _bits(old[~finite])
    err = np.abs(np.subtract(new, old, where=finite, out=np.zeros_like(old)))
    err[:, 0] /= size
    err[:, 1] /= np.maximum(1.0, np.abs(old[:, 1]))
    assert err[:, 0].max() <= LOG_PHI_REL and err[:, 1].max() <= LOG_NU2_REL


@settings(max_examples=40)
@given(explicit_loadings(), st.sampled_from([0.5, 1.0, 2.0, 4.0]),
       st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=4))
def test_rows_stay_near_the_two_exp_forms(lv, alpha, drawn):
    kernel = PhiKernel(lv, alpha)
    _assert_near_two_exp(kernel, BETAS + NEGATIVE + drawn)
    lams = np.array(LAMS + [abs(x) for x in drawn])
    for start in (0, lv.d // 3):
        new = _log_tail(lv.levels, alpha, start)(lams)
        assert _bits(new) == _bits(_one_buffer_tail(lv, alpha, lams, start))
        _assert_tail_near_two_exp(new[:, 0], _two_exp_tail(lv, alpha, lams, start))


def test_phi_rows_whose_second_sum_leaves_its_range_exponentiate_both_terms():
    """At beta < 0 on levels 600 decades apart, the second sum's largest
    term exp(m2 - m1 + log u_0) leaves [e^-600, e^700 / levels]: those rows
    take the two-exp second term, and stay near the two-exp form."""
    lv = make_loading(LoadingSpec("explicit", values=tuple(np.geomspace(1e300, 1e-300, 61))))
    kernel = PhiKernel(lv, 1.0)
    betas = [-1e-200, -1e-150, -1.0]
    assert not any(_row_scalars(kernel, b)[-1] for b in betas)
    assert _bits(kernel.rows(betas)) == _bits(_one_buffer_rows(kernel, betas))
    _assert_near_two_exp(kernel, betas + [1.0])


def test_phi_rows_whose_second_sum_factor_underflows_exponentiate_both_terms():
    """At beta < 0 the second sum's largest term e_j u_j can lie in range
    while its factor e_j = exp(y_j - m1) underflows to 0: here m1 is the
    small level's (-898), m2 the large level's (-1700), and e_j u_j =
    e^-503, but e_j = e^-802.  Such a row takes the two-exp second term,
    else its log nu^2 would be some 96 nats low."""
    lv = make_loading(LoadingSpec("explicit", values=(1e130, 1e-260)))
    kernel = PhiKernel(lv, 1.0)
    beta = -1.7e-257
    _, _, m1, m2, fast = _row_scalars(kernel, beta)
    assert m2 - m1 + kernel.gap[0] > -600.0 and m2 - m1 < math.log(TINY) and not fast
    assert _bits(kernel.rows([beta])) == _bits(_one_buffer_rows(kernel, [beta]))
    _assert_near_two_exp(kernel, [beta])


@pytest.mark.parametrize("values", [
    (1e130, 1e-260), (1e305, 1e304, 1e-5), tuple(np.geomspace(1e300, 1e-300, 61)),
])
def test_rows_on_wide_spans_stay_near_the_two_exp_form(values):
    """Betas < 0 from -1e-322 to -1e307, a factor 1.07 apart, so that every
    window where a row's maxima put one of its scalars out of range holds a
    beta (a row at beta >= 0 walks, with maxima the first level's)."""
    lv = make_loading(LoadingSpec("explicit", values=values))
    _assert_near_two_exp(PhiKernel(lv, 1.0), -np.geomspace(1e-322, 1e307, 20001))


@settings(max_examples=25)
@given(explicit_loadings(), st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.randoms())
def test_a_block_of_mixed_signs_equals_its_rows(lv, alpha, rnd):
    """A block holding betas < 0 and >= 0, on a tied kernel or an untied one,
    computes its maxima in one buffer; each row is bit for bit the row
    evaluated alone (a walked row where beta >= 0 on an untied kernel)."""
    betas = BETAS + NEGATIVE
    rnd.shuffle(betas)
    kernel = PhiKernel(lv, alpha)
    block = kernel.rows(betas)
    assert [_bits(row) for row in block] == [_bits(kernel.rows([b])) for b in betas]


@pytest.mark.parametrize("values", [
    np.geomspace(1e301, 1e299, 300),
    make_loading(LoadingSpec("two_phase", d=5000, gamma_d=0.4, gamma_lambda=0.2)).values,
])
def test_a_block_of_mixed_signs_equals_its_rows_on_fixed_kernels(values):
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    for alpha in (1.0, 8.0):
        kernel = PhiKernel(lv, alpha)
        block = kernel.rows(BETAS + NEGATIVE)
        assert [_bits(row) for row in block] == [_bits(kernel.rows([b])) for b in BETAS + NEGATIVE]


@pytest.mark.parametrize("alpha", [8.0, 16.0])
def test_tail_rows_near_the_float_maximum_stay_near_the_two_exp_form(alpha):
    """-|eta|^-alpha underflows to -0 for |eta| in [1e299, 1e301] at alpha 8
    and 16, and lam^alpha overflows, so the unscaled one-exponential term
    exp(-lam^alpha |eta|^-alpha) is NaN there.  The rates and B of a tail
    row are formed in log space, scaled to the tail's first level: every
    row is finite and near the two-exp form."""
    values = np.geomspace(1e301, 1e299, 1000)
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    lams = np.geomspace(1e299, 1e301, 7)
    for start in (0, 500):
        with np.errstate(over="ignore", invalid="ignore"):
            neg_r = -(values[start:] ** -alpha)
            assert neg_r[0] == 0.0
            assert np.isnan(np.exp(lams[:, None] ** alpha * neg_r)).any()
        got = _log_tail(lv.levels, alpha, start)(lams)
        assert np.isfinite(got).all()
        assert _bits(got) == _bits(_one_buffer_tail(lv, alpha, lams, start))
        _assert_tail_near_two_exp(got[:, 0], _two_exp_tail(lv, alpha, lams, start))


@pytest.mark.parametrize("alpha", [1.0, 8.0])
def test_tail_rows_past_709_nats_sum_in_segments(small_leaves, alpha):
    """A tail whose alpha log |eta| spans more than 709 nats has rates that
    overflow when scaled to its first level: it sums in segments, each
    scaled to its own first level.  At a lam where B of the first level is
    below the normal floats, the low levels' terms are still of order 1."""
    values = np.concatenate([[1e300, 9e299, 8e299, 7e299], np.geomspace(1e-298, 1e-300, 400)])
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    lams = np.array(LAMS + [2e-300, 1e-299, 1e-200, 3e299])
    for start in (0, 3, 4, 300):
        one = _log_tail(lv.levels, alpha, start)(lams)
        with small_leaves():
            assert _bits(_log_tail(lv.levels, alpha, start)(lams)) == _bits(one)
        assert _bits(one) == _bits(_one_buffer_tail(lv, alpha, lams, start))
        _assert_tail_near_two_exp(one[:, 0], _two_exp_tail(lv, alpha, lams, start))
    # at s = 2 the tail's first level, 7e299, holds one of the s terms: the
    # root lies among the low levels, where B of the first level underflows
    sol = solve_lambda_H(lv, alpha, 2)
    assert 1e-301 < sol.lambda_ < 1e-297 and sol.meets(threshold.TOLERANCES), sol


@pytest.fixture
def walks(monkeypatch):
    """The thread of every leaf that ``_walk`` runs, per row length."""
    seen = []
    walk = threshold._walk

    def recorded(n, shape, leaf):
        def traced(*args):
            seen.append((n, threading.get_ident()))
            return leaf(*args)

        return walk(n, shape, traced)

    monkeypatch.setattr(threshold, "_walk", recorded)
    return seen


def test_computed_maxima_take_one_buffer_and_one_cpu_walks_here(small_leaves, walks):
    """Tied phi rows and blocks with a beta < 0 compute their maxima in one
    buffer; every other row walks, a tied tail row too, and every leaf runs
    in the caller's thread, on one CPU or on all."""
    tied = make_loading(LoadingSpec("two_phase", d=5000, gamma_d=0.4, gamma_lambda=0.2))
    untied = make_loading(LoadingSpec("exp_decay", d=1000, c=2e-3, gamma=1.0))
    with small_leaves():
        PhiKernel(tied, 1.0).rows(BETAS)  # tied phi rows compute their maxima
        PhiKernel(untied, 1.0).rows(BETAS + NEGATIVE)  # so does a block with a beta < 0
        assert walks == []
        _log_tail(untied.levels, 1.0, 1000 - 128)(LAMS)  # 128 levels: one leaf
        assert [n for n, _ in walks] == [128]
        walks.clear()
        kernel = PhiKernel(untied, 1.0)
        assert _bits(kernel.rows(BETAS)) == _bits(_one_buffer_rows(kernel, BETAS))
        assert (_bits(_log_tail(untied.levels, 1.0, 1)(LAMS))
                == _bits(_one_buffer_tail(untied, 1.0, LAMS, 1)))
    assert {n for n, _ in walks} == {1000, 999}
    assert {thread for _, thread in walks} == {threading.get_ident()}
    assert len(walks) >= 2 * (1000 // 128)  # each row walks several leaves

    # a tied tail row walks as an untied one does: counts scale each leaf
    values = np.geomspace(1.0, 1e-3, 1000)
    values[500] = values[501]
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    assert lv.levels.tied
    for start in (0, 1, 500, 501, 700):
        one = _log_tail(lv.levels, 1.0, start)(LAMS)
        walks.clear()
        with small_leaves():
            assert _bits(_log_tail(lv.levels, 1.0, start)(LAMS)) == _bits(one)
        assert {n for n, _ in walks} == {999 - lv.levels.level_of(start)}
        assert len(walks) > 1
        with np.errstate(divide="ignore", over="ignore"):
            w = np.exp(np.log(LAMS)[:, None] - np.log(values[start:]))
        assert np.allclose(np.exp(one[:, 0]), np.exp(-w).sum(axis=1), rtol=1e-13)


@pytest.mark.parametrize("argv", [
    ["rate", "--csv", "--s-grid", "1,2,5"],
    ["solve", "--equation", "asym", "--s", "2"],
    ["solve", "--equation", "oracle", "--s", "2"],
])
def test_cli_output_equal_with_split(small_leaves, walks, capsys, argv):
    spec = ["--loading-spec", "exp_decay", "--d", "3000", "--c", "6e-4", "--gamma", "1",
            "--alpha", "1"]
    assert main([*argv, *spec]) == 0
    one = capsys.readouterr().out
    walks.clear()
    with small_leaves():
        assert main([*argv, *spec]) == 0
    assert max(n for n, _ in walks) > 128  # some row walked several leaves
    assert capsys.readouterr().out == one


def test_split_row_holds_no_buffer_of_its_length():
    """A row walks leaves of at most 2^16 levels in one leaf-sized buffer, so
    evaluating one allocates less than the buffer of its length that the
    one-buffer path holds: 16 bytes per level for a phi row, 8 for a tail
    row.  The leaf buffer holds 1 MB for a phi row and 0.5 MB for a tail
    row: at d = 2^19 below one d-length array of 8 bytes per level for
    either row, and at d = 2^16 + 1000, where the row walks two leaves,
    below the one-buffer row's bytes."""
    import tracemalloc

    small = (1 << 16) + 1000
    for d, c, phi_bytes, tail_bytes in ((1 << 19, 4e-6, 8 << 19, 8 << 19),
                                        (small, 2.0 / small, 16 * small, 8 * (small - 1))):
        lv = make_loading(LoadingSpec("exp_decay", d=d, c=c, gamma=1.0))
        kernel, tail = PhiKernel(lv, 1.0), _log_tail(lv.levels, 1.0, 1)
        kernel.rows([0.5])
        tail([0.5])
        assert kernel._falls
        tracemalloc.start()
        try:
            for evaluate, row_bytes in ((lambda: kernel.rows([2.0]), phi_bytes),
                                        (lambda: tail([2.0]), tail_bytes)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                evaluate()
                assert tracemalloc.get_traced_memory()[1] - before < row_bytes, d
        finally:
            tracemalloc.stop()


def test_tree_sum_is_numpys_pairwise_sum(monkeypatch):
    rng = np.random.default_rng(18)
    for leaf in (128, 136, 1000):
        monkeypatch.setattr(threshold, "_LEAF", leaf)
        for n in np.unique(np.geomspace(129, 100_000, 40).astype(int)):
            x = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-5, 5, (2, n))
            got = threshold._tree_sum(0, n, lambda lo, hi: x[:, lo:hi].sum(axis=1))
            assert _bits(got) == _bits(x.sum(axis=1))


def test_pairwise_sum_splits_at_its_midpoint():
    """A sum of n > 128 float64s is the sum of its halves split at
    h = n//2 - (n//2) % 8, as one row or as rows of a 3-d block: the walked
    rows rest on it."""
    rng = np.random.default_rng(16)
    for n in np.unique(np.geomspace(129, 300_000, 60).astype(int)):
        h = n // 2 - (n // 2) % 8
        x = rng.standard_normal((2, 3, n)) * 10.0 ** rng.uniform(-5, 5, (2, 3, n))
        for a in (x, np.exp(-np.abs(x))):
            whole = a.sum(axis=2)
            assert _bits(whole) == _bits(a[:, :, :h].sum(axis=2) + a[:, :, h:].sum(axis=2))
            assert _bits(whole[0, 0]) == _bits(a[0, 0, :h].sum() + a[0, 0, h:].sum())


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (512,), (2, 1), (2, 512), (3, 300)])
def test_reduce_last_equals_numpy_on_short_axes(shape):
    rng = np.random.default_rng(sum(shape))
    for k in range(1, 9):
        for trial in range(40):
            a = rng.standard_normal((*shape, k)) * 10.0 ** rng.integers(-20, 20, (*shape, k))
            a[rng.random(a.shape) < 0.1 * (trial % 4)] = -0.0
            a[rng.random(a.shape) < 0.05 * (trial % 3)] = 0.0
            a[rng.random(a.shape) < 0.05 * (trial % 2)] = -np.inf
            assert _bits(reduce_last(np.add, a)) == _bits(a.sum(axis=-1))
            assert _bits(reduce_last(np.maximum, a)) == _bits(a.max(axis=-1))


def test_import_starts_no_helper_thread():
    code = ("import sys, threading, sparsefn.cli; "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert threading.active_count() == 1")
    env = {**os.environ, "PYTHONPATH": str(Path(threshold.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_rate_on_a_large_untied_loading_starts_no_thread():
    """``rate`` on an untied loading of 2^17 levels walks every row in the
    caller's thread, on any CPU count: it starts no thread and imports no
    executor."""
    d, c = 1 << 17, 2.0 / (1 << 17)
    lv = make_loading(LoadingSpec("exp_decay", d=d, c=c, gamma=1.0))
    assert not lv.levels.tied and lv.levels.values.size == d
    argv = ["rate", "--csv", "--s-grid", "1,2", "--loading-spec", "exp_decay", "--d", str(d),
            "--c", repr(c), "--gamma", "1", "--alpha", "1"]
    code = ("import sys, threading; from sparsefn.cli import main; "
            f"assert main({argv!r}) == 0; "
            "assert 'concurrent.futures' not in sys.modules; "
            "assert threading.active_count() == 1")
    env = {**os.environ, "PYTHONPATH": str(Path(threshold.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True).stdout
    assert out.count("\n") == 4  # the meta line, the header and s = 1, 2
