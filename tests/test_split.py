"""Kernel rows summed leaf by leaf: a row's bits depend on its beta alone --
alone, in any block, in a block of mixed signs, through the memo, and on any
leaf size -- in the caller's thread, without BLAS; rows on extreme levels
stay finite; and every phi and tail row stays within pinned bounds of the
forms that exponentiate both terms.

``small_leaves`` lowers ``_BLOCK`` to 256 elements, so that rows of a few
hundred levels sum over several leaves and batches split into several
blocks.
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
from test_contracts import explicit_loadings, two_exp_rows

BETAS = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e3, 1e30, 1e300]
NEGATIVE = [-1e-300, -1e-3, -2.0, -1e3]
LAMS = [0.0, 5e-324, 1e-8, 0.3, 1.0, 7.0, 1e5, 1e300]


def _block(size: int):
    """A context manager: rows evaluated inside it use ``_BLOCK = size``."""

    @contextlib.contextmanager
    def block():
        mp = pytest.MonkeyPatch()
        mp.setattr(threshold, "_BLOCK", size)
        try:
            yield
        finally:
            mp.undo()

    return block


@pytest.fixture(scope="module")
def small_leaves():
    """Rows evaluated inside it sum over leaves of 256 levels, in blocks of
    at most 256 elements."""
    return _block(256)


@pytest.fixture(scope="module")
def one_leaf():
    """Rows evaluated inside it sum in one leaf and one block, however long."""
    return _block(1 << 40)


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
@given(_untied_loadings(257), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_split_rows_equal_one_thread_rows(small_leaves, lv, alpha):
    """Rows of more than 256 levels sum over several leaves of 256 levels and
    give the record that leaves of 2^16 levels give."""
    one = _kernel_record(lv, alpha)
    with small_leaves():
        many = _kernel_record(lv, alpha)
    assert many == one


def test_threads_sharing_a_kernel_get_one_thread_rows(small_leaves):
    """Each row has its own leaf buffer, so two threads evaluating rows on
    one kernel at once get the rows one thread gets."""
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
    (np.geomspace(1.0, 1e5, 300), 2.0),             # every |eta| >= 1
    (np.geomspace(1e-300, 1e-200, 300), 4.0),       # u^-alpha overflows
    (np.geomspace(1e-300, 1e300, 1000), 0.5),
    (1.0 + np.arange(400) * 2.0**-50, 1.0),         # adjacent floats
])
def test_split_rows_on_extreme_levels(small_leaves, values, alpha):
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    one = _kernel_record(lv, alpha)
    with small_leaves():
        many = _kernel_record(lv, alpha)
    assert many == one
    _assert_near_two_exp(PhiKernel(lv, alpha), BETAS + NEGATIVE)


TINY = sys.float_info.min


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


@settings(max_examples=25)
@given(_untied_loadings(1), st.sampled_from([0.5, 1.0, 2.0, 4.0]),
       st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=4))
def test_walked_rows_equal_one_buffer_rows(small_leaves, one_leaf, lv, alpha, drawn):
    """Rows at betas in [0, inf) and tail rows, summed over leaves of 2^16
    levels or of 256, or in one leaf and one block however long, are the
    same bits: a row's runs of ``_RUN`` levels and the pairwise sum of their
    sums do not depend on where its leaves end."""

    def record():
        kernel = PhiKernel(lv, alpha)
        betas = BETAS + drawn
        return [_bits(kernel.rows(betas)), *(_bits(kernel.rows([b])) for b in betas),
                *(_bits(_log_tail(lv.levels, alpha, start)(LAMS)) for start in (0, lv.d // 3))]

    want = record()
    for walk in (small_leaves, one_leaf):
        with walk():
            assert record() == want


# |new - old| between the scaled rows and the two-exp forms, relative to the
# size of log phi's terms (``two_exp_rows``) and to max(1, |log nu^2|), and
# |new - old| / old between tail sums (now |log T - log old|, the same measure
# to first order), pinned from a first measurement over two sets of 2300
# draws of the test below and over 12002 betas of either sign from 1e-322 to
# 1e307 on 38 wide loadings at alpha 0.5, 1 and 4 (worst: 3.7e-16 on log
# phi, 1.8e-15 on log nu^2, 2.2e-13 on tail sums).  The rows summed in runs
# of 128 levels read at most 4.2e-16 and 3.6e-15 over 950 loadings drawn as
# ``explicit_loadings`` draws them, at alpha 0.5 to 8.
LOG_PHI_REL, LOG_NU2_REL, TAIL_REL = 1e-15, 4e-15, 5e-13


def _assert_near_two_exp(kernel: PhiKernel, betas) -> None:
    """Rows of any kernel against the two-exp form: finite where the two-exp
    row is, the same infinity where it is not, within the pinned bounds, and
    bit for bit the two-exp row at beta < 0, which is its path."""
    with np.errstate(over="ignore"):
        new = kernel.rows(betas)
    old, size = two_exp_rows(kernel, kernel.alpha, betas)
    down = np.asarray(betas, dtype=float) < 0.0
    assert _bits(new[down]) == _bits(old[down])
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
    _assert_near_two_exp(PhiKernel(lv, alpha), BETAS + NEGATIVE + drawn)
    lams = np.array(LAMS + [abs(x) for x in drawn])
    for start in (0, lv.d // 3):
        new = _log_tail(lv.levels, alpha, start)(lams)
        _assert_tail_near_two_exp(new[:, 0], _two_exp_tail(lv, alpha, lams, start))


@pytest.mark.parametrize("values, alpha", [
    (np.geomspace(1e80, 1e70, 300), 4.0),
    (np.geomspace(1e80, 1e60, 300), 4.0),
    (np.geomspace(1e300, 1e200, 500), 2.4),
    (np.geomspace(1e300, 1e100, 500), 8.0),
])
def test_rows_whose_top_factor_is_subnormal_keep_its_bits(values, alpha):
    """u_0^-alpha below the normal floats (e^-737 at 1e80 and alpha 4) would
    lose the bits that t p_k scales up by up to e^709: at beta near 1e300,
    log phi was 9e-12 off.  The kernel forms it as a product of three
    normal factors, and the rows stay within the pinned bounds up to the
    float maximum."""
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    _assert_near_two_exp(PhiKernel(lv, alpha), np.geomspace(1e-300, 1e308, 300))


def test_phi_rows_whose_second_sum_leaves_its_range_exponentiate_both_terms():
    """At beta < 0 on levels 600 decades apart the rows' largest terms lie at
    the last level, far from the first: such rows compute their maxima
    first and exponentiate both terms, the two-exp row bit for bit."""
    lv = make_loading(LoadingSpec("explicit", values=tuple(np.geomspace(1e300, 1e-300, 61))))
    _assert_near_two_exp(PhiKernel(lv, 1.0), [-1e-200, -1e-150, -1.0, 1.0])


def test_phi_rows_whose_second_sum_factor_underflows_exponentiate_both_terms():
    """At beta = -1.7e-257 on levels (1e130, 1e-260) a second sum read from
    the first one's factors lost 96 nats of log nu^2: a row at beta < 0
    exponentiates both terms, the two-exp row bit for bit."""
    lv = make_loading(LoadingSpec("explicit", values=(1e130, 1e-260)))
    _assert_near_two_exp(PhiKernel(lv, 1.0), [-1.7e-257])


@pytest.mark.parametrize("values", [
    (1e130, 1e-260), (1e305, 1e304, 1e-5), tuple(np.geomspace(1e300, 1e-300, 61)),
])
def test_rows_on_wide_spans_stay_near_the_two_exp_form(values):
    """Betas of either sign from 1e-322 to 1e307, so that every window where
    a row's exponents leave the float range holds a beta."""
    lv = make_loading(LoadingSpec("explicit", values=values))
    betas = np.geomspace(1e-322, 1e307, 20001)
    _assert_near_two_exp(PhiKernel(lv, 1.0), np.concatenate([-betas, betas[::10]]))


@settings(max_examples=25)
@given(explicit_loadings(), st.sampled_from([0.5, 1.0, 2.0, 4.0]), st.randoms())
def test_a_block_of_mixed_signs_equals_its_rows(lv, alpha, rnd):
    """A block holding betas < 0 and >= 0, on a tied kernel or an untied one,
    and any sub-block of it: each row is bit for bit the row evaluated
    alone, and the row read through the memo."""
    betas = BETAS + NEGATIVE
    rnd.shuffle(betas)
    kernel = PhiKernel(lv, alpha)
    alone = [_bits(kernel.rows([b])) for b in betas]
    assert [_bits(row) for row in kernel.rows(betas)] == alone
    lo = rnd.randrange(len(betas))
    hi = rnd.randrange(lo, len(betas)) + 1
    assert [_bits(row) for row in kernel.rows(betas[lo:hi])] == alone[lo:hi]
    memo = PhiKernel(lv, alpha)
    memo._probe(betas[lo:hi])
    assert [_bits(row) for row in memo._probe(betas)] == alone


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
        _assert_tail_near_two_exp(one[:, 0], _two_exp_tail(lv, alpha, lams, start))
    # at s = 2 the tail's first level, 7e299, holds one of the s terms: the
    # root lies among the low levels, where B of the first level underflows
    sol = solve_lambda_H(lv, alpha, 2)
    assert 1e-301 < sol.lambda_ < 1e-297 and sol.meets(threshold.TOLERANCES), sol


@pytest.fixture
def leaf_sums(monkeypatch):
    """(levels, rows, thread) of every ``_leaf_sums`` call."""
    seen = []
    sums = threshold._leaf_sums

    def recorded(t, p, *weights):
        seen.append((p.size, t.size, threading.get_ident()))
        return sums(t, p, *weights)

    monkeypatch.setattr(threshold, "_leaf_sums", recorded)
    return seen


def test_computed_maxima_take_one_buffer_and_one_cpu_walks_here(small_leaves, leaf_sums):
    """Rows at beta < 0 compute their maxima in one buffer; every other phi
    row and every tail row, tied or untied, sums leaf by leaf, in the
    caller's thread, on one CPU or on all."""
    tied = make_loading(LoadingSpec("two_phase", d=5000, gamma_d=0.4, gamma_lambda=0.2))
    untied = make_loading(LoadingSpec("exp_decay", d=1000, c=2e-3, gamma=1.0))
    with small_leaves():
        PhiKernel(tied, 1.0).rows(NEGATIVE)
        PhiKernel(untied, 1.0).rows(NEGATIVE)
        assert leaf_sums == []
        PhiKernel(tied, 1.0).rows(BETAS)
        PhiKernel(untied, 1.0).rows(BETAS + NEGATIVE)  # the rows at beta >= 0 alone
        _log_tail(untied.levels, 1.0, 1)(LAMS)
    assert {(n, r) for n, r, _ in leaf_sums} == {(2, 11), (1000, 1), (999, len(LAMS))}
    assert {thread for _, _, thread in leaf_sums} == {threading.get_ident()}

    # a tied tail row sums as an untied one does: counts weight each run
    values = np.geomspace(1.0, 1e-3, 1000)
    values[500] = values[501]
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    assert lv.levels.tied
    for start in (0, 1, 500, 501, 700):
        one = _log_tail(lv.levels, 1.0, start)(LAMS)
        with small_leaves():
            assert _bits(_log_tail(lv.levels, 1.0, start)(LAMS)) == _bits(one)
        with np.errstate(divide="ignore", over="ignore"):
            w = np.exp(np.log(LAMS)[:, None] - np.log(values[start:]))
        assert np.allclose(np.exp(one[:, 0]), np.exp(-w).sum(axis=1), rtol=1e-13)


@pytest.mark.parametrize("argv", [
    ["rate", "--csv", "--s-grid", "1,2,5"],
    ["solve", "--equation", "asym", "--s", "2"],
    ["solve", "--equation", "oracle", "--s", "2"],
])
def test_cli_output_equal_with_split(small_leaves, leaf_sums, capsys, argv):
    spec = ["--loading-spec", "exp_decay", "--d", "3000", "--c", "6e-4", "--gamma", "1",
            "--alpha", "1"]
    assert main([*argv, *spec]) == 0
    one = capsys.readouterr().out
    leaf_sums.clear()
    with small_leaves():
        assert main([*argv, *spec]) == 0
    assert max(n for n, _, _ in leaf_sums) > 256  # some row summed several leaves
    assert capsys.readouterr().out == one


def test_split_row_holds_no_buffer_of_its_length():
    """A row sums leaves of at most 2^16 levels in one leaf-sized buffer, so
    evaluating one allocates less than a buffer of its length: 16 bytes per
    level for the two sums of a phi row, 8 for a tail row.  The leaf buffer
    holds 0.5 MB for either row: at d = 2^19 below one d-length array of 8
    bytes per level, and at d = 2^16 + 1000, where the row sums two leaves,
    below the row's bytes."""
    import tracemalloc

    small = (1 << 16) + 1000
    for d, c, phi_bytes, tail_bytes in ((1 << 19, 4e-6, 8 << 19, 8 << 19),
                                        (small, 2.0 / small, 16 * small, 8 * (small - 1))):
        lv = make_loading(LoadingSpec("exp_decay", d=d, c=c, gamma=1.0))
        kernel, tail = PhiKernel(lv, 1.0), _log_tail(lv.levels, 1.0, 1)
        kernel.rows([0.5])
        tail([0.5])
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


def test_kernel_rows_call_no_blas(monkeypatch):
    """A BLAS dot splits long sums across threads, so its bits can depend on
    the thread count: no kernel row calls one, and the module holds no
    matrix product."""
    def refuse(*args, **kwargs):
        raise AssertionError("a kernel row called BLAS")

    for name in ("dot", "vdot", "inner", "matmul", "tensordot"):
        monkeypatch.setattr(np, name, refuse)
    for spec in (LoadingSpec("exp_decay", d=70_000, c=1e-4, gamma=1.0),
                 LoadingSpec("two_phase", d=5000, gamma_d=0.4, gamma_lambda=0.2)):
        lv = make_loading(spec)
        PhiKernel(lv, 1.0).rows(BETAS + NEGATIVE)
        _log_tail(lv.levels, 1.0, 1)(LAMS)
    source = Path(threshold.__file__).read_text()
    assert " @ " not in source and "optimize=" not in source


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
    """``rate`` on an untied loading of 2^17 levels sums every row in the
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
