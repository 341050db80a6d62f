"""Kernel rows split in two halves give every row, tail sum, solve record and
CLI output bit for bit as in one thread; and the numpy properties that this
rests on still hold.

``split_from`` lowers the split threshold so that kernels of a few hundred
levels split, and the leaf size to numpy's pairwise block of 128, so that
their halves run on several leaves, and reports 2 CPUs, so that the split
also runs where the process may use only one.
"""

import contextlib
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsefn.threshold as threshold
from sparsefn.cli import main
from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.rates import RateCalculator
from sparsefn.threshold import BracketError, PhiKernel, reduce_last, solve_beta, solve_lambda_H
from test_contracts import explicit_loadings

BETAS = [0.0, -0.0, 5e-324, 1e-300, 1e-8, 0.5, 1.0, 3.0, 1e3, 1e30, 1e300]
NEGATIVE = [-1e-300, -1e-3, -2.0, -1e3]
LAMS = [0.0, 5e-324, 1e-8, 0.3, 1.0, 7.0, 1e5, 1e300]


@pytest.fixture(scope="module")
def split_from():
    """A context manager: kernels built inside it split their rows from
    ``levels`` levels on (> 128, numpy's pairwise block) as on 2 CPUs, into
    leaves of at most 128 levels; it yields the list of the split rows'
    lengths."""

    @contextlib.contextmanager
    def split(levels: int):
        calls = []
        sum_halves = threshold._sum_halves

        def counted(n, half):
            calls.append(n)
            return sum_halves(n, half)

        mp = pytest.MonkeyPatch()
        mp.setattr(threshold, "_SPLIT", levels)
        mp.setattr(threshold, "_LEAF", 128)
        mp.setattr(threshold, "_cpus", lambda: 2)
        mp.setattr(threshold, "_sum_halves", counted)
        try:
            yield calls
        finally:
            mp.undo()

    return split


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _kernel_record(lv, alpha: float) -> list:
    """Every kernel row, tail sum and solve record on lv, with the messages of
    the solves that raise."""
    k = PhiKernel(lv, alpha)
    out = [_bits(k.rows(BETAS)), _bits(k.rows(BETAS + NEGATIVE)),
           *(_bits(k.rows([b])) for b in BETAS + NEGATIVE),
           *(_bits(k.tail_sum(LAMS, start)) for start in (0, 1, lv.d // 3))]
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
def test_split_rows_equal_one_thread_rows(split_from, lv, alpha):
    one = _kernel_record(lv, alpha)
    with split_from(129) as calls:
        two = _kernel_record(lv, alpha)
    assert calls
    assert two == one


def test_upper_halves_the_helper_has_not_started_run_here(split_from):
    lv = make_loading(LoadingSpec("exp_decay", d=1000, c=2e-3, gamma=1.0))
    one = _kernel_record(lv, 1.0)
    with split_from(129) as calls:
        PhiKernel(lv, 1.0).rows([1.0])  # the first split makes the helper thread
        busy = threading.Event()
        threshold._helper[1].submit(busy.wait)
        try:
            two = _kernel_record(lv, 1.0)
        finally:
            busy.set()
    assert len(calls) > 1
    assert two == one


def test_an_upper_half_run_here_leaves_no_reference_in_the_queue():
    """The helper's queue keeps a cancelled job until the helper wakes; the
    job must not keep the row's buffer alive meanwhile."""
    threshold._sum_halves(1000, lambda lo, hi: float(hi - lo))  # makes the helper thread
    busy = threading.Event()
    threshold._helper[1].submit(busy.wait)
    try:
        def half(lo: int, hi: int) -> float:
            return float(hi - lo)

        ref = weakref.ref(half)
        assert threshold._sum_halves(1000, half) == 1000.0
        del half
        assert ref() is None
    finally:
        busy.set()


def test_threads_sharing_a_kernel_get_one_thread_rows(split_from):
    """Each split row has its own buffer, so two threads evaluating rows on
    one kernel at once get the rows one thread gets."""
    lv = make_loading(LoadingSpec("exp_decay", d=20_000, c=1e-4, gamma=1.0))
    betas = [[0.5 + 0.01 * i] for i in range(40)]
    lams = [[0.3 + 0.01 * i] for i in range(40)]
    kernel = PhiKernel(lv, 1.0)
    one = [_bits(kernel.rows(b)) + _bits(kernel.tail_sum(lam, 1))
           for b, lam in zip(betas, lams)]
    with split_from(129) as calls:
        shared = PhiKernel(lv, 1.0)
        got = [None, None]

        def evaluate(t: int) -> None:
            order = zip(betas[t::2] + betas[1 - t::2], lams[t::2] + lams[1 - t::2])
            got[t] = [_bits(shared.rows(b)) + _bits(shared.tail_sum(lam, 1)) for b, lam in order]

        threads = [threading.Thread(target=evaluate, args=(t,)) for t in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert got[0] == one[0::2] + one[1::2]
    assert got[1] == one[1::2] + one[0::2]
    assert len(calls) == 160


@pytest.mark.parametrize("values, alpha", [
    (np.geomspace(1.0, 1e5, 300), 2.0),             # every |eta| >= 1: bounded
    (np.geomspace(1e-300, 1e-200, 300), 4.0),       # u^-alpha overflows: r_inf
    (np.geomspace(1e-300, 1e300, 1000), 0.5),
    (1.0 + np.arange(400) * 2.0**-50, 1.0),         # adjacent floats
])
def test_split_rows_on_extreme_levels(split_from, values, alpha):
    lv = make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))
    one = _kernel_record(lv, alpha)
    with split_from(129) as calls:
        two = _kernel_record(lv, alpha)
        assert PhiKernel(lv, alpha)._split_phi
    assert calls
    assert two == one


def test_tied_kernels_negative_betas_and_one_cpu_take_one_thread(split_from, monkeypatch):
    tied = make_loading(LoadingSpec("two_phase", d=5000, gamma_d=0.4, gamma_lambda=0.2))
    untied = make_loading(LoadingSpec("exp_decay", d=1000, c=2e-3, gamma=1.0))
    with split_from(129) as calls:
        PhiKernel(tied, 1.0).rows(BETAS)
        PhiKernel(tied, 1.0).tail_sum(LAMS, 0)
        PhiKernel(untied, 1.0).rows(BETAS + NEGATIVE)
        PhiKernel(untied, 1.0).tail_sum(LAMS, 1000 - 128)  # a tail of 128 levels
        assert calls == []
        PhiKernel(untied, 1.0).rows(BETAS)
        assert calls == [1000]
    monkeypatch.setattr(threshold, "_SPLIT", 129)
    monkeypatch.setattr(threshold, "_cpus", lambda: 1)
    assert not PhiKernel(untied, 1.0)._splits


@pytest.mark.parametrize("argv", [
    ["rate", "--csv", "--s-grid", "1,2,5"],
    ["solve", "--equation", "asym", "--s", "2"],
    ["solve", "--equation", "oracle", "--s", "2"],
])
def test_cli_output_equal_with_split(split_from, capsys, argv):
    spec = ["--loading-spec", "exp_decay", "--d", "3000", "--c", "6e-4", "--gamma", "1",
            "--alpha", "1"]
    assert main([*argv, *spec]) == 0
    one = capsys.readouterr().out
    with split_from(129) as calls:
        assert main([*argv, *spec]) == 0
    assert calls
    assert capsys.readouterr().out == one


def test_split_row_holds_no_buffer_of_its_length():
    """A split row runs on leaves of at most 2^16 levels, so evaluating one
    at d = 2^19 allocates less than one d-length array (a phi row held 16
    bytes per level, a tail row 8; its leaves hold 2 MB and 1 MB)."""
    import tracemalloc

    lv = make_loading(LoadingSpec("exp_decay", d=1 << 19, c=4e-6, gamma=1.0))
    kernel = PhiKernel(lv, 1.0)
    kernel.rows([0.5])
    kernel.tail_sum([0.5], 1)
    if not kernel._split_phi:
        pytest.skip("rows do not split in a process on one CPU")
    tracemalloc.start()
    try:
        for evaluate in (lambda: kernel.rows([2.0]), lambda: kernel.tail_sum([2.0], 1)):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            evaluate()
            assert tracemalloc.get_traced_memory()[1] - before < 8 * lv.d
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
    h = n//2 - (n//2) % 8, as one row or as rows of a 3-d block: the split
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
