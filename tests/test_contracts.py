"""Contracts drawn over the inputs the types admit rather than fixtures.

The batched adaptive ladder (``RateCalculator.table``) against the one-target
solves it must reproduce, and the asym solve against its residual contract,
on explicit loadings whose |eta| spans 1e-300 to 1e300, with ties and signs,
at every sparsity level.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.rates import RateCalculator
from sparsefn.threshold import (TOLERANCES, BracketError, PhiKernel, solve_adaptive_beta,
                                solve_lambda_H)
from test_threshold import _tail_residual, counting_tail_rows


def _bits(xs) -> list[int]:
    """The float64 bit patterns of xs: equal bits, not equal values (-0.0 != 0.0)."""
    return np.asarray(xs, dtype=float).view(np.uint64).tolist()


@st.composite
def explicit_loadings(draw):
    """d = 1..2000 entries of random sign on one to five magnitude levels
    10^e, e in [-300, 300] or, as often, in [-5, 5]; with jitter the ties
    mostly break.  Roots grow as |eta|^alpha, so a level far above 1 leaves
    the ladder no bracket within ``max_doublings``, and one far below 1
    leaves it a root below float resolution: both raise."""
    d = draw(st.integers(min_value=1, max_value=2000))
    exponent = st.floats(min_value=-300.0, max_value=300.0) | st.floats(min_value=-5.0,
                                                                         max_value=5.0)
    exponents = draw(st.lists(exponent, min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    mags = 10.0 ** rng.choice(exponents, size=d)
    if draw(st.booleans()):
        mags *= rng.uniform(1.0, 1.5, size=d)
    values = rng.choice([-1.0, 1.0], size=d) * mags
    return make_loading(LoadingSpec("explicit", values=tuple(values.tolist())))


@settings(max_examples=30)
@given(explicit_loadings(), st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_ladder_equals_its_one_target_solves(lv, alpha):
    calc = RateCalculator(lv, alpha)
    ss = range(1, min(calc.s0(), lv.d) + 1)
    try:
        table = calc.table()
    except BracketError as batch:
        # the batch raises as its first failing target does alone
        for s in ss:
            try:
                solve_adaptive_beta(lv, alpha, s)
            except BracketError as one:
                assert str(one) == str(batch)
                return
        raise AssertionError(f"the ladder raised {batch!r}, no one-target solve did")

    targets, beta, g, iters, _log_nu2 = calc._ladder
    ones = [solve_adaptive_beta(lv, alpha, s) for s in ss]
    assert _bits(targets) == _bits([one.target for one in ones])
    assert _bits(beta) == _bits([one.beta for one in ones])
    assert iters.tolist() == [one.iterations for one in ones]
    assert _bits([calc.star_solution(s).residual for s in ss]) == _bits(
        [one.residual for one in ones])
    assert all(one.meets(TOLERANCES) for one in ones)

    per_s = RateCalculator(lv, alpha)
    assert _bits(table.lambda_star) == _bits([per_s.lambda_star(s) for s in ss])
    assert table.j2.tolist() == [per_s.j2(s) for s in ss]
    energy = PhiKernel(lv, alpha).log_energy(np.maximum(beta, 0.0))
    nu = np.sqrt((1.0 + np.log(np.arange(1, len(ss) + 1))) * np.exp(energy))
    assert _bits(table.nu_star) == _bits(nu)


def _asym_solves(lv, alpha: float):
    """(s, solution or the BracketError) for every s with s^2 + s <= d + 1."""
    s = 1
    while s * s + s <= lv.d + 1:
        try:
            yield s, solve_lambda_H(lv, alpha, s)
        except BracketError as err:
            yield s, err
        s += 1


@settings(max_examples=30)
@given(explicit_loadings(), st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0]))
def test_asym_roots_meet_the_residual_or_raise(lv, alpha):
    """Every asym solve meets 1e-10 by a direct sum over sorted positions or
    raises BracketError, without a RuntimeWarning or a NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solves = list(_asym_solves(lv, alpha))
    for s, sol in solves:
        if isinstance(sol, BracketError):
            continue
        assert not math.isnan(sol.lambda_) and not math.isnan(sol.residual), (s, sol)
        assert sol.meets(TOLERANCES), (s, sol)
        assert abs(_tail_residual(lv, alpha, sol.lambda_, s)) <= TOLERANCES.rel, (s, sol)


def test_asym_root_far_above_one_is_bracketed():
    """Thirty loadings of 1e40: the root lies near 1.6e40, beyond the 2^120
    that an expansion from 1 reaches; from the tail's own scale it takes a
    few evaluations."""
    lv = make_loading(LoadingSpec("explicit", values=(1e40,) * 30))
    sol = solve_lambda_H(lv, 2.0, 2)
    assert 1e40 < sol.lambda_ < 2e40 and sol.iterations <= 7, sol
    assert abs(_tail_residual(lv, 2.0, sol.lambda_, 2)) <= TOLERANCES.rel


def test_asym_rows_on_the_rate_benchmark_loadings(monkeypatch):
    """The kernel rows of ``solve --equation asym --s 2`` on the two loading
    shapes of the rate benchmark, at d = 2e4 (pinned from a first
    measurement; an expansion from 1 took 14 and 15 at d = 2.5e5)."""
    d = 20_000
    rows = counting_tail_rows(monkeypatch)
    for spec, want in ((LoadingSpec("exp_decay", d=d, c=2.0 / d, gamma=1.0), 6),
                       (LoadingSpec("two_phase", d=d, gamma_d=0.4, gamma_lambda=0.2), 8)):
        rows.clear()
        sol = solve_lambda_H(make_loading(spec), 1.0, 2)
        assert sol.meets(TOLERANCES) and len(rows) == sol.iterations - 1 == want, (spec, rows)
