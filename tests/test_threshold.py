import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import elementwise

import sparsefn.threshold as threshold
from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.threshold import (
    TOLERANCES,
    BracketError,
    PhiKernel,
    Tolerances,
    _solve_phi,
    _safe_expm1,
    adaptive_target,
    log_phi_objective,
    phi_objective,
    solve_adaptive_beta,
    solve_beta,
    solve_lambda_H,
)


def explicit(*vals):
    return make_loading(LoadingSpec("explicit", values=tuple(vals)))


def phi_direct(values, alpha, beta):
    """Linear-domain reference evaluation, independent of the log-domain path."""
    a = np.abs(np.asarray(values, dtype=float))
    w = np.exp(-beta / a**alpha)
    return float((a * w).sum() / math.sqrt(float((a**2 * w).sum())))


def test_phi_homogeneous_at_zero():
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    for alpha in (0.5, 1.0, 2.0):
        assert phi_objective(lv, alpha, 0.0) == pytest.approx(2.0, rel=1e-14)
    # sqrt(d) * exp(-beta/2) for homogeneous loadings, any alpha
    for beta in (-3.0, 0.7, 5.0):
        assert phi_objective(lv, 1.7, beta) == pytest.approx(2.0 * math.exp(-beta / 2), rel=1e-12)


def test_phi_is_finite_wherever_its_log_is_in_float_range():
    # sqrt(4) exp(-beta/2) = exp(709.5) = 1.355e308 < float max = exp(709.78)
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    beta = 2.0 * (math.log(2.0) - 709.5)
    lp = log_phi_objective(lv, 2.0, beta)
    assert lp == pytest.approx(709.5, rel=1e-15)
    assert phi_objective(lv, 2.0, beta) == math.exp(lp)
    assert phi_objective(lv, 2.0, beta) == pytest.approx(1.355e308, rel=1e-3)
    assert phi_objective(lv, 2.0, 2.0 * (math.log(2.0) - 710.0)) == math.inf


def test_phi_single_coordinate_cancellation():
    assert phi_objective(explicit(2.0), 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_phi_two_coordinate_fixture():
    # (2 e^{-1/2} + e^{-1}) / sqrt(4 e^{-1/2} + e^{-1}), frozen from the
    # direct-arithmetic oracle below
    lv = explicit(2.0, 1.0)
    expect = phi_direct([2.0, 1.0], 1.0, 1.0)
    got = phi_objective(lv, 1.0, 1.0)
    assert got == pytest.approx(expect, rel=1e-13)
    assert got == pytest.approx(0.9458063691067589, rel=1e-12)


@settings(max_examples=150)
@given(
    st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=1, max_size=20),
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.floats(min_value=-20.0, max_value=20.0),
)
def test_phi_log_domain_matches_direct(mags, alpha, beta):
    vals = tuple(sorted(mags, reverse=True))
    # keep the naive reference itself inside float range
    assume(abs(beta) / min(vals) ** alpha < 600.0)
    lv = make_loading(LoadingSpec("explicit", values=vals))
    assert phi_objective(lv, alpha, beta) == pytest.approx(
        phi_direct(vals, alpha, beta), rel=1e-11)


def test_log_domain_finite_on_extreme_grid():
    # 12 orders of magnitude; the log form stays finite over the full beta
    # range, the linear form wherever the true value is representable.
    vals = tuple(np.geomspace(1e6, 1e-6, 25))
    lv = make_loading(LoadingSpec("explicit", values=vals))
    for alpha in (0.5, 1.0, 2.0):
        for beta in (-1e6, -1e3, -1.0, 0.0, 1.0, 1e3, 1e6):
            lp = log_phi_objective(lv, alpha, beta)
            assert math.isfinite(lp)
            if lp < math.log(sys.float_info.max):
                p = phi_objective(lv, alpha, beta)
                assert math.isfinite(p) and p > 0.0


@settings(max_examples=100)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_phi_strictly_decreasing(mags, alpha, beta1, gap):
    lv = make_loading(LoadingSpec("explicit", values=tuple(sorted(mags, reverse=True))))
    assert log_phi_objective(lv, alpha, beta1) > log_phi_objective(lv, alpha, beta1 + gap)


@settings(max_examples=80)
@given(
    st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=1, max_size=20),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.1, max_value=10.0),
)
def test_phi_scale_covariance(mags, alpha, beta, c):
    # phi is scale-free in the loading up to the beta rescaling:
    # phi_{c eta}(beta) = phi_eta(beta / c^alpha), hence lambda_o scales as c.
    vals = tuple(sorted(mags, reverse=True))
    lv = make_loading(LoadingSpec("explicit", values=vals))
    lv_c = make_loading(LoadingSpec("explicit", values=tuple(c * v for v in vals)))
    assert phi_objective(lv_c, alpha, beta) == pytest.approx(
        phi_objective(lv, alpha, beta / c**alpha), rel=1e-10)


def test_lambda_scales_linearly_with_loading():
    vals = (3.0, 1.2, 0.4)
    lv = make_loading(LoadingSpec("explicit", values=vals))
    c = 2.5
    lv_c = make_loading(LoadingSpec("explicit", values=tuple(c * v for v in vals)))
    for alpha in (1.0, 2.0):
        s1 = solve_beta(lv, alpha, 0.5)
        s2 = solve_beta(lv_c, alpha, 0.5)
        assert s2.lambda_ == pytest.approx(c * s1.lambda_, rel=1e-8)


def test_solve_beta_homogeneous_closed_form():
    lv = make_loading(LoadingSpec("homogeneous", d=100))
    sol = solve_beta(lv, 2.0, 2.5)
    assert sol.beta == pytest.approx(2.0 * math.log(2.0 * 10.0 / 5.0), abs=1e-8)
    assert sol.lambda_ == pytest.approx(1.665109, abs=1e-6)
    assert abs(sol.residual) <= 1e-10 * 2.5


def test_solve_beta_root_at_zero():
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    sol = solve_beta(lv, 2.0, 2.0)  # phi(0) = sqrt(4) = 2 exactly
    assert sol.beta == 0.0
    assert sol.lambda_ == 0.0


def test_solve_beta_negative_root():
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    sol = solve_beta(lv, 2.0, 3.0)  # target above phi(0) forces beta < 0
    assert sol.beta < 0.0
    assert sol.lambda_ == 0.0
    assert phi_objective(lv, 2.0, sol.beta) == pytest.approx(3.0, rel=1e-9)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=1e-2, max_value=1e2), min_size=1, max_size=30),
    st.sampled_from([0.5, 1.0, 2.0, 4.0]),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_solve_beta_round_trip(mags, alpha, log10_scale):
    lv = make_loading(LoadingSpec("explicit", values=tuple(sorted(mags, reverse=True))))
    target = phi_objective(lv, alpha, 0.0) * 10.0**log10_scale
    sol = solve_beta(lv, alpha, target)
    assert abs(sol.residual) <= 1e-10 * target
    assert phi_objective(lv, alpha, sol.beta) == pytest.approx(target, rel=1e-9)


def test_adaptive_target_and_s1_identity():
    assert adaptive_target(1) == 0.5  # log(e) = 1
    lv = make_loading(LoadingSpec("homogeneous", d=100))
    a = solve_adaptive_beta(lv, 2.0, 1)
    o = solve_beta(lv, 2.0, 0.5)
    assert a.beta == o.beta and a.lambda_ == o.lambda_


def test_adaptive_beta_closed_form():
    lv = make_loading(LoadingSpec("homogeneous", d=100))
    sol = solve_adaptive_beta(lv, 2.0, 5)
    expect = 2.0 * math.log(2.0 * 10.0 * math.sqrt(1.0 + math.log(5.0)) / 5.0)
    assert sol.beta == pytest.approx(expect, abs=1e-8)
    assert sol.beta == pytest.approx(3.731, abs=1e-3)


def test_adaptive_equals_oracle_at_modified_target():
    rng = np.random.default_rng(3)
    for _ in range(5):
        vals = tuple(sorted(np.exp(rng.uniform(-2, 2, size=12)), reverse=True))
        lv = make_loading(LoadingSpec("explicit", values=vals))
        for s in (1, 3, 7):
            a = solve_adaptive_beta(lv, 1.5, s)
            o = solve_beta(lv, 1.5, s / math.sqrt(1.0 + math.log(s)) / 2.0)
            assert a.lambda_ == pytest.approx(o.lambda_, rel=1e-9, abs=1e-12)


def test_adaptive_lambda_nonincreasing_in_s():
    lv = make_loading(LoadingSpec("homogeneous", d=64))
    lams = [solve_adaptive_beta(lv, 2.0, s).lambda_ for s in range(1, 30)]
    assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_lambda_H_homogeneous_closed_form():
    lv = make_loading(LoadingSpec("homogeneous", d=110))
    sol = solve_lambda_H(lv, 1.0, 10)  # 11 terms: 11 exp(-lam) = 10
    assert sol.lambda_ == pytest.approx(math.log(1.1), abs=1e-8)
    assert abs(sol.residual) <= 1e-9 * 10


def test_lambda_H_boundary_zero():
    # d - s^2 + 1 == s terms: the sum at lambda = 0 already equals s
    lv = make_loading(LoadingSpec("homogeneous", d=109))
    sol = solve_lambda_H(lv, 1.0, 10)
    assert sol.lambda_ == 0.0
    assert sol.residual == 0.0


def test_lambda_H_round_trip_and_precondition():
    lv = make_loading(LoadingSpec("exp_decay", d=60, c=0.05, gamma=1.0))
    sol = solve_lambda_H(lv, 2.0, 5)
    tail = lv.abs_values[24:]
    total = float(np.exp(-((sol.lambda_ / tail) ** 2)).sum())
    assert total == pytest.approx(5.0, rel=1e-9)
    with pytest.raises(ValueError):
        solve_lambda_H(make_loading(LoadingSpec("homogeneous", d=10)), 1.0, 4)


def test_solver_rejects_bad_inputs():
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    with pytest.raises(ValueError):
        solve_beta(lv, 2.0, 0.0)
    with pytest.raises(ValueError):
        solve_beta(lv, 2.0, -1.0)
    with pytest.raises(ValueError):
        solve_adaptive_beta(lv, 2.0, 0)
    with pytest.raises(ValueError):
        solve_adaptive_beta(lv, 2.0, 5)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        log_phi_objective(lv, 0.0, 1.0)
    for alpha in (math.nan, math.inf):  # a non-finite alpha fails the type rule
        with pytest.raises(ValueError, match="^alpha: expected a finite number$"):
            PhiKernel(lv, alpha)


def test_tolerances_contract_recorded():
    tol = Tolerances()
    assert tol.rel == 1e-10 and tol.width == 1e-12
    assert tol.max_iter == 200 and tol.max_doublings == 120


# -- level kernel and batched bisection -------------------------------------------

def _dense_log_phi(values, alpha, beta):
    """Reference over every coordinate: log-sum-exps in plain numpy."""
    a = np.abs(np.asarray(values, dtype=float))
    w = -beta * a**-alpha
    x1, x2 = np.log(a) + w, 2.0 * np.log(a) + w
    lse = [m + math.log(float(np.exp(x - m).sum())) for x, m in ((x1, x1.max()), (x2, x2.max()))]
    return lse[0] - 0.5 * lse[1], lse[1]


def _random_tied_loading(rng):
    levels = np.sort(np.exp(rng.uniform(-2.0, 2.0, size=rng.integers(1, 6))))[::-1]
    counts = rng.integers(1, 40, size=levels.size)
    vals = np.repeat(levels, counts) * rng.choice([-1.0, 1.0], size=counts.sum())
    return make_loading(LoadingSpec("explicit", values=tuple(rng.permutation(vals))))


def test_level_kernel_matches_dense_formula_on_tied_loadings():
    rng = np.random.default_rng(5)
    for _ in range(30):
        lv = _random_tied_loading(rng)
        alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        betas = rng.uniform(-3.0, 6.0, size=7)
        kernel = PhiKernel(lv, alpha)
        assert kernel.levels.tied == (kernel.levels.values.size < lv.d)
        dense = [_dense_log_phi(lv.values, alpha, b) for b in betas]
        np.testing.assert_allclose(kernel.log_phi(betas), [p for p, _ in dense], rtol=1e-13)
        np.testing.assert_allclose(kernel.log_energy(betas), [e for _, e in dense], rtol=1e-13)
        start = int(rng.integers(0, lv.d))
        # (lam/|eta|)^alpha <= 3^alpha keeps exp's conditioning within the tolerance
        lams = rng.uniform(0.0, 3.0, size=4) * lv.abs_values[-1]
        tail = [float(np.exp(-((lam / lv.abs_values[start:]) ** alpha)).sum()) for lam in lams]
        log_tail = threshold._log_tail(lv.levels, alpha, start)(lams)[:, 0]
        np.testing.assert_allclose(np.exp(log_tail), tail, rtol=1e-13)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(PhiKernel, name)

    def counted(self, xs, *args):
        calls.append(np.asarray(xs).size)
        return original(self, xs, *args)

    monkeypatch.setattr(PhiKernel, name, counted)
    return calls


def counting_tail_rows(monkeypatch):
    """The number of lams in each call of the asym solve's rows."""
    calls = []
    log_tail = threshold._log_tail

    def counted(*args):
        rows = log_tail(*args)

        def counted_rows(lams):
            calls.append(np.asarray(lams).size)
            return rows(lams)

        return counted_rows

    monkeypatch.setattr(threshold, "_log_tail", counted)
    return calls


def test_each_iteration_is_one_kernel_evaluation(monkeypatch):
    # the bracket ends found by the expansion are not evaluated again
    lv = make_loading(LoadingSpec("homogeneous", d=1000))
    rows = _counting(monkeypatch, "_probe")
    sol = solve_beta(lv, 2.0, 5.0)
    assert rows == [1] * sol.iterations and sol.iterations == 6
    assert sol.beta == 3.6888794541139363 and sol.residual == 1.1102230246251565e-15
    tails = counting_tail_rows(monkeypatch)
    sol = solve_lambda_H(lv, 2.0, 5)
    # the row at 0 is log n, an evaluation without a kernel row
    assert tails == [1] * (sol.iterations - 1) and sol.iterations == 8
    assert sol.lambda_ == 2.2965244771131847


def _random_loading(rng, dmax=1000, lo=1e-2, hi=1e2):
    """The random loadings of acceptance criterion 1."""
    d = int(rng.integers(1, dmax + 1))
    mags = np.exp(rng.uniform(math.log(lo), math.log(hi), size=d))
    return make_loading(LoadingSpec("explicit", values=tuple(sorted(mags, reverse=True))))


def _bisection_evaluations(kernel, target, tol=Tolerances()):
    """Evaluations of g = log phi - log target that plain one-target bisection
    takes: the same expansion from 0, then midpoints until the residual is
    met, the bracket is narrower than width * max(|mid|, width), the midpoint
    rounds onto an end, or max_iter evaluations are spent."""
    log_t, cap = math.log(target), tol.rel

    def g(x):
        return float(kernel.log_phi([x])[0]) - log_t

    near, evals = 0.0, 1
    g_near = g(near)
    if g_near == 0.0:
        return evals
    sign, step = (1.0 if g_near > 0.0 else -1.0), 1.0
    while True:
        far, evals = sign * step, evals + 1
        if sign * g(far) <= 0.0:
            break
        near, step = far, 2.0 * step
    lo, hi = sorted((near, far))
    mid = 0.5 * (lo + hi)
    while evals < tol.max_iter and mid != lo and mid != hi:
        gm, evals = g(mid), evals + 1
        if abs(_safe_expm1(gm)) <= cap:
            break
        lo, hi = (mid, hi) if gm > 0.0 else (lo, mid)
        if hi - lo < tol.width * max(abs(mid), tol.width):
            break
        mid = 0.5 * (lo + hi)
    return evals


def test_solver_costs_no_more_than_bisection():
    # criterion 1's loadings and targets, drawn in the same order
    rng = np.random.default_rng(101)
    ours = bisection = 0
    for _ in range(1000):
        lv = _random_loading(rng)
        alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        kernel = PhiKernel(lv, alpha)
        target = math.exp(float(kernel.log_phi([0.0])[0])) * 10.0 ** rng.uniform(-3.0, 3.0)
        _beta, _g, iters, _log_nu2 = _solve_phi(kernel, [target])
        reference = _bisection_evaluations(kernel, target)
        assert iters[0] <= reference, (lv.d, alpha, target)
        ours += int(iters[0])
        bisection += reference
    assert bisection >= 2.5 * ours, (bisection, ours)
    assert ours <= 15651, ours  # the count before the exponent step waited for a stall


def _scipy_roots(f, levels, **domain):
    """Roots of the decreasing f(x, level) = 0, one per level, by SciPy's
    elementwise bracket search (from [0, 1], within ``domain``) and root finder."""
    bracket = elementwise.bracket_root(f, 0.0, args=(levels,), **domain)
    res = elementwise.find_root(f, bracket.bracket, args=(levels,))
    assert bracket.success.all() and res.success.all()
    return res.x


def _dense_log_phi_gap(values, alpha):
    """(beta, log level) -> log phi(beta) - log level over every coordinate,
    elementwise in beta: the log-sum-exps in plain float64 numpy."""
    a = np.abs(np.asarray(values, dtype=float))
    log_a, neg_r = np.log(a), -(a**-alpha)

    def lse(x):
        m = x.max(axis=-1)
        return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))

    def gap(beta, log_level):
        w = beta[..., None] * neg_r
        return lse(log_a + w) - 0.5 * lse(2.0 * log_a + w) - log_level

    return gap


def test_roots_lie_between_scipy_roots_of_the_perturbed_targets():
    # criterion 1's loadings: every root whose residual meets 1e-10 lies
    # between the roots of a dense phi at targets t (1 -+ 2e-10)
    rng = np.random.default_rng(101)
    rel = 2.0 * TOLERANCES.rel
    for _ in range(6):
        lv = _random_loading(rng)
        alpha = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        kernel = PhiKernel(lv, alpha)
        targets = np.exp(float(kernel.log_phi([0.0])[0])) * 10.0 ** rng.uniform(-3.0, 3.0, 4)
        gap = _dense_log_phi_gap(lv.values, alpha)
        lo = _scipy_roots(gap, np.log(targets * (1.0 + rel)))
        hi = _scipy_roots(gap, np.log(targets * (1.0 - rel)))
        ones = [solve_beta(lv, alpha, t).beta for t in targets.tolist()]
        batch = _solve_phi(kernel, targets)[0]
        for roots in (ones, batch):
            assert (lo <= roots).all() and (roots <= hi).all(), (lo, roots, hi)

        tail = lv.abs_values
        for s in (1, 2, 3):
            if s * s + s > lv.d + 1:
                break
            def tail_gap(lam, level, u=tail[s * s - 1:]):
                return np.exp(-((lam[..., None] / u) ** alpha)).sum(axis=-1) - level

            lo, hi = _scipy_roots(tail_gap, np.array([s * (1.0 + rel), s * (1.0 - rel)]),
                                  xmin=0.0)
            assert lo <= solve_lambda_H(lv, alpha, s).lambda_ <= hi, (lo, hi)


def test_log_phi_memo_changes_no_bits(monkeypatch):
    lv = make_loading(LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0))
    shared = PhiKernel(lv, 2.0)
    _solve_phi(shared, [0.5, 3.0])
    for targets in ([0.5], [3.0, 0.5], [0.7], [1e-3, 40.0], [3.0]):
        hit = _solve_phi(shared, targets)
        fresh = _solve_phi(PhiKernel(lv, 2.0), targets)
        for a, b in zip(hit, fresh):  # beta, g, iterations and log nu^2
            assert a.tolist() == b.tolist()
    rows = _counting(monkeypatch, "_probe_block")
    _solve_phi(shared, [3.0])
    assert rows == []  # every probe of a repeated one-target solve is remembered


@pytest.mark.parametrize("d, c, target", [(2000, 0.01, 20.0), (100, 2.0, 25.0),
                                           (100, 2.0, 1.5)])
def test_tiny_negative_root_meets_the_residual(d, c, target):
    # roots near -1e-16 and -2e-170: a width stop with an absolute floor of
    # width^2 ended these solves with the residual unmet, and midpoint steps
    # from a bracket end near -1 take more than max_iter steps to reach -2e-170
    lv = make_loading(LoadingSpec("exp_decay", d=d, c=c, gamma=1.0))
    sol = solve_beta(lv, 2.0, target)
    assert sol.beta < 0.0 and sol.lambda_ == 0.0
    assert sol.meets(Tolerances()), sol


def test_tiny_tail_root_meets_the_residual():
    # every tail term is 0 from lambda = 1 down to about 1e-48, so the
    # interpolation is refused there and the steps must still reach the root
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=2.0, gamma=1.0))
    sol = solve_lambda_H(lv, 2.0, 7)
    assert 0.0 < sol.lambda_ < 1e-40 and sol.meets(Tolerances()), sol


@pytest.mark.parametrize("s", [7, 8, 9])
def test_steep_tail_root_meets_the_residual(s):
    # every tail term is 0 from lambda = 1 down to about 1e-70: halving toward
    # 0 alone ran out of steps and returned lambda = 1 with residual -s
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=3.0, gamma=1.0))
    sol = solve_lambda_H(lv, 2.0, s)
    assert sol.meets(TOLERANCES) and sol.iterations <= 20, sol


def test_unmet_residual_raises(monkeypatch):
    monkeypatch.setattr(threshold, "TOLERANCES", Tolerances(max_iter=4))
    lv = make_loading(LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0))
    with pytest.raises(BracketError, match="residual unmet after 4 evaluations"):
        solve_beta(lv, 2.0, 3.0)
    with pytest.raises(BracketError, match="residual unmet"):
        solve_lambda_H(lv, 2.0, 7)


def _tail_residual(lv, alpha, lam, s):
    """Relative residual of the asym equation, summed over sorted positions."""
    with np.errstate(over="ignore", divide="ignore"):
        z = np.exp(alpha * (np.log(lam) - np.log(lv.abs_values[s * s - 1:])))
    return (float(np.exp(-z).sum()) - s) / s


@settings(max_examples=60)
@given(st.floats(min_value=0.05, max_value=5.0), st.integers(min_value=2, max_value=150),
       st.sampled_from([1.0, 1.5]), st.floats(min_value=0.5, max_value=4.0),
       st.integers(min_value=1, max_value=12))
def test_steep_exp_decay_solves_meet_the_residual_or_raise(c, d, gamma, alpha, s):
    assume(c * (d - 1) ** gamma < 700.0)  # no loading underflows to 0
    lv = make_loading(LoadingSpec("exp_decay", d=d, c=c, gamma=gamma))
    s = min(s, d)
    solves = [(lambda: solve_beta(lv, alpha, s / 2.0), "phi"),
              (lambda: solve_adaptive_beta(lv, alpha, s), "phi")]
    if s * s + s <= d + 1:
        solves.append((lambda: solve_lambda_H(lv, alpha, s), "tail"))
    for solve, kind in solves:
        try:
            sol = solve()
        except BracketError:
            continue
        if kind == "phi":
            rel = _safe_expm1(log_phi_objective(lv, alpha, sol.beta) - math.log(sol.target))
        else:
            rel = _tail_residual(lv, alpha, sol.lambda_, s)
        assert abs(rel) <= TOLERANCES.rel, (sol, rel)


def _phi0_target(lv, alpha):
    """A target whose log is log phi(0) exactly, so that g(0) == 0."""
    log_phi0 = float(PhiKernel(lv, alpha).log_phi([0.0])[0])
    target = math.exp(log_phi0)
    for _ in range(8):
        if math.log(target) == log_phi0:
            return target
        target = math.nextafter(target, math.inf if math.log(target) < log_phi0 else 0.0)
    raise AssertionError("no float target at phi(0)")


def _assert_batch_equals_one_target_solves(lv, alpha, targets):
    """Batched on arrays, every target gets the root, evaluation count and
    residual of its one-target solve in Python."""
    ones = [solve_beta(lv, alpha, target) for target in targets]
    beta, g, iters, _log_nu2 = _solve_phi(PhiKernel(lv, alpha), targets)
    for i, (target, one) in enumerate(zip(targets, ones)):
        assert (beta[i], iters[i]) == (one.beta, one.iterations)
        assert _safe_expm1(g[i]) * target == one.residual


@pytest.mark.parametrize("spec", [
    LoadingSpec("homogeneous", d=500),
    LoadingSpec("two_phase", d=10_000, gamma_d=0.4, gamma_lambda=0.2),
    LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0),
    LoadingSpec("explicit", values=tuple(np.random.default_rng(8).lognormal(size=300))),
])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_batched_ladder_equals_one_target_solves(spec, alpha):
    lv = make_loading(spec)
    phi0 = _phi0_target(lv, alpha)
    # phi(0) itself gives g == 0; targets above it give negative roots
    assert solve_beta(lv, alpha, phi0).iterations == 1
    targets = [adaptive_target(s) for s in range(1, 121)] + [0.01, 1e3, phi0, 1.5 * phi0]
    _assert_batch_equals_one_target_solves(lv, alpha, targets)


def test_batched_steep_roots_take_the_one_target_steps():
    # roots far below their bracket's end at 0: the exponent step and the
    # geometric steps after it
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=3.0, gamma=1.0))
    targets = [s / 2.0 for s in range(1, 10)] + [adaptive_target(s) for s in range(1, 10)]
    _assert_batch_equals_one_target_solves(lv, 2.0, targets)


def test_a_halving_that_halves_g_takes_no_exponent_step():
    # the halvings toward 0 of these solves miss the root but halve |g|, so
    # the objective is not flat there: an exponent step after them (as after
    # any halving that missed the root) took 24 and 19 evaluations
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=3.0, gamma=1.0))
    assert solve_beta(lv, 2.0, 1.0).iterations <= 12
    assert solve_lambda_H(lv, 2.0, 1).iterations <= 13
    _assert_batch_equals_one_target_solves(lv, 2.0, [0.5, 1.0, 1.5, adaptive_target(2)])


@pytest.mark.parametrize("alpha, ss", [(0.5, (63, 66)), (1.0, (47, 80)), (2.0, (40, 62))])
def test_steep_adaptive_roots_meet_the_residual(alpha, ss):
    # roots so steep that a bracket 1e-12 wide (relative) moves phi by more
    # than 1e-10: a width stop ended these solves with the residual unmet
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=3.0, gamma=1.0))
    for s in ss:
        assert solve_adaptive_beta(lv, alpha, s).meets(TOLERANCES), s
    _assert_batch_equals_one_target_solves(lv, alpha, [adaptive_target(s) for s in ss])


def test_two_targets_step_on_arrays(monkeypatch):
    def python_step(*args):
        raise AssertionError("a batch of two steps on arrays")

    lv = make_loading(LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0))
    ones = [solve_beta(lv, 2.0, target) for target in (0.5, 3.0)]
    monkeypatch.setattr(threshold, "_chandrupatla_x", python_step)
    beta, _g, iters, _log_nu2 = _solve_phi(PhiKernel(lv, 2.0), [0.5, 3.0])
    assert beta.tolist() == [one.beta for one in ones]
    assert iters.tolist() == [one.iterations for one in ones]


def test_batch_raises_as_its_first_failing_target():
    # targets above phi(0) = 1 have roots in (-5e-324, 0); 1e3 fails first
    lv = explicit(1.0, 1e-100)
    targets = [0.5, 0.9, 1e3, 2.0]
    with pytest.raises(BracketError, match="below float resolution") as one:
        solve_beta(lv, 4.0, 1e3)
    with pytest.raises(BracketError) as batch:
        _solve_phi(PhiKernel(lv, 4.0), targets)
    assert str(batch.value) == str(one.value)


@pytest.mark.parametrize("resid, scale", [(_safe_expm1, 1.0), (lambda v: v / 7.0, 7.0)],
                         ids=["expm1", "tail"])
def test_meets_band_decides_as_the_scalar_stop_test(resid, scale):
    rel = TOLERANCES.rel
    lo, hi = threshold._meets_band(resid, rel)
    assert -2.0 * rel * scale < lo < 0.0 < hi < 2.0 * rel * scale
    for edge in (lo, hi):
        g = edge
        for _ in range(3000):
            g = math.nextafter(g, -math.inf)
        for _ in range(6000):
            assert (lo <= g <= hi) == (abs(resid(g)) <= rel), g
            g = math.nextafter(g, math.inf)
    for g in (0.0, -0.0, 1.0, -1.0, 800.0, -800.0, math.inf, -math.inf):
        assert (lo <= g <= hi) == (abs(resid(g)) <= rel)


def test_log_phi_finite_loading_limits():
    # |eta|^-alpha overflows: the true log is far above the float range
    assert log_phi_objective(explicit(1.0, 1e-100), 4.0, -1.0) == math.inf
    # ... and at beta > 0 the tiny coordinate's weight is exactly 0: phi = e^-1/2
    assert log_phi_objective(explicit(1.0, 1e-100), 4.0, 1.0) == -0.5
    lv = explicit(1e200, 1e-200)
    assert math.isfinite(log_phi_objective(lv, 2.0, 0.0))
    sol = solve_beta(lv, 2.0, 1.0)
    assert sol.meets(Tolerances())


def test_root_below_float_resolution_raises():
    # phi(beta) = 1e3 at beta ~ -1.4e-399: every float beta < 0 gives phi = inf
    with pytest.raises(BracketError, match="below float resolution"):
        solve_beta(explicit(1.0, 1e-100), 4.0, 1e3)
    # a tiny negative root that floats can hold still returns its lambda = 0
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=2.0, gamma=1.0))
    assert solve_beta(lv, 2.0, 25.0).lambda_ == 0.0


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=-300.0, max_value=300.0), min_size=1, max_size=12),
    st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    st.one_of(st.floats(min_value=-1e3, max_value=1e3),
              st.floats(min_value=-1e300, max_value=1e300)),
    st.floats(min_value=1e-300, max_value=1e300),
)
def test_log_phi_never_nan_over_600_decades(exponents, alpha, beta, gap):
    lv = make_loading(LoadingSpec("explicit",
                                  values=tuple(sorted((10.0**e for e in exponents), reverse=True))))
    beta2 = beta + gap
    assume(math.isfinite(beta2) and beta2 > beta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lo, hi = log_phi_objective(lv, alpha, beta), log_phi_objective(lv, alpha, beta2)
    assert not (math.isnan(lo) or math.isnan(hi))
    # non-increasing up to the rounding of log-sum-exps whose terms reach
    # 2 log|eta| in magnitude, where phi is flat in beta
    scale = 1.0 + 2.0 * math.log(10.0) * max(abs(e) for e in exponents)
    assert hi <= lo + 8.0 * np.finfo(float).eps * scale
