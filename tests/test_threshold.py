import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.threshold import (
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


@settings(max_examples=150, deadline=None)
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
            if lp < 700.0:
                p = phi_objective(lv, alpha, beta)
                assert math.isfinite(p) and p > 0.0


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_phi_strictly_decreasing(mags, alpha, beta1, gap):
    lv = make_loading(LoadingSpec("explicit", values=tuple(sorted(mags, reverse=True))))
    assert log_phi_objective(lv, alpha, beta1) > log_phi_objective(lv, alpha, beta1 + gap)


@settings(max_examples=80, deadline=None)
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


@settings(max_examples=60, deadline=None)
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
    with pytest.raises(ValueError):
        log_phi_objective(lv, 0.0, 1.0)


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
        np.testing.assert_allclose(kernel.tail_sum(lams, start), tail, rtol=1e-13)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(PhiKernel, name)

    def counted(self, xs, *args):
        calls.append(np.asarray(xs).size)
        return original(self, xs, *args)

    monkeypatch.setattr(PhiKernel, name, counted)
    return calls


def test_each_iteration_is_one_kernel_evaluation(monkeypatch):
    # the bracket ends found by the expansion are not evaluated again
    lv = make_loading(LoadingSpec("homogeneous", d=1000))
    rows = _counting(monkeypatch, "log_phi")
    sol = solve_beta(lv, 2.0, 5.0)
    assert rows == [1] * sol.iterations and sol.iterations == 6
    assert sol.beta == 3.6888794541139363 and sol.residual == 1.1102230246251565e-15
    tails = _counting(monkeypatch, "tail_sum")
    sol = solve_lambda_H(lv, 2.0, 5)
    assert tails == [1] * sol.iterations and sol.iterations == 12
    assert sol.lambda_ == 2.2965244771153515


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
    log_t, cap = math.log(target), tol.rel + tol.abs / target

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
        _beta, _g, iters = _solve_phi(kernel, [target], None)
        reference = _bisection_evaluations(kernel, target)
        assert iters[0] <= reference, (lv.d, alpha, target)
        ours += int(iters[0])
        bisection += reference
    assert bisection >= 2.5 * ours, (bisection, ours)


def test_log_phi_memo_changes_no_bits(monkeypatch):
    lv = make_loading(LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0))
    shared = PhiKernel(lv, 2.0)
    _solve_phi(shared, [0.5, 3.0], None)
    for targets in ([0.5], [3.0, 0.5], [0.7], [1e-3, 40.0]):
        hit = _solve_phi(shared, targets, None)
        fresh = _solve_phi(PhiKernel(lv, 2.0), targets, None)
        for a, b in zip(hit, fresh):  # beta, g and iterations
            assert a.tolist() == b.tolist()
    rows = _counting(monkeypatch, "_probe_block")
    _solve_phi(shared, [3.0], None)
    assert rows == []  # every probe of a repeated target is remembered


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


@pytest.mark.parametrize("spec", [
    LoadingSpec("homogeneous", d=500),
    LoadingSpec("two_phase", d=10_000, gamma_d=0.4, gamma_lambda=0.2),
    LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0),
    LoadingSpec("explicit", values=tuple(np.random.default_rng(8).lognormal(size=300))),
])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_batched_ladder_equals_one_target_solves(spec, alpha):
    lv = make_loading(spec)
    targets = [adaptive_target(s) for s in range(1, 121)] + [0.01, 1e3]
    beta, g, iters = _solve_phi(PhiKernel(lv, alpha), targets, None)
    for i, target in enumerate(targets):
        one = solve_beta(lv, alpha, target)
        assert (beta[i], iters[i]) == (one.beta, one.iterations)
        assert _safe_expm1(g[i]) * target == one.residual


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


@settings(max_examples=200, deadline=None)
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
