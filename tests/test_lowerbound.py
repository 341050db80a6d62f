import math

import numpy as np
import pytest

from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.lowerbound import (
    _binomial_cdf,
    build_prior,
    chi2_mixture_bound,
    chi2_shifted_extremal,
    draw_prior,
    prior_moments,
    sample_prior,
)
from sparsefn.noise import sigma_alpha
from sparsefn.rates import oracle_rate
from sparsefn.streams import Stream

HOM100 = make_loading(LoadingSpec("homogeneous", d=100))


def test_homogeneous_prior_fixture():
    prior = build_prior(HOM100, 2.0, 5, c1=1.0)
    # beta = 2 log 4, so exp(-beta) = 1/16 and nu = 2.5: pi_j = 1/40
    np.testing.assert_allclose(prior.pi, np.full(100, 0.025), rtol=1e-8)
    assert prior.pi.sum() == pytest.approx(0.5 * 1.0 * 5, rel=1e-8)
    assert prior.j1 == 0
    np.testing.assert_allclose(prior.gamma, np.full(100, prior.lambda_o), rtol=1e-12)


def test_construction_identity_sum_pi():
    # sum pi_j = c1 s / 2 exactly when lambda_o > 0 (the threshold equation)
    for spec, alpha, s in ((LoadingSpec("homogeneous", d=100), 2.0, 5),
                           (LoadingSpec("two_phase", d=100, gamma_d=0.4, gamma_lambda=0.2), 1.0, 3),
                           (LoadingSpec("exp_decay", d=80, c=0.05, gamma=1.0), 2.0, 2)):
        lv = make_loading(spec)
        assert oracle_rate(lv, alpha, s).lambda_o > 0
        prior = build_prior(lv, alpha, s, c1=0.5)
        assert prior.pi.sum() == pytest.approx(0.25 * s, rel=1e-8)


def test_eta_gamma_shape_and_monotonicity():
    lv = make_loading(LoadingSpec("two_phase", d=64, gamma_d=0.5, gamma_lambda=0.3))
    prior = build_prior(lv, 2.0, 3, c1=0.5, c_alpha2=1.3)
    etag = lv.values * prior.gamma
    np.testing.assert_allclose(etag, 1.3 * np.maximum(lv.abs_values, prior.lambda_o),
                               rtol=1e-12)
    assert np.all(etag[:-1] >= etag[1:] - 1e-15)
    # head values are pure signs times the constant
    np.testing.assert_allclose(np.abs(prior.gamma[: prior.j1]), 1.3)


def test_mean_L_lower_bound():
    prior = build_prior(HOM100, 2.0, 5, c1=1.0)
    mom = prior_moments(prior)
    floor = 0.25 * 1.0 * (prior.lambda_o * 5 + prior.nu)
    assert mom.mean_L >= floor


def test_var_L_dominated():
    for c1 in (0.25, 1.0):
        prior = build_prior(HOM100, 2.0, 5, c1=c1, c_alpha2=1.0)
        mom = prior_moments(prior)
        cap = prior.c_alpha2 * max(abs(HOM100.values[0]), prior.lambda_o) * mom.mean_L
        assert mom.var_L <= cap + 1e-12


def test_moments_closed_forms():
    prior = build_prior(HOM100, 2.0, 5, c1=1.0)
    mom = prior_moments(prior)
    assert mom.mean_support == pytest.approx(2.5, rel=1e-8)
    assert mom.var_support == pytest.approx(2.5 * 0.975, rel=1e-8)
    d1 = make_loading(LoadingSpec("explicit", values=(1.0,)))
    p1 = build_prior(d1, 2.0, 1, c1=0.5)
    m1 = prior_moments(p1)
    assert m1.mean_support == pytest.approx(float(p1.pi[0]))
    assert m1.mean_L == pytest.approx(float(p1.pi[0] * p1.gamma[0]))


def test_rejects_bad_configurations():
    with pytest.raises(ValueError):
        build_prior(HOM100, 2.0, 5, c1=2.5)
    with pytest.raises(ValueError):
        build_prior(HOM100, 2.0, 5, c1=0.5, c_alpha2=-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^c_alpha2: expected a finite number$"):
            build_prior(HOM100, 2.0, 5, c1=0.5, c_alpha2=bad)
    # one dominant coordinate with beta_+ = 0 concentrates the whole
    # activation mass there: pi_1 ~ c1 > 1 must be rejected
    skew = make_loading(LoadingSpec("explicit", values=(1.0, 0.01, 0.01, 0.01)))
    with pytest.raises(ValueError):
        build_prior(skew, 2.0, 3, c1=1.9)


def test_sampling_moments_match_clt_bands():
    prior = build_prior(HOM100, 2.0, 5, c1=1.0)
    mom = prior_moments(prior)
    n = 100_000
    theta = sample_prior(prior, 7, size=n)
    support = (theta != 0).sum(axis=1)
    grand = theta @ HOM100.original_values
    for obs, mean, var in ((support.mean(), mom.mean_support, mom.var_support),
                           (grand.mean(), mom.mean_L, mom.var_L)):
        band = 3.0 * math.sqrt(var / n)
        assert abs(obs - mean) <= band, (obs, mean, band)


def test_sampling_deterministic_and_shapes():
    prior = build_prior(HOM100, 2.0, 5, c1=0.5)
    a = sample_prior(prior, 3, size=10)
    b = sample_prior(prior, 3, size=10)
    np.testing.assert_array_equal(a, b)
    single = sample_prior(prior, 3)
    assert single.shape == (100,)
    assert a.shape == (10, 100)


def test_tiny_pi_rarely_activates():
    lv = make_loading(LoadingSpec("explicit", values=(1.0, 1.0, 1.0, 1.0)))
    prior = build_prior(lv, 2.0, 1, c1=1e-12)
    theta = sample_prior(prior, 11, size=10_000)
    assert (theta != 0).mean() <= 1e-6


def test_chi2_bound_fixture_and_monotonicity():
    # homogeneous d=100, s=5, alpha=2, c1=1: sum pi^2 exp(gamma^2) = 1 exactly,
    # because exp(beta) = 16 cancels the squared suppression
    prior = build_prior(HOM100, 2.0, 5, c1=1.0)
    b = chi2_mixture_bound(prior, 2.0)
    assert b.bound == pytest.approx(math.e, rel=1e-7)
    assert b.tv_bound == pytest.approx(math.sqrt(math.e - 1.0) / 2.0, rel=1e-7)

    bounds = [chi2_mixture_bound(build_prior(HOM100, 2.0, 5, c1=c), 2.0).bound
              for c in (0.1, 0.5, 1.0, 1.5)]
    assert all(x < y for x, y in zip(bounds, bounds[1:]))

    tiny = build_prior(HOM100, 2.0, 5, c1=1e-9)
    bt = chi2_mixture_bound(tiny, 2.0)
    assert bt.bound == pytest.approx(1.0, abs=1e-12)
    assert bt.tv_bound == pytest.approx(0.0, abs=1e-6)

    with pytest.raises(ValueError):
        chi2_mixture_bound(prior, 2.0, c_alpha1=0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c_alpha1 must be >= 1 and finite"):
            chi2_mixture_bound(prior, 2.0, c_alpha1=bad)
    # exp(sum) beyond the float range is an infinite bound, not an OverflowError
    huge = chi2_mixture_bound(prior, 2.0, c_alpha1=1e5)
    assert huge.bound == math.inf and huge.tv_bound == math.inf


def test_chi2_quadrature_cross_check():
    # alpha = 2: the extremal density is standard normal, where the shifted
    # chi-square has the closed form exp(gamma^2); quadrature must match it
    for g in (0.25, 0.5, 1.0, 2.0):
        q = chi2_shifted_extremal(2.0, g)
        assert q == pytest.approx(math.exp(g * g), rel=1e-12)
    # alpha = 1: the analytic chain bounds the true value by exp(2|gamma|/sigma_1)
    s1 = sigma_alpha(1.0)
    for g in (0.25, 0.5, 1.0, 2.0):
        assert chi2_shifted_extremal(1.0, g) <= math.exp(2.0 * g / s1)


def test_separation_event_large_s_fixture():
    # designated fixture: s = 30 with lambda_o s + nu well above |eta_1|
    lv = make_loading(LoadingSpec("homogeneous", d=10_000))
    prof = oracle_rate(lv, 2.0, 30)
    scale = prof.lambda_o * 30 + prof.nu
    assert scale >= 30.0 * abs(lv.values[0])
    prior = build_prior(lv, 2.0, 30, c1=0.5)
    theta = sample_prior(prior, 123, size=10_000)
    support_ok = (theta != 0).sum(axis=1) <= 30
    l_ok = theta @ lv.original_values >= (0.5 / 8.0) * 1.0 * scale
    freq = float(np.mean(support_ok & l_ok))
    assert freq >= 0.7, freq


def test_build_prior_reuses_a_calculator(monkeypatch):
    import sparsefn.rates as rates
    from sparsefn.rates import RateCalculator

    lv = make_loading(LoadingSpec("two_phase", d=300, gamma_d=0.4, gamma_lambda=0.2))
    fresh = build_prior(lv, 1.0, 4, c1=1.0)
    calc = RateCalculator(lv, 1.0)
    calc.oracle(4)
    solves = []
    monkeypatch.setattr(rates, "_solve_phi", lambda *a: solves.append(a))
    shared = build_prior(lv, 1.0, 4, c1=1.0, calculator=calc)
    assert solves == []
    assert np.array_equal(shared.pi, fresh.pi)
    assert np.array_equal(shared.gamma, fresh.gamma)
    assert (shared.lambda_o, shared.nu, shared.j1) == (fresh.lambda_o, fresh.nu, fresh.j1)


# -- per-level draws -------------------------------------------------------------------

TIED_SIGNED = make_loading(LoadingSpec("explicit", values=(
    3.0, -3.0, 3.0, 2.0, -2.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 0.5, -0.25)))


@pytest.mark.parametrize("lv", [HOM100, TIED_SIGNED,
                                make_loading(LoadingSpec("exp_decay", d=50, c=0.05, gamma=1.0))],
                         ids=["homogeneous", "tied_signed", "untied"])
def test_prior_draws_have_the_prefix_property(lv):
    prior = build_prior(lv, 2.0, 3, c1=1.0)
    stream = Stream(17, "cell", [], "theta")
    short, long = draw_prior(prior, stream, 40), draw_prior(prior, stream, 80)
    np.testing.assert_array_equal(short, long[:40])
    np.testing.assert_array_equal(draw_prior(prior, stream), short[0])


def test_level_draws_match_pi_per_position_and_gamma():
    prior = build_prior(TIED_SIGNED, 2.0, 4, c1=1.5)
    assert prior._level_tables is not None  # the tied path
    n = 200_000
    theta = TIED_SIGNED.to_sorted(draw_prior(prior, Stream(2, "levels"), n))
    active = theta != 0
    band = 4.0 * np.sqrt(prior.pi * (1.0 - prior.pi) / n)
    assert np.all(np.abs(active.mean(axis=0) - prior.pi) <= band + 1e-12)
    rows, cols = np.nonzero(active)
    np.testing.assert_array_equal(theta[rows, cols], prior.gamma[cols])
    # counts in one level are binomial: the variance of the support matches
    support = active.sum(axis=1)
    var = float((prior.pi * (1.0 - prior.pi)).sum())
    assert abs(support.var() - var) <= 0.05 * var


@pytest.mark.parametrize("n, p", [(1, 0.3), (15, 0.17), (985, 1e-7), (10_000, 2.5e-4),
                                  (4000, 0.45)])
def test_binomial_cdf_table_matches_scipy(n, p):
    from scipy.stats import binom

    cdf = _binomial_cdf(n, p)
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
    k = np.arange(cdf.size)
    np.testing.assert_allclose(cdf[:-1], binom.cdf(k[:-1], n, p), rtol=1e-11, atol=1e-15)
    assert binom.sf(cdf.size - 1, n, p) < 1e-15  # the mass past the table


def test_tied_draw_reads_levels_plus_support_uniforms(monkeypatch):
    lv = make_loading(LoadingSpec("homogeneous", d=10_000))
    prior = build_prior(lv, 2.0, 30, c1=0.5)
    widths = []
    real = Stream.uniforms

    def recording(self, replicates, width):
        widths.append(width)
        return real(self, replicates, width)

    monkeypatch.setattr(Stream, "uniforms", recording)
    sample_prior(prior, 1, size=3)
    assert len(widths) == 1 and widths[0] < 100  # one level plus the count budget, not d
