import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

import sparsefn.noise as noise_module
from sparsefn.noise import (
    NoiseModel,
    class_tail_bound,
    minimal_tau,
    sample,
    sample_with,
    sigma_alpha,
    tail_check,
)
from sparsefn.streams import Stream

GAUSS = NoiseModel("gaussian", 2.0, 2.0, "G")


def test_sigma_alpha_gaussian_identity():
    # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2
    assert sigma_alpha(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert sigma_alpha(1.0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-14)


def test_minimal_tau_fixtures():
    assert minimal_tau(2.0) == pytest.approx(2.0 * math.sqrt(2.0) / math.sqrt(3.0), rel=1e-14)
    assert minimal_tau(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-14)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        t = minimal_tau(alpha)
        assert math.isfinite(t) and t > 0.0


def test_model_validation():
    with pytest.raises(ValueError):
        NoiseModel("cauchy", 2.0, 2.0, "G")
    with pytest.raises(ValueError):
        NoiseModel("gaussian", -1.0, 2.0, "G")
    with pytest.raises(ValueError):
        NoiseModel("gaussian", 2.0, 2.0, "X")
    with pytest.raises(ValueError):
        NoiseModel("shifted_exponential", 1.0, 2.0, "G")  # asymmetric, class H only
    NoiseModel("shifted_exponential", 1.0, 2.0, "H")


@pytest.mark.parametrize("alpha, tau", [(math.nan, 2.0), (math.inf, 2.0),
                                        (2.0, math.nan), (2.0, math.inf)])
def test_model_rejects_non_finite(alpha, tau):
    with pytest.raises(ValueError, match="finite"):
        NoiseModel("gaussian", alpha, tau, "G")


def test_determinism_and_stream_separation():
    a = sample(GAUSS, 1000, 123)
    b = sample(GAUSS, 1000, 123)
    np.testing.assert_array_equal(a, b)
    c = sample(GAUSS, 1000, 124)
    assert not np.array_equal(a, c)
    # prefix property is not required, but same (model, seed, n) is bitwise fixed
    assert a.dtype == np.float64


def test_rademacher_exact_unit_square():
    x = sample(NoiseModel("rademacher", 1.0, 2.0, "G"), 10_000, 5)
    assert set(np.unique(x)) == {-1.0, 1.0}
    assert np.mean(x**2) == 1.0


def test_uniform_support_and_variance():
    x = sample(NoiseModel("uniform_sym", 1.0, 2.0, "G"), 200_000, 6)
    assert np.all(np.abs(x) <= math.sqrt(3.0))
    assert np.var(x) == pytest.approx(1.0, abs=0.01)


def test_shifted_exponential_moments():
    x = sample(NoiseModel("shifted_exponential", 1.0, 2.0, "H"), 400_000, 7)
    assert np.min(x) >= -1.0
    assert np.mean(x) == pytest.approx(0.0, abs=0.01)
    assert np.var(x) == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_symm_weibull_unit_variance_and_symmetry(alpha):
    m = NoiseModel("symm_weibull", alpha, 2.0, "G")
    x = sample(m, 400_000, 17)
    assert np.var(x) == pytest.approx(1.0, abs=0.02)
    assert np.mean(np.sign(x)) == pytest.approx(0.0, abs=3.0 / math.sqrt(x.size))


def test_symm_weibull_alpha1_variance_band_at_scale():
    x = sample(NoiseModel("symm_weibull", 1.0, 2.0, "G"), 1_000_000, 18)
    assert 0.99 <= np.var(x) <= 1.01


@pytest.mark.parametrize("family", ["gaussian", "symm_weibull", "rademacher", "uniform_sym"])
def test_class_G_families_are_symmetric(family):
    m = NoiseModel(family, 1.5, 2.0, "G")
    x = sample(m, 100_000, 51)
    assert abs(np.mean(np.sign(x))) <= 3.0 / math.sqrt(x.size)


def test_symm_weibull_alpha2_is_gaussian():
    x = sample(NoiseModel("symm_weibull", 2.0, 2.0, "G"), 100_000, 21)
    g = sample(GAUSS, 100_000, 22)
    assert ks_2samp(x, g).pvalue > 1e-3


def test_gaussian_variance():
    x = sample(GAUSS, 1_000_000, 3)
    assert np.var(x) == pytest.approx(1.0, abs=0.01)


def test_class_bounds_formulae():
    assert class_tail_bound(GAUSS, 2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    h = NoiseModel("shifted_exponential", 1.0, 2.0, "H")
    assert class_tail_bound(h, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)


def test_tail_check_gaussian_class_G():
    rep = tail_check(GAUSS, [1.0, 2.0, 3.0], 1_000_000, 31)
    assert rep.all_ok
    # bound 2 exp(-t^2/2) strictly dominates the true gaussian tail
    for row in rep.rows:
        assert row.margin >= 0.0


def test_tail_check_rademacher_trivial_past_support():
    m = NoiseModel("rademacher", 1.0, 2.0, "G")
    rep = tail_check(m, [1.5, 2.0, 4.0], 10_000, 32)
    for row in rep.rows:
        assert row.empirical == 0.0 and row.ok


def test_tail_check_shifted_exponential_class_H():
    m = NoiseModel("shifted_exponential", 1.0, 2.0, "H")

    def exact_tail(t):  # P(|E - 1| >= t), E ~ Exp(1)
        if t <= 1.0:
            return math.exp(-(1.0 + t)) + 1.0 - math.exp(-(1.0 - t))
        return math.exp(-(1.0 + t))

    for t in (1.0, 2.0, 4.0):
        assert exact_tail(t) <= class_tail_bound(m, t)
    rep = tail_check(m, [1.0, 2.0, 4.0], 1_000_000, 33)
    assert rep.all_ok


def test_tail_check_flags_false_declaration():
    # gaussian tails do NOT satisfy the class-G bound with a tiny tau
    bad = NoiseModel("gaussian", 2.0, 0.4, "G")
    rep = tail_check(bad, [1.0, 1.5], 200_000, 34)
    assert not rep.all_ok


def test_sample_validates_n():
    with pytest.raises(ValueError):
        sample(GAUSS, 0, 1)


# -- replicate blocks ----------------------------------------------------------------

MODELS = [NoiseModel("gaussian", 2.0, 2.0, "G"),
          NoiseModel("symm_weibull", 0.5, 2.0, "G"),
          NoiseModel("symm_weibull", 1.0, 2.0, "G"),
          NoiseModel("symm_weibull", 2.0, 2.0, "G"),
          NoiseModel("rademacher", 1.0, 2.0, "G"),
          NoiseModel("uniform_sym", 1.0, 2.0, "G"),
          NoiseModel("shifted_exponential", 1.0, 2.0, "H")]


def _assert_prefix(model, n):
    # replicate r's row depends neither on R nor on the rows before it:
    # R rows are the first R of 2R
    stream = Stream(31, "cell", [["d", n]], "xi")
    short, long = sample_with(model, n, stream, 5), sample_with(model, n, stream, 10)
    assert short.shape == (5, n) and np.all(np.isfinite(short))
    np.testing.assert_array_equal(short, long[:5])


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.family}-{m.alpha}")
@pytest.mark.parametrize("n", [1, 7, 300])
def test_replicate_draws_have_the_prefix_property(model, n):
    _assert_prefix(model, n)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: f"{m.family}-{m.alpha}")
@pytest.mark.parametrize("budget", [1.1, 0.0])  # 0.0: 8 candidates, every weibull row falls back
def test_stacked_streams_equal_each_stream_alone(model, budget, monkeypatch):
    # k streams are drawn as one (k R, n) transform; each block must be the
    # block its stream gives alone, bit for bit, and a replicate past its
    # candidate budget must ask its own stream's fallback for its own index
    calls = []
    real = Stream.fallback

    def recording(self, r):
        calls.append((self.tags, int(r)))
        return real(self, r)

    monkeypatch.setattr(Stream, "fallback", recording)
    monkeypatch.setattr(noise_module, "GAMMA_BUDGET", budget)
    streams = [Stream(5, "cell", [["rho", rho]], "xi") for rho in (0.5, 1.0, 2.0)]
    n, R = 30, 4
    stacked = sample_with(model, n, streams, R)
    stacked_calls, calls[:] = calls[:], []
    alone = np.concatenate([sample_with(model, n, stream, R) for stream in streams])
    np.testing.assert_array_equal(stacked, alone)
    assert stacked_calls == calls
    if model.family == "symm_weibull" and budget == 0.0:
        assert calls == [(stream.tags, r) for stream in streams for r in range(R)]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_prefix_property_holds_past_the_gamma_budget(alpha, monkeypatch):
    calls = []
    real = Stream.fallback

    def counting(self, r):
        calls.append(r)
        return real(self, r)

    monkeypatch.setattr(Stream, "fallback", counting)
    monkeypatch.setattr(noise_module, "GAMMA_BUDGET", 0.0)  # 8 candidates per replicate
    _assert_prefix(NoiseModel("symm_weibull", alpha, 2.0, "G"), 300)
    assert sorted(calls) == sorted(list(range(5)) + list(range(10)))


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_gamma_fallback_draws_the_same_law(alpha, monkeypatch):
    model = NoiseModel("symm_weibull", alpha, 2.0, "G")
    budget = sample_with(model, 2000, Stream(8, "law"), 20).ravel()
    calls = []
    real = Stream.fallback

    def counting(self, r):
        calls.append(r)
        return real(self, r)

    monkeypatch.setattr(Stream, "fallback", counting)
    monkeypatch.setattr(noise_module, "GAMMA_BUDGET", 0.5)
    forced = sample_with(model, 2000, Stream(9, "law"), 20).ravel()
    assert sorted(calls) == list(range(20))  # every replicate ran past its budget
    assert ks_2samp(budget, forced).pvalue > 1e-3


def test_budget_is_rarely_exceeded(monkeypatch):
    calls = []
    monkeypatch.setattr(Stream, "fallback", lambda self, r: calls.append(r))
    for alpha in (0.5, 1.0, 2.0):
        sample_with(NoiseModel("symm_weibull", alpha, 2.0, "G"), 200, Stream(3, "b"), 500)
    assert calls == []
