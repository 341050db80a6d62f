import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsefn.estimators import (
    VARIANTS,
    EstimateResult,
    EstimationInput,
    _family_values,
    _first_kept,
    adaptive_estimate,
    collier_estimate,
    default_zeta,
    family_estimate,
    lepski_select,
    linear_test,
    mom_sigma,
    nonsymmetric_estimate,
    oracle_estimate,
    plugin_estimate,
    unknown_sigma_estimate,
)
from sparsefn.loading import LoadingSpec, make_loading
from sparsefn.rates import RateCalculator, RateTable, oracle_rate
from sparsefn.threshold import solve_beta

HOM3 = make_loading(LoadingSpec("homogeneous", d=3))
HOM100 = make_loading(LoadingSpec("homogeneous", d=100))


def hom_input(y, loading=None, alpha=2.0, tau=2.0, sigma=1.0, kappa=1.0):
    lv = loading if loading is not None else make_loading(
        LoadingSpec("homogeneous", d=len(y)))
    return EstimationInput(np.asarray(y, dtype=float), lv, alpha, tau, sigma, kappa)


# -- oracle -------------------------------------------------------------------

def test_oracle_plugin_regime_keeps_everything():
    inp = hom_input([1.0, -2.0, 0.5, 3.0])
    res = oracle_estimate(inp, 4)  # lambda_o = 0 for s = 4 = 2 sqrt(d)
    assert res.threshold == 0.0
    assert res.kept_indices == (0, 1, 2, 3)
    assert res.value == pytest.approx(2.5)


def test_oracle_threshold_fixture_keep_and_drop():
    # sqrt(2 log(2 sqrt(3))) = 1.5763586679 to ten digits
    lam = math.sqrt(2.0 * math.log(2.0 * math.sqrt(3.0)))
    assert lam == pytest.approx(1.5763586679, abs=1e-9)
    res = oracle_estimate(hom_input([4.0, 1.0, -0.5]), 1)
    assert res.threshold == pytest.approx(2.0 * lam, rel=1e-9)
    assert res.kept_indices == (0,) and res.value == 4.0
    res2 = oracle_estimate(hom_input([3.0, 1.0, -0.5]), 1)
    assert res2.kept_indices == () and res2.value == 0.0


def test_oracle_respects_original_coordinate_order():
    lv = make_loading(LoadingSpec("explicit", values=(0.5, 3.0, -1.0)))
    y = np.array([10.0, 0.1, -8.0])
    res = oracle_estimate(EstimationInput(y, lv, 2.0, 2.0, sigma=1.0), 1)
    # eta*y per original coordinate: (5.0, 0.3, 8.0); value sums kept eta_j y_j
    assert all(0 <= i < 3 for i in res.kept_indices)
    expect = sum(lv.original_values[i] * y[i] for i in res.kept_indices)
    assert res.value == pytest.approx(expect, rel=1e-12)


# -- collier ------------------------------------------------------------------

def test_collier_plugin_matches_oracle_when_s_large():
    y = [0.3, -0.7, 1.1, 0.0, 2.0, -1.0, 0.4, 0.9, -0.2]  # d = 9, s = 3 = sqrt(d)
    a = collier_estimate(hom_input(y), 3)
    b = oracle_estimate(hom_input(y), 6)  # s=6 >= 2 sqrt(9): lambda_o = 0
    assert a.value == pytest.approx(sum(y)) and b.value == pytest.approx(sum(y))


def test_collier_threshold_fixture():
    y = np.zeros(100)
    y[7] = 10.0
    res = collier_estimate(hom_input(y), 5)
    assert res.threshold == pytest.approx(math.sqrt(2.0 * math.log(5.0)), rel=1e-12)
    assert res.threshold == pytest.approx(1.794123, abs=1e-6)
    assert res.kept_indices == (7,) and res.value == 10.0
    orc = oracle_estimate(hom_input(y), 5)
    assert orc.value == 10.0  # 10 sigma exceeds tau lambda_o = 3.33 as well


def test_collier_rejects_non_homogeneous():
    lv = make_loading(LoadingSpec("explicit", values=(2.0, 1.0)))
    with pytest.raises(ValueError):
        collier_estimate(EstimationInput(np.zeros(2), lv, 2.0, 2.0, sigma=1.0), 1)


# -- family / lepski / adaptive ------------------------------------------------

def test_family_s1_identical_to_oracle_s1():
    y = np.array([4.0, 1.0, -0.5])
    a = family_estimate(hom_input(y), 1)
    b = oracle_estimate(hom_input(y), 1)
    assert a.value == b.value
    assert a.threshold == b.threshold
    assert a.kept_indices == b.kept_indices


def test_family_plugin_past_s0():
    calc = RateCalculator(HOM100, 2.0)
    s0 = calc.s0()
    y = np.arange(100, dtype=float) / 10.0 - 5.0
    inp = hom_input(y)
    res = family_estimate(inp, min(s0, 100), calculator=calc)
    assert res.value == pytest.approx(float(y.sum()), rel=1e-12)
    assert res.threshold == 0.0


def test_family_matches_direct_bisection_target():
    inp = hom_input([0.5, 0.2, -0.1])
    res = family_estimate(inp, 2)
    direct = solve_beta(HOM3, 2.0, 2.0 / (2.0 * math.sqrt(1.0 + math.log(2.0))))
    assert res.threshold == pytest.approx(2.0 * direct.lambda_, rel=1e-9)


def test_lepski_zero_data_selects_one():
    inp = hom_input(np.zeros(100))
    sel = lepski_select(inp, 1000.0)
    assert sel.s_hat == 1
    assert sel.s_star == 43 and sel.s0 == 44
    assert adaptive_estimate(inp, 1000.0).value == 0.0


def test_lepski_vanishing_zeta_selects_s0():
    # every candidate differs from the plug-in estimate at s0, so with a
    # vanishing band constant the qualifying set is empty
    lv = make_loading(LoadingSpec("exp_decay", d=50, c=0.2, gamma=1.0))
    rng = np.random.default_rng(4)
    y = lv.to_original(rng.normal(scale=3.0, size=50) / lv.values)
    inp = EstimationInput(y, lv, 2.0, 2.0, sigma=1.0)
    sel = lepski_select(inp, 1e-12)
    assert all(e != sel.estimates[-1] for e in sel.estimates[:-1])
    assert sel.s0 == 12 and sel.s_hat == sel.s0


def test_lepski_smallest_stable_s_with_exact_family_collapse():
    # homogeneous family collapses to the plug-in sum once lambda_star(s) < 1
    # (j2 jumps to d); from there deviations are exactly zero, so the
    # selection returns the first collapsed s even as zeta -> 0+
    rng = np.random.default_rng(0)
    y = rng.normal(size=100)
    y[np.abs(y) > 1.9] = 0.0  # keep every |y| below the collapsing threshold
    inp = hom_input(y)
    sel = lepski_select(inp, 1e-12)
    calc = RateCalculator(HOM100, 2.0)
    first_plugin = min(s for s in range(1, sel.s0 + 1) if calc.lambda_star(s) < 1.0)
    assert sel.s_hat == first_plugin


def test_lepski_pinned_enumeration_fixture():
    inp = hom_input([0.1, -0.2, 0.15])
    zeta = 100.0
    sel = lepski_select(inp, zeta)

    # independent exhaustive evaluation of the selection definition
    calc = RateCalculator(HOM3, 2.0)
    s_star = max((s for s in range(1, 4) if calc.lambda_star(s) > 0), default=0)
    s0 = s_star + 1
    ests = {}
    for s in range(1, min(s0, 3) + 1):
        lam = calc.lambda_star(s)
        cut = calc.j2(s)
        val = 0.0
        for j, (e, yj) in enumerate(zip(HOM3.values, inp.y)):
            if j < cut or abs(e * yj) > 2.0 * lam:
                val += e * yj
        ests[s] = val
    chosen = s0
    for s in range(1, s_star + 1):
        if all(abs(ests[s] - ests[sp]) <= math.sqrt(zeta * calc.phi_adp(sp))
               for sp in range(s + 1, min(s0, 3) + 1)):
            chosen = s
            break
    assert sel.s_hat == chosen
    assert adaptive_estimate(inp, zeta).value == pytest.approx(ests[min(chosen, 3)], rel=1e-12)


def test_adaptive_uses_selected_s():
    rng = np.random.default_rng(1)
    y = rng.normal(size=100)
    y[:5] += 15.0
    inp = hom_input(y)
    res = adaptive_estimate(inp, 1000.0)
    sel = lepski_select(inp, 1000.0)
    ref = family_estimate(inp, min(sel.s_hat, 100))
    assert res.s_used == sel.s_hat
    assert res.value == ref.value


def test_default_zeta_rule():
    assert default_zeta(2.0) == 1e3
    assert default_zeta(2.5) == 1e3
    assert default_zeta(1.0) == 1e4


# -- nonsym ---------------------------------------------------------------------

def test_nonsym_plugin_when_j3_saturates():
    inp = hom_input([1.0, -2.0, 0.5, 3.0])
    res = nonsymmetric_estimate(inp, 2)  # j3(4, 2, 2) = 4
    assert res.value == pytest.approx(2.5)
    assert res.kept_indices == (0, 1, 2, 3)


def test_nonsym_threshold_fixture():
    lv = make_loading(LoadingSpec("homogeneous", d=10_000))
    inp = EstimationInput(np.zeros(10_000), lv, 2.0, 1.0, sigma=1.0)
    res = nonsymmetric_estimate(inp, 1)
    assert res.threshold == pytest.approx(2.0 * math.sqrt(1.0 + math.log(10_000.0)), rel=1e-12)
    assert res.threshold == pytest.approx(6.391, abs=1e-3)
    assert res.value == 0.0


def test_nonsym_custom_constant():
    inp = hom_input(np.zeros(50))
    res = nonsymmetric_estimate(inp, 1, c_h=5.0)
    assert res.threshold == pytest.approx(5.0 * math.sqrt(1.0 + math.log(50.0)), rel=1e-12)


# -- median of means -------------------------------------------------------------

def test_mom_fixtures():
    assert mom_sigma(np.array([1.0, 2, 3, 4, 5, 6]), 0.5) == 12.5
    assert mom_sigma(np.array([1.0, 2, 3, 4]), 0.5) == 2.5  # even m, lower middle
    c = 3.7
    assert mom_sigma(np.full(10, c), 0.5) == pytest.approx(c * c, rel=1e-12)
    with pytest.raises(ValueError):
        mom_sigma(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        mom_sigma(np.array([1.0, 2.0, 3.0]), 0.1)  # m = 0


def test_mom_uneven_blocks():
    # d=5, m=2: blocks sizes (3, 2); means (14/3, 20.5); lower middle = 14/3
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    assert mom_sigma(y, 0.5) == pytest.approx(14.0 / 3.0, rel=1e-12)


def test_mom_shuffle_blocks_deterministic():
    # a seeded permutation mixes an adversarial ordering; same seed, same value
    y = np.concatenate([np.full(10, 5.0), np.full(10, 0.1)])
    plain = mom_sigma(y, 0.5)
    a = mom_sigma(y, 0.5, shuffle_seed=1)
    b = mom_sigma(y, 0.5, shuffle_seed=1)
    assert a == b
    assert plain == pytest.approx(0.01, rel=1e-12)  # contiguous blocks see the 0.1 half
    assert a != plain  # mixing moves the median off the clean half


def test_unknown_sigma_hand_fixture():
    y = np.array([5.0, 0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1])
    inp = hom_input(y)
    with pytest.warns(UserWarning):
        res = unknown_sigma_estimate(inp, 1, 0.5)  # s=1 not < m/4=1
    # blocks of y^2: (12.505, 0.01, 0.01, 0.01); lower-middle median = 0.01
    sigma_hat = 0.1
    lam = math.sqrt(2.0 * math.log(2.0 * math.sqrt(8.0)))
    assert res.threshold == pytest.approx(math.sqrt(2.0) * sigma_hat * 2.0 * lam, rel=1e-9)
    assert res.kept_indices == (0,) and res.value == 5.0


def test_unknown_sigma_zero_estimate_keeps_all_nonzero():
    y = np.array([5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    inp = hom_input(y)
    with pytest.warns(UserWarning):
        res = unknown_sigma_estimate(inp, 1, 0.5)
    assert res.threshold == 0.0
    assert res.value == 5.0


def test_unknown_sigma_plugin_when_lambda_zero():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.warns(UserWarning):  # s = 4 is far above floor(gamma d)/4
        res = unknown_sigma_estimate(hom_input(y), 4, 0.5)
    assert res.value == pytest.approx(10.0)


# -- test -------------------------------------------------------------------------

def test_linear_test_fixtures():
    y = np.zeros(100)
    inp = hom_input(y)
    with_stat = linear_test(inp, 5, 0.0, 1.0)
    assert with_stat.decision == 0 and with_stat.statistic == 0.0
    assert with_stat.threshold == pytest.approx(math.sqrt(117.192), abs=1e-3)

    y2 = np.zeros(100)
    y2[0] = 20.0
    res = linear_test(hom_input(y2), 5, 0.0, 1.0)
    assert res.statistic == pytest.approx(20.0)
    assert res.decision == 1

    res_b = linear_test(hom_input(y2), 5, 0.0, 1e-9)  # B -> 0+, L != t0
    assert res_b.decision == 1
    res_eq = linear_test(hom_input(y2), 5, 20.0, 1e-9)  # statistic == t0 exactly
    assert res_eq.decision == 0

    with pytest.warns(UserWarning):
        linear_test(inp, 1, 0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="t0 must be finite"):
            linear_test(inp, 5, bad, 1.0)
        with pytest.raises(ValueError, match="B must be positive and finite"):
            linear_test(inp, 5, 0.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_tuning_constants_must_be_positive_and_finite(bad):
    inp = hom_input(np.zeros(100))
    with pytest.raises(ValueError, match="zeta must be positive and finite"):
        lepski_select(inp, bad)
    with pytest.raises(ValueError, match="zeta must be positive and finite"):
        adaptive_estimate(inp, bad)
    with pytest.raises(ValueError, match="c_h must be positive and finite"):
        nonsymmetric_estimate(inp, 5, bad)


# -- cross-cutting properties -----------------------------------------------------

@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_sign_equivariance(seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=3.0, size=30)
    lv = make_loading(LoadingSpec("explicit",
                                  values=tuple(sorted(np.exp(rng.uniform(-1, 1, 30)), reverse=True))))
    inp = EstimationInput(y, lv, 2.0, 2.0, sigma=1.0)
    neg = EstimationInput(-y, lv, 2.0, 2.0, sigma=1.0)
    calc = RateCalculator(lv, 2.0)
    for f in (lambda i: oracle_estimate(i, 4, calculator=calc).value,
              lambda i: family_estimate(i, 4, calculator=calc).value,
              lambda i: nonsymmetric_estimate(i, 4, calculator=calc).value,
              lambda i: adaptive_estimate(i, 50.0, calculator=calc).value,
              lambda i: plugin_estimate(i).value):
        assert f(neg) == pytest.approx(-f(inp), rel=1e-12, abs=1e-12)


@settings(max_examples=25)
@given(st.integers(0, 2**32 - 1), st.floats(min_value=0.1, max_value=10.0))
def test_scale_equivariance_known_sigma(seed, c):
    rng = np.random.default_rng(seed)
    y = rng.normal(scale=2.0, size=25)
    lv = make_loading(LoadingSpec("explicit",
                                  values=tuple(sorted(np.exp(rng.uniform(-1, 1, 25)), reverse=True))))
    calc = RateCalculator(lv, 2.0)
    inp = EstimationInput(y, lv, 2.0, 2.0, sigma=1.0)
    scaled = EstimationInput(c * y, lv, 2.0, 2.0, sigma=c)
    for f in (lambda i: oracle_estimate(i, 3, calculator=calc).value,
              lambda i: family_estimate(i, 3, calculator=calc).value,
              lambda i: nonsymmetric_estimate(i, 3, calculator=calc).value,
              lambda i: adaptive_estimate(i, 80.0, calculator=calc).value):
        assert f(scaled) == pytest.approx(c * f(inp), rel=1e-9, abs=1e-9)


def test_linearity_and_boundary_stability():
    y = np.array([4.0, 1.0, -0.5])
    inp = hom_input(y)
    res = oracle_estimate(inp, 1)
    # value is the linear functional of y restricted to the kept set
    assert res.value == sum(y[i] for i in res.kept_indices)
    # perturbing y away from the threshold boundary keeps the kept set
    eps = 1e-6
    res2 = oracle_estimate(hom_input(y + np.array([eps, -eps, eps])), 1)
    assert res2.kept_indices == res.kept_indices


def test_degenerate_noise_recovery():
    lv = make_loading(LoadingSpec("explicit", values=(2.0, 1.0, 0.5, 0.25)))
    theta = np.array([0.0, 7.0, 0.0, -9.0])
    inp = EstimationInput(theta, lv, 2.0, 2.0, sigma=0.0)
    res = oracle_estimate(inp, 2)
    assert res.threshold == 0.0
    assert res.value == pytest.approx(float(np.dot(lv.original_values, theta)), rel=1e-12)


def test_lepski_sandwich():
    rng = np.random.default_rng(9)
    for _ in range(5):
        inp = hom_input(rng.normal(size=60))
        sel = lepski_select(inp, 200.0)
        assert 1 <= sel.s_hat <= sel.s0


def test_requires_sigma_when_known_variant():
    inp = EstimationInput(np.zeros(4), make_loading(LoadingSpec("homogeneous", d=4)),
                          2.0, 2.0, sigma=None)
    with pytest.raises(ValueError):
        oracle_estimate(inp, 2)
    # unknown-sigma route works without sigma
    y = np.array([5.0, 0.1, -0.1, 0.1, -0.1, 0.1, -0.1, 0.1])
    inp8 = EstimationInput(y, make_loading(LoadingSpec("homogeneous", d=8)),
                           2.0, 2.0, sigma=None)
    with pytest.warns(UserWarning):
        res = unknown_sigma_estimate(inp8, 1, 0.5)
    assert res.value == 5.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["alpha", "tau", "kappa", "sigma"])
def test_input_rejects_non_finite(field, bad):
    kw = {"alpha": 2.0, "tau": 2.0, "sigma": 1.0, "kappa": 1.0}
    kw[field] = bad
    with pytest.raises(ValueError, match="finite"):
        EstimationInput(np.zeros(3), HOM3, **kw)


# -- per-cell rate table -------------------------------------------------------------

def _family_loop(inp, calc, n):
    """Reference: each family member summed over its own keep set."""
    etay = inp.loading.values * inp.loading.to_sorted(inp.y)
    out = []
    for s in range(1, n + 1):
        keep = np.abs(etay) > inp.kappa * inp.sigma * inp.tau * calc.lambda_star(s)
        keep[: calc.j2(s)] = True
        out.append(float(etay[keep].sum()))
    return np.array(out)


def _lepski_loop(values, calc, zeta, sigma, s_star):
    cap = values.size
    for s in range(1, s_star + 1):
        if all(abs(values[s - 1] - values[sp - 1]) <= math.sqrt(zeta * sigma**2 * calc.phi_adp(sp))
               for sp in range(s + 1, cap + 1)):
            return s
    return s_star + 1


@pytest.mark.parametrize("spec, alpha", [
    (LoadingSpec("homogeneous", d=300), 2.0),
    (LoadingSpec("two_phase", d=3000, gamma_d=0.4, gamma_lambda=0.2), 1.0),
    (LoadingSpec("exp_decay", d=400, c=0.02, gamma=1.0), 0.5),
    (LoadingSpec("explicit", values=tuple(np.random.default_rng(2).lognormal(size=150))), 1.0),
])
def test_vectorized_family_sums_match_per_s_loop(spec, alpha):
    lv = make_loading(spec)
    calc = RateCalculator(lv, alpha)
    rng = np.random.default_rng(7)
    for rep in range(6):
        y = rng.normal(size=lv.d)
        y[rng.choice(lv.d, size=5, replace=False)] += rng.uniform(2.0, 30.0, size=5)
        inp = EstimationInput(y, lv, alpha, 2.0, sigma=1.0)
        sel = lepski_select(inp, 10.0 ** rep, calculator=calc)
        ref = _family_loop(inp, calc, len(sel.estimates))
        scale = float(np.abs(lv.values * y).sum())
        np.testing.assert_allclose(sel.estimates, ref, rtol=1e-12, atol=1e-12 * scale)
        assert sel.s_hat == _lepski_loop(ref, calc, 10.0 ** rep, 1.0, sel.s_star)
        res = adaptive_estimate(inp, 10.0 ** rep, calculator=calc)
        member = family_estimate(inp, min(sel.s_hat, len(ref)), calculator=calc)
        assert (res.value.hex(), res.threshold.hex(), res.kept_indices, res.s_used) == (
            member.value.hex(), member.threshold.hex(), member.kept_indices, sel.s_hat)


def test_rate_table_matches_per_s_methods():
    for spec, alpha in ((LoadingSpec("two_phase", d=2000, gamma_d=0.4, gamma_lambda=0.2), 1.0),
                        (LoadingSpec("exp_decay", d=300, c=0.02, gamma=1.0), 2.0)):
        lv = make_loading(spec)
        table = RateCalculator(lv, alpha).table()
        ref = RateCalculator(lv, alpha)
        s = range(1, table.j2.size + 1)
        assert table.j2.size == min(ref.s0(), lv.d)
        assert list(table.lambda_star) == [ref.lambda_star(k) for k in s]
        assert list(table.j2) == [ref.j2(k) for k in s]
        np.testing.assert_allclose(table.nu_star, [ref.nu_star(k) for k in s], rtol=1e-13)
        np.testing.assert_allclose(table.phi_adp, [ref.phi_adp(k) for k in s], rtol=1e-13)


def _family_values_full_search(inp, table):
    """Reference: every coordinate searched among all the thresholds."""
    thr = inp.kappa * inp.sigma * inp.tau * table.lambda_star
    above_from = np.searchsorted(-thr, -np.abs(inp.etay), side="right")
    first = np.minimum(above_from, table.head_from)
    rows, n = first.shape[0], thr.size
    bins = first + (n + 1) * np.arange(rows)[:, None]
    sums = np.bincount(bins.ravel(), weights=inp.etay.ravel(), minlength=rows * (n + 1))
    return first, np.cumsum(sums.reshape(rows, n + 1)[:, :n], axis=1)


@settings(max_examples=100)
@given(st.data())
def test_family_values_equal_the_full_search(data):
    # ties everywhere: |eta y| equal to a threshold, zero eta y, lambda_star
    # of 0, equal thresholds and cutoffs, one member, one row and several
    d = data.draw(st.integers(min_value=1, max_value=30), label="d")
    rows = data.draw(st.integers(min_value=1, max_value=3), label="rows")
    n = data.draw(st.integers(min_value=1, max_value=8), label="n")
    eta = data.draw(st.lists(st.sampled_from([2.0, 1.0, -1.0, 0.5, -0.5]), min_size=d,
                             max_size=d), label="eta")
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, -1.0, 2.0, -3.0]),
                                    min_size=rows * d, max_size=rows * d), label="y"))
    lv = make_loading(LoadingSpec("explicit", values=tuple(eta)))
    inp = EstimationInput(y.reshape(rows, d) if rows > 1 else y, lv, 2.0, 1.0, sigma=1.0)
    keys = np.abs(inp.etay).ravel().tolist()
    lam = sorted(data.draw(st.lists(st.sampled_from(keys + [0.0, 0.3, 9.0]), min_size=n,
                                    max_size=n), label="lambda_star"), reverse=True)
    j2 = np.array(sorted(data.draw(st.lists(st.integers(min_value=0, max_value=d), min_size=n,
                                            max_size=n), label="j2")))
    head_from = np.searchsorted(j2, np.arange(d), side="right")  # as RateCalculator.table
    table = RateTable(np.array(lam), j2, np.zeros(n), np.zeros(n), head_from)
    first, values = _family_values_full_search(inp, table)
    thr = table.lambda_star  # kappa = sigma = tau = 1
    assert _first_kept(np.abs(inp.etay), thr, head_from).tolist() == first.tolist()
    assert _family_values(inp, table).tobytes() == values.tobytes()


def test_kept_indices_built_on_first_read():
    rng = np.random.default_rng(3)
    lv = make_loading(LoadingSpec("explicit", values=tuple(rng.normal(size=50))))
    y = rng.normal(size=50) * 4.0
    res = oracle_estimate(EstimationInput(y, lv, 2.0, 1.0), 3)
    assert "kept_indices" not in vars(res)
    j1 = RateCalculator(lv, 2.0).oracle(3).j1
    etay = lv.values * lv.to_sorted(y)
    kept = [j for j in range(50) if j < j1 or abs(etay[j]) > res.threshold]
    assert res.kept_indices == tuple(sorted(int(lv.order[j]) for j in kept))
    assert "kept_indices" in vars(res)


def test_results_differing_only_in_kept_coordinates_differ():
    a = EstimateResult(1.0, 2, 0.5, np.array([True, False]), "oracle")
    b = EstimateResult(1.0, 2, 0.5, np.array([False, True]), "oracle")
    assert a != b and a == EstimateResult(1.0, 2, 0.5, np.array([True, False]), "oracle")
    assert hash(a) == hash(EstimateResult(1.0, 2, 0.5, np.array([True, False]), "oracle"))
    with pytest.raises(ValueError):
        a.keep[1] = True
    with pytest.raises(TypeError):
        EstimateResult(1.0, 2, 0.5, (0, 1), "oracle")  # indices, not a mask


# -- replicate blocks ------------------------------------------------------------------

BLOCK_LOADINGS = {
    "homogeneous": LoadingSpec("homogeneous", d=60),
    "two_phase": LoadingSpec("two_phase", d=400, gamma_d=0.4, gamma_lambda=0.2),
    "exp_decay": LoadingSpec("exp_decay", d=80, c=0.05, gamma=1.0),
    "signed_explicit": LoadingSpec("explicit", values=tuple(
        np.random.default_rng(4).choice([-1.0, 1.0], 70)
        * np.random.default_rng(5).lognormal(size=70))),
}


def _block(lv, rows, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(rows, lv.d)) * 1.5
    y[:, rng.choice(lv.d, size=4, replace=False)] += rng.uniform(3.0, 20.0, size=4)
    return y


@pytest.mark.parametrize("name", list(BLOCK_LOADINGS))
@pytest.mark.parametrize("variant", list(VARIANTS))
def test_block_estimate_rows_equal_single_vector_estimates(name, variant):
    lv = make_loading(BLOCK_LOADINGS[name])
    calc = RateCalculator(lv, 1.0)
    y = _block(lv, 9, 11)
    kw = dict(zeta=50.0, c_h=None, gamma_split=0.5, shuffle_seed=None)
    run = VARIANTS[variant].run
    if variant == "collier" and name != "homogeneous":
        with pytest.raises(ValueError, match="homogeneous"):
            run(EstimationInput(y, lv, 1.0, 2.0), 3, calc, **kw)
        return
    block = run(EstimationInput(y, lv, 1.0, 2.0), 3, calc, **kw)
    assert block.value.shape == block.threshold.shape == (9,)
    assert block.keep.shape == (9, lv.d)
    for r in range(9):
        one = run(EstimationInput(y[r], lv, 1.0, 2.0), 3, calc, **kw)
        assert (block.value[r].hex(), block.threshold[r].hex(), block.kept_indices[r],
                int(block.s_used[r])) == (one.value.hex(), one.threshold.hex(),
                                          one.kept_indices, one.s_used)
        assert block.row(r) == one


_BLOCK_CALCS = {name: RateCalculator(make_loading(spec), 1.0)
                for name, spec in BLOCK_LOADINGS.items()}
_S_VARIANTS = [name for name, v in VARIANTS.items() if v.needs_s]


@pytest.mark.filterwarnings("ignore:s=.* is not below:UserWarning")
@settings(max_examples=60)
@given(st.sampled_from(list(BLOCK_LOADINGS)), st.sampled_from(_S_VARIANTS),
       st.lists(st.integers(1, 30), min_size=1, max_size=8), st.integers(0, 2**32 - 1))
def test_block_rows_at_their_own_s_equal_single_vector_estimates(name, variant, s, seed):
    """A block with one s per row gives on row r the estimate of row r alone
    at its s, bit for bit, for every variant that reads s."""
    if variant == "collier":
        name = "homogeneous"
    calc = _BLOCK_CALCS[name]
    lv = calc.loading
    y = _block(lv, len(s), seed)
    kw = dict(zeta=None, c_h=None, gamma_split=0.5, shuffle_seed=None)
    run = VARIANTS[variant].run
    block = run(EstimationInput(y, lv, 1.0, 2.0), np.array(s), calc, **kw)
    for r, s_r in enumerate(s):
        one = run(EstimationInput(y[r], lv, 1.0, 2.0), s_r, calc, **kw)
        assert (block.value[r].hex(), block.threshold[r].hex(), int(block.s_used[r])) == (
            one.value.hex(), one.threshold.hex(), s_r)
        assert block.row(r) == one


def test_block_test_and_mom_rows_equal_single_vector_calls():
    lv = make_loading(BLOCK_LOADINGS["signed_explicit"])
    y = _block(lv, 6, 12)
    test = linear_test(EstimationInput(y, lv, 2.0, 2.0), 3, 1.0, 1.0)
    sig = mom_sigma(y, 0.25)
    for r in range(6):
        one = linear_test(EstimationInput(y[r], lv, 2.0, 2.0), 3, 1.0, 1.0)
        assert (int(test.decision[r]), test.statistic[r].hex(), test.threshold) == (
            one.decision, one.statistic.hex(), one.threshold)
        assert sig[r].hex() == mom_sigma(y[r], 0.25).hex()


def test_block_input_validates_rows_once():
    y = np.zeros((3, 3))
    y[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        EstimationInput(y, HOM3, 2.0, 2.0)
    with pytest.raises(ValueError, match="d=3"):
        EstimationInput(np.zeros((2, 4)), HOM3, 2.0, 2.0)
    with pytest.raises(ValueError, match="d=3"):
        EstimationInput(np.zeros((0, 3)), HOM3, 2.0, 2.0)
    with pytest.raises(ValueError, match="single observation vector"):
        lepski_select(EstimationInput(np.zeros((2, 3)), HOM3, 2.0, 2.0), 10.0)
