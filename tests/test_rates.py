import math

import numpy as np
import pytest

from sparsefn.loading import LoadingSpec, effective_dimension, make_loading
from sparsefn.rates import (
    RateCalculator,
    adaptive_rate,
    check_assumption,
    closed_form_rate,
    j3_index,
    oracle_rate,
    oracle_rate_decomposed,
)
import sparsefn.rates as rates
import sparsefn.threshold as threshold
from sparsefn.threshold import TOLERANCES, PhiKernel, log_phi_objective
from test_threshold import _phi0_target

HOM100 = make_loading(LoadingSpec("homogeneous", d=100))


def test_oracle_plugin_regime():
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    prof = oracle_rate(lv, 2.0, 4)
    assert prof.lambda_o == 0.0
    assert prof.nu == pytest.approx(2.0, rel=1e-12)
    assert prof.phi_o == pytest.approx(4.0, rel=1e-12)
    assert prof.j1 == 4
    lam_term, head = oracle_rate_decomposed(lv, 2.0, 4)
    assert lam_term == 0.0 and head == pytest.approx(4.0)


def test_oracle_homogeneous_fixture():
    prof = oracle_rate(HOM100, 2.0, 5)
    assert prof.lambda_o == pytest.approx(1.665109, abs=1e-6)
    assert prof.nu == pytest.approx(2.5, rel=1e-9)
    assert prof.phi_o == pytest.approx((5 * prof.lambda_o + prof.nu) ** 2, rel=1e-12)
    assert prof.phi_o == pytest.approx(117.192, abs=1e-3)
    assert prof.j1 == 0
    lam_term, head = oracle_rate_decomposed(HOM100, 2.0, 5)
    assert lam_term == pytest.approx(25 * 2.0 * math.log(4.0), rel=1e-8)  # 69.3147
    assert head == 0.0


def test_oracle_single_coordinate():
    lv = make_loading(LoadingSpec("explicit", values=(1.0,)))
    prof = oracle_rate(lv, 2.0, 1)
    assert prof.beta == pytest.approx(2.0 * math.log(2.0), abs=1e-10)
    assert prof.lambda_o == pytest.approx(1.177410, abs=1e-6)
    assert prof.nu == pytest.approx(0.5, rel=1e-9)
    assert prof.phi_o == pytest.approx(2.813705, abs=1e-6)


def test_decomposition_band_over_random_loadings():
    # (lambda s + nu)^2 vs lambda^2 s^2 + head + nu^2: equivalent up to
    # constants; the recorded band is an implementation assertion.
    rng = np.random.default_rng(11)
    worst_lo, worst_hi = math.inf, 0.0
    for _ in range(20):
        d = int(rng.integers(2, 60))
        vals = tuple(sorted(np.exp(rng.uniform(-3, 3, size=d)), reverse=True))
        lv = make_loading(LoadingSpec("explicit", values=vals))
        alpha = float(rng.choice([1.0, 2.0]))
        s = int(rng.integers(1, d + 1))
        prof = oracle_rate(lv, alpha, s)
        lam_term, head = oracle_rate_decomposed(lv, alpha, s)
        ratio = prof.phi_o / (lam_term + head + prof.nu**2)
        worst_lo, worst_hi = min(worst_lo, ratio), max(worst_hi, ratio)
    assert 1.0 / 3.0 <= worst_lo and worst_hi <= 3.0, (worst_lo, worst_hi)


def test_lambda_o_nonincreasing_in_s():
    for lv in (HOM100, make_loading(LoadingSpec("two_phase", d=100, gamma_d=0.4, gamma_lambda=0.2))):
        lams = [oracle_rate(lv, 2.0, s).lambda_o for s in range(1, 25)]
        assert all(a >= b - 1e-12 for a, b in zip(lams, lams[1:]))


def test_adaptive_profile_s1_matches_oracle_up_to_cross_term():
    # The adaptive equation at s=1 is the oracle equation, so lambda and nu
    # agree exactly; phi_star(1) = lambda^2 + nu^2 differs from
    # phi_o(1) = (lambda + nu)^2 only by the cross term.
    calc = RateCalculator(HOM100, 2.0)
    o = calc.oracle(1)
    a = calc.adaptive(1)
    assert a.lambda_star == o.lambda_o
    assert a.nu_star == pytest.approx(o.nu, rel=1e-12)
    assert 1.0 <= o.phi_o / a.phi_star <= 2.0


def test_adaptive_fixture_d100_s5():
    a = adaptive_rate(HOM100, 2.0, 5)
    expect_beta = 2.0 * math.log(2.0 * 10.0 * math.sqrt(1.0 + math.log(5.0)) / 5.0)
    assert a.beta_star == pytest.approx(expect_beta, abs=1e-8)
    nu2 = (1.0 + math.log(5.0)) * 100.0 * math.exp(-expect_beta)
    assert a.nu_star == pytest.approx(math.sqrt(nu2), rel=1e-8)
    assert a.phi_star == pytest.approx(25 * a.lambda_star**2 + nu2, rel=1e-8)
    assert a.phi_adp == a.phi_star  # alpha = 2 branch
    assert a.s_star == 43 and a.s0 == 44


def test_phi_adp_alpha_branch():
    calc1 = RateCalculator(HOM100, 1.0)
    s = 3
    floor = calc1.phi_star(1) * (1.0 + math.log(min(s, calc1.s0()))) ** 2
    assert calc1.phi_adp(s) == pytest.approx(max(calc1.phi_star(s), floor), rel=1e-12)
    calc2 = RateCalculator(HOM100, 2.0)
    assert calc2.phi_adp(s) == calc2.phi_star(s)


def test_phi_star_constant_past_s0():
    lv = make_loading(LoadingSpec("exp_decay", d=50, c=0.2, gamma=1.0))
    calc = RateCalculator(lv, 2.0)
    s0 = calc.s0()
    assert s0 < 50
    assert calc.lambda_star(s0) == 0.0
    assert calc.lambda_star(calc.s_star()) > 0.0
    assert calc.phi_star(s0 + 5) == calc.phi_star(s0)
    assert calc.phi_adp(s0 + 5) == calc.phi_adp(s0)


def test_s_star_definition_brute_force():
    # homogeneous d = 1 and d = 4 have s_star = d: every s of the search is below phi(0)
    for spec in (LoadingSpec("homogeneous", d=64),
                 LoadingSpec("exp_decay", d=64, c=0.1, gamma=1.0),
                 LoadingSpec("two_phase", d=64, gamma_d=0.5, gamma_lambda=0.3),
                 LoadingSpec("homogeneous", d=1),
                 LoadingSpec("homogeneous", d=4)):
        lv = make_loading(spec)
        calc = RateCalculator(lv, 2.0)
        brute = max((s for s in range(1, lv.d + 1) if calc.lambda_star(s) > 0.0), default=0)
        assert calc.s_star() == brute


def test_j3_index_fixtures():
    assert j3_index(100, 10, 2.0) == 100            # min(331, 100)
    assert j3_index(10, 1, 2.0) == math.ceil(1.0 + math.log(10.0))  # 4
    assert j3_index(4, 2, 2.0) == 4                 # min(ceil(6.7726), 4)
    with pytest.raises(ValueError):
        j3_index(10, 0, 2.0)
    with pytest.raises(ValueError):
        j3_index(10, 11, 2.0)


def test_closed_form_fixtures():
    v = closed_form_rate("homogeneous_oracle", {"d": 100, "alpha": 2.0}, 5)
    assert v == pytest.approx(25.0 * math.log(5.0), rel=1e-12)
    assert v == pytest.approx(40.236, abs=1e-3)
    assert closed_form_rate("exp_decay_oracle", {"j0": 1, "alpha": 2.0}, 1) == pytest.approx(
        math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        closed_form_rate("mystery", {"alpha": 2.0}, 1)


def test_two_phase_closed_form_tracks_homogeneous_for_large_s():
    # deep in the large-s regime the full-vector term dominates; the
    # two-regime sum is within a factor 2 of the plain homogeneous form
    params = {"d": 10_000, "alpha": 2.0, "gamma_d": 0.4, "gamma_lambda": 0.2}
    for s in (150, 200):
        two = closed_form_rate("two_phase_oracle", params, s)
        hom = closed_form_rate("homogeneous_oracle", {"d": 10_000, "alpha": 2.0}, s)
        assert 1.0 <= two / hom <= 2.0


def test_adaptive_closed_form_band_homogeneous():
    lv = make_loading(LoadingSpec("homogeneous", d=10_000))
    calc = RateCalculator(lv, 2.0)
    ratios = []
    for s in (1, 10, 100):
        closed = s * s * math.log1p(10_000 * (1.0 + math.log(s)) / s**2)
        ratios.append(calc.phi_adp(s) / closed)
    assert all(0.1 <= r <= 10.0 for r in ratios), ratios
    print("phi_adp/closed-form band over s in (1,10,100):", [round(r, 3) for r in ratios])


@pytest.mark.parametrize("spec", [
    LoadingSpec("homogeneous", d=100),
    LoadingSpec("homogeneous", d=10_000),
    LoadingSpec("homogeneous", d=1_000_000),
    LoadingSpec("exp_decay", d=2000, c=2e-3, gamma=1.0),
    LoadingSpec("exp_decay", d=20_000, c=2e-4, gamma=1.0),
], ids=lambda spec: f"{spec.kind}-{spec.d}")
def test_adaptive_closed_forms_within_criterion_3_band(spec):
    # phi_adp(s) against its closed form, within criterion 3's band [0.2, 10],
    # for every s up to 10 and geometric steps on to 2 sqrt(d), which passes
    # exp_decay's turn to its flat branch at sqrt(j0 (1 + log j0))
    lv = make_loading(spec)
    if spec.kind == "homogeneous":
        kind, params = "homogeneous_adaptive", {"d": spec.d}
    else:
        kind, params = "exp_decay_adaptive", {"j0": effective_dimension(lv)}
    top = 2 * math.isqrt(spec.d)
    s_values = sorted({*range(1, 11), *np.geomspace(10, top, 12).round().astype(int).tolist()})
    for alpha in (1.0, 2.0):
        calc = RateCalculator(lv, alpha)
        for s in s_values:
            ratio = calc.phi_adp(s) / closed_form_rate(kind, dict(params, alpha=alpha), s)
            assert 0.2 <= ratio <= 10.0, (alpha, s, ratio)


def test_exp_decay_equivalent_to_homogeneous_effective_dim():
    spec = LoadingSpec("exp_decay", d=200, c=2.0 / 200.0, gamma=1.0)
    lv = make_loading(spec)
    j0 = effective_dimension(lv)
    hom = make_loading(LoadingSpec("homogeneous", d=j0))
    band = []
    for alpha in (1.0, 2.0):
        for s in (1, 3, 8):
            r = oracle_rate(lv, alpha, s).phi_o / oracle_rate(hom, alpha, s).phi_o
            band.append(r)
    assert all(0.1 <= r <= 10.0 for r in band), band
    print("exp-decay vs homogeneous(j0) ratio band:", (round(min(band), 3), round(max(band), 3)))


def test_almost_monotone_constants_small_grid():
    lv = make_loading(LoadingSpec("two_phase", d=200, gamma_d=0.4, gamma_lambda=0.2))
    calc = RateCalculator(lv, 2.0)
    smax = min(calc.s0(), 60)
    grid = range(1, smax + 1)
    up = [calc.phi_star(s) / (1.0 + math.log(s)) for s in grid]
    down = [calc.phi_star(s) / (s**2 * (1.0 + math.log(s))) for s in grid]
    k1 = max(max(up[:i]) / u for i, u in enumerate(up) if i)   # worst "almost increasing" violation
    k2 = max(d / min(down[:i]) for i, d in enumerate(down) if i)
    assert k1 < 100 and k2 < 100


def test_nonsym_match_soft_check():
    # phi_o * log^(2/alpha)(d) dominates the j3 head energy up to constants
    worst = math.inf
    for spec, alpha in ((LoadingSpec("homogeneous", d=100), 2.0),
                        (LoadingSpec("homogeneous", d=100), 1.0),
                        (LoadingSpec("exp_decay", d=100, c=0.02, gamma=1.0), 2.0)):
        lv = make_loading(spec)
        for s in (1, 5, 10):
            prof = oracle_rate(lv, alpha, s)
            head = float((lv.values[: j3_index(lv.d, s, alpha)] ** 2).sum())
            c_obs = prof.phi_o * math.log(lv.d) ** (2.0 / alpha) / head
            worst = min(worst, c_obs)
    assert worst > 0.01, worst
    print("head-energy domination soft-check constant (min over grid):", round(worst, 4))


def test_phi_adp_almost_increasing():
    lv = make_loading(LoadingSpec("homogeneous", d=400))
    calc = RateCalculator(lv, 2.0)
    vals = [calc.phi_adp(s) for s in range(1, 50)]
    worst = max(vals[i] / min(vals[i:]) for i in range(len(vals)))
    assert worst < 100


def test_bounded_effective_dimension_adaptive_matches_oracle():
    # sharply decaying loadings (j0 = 2): the adaptation premium is capped by
    # log(e s0) and saturates there once both rates go flat
    lv = make_loading(LoadingSpec("exp_decay", d=100, c=2.0, gamma=1.0))
    assert effective_dimension(lv) == 2
    calc = RateCalculator(lv, 2.0)
    cap = 1.0 + math.log(calc.s0())
    ratios = [calc.phi_adp(s) / calc.phi_o(s) for s in (1, 2, 3, 5, 10, 50)]
    assert all(r <= cap + 1e-9 for r in ratios), ratios
    assert ratios[-1] == pytest.approx(cap, rel=1e-9)


def test_check_assumption_large_homogeneous():
    lv = make_loading(LoadingSpec("homogeneous", d=10_000))
    rep = check_assumption(lv, 2.0, s_cut=int(10_000**0.3), gamma0=1.0)
    assert rep.s0 == 541
    assert rep.max_ratio_low < 2.0      # O(1): adaptation is free for small s
    assert rep.min_ratio_high > 1.0     # polynomial growth past the cut
    print("d=1e4 growth-condition ratios:",
          round(rep.max_ratio_low, 3), round(rep.min_ratio_high, 3))


def test_check_assumption_reports():
    rep = check_assumption(make_loading(LoadingSpec("homogeneous", d=1000)), 2.0,
                           s_cut=7, gamma0=1.0)
    assert math.isfinite(rep.max_ratio_low) and rep.max_ratio_low < 10.0
    assert math.isfinite(rep.min_ratio_high) and rep.min_ratio_high > 0.0
    assert rep.s0 == 156  # largest s with s/(2 sqrt(log es)) < sqrt(1000), plus one
    single = check_assumption(make_loading(LoadingSpec("explicit", values=(1.0,))), 2.0,
                              s_cut=1, gamma0=1.0)
    assert math.isfinite(single.max_ratio_low) and math.isfinite(single.min_ratio_high)
    with pytest.raises(ValueError):
        check_assumption(HOM100, 2.0, s_cut=7, gamma0=2.5)


def test_rate_calculator_validates_s():
    calc = RateCalculator(HOM100, 2.0)
    with pytest.raises(ValueError):
        calc.oracle(0)
    with pytest.raises(ValueError):
        calc.adaptive(101)


@pytest.mark.parametrize("s", [2.7, True, "3", np.float64(3.0)])
def test_rates_refuse_an_s_that_int_would_truncate(s):
    """int() took 2.7 as 2, True as 1 and "3" as 3; every entry point that
    takes s refuses them."""
    calc = RateCalculator(HOM100, 1.0)
    for take in (calc.oracle, calc.adaptive, calc.phi_star, calc.star_solution, calc.nu_star,
                 calc.phi_adp, lambda s: oracle_rate(HOM100, 1.0, s),
                 lambda s: adaptive_rate(HOM100, 1.0, s), lambda s: j3_index(100, s, 1.0),
                 lambda s: closed_form_rate("homogeneous_oracle", {"alpha": 1.0, "d": 100}, s)):
        with pytest.raises(ValueError, match="^s: expected an integer$"):
            take(s)


def test_rates_take_a_numpy_integer_s():
    calc = RateCalculator(HOM100, 1.0)
    assert calc.oracle(np.int64(3)) == calc.oracle(3) and calc.oracle(np.int64(3)).s == 3
    assert adaptive_rate(HOM100, 1.0, np.int64(3)) == adaptive_rate(HOM100, 1.0, 3)
    assert j3_index(100, np.int64(3), 1.0) == j3_index(100, 3, 1.0)
    params = {"alpha": 1.0, "d": 100}
    assert (closed_form_rate("homogeneous_oracle", params, np.int64(3))
            == closed_form_rate("homogeneous_oracle", params, 3))


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_rate_calculator_rejects_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite"):
        RateCalculator(HOM100, alpha)


@pytest.mark.parametrize("spec, alpha", [
    (LoadingSpec("two_phase", d=10_000, gamma_d=0.4, gamma_lambda=0.2), 1.0),
    (LoadingSpec("two_phase", d=10_000, gamma_d=0.4, gamma_lambda=0.2), 2.0),
    (LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0), 2.0),
    (LoadingSpec("homogeneous", d=1000), 0.5),
])
def test_every_ladder_and_oracle_root_solves_its_equation(spec, alpha):
    lv = make_loading(spec)
    calc = RateCalculator(lv, alpha)
    roots = [(sol.beta, sol.lambda_, sol.target) for sol in
             map(calc.star_solution, range(1, calc.table().j2.size + 1))]
    roots += [(p.beta, p.lambda_o, s / 2.0) for s, p in
              ((s, calc.oracle(s)) for s in (1, 2, 5, 20))]
    log_phi0 = log_phi_objective(lv, alpha, 0.0)
    for beta, lam, target in roots:
        rel = math.expm1(log_phi_objective(lv, alpha, beta) - math.log(target))
        # a root at or below 0 only has to be there: every rate reads max(beta, 0)
        assert abs(rel) <= TOLERANCES.rel or (lam == 0.0 and log_phi0 <= math.log(target))


def test_oracle_and_adaptive_at_s1_share_one_solve(monkeypatch):
    # both equations read phi(beta) = 1/2 at s = 1: the second solve finds
    # every probe in the kernel's memo, and nu^2 at a probed root is known
    calc = RateCalculator(make_loading(LoadingSpec("exp_decay", d=500, c=0.004, gamma=1.0)), 2.0)
    rows = []
    block = PhiKernel._probe_block
    monkeypatch.setattr(PhiKernel, "_probe_block",
                        lambda self, betas: rows.append(betas.size) or block(self, betas))
    beta = calc.oracle(1).beta
    evaluated = len(rows)
    assert evaluated > 0
    assert calc.star_solution(1).beta == beta
    calc.adaptive(1)
    assert len(rows) == evaluated


def _bits(x) -> list[int]:
    """The float64 bit patterns of x: equal bits, not equal values."""
    return np.asarray(x, dtype=float).reshape(-1).view(np.uint64).tolist()


@pytest.mark.parametrize("ladder_first", [False, True], ids=["per-s", "ladder-first"])
def test_nu_has_one_source(monkeypatch, ladder_first):
    # oracle nu, nu_star and the ladder's nu_star all equal log nu^2 at
    # max(beta, 0) from a kernel that has evaluated nothing else
    lv = make_loading(LoadingSpec("exp_decay", d=2000, c=0.01, gamma=1.0))
    alpha = 2.0
    s0 = RateCalculator(lv, alpha).s0()
    # the adaptive target at s0 moved onto phi(0) exactly: g = 0 there, s0 unchanged
    phi0, real = _phi0_target(lv, alpha), rates.adaptive_target
    monkeypatch.setattr(rates, "adaptive_target", lambda s: phi0 if s == s0 else real(s))
    calc = RateCalculator(lv, alpha)
    assert calc.s0() == s0 == 65
    if ladder_first:
        calc.table()

    def fresh(beta):
        return PhiKernel(lv, alpha).log_energy(np.maximum(beta, 0.0))

    # s = 1: oracle and adaptive share the target 1/2; 5: both roots above 0;
    # 40: the oracle target above phi(0), the adaptive one below; s0: g = 0;
    # 100 and d: beyond s0, both targets above phi(0)
    for s in (1, 5, 40, s0, 100, lv.d):
        prof = calc.oracle(s)
        assert _bits(prof.nu) == _bits(math.exp(0.5 * float(fresh(np.array([prof.beta]))[0])))
        beta = np.array([calc.star_solution(s).beta])
        nu_star = np.sqrt((1.0 + np.log(np.array([float(s)]))) * np.exp(fresh(beta)))
        assert _bits(calc.nu_star(s)) == _bits(nu_star)
    assert calc.oracle(40).beta <= 0.0 < calc.star_solution(40).beta
    assert calc.star_solution(100).beta <= 0.0
    at_phi0 = calc.star_solution(s0)
    assert (at_phi0.beta, at_phi0.residual, at_phi0.iterations) == (0.0, 0.0, 1)

    ss = np.arange(1, s0 + 1)
    beta = np.array([calc.star_solution(s).beta for s in ss.tolist()])
    nu_star = np.sqrt((1.0 + np.log(ss)) * np.exp(fresh(beta)))
    assert _bits(calc.table().nu_star) == _bits(nu_star)


TWO_PHASE_1E4 = LoadingSpec("two_phase", d=10_000, gamma_d=0.4, gamma_lambda=0.2)


def test_ladder_takes_no_python_steps(monkeypatch):
    def python_step(*args):
        raise AssertionError("a batch of this size steps on arrays")

    monkeypatch.setattr(threshold, "_chandrupatla_x", python_step)
    RateCalculator(make_loading(TWO_PHASE_1E4), 1.0).table()


def test_ladder_keeps_its_evaluation_counts(monkeypatch):
    # the s = 1..512 adaptive ladder of a two_phase d=1e4 loading at alpha 1
    calc = RateCalculator(make_loading(TWO_PHASE_1E4), 1.0)
    calc.s0()
    rows = []
    block = PhiKernel._probe_block
    monkeypatch.setattr(PhiKernel, "_probe_block",
                        lambda self, betas: rows.extend(betas.tolist()) or block(self, betas))
    calc.table()
    targets, _beta, _g, iters, _log_nu2 = calc._ladder
    assert targets.size == 512
    assert int(iters.sum()) == 3656
    assert len(rows) == len(set(rows)) == 1641  # kernel rows evaluated, each once
