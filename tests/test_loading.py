import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparsefn.loading import (
    LoadingSpec,
    LoadingVector,
    drop_zero_loadings,
    effective_dimension,
    make_loading,
)
from sparsefn.threshold import PhiKernel, _log_tail

nonzero_floats = st.floats(min_value=1e-6, max_value=1e6).map(lambda x: x)
signed_nonzero = st.tuples(st.booleans(), nonzero_floats).map(lambda t: -t[1] if t[0] else t[1])


def test_homogeneous():
    lv = make_loading(LoadingSpec("homogeneous", d=4))
    np.testing.assert_array_equal(lv.values, np.ones(4))
    assert lv.provenance == "homogeneous"


def test_exp_decay_direct_evaluation():
    # phi(x) = x, so eta_j = exp(-(j-1))
    lv = make_loading(LoadingSpec("exp_decay", d=3, c=1.0, gamma=1.0))
    np.testing.assert_allclose(lv.values, [1.0, math.exp(-1), math.exp(-2)], rtol=1e-15)
    np.testing.assert_allclose(lv.values[1:], [0.367879, 0.135335], atol=1e-6)


def test_two_phase_direct_evaluation():
    lv = make_loading(LoadingSpec("two_phase", d=16, gamma_d=0.5, gamma_lambda=0.25))
    np.testing.assert_array_equal(lv.values[:4], np.full(4, 2.0))
    np.testing.assert_array_equal(lv.values[4:], np.ones(12))


def test_rejects_bad_specs():
    with pytest.raises(ValueError):
        LoadingSpec("homogeneous", d=0)
    with pytest.raises(ValueError):
        LoadingSpec("two_phase", d=10, gamma_d=-0.1, gamma_lambda=0.2)
    with pytest.raises(ValueError):
        LoadingSpec("exp_decay", d=10, c=1.0, gamma=0.5)  # gamma < 1 not convex-safe
    with pytest.raises(ValueError):
        LoadingSpec("whatever", d=10)
    with pytest.raises(ValueError):
        make_loading(LoadingSpec("explicit", values=(1.0, 0.0)))
    with pytest.raises(ValueError):
        make_loading(LoadingSpec("explicit", values=(1.0, float("nan"))))


def test_drop_zeros_is_explicit_not_silent():
    vals, kept = drop_zero_loadings([1.0, 0.0, -2.0, 0.0])
    np.testing.assert_array_equal(vals, [1.0, -2.0])
    np.testing.assert_array_equal(kept, [0, 2])


def test_explicit_sorting_and_round_trip():
    raw = [0.5, -3.0, 1.0, -1.0]
    lv = make_loading(LoadingSpec("explicit", values=tuple(raw)))
    np.testing.assert_array_equal(np.abs(lv.values), [3.0, 1.0, 1.0, 0.5])
    np.testing.assert_array_equal(lv.original_values, raw)
    # stable tie handling: 1.0 (index 2) precedes -1.0 (index 3)
    assert lv.values[1] == 1.0 and lv.values[2] == -1.0
    y = np.array([10.0, 20.0, 30.0, 40.0])
    np.testing.assert_array_equal(lv.to_original(lv.to_sorted(y)), y)


@settings(max_examples=100)
@given(st.lists(signed_nonzero, min_size=1, max_size=30))
def test_sorted_and_invertible(raw):
    lv = make_loading(LoadingSpec("explicit", values=tuple(raw)))
    a = np.abs(lv.values)
    assert np.all(a[:-1] >= a[1:])
    np.testing.assert_array_equal(lv.original_values, np.asarray(raw))


def test_effective_dimension_examples():
    assert effective_dimension(make_loading(LoadingSpec("homogeneous", d=4))) == 5
    lv = make_loading(LoadingSpec("exp_decay", d=3, c=1.0, gamma=1.0))
    assert effective_dimension(lv) == 2
    assert effective_dimension(make_loading(LoadingSpec("explicit", values=(0.4,)))) == 1


@settings(max_examples=100)
@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=30),
    st.floats(min_value=1e-3, max_value=1.0),
)
def test_effective_dimension_monotone_under_scaling_down(mags, c):
    vals = tuple(sorted(mags, reverse=True))
    lv = make_loading(LoadingSpec("explicit", values=vals))
    scaled = make_loading(LoadingSpec("explicit", values=tuple(c * v for v in vals)))
    assert effective_dimension(scaled) <= effective_dimension(lv)


def test_loading_vector_validates_sortedness():
    with pytest.raises(ValueError):
        LoadingVector(np.array([1.0, 2.0]), np.array([0, 1]))
    with pytest.raises(ValueError):
        LoadingVector(np.array([2.0, 1.0]), np.array([0, 0]))


def test_values_are_immutable():
    lv = make_loading(LoadingSpec("homogeneous", d=3))
    with pytest.raises(ValueError):
        lv.values[0] = 7.0
    with pytest.raises(AttributeError):
        lv.d = 4


def test_original_values_built_once_and_read_only():
    lv = make_loading(LoadingSpec("explicit", values=(0.5, -3.0, 1.0)))
    assert lv.original_values is lv.original_values
    with pytest.raises(ValueError):
        lv.original_values[0] = 7.0


def test_level_view_run_length():
    hom = make_loading(LoadingSpec("homogeneous", d=7)).levels
    assert hom.tied and list(hom.values) == [1.0] and list(hom.counts) == [7]
    two = make_loading(LoadingSpec("two_phase", d=100, gamma_d=0.5, gamma_lambda=0.5)).levels
    assert list(two.values) == [10.0, 1.0] and list(two.counts) == [10, 90]
    assert list(two.ends) == [10, 100]
    assert two.level_of(9) == 0 and two.level_of(10) == 1
    assert list(two.covered(np.array([0, 1, 2]))) == [0, 10, 100]
    lv = make_loading(LoadingSpec("explicit", values=(-2.0, 1.0, 2.0, 0.5, -1.0, 1.0)))
    tied = lv.levels
    assert list(tied.values) == [2.0, 1.0, 0.5] and list(tied.counts) == [2, 3, 1]
    assert lv.levels is tied and lv.abs_values is lv.abs_values


def test_level_view_untied_shares_abs_values():
    lv = make_loading(LoadingSpec("exp_decay", d=50, c=0.1, gamma=1.0))
    levels = lv.levels
    assert not levels.tied and levels.counts is None and levels.ends is None
    assert levels.values is lv.abs_values
    assert levels.level_of(17) == 17 and levels.covered(5) == 5
    with pytest.raises(ValueError):
        lv.abs_values[0] = 3.0  # read-only


@pytest.mark.parametrize("field, spec", [
    ("gamma_d", dict(kind="two_phase", d=10, gamma_d=math.nan, gamma_lambda=0.2)),
    ("gamma_d", dict(kind="two_phase", d=10, gamma_d=math.inf, gamma_lambda=0.2)),
    ("gamma_lambda", dict(kind="two_phase", d=10, gamma_d=0.5, gamma_lambda=math.inf)),
    ("gamma_lambda", dict(kind="two_phase", d=10, gamma_d=0.5, gamma_lambda=math.nan)),
    ("c", dict(kind="exp_decay", d=10, c=math.inf, gamma=1.0)),
    ("c", dict(kind="exp_decay", d=10, c=math.nan, gamma=1.0)),
    ("gamma", dict(kind="exp_decay", d=10, c=0.1, gamma=math.inf)),
    ("gamma", dict(kind="exp_decay", d=10, c=0.1, gamma=math.nan)),
])
def test_spec_rejects_non_finite_fields_by_name(field, spec):
    with pytest.raises(ValueError, match=f"^{field}: expected a finite number$"):
        LoadingSpec(**spec)


def _dense_two_phase(d: int, gamma_d: float, gamma_lambda: float) -> np.ndarray:
    """A generated loading's values as a d-vector, written out directly."""
    vals = np.ones(d)
    vals[:math.floor(d ** gamma_d)] = d ** gamma_lambda
    return vals


def _assert_same_loading(lv: LoadingVector, ref: LoadingVector, rng) -> None:
    for name in ("values", "abs_values", "original_values", "order"):
        got, want = getattr(lv, name), getattr(ref, name)
        assert got.dtype == want.dtype and not got.flags.writeable
        np.testing.assert_array_equal(got, want)
    assert lv.levels.tied == ref.levels.tied
    for got, want in zip(lv.levels, ref.levels):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
    x = rng.standard_normal((3, lv.d))
    np.testing.assert_array_equal(lv.to_sorted(x), ref.to_sorted(x))
    np.testing.assert_array_equal(lv.to_original(x), ref.to_original(x))
    np.testing.assert_array_equal(lv.to_sorted(x[0]), ref.to_sorted(x[0]))


@settings(max_examples=80)
@given(st.sampled_from(["homogeneous", "two_phase"]), st.integers(1, 5000),
       st.floats(0.0, 1.5, exclude_min=True), st.floats(0.0, 2.0, exclude_min=True),
       st.sampled_from([0.5, 1.0, 2.0, 4.0]))
def test_level_backed_loading_equals_its_dense_vector(kind, d, gamma_d, gamma_lambda, alpha):
    two_phase = dict(gamma_d=gamma_d, gamma_lambda=gamma_lambda) if kind == "two_phase" else {}
    spec = LoadingSpec(kind, d=d, **two_phase)
    if kind == "homogeneous":
        vals = np.ones(d)
    elif math.floor(d ** gamma_d) > d:
        with pytest.raises(ValueError, match="exceeds d"):
            make_loading(spec)
        return
    else:
        vals = _dense_two_phase(d, gamma_d, gamma_lambda)
    lv = make_loading(spec)
    ref = LoadingVector(vals, np.arange(d), provenance=kind)  # the checked explicit path
    assert lv.d == d and lv.provenance == kind
    _assert_same_loading(lv, ref, np.random.default_rng(d))
    assert effective_dimension(lv) == effective_dimension(ref)

    betas = np.array([-3.0, -0.5, 0.0, 1e-3, 0.7, 5.0, 40.0])
    lams = np.array([0.0, 0.3, 1.0, 2.5]) * lv.abs_values[-1]
    kernel, dense = PhiKernel(lv, alpha), PhiKernel(ref, alpha)
    np.testing.assert_array_equal(kernel.log_phi(betas), dense.log_phi(betas))
    np.testing.assert_array_equal(kernel.log_energy(betas), dense.log_energy(betas))
    for start in {0, d // 2, d - 1}:
        np.testing.assert_array_equal(_log_tail(lv.levels, alpha, start)(lams),
                                      _log_tail(ref.levels, alpha, start)(lams))


def test_level_backed_edge_cases_are_one_level():
    # head == d: every entry is d**gamma_lambda
    lv = make_loading(LoadingSpec("two_phase", d=64, gamma_d=1.0, gamma_lambda=0.5))
    assert list(lv.levels.values) == [8.0] and list(lv.levels.counts) == [64]
    # d**gamma_lambda rounds to 1.0: every entry is 1
    lv = make_loading(LoadingSpec("two_phase", d=50, gamma_d=0.5, gamma_lambda=1e-18))
    assert list(lv.levels.values) == [1.0] and list(lv.levels.counts) == [50]
    assert list(lv.levels.ends) == [50]
    # levels of one coordinate each are untied, as the run-length view finds them
    for lv in (make_loading(LoadingSpec("two_phase", d=2, gamma_d=0.5, gamma_lambda=1.0)),
               make_loading(LoadingSpec("homogeneous", d=1))):
        assert not lv.levels.tied and lv.levels.values is lv.abs_values
    assert list(lv.values) == [1.0]


@pytest.mark.parametrize("d", [1, 2, 5, 1000])
@pytest.mark.parametrize("gamma", [1.0, 1e308])
def test_exp_decay_without_decay_is_one_level_of_ones(d, gamma):
    # c = 0 is built from its one level, as homogeneous is, so a gamma whose
    # profile overflows still gives exp(0) = 1 everywhere, and the levels are
    # those the run-length view finds on the dense vector
    lv = make_loading(LoadingSpec("exp_decay", d=d, c=0.0, gamma=gamma))
    assert lv.d == d and lv.provenance == "exp_decay"
    assert ("values" in vars(lv)) == (d == 1)  # no d-vector is built unless read
    _assert_same_loading(lv, LoadingVector(np.ones(d), np.arange(d)), np.random.default_rng(d))


def test_exp_decay_profile_past_the_float_range_underflows_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^exp_decay underflowed to zero loadings"):
            make_loading(LoadingSpec("exp_decay", d=5, c=1.0, gamma=1e308))


def test_exp_decay_identity_order_equals_a_gather():
    d = 257
    lv = make_loading(LoadingSpec("exp_decay", d=d, c=0.03, gamma=1.5))
    j = np.arange(d, dtype=float)
    np.testing.assert_array_equal(lv.values, np.exp(-0.03 * j**1.5))
    assert lv.abs_values is lv.values and lv.levels.values is lv.values
    np.testing.assert_array_equal(lv.order, np.arange(d))
    x = np.random.default_rng(0).standard_normal((4, d))
    np.testing.assert_array_equal(lv.to_sorted(x), np.take(x, np.arange(d), axis=-1))
    np.testing.assert_array_equal(lv.to_original(x), np.take(x, np.arange(d), axis=-1))
    np.testing.assert_array_equal(lv.original_values, lv.values)


@pytest.mark.parametrize("values", [
    (3.0, 0.5, 0.5, 0.2),          # entries exactly at 1/2 are not below it
    (0.5, 0.5),
    (2.0, 1.0, 0.75),              # all above
    (0.4, 0.3, 0.1),               # all below
    (-2.0, 0.5, -0.5, 0.4999999999999999, 0.1),
    (1.0, 0.6, 0.6, 0.3, 0.3, 0.3),
])
def test_effective_dimension_is_the_first_entry_below_one_half(values):
    lv = make_loading(LoadingSpec("explicit", values=values))
    below = np.nonzero(lv.abs_values < 0.5)[0]
    assert effective_dimension(lv) == (int(below[0]) + 1 if below.size else lv.d + 1)
