import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blendsp.numerics import ARGMAX_TOL, eps_log_sum_exp, gibbs_normalize

from util import brute_force_lse

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
tables = st.lists(finite_floats, min_size=1, max_size=8)


def test_lse_equal_entries():
    assert eps_log_sum_exp([1.0, 1.0], 1.0) == pytest.approx(1.0 + math.log(2), abs=1e-12)


def test_lse_zero_temperature_is_max():
    assert eps_log_sum_exp([3.0, 0.0], 0.0) == 3.0


def test_lse_against_high_precision_sum():
    # frozen from an extended-precision evaluation of 0.3*log(sum(exp(v/0.3)))
    value = eps_log_sum_exp([0.7, -0.2, 1.1], 0.3)
    assert value == pytest.approx(1.1732884904231200547, abs=1e-14)
    assert value == pytest.approx(brute_force_lse([0.7, -0.2, 1.1], 0.3), abs=1e-14)


def test_lse_negative_temperature_soft_min():
    v = [0.4, -1.3, 2.0]
    assert eps_log_sum_exp(v, -0.7) == pytest.approx(brute_force_lse(v, -0.7), abs=1e-12)
    assert eps_log_sum_exp(v, -0.7) <= min(v)


def test_lse_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        eps_log_sum_exp([], 1.0)
    with pytest.raises(ValueError):
        eps_log_sum_exp([1.0, np.inf], 1.0)


def test_gibbs_symmetric_entries():
    np.testing.assert_allclose(gibbs_normalize([5.5, 5.5, 5.5], 1.0), np.full(3, 1 / 3))


def test_gibbs_zero_temperature_point_mass():
    np.testing.assert_array_equal(gibbs_normalize([5.0, 1.0], 0.0), [1.0, 0.0])


def test_gibbs_zero_temperature_tie_set():
    np.testing.assert_allclose(gibbs_normalize([2.0, 2.0, 0.0], 0.0), [0.5, 0.5, 0.0])


def test_gibbs_zero_temperature_tie_band_edge():
    # an entry ARGMAX_TOL below the max or an ulp closer ties; an ulp further does not
    edge = -ARGMAX_TOL
    np.testing.assert_array_equal(gibbs_normalize([0.0, edge], 0.0), [0.5, 0.5])
    np.testing.assert_array_equal(gibbs_normalize([0.0, np.nextafter(edge, 0.0)], 0.0), [0.5, 0.5])
    np.testing.assert_array_equal(gibbs_normalize([0.0, np.nextafter(edge, -1.0)], 0.0), [1.0, 0.0])
    # rounding a shift moves a gap next to the edge across it: no tie rule
    # on rounded values is shift-covariant there
    v = np.array([1e-09, -7.022776782279331e-291])
    np.testing.assert_array_equal(gibbs_normalize(v, 0.0), [1.0, 0.0])
    np.testing.assert_array_equal(gibbs_normalize(v + 1.0, 0.0), [0.5, 0.5])


@given(tables, st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
def test_smooth_max_sandwich(v, t):
    lse = eps_log_sum_exp(v, t)
    assert max(v) <= lse + 1e-12
    assert lse <= max(v) + t * math.log(len(v)) + 1e-12


@given(tables, st.sampled_from([0.0, 0.05, 1.0, -0.5]), finite_floats)
def test_shift_covariance(v, t, a):
    arr = np.asarray(v)
    if t == 0.0:
        # v + a rounds each gap to the max by a few ulps of |v| + |a|; gaps
        # that close to the tie band's edge are test_gibbs_zero_temperature_tie_band_edge's
        rounding = 4 * np.spacing(np.abs(arr).max() + abs(a))
        assume((np.abs(arr.max() - arr - ARGMAX_TOL) > rounding).all())
    base = eps_log_sum_exp(arr, t)
    shifted = eps_log_sum_exp(arr + a, t)
    assert shifted == pytest.approx(base + a, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(
        gibbs_normalize(arr + a, t), gibbs_normalize(arr, t), rtol=1e-9, atol=1e-12
    )


@given(tables, st.sampled_from([0.0, 0.03, 0.7, 2.0]))
def test_gibbs_sums_to_one(v, t):
    b = gibbs_normalize(v, t)
    assert abs(b.sum() - 1.0) <= 1e-12
    assert (b >= 0).all()


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=6),
    st.sampled_from([0.3, 1.0, 2.5]),
)
def test_lse_gradient_is_gibbs(v, t):
    arr = np.asarray(v, dtype=float)
    b = gibbs_normalize(arr, t)
    h = 1e-6
    for i in range(arr.size):
        vp, vm = arr.copy(), arr.copy()
        vp[i] += h
        vm[i] -= h
        fd = (eps_log_sum_exp(vp, t) - eps_log_sum_exp(vm, t)) / (2 * h)
        assert fd == pytest.approx(b[i], rel=1e-6, abs=1e-8)
