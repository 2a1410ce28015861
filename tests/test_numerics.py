"""Properties of the tempered soft-max t * log(sum(exp(v / t))) and its Gibbs
normalization, each checked on the kernel the package runs, a one-segment
``inference.SoftMax``, and on the plain references in ``util``
(``eps_log_sum_exp``, ``gibbs_normalize``) that the enumeration oracles use."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blendsp.inference import ARGMAX_TOL, SegmentReduce, SoftMax

from util import brute_force_lse, eps_log_sum_exp, gibbs_normalize

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
tables = st.lists(finite_floats, min_size=1, max_size=8)


def engine_pass(v, t):
    """The engine's soft-max of the table ``v`` as one segment at temperature
    t, and its pass over ``v``."""
    row = np.asarray(v, dtype=float)[None]
    one = SegmentReduce(np.zeros(1, dtype=np.int64), row.shape[1])
    softmax = SoftMax(one, np.zeros(row.shape[1], dtype=np.int64), t, np.ones(1))
    return softmax, softmax(row)


def engine_lse(v, t):
    return float(engine_pass(v, t)[1].lse[0, 0])


def engine_gibbs(v, t):
    softmax, gibbs = engine_pass(v, t)
    return gibbs.beliefs(softmax)[0]


# (log-sum-exp, Gibbs normalization): every property below holds for both
KERNELS = [(engine_lse, engine_gibbs), (eps_log_sum_exp, gibbs_normalize)]


def test_lse_equal_entries():
    for lse, _ in KERNELS:
        assert lse([1.0, 1.0], 1.0) == pytest.approx(1.0 + math.log(2), abs=1e-12)


def test_lse_zero_temperature_is_max():
    for lse, _ in KERNELS:
        assert lse([3.0, 0.0], 0.0) == 3.0


def test_lse_against_high_precision_sum():
    # frozen from an extended-precision evaluation of 0.3*log(sum(exp(v/0.3)))
    for lse, _ in KERNELS:
        value = lse([0.7, -0.2, 1.1], 0.3)
        assert value == pytest.approx(1.1732884904231200547, abs=1e-14)
        assert value == pytest.approx(brute_force_lse([0.7, -0.2, 1.1], 0.3), abs=1e-14)


def test_lse_negative_temperature_soft_min():
    v = [0.4, -1.3, 2.0]
    for lse, _ in KERNELS:
        assert lse(v, -0.7) == pytest.approx(brute_force_lse(v, -0.7), abs=1e-12)
        assert lse(v, -0.7) <= min(v)


def test_lse_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        eps_log_sum_exp([], 1.0)
    with pytest.raises(ValueError):
        eps_log_sum_exp([1.0, np.inf], 1.0)


def test_gibbs_symmetric_entries():
    for _, gibbs in KERNELS:
        np.testing.assert_allclose(gibbs([5.5, 5.5, 5.5], 1.0), np.full(3, 1 / 3))


def test_gibbs_zero_temperature_point_mass():
    for _, gibbs in KERNELS:
        np.testing.assert_array_equal(gibbs([5.0, 1.0], 0.0), [1.0, 0.0])


def test_gibbs_zero_temperature_tie_set():
    for _, gibbs in KERNELS:
        np.testing.assert_allclose(gibbs([2.0, 2.0, 0.0], 0.0), [0.5, 0.5, 0.0])


def test_gibbs_zero_temperature_tie_band_edge():
    # an entry ARGMAX_TOL below the max or an ulp closer ties; an ulp further does not
    edge = -ARGMAX_TOL
    # rounding a shift moves a gap next to the edge across it: no tie rule
    # on rounded values is shift-covariant there
    v = np.array([1e-09, -7.022776782279331e-291])
    for _, gibbs in KERNELS:
        np.testing.assert_array_equal(gibbs([0.0, edge], 0.0), [0.5, 0.5])
        np.testing.assert_array_equal(gibbs([0.0, np.nextafter(edge, 0.0)], 0.0), [0.5, 0.5])
        np.testing.assert_array_equal(gibbs([0.0, np.nextafter(edge, -1.0)], 0.0), [1.0, 0.0])
        np.testing.assert_array_equal(gibbs(v, 0.0), [1.0, 0.0])
        np.testing.assert_array_equal(gibbs(v + 1.0, 0.0), [0.5, 0.5])


@given(tables, st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
def test_smooth_max_sandwich(v, t):
    for lse, _ in KERNELS:
        value = lse(v, t)
        assert max(v) <= value + 1e-12
        assert value <= max(v) + t * math.log(len(v)) + 1e-12


@given(tables, st.sampled_from([0.0, 0.05, 1.0, -0.5]), finite_floats)
def test_shift_covariance(v, t, a):
    arr = np.asarray(v)
    if t == 0.0:
        # v + a rounds each gap to the max by a few ulps of |v| + |a|; gaps
        # that close to the tie band's edge are test_gibbs_zero_temperature_tie_band_edge's
        rounding = 4 * np.spacing(np.abs(arr).max() + abs(a))
        assume((np.abs(arr.max() - arr - ARGMAX_TOL) > rounding).all())
    for lse, gibbs in KERNELS:
        base = lse(arr, t)
        shifted = lse(arr + a, t)
        assert shifted == pytest.approx(base + a, rel=1e-9, abs=1e-9)
        np.testing.assert_allclose(gibbs(arr + a, t), gibbs(arr, t), rtol=1e-9, atol=1e-12)


@given(tables, st.sampled_from([0.0, 0.03, 0.7, 2.0]))
def test_gibbs_sums_to_one(v, t):
    for _, gibbs in KERNELS:
        b = gibbs(v, t)
        assert abs(b.sum() - 1.0) <= 1e-12
        assert (b >= 0).all()


@settings(max_examples=50)
@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=6),
    st.sampled_from([0.3, 1.0, 2.5]),
)
def test_lse_gradient_is_gibbs(v, t):
    arr = np.asarray(v, dtype=float)
    h = 1e-6
    for lse, gibbs in KERNELS:
        b = gibbs(arr, t)
        for i in range(arr.size):
            vp, vm = arr.copy(), arr.copy()
            vp[i] += h
            vm[i] -= h
            fd = (lse(vp, t) - lse(vm, t)) / (2 * h)
            assert fd == pytest.approx(b[i], rel=1e-6, abs=1e-8)
