"""The package's two special functions, checked bit for bit against the
``scipy.special`` ufuncs they replaced: the model's sigmoid against
``expit`` and the signed-rank test's normal tail against ``ndtr``."""

import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codereadability.model import sigmoid
from codereadability.stats import ndtr

TINY = np.finfo(np.float64).tiny  # the smallest normal double
# the edges: signed zeros, subnormals, exp's overflow point near ±709.78 and
# the 0-or-1 saturation points near ±745 and ±37
EDGES = [0.0, -0.0, 5e-324, -5e-324, TINY, -TINY, TINY / 3, -TINY / 3, np.inf, -np.inf, np.nan,
         709.0, -709.0, 709.78, -709.78, 709.782712893384, -709.782712893384,
         np.nextafter(-709.782712893384, -np.inf), 745.1332191019411, -745.1332191019411,
         746.0, -746.0, 36.7, -36.7, 1e308, -1e308]
VALUES = st.one_of(st.sampled_from(EDGES), st.floats(width=64), st.floats(-800.0, 800.0))


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


def assert_sigmoid_is_expit(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, underflow or invalid-value warning
        got = sigmoid(z)
    want = scipy.special.expit(z)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(bits(got), bits(want))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.one_of(st.just(()), hnp.array_shapes(min_dims=2, max_dims=2,
                                                                       max_side=20)),
                  elements=VALUES))
def test_sigmoid_equals_expit_on_arrays(z):
    assert_sigmoid_is_expit(z)


@pytest.mark.parametrize("z", EDGES)
def test_sigmoid_equals_expit_on_each_edge(z):
    assert_sigmoid_is_expit(z)
    assert_sigmoid_is_expit(np.float64(z))
    assert_sigmoid_is_expit(np.full((2, 3), z))


def test_sigmoid_equals_expit_on_a_dense_sweep():
    """[-750, 750] in steps of 0.001, and 709 to 710 on both sides in
    steps of 1e-6, where the exponent leaves and re-enters libm's range."""
    near = np.linspace(709.0, 710.0, 1_000_001)
    assert_sigmoid_is_expit(np.concatenate([np.linspace(-750.0, 750.0, 1_500_001), near, -near]))


def test_ndtr_equals_scipy_on_the_lower_tail():
    """[-40, 0] in steps of 1e-4, random points, -inf and -0.0: every
    branch, from the erf rational near 0 to the underflow to 0 past -37.5."""
    rng = np.random.default_rng(0)
    a = np.concatenate([np.linspace(-40.0, 0.0, 400_001), rng.uniform(-40.0, 0.0, 100_000),
                        [-np.inf, -0.0, -np.sqrt(2.0), -8.0 * np.sqrt(2.0), -1e-300, -5e-324]])
    got = np.array([ndtr(v) for v in a.tolist()])
    assert np.array_equal(bits(got), bits(scipy.special.ndtr(a)))


@settings(max_examples=300, deadline=None)
@given(st.floats(width=64))
def test_ndtr_equals_scipy_on_any_double(a):
    assert bits(ndtr(a)) == bits(scipy.special.ndtr(a))
