"""The numpy ranks and the Cephes normal tail that replaced
``scipy.stats``, checked bit for bit against ``scipy.stats``."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from codereadability.stats import ndtr, rankdata, wilcoxon_signed_rank

# few distinct values, so most draws are full of ties
TIED = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300, 3.0, np.inf, -np.inf])
VALUES = st.one_of(TIED, TIED, TIED, st.floats(width=64))


def same_ranks(got, want):
    """Equal dtype, shape and values, NaN where the other has NaN."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(got, want, equal_nan=True))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 40), elements=VALUES))
def test_rankdata_1d_equals_scipy(a):
    assert same_ranks(rankdata(a), scipy.stats.rankdata(a))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=30),
                  elements=VALUES))
def test_rankdata_rows_equal_scipy_axis_1(a):
    assert same_ranks(rankdata(a), scipy.stats.rankdata(a, axis=1))


@pytest.mark.parametrize("a", [
    [7.0],
    [0.0, -0.0],
    [-0.0, 0.0, -0.0, 1.0],
    [np.inf, -np.inf, np.inf, 0.0],
    [2.0] * 9,
    [1.0, np.nan, 0.5],
    [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
    [],
])
def test_rankdata_edge_cases(a):
    a = np.asarray(a, dtype=np.float64)
    assert same_ranks(rankdata(a), scipy.stats.rankdata(a))
    rows = np.stack([a, a[::-1]])
    assert same_ranks(rankdata(rows), scipy.stats.rankdata(rows, axis=1))


def test_normal_tail_equals_norm_sf_out_to_40():
    z = np.linspace(-40.0, 40.0, 400_001)
    ours = 2.0 * np.array([ndtr(-abs(v)) for v in z.tolist()])
    theirs = 2.0 * scipy.stats.norm.sf(np.abs(z))
    assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_normal_p_value_equals_norm_sf(seed):
    rng = np.random.default_rng(seed)
    diffs = np.round(rng.normal(0.3, 1.0, size=40 + 10 * seed), 1)  # rounded: ties
    result = wilcoxon_signed_rank(diffs)
    assert result.method == "normal"
    assert result.p_value == float(2.0 * scipy.stats.norm.sf(abs(result.z)))
