"""The fold shuffle, checked draw for draw against the numpy it replaced:
``model._seed_sequence``, ``_pcg64_uint32`` and ``_shuffle`` against
``np.random.default_rng(seed).shuffle``, and ``stratified_folds`` against
its ``numpy.random`` form, kept here as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codereadability.model import (_classes, _pcg64_uint32, _seed_sequence, _shuffle,
                                   stratified_folds)

# the seed's word count changes at each power of 2**32
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 + 5, 2**130 - 1]
SEEDS = st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**130 - 1))


def reference_stratified_folds(labels, k, seed):
    """``stratified_folds`` as it was on ``numpy.random``."""
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("stratified CV needs k >= 2")
    assignment = np.empty(len(labels), dtype=np.int64)
    rng = np.random.default_rng(seed)
    for cls in _classes(labels)[0]:
        idx = np.flatnonzero(labels == cls)
        if len(idx) < k:
            raise ValueError(f"class {cls:g} has {len(idx)} members, fewer than k={k}")
        rng.shuffle(idx)
        for fold in range(k):
            assignment[idx[fold::k]] = fold
    return assignment


def assert_shuffles_match(seed, sizes):
    """One generator on each side, shuffling arrays of ``sizes`` in turn,
    so the buffered half of a 64-bit draw carries from one to the next."""
    rng, draws = np.random.default_rng(seed), _pcg64_uint32(*_seed_sequence(seed))
    for n in sizes:
        want = np.arange(n)
        rng.shuffle(want)
        got = list(range(n))
        _shuffle(got, draws)
        assert got == want.tolist(), (seed, n)


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_the_shuffle_equals_numpy_at_each_edge_seed(seed):
    assert_shuffles_match(seed, [0, 1, 2, 3, 5, 64, 65, 257, 600, 599])


def test_the_shuffle_equals_numpy_at_every_size_to_600():
    assert_shuffles_match(42, range(601))


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.lists(st.integers(0, 600), min_size=1, max_size=6))
def test_the_shuffle_equals_numpy(seed, sizes):
    assert_shuffles_match(seed, sizes)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 10), SEEDS, st.data())
def test_the_folds_equal_the_numpy_folds(k, seed, data):
    """Label vectors of two to four classes, in any order, each class at
    least k strong; labels may be ints or floats."""
    counts = data.draw(st.lists(st.integers(k, 80), min_size=2, max_size=4))
    values = data.draw(st.lists(st.integers(-3, 3) | st.floats(-2.0, 2.0, width=16),
                                min_size=len(counts), max_size=len(counts), unique=True))
    labels = data.draw(st.permutations([v for v, c in zip(values, counts) for _ in range(c)]))
    assert np.array_equal(stratified_folds(labels, k, seed),
                          reference_stratified_folds(labels, k, seed))


@pytest.mark.parametrize("seed,error", [
    (-1, ValueError), (-(2**70), ValueError), (1.5, TypeError), (2.0, TypeError),
    ("3", TypeError), (np.float64(4.0), TypeError),
])
def test_a_seed_numpy_refuses_is_refused_alike(seed, error):
    labels = [0, 1] * 4
    with pytest.raises(error) as want:
        reference_stratified_folds(labels, 2, seed)
    with pytest.raises(error) as got:
        stratified_folds(labels, 2, seed)
    if error is ValueError:
        assert str(got.value) == str(want.value) == "expected non-negative integer"


@pytest.mark.parametrize("seed", [True, np.int64(7), np.uint32(2**32 - 1)])
def test_an_integer_type_seeds_as_its_value(seed):
    labels = [0, 1] * 20
    assert np.array_equal(stratified_folds(labels, 3, seed),
                          reference_stratified_folds(labels, 3, seed))
