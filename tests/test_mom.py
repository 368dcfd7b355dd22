import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momclf.data import Partition, random_equipartition
from momclf.mom import (
    BlockMeans,
    block_means,
    median_block_index,
    median_index,
    mom_estimate,
)


def sort_median_oracle(values):
    """Independent reference: full sort, middle element (lower for even)."""
    v = np.sort(np.asarray(values, dtype=float))
    return v[(v.size - 1) // 2]


def loop_block_means_oracle(values, partition):
    out = []
    for j in range(partition.k):
        total = 0.0
        for i in partition.block(j):
            total += values[i]
        out.append(total / partition.block_size)
    return np.array(out)


def make_partition(blocks, n):
    return Partition(blocks=np.asarray(blocks, dtype=np.intp), n=n)


def test_block_means_hand_example():
    part = make_partition([[0, 1], [2, 3], [4, 5]], 6)
    bm = block_means([1, 2, 3, 4, 5, 6], part)
    assert np.array_equal(bm.means, [1.5, 3.5, 5.5])


def test_block_means_constant_values():
    part = make_partition([[0, 2], [1, 3]], 4)
    assert np.array_equal(block_means([7.0] * 4, part).means, [7.0, 7.0])


def test_block_means_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, k = 24, int(rng.integers(1, 9))
        part = random_equipartition(n, k, rng)
        values = rng.standard_normal(n)
        np.testing.assert_allclose(block_means(values, part).means,
                                   loop_block_means_oracle(values, part),
                                   rtol=1e-12)


def test_single_block_mean_equals_full_mean():
    rng = np.random.default_rng(1)
    values = rng.standard_normal(100)
    part = random_equipartition(100, 1, rng)
    assert block_means(values, part).means[0] == pytest.approx(
        np.mean(values), rel=1e-12)


def test_block_means_rejects_short_values():
    part = make_partition([[0, 5], [1, 2], [3, 4]], 6)
    with pytest.raises(ValueError):
        block_means([1.0, 2.0], part)


def test_mom_estimate_hand_example():
    part = make_partition([[0, 1], [2, 3], [4, 5]], 6)
    assert mom_estimate([1, 2, 3, 4, 5, 6], part) == 3.5


def test_mom_k1_is_empirical_mean_bitwise():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(2, 200))
        values = rng.standard_normal(n)
        part = random_equipartition(n, 1, rng)
        assert mom_estimate(values, part) == np.mean(values)


def test_mom_singleton_blocks_is_sample_median():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        values = rng.standard_normal(n)
        part = random_equipartition(n, n, rng)
        assert mom_estimate(values, part) == sort_median_oracle(values)


def test_mom_resists_poisoned_block():
    # one block corrupted by 1e9 moves the mean by > 1e7 but not the MOM
    rng = np.random.default_rng(4)
    deviations = []
    for _ in range(50):
        values = rng.standard_normal(300)
        part = random_equipartition(300, 3, rng)
        values = values.copy()
        values[part.block(0)] = 1e9
        assert np.mean(values) > 1e7
        deviations.append(mom_estimate(values, part))
    # clean block means have sd ~ 1/sqrt(100); stay within 5 standard errors
    assert abs(np.mean(deviations)) < 5 * 0.1


def test_median_block_index_hand_examples():
    part = make_partition([[0, 1], [2, 3], [4, 5]], 6)
    bm = BlockMeans(means=np.array([1.5, 3.5, 5.5]), partition=part)
    assert median_block_index(bm) == 1
    tie = BlockMeans(means=np.array([2.0, 2.0, 2.0]), partition=part)
    assert median_block_index(tie) == 0


def test_median_block_index_matches_sort_oracle():
    rng = np.random.default_rng(5)
    part = make_partition(np.arange(14).reshape(7, 2), 14)
    for _ in range(200):
        means = rng.standard_normal(7)
        bm = BlockMeans(means=means, partition=part)
        assert means[median_block_index(bm)] == sort_median_oracle(means)


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_median_index_is_first_index_of_lower_median(raw):
    # small integers force ties; the first index attaining the median wins
    values = np.asarray(raw, dtype=float)
    i = median_index(values)
    assert values[i] == sort_median_oracle(values)
    assert np.all(values[:i] != values[i])


def test_median_index_rejects_nan_median():
    with pytest.raises(ValueError, match="NaN"):
        median_index([np.nan, np.nan, 1.0])
    assert median_index([np.nan, 2.0, 1.0]) == 1  # NaN sorts last


def test_median_block_realizes_mom_value_even_k():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n, k = 24, int(rng.integers(2, 13))
        part = random_equipartition(n, k, rng)
        values = rng.standard_normal(n)
        bm = block_means(values, part)
        assert bm.means[median_block_index(bm)] == mom_estimate(values, part)


@given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=40),
       st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_block_permutation_never_changes_mom_value(raw, seed):
    rng = np.random.default_rng(seed)
    values = np.asarray(raw)
    n = values.size
    k = int(rng.integers(1, n + 1))
    part = random_equipartition(n, k, rng)
    shuffled = Partition(blocks=part.blocks[rng.permutation(k)], n=n)
    assert mom_estimate(values, part) == mom_estimate(values, shuffled)


@given(st.integers(0, 2**32 - 1), st.floats(-100, 100))
@settings(max_examples=60, deadline=None)
def test_translation_equivariance(seed, shift):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 60))
    k = int(rng.integers(1, n + 1))
    values = rng.standard_normal(n)
    part = random_equipartition(n, k, rng)
    assert mom_estimate(values + shift, part) == pytest.approx(
        mom_estimate(values, part) + shift, rel=1e-12, abs=1e-9)


def test_breakdown_corrupted_minority_blocks_bounded_by_clean_range():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(1, 5))
        k = 2 * m + 1
        n = k * int(rng.integers(2, 8))
        values = rng.standard_normal(n)
        part = random_equipartition(n, k, rng)
        clean_means = block_means(values, part).means
        corrupted = values.copy()
        hit = rng.choice(k, size=m, replace=False)
        for j in hit:
            corrupted[part.block(j)] = rng.standard_normal(part.block_size) * 1e8
        est = mom_estimate(corrupted, part)
        assert clean_means.min() <= est <= clean_means.max()
