"""Median-of-means estimation of a scalar mean over partition blocks."""

from __future__ import annotations

import numpy as np

from momclf.data import Partition


def block_means(values, partition: Partition) -> np.ndarray:
    """The K-vector of the means of ``values`` over each partition block.

    Values must cover every index the partition uses.  Within-block
    summation runs in ascending index order (blocks are stored sorted),
    keeping results bitwise deterministic.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("values must be a 1-d vector")
    if values.size < partition.n:
        raise ValueError(
            f"values has {values.size} entries, partition indexes up to {partition.n - 1}"
        )
    # the two ufuncs ndarray.mean runs, without its Python wrapper
    return np.add.reduce(values[partition.blocks], axis=1) / partition.block_size


def median_block_index(means) -> int:
    """Index of the block whose mean attains the MOM value.

    The middle order statistic for an odd K, the lower median for an even
    one, so a concrete block always attains the median.  Ties are broken
    toward the smallest index, which makes the result a deterministic
    function of the means.  A NaN median raises ValueError.
    """
    means = np.asarray(means)
    r = (means.size - 1) // 2
    hits = means == np.partition(means, r)[r]
    first = int(hits.argmax())
    if not hits[first]:
        raise ValueError("median of values is NaN")
    return first


def mom_estimate(values, partition: Partition) -> float:
    """Median of the within-block means (the lower median when K is even)."""
    means = block_means(values, partition)
    return float(means[median_block_index(means)])
