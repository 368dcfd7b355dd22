"""Median-of-means estimation of a scalar mean over partition blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from momclf.data import Partition


@dataclass(frozen=True)
class BlockMeans:
    """The K within-block arithmetic means of a per-sample value vector."""

    means: np.ndarray


def block_means(values, partition: Partition) -> BlockMeans:
    """Mean of ``values`` over each partition block.

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
    return BlockMeans(means=values[partition.blocks].mean(axis=1))


def median_index(values) -> int:
    """Index of the lower-median entry of a 1-d vector.

    The middle order statistic for an odd length, the lower median for an
    even one, so a concrete entry always attains the median.  Ties are
    broken toward the smallest index, which makes the result a
    deterministic function of the values.  A NaN median raises ValueError.
    """
    values = np.asarray(values)
    r = (values.size - 1) // 2
    hits = np.flatnonzero(values == np.partition(values, r)[r])
    if not hits.size:
        raise ValueError("median of values is NaN")
    return int(hits[0])


def mom_estimate(values, partition: Partition) -> float:
    """Median of the within-block means (the lower median when K is even)."""
    means = block_means(values, partition).means
    return float(means[median_index(means)])


def median_block_index(bm: BlockMeans) -> int:
    """Index of a block whose mean attains the MOM value, ties toward the
    smallest block index (see :func:`median_index`)."""
    return median_index(bm.means)
