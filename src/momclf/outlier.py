"""Selection-count depth scores from MOM descent traces.

Samples that land in the median block often are reliable for the learning
task at hand; samples that are never selected are suspect.  Counting
selections over a full descent therefore ranks samples by a task-aware
depth, and thresholding the counts flags outliers.  The ranking is only
informative when the partition is redrawn every step: with a fixed
partition, all members of a block share one fate and the counts carry no
per-sample signal.

Known limitation: a far-away point that sits on the correct side of the
decision boundary for its label barely raises any block's loss, so it is
not pushed out of median blocks and this score will not flag it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from momclf._fields import integer
from momclf.data import Dataset
from momclf.optim import TrainTrace


@dataclass(frozen=True)
class SelectionCounts:
    """Per-sample count of median-block memberships across a descent run."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)


def selection_counts(trace: TrainTrace, n: int) -> SelectionCounts:
    """Count, for each sample index, the iterations whose median block
    contained it.

    Requires a trace recorded with selection recording enabled; the counts
    over all samples always total T * (n // K).  ``n`` must be the trace's
    own sample count.
    """
    if n != trace.n:
        raise ValueError(f"n={n} does not match the trace's n={trace.n}")
    if not trace.steps:
        raise ValueError("trace has no recorded selections "
                         "(train with record_selections=True)")
    blocks = np.concatenate([rec.block for rec in trace.steps])
    return SelectionCounts(counts=np.bincount(blocks, minlength=n))


def flag_outliers(sc: SelectionCounts, threshold: int) -> np.ndarray:
    """Indices whose count is strictly below the threshold.

    A threshold of 1 flags exactly the never-selected samples; larger
    thresholds flag supersets.
    """
    integer("threshold", threshold, 0)
    return np.flatnonzero(sc.counts < threshold)


def detection_metrics(flagged, ds: Dataset) -> tuple[float, float]:
    """Precision and recall of a flagged index set against ground truth.

    An empty flagged set scores precision 1.0 (nothing wrongly flagged)
    and recall 0.0.  A flagged index outside [0, n) or repeated is refused,
    naming the first such entry.
    """
    if ds.is_outlier is None:
        raise ValueError("dataset carries no ground-truth outlier flags")
    flagged = np.asarray(flagged, dtype=np.intp)
    outside = (flagged < 0) | (flagged >= ds.n)
    repeated = np.ones(flagged.size, dtype=bool)
    repeated[np.unique(flagged, return_index=True)[1]] = False
    bad = np.flatnonzero(outside | repeated)
    if bad.size:
        i = bad[0]
        why = f"outside [0, {ds.n})" if outside[i] else "a repeat"
        raise ValueError(f"flagged entry {i}, index {flagged[i]}, is {why}")
    truth = np.flatnonzero(ds.is_outlier)
    if flagged.size == 0:
        return 1.0, 0.0
    hits = np.intersect1d(flagged, truth).size
    precision = hits / flagged.size
    recall = hits / truth.size if truth.size else 1.0
    return float(precision), float(recall)


def write_counts_csv(sc: SelectionCounts, path, ds: Dataset | None = None) -> None:
    """Export counts as CSV (index, count[, is_outlier]) for plotting.

    A dataset of another size than the counts is refused before the file
    is opened.
    """
    if ds is not None and ds.n != sc.counts.size:
        raise ValueError(f"dataset has {ds.n} rows but the counts cover "
                         f"n={sc.counts.size} samples")
    flags = None if ds is None else ds.is_outlier
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "count"] + ([] if flags is None else ["is_outlier"]))
        for i, c in enumerate(sc.counts):
            writer.writerow([i, int(c)] + ([] if flags is None else [int(flags[i])]))
