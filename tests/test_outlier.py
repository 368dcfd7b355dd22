import re

import numpy as np
import pytest

from momclf.data import Dataset, generate_toy
from momclf.losses import LossKind
from momclf.model import LinearModel
from momclf.optim import IterationRecord, MomGdConfig, TrainTrace, mom_gd_train
from momclf.outlier import (
    SelectionCounts,
    detection_metrics,
    flag_outliers,
    selection_counts,
    write_counts_csv,
)


def tiny_trace(blocks, n, k, block_size):
    steps = [IterationRecord(t=i, partition_seed=0, k_med=0,
                             block=np.asarray(b, dtype=np.intp), objective=0.0)
             for i, b in enumerate(blocks)]
    return TrainTrace(steps=steps, final_objective=0.0, n=n, k=k,
                      t=len(blocks), block_size=block_size)


def test_counts_single_step():
    trace = tiny_trace([[2, 5]], n=8, k=4, block_size=2)
    sc = selection_counts(trace, 8)
    expected = np.zeros(8, dtype=int)
    expected[[2, 5]] = 1
    assert np.array_equal(sc.counts, expected)


def test_counts_require_recording():
    trace = TrainTrace(steps=[], final_objective=0.0, n=8, k=4, t=3,
                       block_size=2)
    with pytest.raises(ValueError):
        selection_counts(trace, 8)


def test_counts_reject_a_sample_count_other_than_the_trace_n():
    trace = tiny_trace([[2, 5]], n=8, k=4, block_size=2)
    with pytest.raises(ValueError, match="n=10 .* n=8"):
        selection_counts(trace, 10)


def test_count_conservation_on_real_run():
    ds = generate_toy(100, 8, 3)
    cfg = MomGdConfig(k=12, t=60, seed=4, record_selections=True)
    _, trace = mom_gd_train(ds, LinearModel.zeros(2), cfg)
    sc = selection_counts(trace, ds.n)
    assert int(sc.counts.sum()) == 60 * (108 // 12)
    assert sc.counts.max() <= 60


def test_flag_outliers_thresholds():
    sc = SelectionCounts(counts=np.array([0, 3, 1, 0, 7]))
    assert flag_outliers(sc, 0).size == 0
    assert np.array_equal(flag_outliers(sc, 1), [0, 3])
    assert np.array_equal(flag_outliers(sc, 8), [0, 1, 2, 3, 4])
    for threshold, rule in ((-1, "be >= 0, got -1"), (0.5, "be a JSON integer, got 0.5"),
                            (True, "be a JSON integer, got true")):
        with pytest.raises(ValueError, match=f"field 'threshold' must {rule}$"):
            flag_outliers(sc, threshold)


def test_flag_outliers_monotone_in_threshold():
    rng = np.random.default_rng(0)
    sc = SelectionCounts(counts=rng.integers(0, 20, size=50))
    prev = set()
    for thr in range(0, 22):
        cur = set(flag_outliers(sc, thr).tolist())
        assert prev <= cur
        prev = cur


def test_detection_metrics_conventions():
    ds = generate_toy(20, 5, 1)
    truth = np.flatnonzero(ds.is_outlier)
    assert detection_metrics(truth, ds) == (1.0, 1.0)
    assert detection_metrics(np.array([], dtype=int), ds) == (1.0, 0.0)
    clean = Dataset(X=ds.X, y=ds.y)
    with pytest.raises(ValueError):
        detection_metrics(truth, clean)


@pytest.mark.parametrize("flagged, message", [
    ([0, 0, 3], "flagged entry 1, index 0, is a repeat"),
    ([0, -1], "flagged entry 1, index -1, is outside [0, 25)"),
    ([25, 0], "flagged entry 0, index 25, is outside [0, 25)"),
    ([0, 999, 0], "flagged entry 1, index 999, is outside [0, 25)"),
], ids=["repeated", "negative", "at-n", "first-of-two"])
def test_detection_metrics_refuses_a_repeated_or_outside_index(flagged, message):
    ds = generate_toy(20, 5, 1)
    assert ds.is_outlier[[0, 3]].all()  # a repeat of true outliers used to score
    with pytest.raises(ValueError, match=re.escape(message)):
        detection_metrics(flagged, ds)


def test_detection_metrics_random_flagging_expectation():
    # flagging |O| indices at random has expected precision |O| / n
    ds = generate_toy(600, 30, 2)
    rng = np.random.default_rng(3)
    precisions = [detection_metrics(rng.choice(630, 30, replace=False), ds)[0]
                  for _ in range(400)]
    assert np.mean(precisions) == pytest.approx(30 / 630, abs=0.01)


def test_fixed_partition_gives_blockwise_constant_counts():
    # with one frozen partition, all members of a block share their fate,
    # so within-block count variance is zero and the score is uninformative
    rng = np.random.default_rng(4)
    n, k, t = 60, 6, 40
    perm = rng.permutation(n)
    blocks = np.sort(perm[: k * (n // k)].reshape(k, n // k), axis=1)
    chosen = rng.integers(0, k, size=t)
    trace = tiny_trace([blocks[c] for c in chosen], n=n, k=k,
                       block_size=n // k)
    counts = selection_counts(trace, n).counts
    for j in range(k):
        assert np.var(counts[blocks[j]]) == 0.0


def test_outliers_typically_end_with_null_scores():
    # Across seeds the typical corrupted-toy run never selects a planted
    # outlier; a small fraction of seeds (roughly 1 in 20) starts the
    # descent toward a corrupted basin where some outliers score like
    # inliers, so the assertion is on the median over independent runs.
    from momclf.bench import derive_seed
    zero_fracs = []
    for master in range(200, 209):
        ds = generate_toy(600, 30, derive_seed(master, 0))
        cfg = MomGdConfig(k=120, t=2000, seed=derive_seed(master, 1),
                          record_selections=True)
        _, trace = mom_gd_train(ds, LinearModel.zeros(2), cfg)
        counts = selection_counts(trace, ds.n).counts
        zero_fracs.append(float(np.mean(counts[ds.is_outlier] == 0)))
    assert np.median(zero_fracs) >= 0.85
    assert sum(z == 1.0 for z in zero_fracs) >= 4


def test_write_counts_csv(tmp_path):
    ds = generate_toy(10, 2, 5)
    sc = SelectionCounts(counts=np.arange(12))
    path = tmp_path / "counts.csv"
    write_counts_csv(sc, path, ds)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,count,is_outlier"
    assert len(lines) == 13
    fields = lines[1].split(",")
    assert fields[0] == "0" and fields[1] == "0"


@pytest.mark.parametrize("n_rows", [55, 150])
def test_write_counts_csv_refuses_a_dataset_of_another_size(tmp_path, n_rows):
    sc = SelectionCounts(counts=np.zeros(105, dtype=int))
    path = tmp_path / "counts.csv"
    with pytest.raises(ValueError, match=f"{n_rows} rows .* n=105"):
        write_counts_csv(sc, path, generate_toy(n_rows - 5, 5, 1))
    assert not path.exists()
