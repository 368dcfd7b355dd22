import csv
import json

import numpy as np
import pytest

import momclf.optim
from momclf.bench import (
    RATE_CONFIG,
    TOY_TEST_SIZE,
    ExperimentReport,
    _toy_runs,
    accuracy,
    derive_seed,
    fit_loglog,
    logistic_risk,
    logistic_risk_minimizer,
    run_k_sweep,
    run_rate_experiment,
    run_robustness_experiment,
    run_timing_probe,
    summarize_accuracies,
)
from momclf.data import Dataset, generate_gaussians, generate_moons, generate_toy
from momclf.model import LinearModel
from momclf.optim import NumericError, train


def confusion_accuracy_oracle(model, test):
    correct = 0
    for i in range(test.n):
        s = float(test.X[i] @ model.u + model.b)
        pred = 1.0 if s >= 0 else -1.0
        correct += pred == test.y[i]
    return correct / test.n


def test_accuracy_perfect_and_constant():
    X = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-3.0, 0.0]])
    y = np.array([1.0, -1.0, 1.0, -1.0])
    ds = Dataset(X=X, y=y)
    assert accuracy(LinearModel(u=np.array([1.0, 0.0])), ds) == 1.0
    constant = LinearModel(u=np.zeros(2), b=1.0)  # always predicts +1
    assert accuracy(constant, ds) == 0.5


def test_accuracy_matches_confusion_oracle():
    rng = np.random.default_rng(0)
    ds = generate_gaussians(500, 1)
    for _ in range(10):
        m = LinearModel(u=rng.standard_normal(2), b=float(rng.standard_normal()))
        assert accuracy(m, ds) == pytest.approx(confusion_accuracy_oracle(m, ds))


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 1, 3)
    assert derive_seed(7, 1) != derive_seed(8, 1)


def test_fit_loglog_recovers_power_law():
    ns = np.array([100, 200, 400, 800])
    values = 3.0 * ns ** -0.7
    slope, intercept, r2, kept = fit_loglog(ns, values)
    assert slope == pytest.approx(-0.7, abs=1e-9)
    assert r2 == pytest.approx(1.0)
    assert kept == 4


def test_fit_loglog_constant_series_has_zero_slope():
    slope, _, _, _ = fit_loglog([100, 200, 400, 800], [0.25] * 4)
    assert slope == pytest.approx(0.0, abs=1e-12)


def test_fit_loglog_drops_non_positive_with_warning():
    with pytest.warns(UserWarning, match="non-positive"):
        slope, _, _, kept = fit_loglog([10, 20, 40, 80],
                                       [1.0, -0.5, 0.25, 0.125])
    assert kept == 3


def test_logistic_risk_minimizer_beats_gradient_descent():
    ds = generate_moons(400, 0.3, 4)
    best = logistic_risk_minimizer(ds)
    descent, _ = train("erm-logistic", ds, 1, 2000, eta0=2.0, schedule="constant")
    assert logistic_risk(best, ds) <= logistic_risk(descent, ds)
    rng = np.random.default_rng(0)
    for _ in range(20):
        nearby = LinearModel(u=best.u + 1e-3 * rng.standard_normal(2),
                             b=best.b + 1e-3 * float(rng.standard_normal()))
        assert logistic_risk(best, ds) <= logistic_risk(nearby, ds)


def test_logistic_risk_minimizer_rejects_separable_data():
    ds = Dataset(X=np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                 y=np.array([-1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(NumericError):
        logistic_risk_minimizer(ds)


@pytest.mark.parametrize("kind", ["gaussians", "moons"])
def test_rate_experiment_excess_is_non_negative_and_kept(kind):
    # the largest n equals the test size, so a reference fitted anywhere but
    # on the test sample itself would lose to some trained models
    grid = (200, 400, 800, 1600)
    report = run_rate_experiment(kind, n_values=grid, n_runs=3, master_seed=2,
                                 t=300, test_size=1600)
    assert all(rec["excess_risk"] >= 0 for rec in report.records)
    assert all(v >= 0 for v in report.summary["mean_excess_by_n"].values())
    assert report.summary["points_kept"] == len(grid)


def test_rate_records_are_mom_logistic_trained_with_derived_seeds():
    grid, t = (60, 120, 240, 480), 40
    report = run_rate_experiment("gaussians", n_values=grid, n_runs=1,
                                 master_seed=4, t=t, test_size=2000)
    test = generate_gaussians(2000, derive_seed(4, 0))
    reference = logistic_risk(logistic_risk_minimizer(test), test)
    cfg = RATE_CONFIG["gaussians"]
    for rec, n in zip(report.records, grid):
        model, _ = train("mom-logistic", generate_gaussians(n, derive_seed(4, 1, n, 0)),
                         cfg["k"], t, eta0=cfg["eta0"], seed=derive_seed(4, 2, n, 0),
                         gradient_mode=cfg["gradient_mode"])
        assert rec["excess_risk"] == logistic_risk(model, test) - reference


def test_robustness_report_structure_small():
    report = run_robustness_experiment(2, master_seed=5, n_inliers=60,
                                       n_outliers=4, k=12, t=100)
    methods = {rec["method"] for rec in report.records}
    assert methods == {"mom-logistic", "mom-hinge", "erm-logistic"}
    assert len(report.records) == 6
    assert all(rec["accuracy"] is not None for rec in report.records)
    assert set(report.summary) >= methods
    # summary is recomputable from the records
    assert summarize_accuracies(report.records) == report.summary


def test_robustness_reproducible():
    a = run_robustness_experiment(2, master_seed=9, n_inliers=40,
                                  n_outliers=2, k=8, t=50)
    b = run_robustness_experiment(2, master_seed=9, n_inliers=40,
                                  n_outliers=2, k=8, t=50)
    for ra, rb in zip(a.records, b.records):
        assert ra["accuracy"] == rb["accuracy"]


def test_k_sweep_k1_with_no_outliers_matches_erm():
    # k=1 and zero outliers: the mean-form equivalence does not apply to the
    # sum update, but the sweep entry must still be a valid record
    report = run_k_sweep([1, 4], 1, master_seed=3, n_inliers=40,
                         n_outliers=0, t=50)
    by_k = report.summary["mean_accuracy_by_k"]
    assert set(by_k) == {"1", "4"}
    assert 0.0 <= by_k["1"] <= 1.0


def test_toy_runs_record_each_cell_trained_with_its_derived_seed():
    cells = [("a", "mom-logistic", 6), ("b", "mom-hinge", 4),
             ("c", "fast-klr-mom", 5), ("d", "erm-logistic", 1)]
    report = ExperimentReport(name="cells")
    _toy_runs(report, cells, 2, 13, n_inliers=40, n_outliers=3, t=20, eta0=0.5)
    assert [(rec["run"], rec["method"]) for rec in report.records] == \
        [(r, label) for r in range(2) for label, _, _ in cells]
    for rec in report.records:
        r = rec["run"]
        j = [label for label, _, _ in cells].index(rec["method"])
        _, method, k = cells[j]
        train_set = generate_toy(40, 3, derive_seed(13, r, 0))
        test = generate_toy(TOY_TEST_SIZE, 0, derive_seed(13, r, 1))
        model, _ = train(method, train_set, k, 20, eta0=0.5,
                         seed=derive_seed(13, r, 2 + j))
        assert rec["accuracy"] == accuracy(model, test)
        assert (rec["k"], rec["t"], rec["error"]) == (k, 20, None)


def test_k_sweep_records_a_failed_training(monkeypatch):
    engine = momclf.optim.mom_gd_train

    def fails_at_k4(ds, init, cfg):
        if cfg.k == 4:
            raise NumericError("non-finite parameters at iteration 0")
        return engine(ds, init, cfg)

    monkeypatch.setattr(momclf.optim, "mom_gd_train", fails_at_k4)
    report = run_k_sweep([2, 4], 2, master_seed=3, n_inliers=40,
                         n_outliers=2, t=20)
    failed = [rec for rec in report.records if rec["k"] == 4]
    assert len(failed) == 2
    assert all(rec["accuracy"] is None and "NumericError" in rec["error"]
               for rec in failed)
    assert report.summary["mean_accuracy_by_k"] == {
        "2": report.summary["mom-logistic-k2"]["mean"], "4": None}


def test_records_csv_of_a_failed_training_reads_back_cell_for_cell(tmp_path,
                                                                   monkeypatch):
    # an error's repr holds commas, so its cell must be quoted
    def fails(ds, init, cfg):
        raise ValueError(f"need 1 <= k <= n, got k={cfg.k}, n=3")

    monkeypatch.setattr(momclf.optim, "mom_gd_train", fails)
    report = run_k_sweep([2], 1, master_seed=3, n_inliers=40, n_outliers=2, t=20)
    path = tmp_path / "r.csv"
    report.write_records_csv(path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows == [{key: str(value) for key, value in rec.items()}
                    for rec in report.records]
    assert rows[0]["error"] == "ValueError('need 1 <= k <= n, got k=2, n=3')"
    assert rows[0]["accuracy"] == "None"


def test_k_sweep_rejects_bad_k():
    with pytest.raises(ValueError):
        run_k_sweep([0], 1, n_inliers=40, n_outliers=0, t=10)
    with pytest.raises(ValueError):
        run_k_sweep([30], 1, n_inliers=40, n_outliers=0, t=10)


def test_k_sweep_rejects_a_repeated_k():
    with pytest.raises(ValueError, match="k=4 appears more than once"):
        run_k_sweep([2, 4, 4], 1, n_inliers=40, n_outliers=0, t=10)


def test_timing_probe_single_algorithm():
    report = run_timing_probe(["fast-klr-mom"], n=200, master_seed=1, k=5,
                              t_kernel=5)
    assert len(report.records) == 1
    assert report.records[0]["wall_time"] > 0
    assert report.summary["relative_to_fastest"]["fast-klr-mom"] == 1.0


def test_timing_probe_unknown_algorithm():
    with pytest.raises(ValueError):
        run_timing_probe(["svm"], n=100)


def test_bench_drivers_refuse_an_empty_list():
    with pytest.raises(ValueError, match="algorithms is empty"):
        run_timing_probe([], n=100)
    with pytest.raises(ValueError, match="k_values is empty"):
        run_k_sweep([], 1, n_inliers=40, n_outliers=0, t=10)


def test_report_json_and_csv(tmp_path):
    report = ExperimentReport(name="demo",
                              records=[{"run": 0, "method": "a", "accuracy": 0.5},
                                       {"run": 1, "method": "a", "accuracy": 0.7}])
    report.summary = summarize_accuracies(report.records)
    jpath = tmp_path / "r.json"
    cpath = tmp_path / "r.csv"
    report.to_json(jpath)
    report.write_records_csv(cpath)
    obj = json.loads(jpath.read_text())
    assert obj["name"] == "demo" and len(obj["records"]) == 2
    lines = cpath.read_text().strip().splitlines()
    assert lines[0] == "accuracy,method,run"
    assert len(lines) == 3
