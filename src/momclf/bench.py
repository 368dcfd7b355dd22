"""Experiment drivers: robustness comparison, K-sweep, convergence rates,
and timing probes.

Every experiment takes a master seed and derives per-run seeds through
``derive_seed``, which hashes (master_seed, *path) with numpy's
SeedSequence.  Rerunning an experiment with the same master seed reproduces
every non-timing record value exactly; runs are independent, so the records
could equally be produced in parallel.
"""

from __future__ import annotations

import csv
import json
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from momclf._fields import integer, member
from momclf.data import Dataset, block_count, generate_gaussians, generate_moons, generate_toy
from momclf.losses import LossKind, expit, loss_grad_score, loss_value
from momclf.model import LinearModel, linear_score, predict
from momclf.optim import KERNEL_METHODS, METHODS, NumericError, train

TOY_TEST_SIZE = 500
RATE_TEST_SIZE = 1_000_000
RATE_GRID = (250, 500, 1000, 2000, 4000, 8000)
RATE_T = 2000
# Per-dataset descent configuration for the rate experiment, chosen so the
# descent has converged at T = RATE_T: at n = 8000, 20 runs, doubling T moves
# the mean excess by 0.31 (Gaussians, seed 71) and 0.11 (moons, seed 72)
# standard errors.  The moons' uncentred features make their weakest
# logistic curvature (0.018) six times weaker than the blobs' (0.11), so
# inverse-t steps need a large effective eta0 at large n, while large steps
# on small blocks throw the descent far out, where it recovers slowly.  The
# block-sum update scales the effective step with the block size n/K, which
# serves both ends of the grid; the blobs converge with block-mean steps.
RATE_CONFIG = {"gaussians": {"k": 10, "eta0": 2.0, "gradient_mode": "mean"},
               "moons": {"k": 10, "eta0": 0.5, "gradient_mode": "sum"}}


def derive_seed(master_seed: int, *path: int) -> int:
    """Deterministic 64-bit child seed for (master_seed, *path)."""
    ss = np.random.SeedSequence([int(master_seed), *map(int, path)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass
class ExperimentReport:
    """Per-run records plus summary statistics of one experiment."""

    name: str
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self, path) -> None:
        payload = {"name": self.name, "records": self.records,
                   "summary": self.summary}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)

    def write_records_csv(self, path) -> None:
        if not self.records:
            raise ValueError("no records to write")
        cols = sorted({k for rec in self.records for k in rec})
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(cols)
            # str() keeps each cell's text, None included
            out.writerows([str(rec.get(c, "")) for c in cols] for rec in self.records)


def accuracy(model, test: Dataset) -> float:
    """Fraction of test labels matched by sign(score), sign(0) = +1."""
    if test.n < 1:
        raise ValueError("test set is empty")
    return float(np.mean(predict(model, test.X) == test.y))


def summarize_accuracies(records) -> dict:
    """Per-method mean/median/quartiles of the accuracy records."""
    out = {}
    methods = sorted({rec["method"] for rec in records if "accuracy" in rec})
    for method in methods:
        accs = np.array([rec["accuracy"] for rec in records
                         if rec["method"] == method and rec["accuracy"] is not None])
        if accs.size == 0:
            continue
        out[method] = {
            "mean": float(accs.mean()),
            "median": float(np.median(accs)),
            "q1": float(np.quantile(accs, 0.25)),
            "q3": float(np.quantile(accs, 0.75)),
            "n": int(accs.size),
        }
    return out


def fit_loglog(ns, values) -> tuple[float, float, float, int]:
    """Least-squares line through (log n, log value); non-positive values
    are dropped with a warning.  Returns (slope, intercept, r2, points)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if not np.all(keep):
        warnings.warn(f"dropping {int((~keep).sum())} non-positive excess-risk "
                      "points from the log-log fit", stacklevel=2)
    if keep.sum() < 2:
        raise ValueError("need at least two positive points for a slope fit")
    lx = np.log(ns[keep])
    ly = np.log(values[keep])
    design = np.c_[lx, np.ones(lx.size)]
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - design @ coef
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - float((resid ** 2).sum()) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), float(coef[1]), r2, int(keep.sum())


def _toy_runs(report: ExperimentReport, cells, n_runs: int, master_seed: int,
              n_inliers: int, n_outliers: int, t: int, eta0: float) -> None:
    """Append one record per run and (label, method, k) cell to ``report``.

    Run r draws a corrupted toy training set and a clean test set; cell j
    trains on it with inverse-t steps from eta0 and seed
    derive_seed(master_seed, r, 2 + j).  A failed training is recorded
    with its error and accuracy None, not raised.
    """
    integer("n_runs", n_runs, 1)
    for r in range(n_runs):
        train_set = generate_toy(n_inliers, n_outliers,
                                 derive_seed(master_seed, r, 0))
        test = generate_toy(TOY_TEST_SIZE, 0, derive_seed(master_seed, r, 1))
        for j, (label, method, k) in enumerate(cells):
            t0 = time.perf_counter()
            try:
                model, _ = train(method, train_set, k, t, eta0=eta0,
                                 seed=derive_seed(master_seed, r, 2 + j))
                acc, err = accuracy(model, test), None
            except Exception as exc:  # recorded per run, not fatal to the report
                acc, err = None, repr(exc)
            report.records.append({
                "run": r, "method": label, "k": k, "t": t, "accuracy": acc,
                "wall_time": time.perf_counter() - t0, "error": err,
            })
    report.summary = summarize_accuracies(report.records)


def run_robustness_experiment(n_runs: int, master_seed: int = 0,
                              n_inliers: int = 600, n_outliers: int = 30,
                              k: int = 120, t: int = 2000,
                              eta0: float = 0.5) -> ExperimentReport:
    """Paired accuracy comparison on the corrupted toy setup.

    Each run draws a fresh corrupted training set and a clean test set,
    then trains MOM-logistic, MOM-hinge and the ERM-logistic baseline on
    the same data.  Per-run training failures are recorded, not fatal.
    """
    report = ExperimentReport(name="robustness")
    cells = [("mom-logistic", "mom-logistic", k), ("mom-hinge", "mom-hinge", k),
             ("erm-logistic", "erm-logistic", 1)]
    _toy_runs(report, cells, n_runs, master_seed, n_inliers, n_outliers, t, eta0)
    return report


def run_k_sweep(k_values, n_runs: int, master_seed: int = 0,
                n_inliers: int = 600, n_outliers: int = 30,
                t: int = 2000, eta0: float = 0.5) -> ExperimentReport:
    """Mean MOM-logistic accuracy as a function of the block count K.

    A K whose every run failed has mean accuracy None."""
    k_values = list(k_values)
    if not k_values:
        raise ValueError("k_values is empty")
    for k in k_values:
        if not 1 <= k <= (n_inliers + n_outliers) // 2:
            raise ValueError(f"k={k} outside [1, n/2]")
        if k_values.count(k) > 1:
            raise ValueError(f"k={k} appears more than once in k_values")
    report = ExperimentReport(name="k-sweep")
    cells = [(f"mom-logistic-k{k}", "mom-logistic", k) for k in k_values]
    _toy_runs(report, cells, n_runs, master_seed, n_inliers, n_outliers, t, eta0)
    report.summary["mean_accuracy_by_k"] = {
        str(k): report.summary[label]["mean"] if label in report.summary else None
        for label, _, k in cells
    }
    return report


def _rate_generator(kind: str):
    if member("dataset", kind, ("gaussians", "moons")) == "moons":
        return lambda n, seed: generate_moons(n, 0.3, seed)
    return generate_gaussians


def logistic_risk(model: LinearModel, ds: Dataset) -> float:
    """Empirical logistic risk (1/N) sum log(1 + exp(-y_i f(x_i)))."""
    return float(np.mean(loss_value(LossKind.LOGISTIC, linear_score(model, ds.X), ds.y)))


def logistic_risk_minimizer(ds: Dataset) -> LinearModel:
    """The minimizer of the empirical logistic risk of ``ds``, by damped
    Newton steps from zero until the Newton decrement vanishes.

    Raises NumericError if no minimizer is reached, as on linearly
    separable data, where the risk has none.
    """
    X, y = ds.X, ds.y
    design = np.c_[X, np.ones(ds.n)]

    def risk(theta):
        return float(np.mean(loss_value(LossKind.LOGISTIC, design @ theta, y)))

    theta = np.zeros(design.shape[1])
    current = risk(theta)
    for _ in range(50):
        scores = design @ theta
        grad = design.T @ loss_grad_score(LossKind.LOGISTIC, scores, y) / ds.n
        weights = expit(scores) * expit(-scores)
        try:
            step = np.linalg.solve((design * weights[:, None]).T @ design / ds.n,
                                   grad)
        except np.linalg.LinAlgError as exc:
            raise NumericError("singular logistic Hessian: the risk has no "
                               "minimizer") from exc
        # half the squared Newton decrement bounds the remaining risk gap
        # near the minimum; 1e-15 is far below any excess the rate
        # experiment measures
        if step @ grad <= 2e-15:
            return LinearModel(u=theta[:-1], b=float(theta[-1]))
        while risk(theta - step) > current:
            step = step / 2
            if np.array_equal(theta - step, theta):
                raise NumericError("logistic risk line search stalled")
        theta = theta - step
        current = risk(theta)
    raise NumericError("logistic risk minimizer did not converge in 50 Newton "
                       "steps")


def run_rate_experiment(dataset_kind: str, n_values=RATE_GRID,
                        n_runs: int = 20, master_seed: int = 0,
                        t: int = RATE_T,
                        test_size: int = RATE_TEST_SIZE) -> ExperimentReport:
    """Excess logistic risk of MOM-logistic as the sample size grows.

    One Monte-Carlo test sample of ``test_size`` points is drawn per
    experiment, and the logistic-risk minimizer over linear classifiers on
    that sample is the reference shared by every n and every run.  Each run
    trains MOM-logistic on a fresh n-sample set; its excess risk is its
    logistic risk on the test sample minus the reference's, which is
    non-negative by construction.  The report carries the per-n mean and
    standard error of the excess and the least-squares slope of
    log(mean excess) against log(n).  K, eta0 and the gradient mode come
    from ``RATE_CONFIG``.
    """
    n_values = list(n_values)
    if len(n_values) < 4 or any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing with >= 4 points")
    gen = _rate_generator(dataset_kind)
    config = RATE_CONFIG[dataset_kind]
    report = ExperimentReport(name=f"rates-{dataset_kind}")
    # derive_seed pads short paths with zeros, so the first path element,
    # not the path length, keeps the three streams apart
    test = gen(test_size, derive_seed(master_seed, 0))
    reference_risk = logistic_risk(logistic_risk_minimizer(test), test)
    mean_excess, stderr_excess = [], []
    for n in n_values:
        excesses = []
        for r in range(n_runs):
            train_set = gen(n, derive_seed(master_seed, 1, n, r))
            model, _ = train("mom-logistic", train_set,
                             min(config["k"], train_set.n // 2), t,
                             eta0=config["eta0"], seed=derive_seed(master_seed, 2, n, r),
                             gradient_mode=config["gradient_mode"])
            excess = logistic_risk(model, test) - reference_risk
            excesses.append(excess)
            report.records.append({"n": n, "run": r, "method": "mom-logistic",
                                   "excess_risk": excess})
        mean_excess.append(float(np.mean(excesses)))
        stderr_excess.append(float(np.std(excesses, ddof=1) / np.sqrt(n_runs))
                             if n_runs > 1 else float("nan"))
    slope, intercept, r2, kept = fit_loglog(n_values, mean_excess)
    report.summary = {
        "mean_excess_by_n": dict(zip(map(str, n_values), mean_excess)),
        "stderr_excess_by_n": dict(zip(map(str, n_values), stderr_excess)),
        "slope": slope, "intercept": intercept, "r_squared": r2,
        "points_kept": kept,
    }
    return report


def run_timing_probe(algorithms, n: int, master_seed: int = 0, k: int = 20,
                     t_linear: int = 2000, t_kernel: int = 50) -> ExperimentReport:
    """Wall-clock train-plus-test time of each named algorithm on clean
    Gaussian blobs of size n.

    One warm-up run per algorithm is discarded before timing.  Absolute
    times are machine-dependent; the report also carries ratios to the
    fastest algorithm.
    """
    block_count(k, n)
    if not algorithms:
        raise ValueError("algorithms is empty")
    for name in algorithms:
        member("algorithms", name, METHODS)
    report = ExperimentReport(name="timing")
    train_set = generate_gaussians(n, derive_seed(master_seed, 0))
    test = generate_gaussians(n, derive_seed(master_seed, 1))
    times = {}
    for name in algorithms:
        t_steps = t_kernel if name in KERNEL_METHODS else t_linear
        for rep in (2, 3):  # the first run is a discarded warm-up
            t0 = time.perf_counter()
            model, _ = train(name, train_set, k, t_steps,
                             seed=derive_seed(master_seed, rep))
            predict(model, test.X)
            elapsed = time.perf_counter() - t0
        times[name] = elapsed
        report.records.append({"method": name, "n": n, "k": k,
                               "t": t_steps, "wall_time": elapsed})
    fastest = min(times.values())
    report.summary = {
        "wall_time": times,
        "relative_to_fastest": {name: v / fastest for name, v in times.items()},
    }
    return report
