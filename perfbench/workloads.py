"""Workload definitions: inputs from a seed, one job, its output checks.

A job is one user-visible unit of work: train, then score a held-out set;
for ``toy-outlier`` also write the selection trace, read it back and flag
outliers from it.  Every call into the package goes through a module
attribute (``momclf.optim.mom_gd_train``, ``momclf.outlier.flag_outliers``,
...) so that the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace

import numpy as np

import momclf.bench
import momclf.data
import momclf.optim
import momclf.outlier
from momclf.bench import derive_seed
from momclf.losses import LossKind
from momclf.model import KernelSpec, LinearModel, record_gram_calls
from momclf.optim import FastKlrConfig, MomGdConfig, StepSchedule, TrainTrace

# derive_seed paths: (seed, data_key, ROLE, ...).  The two KLR workloads share
# a data_key, so one seed gives them the same inputs and job seeds.
TRAIN_DATA, TEST_DATA, JOB_SEED, WARMUP_SEED = 0, 1, 2, 3


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload.  ``quality_jobs`` is the fixed number of
    leading jobs whose outputs feed the digest and the quality medians, so
    those figures depend on the seed only, never on how many jobs fit in
    the measured time."""

    kind: str  # "toy", "gauss", "klr-fast" or "klr-full"
    data_key: int
    n: int
    n_outliers: int
    n_test: int
    k: int
    t: int
    warmup_t: int
    eta0: float
    quality_jobs: int


# gauss-large-n keeps the rate experiment's largest cell (n=8000, K=10) but
# trains T=500 steps, not 2000: every step costs the same, and a job four
# times shorter gives a run about 35 jobs, not 8.
FULL = {
    "toy-outlier": Spec("toy", 0, 600, 30, 500, 120, 2000, 100, 0.5, 50),
    "gauss-large-n": Spec("gauss", 1, 8000, 0, 20000, 10, 500, 100, 2.0, 10),
    "klr-fast": Spec("klr-fast", 2, 4000, 0, 4000, 20, 50, 5, 0.5, 15),
    "klr-full": Spec("klr-full", 2, 4000, 0, 4000, 20, 50, 5, 0.5, 15),
}

TINY = {
    "toy-outlier": replace(FULL["toy-outlier"], n=60, n_outliers=6, n_test=50,
                           k=10, t=50, warmup_t=5, quality_jobs=2),
    "gauss-large-n": replace(FULL["gauss-large-n"], n=400, n_test=400, t=50,
                             warmup_t=5, quality_jobs=2),
    "klr-fast": replace(FULL["klr-fast"], n=200, n_test=200, k=5, t=5,
                        warmup_t=2, quality_jobs=2),
    "klr-full": replace(FULL["klr-full"], n=200, n_test=200, k=5, t=5,
                        warmup_t=2, quality_jobs=2),
}


def generate(spec: Spec, seed: int):
    """(train, test) datasets of the workload for ``seed``."""
    s_train = derive_seed(seed, spec.data_key, TRAIN_DATA)
    s_test = derive_seed(seed, spec.data_key, TEST_DATA)
    if spec.kind == "toy":
        return (momclf.data.generate_toy(spec.n, spec.n_outliers, s_train),
                momclf.data.generate_toy(spec.n_test, 0, s_test))
    return (momclf.data.generate_gaussians(spec.n, s_train),
            momclf.data.generate_gaussians(spec.n_test, s_test))


@dataclass
class JobResult:
    seconds: float
    steps: int
    accuracy: float
    recall: float | None
    precision: float | None
    digest: str
    failures: list
    trace_bytes: int = 0


def _model_bytes(model) -> bytes:
    if isinstance(model, LinearModel):
        return model.u.tobytes() + np.float64(model.b).tobytes()
    return (model.alpha.tobytes() + np.int64(model.active_block).tobytes()
            + model.partition.blocks.tobytes())


def _traces_equal(a: TrainTrace, b: TrainTrace) -> bool:
    if (a.n, a.k, a.t, a.block_size) != (b.n, b.k, b.t, b.block_size):
        return False
    if a.final_objective != b.final_objective or len(a.steps) != len(b.steps):
        return False
    return all(
        (r.t, r.partition_seed, r.k_med, r.objective)
        == (s.t, s.partition_seed, s.k_med, s.objective)
        and np.array_equal(r.block, s.block)
        for r, s in zip(a.steps, b.steps))


def _cross_block_calls(log, partition) -> int:
    """Gram evaluations whose rows and columns do not lie in one block."""
    owner = np.full(partition.n, -1)
    for j in range(partition.k):
        owner[partition.block(j)] = j
    bad = 0
    for rows, cols in log:
        if rows is None or cols is None:
            bad += 1
            continue
        blocks = np.unique(np.concatenate([owner[rows], owner[cols]]))
        bad += not (blocks.size == 1 and blocks[0] >= 0)
    return bad


def _linear_job(spec, train, test, seed, t, workdir):
    """Returns (elapsed seconds, model, extra outputs, failures)."""
    schedule = StepSchedule(kind="inverse-t", eta0=spec.eta0)
    toy = spec.kind == "toy"
    cfg = MomGdConfig(k=spec.k, t=t, schedule=schedule, loss=LossKind.LOGISTIC,
                      seed=seed, record_selections=toy,
                      gradient_mode="sum" if toy else "mean")
    out = {}
    t0 = time.perf_counter()
    model, trace = momclf.optim.mom_gd_train(train, LinearModel.zeros(train.p), cfg)
    out["accuracy"] = momclf.bench.accuracy(model, test)
    if toy:
        path = os.path.join(workdir, "trace.jsonl")
        trace.to_jsonl(path)
        out["trace_bytes"] = os.path.getsize(path)
        read_back = TrainTrace.from_jsonl(path)
        counts = momclf.outlier.selection_counts(read_back, train.n)
        flagged = momclf.outlier.flag_outliers(counts, threshold=1)
        out["precision"], out["recall"] = momclf.outlier.detection_metrics(
            flagged, train)
    elapsed = time.perf_counter() - t0
    failures = []
    if toy:
        if not _traces_equal(trace, read_back):
            failures.append("trace read back differs from the in-memory trace")
        expected = t * (train.n // spec.k)
        if int(counts.counts.sum()) != expected:
            failures.append(f"selection counts total {int(counts.counts.sum())}"
                            f" != T*(n//K) = {expected}")
        out["extra"] = counts.counts.tobytes() + flagged.tobytes()
    return elapsed, model, out, failures


def _klr_job(spec, train, test, seed, t, workdir):
    cfg = FastKlrConfig(k=spec.k, t=t,
                        schedule=StepSchedule(kind="inverse-t", eta0=spec.eta0),
                        beta=1e-3,
                        kernel=KernelSpec(kind="rbf", gamma=1.0 / train.p),
                        seed=seed)
    out = {}
    failures = []
    t0 = time.perf_counter()
    if spec.kind == "klr-fast":
        with record_gram_calls() as log:
            model, _ = momclf.optim.fast_klr_mom_train(train, cfg)
    else:
        model, _ = momclf.optim.klr_mom_train(train, cfg)
    out["accuracy"] = momclf.bench.accuracy(model, test)
    elapsed = time.perf_counter() - t0
    if spec.kind == "klr-fast":
        cross = _cross_block_calls(log, model.partition)
        if cross:
            failures.append(f"{cross} Gram evaluations touch cross-block entries")
    return elapsed, model, out, failures


def run_job(spec: Spec, train, test, seed: int, t: int, workdir: str) -> JobResult:
    """One timed job plus its output checks.  Exceptions propagate."""
    body = _linear_job if spec.kind in ("toy", "gauss") else _klr_job
    elapsed, model, out, failures = body(spec, train, test, seed, t, workdir)
    params = model.u if isinstance(model, LinearModel) else model.alpha
    if not (np.all(np.isfinite(params))
            and np.isfinite(getattr(model, "b", 0.0))):
        failures.append("non-finite model parameters")
    digest = hashlib.sha256(_model_bytes(model) + out.get("extra", b""))
    return JobResult(seconds=elapsed, steps=t, accuracy=out["accuracy"],
                     recall=out.get("recall"), precision=out.get("precision"),
                     digest=digest.hexdigest(), failures=failures,
                     trace_bytes=out.get("trace_bytes", 0))


def job_seed(spec: Spec, seed: int, j: int) -> int:
    return derive_seed(seed, spec.data_key, JOB_SEED, j)


def warmup_seed(spec: Spec, seed: int, r: int) -> int:
    return derive_seed(seed, spec.data_key, WARMUP_SEED, r)
