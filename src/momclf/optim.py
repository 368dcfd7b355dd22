"""Descent engines: MOM gradient descent, an ERM baseline, and the
block-kernel logistic-regression variants.

MOM gradient descent redraws a uniform random equipartition at every step,
locates the block whose mean loss is the median, and descends along the sum
of that block's per-sample gradients:

    u_{t+1} = u_t - eta_t * sum_{i in B_med} grad loss_i(u_t)

The kernel engines share the same median-block selection but update the
coefficient vector block-wise; the fast variant fixes the partition up front
and only ever builds the K within-block kernel matrices.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import expit

from momclf.data import Dataset, Partition, random_equipartition
from momclf.losses import LossKind, loss_grad_score, loss_value
from momclf.mom import block_means, median_block_index, median_index, mom_estimate
from momclf.model import (
    KernelModel,
    KernelSpec,
    LinearModel,
    block_kernel_matrices,
    gram,
    linear_score,
)

IRLS_WEIGHT_FLOOR = 1e-10  # keeps z and beta / w finite at saturated probabilities

_SEED_BOUND = 2**63


class NumericError(RuntimeError):
    """Training produced a non-finite update or an unsolvable system."""


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes eta_t.  'inverse-t' is eta0/(t+1), which satisfies the
    divergent-sum / convergent-square-sum conditions the convergence theory
    needs; 'constant' is eta0 for every t and is meant for the deterministic
    ERM baseline and diagnostics only.
    """

    kind: str = "inverse-t"
    eta0: float = 0.5

    def __post_init__(self):
        if self.kind not in ("inverse-t", "constant"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "inverse-t" and not self.eta0 > 0:
            raise ValueError("eta0 must be positive")
        if self.kind == "constant" and self.eta0 < 0:
            # a zero constant step (frozen updates) is a legitimate diagnostic
            raise ValueError("eta0 must be non-negative")

    def rate(self, t: int) -> float:
        if self.kind == "constant":
            return self.eta0
        return self.eta0 / (t + 1)


@dataclass(frozen=True)
class MomGdConfig:
    """Configuration of a MOM gradient-descent run.

    The descent algorithm is stated for K in [3, N/2]; K=1 and K=2 are
    accepted anyway because K=1 is the ERM-equivalent path and the K-sweep
    benchmark scans the whole range.  ``gradient_mode`` selects the literal
    block-sum update ('sum', the default) or the block-mean form ('mean'),
    which is the same algorithm with eta rescaled by the block size.
    """

    k: int
    t: int
    schedule: StepSchedule = field(default_factory=StepSchedule)
    loss: LossKind = LossKind.LOGISTIC
    seed: int = 0
    record_selections: bool = False
    gradient_mode: str = "sum"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if self.gradient_mode not in ("sum", "mean"):
            raise ValueError(f"unknown gradient_mode {self.gradient_mode!r}")
        if self.loss is LossKind.ZERO_ONE:
            raise ValueError("training needs a surrogate loss with a gradient")


@dataclass(frozen=True)
class FastKlrConfig:
    """Configuration of the block-kernel logistic-regression engines."""

    k: int
    t: int
    schedule: StepSchedule = field(default_factory=StepSchedule)
    beta: float = 1e-3
    kernel: KernelSpec = field(default_factory=KernelSpec)
    seed: int = 0
    record_selections: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.t < 1:
            raise ValueError("t must be >= 1")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class IterationRecord:
    t: int
    partition_seed: int
    k_med: int
    block: np.ndarray
    objective: float


@dataclass
class TrainTrace:
    """Per-iteration record of which block drove each descent step."""

    steps: list
    final_objective: float
    n: int
    k: int
    t: int
    block_size: int
    iterates: list | None = None

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": {"n": self.n, "k": self.k, "t": self.t,
                                          "block_size": self.block_size,
                                          "final_objective": self.final_objective}}) + "\n")
            for rec in self.steps:
                fh.write(json.dumps({"t": rec.t,
                                     "partition_seed": rec.partition_seed,
                                     "k_med": rec.k_med,
                                     "block": rec.block.tolist(),
                                     "objective": rec.objective}) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "TrainTrace":
        steps = []
        meta = None
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                if "meta" in obj:
                    meta = obj["meta"]
                    continue
                steps.append(IterationRecord(
                    t=obj["t"], partition_seed=obj["partition_seed"],
                    k_med=obj["k_med"],
                    block=np.asarray(obj["block"], dtype=np.intp),
                    objective=obj["objective"]))
        if meta is None:
            raise ValueError(f"{path}: missing meta line")
        return cls(steps=steps, final_objective=meta["final_objective"],
                   n=meta["n"], k=meta["k"], t=meta["t"],
                   block_size=meta["block_size"])


def _check_finite_params(u, b, t):
    if not (np.all(np.isfinite(u)) and np.isfinite(b)):
        raise NumericError(f"non-finite parameters at iteration {t}")


def mom_gd_train(ds: Dataset, init: LinearModel, cfg: MomGdConfig):
    """MOM gradient descent for a linear model.  Returns (model, trace).

    Each step draws a fresh uniform equipartition into cfg.k blocks,
    evaluates per-sample losses at the current iterate, finds the median
    block, and takes a step against the summed gradient of that block
    (gradient through both the weights and the intercept).
    """
    X, y = ds.training_arrays()
    n = ds.n
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the number of samples {n}")
    if cfg.schedule.kind == "constant":
        warnings.warn("constant step size violates the convergence conditions; "
                      "intended for diagnostics only", stacklevel=2)
    rng = np.random.default_rng(cfg.seed)
    u = init.u.copy()
    b = init.b
    if u.shape[0] != ds.p:
        raise ValueError("init dimension does not match the dataset")
    block_size = n // cfg.k
    steps = []
    for t in range(cfg.t):
        part_seed = int(rng.integers(_SEED_BOUND))
        part = random_equipartition(n, cfg.k, np.random.default_rng(part_seed))
        scores = X @ u + b
        bm = block_means(loss_value(cfg.loss, scores, y), part)
        k_med = median_block_index(bm)
        idx = part.block(k_med)
        g = loss_grad_score(cfg.loss, scores[idx], y[idx])
        if cfg.gradient_mode == "mean":
            g = g / block_size
        eta = cfg.schedule.rate(t)
        u = u - eta * (X[idx].T @ g)
        b = b - eta * g.sum()
        _check_finite_params(u, b, t)
        if cfg.record_selections:
            steps.append(IterationRecord(t=t, partition_seed=part_seed,
                                         k_med=k_med, block=idx,
                                         objective=float(bm.means[k_med])))
    model = LinearModel(u=u, b=b)
    final_seed = int(rng.integers(_SEED_BOUND))
    final_part = random_equipartition(n, cfg.k, np.random.default_rng(final_seed))
    trace = TrainTrace(steps=steps,
                       final_objective=mom_objective(ds, model, final_part, cfg.loss),
                       n=n, k=cfg.k, t=cfg.t, block_size=block_size)
    return model, trace


def erm_gd_train(ds: Dataset, init: LinearModel, t: int,
                 schedule: StepSchedule, loss: LossKind) -> LinearModel:
    """Full-batch gradient descent on the empirical risk (1/N) sum of losses.

    Deterministic given its inputs.  With k=1 the MOM engine takes the same
    steps up to the eta rescaling between the block-sum and mean forms.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    X, y = ds.training_arrays()
    n = ds.n
    u = init.u.copy()
    b = init.b
    for step in range(t):
        scores = X @ u + b
        g = loss_grad_score(loss, scores, y)
        eta = schedule.rate(step)
        u = u - eta * (X.T @ g) / n
        b = b - eta * g.mean()
        _check_finite_params(u, b, step)
    return LinearModel(u=u, b=b)


def mom_objective(ds: Dataset, m: LinearModel, partition: Partition,
                  loss: LossKind) -> float:
    """MOM estimate of the risk of ``m`` under the given fixed partition."""
    X, y = ds.training_arrays()
    return mom_estimate(loss_value(loss, X @ m.u + m.b, y), partition)


@dataclass(frozen=True)
class GradCheckResult:
    status: str  # "ok" or "inconclusive"
    max_rel_deviation: float | None


def median_block_gradient_check(ds: Dataset, m: LinearModel,
                                partition: Partition, loss: LossKind,
                                h: float) -> GradCheckResult:
    """Compare the analytic gradient of the MOM objective with central
    finite differences under the same fixed partition.

    The analytic gradient is the mean gradient over the median block.  It
    only equals the derivative of the objective while the median block does
    not change, so the check first verifies that the block means adjacent
    to the median are separated by more than 10 * h * (gradient bound); if
    not, the result is inconclusive rather than a failure.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    X, y = ds.training_arrays()
    scores = X @ m.u + m.b
    bm = block_means(loss_value(loss, scores, y), partition)
    k_med = median_block_index(bm)
    # distance to the nearest other block mean: a neighbour in sorted order
    others = np.delete(bm.means, k_med)
    gap = np.abs(others - bm.means[k_med]).min() if others.size else np.inf
    grad_bound = max(1.0, float(np.abs(X).max()))
    if gap <= 10.0 * h * grad_bound:
        return GradCheckResult(status="inconclusive", max_rel_deviation=None)

    idx = partition.block(k_med)
    g = loss_grad_score(loss, scores[idx], y[idx])
    analytic = np.r_[X[idx].T @ g, g.sum()] / partition.block_size

    p = m.u.shape[0]
    numeric = np.empty(p + 1)
    for j in range(p + 1):
        du = np.zeros(p)
        db = 0.0
        if j < p:
            du[j] = h
        else:
            db = h
        hi = mom_objective(ds, LinearModel(u=m.u + du, b=m.b + db), partition, loss)
        lo = mom_objective(ds, LinearModel(u=m.u - du, b=m.b - db), partition, loss)
        numeric[j] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-10)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom))
    return GradCheckResult(status="ok", max_rel_deviation=max_rel)


def expected_mom_objective(ds: Dataset, m: LinearModel, k: int, loss: LossKind,
                           n_mc: int = 300, seed: int = 0) -> float:
    """Monte-Carlo estimate of the partition-averaged MOM risk at ``m``.

    Averages ``mom_objective`` over ``n_mc`` independent uniform random
    equipartitions (300 by default).
    """
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    rng = np.random.default_rng(seed)
    X, y = ds.training_arrays()
    losses = loss_value(loss, X @ m.u + m.b, y)
    total = 0.0
    for _ in range(n_mc):
        total += mom_estimate(losses, random_equipartition(ds.n, k, rng))
    return total / n_mc


def _irls_update(design, alpha_block, y_block, beta, eta):
    """One damped IRLS step of kernel logistic regression on one block.

    With block kernel matrix K, scores s = K a, IRLS weights
    w = pi (1 - pi) and working response z = s + (y01 - pi) / w, the
    penalized linearization min_a |W^1/2 (z - K a)|^2 + beta a'Ka has the
    normal equations K (W K + beta I) a = K W z, which
    (K + beta W^-1) a = z solves.  That matrix is SPD for any PSD kernel,
    the rank-deficient linear kernel included, because its diagonal is at
    least 4 beta; one Cholesky solve gives the target, and the step moves
    the block's coefficients a fraction eta towards it.
    """
    s = design @ alpha_block
    pi = expit(s)
    w = np.maximum(pi * (1.0 - pi), IRLS_WEIGHT_FLOOR)
    y01 = (y_block + 1.0) / 2.0
    z = s + (y01 - pi) / w
    target = scipy.linalg.solve(design + np.diag(beta / w), z, assume_a="pos")
    if not np.all(np.isfinite(target)):
        raise NumericError("IRLS produced non-finite coefficients")
    return alpha_block * (1.0 - eta) + eta * target


def _klr_block_objectives(scores_per_block, y, blocks, penalty):
    """Per-block data-fit means plus the shared quadratic penalty."""
    fits = np.array([
        np.logaddexp(0.0, -y[blocks[j]] * scores_per_block[j]).mean()
        for j in range(len(scores_per_block))
    ])
    return fits + penalty


def fast_klr_mom_train(ds: Dataset, cfg: FastKlrConfig):
    """Fast block-kernel logistic regression with MOM block selection.

    The partition is fixed once; only the K within-block kernel matrices
    are ever built.  Each step scores every block against its own kernel
    matrix, picks the median block by data-fit-plus-penalty, takes a damped
    IRLS step there, and shrinks every other block's coefficients by
    (1 - eta_t).  Returns (model, trace); the model's active block is the
    median block of the last step.
    """
    X, y = ds.training_arrays()
    n = ds.n
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the number of samples {n}")
    rng = np.random.default_rng(cfg.seed)
    part_seed = int(rng.integers(_SEED_BOUND))
    part = random_equipartition(n, cfg.k, np.random.default_rng(part_seed))
    mats = block_kernel_matrices(ds, part, cfg.kernel)
    blocks = [part.block(j) for j in range(cfg.k)]
    alpha = np.zeros(n)
    k_med = 0
    steps = []
    for t in range(cfg.t):
        scores = [mats[j] @ alpha[blocks[j]] for j in range(cfg.k)]
        penalty = cfg.beta * sum(
            float(alpha[blocks[j]] @ scores[j]) for j in range(cfg.k)
        )
        objectives = _klr_block_objectives(scores, y, blocks, penalty)
        k_med = median_index(objectives)
        eta = cfg.schedule.rate(t)
        new_alpha = alpha * (1.0 - eta)
        idx = blocks[k_med]
        new_alpha[idx] = _irls_update(mats[k_med], alpha[idx], y[idx], cfg.beta, eta)
        alpha = new_alpha
        if not np.all(np.isfinite(alpha)):
            raise NumericError(f"non-finite coefficients at iteration {t}")
        if cfg.record_selections:
            steps.append(IterationRecord(t=t, partition_seed=part_seed,
                                         k_med=k_med, block=idx,
                                         objective=float(objectives[k_med])))
    model = KernelModel(alpha=alpha, support=X.copy(), kernel=cfg.kernel,
                        partition=part, active_block=k_med)
    final_scores = [mats[j] @ alpha[blocks[j]] for j in range(cfg.k)]
    final_pen = cfg.beta * sum(float(alpha[blocks[j]] @ final_scores[j])
                               for j in range(cfg.k))
    final_obj = _klr_block_objectives(final_scores, y, blocks, final_pen)
    trace = TrainTrace(steps=steps,
                       final_objective=float(final_obj[median_index(final_obj)]),
                       n=n, k=cfg.k, t=cfg.t, block_size=part.block_size)
    return model, trace


def klr_mom_train(ds: Dataset, cfg: FastKlrConfig):
    """Full-Gram kernel logistic regression with MOM block selection.

    The comparison baseline for the fast variant: it materializes the whole
    N x N Gram matrix, redraws the partition at every step, and scores each
    sample against the full support, so every step pays the full quadratic
    kernel cost.  Same block-wise update rule as the fast variant.
    """
    X, y = ds.training_arrays()
    n = ds.n
    if cfg.k > n:
        raise ValueError(f"k={cfg.k} exceeds the number of samples {n}")
    rng = np.random.default_rng(cfg.seed)
    full = gram(cfg.kernel, X, X, idx_rows=np.arange(n), idx_cols=np.arange(n))
    alpha = np.zeros(n)
    k_med = 0
    part = None
    steps = []
    for t in range(cfg.t):
        part_seed = int(rng.integers(_SEED_BOUND))
        part = random_equipartition(n, cfg.k, np.random.default_rng(part_seed))
        blocks = [part.block(j) for j in range(cfg.k)]
        scores = full @ alpha
        penalty = cfg.beta * float(alpha @ scores)
        objectives = _klr_block_objectives(
            [scores[idx] for idx in blocks], y, blocks, penalty)
        k_med = median_index(objectives)
        eta = cfg.schedule.rate(t)
        new_alpha = alpha * (1.0 - eta)
        idx = blocks[k_med]
        design = full[np.ix_(idx, idx)]
        new_alpha[idx] = _irls_update(design, alpha[idx], y[idx], cfg.beta, eta)
        alpha = new_alpha
        if not np.all(np.isfinite(alpha)):
            raise NumericError(f"non-finite coefficients at iteration {t}")
        if cfg.record_selections:
            steps.append(IterationRecord(t=t, partition_seed=part_seed,
                                         k_med=k_med, block=idx,
                                         objective=float(objectives[k_med])))
    model = KernelModel(alpha=alpha, support=X.copy(), kernel=cfg.kernel,
                        partition=part, active_block=k_med, full_support=True)
    trace = TrainTrace(steps=steps, final_objective=float("nan"),
                       n=n, k=cfg.k, t=cfg.t, block_size=part.block_size)
    return model, trace
