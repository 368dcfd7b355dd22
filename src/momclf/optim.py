"""Descent engines: MOM gradient descent and the block-kernel
logistic-regression variants.

MOM gradient descent redraws a uniform random equipartition at every step,
locates the block whose mean loss is the median, and descends along the sum
of that block's per-sample gradients:

    u_{t+1} = u_t - eta_t * sum_{i in B_med} grad loss_i(u_t)

With one block the median of means is the empirical mean, so ERM is the
K=1 run in block-mean form: full-batch gradient descent on the empirical
risk.  All three MOM engines run one step loop and its median-block selection;
they differ in their parameters, initial scores and block step, which returns
the next parameters and the scores at them: X u + b for the linear engine, and
for the kernel engines the rank-|B| update (1 - eta) s + K[:, B] d, which costs
O(n |B|) instead of the O(n^2) of rescoring K alpha.  Of the two kernel
engines, the fast variant fixes the partition up front and builds only the
within-block kernel matrices of the blocks it selects, the full variant
redraws it every step and scores against the full Gram matrix.  ``train`` is
the one map from a method name in ``METHODS`` to its configuration and
engine.
"""

from __future__ import annotations

import itertools
import json
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from momclf._fields import (INDICES, INTEGER, NUMBER, fault, integer, member, positive,
                            read_fields)
from momclf.data import Dataset, Partition, block_count, random_equipartition
from momclf.losses import LossKind, expit, loss_grad_score, loss_value
from momclf.mom import block_means, median_block_index, mom_estimate
from momclf.model import (
    KERNEL_KINDS,
    KernelModel,
    KernelSpec,
    LinearModel,
    bandwidth,
    gram,
    kernel_for,
)

IRLS_WEIGHT_FLOOR = 1e-10  # keeps z and beta / w finite at saturated probabilities

_SEED_BOUND = 2**63

SCHEDULE_KINDS = ("inverse-t", "constant")
GRADIENT_MODES = ("sum", "mean")


class NumericError(RuntimeError):
    """Training produced a non-finite update or an unsolvable system."""


@dataclass(frozen=True)
class StepSchedule:
    """Step sizes eta_t.  'inverse-t' is eta0/(t+1), which satisfies the
    divergent-sum / convergent-square-sum conditions the convergence theory
    needs; 'constant' is eta0 for every t and is meant for deterministic
    full-batch descent (K=1, which is ERM) and diagnostics only.
    """

    kind: str = "inverse-t"
    eta0: float = 0.5

    def __post_init__(self):
        member("schedule", self.kind, SCHEDULE_KINDS)
        # a zero constant step (frozen updates) is a legitimate diagnostic
        positive("eta0", self.eta0, zero=self.kind == "constant")

    def rate(self, t: int) -> float:
        if self.kind == "constant":
            return self.eta0
        return self.eta0 / (t + 1)


def regularization(value):
    """The one beta rule, of ``train``, ``FastKlrConfig``, --beta and a config."""
    return positive("beta", value)


def seed(value):
    """The one seed rule, of both engine configurations, --seed and a config."""
    return integer("seed", value, 0)


def _check_run(cfg) -> None:
    """The k, t and seed rules of both engine configurations."""
    integer("k", cfg.k, 1)
    integer("t", cfg.t, 1)
    seed(cfg.seed)


@dataclass(frozen=True)
class MomGdConfig:
    """Configuration of a MOM gradient-descent run.

    The descent algorithm is stated for K in [3, N/2]; K=1 and K=2 are
    accepted anyway because K=1 in block-mean form *is* ERM and the K-sweep
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
        _check_run(self)
        member("gradient_mode", self.gradient_mode, GRADIENT_MODES)


@dataclass(frozen=True)
class FastKlrConfig:
    """Configuration of the block-kernel logistic-regression engines.  The
    kernel has no default here: ``train`` holds the only one."""

    k: int
    t: int
    kernel: KernelSpec
    schedule: StepSchedule = field(default_factory=StepSchedule)
    beta: float = 1e-3
    seed: int = 0
    record_selections: bool = False

    def __post_init__(self):
        _check_run(self)
        regularization(self.beta)


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

    def to_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            meta = {"n": self.n, "k": self.k, "t": self.t, "block_size": self.block_size,
                    "final_objective": self.final_objective}
            # k and t may be numpy integers, which json writes through int
            fh.write(json.dumps({"meta": meta}, default=int) + "\n")
            for rec in self.steps:
                fh.write(json.dumps({"t": rec.t,
                                     "partition_seed": rec.partition_seed,
                                     "k_med": rec.k_med,
                                     "block": rec.block.tolist(),
                                     "objective": rec.objective}) + "\n")

    @classmethod
    def from_jsonl(cls, path) -> "TrainTrace":
        """Read a trace written by :meth:`to_jsonl`: its meta line, then one
        record a step.  A malformed line, a meta line whose ``k`` lies outside
        [1, n], whose ``t`` is < 1 or whose ``block_size`` is not n // k, a
        block that is not ``block_size`` ascending indices in [0, n), a
        ``k_med`` outside [0, k), a ``t`` other than the record's position, a
        ``partition_seed`` outside [0, 2**63), or a record count that is
        neither 0 nor ``t`` raises ValueError naming the path, the line's
        1-based number and any field."""
        steps, lineno = [], 1
        with open(path, "r", encoding="utf-8") as fh:
            try:
                meta = read_fields(_decode(fh.readline()), _META_LINE, "record")["meta"]
                n, k, size = meta["n"], meta["k"], meta["block_size"]
                block_count(k, n, "meta.k")
                integer("meta.t", meta["t"], 1)
                if size != n // k:
                    raise fault("meta.block_size", f"be n // k = {n // k}", size)
                for lineno, line in enumerate(fh, start=2):
                    obj = _decode(line)
                    rec = read_fields(obj, _STEP_FIELDS, "record")
                    block = obj["block"]
                    if len(block) != size or block and (block[0] < 0 or block[-1] >= n or any(
                            map(operator.ge, block, block[1:]))):  # repeats or descends
                        raise fault("block", f"hold {size} indices in [0, {n}), ascending",
                                    block)
                    if not 0 <= rec["k_med"] < k:
                        raise fault("k_med", f"lie in [0, {k})", rec["k_med"])
                    if rec["t"] != lineno - 2:
                        raise fault("t", f"be the record's position {lineno - 2}",
                                    rec["t"])
                    if not 0 <= rec["partition_seed"] < _SEED_BOUND:
                        raise fault("partition_seed", "lie in [0, 2**63)",
                                    rec["partition_seed"])
                    steps.append(IterationRecord(**rec))
                if len(steps) not in (0, meta["t"]):
                    lineno = 1
                    raise fault("meta.t", "equal the number of step records "
                                f"({len(steps)})", meta["t"])
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not JSON "
                                 f"({exc.msg})") from None
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
        return cls(steps=steps, **meta)


# json.loads without its per-call argument handling, for one call a line
_decode = json.JSONDecoder().decode
# The field kinds of a trace's meta line and of each step record.
_META_LINE = {"meta": {"n": INTEGER, "k": INTEGER, "t": INTEGER,
                       "block_size": INTEGER, "final_objective": NUMBER}}
_STEP_FIELDS = {"t": INTEGER, "partition_seed": INTEGER, "k_med": INTEGER,
                "block": INDICES, "objective": NUMBER}


def _redrawn_partitions(n: int, k: int, rng):
    """Endless (seed, partition) pairs: each partition is drawn from a
    fresh generator seeded by the next 63-bit draw of ``rng``, so a trace
    can replay any step from its recorded seed.  At k=1 every draw is the
    one block arange(n), so the first pair repeats."""
    def draw():
        part_seed = int(rng.integers(_SEED_BOUND))
        return part_seed, random_equipartition(
            n, k, np.random.default_rng(part_seed))

    return itertools.repeat(draw()) if k == 1 else iter(draw, None)


def _mom_descent(y, cfg, loss: LossKind, params: tuple, scores, partitions, step):
    """The step loop of every MOM engine.

    ``params`` is a tuple of parameter arrays and ``scores`` the n-vector of
    sample scores at ``params``; ``partitions`` yields a (seed, Partition)
    per step.  ``step(params, scores, k_med, idx, eta)`` returns the
    parameters after a step on the median block ``idx`` and the scores at
    those parameters, so the loop never rescores from scratch.  Each step
    picks the block whose mean ``loss`` is the median, steps on it and
    records the selection when ``cfg.record_selections`` is set.  Parameters
    or scores that are not finite after a step raise NumericError naming the
    iteration.  Returns
    (params, scores, last partition, last median block, records).
    """
    steps = []
    for t, (part_seed, part) in zip(range(cfg.t), partitions):
        means = block_means(loss_value(loss, scores, y), part)
        k_med = median_block_index(means)
        idx = part.block(k_med)
        params, scores = step(params, scores, k_med, idx, cfg.schedule.rate(t))
        if not all(np.isfinite(v).all() for v in params):
            raise NumericError(f"non-finite parameters at iteration {t}")
        # finite parameters can still give overflowing scores
        if not np.isfinite(scores).all():
            raise NumericError(f"non-finite scores at iteration {t}")
        if cfg.record_selections:
            steps.append(IterationRecord(t=t, partition_seed=part_seed,
                                         k_med=k_med, block=idx.copy(),
                                         objective=float(means[k_med])))
    return params, scores, part, k_med, steps


def mom_gd_train(ds: Dataset, init: LinearModel, cfg: MomGdConfig):
    """MOM gradient descent for a linear model.  Returns (model, trace).

    Each step draws a fresh uniform equipartition into cfg.k blocks,
    evaluates per-sample losses at the current iterate, finds the median
    block, and takes a step against the summed gradient of that block
    (gradient through both the weights and the intercept).  The trace's
    final objective is the MOM risk of the result under one more draw.
    """
    X, y = ds.X, ds.y
    n = ds.n
    if init.u.shape[0] != ds.p:
        raise ValueError("init dimension does not match the dataset")
    block_size = n // cfg.k

    def step(params, scores, k_med, idx, eta):
        u, b = params
        g = loss_grad_score(cfg.loss, scores[idx], y[idx])
        if cfg.gradient_mode == "mean":
            g = g / block_size
        u, b = u - eta * (X[idx].T @ g), b - eta * g.sum()
        return (u, b), X @ u + b

    partitions = _redrawn_partitions(n, cfg.k, np.random.default_rng(cfg.seed))
    (u, b), scores, _, _, steps = _mom_descent(
        y, cfg, cfg.loss, (init.u.copy(), init.b), X @ init.u + init.b,
        partitions, step)
    _, final_part = next(partitions)
    trace = TrainTrace(steps=steps,
                       final_objective=mom_estimate(loss_value(cfg.loss, scores, y),
                                                    final_part),
                       n=n, k=cfg.k, t=cfg.t, block_size=block_size)
    return LinearModel(u=u, b=b), trace


def mom_objective(ds: Dataset, m: LinearModel, partition: Partition,
                  loss: LossKind) -> float:
    """MOM estimate of the risk of ``m`` under the given fixed partition."""
    return mom_estimate(loss_value(loss, ds.X @ m.u + m.b, ds.y), partition)


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
    X, y = ds.X, ds.y
    scores = X @ m.u + m.b
    means = block_means(loss_value(loss, scores, y), partition)
    k_med = median_block_index(means)
    # distance to the nearest other block mean: a neighbour in sorted order
    others = np.delete(means, k_med)
    gap = np.abs(others - means[k_med]).min() if others.size else np.inf
    grad_bound = max(1.0, float(np.abs(X).max()))
    if gap <= 10.0 * h * grad_bound:
        return GradCheckResult(status="inconclusive", max_rel_deviation=None)

    idx = partition.block(k_med)
    g = loss_grad_score(loss, scores[idx], y[idx])
    analytic = np.r_[X[idx].T @ g, g.sum()] / partition.block_size

    p = m.u.shape[0]
    numeric = np.empty(p + 1)
    for j, d in enumerate(np.eye(p + 1) * h):
        hi = mom_objective(ds, LinearModel(u=m.u + d[:p], b=m.b + d[p]), partition, loss)
        lo = mom_objective(ds, LinearModel(u=m.u - d[:p], b=m.b - d[p]), partition, loss)
        numeric[j] = (hi - lo) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-10)
    max_rel = float(np.max(np.abs(analytic - numeric) / denom))
    return GradCheckResult(status="ok", max_rel_deviation=max_rel)


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

    The system matrix is one Fortran-ordered copy of ``design`` with beta / w
    added to its diagonal through a strided view, which ``solve`` factors in
    place: LAPACK's Cholesky reads it in that order, so ``solve`` neither
    converts nor copies it.  It reads the same upper triangle as it would of
    ``design + diag(beta / w)``, so the target is bitwise the same.
    ``design`` itself is never written; it may be a cached block matrix.
    A system that rounding leaves singular, as a rank-deficient kernel with
    a tiny beta can, raises NumericError naming beta.
    """
    import scipy.linalg  # here, so that only a kernel method loads it

    s = design @ alpha_block
    pi = expit(s)
    w = np.maximum(pi * (1.0 - pi), IRLS_WEIGHT_FLOOR)
    y01 = (y_block + 1.0) / 2.0
    z = s + (y01 - pi) / w
    a = np.array(design, order="F")
    diagonal = np.einsum("ii->i", a)  # a writable view of a's diagonal
    diagonal += beta / w
    try:
        target = scipy.linalg.solve(a, z, assume_a="pos", overwrite_a=True,
                                    overwrite_b=True)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"the IRLS system is singular at beta={beta:g}; "
                           "raise beta (--beta)") from exc
    if not np.all(np.isfinite(target)):
        raise NumericError("IRLS produced non-finite coefficients")
    return alpha_block * (1.0 - eta) + eta * target


def _klr_descent(y, cfg: FastKlrConfig, partitions, block_kernel):
    """MOM descent of both kernel engines on the coefficients alpha.

    ``block_kernel(j, idx)`` returns the kernel matrix of block j and a
    function ``add_columns(s, d)`` that adds K[:, idx] @ d to the n-vector s
    in place.  Each step moves the median block B (by mean logistic loss)
    towards its IRLS target and shrinks every other coefficient by
    (1 - eta_t), so the scores, zero at alpha = 0, are carried as
    (1 - eta_t) s + K[:, B] d, with d the block's change beyond the shrink:
    the step scales s into a fresh array and ``add_columns`` adds the
    block's columns into it.  The IRLS step reads only within-block scores,
    so the carried ones only rank the blocks.  Returns (alpha, last median
    block, trace).  The trace's final objective is the one the IRLS step is
    stationary for: mean loss + (beta / 2m) a_B' K_B a_B on the median block
    B of the final coefficients.
    """
    def step(params, scores, k_med, idx, eta):
        (alpha,) = params
        design, add_columns = block_kernel(k_med, idx)
        new_alpha = alpha * (1.0 - eta)
        target = _irls_update(design, alpha[idx], y[idx], cfg.beta, eta)
        d = target - new_alpha[idx]
        new_alpha[idx] = target
        new_scores = scores * (1.0 - eta)
        add_columns(new_scores, d)
        return (new_alpha,), new_scores

    (alpha,), scores, part, k_med, steps = _mom_descent(
        y, cfg, LossKind.LOGISTIC, (np.zeros(y.size),), np.zeros(y.size),
        partitions, step)
    means = block_means(loss_value(LossKind.LOGISTIC, scores, y), part)
    j = median_block_index(means)
    idx = part.block(j)
    a = alpha[idx]
    penalty = cfg.beta / (2 * part.block_size) * float(a @ block_kernel(j, idx)[0] @ a)
    trace = TrainTrace(steps=steps, final_objective=float(means[j]) + penalty,
                       n=y.size, k=cfg.k, t=cfg.t, block_size=part.block_size)
    return alpha, k_med, trace


def fast_klr_mom_train(ds: Dataset, cfg: FastKlrConfig):
    """Fast block-kernel logistic regression with MOM block selection.

    The partition is fixed once, and only the kernel matrices of the blocks
    it selects are built: a block's matrix is built, by
    ``gram(cfg.kernel, X[idx], idx)``, when the block is first selected (or
    is the final objective's median block) and is kept from then on.  Each
    block is scored against its own.  Returns (model, trace); the model's
    active block is the median block of the last step.
    """
    X, y = ds.X, ds.y
    n = ds.n
    part_seed, part = next(_redrawn_partitions(n, cfg.k,
                                               np.random.default_rng(cfg.seed)))
    mats = {}

    def block_kernel(j, idx):
        if j not in mats:
            mats[j] = gram(cfg.kernel, X[idx], idx)
        mat = mats[j]

        def add_columns(s, d):
            # block j's kernel columns are zero outside block j
            s[idx] += mat @ d
        return mat, add_columns

    alpha, k_med, trace = _klr_descent(
        y, cfg, itertools.repeat((part_seed, part)), block_kernel)
    model = KernelModel(alpha=alpha, support=X.copy(), kernel=cfg.kernel,
                        partition=part, active_block=k_med)
    return model, trace


def klr_mom_train(ds: Dataset, cfg: FastKlrConfig):
    """Full-Gram kernel logistic regression with MOM block selection.

    The comparison baseline for the fast variant: it materializes the whole
    N x N Gram matrix, redraws the partition at every step, and scores each
    sample against the full support, so every step pays the full quadratic
    kernel cost.  Same step loop as the fast variant; the model's partition
    is one block over all n points.
    """
    X, y = ds.X, ds.y
    n = ds.n
    block_count(cfg.k, n)  # before the n x n Gram is built
    full = gram(cfg.kernel, X, np.arange(n))

    def block_kernel(j, idx):
        # One gather of the block's rows per step.  The training Gram is
        # exactly symmetric (tests/test_model.py pins it), so the rows are
        # the columns K[:, idx].  np.take keeps the design C-ordered, as
        # full[np.ix_(idx, idx)] is; rows[:, idx] would be Fortran-ordered
        # and take another BLAS path in the IRLS step's design @ alpha.
        rows = full[idx]

        def add_columns(s, d):
            s += d @ rows
        return np.take(rows, idx, axis=1), add_columns

    alpha, _, trace = _klr_descent(
        y, cfg, _redrawn_partitions(n, cfg.k, np.random.default_rng(cfg.seed)),
        block_kernel)
    model = KernelModel(alpha=alpha, support=X.copy(), kernel=cfg.kernel,
                        partition=Partition(blocks=np.arange(n)[None, :], n=n))
    return model, trace


KERNEL_METHODS = ("fast-klr-mom", "klr-mom")
METHODS = ("mom-logistic", "mom-hinge", "erm-logistic") + KERNEL_METHODS


def train(method: str, ds: Dataset, k: int = 120, t: int = 2000, *,
          eta0: float = 0.5, schedule: str = "inverse-t",
          gradient_mode: str = "sum", beta: float = 1e-3, kernel: str = "rbf",
          gamma="auto", seed: int = 0, record_selections: bool = False):
    """Train one of ``METHODS`` on ``ds`` from zero parameters.

    The options are those of ``momclf train``, under the same names, and
    these defaults are theirs.  ``schedule`` and ``eta0`` make the
    ``StepSchedule``.  The linear MOM methods use ``gradient_mode``; the
    kernel methods use ``beta`` and the kernel ``kernel_for(ds.X, kernel,
    gamma)``.  ERM is MOM-logistic at K=1 in block-mean form, so it ignores
    ``k`` and ``gradient_mode``.  A constant step warns only for MOM at
    K > 1.  ``method`` is the CLI's ``algo``.  Each option's one rule holds
    for every method, also one that ignores the option, except ERM's k;
    only a kernel method resolves ``gamma``.
    Returns (model, trace).
    """
    member("algo", method, METHODS)
    regularization(beta)
    member("gradient_mode", gradient_mode, GRADIENT_MODES)
    member("kernel", kernel, KERNEL_KINDS)
    bandwidth(gamma)
    schedule = StepSchedule(kind=schedule, eta0=eta0)
    if method not in KERNEL_METHODS:
        if method == "erm-logistic":
            k, gradient_mode = 1, "mean"
        loss = LossKind.HINGE if method == "mom-hinge" else LossKind.LOGISTIC
        cfg = MomGdConfig(k=k, t=t, schedule=schedule, loss=loss, seed=seed,
                          record_selections=record_selections,
                          gradient_mode=gradient_mode)
        if k > 1 and schedule.kind == "constant":
            warnings.warn("constant step size violates the convergence conditions; "
                          "intended for diagnostics only", stacklevel=2)
        return mom_gd_train(ds, LinearModel.zeros(ds.p), cfg)
    cfg = FastKlrConfig(k=k, t=t, schedule=schedule, beta=beta,
                        kernel=kernel_for(ds.X, kernel, gamma), seed=seed,
                        record_selections=record_selections)
    engine = fast_klr_mom_train if method == "fast-klr-mom" else klr_mom_train
    return engine(ds, cfg)
