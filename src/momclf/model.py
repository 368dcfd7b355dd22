"""Linear and kernel classifiers scored as real-valued functions.

Predicted labels are sign(score) with sign(0) = +1.  A kernel model scores
with the expansion over one block of its support points, and its JSON file
holds only that expansion: 12.7 KB for a fast model at n=4000, K=20, not the
244 KB of all n points and the partition.  Only within-block Gram matrices
are built, except by the full-Gram baseline ``optim.klr_mom_train``.

Memory contract: ``gram`` allocates its one output array plus one row tile
(about ``_TILE_ENTRIES`` float64 entries) of temporaries, and
``kernel_model_score`` streams the test points through two tiles of that
size, so it never holds the n_test x n_support kernel matrix.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

import numpy as np

from momclf.data import Dataset, Partition

# Version of the model JSON files this module writes and reads.
MODEL_FORMAT = 2

# Entries per row tile of an RBF evaluation: 2 MB of float64.
_TILE_ENTRIES = 2**18

# Active log of (row_indices, col_indices) pairs for every Gram evaluation,
# used by tests to verify that block algorithms never touch cross-block
# kernel entries.  None means no recording.
_gram_log: list | None = None


@contextlib.contextmanager
def record_gram_calls():
    """Collect the training-index pairs of every Gram evaluation."""
    global _gram_log
    prev = _gram_log
    _gram_log = []
    try:
        yield _gram_log
    finally:
        _gram_log = prev


@dataclass(frozen=True)
class LinearModel:
    """Affine score <u, x> + b on R^p."""

    u: np.ndarray
    b: float = 0.0

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1 or not np.all(np.isfinite(u)) or not np.isfinite(self.b):
            raise ValueError("model parameters must be a finite vector and scalar")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "b", float(self.b))

    @classmethod
    def zeros(cls, p: int) -> "LinearModel":
        return cls(u=np.zeros(p), b=0.0)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family: 'linear' is <x1,x2>, 'rbf' is exp(-gamma ||x1-x2||^2)."""

    kind: str = "rbf"
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not self.gamma > 0:
            raise ValueError("rbf kernel needs gamma > 0")


def default_gamma(p: int) -> float:
    """Default RBF bandwidth 1/p."""
    return 1.0 / p


def median_heuristic_gamma(X, max_points: int = 500, seed: int = 0) -> float:
    """Bandwidth from the median of pairwise squared distances."""
    # Imported here: scipy.spatial adds tens of milliseconds to every import
    # of the package, and only the CLI's ``--gamma median`` needs it.
    from scipy.spatial.distance import pdist

    X = np.asarray(X, dtype=float)
    if X.shape[0] > max_points:
        idx = np.random.default_rng(seed).choice(X.shape[0], max_points, replace=False)
        X = X[idx]
    med = np.median(pdist(X, "sqeuclidean"))
    return 1.0 / max(med, 1e-12)


@dataclass(frozen=True)
class KernelModel:
    """Kernel expansion over support points with block-structured support.

    ``alpha`` has one coefficient per support point, and ``partition`` runs
    over the support points.  Scores use only the expansion over
    ``partition.block(active_block)``: the fast engine's final median block,
    or one block over every point of a full-Gram or JSON-read model.
    """

    alpha: np.ndarray
    support: np.ndarray
    kernel: KernelSpec
    partition: Partition
    active_block: int = 0

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        support = np.asarray(self.support, dtype=float)
        if support.ndim != 2:
            raise ValueError("support must be a 2-d (points, features) array, "
                             f"got shape {support.shape}")
        if alpha.shape != (support.shape[0],):
            raise ValueError("alpha must have one coefficient per support point")
        if self.partition.n != support.shape[0]:
            raise ValueError(f"partition over n={self.partition.n} samples "
                             f"for {support.shape[0]} support points")
        if not 0 <= self.active_block < self.partition.k:
            raise ValueError(f"active_block {self.active_block} outside "
                             f"[0, {self.partition.k})")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "support", support)


def linear_score(m: LinearModel, x):
    """Score <u, x> + b for a single vector or a (n, p) batch."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != m.u.shape[0]:
        raise ValueError(f"feature dimension {x.shape[-1]} != model dimension {m.u.shape[0]}")
    return x @ m.u + m.b


def kernel_eval(spec: KernelSpec, x1, x2) -> float:
    """Kernel value for one pair of points."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1.shape != x2.shape:
        raise ValueError("kernel arguments must share a dimension")
    if spec.kind == "linear":
        return float(x1 @ x2)
    diff = x1 - x2
    return float(np.exp(-spec.gamma * (diff @ diff)))


def gram(spec: KernelSpec, A, B, idx_rows=None, idx_cols=None) -> np.ndarray:
    """Dense kernel matrix between row sets A and B.

    ``idx_rows``/``idx_cols`` are the training indices the rows and columns
    correspond to; they are only used for call recording.  Memory: the
    output plus one row tile of scratch.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if _gram_log is not None:
        _gram_log.append((None if idx_rows is None else np.asarray(idx_rows),
                          None if idx_cols is None else np.asarray(idx_cols)))
    if spec.kind == "linear":
        return A @ B.T
    # One BLAS product for the whole matrix: a product per row tile may take
    # another kernel path and differ in the last bit.
    out = A @ B.T
    _rbf_in_place(spec.gamma, out, A, B, _tile_buffer(*out.shape))
    return out


def _tile_rows(n_cols: int) -> int:
    """Rows per tile so that one tile holds about ``_TILE_ENTRIES`` entries."""
    return max(1, _TILE_ENTRIES // max(n_cols, 1))


def _tile_buffer(n_rows: int, n_cols: int) -> np.ndarray:
    """Uninitialized storage for one row tile of an (n_rows, n_cols) matrix."""
    return np.empty((min(n_rows, _tile_rows(n_cols)), n_cols))


def _rbf_in_place(gamma: float, out: np.ndarray, A, B, scratch: np.ndarray):
    """Turn ``out`` = A @ B.T into exp(-gamma ||a - b||^2), one row tile at a time.

    ``scratch`` holds at least one tile of rows.  Each entry goes through the
    untiled formula's operations: (a2 + b2) + (-2 ab) equals (a2 + b2) - 2 ab
    exactly, so the values match it bit for bit.
    """
    a2 = np.sum(A * A, axis=1)
    b2 = np.sum(B * B, axis=1)
    step = _tile_rows(B.shape[0])
    for start in range(0, A.shape[0], step):
        rows = slice(start, start + step)
        tile = out[rows]
        sums = scratch[: tile.shape[0]]
        np.add(a2[rows, None], b2, out=sums)
        tile *= -2.0
        tile += sums
        np.maximum(tile, 0.0, out=tile)
        tile *= -gamma
        np.exp(tile, out=tile)


def block_kernel_matrices(ds: Dataset, partition: Partition, spec: KernelSpec):
    """The K within-block Gram matrices N^k = (kappa(X_i, X_j))_{i,j in B_k}.

    Storage is K * (n // K)^2 entries in total; the full Gram matrix is
    never formed.
    """
    X, _ = ds.training_arrays()
    mats = []
    for j in range(partition.k):
        idx = partition.block(j)
        mats.append(gram(spec, X[idx], X[idx], idx_rows=idx, idx_cols=idx))
    return mats


def kernel_model_score(m: KernelModel, x):
    """Out-of-sample score via the expansion over the active block.

    A single point (1-d ``x``) gives a float, a (n, p) batch an n-vector.
    Points are scored one row tile at a time in two reused tile buffers, so
    the kernel matrix is never held whole; each tile's scores are those of
    ``gram(m.kernel, rows, support) @ alpha``.
    """
    single = np.ndim(x) == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != m.support.shape[1]:
        raise ValueError(f"feature dimension {x.shape[-1]} != model dimension "
                         f"{m.support.shape[1]}")
    idx = m.partition.block(m.active_block)
    support, alpha = m.support[idx], m.alpha[idx]
    n = x.shape[0]
    step = _tile_rows(support.shape[0])
    tile = _tile_buffer(n, support.shape[0])
    scratch = np.empty_like(tile)
    scores = np.empty(n)
    for start in range(0, n, step):
        rows = x[start : start + step]
        kernel_rows = tile[: rows.shape[0]]
        np.matmul(rows, support.T, out=kernel_rows)
        if m.kernel.kind == "rbf":
            _rbf_in_place(m.kernel.gamma, kernel_rows, rows, support, scratch)
        scores[start : start + step] = kernel_rows @ alpha
    return float(scores[0]) if single else scores


def predict(model, x):
    """Predicted labels in {-1,+1} with sign(0) = +1."""
    score = linear_score if isinstance(model, LinearModel) else kernel_model_score
    return np.where(score(model, x) >= 0.0, 1.0, -1.0)


def model_to_json(model) -> str:
    """The model as JSON; a kernel model writes only its active block."""
    if isinstance(model, LinearModel):
        return json.dumps({"type": "linear", "format": MODEL_FORMAT,
                           "u": model.u.tolist(), "b": model.b})
    idx = model.partition.block(model.active_block)
    return json.dumps({"type": "kernel", "format": MODEL_FORMAT,
                       "kernel": {"kind": model.kernel.kind, "gamma": model.kernel.gamma},
                       "alpha": model.alpha[idx].tolist(),
                       "support": model.support[idx].tolist()})


def _json_object(value, name: str) -> dict:
    """``value`` if it is a JSON object; ValueError naming ``name`` if not."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def _field(obj: dict, *path: str):
    """The value at ``path`` in a model file; ValueError if it is missing or
    a level above it is not a JSON object."""
    for depth, key in enumerate(path):
        if depth:
            _json_object(obj, f"model field {'.'.join(path[:depth])!r}")
        if key not in obj:
            raise ValueError(f"model field {'.'.join(path[:depth + 1])!r} is missing")
        obj = obj[key]
    return obj


def model_from_json(text: str):
    """Read a ``model_to_json`` file; a kernel model comes back as one block.
    A missing or malformed field, or an unknown ``format``, raises ValueError
    naming it."""
    obj = _json_object(json.loads(text), "a model file")
    if obj.get("format") != MODEL_FORMAT:
        found = repr(obj["format"]) if "format" in obj else "missing"
        raise ValueError(f"model field 'format' is {found}; "
                         f"this version reads format {MODEL_FORMAT}")
    kind = _field(obj, "type")
    if kind == "linear":
        return LinearModel(u=_field(obj, "u"), b=float(_field(obj, "b")))
    if kind == "kernel":
        support = np.asarray(_field(obj, "support"), dtype=float)
        if support.ndim != 2:
            raise ValueError("model field 'support' must be a 2-d (points, features) "
                             f"array, got shape {support.shape}")
        m = support.shape[0]
        return KernelModel(
            alpha=_field(obj, "alpha"),
            support=support,
            kernel=KernelSpec(kind=_field(obj, "kernel", "kind"),
                              gamma=_field(obj, "kernel", "gamma")),
            partition=Partition(blocks=np.arange(m)[None, :], n=m),
        )
    raise ValueError(f"unknown model type {kind!r}")
