"""Linear and kernel classifiers scored as real-valued functions.

Predicted labels are sign(score) with sign(0) = +1.  A kernel model scores
with the expansion over one block of its support points, and its JSON file
holds only that expansion: 12.7 KB for a fast model at n=4000, K=20, not the
244 KB of all n points and the partition.  Only within-block Gram matrices
are built, except by the full-Gram baseline ``optim.klr_mom_train``.

Memory contract: ``gram``, the only builder of a training Gram, allocates
its output plus one RBF finish step (about ``_FINISH_ENTRIES`` float64
entries) of scratch at every size, and a C-ordered copy of X when X is
strided; the matrix is built in its output from one BLAS ``syrk``.
``kernel_model_score`` streams the test points through one product tile
(about ``_TILE_ENTRIES`` entries) and one finish step of scratch, so it
never holds the n_test x n_support kernel matrix.  Both compute the squared
row norms once per call.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass

import numpy as np

from momclf._fields import FLOATS, NUMBER, fault, read_fields
from momclf.data import Partition

# Version of the model JSON files this module writes and reads.
MODEL_FORMAT = 2

KERNEL_KINDS = ("linear", "rbf")

# Entries per row tile of a scoring product: 2 MB of float64.
_TILE_ENTRIES = 2**18
# Entries per step of the elementwise RBF finish: 256 KB of float64, so a
# step and its scratch stay in cache through the finish's passes.
_FINISH_ENTRIES = 2**15
# Rows per band of a training Gram, so a diagonal tile fits one finish step.
_BAND_ROWS = math.isqrt(_FINISH_ENTRIES)
_BELOW = np.tri(_BAND_ROWS, k=-1, dtype=bool)  # below a band's diagonal

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

    kind: str
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "rbf" and not 0 < self.gamma < math.inf:
            raise ValueError("rbf kernel needs a finite gamma > 0")


def kernel_for(X, kind: str, gamma) -> KernelSpec:
    """The kernel ``kind`` for the points X: the one rule for an RBF
    bandwidth, which is a number, "auto" (1/p) or "median" (the median
    heuristic).  A linear kernel has no bandwidth."""
    if kind != "rbf":
        return KernelSpec(kind=kind)
    if gamma == "auto":
        gamma = 1.0 / np.shape(X)[1]
    elif gamma == "median":
        gamma = median_heuristic_gamma(X)
    return KernelSpec(kind="rbf", gamma=float(gamma))


def median_heuristic_gamma(X) -> float:
    """Bandwidth from the median of pairwise squared distances, over at most
    500 points drawn by a generator seeded with 0."""
    # Imported here: scipy.spatial adds tens of milliseconds to every import
    # of the package, and only a "median" bandwidth needs it.
    from scipy.spatial.distance import pdist

    X = np.asarray(X, dtype=float)
    if X.shape[0] > 500:
        X = X[np.random.default_rng(0).choice(X.shape[0], 500, replace=False)]
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


def gram(spec: KernelSpec, X, idx=None) -> np.ndarray:
    """The training Gram (kappa(x_i, x_j))_{i,j} of the rows of X, exactly
    symmetric, built in its output plus one finish step of scratch.

    ``idx`` labels the rows for call recording only.  X is read in C order,
    so its strides do not matter.  One BLAS ``syrk``, the call numpy's
    ``X @ X.T`` makes, fills one triangle.  Each band of rows [r0, r1) then
    mirrors its diagonal tile, finishes only its columns r0 and up, and
    copies its part right of the tile below it; a2_i + a2_j is commutative,
    so each entry is the untiled formula's.
    """
    from scipy.linalg.blas import dsyrk  # here, so that only a kernel method loads it

    if _gram_log is not None:
        _gram_log.append((idx, idx))
    X = np.ascontiguousarray(X, dtype=float)
    n = X.shape[0]
    # syrk sets the lower triangle of a Fortran-ordered output, which it does
    # not read at beta = 0, so the transpose's upper triangle is set.  It
    # refuses an empty input, whose product is 0.
    G = (dsyrk(1.0, X.T, c=np.empty((n, n), order="F"), trans=1, lower=1,
               overwrite_c=1).T if X.size else np.zeros((n, n)))
    # The scratch holds the diagonal tile's transpose (copying a view onto
    # itself would make numpy allocate a second tile), then one finish step.
    scratch = np.empty(_finish_entries(n, n))
    if spec.kind == "rbf":
        x2 = _sq_norms(X)
    for r0 in range(0, n, _BAND_ROWS):
        r1 = min(r0 + _BAND_ROWS, n)
        diag = G[r0:r1, r0:r1]
        diag_t = scratch[: diag.size].reshape(diag.shape)
        np.copyto(diag_t, diag.T)
        np.copyto(diag, diag_t, where=_BELOW[: r1 - r0, : r1 - r0])
        if spec.kind == "rbf":
            _rbf_in_place(spec.gamma, G[r0:r1, r0:], x2[r0:r1], x2[r0:], scratch)
        G[r1:, r0:r1] = G[r0:r1, r1:].T
    return G


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm of every row."""
    return np.sum(X * X, axis=1)


def _tile_rows(n_cols: int, entries: int = _TILE_ENTRIES) -> int:
    """Rows per tile so that one tile holds about ``entries`` entries."""
    return max(1, entries // max(n_cols, 1))


def _finish_entries(n_rows: int, n_cols: int) -> int:
    """Scratch entries for the RBF finish of a matrix of at most ``n_rows``
    rows and ``n_cols`` columns: one finish step, or the whole matrix if
    that is smaller."""
    return min(n_rows * n_cols, max(_FINISH_ENTRIES, n_cols))


def _rbf_in_place(gamma: float, out: np.ndarray, a2, b2, scratch: np.ndarray):
    """Turn ``out`` = A @ B.T into exp(-gamma ||a - b||^2), one finish step of
    about ``_FINISH_ENTRIES`` entries at a time.

    ``a2`` and ``b2`` are the squared row norms of A and B, and ``scratch``
    is a flat array of at least one finish step's entries.  The finish is
    elementwise, so the row step does not change the bits, and each entry
    goes through the untiled formula's operations: (a2 + b2) + (-2 ab)
    equals (a2 + b2) - 2 ab exactly, so the values match it bit for bit.
    """
    step = _tile_rows(out.shape[1], _FINISH_ENTRIES)
    for start in range(0, out.shape[0], step):
        rows = slice(start, start + step)
        tile = out[rows]
        sums = scratch[: tile.size].reshape(tile.shape)
        np.add(a2[rows, None], b2, out=sums)
        tile *= -2.0
        tile += sums
        np.maximum(tile, 0.0, out=tile)
        tile *= -gamma
        np.exp(tile, out=tile)


def kernel_model_score(m: KernelModel, x):
    """Out-of-sample score via the expansion over the active block.

    A single point (1-d ``x``) gives a float, a (n, p) batch an n-vector.
    Points are scored one row tile at a time in one reused tile buffer, so
    the kernel matrix is never held whole.  A tile's kernel rows are one BLAS
    product ``rows @ support.T`` finished by ``_rbf_in_place`` in one finish
    step of scratch, which is the whole-matrix formula bit for bit, and its
    scores are those rows @ alpha.
    """
    single = np.ndim(x) == 1
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[-1] != m.support.shape[1]:
        raise ValueError(f"feature dimension {x.shape[-1]} != model dimension "
                         f"{m.support.shape[1]}")
    idx = m.partition.block(m.active_block)
    support, alpha = m.support[idx], m.alpha[idx]
    rbf = m.kernel.kind == "rbf"
    n = x.shape[0]
    if rbf:
        x2, support2 = _sq_norms(x), _sq_norms(support)
        scratch = np.empty(_finish_entries(n, support.shape[0]))
    step = _tile_rows(support.shape[0])
    tile = np.empty((min(n, step), support.shape[0]))
    scores = np.empty(n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        kernel_rows = tile[: min(step, n - start)]
        np.matmul(x[rows], support.T, out=kernel_rows)
        if rbf:
            _rbf_in_place(m.kernel.gamma, kernel_rows, x2[rows], support2, scratch)
        scores[rows] = kernel_rows @ alpha
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


_MODEL_FIELDS = {"linear": {"u": FLOATS, "b": NUMBER},
                 "kernel": {"kernel": {"kind": frozenset(KERNEL_KINDS), "gamma": NUMBER},
                            "alpha": FLOATS, "support": FLOATS}}


def model_from_json(text: str):
    """Read a ``model_to_json`` file; a kernel model comes back as one block.
    Text that is not JSON, a missing or malformed field, or an unknown
    ``format`` raises ValueError naming it."""
    try:
        obj = json.loads(text)
        kind = read_fields(obj, {"type": frozenset(_MODEL_FIELDS)}, "file")["type"]
        if obj.get("format") != MODEL_FORMAT:
            found = repr(obj["format"]) if "format" in obj else "missing"
            raise ValueError(f"field 'format' is {found}; "
                             f"this version reads format {MODEL_FORMAT}")
        fields = read_fields(obj, _MODEL_FIELDS[kind], "file")
        for key, ndim in (("u", 1), ("alpha", 1), ("support", 2)):
            if key in fields and fields[key].ndim != ndim:
                raise ValueError(f"field {key!r} must be a {ndim}-d array, "
                                 f"got shape {fields[key].shape}")
        if kind == "linear":
            return LinearModel(**fields)
        try:
            spec = KernelSpec(**fields["kernel"])
        except ValueError:  # the kind is one of KERNEL_KINDS, so gamma is at fault
            raise fault("kernel.gamma", "be > 0 for an rbf kernel",
                        fields["kernel"]["gamma"]) from None
        m = fields["support"].shape[0]
        return KernelModel(alpha=fields["alpha"], support=fields["support"], kernel=spec,
                           partition=Partition(blocks=np.arange(m)[None, :], n=m))
    except json.JSONDecodeError as exc:
        raise ValueError(f"model is not JSON ({exc})") from None
    except ValueError as exc:
        raise ValueError(f"model {exc}") from None
