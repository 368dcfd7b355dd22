"""Datasets, synthetic generators, CSV ingestion and random equipartitions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOY_INLIER_VAR = 1.4          # per-coordinate variance of the informative Gaussians
TOY_OUTLIER_MEAN = (24.0, 8.0)
TOY_OUTLIER_VAR = 0.1
GAUSSIANS_SD = 1.4            # per-coordinate standard deviation of the clean blobs
MOONS_LOWER_SHIFT = (1.0, -0.5)


class CsvParseError(ValueError):
    """Row could not be parsed; carries the offending 1-based row number."""


class CsvDimensionError(ValueError):
    """Rows disagree on the number of columns."""


class CsvLabelError(ValueError):
    """Label value is not in {-1, 1} or {0, 1}."""


@dataclass(frozen=True)
class Dataset:
    """An ordered sample of labeled points held as dense arrays.

    X has shape (n, p), y has shape (n,) with entries exactly -1.0 or +1.0.
    ``is_outlier`` is a ground-truth flag array kept strictly outside the
    training path: optimizers must go through :meth:`training_arrays`, which
    exposes features and labels only.
    """

    X: np.ndarray
    y: np.ndarray
    is_outlier: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 2 or 0 in X.shape:
            raise ValueError(f"X must be an (n, p) array with n, p >= 1, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one label per row of X")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        if self.is_outlier is not None:
            flags = np.asarray(self.is_outlier)
            if flags.shape != (X.shape[0],):
                raise ValueError("is_outlier must have one flag per sample")
            if flags.dtype != bool:
                values = [_flag_value(v) for v in flags.tolist()]
                if None in values:
                    i = values.index(None)
                    raise ValueError(f"is_outlier[{i}] = {flags.tolist()[i]!r} "
                                     "is not a boolean or 0/1")
                flags = np.array(values)
            object.__setattr__(self, "is_outlier", flags)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def training_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The training-facing view: (X, y) and nothing else."""
        return self.X, self.y

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class Partition:
    """K disjoint blocks of equal size over sample indices 0..n-1.

    Blocks hold exactly ``n // k`` indices each; the ``n mod k`` leftover
    indices of the draw are dropped.  Within a block, indices are strictly
    ascending so that block sums are bitwise reproducible.
    """

    blocks: np.ndarray  # (k, block_size) int array
    n: int

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=np.intp)
        k = blocks.shape[0] if blocks.ndim == 2 else 0
        if not 1 <= k <= self.n or blocks.shape[1] != self.n // k:
            raise ValueError(f"blocks of shape {blocks.shape} are not "
                             f"(k, n // k) with 1 <= k <= n = {self.n}")
        flat = blocks.ravel()
        if flat.min() < 0 or flat.max() >= self.n:
            raise ValueError("block indices out of range")
        # O(n) checks: this runs on every per-step draw of the descent
        # engines, and np.unique or a sort would cost more than the draw
        if np.bincount(flat, minlength=self.n).max() > 1:
            raise ValueError("blocks must be disjoint")
        if not (blocks[:, 1:] > blocks[:, :-1]).all():
            raise ValueError("indices within a block must be strictly ascending")
        object.__setattr__(self, "blocks", blocks)

    @property
    def k(self) -> int:
        return self.blocks.shape[0]

    @property
    def block_size(self) -> int:
        return self.blocks.shape[1]

    def block(self, j: int) -> np.ndarray:
        return self.blocks[j]


def random_equipartition(n: int, k: int, rng: np.random.Generator) -> Partition:
    """Draw a uniform random partition of {0..n-1} into k equal blocks.

    A permutation is drawn uniformly, chopped into k consecutive chunks of
    size n // k, and the trailing n mod k indices are dropped for this draw.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    block_size = n // k
    perm = rng.permutation(n)
    blocks = np.sort(perm[: k * block_size].reshape(k, block_size), axis=1)
    return Partition(blocks=blocks, n=n)


def _assemble(parts_x, parts_y, flags, rng) -> Dataset:
    X = np.vstack(parts_x)
    y = np.concatenate(parts_y)
    order = rng.permutation(y.size)
    out = None if flags is None else np.concatenate(flags)[order]
    return Dataset(X=X[order], y=y[order], is_outlier=out)


def generate_toy(n_inliers: int, n_outliers: int, seed: int) -> Dataset:
    """The corrupted 2-d toy dataset: two informative Gaussians plus a tight
    adversarial cluster.

    Inliers: X | Y=+1 ~ N((-1,-1), 1.4 I), X | Y=-1 ~ N((1,1), 1.4 I), classes
    split exactly in half (the +1 class gets the extra sample when n_inliers
    is odd).  Outliers: Y=+1 with X ~ N((24,8), 0.1 I).  Sample order is
    shuffled by the seed and ground-truth flags are set.
    """
    if n_inliers < 2:
        raise ValueError("need at least 2 inliers")
    if n_outliers < 0:
        raise ValueError("n_outliers must be >= 0")
    rng = np.random.default_rng(seed)
    n_pos = n_inliers - n_inliers // 2
    n_neg = n_inliers // 2
    sd = np.sqrt(TOY_INLIER_VAR)
    x_pos = rng.standard_normal((n_pos, 2)) * sd + (-1.0, -1.0)
    x_neg = rng.standard_normal((n_neg, 2)) * sd + (1.0, 1.0)
    x_out = rng.standard_normal((n_outliers, 2)) * np.sqrt(TOY_OUTLIER_VAR)
    x_out = x_out + TOY_OUTLIER_MEAN
    flags = [np.zeros(n_inliers, bool), np.ones(n_outliers, bool)]
    return _assemble(
        [x_pos, x_neg, x_out],
        [np.ones(n_pos), -np.ones(n_neg), np.ones(n_outliers)],
        flags,
        rng,
    )


def generate_moons(n: int, noise_sd: float, seed: int) -> Dataset:
    """Two interlaced half-circles with isotropic Gaussian noise.

    The +1 moon is the upper unit half-circle (cos t, sin t), t on a uniform
    grid over [0, pi]; the -1 moon is the same arc translated by (1, -0.5).
    The arcs cross, so no linear classifier separates the classes.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    n_up = n - n // 2
    n_lo = n // 2
    t_up = np.linspace(0.0, np.pi, n_up)
    t_lo = np.linspace(0.0, np.pi, n_lo)
    x_up = np.c_[np.cos(t_up), np.sin(t_up)]
    x_lo = np.c_[np.cos(t_lo), np.sin(t_lo)] + MOONS_LOWER_SHIFT
    arcs = np.vstack([x_up, x_lo]) + rng.standard_normal((n, 2)) * noise_sd
    return _assemble([arcs], [np.ones(n_up), -np.ones(n_lo)], None, rng)


def generate_gaussians(n: int, seed: int) -> Dataset:
    """Two clean Gaussian blobs with per-coordinate standard deviation 1.4.

    X | Y=+1 ~ N((-1,-1), 1.4^2 I), X | Y=-1 ~ N((1,1), 1.4^2 I), classes
    split exactly in half.  No outliers; used by the convergence-rate and
    timing experiments.
    """
    if n < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    n_pos = n - n // 2
    n_neg = n // 2
    x_pos = rng.standard_normal((n_pos, 2)) * GAUSSIANS_SD + (-1.0, -1.0)
    x_neg = rng.standard_normal((n_neg, 2)) * GAUSSIANS_SD + (1.0, 1.0)
    return _assemble([x_pos, x_neg], [np.ones(n_pos), -np.ones(n_neg)], None, rng)


def _map_label(raw: str, path, row: int) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise CsvLabelError(f"{path}: row {row}: label {raw!r} is not numeric") from None
    if v == 1.0:
        return 1.0
    if v == -1.0 or v == 0.0:
        return -1.0
    raise CsvLabelError(f"{path}: row {row}: label {v!r} not in {{-1,1}} or {{0,1}}")


def _flag_value(raw) -> bool | None:
    """The outlier flag ``raw`` reads as (a boolean, 0 or 1), else None."""
    try:
        v = float(raw)
    except (TypeError, ValueError):
        return None
    return v == 1.0 if v in (0.0, 1.0) else None


def _is_numeric_row(fields: list[str]) -> bool:
    try:
        [float(f) for f in fields]
    except ValueError:
        return False
    return True


def load_csv(path, label_column: str | int | None = None) -> Dataset:
    """Load a dataset from a comma-separated file.

    A single header row is auto-detected when the first row is non-numeric.
    ``label_column`` selects the label by header name or by 0-based index;
    by default the column named "y" is used if a header declares one, else
    the last column.  Labels may be encoded {-1,1} or {0,1} (0 maps to -1).
    A header column named "is_outlier" is read back as ground-truth flags,
    not as a feature.  A file with no feature column raises
    CsvDimensionError.  Row order is preserved.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in map(str.strip, fh) if line]
    if not lines:
        raise CsvParseError(f"{path}: empty file")

    header: list[str] | None = None
    first = [f.strip() for f in lines[0].split(",")]
    if not _is_numeric_row(first):
        header = first
        lines = lines[1:]
        if not lines:
            raise CsvParseError(f"{path}: header but no data rows")

    width = len(lines[0].split(","))
    if header is not None and len(header) != width:
        raise CsvDimensionError(f"{path}: header has {len(header)} columns, expected {width}")
    if label_column is None:
        if header is not None and "y" in header:
            label_idx = header.index("y")
        elif header is not None and header[-1] == "is_outlier":
            label_idx = width - 2
        else:
            label_idx = width - 1
    elif isinstance(label_column, int):
        label_idx = label_column if label_column >= 0 else width + label_column
    else:
        if header is None:
            raise CsvParseError(
                f"{path}: label column {label_column!r} given by name but file has no header"
            )
        if label_column not in header:
            raise CsvParseError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
    if not 0 <= label_idx < width:
        raise CsvParseError(f"{path}: label column index {label_idx} out of range")

    flag_idx = None
    if header is not None and "is_outlier" in header:
        flag_idx = header.index("is_outlier")
        if flag_idx == label_idx:
            raise CsvParseError(f"{path}: is_outlier column cannot be the label")
    if width == 1 + (flag_idx is not None):
        raise CsvDimensionError(f"{path}: no feature column besides the label")

    rows, labels, flags = [], [], []
    for rownum, line in enumerate(lines, start=1 if header is None else 2):
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != width:
            raise CsvDimensionError(
                f"{path}: row {rownum} has {len(fields)} columns, expected {width}"
            )
        labels.append(_map_label(fields[label_idx], path, rownum))
        if flag_idx is not None:
            flag = _flag_value(fields[flag_idx])
            if flag is None:
                raise CsvParseError(f"{path}: row {rownum}: is_outlier "
                                    f"{fields[flag_idx]!r} is not 0 or 1")
            flags.append(flag)
        feat = []
        for j, f in enumerate(fields):
            if j == label_idx or j == flag_idx:
                continue
            try:
                feat.append(float(f))
            except ValueError:
                raise CsvParseError(
                    f"{path}: row {rownum}: cannot parse field {f!r}"
                ) from None
        rows.append(feat)

    X = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
    if bad.size:
        rownum = int(bad[0]) + 1 + (1 if header is not None else 0)
        raise CsvParseError(f"{path}: row {rownum}: non-finite feature")
    y = np.asarray(labels, dtype=float)
    out = np.asarray(flags, dtype=bool) if flag_idx is not None else None
    return Dataset(X=X, y=y, is_outlier=out)


def write_csv(ds: Dataset, path) -> None:
    """Write a dataset as CSV with header x0..x{p-1},y[,is_outlier]."""
    cols = [f"x{j}" for j in range(ds.p)] + ["y"]
    if ds.is_outlier is not None:
        cols.append("is_outlier")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(ds.n):
            fields = [repr(float(v)) for v in ds.X[i]]
            fields.append(repr(float(ds.y[i])))
            if ds.is_outlier is not None:
                fields.append(str(int(ds.is_outlier[i])))
            fh.write(",".join(fields) + "\n")
