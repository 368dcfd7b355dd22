import json
import tracemalloc

import numpy as np
import pytest

from momclf.data import Dataset, random_equipartition
from momclf.model import (
    KernelModel,
    KernelSpec,
    LinearModel,
    block_kernel_matrices,
    default_gamma,
    gram,
    kernel_eval,
    kernel_model_score,
    _TILE_ENTRIES,
    kernel_score,
    linear_score,
    median_heuristic_gamma,
    model_from_json,
    model_to_json,
    predict,
    record_gram_calls,
)


def loop_dot_oracle(u, x, b):
    total = b
    for uj, xj in zip(u, x):
        total += uj * xj
    return total


def dense_gram_oracle(spec, X):
    n = X.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = kernel_eval(spec, X[i], X[j])
    return out


def test_linear_score_hand_examples():
    assert linear_score(LinearModel(u=np.array([1.0, 0.0])), [3.0, 7.0]) == 3.0
    assert linear_score(LinearModel(u=np.zeros(2), b=0.5), [9.0, -2.0]) == 0.5


def test_linear_score_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = int(rng.integers(1, 10))
        m = LinearModel(u=rng.standard_normal(p), b=float(rng.standard_normal()))
        x = rng.standard_normal(p)
        assert linear_score(m, x) == pytest.approx(
            loop_dot_oracle(m.u, x, m.b), rel=1e-12)


def test_linear_score_dimension_mismatch():
    with pytest.raises(ValueError):
        linear_score(LinearModel(u=np.zeros(3)), [1.0, 2.0])


def test_kernel_eval_hand_examples():
    rbf = KernelSpec(kind="rbf", gamma=0.7)
    x = np.array([0.3, -1.2])
    assert kernel_eval(rbf, x, x) == 1.0
    lin = KernelSpec(kind="linear")
    assert kernel_eval(lin, [1.0, 2.0], [3.0, 4.0]) == 11.0


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="poly")
    with pytest.raises(ValueError):
        KernelSpec(kind="rbf", gamma=0.0)
    assert default_gamma(4) == 0.25


def test_rbf_gram_is_psd():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 3))
    G = gram(KernelSpec(kind="rbf", gamma=0.5), X, X)
    np.testing.assert_allclose(G, G.T, atol=1e-15)
    assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_gram_matches_pairwise_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 2))
    for spec in (KernelSpec(kind="rbf", gamma=1.3), KernelSpec(kind="linear")):
        np.testing.assert_allclose(gram(spec, X, X), dense_gram_oracle(spec, X),
                                   rtol=1e-12, atol=1e-12)


def untiled_gram_reference(spec, A, B):
    """The whole-matrix formula ``gram`` evaluated before it was tiled."""
    if spec.kind == "linear":
        return A @ B.T
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-spec.gamma * sq)


def traced_peak(fn, *args):
    """(result, peak bytes traced while ``fn`` ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


GRAM_KERNELS = [KernelSpec(kind="rbf", gamma=0.7), KernelSpec(kind="linear")]
TILE_1500 = _TILE_ENTRIES // 1500


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
@pytest.mark.parametrize("n_rows,n_cols,p", [
    (1, 1500, 3),
    (TILE_1500 - 1, 1500, 3),
    (TILE_1500, 1500, 3),
    (TILE_1500 + 1, 1500, 3),
    (1200, 1500, 7),
    (0, 1500, 3),
    (3, _TILE_ENTRIES + 3, 2),
])
def test_gram_equals_untiled_reference_bitwise(spec, n_rows, n_cols, p):
    rng = np.random.default_rng(n_rows + n_cols)
    A = rng.standard_normal((n_rows, p))
    B = rng.standard_normal((n_cols, p))
    G = gram(spec, A, B)
    assert G.shape == (n_rows, n_cols)
    assert np.array_equal(G, untiled_gram_reference(spec, A, B))


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
@pytest.mark.parametrize("n", [TILE_1500 + 1, 1500])
def test_training_gram_equals_untiled_reference_bitwise(spec, n):
    # A is B, as in the full-Gram engine's training Gram.
    X = np.random.default_rng(n).standard_normal((n, 2))
    assert np.array_equal(gram(spec, X, X), untiled_gram_reference(spec, X, X))


def test_gram_peak_memory_is_output_plus_one_tile():
    X = np.random.default_rng(9).standard_normal((1500, 2))
    G, peak = traced_peak(gram, KernelSpec(kind="rbf", gamma=0.5), X, X)
    assert peak <= 1.5 * G.nbytes


def median_gamma_loop_oracle(X):
    sq = []
    for i in range(X.shape[0]):
        for j in range(i + 1, X.shape[0]):
            sq.append(sum((a - b) ** 2 for a, b in zip(X[i], X[j])))
    return 1.0 / max(float(np.median(sq)), 1e-12)


@pytest.mark.parametrize("p", [1, 2, 10, 100])
def test_median_heuristic_gamma_matches_loop_oracle(p):
    X = np.random.default_rng(p).standard_normal((41, p))
    assert median_heuristic_gamma(X) == pytest.approx(
        median_gamma_loop_oracle(X), rel=1e-12)


def test_median_heuristic_gamma_peak_memory_is_linear_in_pairs():
    # 600 points are subsampled to 500; a (500, 500, p) difference tensor
    # would need 40 MB at p = 20.
    X = np.random.default_rng(11).standard_normal((600, 20))
    gamma, peak = traced_peak(median_heuristic_gamma, X)
    assert np.isfinite(gamma) and gamma > 0
    pairs = 500 * 499 // 2
    assert peak <= 4 * 8 * pairs


def _dataset(n, p, seed):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.standard_normal((n, p)),
                   y=rng.choice([-1.0, 1.0], size=n))


def test_block_kernel_matrices_shapes_and_values():
    ds = _dataset(6, 2, 3)
    part = random_equipartition(6, 3, np.random.default_rng(0))
    spec = KernelSpec(kind="rbf", gamma=0.5)
    mats = block_kernel_matrices(ds, part, spec)
    assert len(mats) == 3
    for j, mat in enumerate(mats):
        assert mat.shape == (2, 2)
        np.testing.assert_allclose(np.diag(mat), 1.0, atol=1e-15)
        idx = part.block(j)
        for a in range(2):
            for b in range(2):
                assert mat[a, b] == pytest.approx(
                    kernel_eval(spec, ds.X[idx[a]], ds.X[idx[b]]), rel=1e-12)


def test_block_kernel_storage_total():
    ds = _dataset(50, 2, 4)
    part = random_equipartition(50, 7, np.random.default_rng(1))
    mats = block_kernel_matrices(ds, part, KernelSpec(kind="linear"))
    assert sum(m.size for m in mats) == 7 * (50 // 7) ** 2


def test_kernel_score_against_dense_gram():
    ds = _dataset(12, 2, 5)
    part = random_equipartition(12, 3, np.random.default_rng(2))
    spec = KernelSpec(kind="rbf", gamma=0.8)
    rng = np.random.default_rng(3)
    alpha = rng.standard_normal(12)
    m = KernelModel(alpha=alpha, support=ds.X, kernel=spec, partition=part)
    G = dense_gram_oracle(spec, ds.X)
    for j in range(3):
        idx = part.block(j)
        for i in idx:
            expected = G[i, idx] @ alpha[idx]
            assert kernel_score(m, j, int(i)) == pytest.approx(expected, rel=1e-10)


def test_kernel_score_zero_alpha_and_membership():
    ds = _dataset(6, 2, 6)
    part = random_equipartition(6, 3, np.random.default_rng(4))
    m = KernelModel(alpha=np.zeros(6), support=ds.X,
                    kernel=KernelSpec(kind="linear"), partition=part)
    idx = part.block(0)
    assert kernel_score(m, 0, int(idx[0])) == 0.0
    outside = next(i for i in range(6) if i not in idx)
    with pytest.raises(ValueError):
        kernel_score(m, 0, outside)


def test_predict_sign_convention_and_rescaling_invariance():
    m = LinearModel(u=np.array([1.0, -1.0]), b=0.0)
    X = np.array([[0.0, 0.0], [2.0, 1.0], [-1.0, 3.0]])
    preds = predict(m, X)
    assert np.array_equal(preds, [1.0, 1.0, -1.0])
    scaled = LinearModel(u=3.7 * m.u, b=3.7 * m.b)
    assert np.array_equal(predict(scaled, X), preds)


def test_record_gram_calls_tracks_indices():
    ds = _dataset(8, 2, 7)
    part = random_equipartition(8, 2, np.random.default_rng(5))
    with record_gram_calls() as log:
        block_kernel_matrices(ds, part, KernelSpec(kind="linear"))
    assert len(log) == 2
    for rows, cols in log:
        assert np.array_equal(rows, cols)


def test_model_json_round_trip_linear():
    m = LinearModel(u=np.array([0.25, -1.5]), b=2.0)
    back = model_from_json(model_to_json(m))
    assert np.array_equal(back.u, m.u) and back.b == m.b


def test_model_json_round_trip_kernel():
    ds = _dataset(6, 2, 8)
    part = random_equipartition(6, 2, np.random.default_rng(6))
    m = KernelModel(alpha=np.arange(6, dtype=float), support=ds.X,
                    kernel=KernelSpec(kind="rbf", gamma=0.3),
                    partition=part, active_block=1)
    back = model_from_json(model_to_json(m))
    assert np.array_equal(back.alpha, m.alpha)
    assert np.array_equal(back.support, m.support)
    assert back.kernel == m.kernel
    assert np.array_equal(back.partition.blocks, m.partition.blocks)
    assert back.active_block == 1
    x = np.array([0.1, 0.2])
    assert kernel_model_score(back, x) == pytest.approx(
        kernel_model_score(m, x), rel=1e-12)


def _kernel_model_json(blocks=None, active_block=1):
    ds = _dataset(6, 2, 8)
    part = random_equipartition(6, 2, np.random.default_rng(6))
    m = KernelModel(alpha=np.arange(6, dtype=float), support=ds.X,
                    kernel=KernelSpec(kind="rbf", gamma=0.3),
                    partition=part, active_block=1)
    obj = json.loads(model_to_json(m))
    if blocks is not None:
        obj["blocks"] = blocks
    obj["active_block"] = active_block
    return json.dumps(obj)


def test_model_from_json_rejects_overlapping_blocks():
    with pytest.raises(ValueError, match="disjoint"):
        model_from_json(_kernel_model_json([[0, 1, 2], [2, 3, 4]]))


def test_model_from_json_rejects_unsorted_blocks():
    with pytest.raises(ValueError, match="ascending"):
        model_from_json(_kernel_model_json([[2, 0, 4], [1, 3, 5]]))


@pytest.mark.parametrize("active_block", [-1, 2, 7])
def test_model_from_json_rejects_active_block_out_of_range(active_block):
    with pytest.raises(ValueError, match="active_block"):
        model_from_json(_kernel_model_json(active_block=active_block))
    assert model_from_json(_kernel_model_json(active_block=0)).active_block == 0


def _scoring_model(full_support, kind, n_support=1500, k=5, seed=12):
    rng = np.random.default_rng(seed)
    support = rng.standard_normal((n_support, 3))
    kernel = (KernelSpec(kind="rbf", gamma=0.4) if kind == "rbf"
              else KernelSpec(kind="linear"))
    part = random_equipartition(n_support, k, np.random.default_rng(seed + 1))
    return KernelModel(alpha=rng.standard_normal(n_support), support=support,
                       kernel=kernel, partition=part, active_block=2,
                       full_support=full_support)


def _scored_support(m):
    if m.full_support:
        return m.support, m.alpha
    idx = m.partition.block(m.active_block)
    return m.support[idx], m.alpha[idx]


@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("full_support", [True, False], ids=["full", "block"])
def test_streamed_kernel_model_score_matches_whole_gram(full_support, kind):
    m = _scoring_model(full_support, kind)
    x = np.random.default_rng(13).standard_normal((1200, 3))
    support, alpha = _scored_support(m)
    whole = gram(m.kernel, x, support) @ alpha
    scores = kernel_model_score(m, x)
    # Tiles change the row count of each BLAS product, which may round
    # differently; float64 rounding bounds the gap by a few ulps of sum|alpha|.
    np.testing.assert_allclose(scores, whole, rtol=0,
                               atol=1e-12 * np.abs(alpha).sum())
    assert np.array_equal(predict(m, x), np.where(whole >= 0.0, 1.0, -1.0))
    # Each tile scores exactly as gram() of that tile does.
    step = _TILE_ENTRIES // support.shape[0]
    tiled = np.concatenate([gram(m.kernel, x[s : s + step], support) @ alpha
                            for s in range(0, x.shape[0], step)])
    assert np.array_equal(scores, tiled)


@pytest.mark.parametrize("full_support", [True, False], ids=["full", "block"])
def test_kernel_model_score_single_point_is_float(full_support):
    m = _scoring_model(full_support, "rbf", n_support=40)
    x = np.array([0.1, -0.2, 0.3])
    score = kernel_model_score(m, x)
    assert isinstance(score, float)
    support, alpha = _scored_support(m)
    assert score == (gram(m.kernel, x[None], support) @ alpha)[0]


def test_kernel_model_score_never_holds_the_test_by_support_matrix():
    m = _scoring_model(True, "rbf")
    x = np.random.default_rng(14).standard_normal((1200, 3))
    scores, peak = traced_peak(kernel_model_score, m, x)
    assert scores.shape == (1200,)
    assert peak < x.shape[0] * m.support.shape[0] * 8
