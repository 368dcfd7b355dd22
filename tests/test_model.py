import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from momclf.data import Dataset, Partition, random_equipartition
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


def _kernel_model(active_block=1, n=6, k=2):
    ds = _dataset(6, 2, 8)
    part = random_equipartition(n, k, np.random.default_rng(6))
    return KernelModel(alpha=np.arange(6, dtype=float), support=ds.X,
                       kernel=KernelSpec(kind="rbf", gamma=0.3),
                       partition=part, active_block=active_block)


def test_model_json_round_trip_kernel():
    m = _kernel_model()
    # only the active block's expansion is written
    obj = json.loads(model_to_json(m))
    assert set(obj) == {"type", "format", "kernel", "alpha", "support"}
    back = model_from_json(model_to_json(m))
    idx = m.partition.block(1)
    assert np.array_equal(back.alpha, m.alpha[idx])
    assert np.array_equal(back.support, m.support[idx])
    assert back.kernel == m.kernel
    assert np.array_equal(back.partition.blocks, [np.arange(3)])
    assert back.active_block == 0
    x = np.array([[0.1, 0.2], [-1.0, 0.5]])
    assert np.array_equal(kernel_model_score(back, x), kernel_model_score(m, x))


@pytest.mark.parametrize("active_block", [-1, 2, 7])
def test_kernel_model_rejects_active_block_out_of_range(active_block):
    with pytest.raises(ValueError, match="active_block"):
        _kernel_model(active_block=active_block)
    assert _kernel_model(active_block=0).active_block == 0


@pytest.mark.parametrize("n", [10, 4])
def test_kernel_model_rejects_a_partition_over_other_samples(n):
    with pytest.raises(ValueError, match=f"n={n} samples for 6 support points"):
        _kernel_model(active_block=0, n=n)


@pytest.mark.parametrize("value, found", [(None, "missing"), (1, "1"), ("2", "'2'")],
                         ids=["missing", "old", "string"])
@pytest.mark.parametrize("model", [
    LinearModel(u=np.array([1.0, -2.0]), b=0.5), _kernel_model()],
    ids=["linear", "kernel"])
def test_model_from_json_rejects_a_missing_or_unknown_format(model, value, found):
    obj = json.loads(model_to_json(model))
    del obj["format"]
    if value is not None:
        obj["format"] = value
    with pytest.raises(ValueError, match=f"'format' is {found};"):
        model_from_json(json.dumps(obj))


_REQUIRED_FIELDS = (
    [("linear", path) for path in (("type",), ("u",), ("b",))]
    + [("kernel", path) for path in (("type",), ("kernel",), ("kernel", "kind"),
                                     ("kernel", "gamma"), ("alpha",), ("support",))])


@pytest.mark.parametrize("kind, path", _REQUIRED_FIELDS,
                         ids=[f"{kind}-{'.'.join(path)}" for kind, path in _REQUIRED_FIELDS])
def test_model_from_json_names_a_missing_field(kind, path):
    model = LinearModel(u=np.array([1.0, -2.0]), b=0.5) if kind == "linear" \
        else _kernel_model()
    obj = json.loads(model_to_json(model))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    with pytest.raises(ValueError, match=f"model field '{'.'.join(path)}' is missing"):
        model_from_json(json.dumps(obj))


def test_kernel_model_rejects_a_support_that_is_not_2d():
    text = json.dumps({"type": "kernel", "format": 2,
                       "kernel": {"kind": "rbf", "gamma": 1.0},
                       "alpha": [1.0], "support": [1.0]})
    with pytest.raises(ValueError, match=r"2-d .* got shape \(1,\)"):
        model_from_json(text)


def _kernel_file(**fields):
    return json.dumps({**json.loads(model_to_json(_kernel_model())), **fields})


@pytest.mark.parametrize("text, message", [
    ("[]", "a model file must be a JSON object, got list"),
    (_kernel_file(support=5.0), r"model field 'support' must be a 2-d .* got shape \(\)"),
    (_kernel_file(kernel=3), "model field 'kernel' must be a JSON object, got int"),
], ids=["top-level-list", "scalar-support", "scalar-kernel"])
def test_model_from_json_names_a_field_of_the_wrong_type(text, message):
    with pytest.raises(ValueError, match=message):
        model_from_json(text)


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros((4, 3)), np.zeros((4, 1))],
                         ids=["point", "batch", "narrow-batch"])
def test_kernel_model_score_names_both_feature_counts(x):
    m = _kernel_model()  # p = 2
    with pytest.raises(ValueError, match=f"feature dimension {x.shape[-1]} "
                                         "!= model dimension 2"):
        kernel_model_score(m, x)


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def _models_and_points(draw):
    p = draw(st.integers(1, 4))
    points = draw(hnp.arrays(float, (draw(st.integers(1, 5)), p), elements=_finite))
    if draw(st.booleans()):
        u = draw(hnp.arrays(float, p, elements=_finite))
        return LinearModel(u=u, b=draw(_finite)), points
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, n))
    kernel = draw(st.sampled_from([
        KernelSpec(kind="linear"),
        KernelSpec(kind="rbf", gamma=draw(st.floats(1e-3, 1e3)))]))
    part = random_equipartition(n, k, np.random.default_rng(draw(st.integers(0, 99))))
    model = KernelModel(alpha=draw(hnp.arrays(float, n, elements=_finite)),
                        support=draw(hnp.arrays(float, (n, p), elements=_finite)),
                        kernel=kernel, partition=part,
                        active_block=draw(st.integers(0, k - 1)))
    return model, points


@given(_models_and_points())
@settings(max_examples=150, deadline=None)
def test_model_json_round_trip_scores_bitwise(model_and_points):
    model, x = model_and_points
    back = model_from_json(model_to_json(model))
    score = linear_score if isinstance(model, LinearModel) else kernel_model_score
    assert score(back, x).tobytes() == score(model, x).tobytes()
    assert score(back, x[0]) == score(model, x[0])


def _scoring_model(one_block, kind, n_support=1500, k=5, seed=12):
    rng = np.random.default_rng(seed)
    support = rng.standard_normal((n_support, 3))
    kernel = (KernelSpec(kind="rbf", gamma=0.4) if kind == "rbf"
              else KernelSpec(kind="linear"))
    if one_block:
        part = Partition(blocks=np.arange(n_support)[None, :], n=n_support)
    else:
        part = random_equipartition(n_support, k, np.random.default_rng(seed + 1))
    return KernelModel(alpha=rng.standard_normal(n_support), support=support,
                       kernel=kernel, partition=part,
                       active_block=0 if one_block else 2)


@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("one_block", [True, False], ids=["full", "block"])
def test_streamed_kernel_model_score_matches_whole_gram(one_block, kind):
    m = _scoring_model(one_block, kind)
    x = np.random.default_rng(13).standard_normal((1200, 3))
    idx = m.partition.block(m.active_block)
    support, alpha = m.support[idx], m.alpha[idx]
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


@pytest.mark.parametrize("one_block", [True, False], ids=["full", "block"])
def test_kernel_model_score_single_point_is_float(one_block):
    m = _scoring_model(one_block, "rbf", n_support=40)
    x = np.array([0.1, -0.2, 0.3])
    score = kernel_model_score(m, x)
    assert isinstance(score, float)
    idx = m.partition.block(m.active_block)
    assert score == (gram(m.kernel, x[None], m.support[idx]) @ m.alpha[idx])[0]


@pytest.mark.parametrize("model", [
    LinearModel(u=np.array([0.5, -1.0, 2.0]), b=0.1),
    _scoring_model(False, "rbf", n_support=40)], ids=["linear", "kernel"])
def test_predict_of_a_one_row_batch_has_shape_one(model):
    x = np.array([[0.1, -0.2, 0.3]])
    assert predict(model, x).shape == (1,)
    assert predict(model, x[0]).shape == ()


def test_kernel_model_score_never_holds_the_test_by_support_matrix():
    m = _scoring_model(True, "rbf")
    x = np.random.default_rng(14).standard_normal((1200, 3))
    scores, peak = traced_peak(kernel_model_score, m, x)
    assert scores.shape == (1200,)
    assert peak < x.shape[0] * m.support.shape[0] * 8
