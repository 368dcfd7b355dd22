import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.blas import dsyrk

from momclf.data import Dataset, Partition, generate_gaussians, random_equipartition
from momclf.model import (
    KernelModel,
    KernelSpec,
    LinearModel,
    gram,
    kernel_eval,
    kernel_for,
    kernel_model_score,
    _FINISH_ENTRIES,
    _TILE_ENTRIES,
    _finish_entries,
    _rbf_in_place,
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
    assert kernel_for(np.zeros((1, 4)), "rbf", "auto").gamma == 0.25
    # the kind has no default; gamma keeps 1, which a linear kernel carries
    with pytest.raises(TypeError):
        KernelSpec()
    with pytest.raises(TypeError):
        KernelSpec(gamma=0.5)
    assert KernelSpec(kind="linear").gamma == 1.0


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0, -1.0],
                         ids=["inf", "nan", "zero", "negative"])
def test_kernel_spec_refuses_an_rbf_gamma_that_is_not_finite_and_positive(gamma):
    with pytest.raises(ValueError, match="rbf kernel needs a finite gamma > 0"):
        KernelSpec(kind="rbf", gamma=gamma)


def test_kernel_for_resolves_each_bandwidth_once():
    X = np.random.default_rng(3).standard_normal((30, 4))
    assert kernel_for(X, "rbf", "auto") == KernelSpec(kind="rbf", gamma=0.25)
    assert kernel_for(X, "rbf", "median") == KernelSpec(
        kind="rbf", gamma=median_heuristic_gamma(X))
    assert kernel_for(X, "rbf", 2) == KernelSpec(kind="rbf", gamma=2.0)
    # a linear kernel has no bandwidth, so none is resolved or checked
    for gamma in ("auto", "median", 0.0):
        assert kernel_for(X, "linear", gamma) == KernelSpec(kind="linear")
    with pytest.raises(ValueError, match="unknown kernel kind 'poly'"):
        kernel_for(X, "poly", "auto")


def test_rbf_gram_is_psd():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((20, 3))
    G = gram(KernelSpec(kind="rbf", gamma=0.5), X)
    np.testing.assert_allclose(G, G.T, atol=1e-15)
    assert np.linalg.eigvalsh(G).min() >= -1e-8


def test_gram_matches_pairwise_oracle():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((10, 2))
    for spec in (KernelSpec(kind="rbf", gamma=1.3), KernelSpec(kind="linear")):
        np.testing.assert_allclose(gram(spec, X), dense_gram_oracle(spec, X),
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


def untiled_tile_scores(m, x):
    """``kernel_model_score(m, x)`` from the untiled formula of each of its
    row tiles."""
    idx = m.partition.block(m.active_block)
    support, alpha = m.support[idx], m.alpha[idx]
    step = max(1, _TILE_ENTRIES // support.shape[0])
    return np.concatenate([np.empty(0)] + [
        untiled_gram_reference(m.kernel, x[s : s + step], support) @ alpha
        for s in range(0, x.shape[0], step)])


def _one_block_model(spec, support, alpha):
    n = support.shape[0]
    return KernelModel(alpha=alpha, support=support, kernel=spec,
                       partition=Partition(blocks=np.arange(n)[None, :], n=n))


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
    # The kernel rows of n_rows test points against n_cols support points,
    # which only kernel_model_score's tiles build, score as the untiled
    # formula of each tile does: 0 and 1 rows, tile edges and a support
    # wider than one tile.
    rng = np.random.default_rng(n_rows + n_cols)
    x = rng.standard_normal((n_rows, p))
    m = _one_block_model(spec, rng.standard_normal((n_cols, p)),
                         rng.standard_normal(n_cols))
    scores = kernel_model_score(m, x)
    assert scores.shape == (n_rows,)
    assert np.array_equal(scores, untiled_tile_scores(m, x))


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
@pytest.mark.parametrize("n", [TILE_1500 + 1, 1500])
def test_training_gram_equals_untiled_reference_bitwise(spec, n):
    X = np.random.default_rng(n).standard_normal((n, 2))
    assert np.array_equal(gram(spec, X), untiled_gram_reference(spec, X, X))


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
@pytest.mark.parametrize("n", [TILE_1500 + 1, 700, 1500])
def test_training_gram_is_exactly_symmetric(spec, n):
    # klr_mom_train reads the kernel columns K[:, B] as the rows K[B]
    X = np.random.default_rng(n).standard_normal((n, 2))
    G = gram(spec, X)
    assert np.array_equal(G, G.T)


# Training Grams run in bands of BAND_ROWS rows: the sizes hold less than one
# band, one band, one band and a row, two bands and two bands and a row; 200
# is the fast engine's block at n = 4000, K = 20, and 511 to 513 points
# straddle the largest Gram that numpy's X @ X.T once built whole.
BAND_ROWS = math.isqrt(_FINISH_ENTRIES)
TILE_SIDE = math.isqrt(_TILE_ENTRIES)


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
@pytest.mark.parametrize("p", [1, 3, 7])
@pytest.mark.parametrize("n", [1, BAND_ROWS - 1, BAND_ROWS, BAND_ROWS + 1, 200,
                               2 * BAND_ROWS, 2 * BAND_ROWS + 1, TILE_SIDE - 1,
                               TILE_SIDE, TILE_SIDE + 1, 2001])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_training_gram_bitwise_and_symmetric_across_shapes(spec, p, n, strided):
    # scipy's syrk gives the bits of numpy's X @ X.T, the reference here
    Z = np.random.default_rng(n + p).standard_normal((n, 2 * p))
    X = Z[:, ::2] if strided else np.ascontiguousarray(Z[:, ::2])
    G = gram(spec, X)
    # a strided X gives the Gram of its C-ordered copy
    Xc = np.ascontiguousarray(X)
    assert np.array_equal(G, untiled_gram_reference(spec, Xc, Xc))
    assert np.array_equal(G, G.T)


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
def test_training_gram_of_no_points_is_empty(spec):
    X = np.empty((0, 3))
    assert gram(spec, X).shape == (0, 0)


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
def test_training_gram_of_points_without_features_is_the_formula(spec):
    # a CSV of only a label column loads; syrk refuses its empty product
    X = np.empty((4, 0))
    assert np.array_equal(gram(spec, X), untiled_gram_reference(spec, X, X))


def test_gram_peak_memory_is_output_plus_one_tile():
    # the scratch, plus numpy's ufunc buffers of 8192 entries per operand
    X = np.random.default_rng(9).standard_normal((1500, 2))
    G, peak = traced_peak(gram, KernelSpec(kind="rbf", gamma=0.5), X)
    assert peak <= G.nbytes + 2 * _FINISH_ENTRIES * 8


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
def test_one_band_training_gram_peak_memory_is_output_plus_one_tile(spec):
    # 512 points: the largest Gram that numpy's X @ X.T once built whole in
    # one band of 2**18 entries, now three bands of the one path
    X = np.random.default_rng(10).standard_normal((TILE_SIDE, 2))
    G, peak = traced_peak(gram, spec, X)
    assert peak <= G.nbytes + 1.5 * _TILE_ENTRIES * 8


@pytest.mark.parametrize("n_rows,n_cols", [
    (3, _FINISH_ENTRIES),  # a finish step of one row
    (4, _FINISH_ENTRIES + 5),
    (2, 20_000),
    (100, 1000),  # steps of 32 rows: the step does not divide the rows
    (75, 3000),
    (TILE_SIDE, TILE_SIDE),  # the old tile of 2**18 entries
    (TILE_SIDE + 1, TILE_SIDE),
    (2, _TILE_ENTRIES),
    (1, _TILE_ENTRIES + 1),
])
def test_gram_rbf_finish_equals_untiled_formula_bitwise(n_rows, n_cols):
    # the finish is elementwise, so any row step gives the untiled bits
    rng = np.random.default_rng(n_rows * n_cols)
    A = rng.standard_normal((n_rows, 2))
    B = rng.standard_normal((n_cols, 2))
    spec = KernelSpec(kind="rbf", gamma=0.7)
    out = A @ B.T
    scratch = np.empty(_finish_entries(n_rows, n_cols))
    assert scratch.size <= max(_FINISH_ENTRIES, n_cols)
    _rbf_in_place(spec.gamma, out, np.sum(A * A, axis=1), np.sum(B * B, axis=1),
                  scratch)
    assert np.array_equal(out, untiled_gram_reference(spec, A, B))


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
def test_one_band_gram_scratch_is_one_finish_step(spec):
    # 512 points, the largest Gram that numpy's X @ X.T once built whole
    X = np.random.default_rng(12).standard_normal((TILE_SIDE, 2))
    G, peak = traced_peak(gram, spec, X)
    # the scratch, plus numpy's ufunc buffers of 8192 entries per operand
    assert peak <= G.nbytes + 2 * _FINISH_ENTRIES * 8


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
@pytest.mark.parametrize("n", [1, 5, BAND_ROWS, 200, 2 * BAND_ROWS + 1])
def test_training_gram_scratch_is_one_finish_step_at_every_size(spec, n):
    # a band is capped at n rows: 2**18 // 5 rows of 5 points would ask for
    # 2.7e9 entries of scratch
    X = np.random.default_rng(12).standard_normal((n, 2))
    G, peak = traced_peak(gram, spec, X)
    assert peak <= G.nbytes + 2 * _FINISH_ENTRIES * 8


def test_kernel_model_score_gram_tile_and_one_finish_step():
    # one product tile of about _TILE_ENTRIES and one finish step of scratch
    rng = np.random.default_rng(13)
    m = _one_block_model(KernelSpec(kind="rbf", gamma=0.5),
                         rng.standard_normal((200, 3)), rng.standard_normal(200))
    x = rng.standard_normal((5000, 3))
    scores, peak = traced_peak(kernel_model_score, m, x)
    assert np.array_equal(scores, untiled_tile_scores(m, x))
    assert peak <= 8 * (_TILE_ENTRIES + 2 * _FINISH_ENTRIES + 4 * x.shape[0])


def test_scipy_syrk_gives_the_bits_of_numpy_symmetric_product():
    # The training Gram takes its product from scipy's dsyrk, and the Gram
    # tests compare it with numpy's X @ X.T, which agree while the two
    # libraries' BLAS builds do.
    X = np.random.default_rng(11).standard_normal((1500, 3))
    G = dsyrk(1.0, X.T, trans=1, lower=1)
    assert np.array_equal(np.tril(G), np.tril(X @ X.T)), (
        "scipy's and numpy's BLAS give different dsyrk bits; compare "
        "scipy.show_config() with numpy.show_config()")


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


@pytest.mark.parametrize("spec", GRAM_KERNELS, ids=["rbf", "linear"])
def test_block_kernel_gram_is_exactly_symmetric(spec):
    # 300-point blocks, where a general product of two copies of a block's
    # rows is not symmetric: the IRLS Cholesky reads one triangle of a block
    # matrix, and design @ alpha and the score update read all of it.
    ds = generate_gaussians(1500, 1)
    part = random_equipartition(ds.n, 5, np.random.default_rng(0))
    for idx in part.blocks:
        rows = ds.X[idx]
        mat = gram(spec, rows, idx)
        assert np.array_equal(mat, mat.T)
        assert np.array_equal(mat, untiled_gram_reference(spec, rows, rows))


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
        for idx in part.blocks:
            gram(KernelSpec(kind="linear"), ds.X[idx], idx)
    assert len(log) == 2
    for j, (rows, cols) in enumerate(log):
        assert np.array_equal(rows, part.block(j)) and np.array_equal(cols, rows)


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


def _linear_file(**fields):
    model = LinearModel(u=np.array([1.0, -2.0]), b=0.5)
    return json.dumps({**json.loads(model_to_json(model)), **fields})


@pytest.mark.parametrize("text, message", [
    ("[]", "model file must be a JSON object, got list"),
    (_kernel_file(support=5.0), r"model field 'support' must be a 2-d .* got shape \(\)"),
    (_kernel_file(kernel=3), "model field 'kernel' must be a JSON object, got int"),
    (_kernel_file(kernel={"kind": "rbf", "gamma": "x"}),
     "model field 'kernel.gamma' must be a JSON number"),
    (_kernel_file(kernel={"kind": "rbf", "gamma": None}),
     "model field 'kernel.gamma' must be a JSON number"),
    (_kernel_file(kernel={"kind": "rbf", "gamma": [1.0]}),
     r"model field 'kernel.gamma' must be a JSON number, got \[1.0\]"),
    (_kernel_file(kernel={"kind": "rbf", "gamma": True}),
     "model field 'kernel.gamma' must be a JSON number, got true"),
    (_linear_file(b="x"), "model field 'b' must be a JSON number"),
    (_linear_file(u="ab"), "model field 'u' must hold finite JSON numbers"),
    (_kernel_file(alpha=["x"]), "model field 'alpha' must hold finite JSON numbers"),
], ids=["top-level-list", "scalar-support", "scalar-kernel", "string-gamma",
        "null-gamma", "list-gamma", "boolean-gamma", "string-b", "string-u",
        "string-alpha"])
def test_model_from_json_names_a_field_of_the_wrong_type(text, message):
    with pytest.raises(ValueError, match=message):
        model_from_json(text)


@pytest.mark.parametrize("text, message", [
    (_linear_file(type="poly"),
     'model field \'type\' must be one of "kernel", "linear", got "poly"'),
    (_kernel_file(kernel={"kind": "poly", "gamma": 1.0}),
     'model field \'kernel.kind\' must be one of "linear", "rbf", got "poly"'),
    (_kernel_file(kernel={"kind": "rbf", "gamma": 0.0}),
     "model field 'kernel.gamma' must be > 0 for an rbf kernel, got 0.0"),
    (_kernel_file(kernel={"kind": "rbf", "gamma": -1}),
     "model field 'kernel.gamma' must be > 0 for an rbf kernel, got -1"),
], ids=["type", "kernel-kind", "zero-gamma", "negative-gamma"])
def test_model_from_json_names_a_field_outside_its_domain(text, message):
    with pytest.raises(ValueError) as exc:
        model_from_json(text)
    assert message in str(exc.value)


_NUMERIC_FIELDS = [("linear", ("u", 1)), ("linear", ("b",)),
                   ("kernel", ("kernel", "gamma")), ("kernel", ("alpha", 0)),
                   ("kernel", ("support", 2, 1))]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, path", _NUMERIC_FIELDS,
                         ids=[f"{kind}-{path[0]}" for kind, path in _NUMERIC_FIELDS])
def test_model_from_json_refuses_a_non_finite_number(kind, path, value):
    # json.loads reads NaN, Infinity and -Infinity, which json.dumps writes
    obj = json.loads(_linear_file() if kind == "linear" else _kernel_file())
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    field = "kernel.gamma" if path[0] == "kernel" else path[0]
    with pytest.raises(ValueError, match=f"model field '{field}' must hold "
                                         "finite JSON numbers"):
        model_from_json(json.dumps(obj))


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
        return _one_block_model(kernel, support, rng.standard_normal(n_support))
    part = random_equipartition(n_support, k, np.random.default_rng(seed + 1))
    return KernelModel(alpha=rng.standard_normal(n_support), support=support,
                       kernel=kernel, partition=part, active_block=2)


@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize("one_block", [True, False], ids=["full", "block"])
def test_streamed_kernel_model_score_matches_whole_gram(one_block, kind):
    m = _scoring_model(one_block, kind)
    x = np.random.default_rng(13).standard_normal((1200, 3))
    idx = m.partition.block(m.active_block)
    support, alpha = m.support[idx], m.alpha[idx]
    whole = untiled_gram_reference(m.kernel, x, support) @ alpha
    scores = kernel_model_score(m, x)
    # Tiles change the row count of each BLAS product, which may round
    # differently; float64 rounding bounds the gap by a few ulps of sum|alpha|.
    np.testing.assert_allclose(scores, whole, rtol=0,
                               atol=1e-12 * np.abs(alpha).sum())
    assert np.array_equal(predict(m, x), np.where(whole >= 0.0, 1.0, -1.0))
    # Each tile scores exactly as the untiled formula of that tile does.
    assert np.array_equal(scores, untiled_tile_scores(m, x))


@pytest.mark.parametrize("one_block", [True, False], ids=["full", "block"])
def test_kernel_model_score_single_point_is_float(one_block):
    m = _scoring_model(one_block, "rbf", n_support=40)
    x = np.array([0.1, -0.2, 0.3])
    score = kernel_model_score(m, x)
    assert isinstance(score, float)
    idx = m.partition.block(m.active_block)
    assert score == (untiled_gram_reference(m.kernel, x[None], m.support[idx])
                     @ m.alpha[idx])[0]


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



_WRONG_TYPES = ["x", True, None, {}, [True], 1.5]
_MUTATIONS = ["none", "drop", "retype", "reshape", "non-finite", "bool-leaf",
              "truncate", "add-key"]


def _key_paths(obj, prefix=()):
    """Every key path of a parsed JSON object, nested objects included."""
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


@given(_models_and_points(), st.sampled_from(_MUTATIONS), st.data())
@settings(max_examples=150, deadline=None)
def test_model_from_json_returns_the_model_or_names_the_field(model_and_points,
                                                              mutation, data):
    # one mutation of a valid file: the reader returns the same model or
    # raises a ValueError naming the field, and never another exception
    model = model_and_points[0]
    obj = json.loads(model_to_json(model))
    numeric = ([("u",), ("b",)] if "u" in obj
               else [("alpha",), ("support",), ("kernel", "gamma")])
    path = data.draw(st.sampled_from(
        list(_key_paths(obj)) if mutation in ("drop", "retype") else numeric))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "retype":
        parent[key] = data.draw(st.sampled_from(
            [v for v in _WRONG_TYPES if type(v) is not type(parent[key])]))
    elif mutation == "reshape":
        # alpha one longer than support, or any numeric field one level deeper
        grow = key == "alpha" and data.draw(st.booleans())
        parent[key] = parent[key] + [0.0] if grow else [parent[key]]
    elif mutation in ("non-finite", "bool-leaf"):
        # one numeric leaf; 10**400 is a JSON integer beyond the float range,
        # and numpy reads true among numbers as 1
        holder, index = parent, key
        while isinstance(holder[index], list):
            holder, index = holder[index], data.draw(
                st.integers(0, len(holder[index]) - 1))
        holder[index] = (True if mutation == "bool-leaf" else data.draw(
            st.sampled_from([math.nan, math.inf, -math.inf, 10**400])))
    elif mutation == "add-key":
        obj["comment"] = "written by hand"
    text = json.dumps(obj)
    if mutation == "truncate":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    try:
        back = model_from_json(text)
    except ValueError as exc:
        assert mutation not in ("none", "add-key")
        assert mutation == "truncate" or ".".join(path) in str(exc)
    else:
        assert mutation in ("none", "add-key")
        assert model_to_json(back) == model_to_json(model)
