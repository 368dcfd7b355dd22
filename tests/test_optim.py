import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.special import expit

import momclf.optim
from momclf.bench import accuracy
from momclf.data import (
    Dataset,
    generate_gaussians,
    generate_moons,
    generate_toy,
    random_equipartition,
)
from momclf.losses import LossKind, loss_grad_score, loss_value
from momclf.mom import block_means, mom_estimate
from momclf.model import KernelSpec, LinearModel, gram, record_gram_calls
from momclf.optim import (
    IRLS_WEIGHT_FLOOR,
    METHODS,
    FastKlrConfig,
    MomGdConfig,
    StepSchedule,
    TrainTrace,
    expected_mom_objective,
    fast_klr_mom_train,
    klr_mom_train,
    median_block_gradient_check,
    mom_gd_train,
    mom_objective,
    train,
    _irls_update,
)


def make_dataset(n, p, seed):
    rng = np.random.default_rng(seed)
    return Dataset(X=rng.standard_normal((n, p)),
                   y=rng.choice([-1.0, 1.0], size=n))


def separable_blobs(n, seed, margin=2.0, sd=0.4):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([rng.standard_normal((half, 2)) * sd + (-margin, -margin),
                   rng.standard_normal((n - half, 2)) * sd + (margin, margin)])
    y = np.hstack([np.ones(half), -np.ones(n - half)])
    order = rng.permutation(n)
    return Dataset(X=X[order], y=y[order])


def test_schedule_validation():
    assert StepSchedule("inverse-t", 0.5).rate(4) == 0.1
    assert StepSchedule("constant", 0.3).rate(100) == 0.3
    assert StepSchedule("constant", 0.0).rate(0) == 0.0
    with pytest.raises(ValueError):
        StepSchedule("inverse-t", 0.0)
    with pytest.raises(ValueError):
        StepSchedule("linear", 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        MomGdConfig(k=0, t=10)
    with pytest.raises(ValueError):
        MomGdConfig(k=3, t=0)
    with pytest.raises(ValueError):
        MomGdConfig(k=3, t=10, loss=LossKind.ZERO_ONE)
    with pytest.raises(ValueError):
        FastKlrConfig(k=3, t=10, beta=0.0)


def test_mom_gd_k_exceeding_n_rejected():
    ds = make_dataset(10, 2, 0)
    with pytest.raises(ValueError):
        mom_gd_train(ds, LinearModel.zeros(2), MomGdConfig(k=11, t=1))


def test_zero_gradient_fixed_point_hinge():
    # all margins > 1 at u0, so every block's summed hinge gradient is zero
    X = np.array([[2.0, 0.0], [3.0, 1.0], [-2.5, 0.5], [-2.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    ds = Dataset(X=X, y=y)
    u0 = LinearModel(u=np.array([1.0, 0.0]), b=0.0)
    cfg = MomGdConfig(k=2, t=1, loss=LossKind.HINGE, seed=0)
    model, _ = mom_gd_train(ds, u0, cfg)
    assert np.array_equal(model.u, u0.u) and model.b == u0.b


def test_erm_zero_gradient_start_is_identity():
    X = np.array([[2.0, 0.0], [-2.0, 0.0]])
    y = np.array([1.0, -1.0])
    ds = Dataset(X=X, y=y)
    u0 = LinearModel(u=np.array([1.0, 0.0]), b=0.0)
    cfg = MomGdConfig(k=1, t=5, schedule=StepSchedule("inverse-t", 0.5),
                      loss=LossKind.HINGE, gradient_mode="mean")
    out, _ = mom_gd_train(ds, u0, cfg)
    assert np.array_equal(out.u, u0.u) and out.b == u0.b


def full_batch_step_oracle(ds, u, b, eta, loss):
    """Independent single-step reference: explicit per-sample sum."""
    gu = np.zeros_like(u)
    gb = 0.0
    for i in range(ds.n):
        s = float(ds.X[i] @ u + b)
        g = float(loss_grad_score(loss, s, ds.y[i]))
        gu = gu + g * ds.X[i]
        gb += g
    return u - eta * gu, b - eta * gb


def test_k1_single_step_matches_full_batch_oracle():
    ds = make_dataset(40, 3, 1)
    u0 = LinearModel(u=np.array([0.3, -0.2, 0.1]), b=0.05)
    cfg = MomGdConfig(k=1, t=1, schedule=StepSchedule("inverse-t", 0.5),
                      loss=LossKind.LOGISTIC, seed=2)
    model, _ = mom_gd_train(ds, u0, cfg)
    exp_u, exp_b = full_batch_step_oracle(ds, u0.u, u0.b, 0.5, LossKind.LOGISTIC)
    np.testing.assert_allclose(model.u, exp_u, rtol=1e-12)
    assert model.b == pytest.approx(exp_b, rel=1e-12)


def test_erm_loss_decreases_on_separable_pair():
    ds = Dataset(X=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                 y=np.array([1.0, -1.0]))
    prev = np.inf
    for t in range(1, 6):
        out, _ = train("erm-logistic", ds, 1, t, StepSchedule("inverse-t", 0.5))
        cur = float(np.mean(loss_value(LossKind.LOGISTIC,
                                       ds.X @ out.u + out.b, ds.y)))
        assert cur < prev
        prev = cur


def test_training_ignores_outlier_flags():
    base = generate_toy(100, 10, 5)
    flipped = Dataset(X=base.X, y=base.y,
                      is_outlier=~base.is_outlier)
    unflagged = Dataset(X=base.X, y=base.y)
    cfg = MomGdConfig(k=10, t=50, seed=9)
    u0 = LinearModel.zeros(2)
    ref, _ = mom_gd_train(base, u0, cfg)
    for variant in (flipped, unflagged):
        out, _ = mom_gd_train(variant, u0, cfg)
        assert np.array_equal(out.u, ref.u) and out.b == ref.b


def test_mom_gd_determinism():
    ds = generate_toy(100, 5, 6)
    cfg = MomGdConfig(k=10, t=80, seed=13, record_selections=True)
    a, tra = mom_gd_train(ds, LinearModel.zeros(2), cfg)
    b, trb = mom_gd_train(ds, LinearModel.zeros(2), cfg)
    assert np.array_equal(a.u, b.u) and a.b == b.b
    assert [r.k_med for r in tra.steps] == [r.k_med for r in trb.steps]
    assert tra.final_objective == trb.final_objective


def test_vectorized_logistic_loss_drives_the_same_steps_as_logaddexp(monkeypatch):
    # The logistic loss is a few ulp from np.logaddexp(0, -m); the gradient is
    # untouched, so the run moves only if a median block flips.
    def logaddexp_loss(kind, score, y):
        assert kind is LossKind.LOGISTIC
        return np.logaddexp(0.0, -np.asarray(y, dtype=float) * score)

    ds = generate_toy(300, 15, 4)
    cfg = MomGdConfig(k=15, t=400, seed=21, record_selections=True)
    runs = [mom_gd_train(ds, LinearModel.zeros(2), cfg)]
    monkeypatch.setattr(momclf.optim, "loss_value", logaddexp_loss)
    runs.append(mom_gd_train(ds, LinearModel.zeros(2), cfg))
    (a, tra), (b, trb) = runs
    assert [r.k_med for r in tra.steps] == [r.k_med for r in trb.steps]
    assert np.array_equal(a.u, b.u) and a.b == b.b
    objectives = [[r.objective for r in tr.steps] + [tr.final_objective]
                  for tr in (tra, trb)]
    np.testing.assert_allclose(*objectives, rtol=1e-15, atol=0)


def test_trace_records_and_jsonl_round_trip(tmp_path):
    ds = generate_toy(40, 2, 7)
    cfg = MomGdConfig(k=6, t=25, seed=1, record_selections=True)
    _, trace = mom_gd_train(ds, LinearModel.zeros(2), cfg)
    assert len(trace.steps) == 25
    assert trace.block_size == 7
    for rec in trace.steps:
        assert rec.block.size == 7
        assert 0 <= rec.k_med < 6
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    back = TrainTrace.from_jsonl(path)
    assert back.n == trace.n and back.k == trace.k and back.t == trace.t
    assert len(back.steps) == 25
    assert all(np.array_equal(a.block, b.block)
               for a, b in zip(back.steps, trace.steps))


@pytest.mark.parametrize("lineno, bad_line, message", [
    (3, '{"t": 0, "partition_seed": 1, "block": [0], "objective": 0.5}',
     "line 3: missing field 'k_med'"),
    (1, '{"meta": {"n": 40, "k": 6, "t": 2, "block_size": 7}}',
     "line 1: missing field 'final_objective'"),
    (3, '{"t": 0, "partition_seed": 1,', "line 3: not JSON"),
    (2, "[1, 2]", "line 2: not a trace record"),
], ids=["step-field", "meta-field", "not-json", "not-object"])
def test_trace_from_jsonl_names_path_line_and_field(tmp_path, lineno, bad_line,
                                                    message):
    ds = generate_toy(40, 2, 7)
    cfg = MomGdConfig(k=6, t=2, seed=1, record_selections=True)
    _, trace = mom_gd_train(ds, LinearModel.zeros(2), cfg)
    path = tmp_path / "trace.jsonl"
    trace.to_jsonl(path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = bad_line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        TrainTrace.from_jsonl(path)
    assert str(path) in str(exc.value) and message in str(exc.value)


REPLAY_DATA = generate_toy(60, 4, 31)


@pytest.mark.parametrize("engine", ["linear", "fast", "full"])
def test_trace_records_replay_from_partition_seed(engine):
    # every engine runs the same step loop, so every recorded median block
    # can be rebuilt from its partition seed and median index alone
    ds, k, t = REPLAY_DATA, 8, 15
    if engine == "linear":
        _, trace = mom_gd_train(ds, LinearModel.zeros(2), MomGdConfig(
            k=k, t=t, seed=3, record_selections=True))
    else:
        train = fast_klr_mom_train if engine == "fast" else klr_mom_train
        _, trace = train(ds, FastKlrConfig(
            k=k, t=t, kernel=KernelSpec(kind="rbf", gamma=0.5), seed=3,
            record_selections=True))
    assert [rec.t for rec in trace.steps] == list(range(t))
    for rec in trace.steps:
        part = random_equipartition(ds.n, k, np.random.default_rng(rec.partition_seed))
        assert np.array_equal(rec.block, part.block(rec.k_med))
        # a view would keep the step's whole (k, n // k) partition alive
        assert rec.block.base is None
    seeds = {rec.partition_seed for rec in trace.steps}
    if engine == "fast":
        assert len(seeds) == 1
    else:
        assert len(seeds) == t


def _direct_engine_call(method, ds, k, t, schedule, seed):
    init = LinearModel.zeros(ds.p)
    if method == "erm-logistic":
        return mom_gd_train(ds, init, MomGdConfig(
            k=1, t=t, schedule=schedule, loss=LossKind.LOGISTIC, seed=seed,
            record_selections=True, gradient_mode="mean"))
    if method in ("mom-logistic", "mom-hinge"):
        loss = LossKind.LOGISTIC if method == "mom-logistic" else LossKind.HINGE
        return mom_gd_train(ds, init, MomGdConfig(
            k=k, t=t, schedule=schedule, loss=loss, seed=seed,
            record_selections=True))
    engine = fast_klr_mom_train if method == "fast-klr-mom" else klr_mom_train
    return engine(ds, FastKlrConfig(
        k=k, t=t, schedule=schedule, beta=1e-3,
        kernel=KernelSpec(kind="rbf", gamma=1.0 / ds.p), seed=seed,
        record_selections=True))


def _model_arrays(model):
    if isinstance(model, LinearModel):
        return [model.u, np.float64(model.b)]
    return [model.alpha, np.int64(model.active_block), model.partition.blocks]


@pytest.mark.parametrize("method", METHODS)
def test_train_equals_the_direct_engine_call(method):
    ds, schedule = REPLAY_DATA, StepSchedule("inverse-t", 0.5)
    model, trace = train(method, ds, 8, 15, schedule, seed=3,
                         record_selections=True)
    direct, direct_trace = _direct_engine_call(method, ds, 8, 15, schedule, 3)
    assert type(model) is type(direct)
    assert all(a.tobytes() == b.tobytes() for a, b in
               zip(_model_arrays(model), _model_arrays(direct)))
    assert trace.final_objective == direct_trace.final_objective
    assert len(trace.steps) == len(direct_trace.steps) == 15
    for rec, ref in zip(trace.steps, direct_trace.steps):
        assert (rec.partition_seed, rec.k_med, rec.objective) == \
            (ref.partition_seed, ref.k_med, ref.objective)
        assert np.array_equal(rec.block, ref.block)


def test_k1_draws_its_one_partition_once(monkeypatch):
    calls = []

    def counted(n, k, rng):
        calls.append(k)
        return random_equipartition(n, k, rng)

    monkeypatch.setattr(momclf.optim, "random_equipartition", counted)
    cfg = MomGdConfig(k=1, t=25, seed=4, record_selections=True)
    _, trace = mom_gd_train(REPLAY_DATA, LinearModel.zeros(2), cfg)
    assert calls == [1]
    assert len({rec.partition_seed for rec in trace.steps}) == 1
    assert all(np.array_equal(rec.block, np.arange(REPLAY_DATA.n))
               for rec in trace.steps)


def test_erm_is_bitwise_independent_of_seed_and_k():
    schedule = StepSchedule("inverse-t", 0.5)
    ref, ref_trace = train("erm-logistic", REPLAY_DATA, 8, 40, schedule, seed=0)
    for k, seed in ((8, 1), (120, 2**40), (1, 7)):
        out, trace = train("erm-logistic", REPLAY_DATA, k, 40, schedule,
                           seed=seed, gradient_mode="sum")
        assert out.u.tobytes() == ref.u.tobytes() and out.b == ref.b
        assert trace.final_objective == ref_trace.final_objective
    X, y = REPLAY_DATA.training_arrays()
    # with one block the trace's final objective is the empirical risk
    assert ref_trace.final_objective == pytest.approx(
        float(np.mean(loss_value(LossKind.LOGISTIC, X @ ref.u + ref.b, y))),
        rel=1e-15)


def test_constant_step_warning_points_at_the_caller_of_train():
    with pytest.warns(UserWarning, match="constant step size") as record:
        train("mom-logistic", REPLAY_DATA, 8, 5, StepSchedule("constant", 0.1))
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("method, k", [("erm-logistic", 120),
                                       ("mom-logistic", 1), ("mom-hinge", 1)])
def test_constant_step_at_one_block_does_not_warn(method, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        train(method, REPLAY_DATA, k, 5, StepSchedule("constant", 2.0))


def test_train_rejects_an_unknown_method_listing_methods():
    with pytest.raises(ValueError, match="'svm'") as exc:
        train("svm", REPLAY_DATA, 8, 15, StepSchedule())
    assert all(method in str(exc.value) for method in METHODS)


def test_mom_objective_cases():
    ds = make_dataset(30, 2, 8)
    rng = np.random.default_rng(0)
    part = random_equipartition(30, 5, rng)
    m = LinearModel.zeros(2)
    # hinge with all margins > 1 is identically 0
    wide = Dataset(X=ds.X, y=ds.y)
    big = LinearModel(u=np.zeros(2), b=0.0)
    losses = loss_value(LossKind.HINGE, wide.X @ big.u + big.b, wide.y)
    assert mom_objective(wide, big, part, LossKind.HINGE) == pytest.approx(
        mom_estimate(losses, part))
    # k=1 equals the empirical risk
    single = random_equipartition(30, 1, rng)
    emp = float(np.mean(loss_value(LossKind.LOGISTIC, ds.X @ m.u + m.b, ds.y)))
    assert mom_objective(ds, m, single, LossKind.LOGISTIC) == pytest.approx(emp)
    # random fixture equals the sort-based median of block means
    losses = loss_value(LossKind.LOGISTIC, ds.X @ m.u + m.b, ds.y)
    means = np.sort(block_means(losses, part))
    assert mom_objective(ds, m, part, LossKind.LOGISTIC) == means[(5 - 1) // 2]


def test_gradient_check_interior_configurations():
    rng = np.random.default_rng(10)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        ds = make_dataset(36, 2, int(rng.integers(1e9)))
        part = random_equipartition(36, 6, rng)
        m = LinearModel(u=rng.standard_normal(2) * 0.5,
                        b=float(rng.standard_normal() * 0.2))
        res = median_block_gradient_check(ds, m, part, LossKind.LOGISTIC, 1e-6)
        if res.status == "inconclusive":
            continue
        checked += 1
        assert res.max_rel_deviation <= 1e-5
    assert checked == 100


def test_gradient_check_1d_hand_fixture():
    X = np.array([[0.5], [1.5], [-0.7], [2.0], [-1.2], [0.1]])
    y = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    ds = Dataset(X=X, y=y)
    part = random_equipartition(6, 3, np.random.default_rng(3))
    m = LinearModel(u=np.array([0.3]), b=-0.1)
    res = median_block_gradient_check(ds, m, part, LossKind.LOGISTIC, 1e-6)
    assert res.status == "ok"
    assert res.max_rel_deviation <= 1e-6


def test_gradient_check_h_zero_rejected():
    ds = make_dataset(12, 2, 11)
    part = random_equipartition(12, 3, np.random.default_rng(0))
    with pytest.raises(ValueError):
        median_block_gradient_check(ds, LinearModel.zeros(2), part,
                                    LossKind.LOGISTIC, 0.0)


def test_gradient_check_boundary_inconclusive():
    # identical losses in every block: zero gap, median is ambiguous
    X = np.ones((9, 1))
    y = np.ones(9)
    ds = Dataset(X=X, y=y)
    part = random_equipartition(9, 3, np.random.default_rng(1))
    res = median_block_gradient_check(ds, LinearModel.zeros(1), part,
                                      LossKind.LOGISTIC, 1e-6)
    assert res.status == "inconclusive"
    assert res.max_rel_deviation is None


def test_gradient_norms_bounded_by_feature_norms():
    ds = generate_toy(200, 10, 12)
    bound = np.max(np.sqrt(np.sum(ds.X ** 2, axis=1) + 1.0))
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = LinearModel(u=rng.standard_normal(2) * 3,
                        b=float(rng.standard_normal()))
        g = loss_grad_score(LossKind.LOGISTIC, ds.X @ m.u + m.b, ds.y)
        norms = np.abs(g) * np.sqrt(np.sum(ds.X ** 2, axis=1) + 1.0)
        assert np.all(norms <= bound + 1e-12)


def test_expected_mom_objective_k1_equals_empirical_risk():
    ds = make_dataset(24, 2, 13)
    m = LinearModel(u=np.array([0.2, -0.1]), b=0.0)
    emp = float(np.mean(loss_value(LossKind.LOGISTIC, ds.X @ m.u + m.b, ds.y)))
    for n_mc in (1, 7):
        assert expected_mom_objective(ds, m, 1, LossKind.LOGISTIC,
                                      n_mc=n_mc, seed=3) == pytest.approx(emp)


def test_expected_mom_objective_variance_shrinks():
    ds = make_dataset(60, 2, 14)
    m = LinearModel(u=np.array([0.4, 0.3]), b=0.1)

    def estimates(n_mc, reps):
        return np.array([expected_mom_objective(ds, m, 6, LossKind.LOGISTIC,
                                                n_mc=n_mc, seed=100 + r)
                         for r in range(reps)])

    v_small = np.var(estimates(3, 30))
    v_large = np.var(estimates(48, 30))
    # 16x more Monte-Carlo draws should cut the variance by roughly 16;
    # allow slack for randomness
    assert v_large < v_small / 4


def test_descent_reduces_expected_mom_objective():
    successes = 0
    for seed in range(10):
        ds = generate_gaussians(300, 1000 + seed)
        u0 = LinearModel.zeros(2)
        cfg = MomGdConfig(k=10, t=300, schedule=StepSchedule("inverse-t", 0.5),
                          seed=seed)
        model, _ = mom_gd_train(ds, u0, cfg)
        before = expected_mom_objective(ds, u0, 10, LossKind.LOGISTIC,
                                        n_mc=60, seed=seed)
        after = expected_mom_objective(ds, model, 10, LossKind.LOGISTIC,
                                       n_mc=60, seed=seed)
        successes += after <= before
    assert successes >= 9


def test_fast_klr_frozen_updates():
    ds = make_dataset(20, 2, 15)
    cfg = FastKlrConfig(k=4, t=10, schedule=StepSchedule("constant", 0.0),
                        kernel=KernelSpec(kind="rbf", gamma=0.5), seed=5)
    model, _ = fast_klr_mom_train(ds, cfg)
    assert np.array_equal(model.alpha, np.zeros(20))


def test_fast_klr_single_block_is_damped_klr_with_monotone_loss():
    ds = make_dataset(12, 2, 16)
    spec = KernelSpec(kind="rbf", gamma=0.7)
    losses = []
    for t in range(1, 21):
        cfg = FastKlrConfig(k=1, t=t, schedule=StepSchedule("inverse-t", 1.0),
                            beta=1e-3, kernel=spec, seed=7)
        model, _ = fast_klr_mom_train(ds, cfg)
        G = gram(spec, ds.X, ds.X)
        scores = G @ model.alpha
        losses.append(float(np.mean(np.logaddexp(0.0, -ds.y * scores))))
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_fast_klr_dropped_indices_stay_zero():
    ds = make_dataset(23, 2, 17)  # 23 = 4*5 + 3 dropped
    cfg = FastKlrConfig(k=4, t=15, schedule=StepSchedule("inverse-t", 0.8),
                        kernel=KernelSpec(kind="rbf", gamma=0.5), seed=8)
    model, _ = fast_klr_mom_train(ds, cfg)
    used = set(model.partition.blocks.ravel().tolist())
    dropped = sorted(set(range(23)) - used)
    assert len(dropped) == 3
    assert np.array_equal(model.alpha[dropped], np.zeros(3))


def test_fast_klr_separable_accuracy():
    train = separable_blobs(200, 18)
    test = separable_blobs(400, 19)
    cfg = FastKlrConfig(k=5, t=40, schedule=StepSchedule("inverse-t", 1.0),
                        beta=1e-3, kernel=KernelSpec(kind="linear"), seed=9)
    model, _ = fast_klr_mom_train(train, cfg)
    from momclf.bench import accuracy
    assert accuracy(model, test) >= 0.95


def test_fast_klr_never_crosses_blocks():
    ds = make_dataset(40, 2, 20)
    cfg = FastKlrConfig(k=4, t=10, schedule=StepSchedule("inverse-t", 0.5),
                        kernel=KernelSpec(kind="rbf", gamma=0.5), seed=10,
                        record_selections=True)
    with record_gram_calls() as log:
        model, _ = fast_klr_mom_train(ds, cfg)
    blocks = [set(model.partition.block(j).tolist()) for j in range(4)]
    cross = 0
    for rows, cols in log:
        touched = set(rows.tolist()) | set(cols.tolist())
        if not any(touched <= blk for blk in blocks):
            cross += 1
    assert cross == 0


def test_full_klr_mom_trains_and_scores_with_one_block_over_all_points():
    ds = separable_blobs(60, 21)
    cfg = FastKlrConfig(k=3, t=10, schedule=StepSchedule("inverse-t", 0.8),
                        beta=1e-3, kernel=KernelSpec(kind="rbf", gamma=0.5),
                        seed=11)
    model, _ = klr_mom_train(ds, cfg)
    assert model.active_block == 0
    assert np.array_equal(model.partition.blocks, [np.arange(60)])
    from momclf.bench import accuracy
    assert accuracy(model, separable_blobs(100, 22)) >= 0.9


def test_fast_klr_determinism():
    ds = make_dataset(30, 2, 23)
    cfg = FastKlrConfig(k=3, t=12, schedule=StepSchedule("inverse-t", 0.6),
                        kernel=KernelSpec(kind="rbf", gamma=0.4), seed=12)
    a, _ = fast_klr_mom_train(ds, cfg)
    b, _ = fast_klr_mom_train(ds, cfg)
    assert np.array_equal(a.alpha, b.alpha)
    assert a.active_block == b.active_block


@pytest.mark.parametrize("spec, p", [
    (KernelSpec(kind="rbf", gamma=0.7), 2),
    (KernelSpec(kind="linear"), 3),  # block of 30 > p: rank-deficient Gram
], ids=["rbf", "linear-wide"])
def test_irls_target_solves_penalized_system(spec, p):
    rng = np.random.default_rng(24)
    X = rng.standard_normal((30, p))
    y = rng.choice([-1.0, 1.0], size=30)
    K = gram(spec, X, X)
    alpha = rng.standard_normal(30)
    beta = 1e-3
    target = _irls_update(K, alpha, y, beta, eta=1.0)
    s = K @ alpha
    pi = expit(s)
    w = np.maximum(pi * (1.0 - pi), IRLS_WEIGHT_FLOOR)
    z = s + ((y + 1.0) / 2.0 - pi) / w
    residual = (K + np.diag(beta / w)) @ target - z
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(z)


def test_fast_klr_linear_kernel_does_one_solve_per_step(monkeypatch):
    def no_lstsq(*args, **kwargs):
        raise AssertionError("lstsq fallback called")

    calls = []
    solve = scipy.linalg.solve

    def counting_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    monkeypatch.setattr(scipy.linalg, "solve", counting_solve)
    cfg = FastKlrConfig(k=4, t=25, schedule=StepSchedule("inverse-t", 1.0),
                        kernel=KernelSpec(kind="linear"), seed=25)
    model, _ = fast_klr_mom_train(separable_blobs(200, 26), cfg)
    assert len(calls) == cfg.t
    assert np.all(np.isfinite(model.alpha))


KLR_GATE_SEEDS = range(10)  # training seeds; test sets use 10_000 + seed


@pytest.mark.parametrize("seed", KLR_GATE_SEEDS)
def test_fast_klr_beats_linear_mom_on_moons(seed):
    train = generate_moons(1000, 0.2, seed)
    test = generate_moons(2000, 0.2, 10_000 + seed)
    schedule = StepSchedule("inverse-t", 0.5)
    klr, _ = fast_klr_mom_train(train, FastKlrConfig(
        k=5, t=50, schedule=schedule, beta=1e-3,
        kernel=KernelSpec(kind="rbf", gamma=1.0), seed=seed))
    linear, _ = mom_gd_train(train, LinearModel.zeros(2),
                             MomGdConfig(k=5, t=2000, schedule=schedule,
                                         seed=seed))
    assert accuracy(klr, test) > accuracy(linear, test)


@pytest.mark.parametrize("seed", KLR_GATE_SEEDS)
def test_full_klr_well_above_chance_on_blobs(seed):
    # the blobs' Bayes accuracy is Phi(sqrt(2) / 1.4) = 0.844
    train = generate_gaussians(600, seed)
    test = generate_gaussians(2000, 10_000 + seed)
    model, _ = klr_mom_train(train, FastKlrConfig(
        k=5, t=50, schedule=StepSchedule("inverse-t", 0.5), beta=1e-3,
        kernel=KernelSpec(kind="rbf", gamma=0.5), seed=seed))
    assert accuracy(model, test) >= 0.75


@pytest.mark.parametrize("train", [fast_klr_mom_train, klr_mom_train],
                         ids=["fast", "full"])
def test_klr_final_objective_is_the_stationary_objective(train):
    # with one block and eta = 1 every step is a full Newton step, so the
    # coefficients converge to the stationary point of the reported objective
    ds = make_dataset(40, 2, 27)
    spec = KernelSpec(kind="rbf", gamma=0.5)
    beta = 1e-2
    cfg = FastKlrConfig(k=1, t=30, schedule=StepSchedule("constant", 1.0),
                        beta=beta, kernel=spec, seed=13)
    model, trace = train(ds, cfg)
    G = gram(spec, ds.X, ds.X)
    a = model.alpha
    scores = G @ a
    m = ds.n
    objective = (np.mean(loss_value(LossKind.LOGISTIC, scores, ds.y))
                 + beta / (2 * m) * a @ G @ a)
    assert trace.final_objective == pytest.approx(objective, rel=1e-12)
    gradient = G @ loss_grad_score(LossKind.LOGISTIC, scores, ds.y) / m \
        + beta / m * scores
    assert np.linalg.norm(gradient) < 1e-10
