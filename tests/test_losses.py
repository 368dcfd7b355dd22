import math
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from momclf.losses import LossKind, expit, loss_grad_score, loss_value


def loss_oracle(kind, s, y):
    """Reference evaluation via plain math, safe only for moderate scores."""
    if kind is LossKind.HINGE:
        return max(0.0, 1.0 - y * s)
    if kind is LossKind.LOGISTIC:
        return math.log(1.0 + math.exp(-y * s))
    raise AssertionError


def test_logistic_at_zero_score():
    assert loss_value(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(
        math.log(2.0), rel=1e-12)


def test_hinge_satisfied_margin():
    assert loss_value(LossKind.HINGE, 2.0, 1.0) == 0.0


def test_logistic_extreme_scores_no_overflow():
    # log(1 + e^1000) = 1000 + log(1 + e^-1000); the correction is < 1e-300,
    # far below double resolution, so the exact value rounds to 1000.
    v = loss_value(LossKind.LOGISTIC, -1000.0, 1.0)
    assert v == pytest.approx(1000.0, abs=1e-9)
    assert loss_value(LossKind.LOGISTIC, 1000.0, 1.0) == pytest.approx(0.0, abs=1e-300)


def test_logistic_matches_naive_oracle_midrange():
    rng = np.random.default_rng(0)
    for _ in range(200):
        s = float(rng.uniform(-30, 30))
        y = float(rng.choice([-1.0, 1.0]))
        assert loss_value(LossKind.LOGISTIC, s, y) == pytest.approx(
            loss_oracle(LossKind.LOGISTIC, s, y), rel=1e-12)


def test_non_finite_score_rejected():
    for kind in LossKind:
        with pytest.raises(ValueError):
            loss_value(kind, float("nan"), 1.0)
    with pytest.raises(ValueError):
        loss_grad_score(LossKind.LOGISTIC, float("inf"), 1.0)


def test_logistic_gradient_at_zero():
    assert loss_grad_score(LossKind.LOGISTIC, 0.0, 1.0) == pytest.approx(-0.5)


def test_hinge_gradient_cases():
    assert loss_grad_score(LossKind.HINGE, 2.0, 1.0) == 0.0
    assert loss_grad_score(LossKind.HINGE, 0.0, 1.0) == -1.0
    assert loss_grad_score(LossKind.HINGE, 1.0, 1.0) == 0.0  # kink choice
    assert loss_grad_score(LossKind.HINGE, 0.5, -1.0) == 1.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(1)
    h = 1e-5
    for _ in range(100):
        s = float(rng.uniform(-8, 8))
        y = float(rng.choice([-1.0, 1.0]))
        grad = loss_grad_score(LossKind.LOGISTIC, s, y)
        fd = (loss_value(LossKind.LOGISTIC, s + h, y)
              - loss_value(LossKind.LOGISTIC, s - h, y)) / (2 * h)
        assert grad == pytest.approx(fd, abs=1e-6)
        if abs(y * s - 1.0) > 10 * h:  # stay off the hinge kink
            grad = loss_grad_score(LossKind.HINGE, s, y)
            fd = (loss_value(LossKind.HINGE, s + h, y)
                  - loss_value(LossKind.HINGE, s - h, y)) / (2 * h)
            assert grad == pytest.approx(fd, abs=1e-6)


@given(st.floats(-50, 50), st.sampled_from([-1.0, 1.0]),
       st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]))
@settings(max_examples=200, deadline=None)
def test_gradient_bounded_by_one(s, y, kind):
    assert abs(loss_grad_score(kind, s, y)) <= 1.0


@given(st.floats(-30, 30), st.floats(-30, 30), st.floats(0, 1),
       st.sampled_from([-1.0, 1.0]),
       st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]))
@settings(max_examples=200, deadline=None)
def test_convexity_in_score(s1, s2, lam, y, kind):
    mid = lam * s1 + (1 - lam) * s2
    lhs = loss_value(kind, mid, y)
    rhs = lam * loss_value(kind, s1, y) + (1 - lam) * loss_value(kind, s2, y)
    assert lhs <= rhs + 1e-12


@given(st.floats(-30, 30), st.floats(-30, 30), st.sampled_from([-1.0, 1.0]),
       st.sampled_from([LossKind.HINGE, LossKind.LOGISTIC]))
@settings(max_examples=200, deadline=None)
def test_one_lipschitz_in_score(s1, s2, y, kind):
    lhs = abs(loss_value(kind, s1, y) - loss_value(kind, s2, y))
    assert lhs <= abs(s1 - s2) + 1e-12


def test_vectorized_evaluation():
    s = np.array([-2.0, 0.0, 3.0])
    y = np.array([1.0, -1.0, 1.0])
    v = loss_value(LossKind.HINGE, s, y)
    assert v.shape == (3,)
    assert np.array_equal(v, [3.0, 1.0, 0.0])
    g = loss_grad_score(LossKind.LOGISTIC, s, y)
    assert g.shape == (3,)


def _ulps_apart(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 700.0])
def test_logistic_within_4_ulp_of_logaddexp(scale):
    m = scale * np.random.default_rng(0).standard_normal(20_000)
    assert (m > 0).any() and (m < 0).any()
    got = loss_value(LossKind.LOGISTIC, m, np.ones_like(m))
    assert _ulps_apart(got, np.logaddexp(0.0, -m)).max() <= 4


@pytest.mark.parametrize("m", [0.0, -0.0], ids=["+0", "-0"])
def test_logistic_at_a_signed_zero_margin_is_log_2(m):
    assert loss_value(LossKind.LOGISTIC, m, 1.0) == math.log(2.0)


@pytest.mark.parametrize("m", [1e308, -1e308, 710.0, -710.0, 5e-324, -5e-324])
def test_logistic_extreme_margins_match_logaddexp_without_warnings(m):
    # Underflow is left alone: exp(-1e308) underflows to 0 on purpose.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = loss_value(LossKind.LOGISTIC, np.array([m]), np.ones(1))
        assert got[0] == np.logaddexp(0.0, -m)


EXPIT_POINTS = [0.0, -0.0, 30.0, -30.0, 709.5, -709.5, 745.0, -745.0, 1000.0,
                -1000.0, math.inf, -math.inf]


def test_expit_within_1_ulp_of_scipy_at_the_extreme_points_without_warnings():
    x = np.array(EXPIT_POINTS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
        assert expit(-1000.0) == 0.0
    want = scipy.special.expit(x)
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1


def test_expit_within_4_eps_of_scipy_on_a_dense_grid():
    # Both compute 1 / (1 + exp(-x)); only the exp differs (numpy's SIMD exp
    # against libm's).  Carried through the sum and the reciprocal, a 1-ulp
    # exp can move the result by up to 2 eps relative, which is up to 4 of
    # the result's ulps where its mantissa is small.
    x = np.linspace(-745.0, 745.0, 1_000_001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(x)
    want = scipy.special.expit(x)
    normal = want >= np.finfo(float).tiny
    rel = np.abs(got - want)[normal] / want[normal]
    assert rel.max() <= 4 * np.finfo(float).eps
    assert np.array_equal(got[~normal] == 0.0, want[~normal] == 0.0)
