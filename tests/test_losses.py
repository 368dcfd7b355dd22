import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momclf.losses import LossKind, loss_grad_score, loss_value


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


def test_zero_one_sign_convention():
    # sign(0) = +1: a zero score counts as predicting +1
    assert loss_value(LossKind.ZERO_ONE, 0.0, 1.0) == 0.0
    assert loss_value(LossKind.ZERO_ONE, 0.0, -1.0) == 1.0
    assert loss_value(LossKind.ZERO_ONE, -0.3, -1.0) == 0.0


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
    for kind in (LossKind.ZERO_ONE, LossKind.HINGE, LossKind.LOGISTIC):
        with pytest.raises(ValueError):
            loss_value(kind, float("nan"), 1.0)
    with pytest.raises(ValueError):
        loss_grad_score(LossKind.LOGISTIC, float("inf"), 1.0)


def test_zero_one_has_no_gradient():
    with pytest.raises(ValueError):
        loss_grad_score(LossKind.ZERO_ONE, 0.5, 1.0)


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
