"""Losses/metrics: closed-form cases + finite-difference gradient checks."""
from __future__ import annotations

import numpy as np
import pytest

from repro.nn import losses
from repro.nn.models import TASKS
from tests.nn_utils import numerical_grad


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    p = losses.softmax(rng.standard_normal((10, 5)) * 50)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=1e-12)


def test_softmax_xent_uniform():
    logits = np.zeros((4, 3))
    loss, _ = losses.softmax_xent(logits, np.array([0, 1, 2, 0]))
    np.testing.assert_allclose(loss, np.log(3.0), rtol=1e-12)


def test_softmax_xent_grad_matches_numeric():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, 6)
    _, d = losses.softmax_xent(logits, labels)
    num = numerical_grad(lambda: losses.softmax_xent(logits, labels)[0], logits)
    np.testing.assert_allclose(d, num, rtol=1e-5, atol=1e-7)


def test_bce_with_logits_grad_matches_numeric():
    """Multilabel ``[n, c]`` logits and the binary task's ``[n, 1]``."""
    rng = np.random.default_rng(2)
    for shape in ((5, 7), (8, 1)):
        logits = rng.standard_normal(shape)
        targets = (rng.random(shape) > 0.5).astype(float)
        loss, d = losses.bce_with_logits(logits, targets)
        assert loss > 0
        num = numerical_grad(lambda: losses.bce_with_logits(logits, targets)[0], logits)
        np.testing.assert_allclose(d, num, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("b", [1, 7, 64, 1000])
def test_binary_task_loss_is_the_logistic_loss(b):
    """The binary task's loss equals the logistic loss over the flattened
    logit column, bit for bit in loss and gradient."""
    rng = np.random.default_rng(b)
    logits = rng.standard_normal((b, 1)) * 4
    targets = rng.integers(0, 2, (b, 1)).astype(float)
    loss, d = TASKS["binary"][0](logits, targets)
    lg, t = logits.reshape(-1), targets.reshape(-1)
    want = float((np.maximum(lg, 0) - lg * t + np.log1p(np.exp(-np.abs(lg)))).mean())
    want_d = ((losses.sigmoid(lg) - t) / lg.size).reshape(logits.shape)
    assert loss == want
    assert d.shape == logits.shape and d.tobytes() == want_d.tobytes()


def test_bce_extreme_logits_finite():
    logits = np.array([[1000.0, -1000.0]])
    targets = np.array([[1.0, 0.0]])
    loss, d = losses.bce_with_logits(logits, targets)
    assert np.isfinite(loss) and np.isfinite(d).all()
    assert loss < 1e-6  # perfectly confident & correct


def test_accuracy():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 1.0]])
    assert losses.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


def test_micro_f1_perfect_and_empty():
    t = np.array([[1, 0], [0, 1]], dtype=float)
    assert losses.micro_f1(np.where(t > 0, 5.0, -5.0), t) == 1.0
    assert losses.micro_f1(np.full((2, 2), -5.0), np.zeros((2, 2))) == 1.0


def test_micro_f1_half():
    # tp=1, fp=1, fn=1 -> F1 = 2/(2+1+1) = 0.5
    logits = np.array([[5.0, 5.0, -5.0]])
    t = np.array([[1.0, 0.0, 1.0]])
    assert losses.micro_f1(logits, t) == pytest.approx(0.5)


def test_auc_perfect_and_inverted():
    y = np.array([0, 0, 1, 1])
    assert losses.auc(np.array([0.1, 0.2, 0.8, 0.9]), y) == 1.0
    assert losses.auc(np.array([0.9, 0.8, 0.2, 0.1]), y) == 0.0


def test_auc_random_is_half():
    rng = np.random.default_rng(4)
    y = rng.integers(0, 2, 4000)
    s = rng.random(4000)
    assert abs(losses.auc(s, y) - 0.5) < 0.03


def test_auc_ties_average():
    # all scores equal -> AUC must be exactly 0.5 with average ranks
    assert losses.auc(np.ones(10), np.array([0, 1] * 5)) == pytest.approx(0.5)


def test_auc_degenerate_single_class():
    assert losses.auc(np.array([0.3, 0.4]), np.array([1, 1])) == 0.5


def test_auc_matches_pairwise_count():
    rng = np.random.default_rng(5)
    s = rng.random(60)
    y = rng.integers(0, 2, 60)
    pos, neg = s[y == 1], s[y == 0]
    pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    np.testing.assert_allclose(losses.auc(s, y), pairs / (len(pos) * len(neg)), rtol=1e-12)
