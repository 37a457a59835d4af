"""Adam: step-by-step reference check + convergence on a quadratic."""
from __future__ import annotations

import numpy as np

from repro.nn.optim import Adam


def _reference_adam_step(p, g, m, v, t, lr=0.01, b1=0.9, b2=0.999, eps=1e-8):
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    mh = m / (1 - b1**t)
    vh = v / (1 - b2**t)
    return p - lr * mh / (np.sqrt(vh) + eps), m, v


def test_adam_matches_reference_over_steps():
    rng = np.random.default_rng(0)
    p = rng.standard_normal(7)
    ref_p, m, v = p.copy(), np.zeros(7), np.zeros(7)
    opt = Adam(lr=0.01)
    params = {"p": p}
    for t in range(1, 6):
        g = rng.standard_normal(7)
        opt.step(params, {"p": g})
        ref_p, m, v = _reference_adam_step(ref_p, g, m, v, t)
        np.testing.assert_allclose(params["p"], ref_p, rtol=1e-12, atol=1e-12)


def test_adam_updates_in_place():
    p = np.ones(3)
    params = {"p": p}
    Adam(lr=0.1).step(params, {"p": np.ones(3)})
    assert params["p"] is p  # views held by layers stay valid
    assert not np.allclose(p, 1.0)


def test_adam_converges_quadratic():
    target = np.array([3.0, -2.0, 0.5])
    p = np.zeros(3)
    opt = Adam(lr=0.1)
    for _ in range(500):
        opt.step({"p": p}, {"p": 2 * (p - target)})
    np.testing.assert_allclose(p, target, atol=1e-3)
