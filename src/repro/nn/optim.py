"""Adam optimiser (Kingma & Ba), the optimiser used throughout the paper.

Operates on flat ``{name: ndarray}`` parameter dicts so the same update
code serves the local trainer and the parameter-server driver
(:mod:`repro.core.ps`), where it plays the "server" role.
"""
from __future__ import annotations

import numpy as np


class Adam:
    """Classic Adam with bias correction.

    Parameters are updated in place so that numpy views held by layers
    stay valid across steps.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float = 0.01):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.BETA1**self.t
        b2t = 1.0 - self.BETA2**self.t
        for k, p in params.items():
            g = grads[k]
            m = self.m.setdefault(k, np.zeros_like(p))
            v = self.v.setdefault(k, np.zeros_like(p))
            m *= self.BETA1
            m += (1 - self.BETA1) * g
            v *= self.BETA2
            v += (1 - self.BETA2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.EPS)
