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

    def __init__(self, lr: float = 0.01, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for k, p in params.items():
            g = grads[k]
            m = self.m.setdefault(k, np.zeros_like(p))
            v = self.v.setdefault(k, np.zeros_like(p))
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
