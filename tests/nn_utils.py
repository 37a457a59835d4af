"""Shared helpers for nn-substrate tests: random graphs + gradcheck."""
from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock

import numpy as np

from repro.nn import aggregators
from repro.nn.edges import Edges


def random_edges(n_nodes: int, m: int, seed: int = 0, self_loops: bool = False) -> Edges:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, m)
    dst = rng.integers(0, n_nodes, m)
    w = rng.random(m) + 0.1
    e = Edges.from_arrays(src, dst, w, n_nodes)
    return e.with_self_loops() if self_loops else e


@contextmanager
def partitions(t: int):
    """Run the ``partitioned`` kernel with ``t`` partitions by patching
    the module constant it reads. The shared kernel pool, made at
    import, keeps the machine's core count as its thread count."""
    with mock.patch.object(aggregators, "N_CORES", t):
        yield


def run_callers(fn, concurrent: bool, n_callers: int = 4) -> list:
    """``[fn(0), ..., fn(n_callers - 1)]``, one call after another, or,
    with ``concurrent``, from ``n_callers`` threads released together.
    Every ``partitioned`` call maps its spans onto the kernel module's
    one shared pool, so overlapping callers must each get their own
    result. Raises what any call raises."""
    if not concurrent:
        return [fn(i) for i in range(n_callers)]
    start = threading.Barrier(n_callers, timeout=30)

    def call(i):
        start.wait()
        return fn(i)

    with ThreadPoolExecutor(max_workers=n_callers) as callers:
        futures = [callers.submit(call, i) for i in range(n_callers)]
        return [f.result(timeout=60) for f in futures]


def numerical_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. array x."""
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
        it.iternext()
    return g


def layer_gradcheck(layer, X: np.ndarray, edges: Edges, seed: int = 0, tol: float = 1e-5):
    """Check analytic dX and all parameter grads of ``layer`` against
    central differences on loss = sum(forward * R)."""
    rng = np.random.default_rng(seed)
    H = layer.forward(X, edges)
    R = rng.standard_normal(H.shape)

    def loss() -> float:
        return float((layer.forward(X, edges) * R).sum())

    layer.zero_grad()
    layer.forward(X, edges)
    dX = layer.backward(R)
    num_dX = numerical_grad(lambda: loss(), X)
    np.testing.assert_allclose(dX, num_dX, rtol=tol, atol=tol)
    for name, p in layer.params.items():
        num = numerical_grad(lambda: loss(), p)
        np.testing.assert_allclose(
            layer.grads[name], num, rtol=tol, atol=tol, err_msg=f"param {name}"
        )


def gat_backward_edgewise(layer, dH: np.ndarray) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Reference GAT backward that forms every term per edge: gathers
    ``z[src]``, ``z`` at each destination's own source row and
    ``dout[dst]``, and scatters each score gradient with ``np.add.at``.
    Reads the activations ``layer``'s last forward cached; returns
    ``(param grads, dX)``."""
    from repro.nn.layers import _dact

    c = layer._cache
    e = c["edges"]
    t = e.at_dst(np.arange(e.n_src))[e.dst]  # each edge's destination, as a source row
    dZ = dH * _dact(layer.act, c["Z"], c["H"])
    grads = {k: np.zeros_like(v) for k, v in layer.params.items()}
    grads["b"] += dZ.sum(axis=0)
    dX = np.zeros_like(c["X"])
    for h in range(layer.n_heads):
        hc = c["heads"][h]
        dout = dZ[:, h * layer.d_out : (h + 1) * layer.d_out]
        z, alpha, pre = hc["z"], hc["alpha"], hc["pre"]
        a_s, a_d = layer.params[f"as{h}"], layer.params[f"ad{h}"]
        z_s, z_t, dout_t = z[e.src], z[t], dout[e.dst]
        g = np.einsum("ed,ed->e", dout_t, z_s)
        dz = np.zeros_like(z)
        np.add.at(dz, e.src, alpha[:, None] * dout_t)
        seg_dot = np.zeros(e.n_nodes)
        np.add.at(seg_dot, e.dst, alpha * g)
        dpre = alpha * (g - seg_dot[e.dst]) * np.where(pre > 0, 1.0, layer.LEAK)
        grads[f"as{h}"] += dpre @ z_s
        grads[f"ad{h}"] += dpre @ z_t
        np.add.at(dz, e.src, dpre[:, None] * a_s[None, :])
        np.add.at(dz, t, dpre[:, None] * a_d[None, :])
        grads[f"W{h}"] += c["X"].T @ dz
        dX += dz @ layer.params[f"W{h}"].T
    return grads, dX
