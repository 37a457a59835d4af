"""GNN layers with hand-written backprop: GCN, GraphSAGE (mean), GAT.

Each layer follows Eq. 1 of the paper: the new embedding of node ``v``
is a parametric function of ``{v} ∪ N_v^+`` (self + in-edge neighbors)
and in-edge features/weights. All aggregation goes through a pluggable
:class:`~repro.nn.aggregators.Aggregator` so the edge-partitioning
strategy (§3.3.2) applies uniformly to forward and backward scatters.

API: ``forward(X, edges) -> H`` caches activations; ``backward(dH) ->
dX`` accumulates parameter gradients in ``.grads``; ``X`` holds the
``edges.n_src`` source rows, ``H`` the ``edges.n_nodes`` destination
rows. Parameters and gradients are flat ``{name: ndarray}`` dicts so
the parameter server can ship them as-is.
"""
from __future__ import annotations

import numpy as np

from .aggregators import Aggregator
from .edges import Edges


def _act(kind: str, z: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "elu":
        return np.where(z > 0, z, np.expm1(np.minimum(z, 0.0)))
    if kind == "id":
        return z
    raise ValueError(kind)


def _dact(kind: str, z: np.ndarray, out: np.ndarray) -> np.ndarray:
    if kind == "relu":
        return (z > 0).astype(z.dtype)
    if kind == "elu":
        return np.where(z > 0, 1.0, out + 1.0)
    if kind == "id":
        return np.ones_like(z)
    raise ValueError(kind)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, (fan_in, fan_out))


class Layer:
    """Base: holds params/grads and the aggregation engine.

    A subclass names its slice ``kind`` and says whether its ``forward``
    expects self-loop-augmented edges; its parameter shapes carry every
    size, so a slice is ``{"kind", "act", "params"}`` and nothing more.
    """

    kind = ""
    self_loops = False

    def __init__(self, act: str) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        self.act = act
        self.agg = Aggregator(kind="add_at")
        self._cache: dict = {}

    def to_slice(self) -> dict:
        """This layer as a slice of the segmented model (§3.4)."""
        return {"kind": self.kind, "act": self.act,
                "params": {k: v.copy() for k, v in self.params.items()}}

    @classmethod
    def from_slice(cls, spec: dict) -> "Layer":
        """Rebuild a layer from :meth:`to_slice`'s dict (GraphInfer workers)."""
        lyr = cls.__new__(cls)  # no constructor: it would draw weights the slice replaces
        Layer.__init__(lyr, spec["act"])
        lyr.params = {k: np.array(v, dtype=float) for k, v in spec["params"].items()}
        return lyr

    def zero_grad(self) -> None:
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, dH: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class GCNLayer(Layer):
    """H' = act( Â H W + b ) with Â = mean over {v} ∪ N_v^+.

    Expects ``edges`` *with* self-loops; each edge weight is divided by
    the sum of ``|w|`` over its destination's in-edges (a weighted mean
    for non-negative weights), matching Kipf-style propagation on a
    directed graph (in-degree normalisation). With signed weights each
    row of Â still has an absolute sum of at most 1.
    """

    kind, self_loops = "gcn", True

    def __init__(self, d_in: int, d_out: int, act: str = "relu", seed: int = 0):
        super().__init__(act)
        rng = np.random.default_rng(seed)
        self.params = {"W": _glorot(rng, d_in, d_out), "b": np.zeros(d_out)}

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:
        deg = edges.in_degrees(weighted=True)
        wn = edges.w / np.maximum(deg[edges.dst], 1e-12)
        M = X @ self.params["W"]
        aggv = edges.aggregate(self.agg, M, wn)
        Z = aggv + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "edges": edges, "wn": wn, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        edges: Edges = c["edges"]
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        # dM[src] += wn * dZ[dst]
        dM = edges.aggregate_rev(self.agg, dZ, c["wn"])
        self.grads["W"] += c["X"].T @ dM
        return dM @ self.params["W"].T


class SAGELayer(Layer):
    """GraphSAGE-mean with the "add" combine the paper's systems use:
    H' = act( H W_self + mean_{u∈N_v^+}(H_u) W_nbr + b ).

    Expects ``edges`` *without* self-loops (self handled by W_self).
    """

    kind = "sage"

    def __init__(self, d_in: int, d_out: int, act: str = "relu", seed: int = 0):
        super().__init__(act)
        rng = np.random.default_rng(seed)
        self.params = {
            "Wself": _glorot(rng, d_in, d_out),
            "Wnbr": _glorot(rng, d_in, d_out),
            "b": np.zeros(d_out),
        }

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:
        deg = np.maximum(edges.in_degrees(), 1.0)
        mean_nbr = edges.aggregate(self.agg, X) / deg[:, None]
        Xd = edges.at_dst(X)
        Z = Xd @ self.params["Wself"] + mean_nbr @ self.params["Wnbr"] + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"Xd": Xd, "edges": edges, "deg": deg, "mean": mean_nbr, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        edges: Edges = c["edges"]
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        self.grads["Wself"] += c["Xd"].T @ dZ
        self.grads["Wnbr"] += c["mean"].T @ dZ
        dmean = dZ @ self.params["Wnbr"].T / c["deg"][:, None]
        dX = edges.aggregate_rev(self.agg, dmean)
        dX += edges.from_dst(dZ @ self.params["Wself"].T)
        return dX


class GATLayer(Layer):
    """Graph attention (Veličković et al.), ``n_heads`` concatenated heads.

    Per head: z = X W;  e_{ts} = LeakyReLU(a_src·z_s + a_dst·z_t) over
    in-edges s→t (self-loops included); α = per-destination softmax;
    out_t = Σ_s α z_s. Output dim is ``n_heads * d_out``.
    """

    kind, self_loops = "gat", True
    LEAK = 0.2

    def __init__(self, d_in: int, d_out: int, n_heads: int = 1, act: str = "elu", seed: int = 0):
        super().__init__(act)
        rng = np.random.default_rng(seed)
        for h in range(n_heads):
            self.params[f"W{h}"] = _glorot(rng, d_in, d_out)
            self.params[f"as{h}"] = _glorot(rng, d_out, 1)[:, 0]
            self.params[f"ad{h}"] = _glorot(rng, d_out, 1)[:, 0]
        self.params["b"] = np.zeros(n_heads * d_out)

    @property
    def d_out(self) -> int:
        return self.params["W0"].shape[1]

    @property
    def n_heads(self) -> int:
        return self.params["b"].size // self.d_out

    def forward(self, X: np.ndarray, edges: Edges) -> np.ndarray:
        outs, caches = [], []
        for h in range(self.n_heads):
            z = X @ self.params[f"W{h}"]
            ss = z @ self.params[f"as{h}"]  # per-node source score
            sd = edges.at_dst(z @ self.params[f"ad{h}"])  # per-node dest score
            pre = ss[edges.src] + sd[edges.dst]
            lre = np.where(pre > 0, pre, self.LEAK * pre)
            alpha = self.agg.segment_softmax(lre, edges.dst, edges.n_nodes)
            out = edges.aggregate(self.agg, z, alpha)
            outs.append(out)
            caches.append({"z": z, "pre": pre, "alpha": alpha})
        Z = np.concatenate(outs, axis=1) + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "edges": edges, "heads": caches, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        edges: Edges = c["edges"]
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        dX = np.zeros_like(c["X"])
        n, n_src = edges.n_nodes, edges.n_src
        for h in range(self.n_heads):
            hc = c["heads"][h]
            dout = dZ[:, h * self.d_out : (h + 1) * self.d_out]
            z, alpha, pre = hc["z"], hc["alpha"], hc["pre"]
            a_s, a_d = self.params[f"as{h}"], self.params[f"ad{h}"]
            # weighted-sum backward: dz[s] += α_e dout[t];  g_e = dout[t]·z_s
            g = np.einsum("ed,ed->e", dout[edges.dst], z[edges.src])
            dz = edges.aggregate_rev(self.agg, dout, alpha)
            # softmax backward within each destination segment
            seg_dot = self.agg.segment_sum(alpha * g, edges.dst, n)
            dlre = alpha * (g - seg_dot[edges.dst])
            dpre = dlre * np.where(pre > 0, 1.0, self.LEAK)
            # score backward: pre_e = z_s·a_s + z_t·a_d, so both terms
            # reduce per node first: Σ_e dpre_e z_s = (Σ_{e: src=s} dpre_e) z_s
            ps = self.agg.segment_sum(dpre, edges.src, n_src)
            pd = edges.from_dst(self.agg.segment_sum(dpre, edges.dst, n))
            self.grads[f"as{h}"] += ps @ z
            self.grads[f"ad{h}"] += pd @ z
            dz += np.outer(ps, a_s) + np.outer(pd, a_d)
            self.grads[f"W{h}"] += c["X"].T @ dz
            dX += dz @ self.params[f"W{h}"].T
        return dX


class DenseLayer(Layer):
    """Plain affine layer — the paper's "prediction model" slice K+1."""

    kind = "dense"

    def __init__(self, d_in: int, d_out: int, act: str = "id", seed: int = 0):
        super().__init__(act)
        rng = np.random.default_rng(seed)
        self.params = {"W": _glorot(rng, d_in, d_out), "b": np.zeros(d_out)}

    def forward(self, X: np.ndarray, edges: Edges | None = None) -> np.ndarray:
        Z = X @ self.params["W"] + self.params["b"]
        H = _act(self.act, Z)
        self._cache = {"X": X, "Z": Z, "H": H}
        return H

    def backward(self, dH: np.ndarray) -> np.ndarray:
        c = self._cache
        dZ = dH * _dact(self.act, c["Z"], c["H"])
        self.grads["b"] += dZ.sum(axis=0)
        self.grads["W"] += c["X"].T @ dZ
        return dZ @ self.params["W"].T
