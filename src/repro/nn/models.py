"""K-layer GNN models + prediction head, and hierarchical model
segmentation (§3.4 step 1: a K-layer model splits into K+1 slices).

A model is K stacked GNN layers followed by a dense prediction head
applied only to target-node embeddings (the paper's ``look_up`` +
prediction model). Each slice is one layer's ``{"kind", "act",
"params"}`` (:meth:`~repro.nn.layers.Layer.to_slice`), so GraphInfer
can broadcast slice k to the k-th Reduce round; ``LAYERS`` maps a kind
to its layer class, which holds everything else about it.
"""
from __future__ import annotations

import numpy as np

from . import losses
from .aggregators import Aggregator
from .edges import Edges
from .layers import DenseLayer, GATLayer, GCNLayer, Layer, SAGELayer

#: task name -> (loss fn, metric fn)
TASKS = {
    "multiclass": (losses.softmax_xent, losses.accuracy),
    "multilabel": (losses.bce_with_logits, losses.micro_f1),
    "binary": (losses.bce_with_logits, losses.auc),
}

def task_labels(task: str, Y: np.ndarray) -> np.ndarray:
    """Map a ``[b, n_out]`` label matrix to what ``TASKS[task]`` expects:
    int class ids (column 0) for multiclass, the matrix itself otherwise."""
    return Y[:, 0].astype(np.int64) if task == "multiclass" else Y


#: slice kind -> layer class
LAYERS = {c.kind: c for c in (GCNLayer, SAGELayer, GATLayer, DenseLayer)}
#: whether each layer kind aggregates over self-loop-augmented edges
NEEDS_SELF_LOOPS = {kind: c.self_loops for kind, c in LAYERS.items()}


def _layer_class(kind: str) -> type[Layer]:
    if kind not in LAYERS:
        raise ValueError(f"unknown layer kind {kind!r}; expected one of {sorted(LAYERS)}")
    return LAYERS[kind]


class GNNModel:
    """K GNN layers + dense head; hand-rolled autograd over the stack."""

    def __init__(
        self,
        kind: str,
        d_in: int,
        hidden: int,
        n_out: int,
        n_layers: int,
        task: str,
        n_heads: int = 1,
        seed: int = 0,
    ):
        """``n_heads`` > 1 needs a kind with attention heads (GAT); each
        layer's output width is its bias size (``hidden`` per head)."""
        self.task, self.n_layers = task, n_layers
        cls = _layer_class(kind)
        heads = {} if n_heads == 1 else {"n_heads": n_heads}
        self.layers: list[Layer] = []
        d = d_in
        for i in range(n_layers):
            self.layers.append(cls(d, hidden, seed=seed + i, **heads))
            d = self.layers[-1].params["b"].size
        self.head = DenseLayer(d, n_out, seed=seed + 100)
        self.loss_fn, self.metric_fn = TASKS[task]

    # ---- parameter plumbing (flat namespaced dicts for the PS) ----
    def _named(self) -> list[tuple[str, Layer]]:
        return [(f"l{i}", l) for i, l in enumerate(self.layers)] + [("head", self.head)]

    def get_params(self) -> dict[str, np.ndarray]:
        return {f"{p}/{k}": v for p, l in self._named() for k, v in l.params.items()}

    def set_params(self, flat: dict[str, np.ndarray]) -> None:
        for p, l in self._named():
            for k in l.params:
                np.copyto(l.params[k], flat[f"{p}/{k}"])

    def get_grads(self) -> dict[str, np.ndarray]:
        return {f"{p}/{k}": v for p, l in self._named() for k, v in l.grads.items()}

    def zero_grad(self) -> None:
        for _, l in self._named():
            l.zero_grad()

    def set_aggregator(self, agg: Aggregator) -> None:
        for _, l in self._named():
            l.agg = agg

    # ---- forward / backward ----
    def forward_embeddings(self, X: np.ndarray, adj_list: list[Edges]) -> np.ndarray:
        """Run the K GNN layers; ``adj_list[k]`` is the (possibly pruned)
        adjacency for layer k (Eq. 3). Returns the rows of the last
        layer's destinations: every row of ``X``, or the pruned targets."""
        assert len(adj_list) == self.n_layers
        H = X
        for lyr, edges in zip(self.layers, adj_list):
            H = lyr.forward(H, edges)
        return H

    def forward(
        self, X: np.ndarray, adj_list: list[Edges], target_idx: np.ndarray
    ) -> np.ndarray:
        H = self.forward_embeddings(X, adj_list)
        rows = np.arange(X.shape[0])  # the rows of X that H holds, ascending
        for e in adj_list:
            rows = e.at_dst(rows)
        self._at, self._n_rows = np.searchsorted(rows, target_idx), H.shape[0]
        return self.head.forward(H[self._at])

    def backward(self, dlogits: np.ndarray) -> None:
        dtarget = self.head.backward(dlogits)
        dH = np.zeros((self._n_rows, dtarget.shape[1]))
        np.add.at(dH, self._at, dtarget)  # a target twice in the batch: both terms
        for lyr in reversed(self.layers):
            dH = lyr.backward(dH)

    def loss_and_grad(
        self, X: np.ndarray, adj_list: list[Edges], target_idx: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """One forward+backward; returns (loss, logits). Grads accumulate
        into ``.grads`` (call :meth:`zero_grad` first)."""
        logits = self.forward(X, adj_list, target_idx)
        loss, dlogits = self.loss_fn(logits, labels)
        self.backward(dlogits)
        return loss, logits

    # ---- hierarchical model segmentation (§3.4) ----
    def to_slices(self) -> list[dict]:
        """K+1 slices: one per GNN layer + the prediction model."""
        return [lyr.to_slice() for lyr in self.layers + [self.head]]


def layer_from_slice(spec: dict) -> Layer:
    """Rebuild a layer from a slice dict (used by GraphInfer workers)."""
    return _layer_class(spec["kind"]).from_slice(spec)
