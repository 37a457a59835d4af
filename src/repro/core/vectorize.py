"""Subgraph vectorization (§3.3.1) + graph pruning (§3.3.2).

A batch of GraphFeatures ``B = {<root, label, subgraph>}`` is merged
into one local graph and vectorized into the three matrices the paper
names: the adjacency ``A_B`` (COO, edges **sorted by destination**),
the node-feature matrix ``X_B``, and (edge weights standing in for)
``E_B`` — plus target indices, labels, and each node's distance to the
nearest target, which drives pruning. :func:`merge_batch` and
:func:`whole_graph_batch` are front ends of one builder, one edge rule.

Pruning: for a K-layer model, layer k (0-indexed) only needs edges into
nodes that are still ≤ K−1−k hops from some target (the receptive field
shrinks by one hop per layer, Eq. 3), and only those nodes' outputs.
``adj_list`` materialises the per-layer pruned adjacencies ``A_B^(k)``
as bipartite blocks, so layer k computes only the rows layer k+1 reads
and the last layer only the targets. A test asserts target logits agree
with and without pruning to 1e-10 (the paper's correctness argument for
the strategy): the same sums over the same edges, but BLAS over fewer
rows may round the last bit differently.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.edges import Edges
from .graphfeature import SubgraphRecord


@dataclass
class BatchGraph:
    """One vectorized batch: local ids 0..n−1, dst-sorted COO edges."""

    node_ids: np.ndarray  # [n] global ids
    X: np.ndarray  # [n, f]
    dists: np.ndarray  # [n] min hop distance to any target in the batch
    e_src: np.ndarray  # [m] local
    e_dst: np.ndarray  # [m] local, non-decreasing
    e_w: np.ndarray  # [m]
    target_idx: np.ndarray  # [b] local indices of the targets
    labels: np.ndarray  # [b, n_out]

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.e_src.shape[0])

    def edges_raw(self) -> Edges:
        return Edges(self.e_src, self.e_dst, self.e_w, self.n_nodes)

    def adj_list(self, n_layers: int, *, self_loops: bool, pruning: bool) -> list[Edges]:
        """Per-layer adjacencies A_B^(k), optionally pruned (Eq. 3).

        Self-loops (for GCN/GAT's {v} ∪ N_v^+ aggregation) are appended
        *before* pruning so a target's own loop always survives to the
        last layer (a self-loop into v is an in-edge of v). A pruned layer
        k is a block from the rows layer k−1 returns (layer 0: all rows),
        which hold every kept edge's source, into the rows with ``dists``
        ≤ K−1−k, both in ascending local id.
        """
        base = self.edges_raw()
        if self_loops:
            base = base.with_self_loops()
        if not pruning:
            return [base] * n_layers
        out, src_in = [], np.ones(self.n_nodes, dtype=bool)
        for k in range(n_layers):
            dst_in = self.dists <= n_layers - 1 - k
            keep = dst_in[base.dst]
            src_at, dst_at = np.cumsum(src_in) - 1, np.cumsum(dst_in) - 1
            out.append(Edges(
                src_at[base.src[keep]], dst_at[base.dst[keep]], base.w[keep],
                int(dst_in.sum()), src_at[dst_in], int(src_in.sum()),
            ))
            src_in = dst_in
        return out


def _local_graph(
    node_ids: np.ndarray,
    X: np.ndarray,
    dists: np.ndarray,
    e_src: np.ndarray,
    e_dst: np.ndarray,
    e_w: np.ndarray,
    target_ids: np.ndarray,
    labels: np.ndarray,
) -> BatchGraph:
    """The one local-graph builder: maps the sorted global ``node_ids``
    to local ids, keeps the first copy of each ``(dst, src)`` edge and
    sorts the edges by ``(dst, src)``, satisfying both the paper's A_B
    invariant and the edge-partitioning kernel."""
    ls, ld = np.searchsorted(node_ids, e_src), np.searchsorted(node_ids, e_dst)
    _, first = np.unique(ld * node_ids.shape[0] + ls, return_index=True)
    return BatchGraph(
        node_ids=node_ids,
        X=X,
        dists=dists,
        e_src=ls[first],
        e_dst=ld[first],
        e_w=e_w[first],
        target_idx=np.searchsorted(node_ids, target_ids),
        labels=labels,
    )


def merge_batch(records: list[SubgraphRecord]) -> BatchGraph:
    """Merge the subgraphs of a batch (§3.3.1) into one BatchGraph.

    Overlapping nodes dedup to one row (min distance over the batch —
    d(V_B, u) of the pruning section), duplicate edges to their first copy.
    """
    if not records:
        raise ValueError("empty batch")
    gid = np.concatenate([r.node_ids for r in records])
    uniq, first = np.unique(gid, return_index=True)
    dists = np.full(uniq.shape[0], np.iinfo(np.int64).max)
    np.minimum.at(dists, np.searchsorted(uniq, gid), np.concatenate([r.dists for r in records]))
    return _local_graph(
        uniq,
        np.concatenate([r.feats for r in records], axis=0)[first],
        dists,
        np.concatenate([r.e_src for r in records]),
        np.concatenate([r.e_dst for r in records]),
        np.concatenate([r.e_w for r in records]),
        np.array([r.root for r in records], dtype=np.int64),
        np.stack([r.label for r in records]),
    )


def whole_graph_batch(
    node_ids: np.ndarray,
    X: np.ndarray,
    e_src: np.ndarray,
    e_dst: np.ndarray,
    e_w: np.ndarray,
    target_ids: np.ndarray,
    labels: np.ndarray,
) -> BatchGraph:
    """A whole graph, or one GraphInfer block, over the sorted ``node_ids``:
    what the DGL/PyG stand-ins train on and the Theorem-1 reference. A
    node's distance is 0 at a target and 1 elsewhere: a lower bound on its
    hop distance, so pruning drops no needed edge (exact in a GraphInfer
    block, where every other node sends to a target)."""
    dists = np.isin(node_ids, target_ids, invert=True).astype(np.int64)
    return _local_graph(node_ids, X, dists, e_src, e_dst, e_w, target_ids, labels)
