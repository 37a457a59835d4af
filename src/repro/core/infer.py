"""GraphInfer — distributed slice-wise GNN inference (§3.4, Figure 5).

A trained K-layer model is split into K+1 slices (hierarchical model
segmentation). Inference runs over the *whole* graph, and each GNN
round is one MapReduce job with the paper's merge–apply–propagate
reducer, expressed as DataFrame dataflow:

- Map (once): one row table with columns ``(key, peer, w, kind, h)``.
  *Self* rows carry a node's layer-0 embedding (``key`` = node);
  *message* rows carry a sender's embedding to an in-edge destination
  (``key`` = dst, ``peer`` = src; one ``edges ⋈ nodes`` join);
  *out-edge* rows give each node its routing (``key`` = src,
  ``peer`` = dst, null ``h``).
- Reduce round k < K: one :func:`~repro.core.graphflat.reduce_by_key`
  sorted by ``(key, kind, peer)``, the only shuffle of the round (the
  keyed reduce lives in ``graphflat.py``; GraphFlat's assembly runs
  it too). The reducer merges each node's messages, applies slice k with
  the training layer's forward, and propagates: it emits the node's
  next self row plus one message per out-edge row. Each embedding is
  computed exactly once — the property that makes GraphInfer beat
  per-GraphFeature inference.
- Round K+1: the prediction slice, fused into the last GNN reducer
  (map-only); with no GNN slice it maps node features to scores.

:func:`run_original_inference` is the paper's "Original" baseline
(Table 5): full K-layer forward over every stored GraphFeature, which
recomputes embeddings wherever neighborhoods overlap. It uses the same
Arrow encoding as GraphInfer, so Table 5 compares the algorithms.
:func:`inference_cost_report` quantifies exactly that repetition.

Sampling consistency: pass the *same* ``max_degree``/``strategy``/
``seed`` used by GraphFlat and the identical deterministic sampled edge
set is used here (§3.4 last paragraph); both pipelines read it through
:func:`~repro.core.graphflat.sampled_edges`, so they share one cached
sample.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..nn.edges import Edges
from ..nn.models import layer_from_slice, slice_needs_self_loops
from .graphfeature import SubgraphRecord
from .graphflat import _matrix, khop_members, reduce_by_key, sampled_edges, subgraph_edges
from .vectorize import merge_batch

_ROW_SCHEMA = "key long, peer long, w double, kind tinyint, h array<double>"
_SCORE_SCHEMA = "id long, score array<double>"
#: row kinds of a round table; a key group sorts as self, messages, out-edges
SELF, MSG, OUT = 0, 1, 2


def _list_column(M: np.ndarray) -> pa.ListArray:
    """An ``[n, d]`` matrix as an Arrow ``list<double>`` column."""
    n, d = M.shape
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, pa.array(np.ascontiguousarray(M).ravel()))


def _score_batch(ids: np.ndarray, scores: np.ndarray) -> pa.RecordBatch:
    return pa.RecordBatch.from_arrays(
        [pa.array(ids, pa.int64()), _list_column(scores)], names=["id", "score"]
    )


def _locate(ids: np.ndarray, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of ``keys`` in the sorted, non-empty ``ids``, and which
    keys exist."""
    pos = np.minimum(np.searchsorted(ids, keys), ids.size - 1)
    return pos, ids[pos] == keys


def _round_fn(spec: dict, head_spec: dict | None):
    """The merge–apply–propagate reducer of one GNN round.

    Per block of complete key groups: self rows are the destinations
    (local ids ``[0, b)``), message rows the senders (``[b, b+m)``);
    rows whose key has no self row (edges to or from a node missing
    from the node table) are dropped. The training layer's forward
    computes the new embeddings, so served scores keep the training
    math. With ``head_spec`` the prediction slice is applied and
    ``(id, score)`` emitted; otherwise the next round's self rows and
    one message per out-edge row.
    """

    def fn(groups: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        layer = layer_from_slice(spec)
        head = None if head_spec is None else layer_from_slice(head_spec)
        loops = slice_needs_self_loops(spec)
        for rb in groups:
            key = rb.column("key").to_numpy()
            kind = rb.column("kind").to_numpy()
            w = rb.column("w").to_numpy(zero_copy_only=False)
            is_self, is_msg, is_out = kind == SELF, kind == MSG, kind == OUT
            ids = key[is_self]
            b = ids.size
            if b == 0:
                continue
            H = _matrix(rb.column("h"))  # the self and message rows, in row order
            has_h = ~is_out
            dst, ok = _locate(ids, key[is_msg])
            X = np.concatenate([H[is_self[has_h]], H[is_msg[has_h]][ok]])
            src = np.arange(b, X.shape[0])
            dst, w_in = dst[ok], w[is_msg][ok]
            if loops:
                own = np.arange(b)
                src, dst = np.concatenate([src, own]), np.concatenate([dst, own])
                w_in = np.concatenate([w_in, np.ones(b)])
            Hn = layer.forward(X, Edges.from_arrays(src, dst, w_in, X.shape[0]))[:b]
            if head is not None:
                yield _score_batch(ids, head.forward(Hn))
                continue
            at, ok = _locate(ids, key[is_out])
            at, to = at[ok], rb.column("peer").fill_null(0).to_numpy()[is_out][ok]
            first = np.arange(b + to.size) < b  # self rows: null peer and w
            yield pa.RecordBatch.from_arrays(
                [
                    pa.array(np.concatenate([ids, to])),
                    pa.array(np.concatenate([ids, ids[at]]), mask=first),
                    pa.array(np.concatenate([np.ones(b), w[is_out][ok]]), mask=first),
                    pa.array(np.repeat(np.int8([SELF, MSG]), [b, to.size])),
                    _list_column(np.concatenate([Hn, Hn[at]])),
                ],
                names=["key", "peer", "w", "kind", "h"],
            )

    return fn


def _head_fn(spec: dict):
    """Map-only scoring of node features (a model with no GNN slice)."""

    def fn(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        head = layer_from_slice(spec)
        for rb in batches:
            if rb.num_rows:
                H = _matrix(rb.column("feat"))
                yield _score_batch(rb.column("id").to_numpy(), head.forward(H))

    return fn


def _rows(
    df: DataFrame, key: str, peer: str | None, w: str | None, kind: int, h: str | None
) -> DataFrame:
    """``df`` as round-table rows; a ``None`` column is null."""
    col = lambda name: F.col(name) if name else F.lit(None)
    return df.select(
        F.col(key).alias("key"),
        col(peer).cast("long").alias("peer"),
        col(w).cast("double").alias("w"),
        F.lit(kind).cast("tinyint").alias("kind"),
        col(h).cast("array<double>").alias("h"),
    )


def run_graph_infer(
    nodes: DataFrame,
    edges: DataFrame,
    slices: list[dict],
    *,
    max_degree: int | None = None,
    strategy: str = "uniform",
    seed: int = 0,
) -> DataFrame:
    """K+1-round MapReduce inference over the whole graph.

    Returns (id, score: array<double>) for **every** node. ``slices``
    comes from :meth:`GNNModel.to_slices`.
    """
    edges = sampled_edges(edges, max_degree, strategy=strategy, seed=seed)
    gnn_slices, pred_slice = slices[:-1], slices[-1]
    if not gnn_slices:
        return nodes.select("id", "feat").mapInArrow(_head_fn(pred_slice), _SCORE_SCHEMA)
    senders = nodes.select(F.col("id").alias("src"), "feat")
    rows = _rows(nodes, "id", None, None, SELF, "feat").unionByName(
        _rows(edges.join(senders, "src"), "dst", "src", "w", MSG, "feat")
    )
    out_edges = _rows(edges, "src", "dst", "w", OUT, None)
    for k, spec in enumerate(gnn_slices):
        last = k == len(gnn_slices) - 1
        if not last:
            rows = rows.unionByName(out_edges)
        # peer fixes the order a node's messages are summed in, so the
        # scores do not depend on how rows arrive from the shuffle
        rows = reduce_by_key(
            rows,
            ["kind", "peer"],
            _round_fn(spec, pred_slice if last else None),
            _SCORE_SCHEMA if last else _ROW_SCHEMA,
        )
    return rows


def run_original_inference(
    gf_strings: DataFrame, slices: list[dict], *, n_layers: int
) -> DataFrame:
    """The pre-GraphInfer baseline: independent full K-layer forward
    over each target's GraphFeature (overlapping neighborhoods are
    recomputed every time they appear).

    One forward per record is the strict per-GraphFeature semantics of
    the paper's "Original" module — every subgraph is inferred in
    isolation, so the repetition the paper criticises is fully paid
    (and matches :func:`inference_cost_report`'s Σ|V_v^k| proxy).
    ``n_layers`` must be the number of GNN slices, ``len(slices) - 1``.
    """
    if n_layers != len(slices) - 1:
        raise ValueError(f"n_layers={n_layers}, but slices hold {len(slices) - 1} GNN layers")
    needs_self = [slice_needs_self_loops(s) for s in slices[:-1]]

    def fn(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        layers = [layer_from_slice(s) for s in slices[:-1]]
        head = layer_from_slice(slices[-1])
        for rb in batches:
            ids, scores = [], []
            for s in rb.column("gf").to_pylist():
                bg = merge_batch([SubgraphRecord.from_bytes(s)])
                H = bg.X
                base_raw = bg.edges_raw()
                base_self = base_raw.with_self_loops()
                for lyr, self_l in zip(layers, needs_self):
                    H = lyr.forward(H, base_self if self_l else base_raw)
                ids.append(bg.node_ids[bg.target_idx])
                scores.append(head.forward(H[bg.target_idx]))
            if ids:
                yield _score_batch(np.concatenate(ids), np.concatenate(scores))

    return gf_strings.mapInArrow(fn, _SCORE_SCHEMA)


def inference_cost_report(
    edges: DataFrame, targets: DataFrame, k: int, n_nodes: int, n_edges: int
) -> dict:
    """Deterministic compute-cost proxies for Table 5.

    "Original" touches Σ_targets |V_v^k| node states and Σ_targets
    |E_v^k| edges (every overlap recomputed); GraphInfer touches
    K·|V| node states and K·|E| edges — each exactly once.
    """
    members = khop_members(edges, targets, k).cache()
    orig_nodes = members.count()
    orig_edges = subgraph_edges(edges, members, k).count()
    members.unpersist()
    return {
        "original_node_computations": orig_nodes,
        "original_edge_traversals": orig_edges,
        "graphinfer_node_computations": k * n_nodes,
        "graphinfer_edge_traversals": k * n_edges,
    }
