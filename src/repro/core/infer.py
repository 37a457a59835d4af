"""GraphInfer — distributed slice-wise GNN inference (§3.4, Figure 5).

A trained K-layer model is split into K+1 slices (hierarchical model
segmentation). Inference runs over the *whole* graph, and each GNN
round is one MapReduce job with the paper's merge–apply–propagate
reducer, expressed as DataFrame dataflow:

- Map (once): one row table with columns ``(key, peer, w, kind, h)``,
  ``h`` being ``peer``'s embedding. *Self* rows are a node's message to
  itself (``key`` = ``peer`` = node); *message* rows carry a sender's
  embedding to an in-edge destination (``key`` = dst, ``peer`` = src;
  one ``edges ⋈ nodes`` join); *out-edge* rows give each node its
  routing (``key`` = src, ``peer`` = dst, null ``h``).
- Reduce round k < K: one keyed reduce
  (:func:`~repro.core.graphflat.sort_by_key` by ``(key, kind, peer)``,
  the only shuffle of the round, then
  :func:`~repro.core.graphflat.reduce_by_key`; both live in
  ``graphflat.py``, and GraphFlat's assembly runs them too). The
  reducer merges each node's messages, applies slice k with the
  training layer's forward, and propagates: it emits the node's next
  self row plus one message per out-edge row. Each embedding is
  computed exactly once — the property that makes GraphInfer beat
  per-GraphFeature inference.
- Round K+1: the prediction slice, fused into the last GNN reducer
  (map-only); with no GNN slice it maps node features to scores.

:func:`run_original_inference` is the paper's "Original" baseline
(Table 5): full K-layer forward over every stored GraphFeature, which
recomputes embeddings wherever neighborhoods overlap;
:func:`inference_cost_report` quantifies exactly that repetition. It
uses the same Arrow encoding as GraphInfer, and its forward runs
through the same :func:`~repro.core.graphflat.worker_entry` as every
GraphInfer reducer, which spares both paths Python's per-task rescan
of Spark's zip archives; Table 5 therefore compares the algorithms.

Consistency of data processing (§3.4): on GraphFlat's frames and
options, GraphInfer reads the same cached edge table,
:func:`~repro.core.graphflat.sampled_edges`, made legal (finite weights,
no ghost endpoints, one copy of each duplicate edge) before sampling.

The Map and round 0's shuffle-and-sort do not depend on the model:
they are built once per frames and options, memoized by
:func:`~repro.core.graphflat.cached_on`, and each call builds only its
reducers and the later rounds' shuffles. Only a caller that repeats a
call on the same frame objects gains from it, as serving the same graph
with one model after another does; Original's GraphFlat gets the same
memo.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..nn.models import layer_from_slice
from .graphfeature import SubgraphRecord
from .graphflat import (
    _matrix,
    cached_on,
    khop_members,
    reduce_by_key,
    sampled_edges,
    sort_by_key,
    subgraph_edges,
    worker_entry,
)
from .vectorize import merge_batch, whole_graph_batch

_ROW_SCHEMA = "key long, peer long, w double, kind tinyint, h array<double>"
_SCORE_SCHEMA = "id long, score array<double>"
#: row kinds of a round table; a key group sorts as self, messages, out-edges
SELF, MSG, OUT = 0, 1, 2
#: peer fixes the order a node's messages are summed in, so the scores
#: do not depend on how rows arrive from the shuffle
_ORDER = ["kind", "peer"]


def _list_column(M: np.ndarray) -> pa.ListArray:
    """An ``[n, d]`` matrix as an Arrow ``list<double>`` column."""
    n, d = M.shape
    offsets = pa.array(np.arange(0, (n + 1) * d, d, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, pa.array(np.ascontiguousarray(M).ravel()))


def _score_batch(ids: np.ndarray, scores: np.ndarray) -> pa.RecordBatch:
    return pa.RecordBatch.from_arrays(
        [pa.array(ids, pa.int64()), _list_column(scores)], names=["id", "score"]
    )


def _round_fn(spec: dict, head_spec: dict | None):
    """The merge–apply–propagate reducer of one GNN round.

    Each block of complete key groups is one local graph,
    :func:`~repro.core.vectorize.whole_graph_batch` over the ``peer`` of
    its self and message rows (each one's ``h`` from its first row), one
    edge per message row, the self rows the targets; every key has a self
    row (:func:`~repro.core.graphflat.sampled_edges` keeps only edges
    between nodes, once each). The training layer's forward over the
    edges into the self rows (``adj_list(1, pruning=True)``) computes the
    new embeddings with the training math. With ``head_spec`` the
    prediction slice is applied and ``(id, score)`` emitted; otherwise the
    next round's self rows and one message per out-edge row.
    """

    def fn(groups: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        layer = layer_from_slice(spec)
        head = None if head_spec is None else layer_from_slice(head_spec)
        for rb in groups:
            key = rb.column("key").to_numpy()
            peer = rb.column("peer").to_numpy()
            kind = rb.column("kind").to_numpy()
            w = rb.column("w").to_numpy(zero_copy_only=False)
            is_msg, is_out = kind == MSG, kind == OUT
            ids = key[kind == SELF]
            b = ids.size
            uniq, carrier = np.unique(peer[~is_out], return_index=True)
            bg = whole_graph_batch(
                uniq, _matrix(rb.column("h"))[carrier], peer[is_msg], key[is_msg], w[is_msg],
                ids, np.empty((b, 0)),
            )
            adj = bg.adj_list(1, self_loops=layer.self_loops, pruning=True)[0]
            Hn = layer.forward(bg.X, adj)[bg.target_idx]
            if head is not None:
                yield _score_batch(ids, head.forward(Hn))
                continue
            at = np.searchsorted(ids, key[is_out])
            to = peer[is_out]
            yield pa.RecordBatch.from_arrays(
                [
                    pa.array(np.concatenate([ids, to])),
                    pa.array(np.concatenate([ids, ids[at]])),
                    pa.array(np.concatenate([np.ones(b), w[is_out]])),
                    pa.array(np.repeat(np.int8([SELF, MSG]), [b, to.size])),
                    _list_column(np.concatenate([Hn, Hn[at]])),
                ],
                names=["key", "peer", "w", "kind", "h"],
            )

    return fn


def _head_fn(spec: dict):
    """Map-only scoring of node features (a model with no GNN slice)."""

    @worker_entry
    def fn(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        head = layer_from_slice(spec)
        for rb in batches:
            if rb.num_rows:
                H = _matrix(rb.column("feat"))
                yield _score_batch(rb.column("id").to_numpy(), head.forward(H))

    return fn


def _rows(
    df: DataFrame, key: str, peer: str, w: str | None, kind: int, h: str | None
) -> DataFrame:
    """``df`` as round-table rows; a ``None`` column is null."""
    col = lambda name: F.col(name) if name else F.lit(None)
    return df.select(
        F.col(key).alias("key"),
        F.col(peer).cast("long").alias("peer"),
        col(w).cast("double").alias("w"),
        F.lit(kind).cast("tinyint").alias("kind"),
        col(h).cast("array<double>").alias("h"),
    )


def _round_tables(nodes: DataFrame, edges: DataFrame, more_rounds: bool):
    """The model-independent round tables over the sampled ``edges``:
    round 0's rows (self and message rows, and the out-edge rows if
    ``more_rounds`` follow), shuffled and sorted, and the out-edge rows
    each later round but the last adds to its input."""
    senders = nodes.select(F.col("id").alias("src"), "feat")
    rows = _rows(nodes, "id", "id", None, SELF, "feat").unionByName(
        _rows(edges.join(senders, "src"), "dst", "src", "w", MSG, "feat")
    )
    out_edges = _rows(edges, "src", "dst", "w", OUT, None)
    return sort_by_key(rows.unionByName(out_edges) if more_rounds else rows, _ORDER), out_edges


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
    comes from :meth:`GNNModel.to_slices`. The round tables and round
    0's shuffle-and-sort are built once per frames and options, memoized
    by :func:`~repro.core.graphflat.cached_on` on ``edges``; each call
    adds its own reducers, the part that depends on the model.
    """
    sampled = sampled_edges(nodes, edges, max_degree, strategy=strategy, seed=seed)
    gnn_slices, pred_slice = slices[:-1], slices[-1]
    if not gnn_slices:
        return nodes.select("id", "feat").mapInArrow(_head_fn(pred_slice), _SCORE_SCHEMA)
    more_rounds = len(gnn_slices) > 1
    key = ("graphinfer", nodes, max_degree, strategy, seed, more_rounds)
    rows, out_edges = cached_on(edges, key, lambda: _round_tables(nodes, sampled, more_rounds))
    for k, spec in enumerate(gnn_slices):
        last = k == len(gnn_slices) - 1
        if k:
            rows = sort_by_key(rows if last else rows.unionByName(out_edges), _ORDER)
        rows = reduce_by_key(
            rows,
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

    @worker_entry
    def fn(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
        layers = [layer_from_slice(s) for s in slices[:-1]]
        head = layer_from_slice(slices[-1])
        self_loops = bool(layers) and layers[0].self_loops
        for rb in batches:
            ids, scores = [], []
            for s in rb.column("gf").to_pylist():
                bg = merge_batch([SubgraphRecord.from_bytes(s)])
                H = bg.X
                adj = bg.adj_list(n_layers, self_loops=self_loops, pruning=False)
                for lyr, e in zip(layers, adj):
                    H = lyr.forward(H, e)
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
