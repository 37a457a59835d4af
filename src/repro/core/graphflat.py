"""GraphFlat — distributed K-hop neighborhood generation (§3.2).

:func:`khop_members` + :func:`build_graph_features` are the
root-anchored frontier formulation of the pipeline: K iterated
``join``/``groupBy`` rounds over (root, member) pairs, then one keyed
sorted reduce (:func:`reduce_by_key`, the reduce every GraphInfer round
runs too) that assembles each root's member and edge rows into one
GraphFeature record. Tests assert the neighborhoods equal those of the
paper's literal merge/propagate Map/Reduce rounds (kept in
``tests/graphflat_reference.py``) and of a DuckDB recursive-CTE BFS.

Direction convention (§2.1): an edge row (src, dst, w) is src → dst,
so ``dst``'s in-edge neighbors include ``src``; d(v, u) is the length
of the shortest directed path *from u to v*. The K-hop membership of
root v is {u : d(v, u) ≤ K}, reached by walking in-edges backwards from
v. The edge set kept for v is every in-edge of a member at distance
≤ K−1 — the sufficient-and-necessary set for a K-layer GNN (Theorem 1).
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graphfeature import SubgraphRecord
from .sampling import sample_in_edges

#: row kinds of the assembly table; a root's group sorts as nodes, then edges
NODE, EDGE = 0, 1


def _key_groups(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    """Re-cut a key-sorted Arrow stream so no key group spans two
    batches: each batch's trailing group is carried into the next."""
    carry = None
    for rb in batches:
        if rb.num_rows == 0:
            continue
        if carry is not None:
            rb = pa.Table.from_batches([carry, rb]).combine_chunks().to_batches()[0]
        keys = rb.column("key").to_numpy()
        cut = int(np.searchsorted(keys, keys[-1], side="left"))
        if cut:
            yield rb.slice(0, cut)
        carry = rb.slice(cut)
    if carry is not None:
        yield carry


def _matrix(col: pa.ListArray) -> np.ndarray:
    """The non-null rows of a ``list<double>`` column as one ``[n, d]`` matrix."""
    n = len(col) - col.null_count
    flat = col.flatten().to_numpy()
    return flat.reshape(n, flat.size // n if n else 0)


def reduce_by_key(rows: DataFrame, order: list[str], fn, schema: str) -> DataFrame:
    """One MapReduce reduce: shuffle ``rows`` by ``key``, sort each
    partition by ``(key, *order)`` and run ``fn`` (Arrow batches →
    Arrow batches of ``schema``) over batches that hold whole key groups."""
    rows = rows.repartition("key").sortWithinPartitions("key", *order)
    return rows.mapInArrow(lambda batches: fn(_key_groups(batches)), schema)


def sampled_edges(edges: DataFrame, max_degree: int | None, **sampling) -> DataFrame:
    """The cached ``(src, dst, w)`` table a pipeline runs on, sampled
    once if ``max_degree`` is set. Equal arguments give equal plans, so
    GraphFlat and GraphInfer share one cached sample (§3.4)."""
    if max_degree is not None:
        edges = sample_in_edges(edges, max_degree, **sampling)
    return edges.select("src", "dst", "w").cache()


def khop_members(edges: DataFrame, targets: DataFrame, k: int) -> DataFrame:
    """(root, id, dist) rows: all nodes within k in-hops of each root.

    ``targets`` needs an ``id`` column. ``dist`` is the exact shortest
    in-path length (ties resolved by min across rounds).
    """
    members = targets.select(
        F.col("id").alias("root"), F.col("id"), F.lit(0).alias("dist")
    )
    frontier = members
    for hop in range(1, k + 1):
        grown = (
            frontier.join(edges, frontier.id == edges.dst)
            .select("root", F.col("src").alias("id"), F.lit(hop).alias("dist"))
        )
        members = (
            members.unionByName(grown)
            .groupBy("root", "id")
            .agg(F.min("dist").alias("dist"))
        )
        # next frontier: only genuinely-new nodes at this distance
        frontier = members.filter(F.col("dist") == hop)
    return members


def subgraph_edges(edges: DataFrame, members: DataFrame, k: int) -> DataFrame:
    """(root, src, dst, w): in-edges of members at distance ≤ k−1.

    Both endpoints are guaranteed members (src sits at distance ≤ k)."""
    inner = members.filter(F.col("dist") <= k - 1).select("root", "id")
    return inner.join(edges, inner.id == edges.dst).select("root", "src", "dst", "w")


def _assemble(groups: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    """Each root's sorted node and edge rows → one ``(root, gf)`` record.

    A root with no node row of its own emits nothing. An edge is kept
    only when both endpoints have a node row: an endpoint with no node
    row has no features, and a consumer would otherwise map it onto
    some other node."""
    for rb in groups:
        key = rb.column("key").to_numpy()
        u, v = rb.column("u").to_numpy(), rb.column("v").to_numpy()
        w = rb.column("w").to_numpy(zero_copy_only=False)
        label = rb.column("label")
        X = _matrix(rb.column("feat"))  # one row per node row, in row order
        at = np.concatenate([[0], np.cumsum(rb.column("kind").to_numpy() == NODE)])
        starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
        roots, gf = [], []
        for s, e in zip(starts, [*starts[1:], key.size]):
            n = at[e] - at[s]  # the group's node rows are [s, s + n)
            ids = u[s : s + n]
            i = int(np.searchsorted(ids, key[s]))
            if i == n or ids[i] != key[s]:
                continue
            lab = label[s + i].values
            src, dst = u[s + n : e], v[s + n : e]
            keep = np.isin(src, ids) & np.isin(dst, ids)
            rec = SubgraphRecord(
                root=key[s],
                label=np.empty(0) if lab is None else lab.to_numpy(),
                node_ids=ids,
                dists=v[s : s + n],
                feats=X[at[s] : at[s] + n],
                e_src=src[keep],
                e_dst=dst[keep],
                e_w=w[s + n : e][keep],
            )
            roots.append(key[s])
            gf.append(rec.to_bytes())
        if roots:
            yield pa.RecordBatch.from_arrays(
                [pa.array(roots, pa.int64()), pa.array(gf, pa.binary())], names=["root", "gf"]
            )


def build_graph_features(
    nodes: DataFrame,
    edges: DataFrame,
    targets: DataFrame,
    k: int,
    *,
    max_degree: int | None = None,
    strategy: str = "uniform",
    seed: int = 0,
    reindex_threshold: int | None = None,
) -> DataFrame:
    """The full GraphFlat pipeline → one GraphFeature record per target.

    Output schema: ``root long, gf binary``, where ``gf`` is the
    :meth:`~repro.core.graphfeature.SubgraphRecord.to_bytes` record:
    members sorted by id, edges by (src, dst, w), ``label`` from the
    node table (a null label is empty). Edges with an endpoint missing
    from the node table are dropped. Sampling (if ``max_degree``) is
    applied to the edge table once, up front, so training and inference
    see the same sampled graph.

    The assembly is one :func:`reduce_by_key` over rows keyed by root,
    columns ``(key, kind, u, v, w, feat, label)``: a node row is
    ``(NODE, id, dist)`` with its features and, on the root's own row
    only, the label; an edge row is ``(EDGE, src, dst, w)``.
    """
    edges = sampled_edges(
        edges, max_degree, strategy=strategy, seed=seed, reindex_threshold=reindex_threshold
    )
    members = khop_members(edges, targets, k)
    node_rows = members.join(nodes.select("id", "feat", "label"), "id").select(
        F.col("root").alias("key"),
        F.lit(NODE).cast("tinyint").alias("kind"),
        F.col("id").alias("u"),
        F.col("dist").cast("long").alias("v"),
        "feat",
        F.when(F.col("id") == F.col("root"), F.col("label")).alias("label"),
    )
    edge_rows = subgraph_edges(edges, members, k).select(
        F.col("root").alias("key"),
        F.lit(EDGE).cast("tinyint").alias("kind"),
        F.col("src").alias("u"),
        F.col("dst").alias("v"),
        "w",
    )
    rows = node_rows.unionByName(edge_rows, allowMissingColumns=True)
    return reduce_by_key(rows, ["kind", "u", "v", "w"], _assemble, "root long, gf binary")
