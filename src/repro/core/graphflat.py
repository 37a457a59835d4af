"""GraphFlat — distributed K-hop neighborhood generation (§3.2).

:func:`khop_members` + :func:`build_graph_features` are the
root-anchored frontier formulation of the pipeline, pure DataFrame
dataflow: K iterated ``join``/``groupBy`` rounds over (root, member)
pairs, then one assembly pass that attaches features, collects each
root's subgraph and encodes it as one GraphFeature record
(:func:`~repro.core.graphfeature.encode_graph_features`). Tests assert the
neighborhoods equal those of the paper's literal merge/propagate
Map/Reduce rounds (kept in ``tests/graphflat_reference.py``) and of a
DuckDB recursive-CTE BFS.

Direction convention (§2.1): an edge row (src, dst, w) is src → dst,
so ``dst``'s in-edge neighbors include ``src``; d(v, u) is the length
of the shortest directed path *from u to v*. The K-hop membership of
root v is {u : d(v, u) ≤ K}, reached by walking in-edges backwards from
v. The edge set kept for v is every in-edge of a member at distance
≤ K−1 — the sufficient-and-necessary set for a K-layer GNN (Theorem 1).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .graphfeature import encode_graph_features
from .sampling import sample_in_edges


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
    node table. Edges with an endpoint missing from the node table are
    dropped. Sampling (if ``max_degree``) is applied to the edge table
    once, up front, so training and inference see the same sampled
    graph (§3.4 "maintain the consistence of data processing").
    """
    if max_degree is not None:
        edges = sample_in_edges(
            edges,
            max_degree,
            strategy=strategy,
            seed=seed,
            reindex_threshold=reindex_threshold,
        )
    members = khop_members(edges, targets, k)
    member_nodes = (
        members.join(nodes.select("id", "feat"), "id")
        .select("root", F.struct("id", "dist", "feat").alias("n"))
        .groupBy("root")
        .agg(F.array_sort(F.collect_list("n")).alias("nodes"))
    )
    sub_edges = (
        subgraph_edges(edges, members, k)
        .select("root", F.struct("src", "dst", "w").alias("e"))
        .groupBy("root")
        .agg(F.array_sort(F.collect_list("e")).alias("edges"))
    )
    out = (
        member_nodes.join(sub_edges, "root", "left")
        .withColumn("edges", F.coalesce("edges", F.array()))
        .join(nodes.select(F.col("id").alias("root"), "label"), "root")
    )
    return encode_graph_features(out.select("root", "label", "nodes", "edges"))
