"""Reference GraphFlat: the paper's literal merge/propagate Map/Reduce
rounds (§3.2.1, Figure 2), kept as the oracle the frontier pipeline in
:mod:`repro.core.graphflat` is tested against.

Every node starts with *self information*; each Reduce round merges the
information arriving from in-edge neighbors (shuffle key = destination
node id) into new self information and propagates it along out-edges.
After K rounds each node's self information *is* its K-hop
neighborhood. Payloads are carried as array-of-struct columns — a
faithful but payload-heavy formulation, fit for test scale only.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def graphflat_message_passing(nodes: DataFrame, edges: DataFrame, k: int) -> DataFrame:
    """Literal merge/propagate pipeline (Figure 2) over *all* nodes.

    Returns (root, id, dist) membership identical to
    :func:`repro.core.graphflat.khop_members` run with every node as a
    target. Used as the
    semantic reference in tests; payload columns are arrays of structs,
    merged with explode → min-dist groupBy → re-collect, which is the
    DataFrame spelling of the paper's reducer merge.
    """
    # Map phase: self information = {(id, dist 0)}.
    state = nodes.select(
        F.col("id"), F.array(F.struct(F.col("id").alias("mid"), F.lit(0).alias("dist"))).alias("members")
    )
    for _ in range(k):
        # Propagate: each node sends its members along its out-edges;
        # received member distances grow by one hop.
        sent = (
            state.join(edges, state.id == edges.src)
            .select(F.col("dst").alias("id"), F.explode("members").alias("m"))
            .select("id", F.col("m.mid").alias("mid"), (F.col("m.dist") + 1).alias("dist"))
        )
        own = state.select("id", F.explode("members").alias("m")).select(
            "id", F.col("m.mid").alias("mid"), F.col("m.dist").alias("dist")
        )
        # Merge (reduce by shuffle key = id): min distance per member.
        merged = (
            own.unionByName(sent)
            .groupBy("id", "mid")
            .agg(F.min("dist").alias("dist"))
        )
        state = merged.select(
            "id", F.struct(F.col("mid"), F.col("dist")).alias("m")
        ).groupBy("id").agg(F.collect_list("m").alias("members"))
    return (
        state.select(F.col("id").alias("root"), F.explode("members").alias("m"))
        .select("root", F.col("m.mid").alias("id"), F.col("m.dist").alias("dist"))
    )
