"""Sampling framework + re-indexing for hub nodes (§3.2.2).

GraphFlat samples each node's in-edges down to ``max_degree`` so hub
neighborhoods stay bounded. Re-indexing (salted shuffle key → partial
reduce per salted key → inverted index back to the key) balances
reducers; it is :func:`sample_in_edges`' ``reindex_threshold``, which
no pipeline sets.

Spark mapping: the shuffle key is the edge's ``dst``; sampling = top-k
of a deterministic per-edge rank within each ``dst`` group; re-indexing
= a salted two-phase top-k (top-k per ``(dst, salt)``, then top-k of
the union per ``dst``) — exact, because every globally-selected edge is
also selected inside its salt subgroup.

Determinism: ranks derive from ``xxhash64(src, dst, seed)``, so the
same (edges, seed, strategy) always selects the same subgraph — the
property GraphInfer relies on to stay consistent with training
("unbiased inference with the model trained on GraphFlat").

Strategies (paper: "a set of sampling strategies, e.g. uniform
sampling, weighted sampling"):
- ``uniform``  — every in-edge equally likely: rank by the hash-uniform.
- ``weighted`` — inclusion probability ∝ edge weight, via the
  Efraimidis–Spirakis exponential-race key ``log(u)/w`` (top-k of this
  key is a weighted sample without replacement). The key is defined for
  finite w > 0 only, so any other weight is rejected before sampling.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

_BIG = 1_000_000_007
#: salt values per hub destination when re-indexing
N_SALT = 8


def _edge_uniform(seed: int):
    """Deterministic per-edge uniform in (0,1) from (src,dst,seed)."""
    h = F.xxhash64(F.col("src"), F.col("dst"), F.lit(seed))
    return (F.pmod(h, F.lit(_BIG)).cast("double") + 0.5) / F.lit(float(_BIG))


def _rank_key(strategy: str, seed: int):
    u = _edge_uniform(seed)
    if strategy == "uniform":
        return u
    if strategy == "weighted":
        # Efraimidis–Spirakis: top-k of u^(1/w) ⇔ top-k of log(u)/w.
        return F.log(u) / F.col("w")
    raise ValueError(f"unknown sampling strategy {strategy!r}")


def sample_in_edges(
    edges: DataFrame,
    max_degree: int,
    *,
    strategy: str = "uniform",
    seed: int = 0,
    reindex_threshold: int | None = None,
) -> DataFrame:
    """Keep at most ``max_degree`` in-edges per destination node.

    With ``reindex_threshold`` set, destinations whose in-degree exceeds
    it go through the salted two-phase reduction (the paper's
    re-indexing + inverted indexing); others use the direct per-key
    top-k. Result is identical either way — re-indexing is a load-
    balancing strategy, not a semantic one — which tests assert.
    """
    if strategy == "weighted":
        w = F.col("w")
        valid = F.coalesce((w > 0) & (w < float("inf")), F.lit(False))  # null w is invalid
        bad = edges.filter(~valid).count()
        if bad:
            raise ValueError(
                f"weighted sampling needs every edge weight finite and > 0 "
                f"(Efraimidis–Spirakis keys log(u)/w); {bad} edges are not"
            )
    ranked = edges.withColumn("_key", _rank_key(strategy, seed))
    direct_win = Window.partitionBy("dst").orderBy(F.desc("_key"), "src")
    if reindex_threshold is None:
        out = ranked.withColumn("_rn", F.row_number().over(direct_win))
        return out.filter(F.col("_rn") <= max_degree).drop("_key", "_rn")

    deg = edges.groupBy("dst").agg(F.count("*").alias("_deg"))
    ranked = ranked.join(deg, "dst")
    plain = ranked.filter(F.col("_deg") <= reindex_threshold)
    hubs = ranked.filter(F.col("_deg") > reindex_threshold)

    plain_out = (
        plain.withColumn("_rn", F.row_number().over(direct_win))
        .filter(F.col("_rn") <= max_degree)
    )
    # Re-indexing: salt the shuffle key, partial top-k per salted key...
    salted = hubs.withColumn(
        "_salt", F.pmod(F.xxhash64(F.col("src"), F.lit(seed + 1)), F.lit(N_SALT))
    )
    salt_win = Window.partitionBy("dst", "_salt").orderBy(F.desc("_key"), "src")
    partial = (
        salted.withColumn("_rn", F.row_number().over(salt_win))
        .filter(F.col("_rn") <= max_degree)
        .drop("_rn", "_salt")
    )
    # ...inverted indexing: recover the original shuffle key and finish.
    hub_out = (
        partial.withColumn("_rn", F.row_number().over(direct_win))
        .filter(F.col("_rn") <= max_degree)
    )
    return plain_out.select(edges.columns).unionByName(hub_out.select(edges.columns))
