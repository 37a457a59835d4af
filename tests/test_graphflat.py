"""GraphFlat: K-hop membership vs a DuckDB recursive-BFS oracle, the
literal message-passing pipeline vs the frontier pipeline, and the
subgraph edge-set rule (in-edges of members at distance ≤ K−1)."""
from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.graphfeature import collect_records
from repro.core.graphflat import build_graph_features, khop_members, subgraph_edges
from repro.graphs.generators import uug_lite
from repro.oracle import assert_equivalent
from tests.graphflat_reference import graphflat_message_passing

BFS_SQL = """
WITH RECURSIVE walk(root, id, dist) AS (
  SELECT id AS root, id, 0 FROM targets
  UNION ALL
  SELECT w.root, e.src, w.dist + 1
  FROM walk w JOIN edges e ON e.dst = w.id
  WHERE w.dist < {k}
)
SELECT root, id, MIN(dist) AS dist FROM walk GROUP BY root, id
"""


def _spark_tables(spark, edges_pdf, targets_pdf):
    e = spark.createDataFrame(edges_pdf)
    t = spark.createDataFrame(targets_pdf)
    return e, t


# ---------- toy graphs with hand-checkable structure ----------
def chain_edges():
    # 0 -> 1 -> 2 -> 3 -> 4
    return pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 3, 4], "w": 1.0})


def star_edges():
    # spokes 1..5 all point at hub 0
    return pd.DataFrame({"src": [1, 2, 3, 4, 5], "dst": [0] * 5, "w": 1.0})


def cycle_edges():
    return pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 0], "w": 1.0})


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_chain_membership_matches_oracle(spark, k):
    edges = chain_edges()
    targets = pd.DataFrame({"id": [4]})
    e, t = _spark_tables(spark, edges, targets)
    got = khop_members(e, t, k)
    assert_equivalent(got, BFS_SQL.format(k=k), edges=edges, targets=targets)


@pytest.mark.parametrize("k", [1, 2])
def test_chain_is_directional(spark, k):
    # from root 0, nothing is reachable via in-edges
    e, t = _spark_tables(spark, chain_edges(), pd.DataFrame({"id": [0]}))
    rows = khop_members(e, t, k).collect()
    assert len(rows) == 1 and rows[0]["id"] == 0 and rows[0]["dist"] == 0


def test_star_hub_sees_all_spokes(spark):
    e, t = _spark_tables(spark, star_edges(), pd.DataFrame({"id": [0]}))
    got = {r["id"]: r["dist"] for r in khop_members(e, t, 1).collect()}
    assert got == {0: 0, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cycle_min_distance(spark, k):
    edges = cycle_edges()
    targets = pd.DataFrame({"id": [0]})
    e, t = _spark_tables(spark, edges, targets)
    got = khop_members(e, t, k)
    assert_equivalent(got, BFS_SQL.format(k=k), edges=edges, targets=targets)


@pytest.mark.parametrize("k", [1, 2])
def test_random_graph_membership_matches_oracle(spark, k):
    ds = uug_lite(n=120, seed=11)
    targets = pd.DataFrame({"id": ds.split_ids("train")[:15]})
    e, t = _spark_tables(spark, ds.edges, targets)
    got = khop_members(e, t, k)
    assert_equivalent(got, BFS_SQL.format(k=k), edges=ds.edges, targets=targets)


@pytest.mark.parametrize("k", [1, 2])
def test_message_passing_equals_frontier(spark, k):
    """The literal Figure-2 pipeline ≡ the frontier pipeline, for every
    node of a random hub-heavy graph."""
    ds = uug_lite(n=60, seed=12)
    nodes_df, edges_df = ds.to_spark(spark)
    mp = graphflat_message_passing(nodes_df, edges_df, k).toPandas()
    all_targets = spark.createDataFrame(ds.nodes[["id"]])
    fr = khop_members(edges_df, all_targets, k).toPandas()
    key = ["root", "id"]
    pd.testing.assert_frame_equal(
        mp.sort_values(key).reset_index(drop=True)[["root", "id", "dist"]].astype("int64"),
        fr.sort_values(key).reset_index(drop=True)[["root", "id", "dist"]].astype("int64"),
    )


def test_subgraph_edges_rule(spark):
    """Edge set = in-edges of members with dist ≤ k−1 (Theorem-1 set)."""
    edges = chain_edges()
    targets = pd.DataFrame({"id": [4]})
    e, t = _spark_tables(spark, edges, targets)
    members = khop_members(e, t, 2)
    got = subgraph_edges(e, members, 2).toPandas()
    # members of root 4 at k=2: {4:0, 3:1, 2:2}; dist<=1 -> {4,3};
    # in-edges of {4,3} = 3->4 and 2->3
    assert sorted(zip(got.src, got.dst)) == [(2, 3), (3, 4)]


def test_subgraph_edges_match_oracle_on_random_graph(spark):
    ds = uug_lite(n=100, seed=13)
    targets = pd.DataFrame({"id": ds.split_ids("train")[:10]})
    e, t = _spark_tables(spark, ds.edges, targets)
    members = khop_members(e, t, 2)
    got = subgraph_edges(e, members, 2).select("root", "src", "dst")
    sql = (
        "WITH m AS ("
        + BFS_SQL.format(k=2)
        + ") SELECT m.root, e.src, e.dst FROM m JOIN edges e ON e.dst = m.id WHERE m.dist <= 1"
    )
    assert_equivalent(got, sql, edges=ds.edges, targets=targets)


# ---------- full GraphFlat output ----------
@pytest.fixture(scope="module")
def gf_small(spark):
    ds = uug_lite(n=150, seed=14)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:20]}))
    gf = build_graph_features(nodes_df, edges_df, targets, 2)
    return ds, collect_records(gf)


def test_graph_features_one_row_per_target(gf_small):
    ds, recs = gf_small
    assert sorted(r.root for r in recs) == sorted(ds.split_ids("train")[:20])


def test_graph_features_root_is_member_at_dist0(gf_small):
    _, recs = gf_small
    for r in recs:
        d = dict(zip(r.node_ids.tolist(), r.dists.tolist()))
        assert d[r.root] == 0


def test_graph_features_edges_within_members(gf_small):
    _, recs = gf_small
    for r in recs:
        ids = set(r.node_ids.tolist())
        for src, dst in zip(r.e_src.tolist(), r.e_dst.tolist()):
            assert src in ids and dst in ids


def test_graph_features_label_and_feats_match_dataset(gf_small):
    ds, recs = gf_small
    X = ds.feat_matrix()
    Y = ds.label_matrix()
    for r in recs[:5]:
        np.testing.assert_allclose(r.label, Y[r.root])
        for i, f in zip(r.node_ids[:10], r.feats[:10]):
            np.testing.assert_allclose(f, X[i])


def test_graph_features_edge_dist_rule(gf_small):
    _, recs = gf_small
    for r in recs:
        d = dict(zip(r.node_ids.tolist(), r.dists.tolist()))
        for dst in r.e_dst.tolist():
            assert d[dst] <= 1  # k=2 ⇒ edges only into dist ≤ 1 nodes


def test_targets_without_inedges_still_emitted(spark):
    nodes = pd.DataFrame(
        {"id": [0, 1], "feat": [[1.0], [2.0]], "label": [[0.0], [1.0]], "split": ["train"] * 2}
    )
    edges = pd.DataFrame({"src": [0], "dst": [1], "w": [1.0]})
    from repro.graphs.generators import EDGE_SCHEMA, NODE_SCHEMA

    nd = spark.createDataFrame(nodes, schema=NODE_SCHEMA)
    ed = spark.createDataFrame(edges, schema=EDGE_SCHEMA)
    t = spark.createDataFrame(pd.DataFrame({"id": [0]}))
    recs = collect_records(build_graph_features(nd, ed, t, 2))
    assert len(recs) == 1 and recs[0].n_edges == 0


def test_graph_features_independent_of_partitioning(spark):
    """Each root's stored bytes are the same for 1 or 7 shuffle
    partitions and for 3-row or 10,000-row Arrow batches, so the
    assembly reducer sees every key group whole (a group cut at a
    batch boundary is carried into the next batch) and reads the list
    columns' offsets correctly across batch boundaries."""
    ds = uug_lite(n=150, seed=15)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:40]}))
    batch, parts = "spark.sql.execution.arrow.maxRecordsPerBatch", "spark.sql.shuffle.partitions"
    saved = {k: spark.conf.get(k, None) for k in (batch, parts)}
    got = []
    try:
        for rows, partitions in ((10_000, 7), (3, 1), (3, 7)):
            spark.conf.set(batch, str(rows))
            spark.conf.set(parts, str(partitions))
            gf = build_graph_features(nodes_df, edges_df, targets, 2, max_degree=4, seed=3)
            got.append({r["root"]: bytes(r["gf"]) for r in gf.collect()})
    finally:
        for k, v in saved.items():
            spark.conf.unset(k) if v is None else spark.conf.set(k, v)
    assert len(got[0]) == 40
    assert got[0] == got[1] == got[2]


def _plan_ops_outside_cache(df) -> list[str]:
    """Operator names of ``df``'s executed plan, leaving out the plans
    of cached relations (they run once, when the cache fills)."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    ops, cached_at = [], None
    for depth, op in re.findall(r"(?m)^([\s:|+-]*)(\w+)", plan):
        if cached_at is not None and len(depth) > cached_at:
            continue
        cached_at = len(depth) if op == "InMemoryRelation" else None
        ops.append(op)
    return ops


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graph_features_plan_is_one_python_stage(spark, k):
    """GraphFlat assembles every record in one sorted Arrow reduce: one
    Python stage, no ``collect_list`` aggregate, and the sampling
    Window only inside the cached sampled edge table."""
    ds = uug_lite(n=60, seed=16)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:10]}))
    gf = build_graph_features(nodes_df, edges_df, targets, k, max_degree=4)
    ops = _plan_ops_outside_cache(gf)
    assert sum("InArrow" in op for op in ops) == 1
    assert "ObjectHashAggregate" not in ops
    assert "Window" not in ops
    assert "InMemoryRelation" in ops
