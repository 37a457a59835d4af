"""GraphFlat: K-hop membership vs a DuckDB recursive-BFS oracle, the
literal message-passing pipeline vs the frontier pipeline, and the
subgraph edge-set rule (in-edges of members at distance ≤ K−1)."""
from __future__ import annotations

import gc
import hashlib
import re
import threading

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark import StorageLevel
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.graphfeature import collect_records
from repro.core import graphflat
from repro.core.graphflat import build_graph_features, khop_members, subgraph_edges
from repro.core.infer import inference_cost_report, run_graph_infer
from repro.graphs.generators import EDGE_SCHEMA, NODE_SCHEMA, ppi_lite, uug_lite
from repro.nn.models import GNNModel
from tests.graphflat_reference import graphflat_message_passing
from tests.oracle import assert_equivalent

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
    nd = spark.createDataFrame(nodes, schema=NODE_SCHEMA)
    ed = spark.createDataFrame(edges, schema=EDGE_SCHEMA)
    t = spark.createDataFrame(pd.DataFrame({"id": [0]}))
    recs = collect_records(build_graph_features(nd, ed, t, 2))
    assert len(recs) == 1 and recs[0].n_edges == 0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_repeated_target_id_is_one_root(spark, k):
    """A target id given twice is one root: its record, every member's
    single node row and the Table-5 cost counts are those of the id
    given once."""
    ds = uug_lite(n=60, seed=3)
    nodes_df, edges_df = ds.to_spark(spark)
    got, cost = [], []
    for ids in ([5, 5, 7], [5, 7]):
        targets = spark.createDataFrame(pd.DataFrame({"id": ids}))
        gf = build_graph_features(nodes_df, edges_df, targets, k)
        got.append({r["root"]: bytes(r["gf"]) for r in gf.collect()})
        for r in collect_records(gf):
            assert np.unique(r.node_ids).size == r.node_ids.size, r.root
        cost.append(inference_cost_report(edges_df, targets, k, len(ds.nodes), len(ds.edges)))
    assert sorted(got[0]) == [5, 7]
    assert got[0] == got[1]
    assert cost[0] == cost[1]


def test_repeated_node_id_is_rejected_by_both_pipelines(spark):
    """A node id held by two node rows raises before either pipeline
    runs: GraphFlat would write both rows as members of one record, and
    GraphInfer would score the id twice."""
    nodes = pd.DataFrame({
        "id": [0, 1, 1, 2], "feat": [[1.0], [2.0], [3.0], [4.0]],
        "label": [[0.0]] * 4, "split": ["train"] * 4,
    })
    edges = pd.DataFrame({"src": [1, 2], "dst": [0, 1], "w": [1.0, 1.0]})
    nd = spark.createDataFrame(nodes, schema=NODE_SCHEMA)
    ed = spark.createDataFrame(edges, schema=EDGE_SCHEMA)
    t = spark.createDataFrame(pd.DataFrame({"id": [0]}))
    with pytest.raises(ValueError, match="1 node rows repeat an id"):
        build_graph_features(nd, ed, t, 1)
    slices = GNNModel("gcn", 1, 2, 1, 1, "binary").to_slices()
    with pytest.raises(ValueError, match="1 node rows repeat an id"):
        run_graph_infer(nd, ed, slices)


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
            # the later settings reuse the memoized plan, and still plan
            # under the current conf
            assert key_partitions(gf) == {partitions}
            got.append({r["root"]: bytes(r["gf"]) for r in gf.collect()})
    finally:
        for k, v in saved.items():
            spark.conf.unset(k) if v is None else spark.conf.set(k, v)
    assert len(got[0]) == 40
    assert got[0] == got[1] == got[2]


#: (dataset, K, max_degree) -> sha256 prefix of the root-sorted
#: ``(int64 root, gf)`` records over every node, from gf_digest
GF_PINNED = {
    ("uug_lite", 1, None): "f2fb05149209cd65",
    ("uug_lite", 1, 4): "d296a27ddd382159",
    ("uug_lite", 2, None): "1fe37a8344f6dbd3",
    ("uug_lite", 2, 4): "94e8c81a533ce363",
    ("ppi_lite", 2, 4): "b07dc7f22f12818c",
}
PIN_GRAPHS = {
    "uug_lite": lambda: uug_lite(n=60, seed=16),
    "ppi_lite": lambda: ppi_lite(
        n_graphs=2, nodes_per_graph=40, n_train_graphs=1, n_val_graphs=1, seed=16
    ),
}


def gf_digest(gf: DataFrame) -> str:
    h = hashlib.sha256()
    for r in sorted(gf.collect(), key=lambda r: r["root"]):
        h.update(np.int64(r["root"]).tobytes())
        h.update(bytes(r["gf"]))
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name,k,max_degree", list(GF_PINNED))
def test_stored_graph_features_are_pinned(spark, name, k, max_degree):
    """Every stored GraphFeature stays byte for byte what it was when
    pinned (numpy 1.26, pyspark 4.1): no refactor of GraphFlat, the
    sampler or the record codec may change the stored records."""
    nodes_df, edges_df = PIN_GRAPHS[name]().to_spark(spark)
    gf = build_graph_features(nodes_df, edges_df, nodes_df.select("id"), k, max_degree=max_degree)
    assert gf_digest(gf) == GF_PINNED[(name, k, max_degree)]


def test_key_groups_long_group_is_joined_once(monkeypatch):
    """A key group spread over 40 batches comes out as one group with
    every row in order, and the re-cut joins each emitted block at most
    once (the held slices are not re-concatenated per batch)."""
    keys = np.concatenate([[1, 1, 1], np.full(40 * 50 - 5, 5), [5, 5, 9, 9]])
    table = pa.table({"key": keys, "pos": np.arange(keys.size)})
    batches = table.to_batches(max_chunksize=50)
    assert len(batches) == 41 and batches[-1].num_rows == 2  # the 9s alone
    joins = []
    concat = graphflat._concat

    def counting(parts):
        joins.append(len(parts))
        return concat(parts)

    monkeypatch.setattr(graphflat, "_concat", counting)
    blocks = list(graphflat._key_groups(iter([batches[0].slice(0, 0), *batches])))
    block_keys = [set(b.column("key").to_numpy()) for b in blocks]
    assert sum(5 in k for k in block_keys) == 1
    for i, a in enumerate(block_keys):  # no key group in two blocks
        assert all(not a & b for b in block_keys[i + 1 :])
    got = pa.Table.from_batches(blocks)
    assert got.column("key").to_numpy().tolist() == keys.tolist()
    assert got.column("pos").to_numpy().tolist() == list(range(keys.size))
    assert len(joins) <= len(blocks)


def key_partitions(df) -> set[int]:
    """The partition counts of the shuffles by ``key`` in ``df``'s
    executed plan (one partition plans as ``SinglePartition``)."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    shuffles = r"Exchange (?:SinglePartition|hashpartitioning\(key#\d+L?, (\d+)\)), REPARTITION_BY_COL"
    return {int(n or 1) for n in re.findall(shuffles, plan)}


def _plan_rows_outside_cache(plan: str) -> list[tuple[str, str]]:
    """(operator name, rest of its line) of each operator in ``plan``,
    leaving out the plans of cached relations (they run once, when the
    cache fills)."""
    rows, cached_at = [], None
    for depth, op, rest in re.findall(r"(?m)^([\s:|+-]*)(\w+)(.*)$", plan):
        if cached_at is not None and len(depth) > cached_at:
            continue
        cached_at = len(depth) if op == "InMemoryRelation" else None
        rows.append((op, rest))
    return rows


def _plan_ops_outside_cache(df) -> list[str]:
    """Operator names of ``df``'s executed plan, outside cached relations."""
    plan = df._jdf.queryExecution().executedPlan().toString()
    return [op for op, _ in _plan_rows_outside_cache(plan)]


def _edge_side_reads(plan: str) -> list[list[str]]:
    """For each join on ``dst`` outside a cached relation, the operator
    names from its ``dst`` side down to the first scan below it."""
    lines = re.findall(r"(?m)^([\s:|+-]*)(?:\*\(\d+\) )?(\w+)(.*)$", plan)
    depth = [len(d) for d, _, _ in lines]

    def child(i: int, nth: int = 0) -> int:
        kids = []
        for j in range(i + 1, len(lines)):
            if depth[j] <= depth[i]:
                break
            if depth[j] == depth[i] + 3:
                kids.append(j)
        return kids[nth]

    reads, cached_at = [], None
    for i, (_, op, rest) in enumerate(lines):
        if cached_at is not None and depth[i] > cached_at:
            continue
        cached_at = depth[i] if op == "InMemoryRelation" else None
        keys = re.match(r" \[(.*?)\], \[(.*?)\]", rest)
        if "Join" not in op or not keys or "dst#" not in rest:
            continue
        j, ops = child(i, 0 if "dst#" in keys.group(1) else 1), []
        while "Scan" not in lines[j][1]:
            ops.append(lines[j][1])
            j = child(j)
        reads.append([*ops, lines[j][1]])
    return reads


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
    # the cached edge table stays hash-partitioned by dst: every join on
    # dst reads it with no Exchange. An adaptive cached plan reports no
    # partitioning before it runs, so the memoized table is unpersisted
    # and fresh frames, with AQE off, cache it again and give the plan
    aqe = "spark.sql.adaptive.enabled"
    saved = spark.conf.get(aqe)
    try:
        spark.conf.set(aqe, "false")
        graphflat.sampled_edges(nodes_df, edges_df, 4).unpersist()
        nodes_df, edges_df = ds.to_spark(spark)
        gf = build_graph_features(nodes_df, edges_df, targets, k, max_degree=4)
        reads = _edge_side_reads(gf._jdf.queryExecution().executedPlan().toString())
    finally:
        spark.conf.set(aqe, saved)
    assert reads
    for path in reads:
        assert path[-1] == "InMemoryTableScan" and not any("Exchange" in op for op in path), path


def test_graph_features_final_aqe_plan_shuffles_edges_by_dst_at_most_once(spark):
    """Under AQE (the setting of the jobs and of this suite) the final
    plan, taken after the run, shuffles by ``dst`` at most once outside
    the cached edge table: the joins on ``dst`` read the table as it is
    partitioned."""
    ds = uug_lite(n=60, seed=16)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:10]}))
    gf = build_graph_features(nodes_df, edges_df, targets, 2, max_degree=4)
    gf.collect()
    plan = gf._jdf.queryExecution().executedPlan().toString()
    assert plan.startswith("AdaptiveSparkPlan isFinalPlan=true")
    final = plan.split("\n+- == Initial Plan ==")[0]
    exchanges = [rest for op, rest in _plan_rows_outside_cache(final) if op == "Exchange"]
    assert exchanges
    assert sum(rest.startswith(" hashpartitioning(dst#") for rest in exchanges) <= 1


def _persistent_rdds(sc) -> int:
    return sc._jsc.getPersistentRDDs().size()


def test_sampled_edges_memo_key_and_lifetime(spark, monkeypatch):
    """Equal (edges frame, nodes frame, max_degree, strategy, seed) →
    one memo entry; any of them changed → another, and a frame with
    equal data builds the same table. Dropping the frames and the tables
    unpersists them."""
    ds = uug_lite(n=60, seed=17)
    sc = spark.sparkContext
    gc.collect()
    before = _persistent_rdds(sc)
    builds, cached = [], graphflat.cached

    def counting(table):
        builds.append(1)
        return cached(table)

    monkeypatch.setattr(graphflat, "cached", counting)
    nodes_df, edges_df = ds.to_spark(spark)
    nodes2, edges2 = ds.to_spark(spark)  # equal data, other frames
    a = graphflat.sampled_edges(nodes_df, edges_df, 4, seed=3)
    assert a.is_cached
    assert graphflat.sampled_edges(nodes_df, edges_df, 4, strategy="uniform", seed=3) is a
    assert graphflat.sampled_edges(nodes2, edges_df, 4, seed=3) is a
    assert graphflat.sampled_edges(nodes_df, edges2, 4, seed=3) is a
    others = [
        graphflat.sampled_edges(nodes_df, edges_df, 5, seed=3),
        graphflat.sampled_edges(nodes_df, edges_df, None, seed=3),
        graphflat.sampled_edges(nodes_df, edges_df, 4, strategy="weighted", seed=3),
        graphflat.sampled_edges(nodes_df, edges_df, 4, seed=4),
    ]
    assert len(builds) == 7
    assert len({id(t) for t in [a, *others]}) == 5
    for t in [a, *others]:
        t.count()
    assert _persistent_rdds(sc) > before
    del nodes_df, edges_df, nodes2, edges2, a, others, t
    gc.collect()
    assert _persistent_rdds(sc) == before


def test_equal_frames_share_one_cache_entry_until_the_last_is_dropped(spark):
    """Two frame pairs with equal data build tables with equal plans,
    which Spark caches as one entry: they get one table, so dropping one
    pair keeps it cached for the other, and dropping both frees it."""
    ds = uug_lite(n=60, seed=16)
    sc = spark.sparkContext
    gc.collect()
    before = _persistent_rdds(sc)
    first, second = ds.to_spark(spark), ds.to_spark(spark)
    a = graphflat.sampled_edges(*first, 4)
    b = graphflat.sampled_edges(*second, 4)
    assert a is b
    assert a.count() == b.count()
    assert _persistent_rdds(sc) == before + 1
    del second, b
    gc.collect()
    assert a.storageLevel != StorageLevel.NONE
    assert _persistent_rdds(sc) == before + 1
    a.count()
    assert _persistent_rdds(sc) == before + 1
    del first, a
    gc.collect()
    assert _persistent_rdds(sc) == before


def test_held_table_stays_cached_after_its_frames_are_dropped(spark):
    """A caller that keeps the sampled table but drops the frames it was
    built from still reads it from the cache; dropping the table frees it."""
    ds = uug_lite(n=60, seed=16)
    sc = spark.sparkContext
    gc.collect()
    before = _persistent_rdds(sc)
    frames = ds.to_spark(spark)
    table = graphflat.sampled_edges(*frames, 4)
    n = table.count()
    del frames
    gc.collect()
    assert table.is_cached and table.storageLevel != StorageLevel.NONE
    assert _persistent_rdds(sc) == before + 1
    assert table.count() == n
    del table
    gc.collect()
    assert _persistent_rdds(sc) == before


def test_equal_hashes_share_no_table_without_equal_plans(spark, monkeypatch):
    """Tables are shared by plan equality, not by ``semanticHash``: two
    different plans whose hashes collide get two cached tables, and a
    third frame equal to the first gets the first table back, so no
    second finalizer can unpersist the entry the first one reads."""
    frame = spark.range(10)
    monkeypatch.setattr(type(frame), "semanticHash", lambda self: 0)
    a = graphflat.cached(frame.filter("id < 3"))
    b = graphflat.cached(frame.filter("id < 5"))
    assert a is not b and a.is_cached and b.is_cached
    assert (a.count(), b.count()) == (3, 5)
    assert graphflat.cached(frame.filter("id < 5")) is b
    assert graphflat.cached(frame.filter("id < 3")) is a


def test_collected_frame_never_waits_for_the_memo_lock(spark):
    """A table collected while another caller holds the memo's lock (a
    GC inside ``cached_on`` runs finalizers there) is unpersisted at
    once: its finalizer never takes the lock."""
    ds = uug_lite(n=60, seed=16)
    sc = spark.sparkContext
    gc.collect()
    before = _persistent_rdds(sc)
    frames = ds.to_spark(spark)
    graphflat.sampled_edges(*frames, 4).count()
    assert _persistent_rdds(sc) == before + 1
    held, collected, waited, freed = threading.Event(), threading.Event(), [], []

    def hold() -> None:
        with graphflat._LOCK:
            held.set()
            waited.append(not collected.wait(10))

    holder = threading.Thread(target=hold)
    holder.start()
    held.wait()
    del frames
    gc.collect()
    freed.append(_persistent_rdds(sc))
    collected.set()
    holder.join()
    assert waited == [False]
    assert freed == [before]


def test_memo_builds_outside_its_lock(spark):
    """``build`` runs outside the memo's lock, so callers on other frames
    never wait for it, and of two racing builds of one entry the first
    memoized is kept and the other is not cached."""
    frame = spark.range(3)
    locked = []

    def build() -> DataFrame:
        locked.append(graphflat._LOCK.locked())
        return frame.limit(2)

    got = graphflat.cached_on(frame, ("plan",), build)
    assert locked == [False] and got.count() == 2
    assert graphflat.cached_on(frame, ("plan",), build) is got
    assert len(locked) == 1
    first, second = frame.limit(1), frame.limit(2)

    def racing() -> DataFrame:  # another caller memoizes the entry meanwhile
        graphflat._MEMO[frame][("race",)] = first
        return second

    assert graphflat.cached_on(frame, ("race",), racing) is first
    assert second.storageLevel == StorageLevel.NONE
