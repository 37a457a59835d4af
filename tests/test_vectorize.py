"""Vectorization (§3.3.1) + pruning (§3.3.2): merged-batch matrices,
the dst-sorted A_B invariant, the per-layer pruning rule, and the two
correctness theorems: Theorem 1 (GraphFeature ⇒ whole-graph-equal
target embeddings) and pruning-preserves-target-embeddings."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.graphfeature import SubgraphRecord, collect_records
from repro.core.graphflat import build_graph_features
from repro.core.vectorize import BatchGraph, merge_batch, whole_graph_batch
from repro.graphs.generators import uug_lite
from repro.nn.models import NEEDS_SELF_LOOPS, GNNModel


def _rec(root, ids, dists, feats, es, ed, ew, label=(1.0,)):
    return SubgraphRecord(
        root=root,
        label=np.array(label),
        node_ids=np.array(ids, dtype=np.int64),
        dists=np.array(dists, dtype=np.int64),
        feats=np.array(feats, dtype=float),
        e_src=np.array(es, dtype=np.int64),
        e_dst=np.array(ed, dtype=np.int64),
        e_w=np.array(ew, dtype=float),
    )


def test_merge_single_record():
    r = _rec(5, [5, 2], [0, 1], [[1.0], [2.0]], [2], [5], [0.5])
    bg = merge_batch([r])
    np.testing.assert_array_equal(bg.node_ids, [2, 5])
    np.testing.assert_array_equal(bg.dists, [1, 0])
    np.testing.assert_allclose(bg.X[:, 0], [2.0, 1.0])
    assert bg.target_idx.tolist() == [1]
    # local edge 0->1 (2->5)
    assert bg.e_src.tolist() == [0] and bg.e_dst.tolist() == [1]


def test_merge_overlap_dedups_nodes_min_dist():
    r1 = _rec(5, [5, 2], [0, 1], [[1.0], [2.0]], [2], [5], [1.0])
    r2 = _rec(2, [2, 9], [0, 1], [[2.0], [9.0]], [9], [2], [1.0])
    bg = merge_batch([r1, r2])
    np.testing.assert_array_equal(bg.node_ids, [2, 5, 9])
    # node 2 appears at dist 1 (from r1) and 0 (from r2) -> min = 0
    np.testing.assert_array_equal(bg.dists, [0, 0, 1])
    assert bg.n_edges == 2
    assert bg.labels.shape == (2, 1)


def test_merge_dedups_duplicate_edges():
    r1 = _rec(5, [5, 2], [0, 1], [[1.0], [2.0]], [2], [5], [0.7])
    r2 = _rec(5, [5, 2], [0, 1], [[1.0], [2.0]], [2], [5], [0.7])
    bg = merge_batch([r1, r2])
    assert bg.n_edges == 1 and bg.e_w.tolist() == [0.7]
    # the whole-graph front end keeps the first copy of a duplicated edge too
    wg = whole_graph_batch(
        bg.node_ids, bg.X, np.array([2, 2]), np.array([5, 5]), np.array([0.7, 0.3]),
        np.array([5]), bg.labels[:1],
    )
    assert wg.n_edges == 1 and wg.e_w.tolist() == [0.7]
    assert wg.e_src.tolist() == bg.e_src.tolist() and wg.e_dst.tolist() == bg.e_dst.tolist()
    # its distances: 0 at the targets, 1 elsewhere
    np.testing.assert_array_equal(wg.dists, [1, 0])


def test_edges_sorted_by_dst_then_src():
    rng = np.random.default_rng(0)
    ids = np.arange(10)
    r = _rec(
        0,
        ids,
        [0] + [1] * 9,
        rng.random((10, 2)),
        rng.integers(0, 10, 30),
        rng.integers(0, 10, 30),
        np.ones(30),
    )
    bg = merge_batch([r])
    key = bg.e_dst * 100 + bg.e_src
    assert (np.diff(key) > 0).all()  # strictly: dedup removed duplicates


def test_empty_batch_raises():
    with pytest.raises(ValueError):
        merge_batch([])


def test_adj_list_no_pruning_shares_edges():
    r = _rec(5, [5, 2], [0, 1], [[1.0], [2.0]], [2], [5], [1.0])
    bg = merge_batch([r])
    lst = bg.adj_list(3, self_loops=False, pruning=False)
    assert len(lst) == 3 and all(e.m == 1 for e in lst)


def test_pruning_rule_per_layer():
    # chain 2 -> 1 -> 0, target 0, K=2
    r = _rec(0, [0, 1, 2], [0, 1, 2], [[0.0], [1.0], [2.0]], [2, 1], [1, 0], [1, 1])
    bg = merge_batch([r])
    lst = bg.adj_list(2, self_loops=False, pruning=True)
    # layer 0: edges into dist<=1 nodes -> both; layer 1: into dist<=0 -> only 1->0
    assert lst[0].m == 2
    assert lst[1].m == 1
    assert (lst[1].dst == 0).all() and (lst[1].src == 1).all()


def test_pruning_keeps_target_self_loops_last_layer():
    r = _rec(0, [0, 1], [0, 1], [[0.0], [1.0]], [1], [0], [1.0])
    bg = merge_batch([r])
    lst = bg.adj_list(2, self_loops=True, pruning=True)
    last = lst[1]
    assert ((last.src == 0) & (last.dst == 0)).any()  # target self loop survives
    assert not (last.dst == 1).any()  # non-target rows pruned


@pytest.fixture(scope="module")
def uug_gfs(spark):
    ds = uug_lite(n=200, seed=41)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:16]}))
    recs = collect_records(build_graph_features(nodes_df, edges_df, targets, 2))
    return ds, recs


def _whole_graph(ds, target_ids):
    labels = ds.label_matrix()[np.searchsorted(ds.nodes["id"].to_numpy(), target_ids)]
    return whole_graph_batch(
        ds.nodes["id"].to_numpy(),
        ds.feat_matrix(),
        ds.edges["src"].to_numpy(),
        ds.edges["dst"].to_numpy(),
        ds.edges["w"].to_numpy(),
        target_ids,
        labels,
    )


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_theorem1_graphfeature_equals_whole_graph(uug_gfs, kind):
    """K-hop neighborhood is information-complete: a K-layer GNN gives
    the same target logits from the GraphFeature batch as from the
    whole graph (Theorem 1)."""
    ds, recs = uug_gfs
    bg = merge_batch(recs)
    wg = _whole_graph(ds, np.array([r.root for r in recs]))
    model = GNNModel(kind, ds.feat_dim, 8, 1, 2, "binary", seed=3)
    self_loops = NEEDS_SELF_LOOPS[kind]
    out_sub = model.forward(
        bg.X, bg.adj_list(2, self_loops=self_loops, pruning=False), bg.target_idx
    )
    out_full = model.forward(
        wg.X, wg.adj_list(2, self_loops=self_loops, pruning=False), wg.target_idx
    )
    np.testing.assert_allclose(out_sub, out_full, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pruning_preserves_target_logits(uug_gfs, spark, kind, k):
    """A_B^(k) pruning removes only computation that cannot reach the
    targets: logits must match the unpruned forward exactly, on the merged
    records and on the whole graph, whose distances are only lower bounds."""
    ds, _ = uug_gfs
    nodes_df, edges_df = ds.to_spark(spark)
    target_ids = ds.split_ids("train")[:8]
    targets = spark.createDataFrame(pd.DataFrame({"id": target_ids}))
    recs = collect_records(build_graph_features(nodes_df, edges_df, targets, k))
    model = GNNModel(kind, ds.feat_dim, 6, 1, k, "binary", seed=4)
    self_loops = NEEDS_SELF_LOOPS[kind]
    for bg in (merge_batch(recs), _whole_graph(ds, target_ids)):
        out_plain = model.forward(
            bg.X, bg.adj_list(k, self_loops=self_loops, pruning=False), bg.target_idx
        )
        out_pruned = model.forward(
            bg.X, bg.adj_list(k, self_loops=self_loops, pruning=True), bg.target_idx
        )
        np.testing.assert_allclose(out_pruned, out_plain, rtol=1e-10, atol=1e-10)


@pytest.fixture(scope="module")
def records_by_depth(uug_gfs, spark):
    ds, _ = uug_gfs
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:8]}))
    return {k: collect_records(build_graph_features(nodes_df, edges_df, targets, k)) for k in (1, 2, 3)}


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pruned_layers_return_only_the_rows_read_next(uug_gfs, records_by_depth, kind, k):
    """Node pruning: on merged records, pruned layer i returns exactly the
    rows with dist ≤ K−1−i, the next layer's input, and the last layer
    only the targets' rows."""
    ds, _ = uug_gfs
    bg = merge_batch(records_by_depth[k])
    adj = bg.adj_list(k, self_loops=NEEDS_SELF_LOOPS[kind], pruning=True)
    model = GNNModel(kind, ds.feat_dim, 6, 1, k, "binary", seed=4)
    H, rows = bg.X, np.arange(bg.n_nodes)  # the batch rows H holds
    for i, (lyr, e) in enumerate(zip(model.layers, adj)):
        assert e.n_src == rows.size == H.shape[0]
        H = lyr.forward(H, e)
        rows = e.at_dst(rows)
        np.testing.assert_array_equal(rows, np.flatnonzero(bg.dists <= k - 1 - i))
        assert H.shape[0] == e.n_nodes == rows.size
    np.testing.assert_array_equal(rows, np.unique(bg.target_idx))
    assert rows.size < bg.n_nodes


def test_pruning_reduces_edge_count(uug_gfs):
    ds, recs = uug_gfs
    bg = merge_batch(recs)
    lst = bg.adj_list(2, self_loops=True, pruning=True)
    assert lst[1].m < lst[0].m  # deeper layer strictly smaller on a real graph
