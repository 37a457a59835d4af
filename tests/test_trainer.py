"""GraphTrainer: strategy invariance (pruning/partition/pipeline change
time, never results), batching, disk source, and learning progress."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.graphfeature import collect_records, store_graph_features
from repro.core.graphflat import build_graph_features
from repro.core.trainer import (
    GraphTrainer,
    MemorySource,
    ParquetSource,
    TrainConfig,
    WholeGraphTrainer,
)
from repro.core.vectorize import whole_graph_batch
from repro.graphs.generators import cora_lite, uug_lite


@pytest.fixture(scope="module")
def uug_recs(spark):
    # label_mode="mean": the easy variant — these tests check learning
    # mechanics, not the attention-vs-mean separation of Table 3
    ds = uug_lite(n=400, seed=51, label_mode="mean", labeled_frac=0.8)
    nodes_df, edges_df = ds.to_spark(spark)
    train = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:120]}))
    val = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("val")}))
    tr = collect_records(build_graph_features(nodes_df, edges_df, train, 2))
    va = collect_records(build_graph_features(nodes_df, edges_df, val, 2))
    return ds, tr, va


def _cfg(**kw):
    base = dict(kind="gcn", n_layers=2, hidden=8, n_out=1, task="binary", lr=0.05, batch_size=16, seed=1)
    base.update(kw)
    return TrainConfig(**base)


def test_loss_decreases_over_epochs(uug_recs):
    ds, tr, _ = uug_recs
    t = GraphTrainer(_cfg(), ds.feat_dim)
    src = MemorySource(tr, batch_size=16)
    losses = [t.train_epoch(src, e) for e in range(15)]
    assert losses[-1] < losses[0] * 0.9


def test_train_epoch_on_empty_source_raises(uug_recs):
    ds, _, _ = uug_recs
    t = GraphTrainer(_cfg(), ds.feat_dim)
    with pytest.raises(ValueError, match="MemorySource yielded no batches"):
        t.train_epoch(MemorySource([], batch_size=16), 0)


@pytest.mark.parametrize(
    "flags",
    [
        dict(pruning=True, partition=False),
        dict(pruning=False, partition=True),
        dict(pruning=True, partition=True),
        dict(pipeline=False),
    ],
    ids=["pruning", "partition", "both", "no-pipeline"],
)
def test_strategies_do_not_change_training(uug_recs, flags):
    """All optimisation strategies are performance-only: per-epoch losses
    must match the base configuration to float precision, for every layer
    kind (pruned layers run their backward on bipartite blocks)."""
    ds, tr, _ = uug_recs
    src = MemorySource(tr, batch_size=16)
    for kind in ("gcn", "sage", "gat"):
        base = GraphTrainer(_cfg(kind=kind), ds.feat_dim)
        opt = GraphTrainer(_cfg(kind=kind, **flags), ds.feat_dim)
        for e in range(3):
            lb = base.train_epoch(src, e)
            lo = opt.train_epoch(src, e)
            np.testing.assert_allclose(lo, lb, rtol=1e-8, err_msg=kind)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_all_models_train_and_beat_chance(uug_recs, kind):
    """Mechanics check: every model kind fits the training signal well
    above chance. (Generalisation quality is Table 3's job — at this
    tiny scale val-AUC is too high-variance to assert on.)"""
    ds, tr, _ = uug_recs
    t = GraphTrainer(_cfg(kind=kind, lr=0.01), ds.feat_dim)
    src = MemorySource(tr, batch_size=16)
    for e in range(40):
        t.train_epoch(src, e)
    assert t.evaluate(tr) > 0.8  # train AUC: the signal was learnable


def test_parquet_source_equals_memory_source(spark, uug_recs, tmp_path):
    ds, tr, _ = uug_recs
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:120]}))
    gf = build_graph_features(nodes_df, edges_df, targets, 2)
    path = str(tmp_path / "gf")
    store_graph_features(gf, path)
    src = ParquetSource(path, batch_size=16)
    from repro.core.graphfeature import SubgraphRecord

    decoded = [SubgraphRecord.from_bytes(r) for b in src.batches(0) for r in b]
    assert sorted(r.root for r in decoded) == sorted(r.root for r in tr)
    # records decode identically to the driver-side path
    one = decoded[0]
    ref = next(r for r in tr if r.root == one.root)
    np.testing.assert_allclose(np.sort(one.node_ids), np.sort(ref.node_ids))


def test_parquet_source_batches_span_fragments(tmp_path):
    """Every batch but the last holds ``batch_size`` records, even when
    no fragment size is a multiple of it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    sizes, blobs = (7, 5, 9), []
    for i, n in enumerate(sizes):
        part = [f"{i}-{j}".encode() for j in range(n)]
        table = pa.table({"gf": pa.array(part, pa.binary())})
        pq.write_table(table, tmp_path / f"part-{i}.parquet")
        blobs += part
    got = list(ParquetSource(str(tmp_path), batch_size=4).batches(0))
    assert [len(b) for b in got] == [4, 4, 4, 4, 4, 1]
    assert [r for b in got for r in b] == blobs


def test_trainer_on_parquet_source_learns(spark, uug_recs, tmp_path):
    ds, tr, _ = uug_recs
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:40]}))
    store_graph_features(
        build_graph_features(nodes_df, edges_df, targets, 2), str(tmp_path / "gf2")
    )
    t = GraphTrainer(_cfg(), ds.feat_dim)
    src = ParquetSource(str(tmp_path / "gf2"), batch_size=16)
    losses = [t.train_epoch(src, e) for e in range(10)]
    assert losses[-1] < losses[0]


def test_multiclass_task_cora(spark):
    ds = cora_lite(n=400, n_train=80, n_val=40, n_test=40, seed=52)
    nodes_df, edges_df = ds.to_spark(spark)
    train = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")}))
    test = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("test")}))
    tr = collect_records(build_graph_features(nodes_df, edges_df, train, 2))
    te = collect_records(build_graph_features(nodes_df, edges_df, test, 2))
    t = GraphTrainer(
        TrainConfig(kind="gcn", n_layers=2, hidden=16, n_out=7, task="multiclass",
                    lr=0.02, batch_size=32, seed=3),
        ds.feat_dim,
    )
    src = MemorySource(tr, batch_size=32)
    for e in range(30):
        t.train_epoch(src, e)
    assert t.evaluate(te) > 0.5  # 7 classes, chance ≈ 0.14


def test_whole_graph_trainer_systems_agree(uug_recs):
    """dgl_sim and pyg_sim differ only in kernels — identical losses."""
    ds, _, _ = uug_recs
    ids = ds.nodes["id"].to_numpy()
    train_ids = ds.split_ids("train")[:40]
    labels = ds.label_matrix()[np.searchsorted(ids, train_ids)]
    bg = whole_graph_batch(
        ids, ds.feat_matrix(), ds.edges["src"].to_numpy(), ds.edges["dst"].to_numpy(),
        ds.edges["w"].to_numpy(), train_ids, labels,
    )
    a = WholeGraphTrainer(_cfg(), bg, system="dgl_sim")
    b = WholeGraphTrainer(_cfg(), bg, system="pyg_sim")
    for e in range(3):
        la, lb = a.train_epoch(e), b.train_epoch(e)
        np.testing.assert_allclose(la, lb, rtol=1e-8)


def test_whole_graph_unknown_system_raises(uug_recs):
    ds, _, _ = uug_recs
    ids = ds.nodes["id"].to_numpy()
    bg = whole_graph_batch(
        ids, ds.feat_matrix(), ds.edges["src"].to_numpy(), ds.edges["dst"].to_numpy(),
        ds.edges["w"].to_numpy(), ids[:4], ds.label_matrix()[:4],
    )
    with pytest.raises(ValueError):
        WholeGraphTrainer(_cfg(), bg, system="tf_sim")


def test_pipeline_yields_same_batches_in_order(uug_recs):
    ds, tr, _ = uug_recs
    t_pipe = GraphTrainer(_cfg(pipeline=True), ds.feat_dim)
    t_seq = GraphTrainer(_cfg(pipeline=False), ds.feat_dim)
    src = MemorySource(tr, batch_size=8)
    got = [bg.node_ids.tolist() for bg, _ in t_pipe._vectorized_batches(src, 0)]
    want = [bg.node_ids.tolist() for bg, _ in t_seq._vectorized_batches(src, 0)]
    assert got == want
