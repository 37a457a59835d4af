"""Parameter server (§3.3): distributed gradient ≡ local gradient
(the data-independence claim), worker-count invariance, convergence."""
from __future__ import annotations

import gc
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.core.graphfeature import SubgraphRecord, store_graph_features, load_graph_features
from repro.core.graphflat import build_graph_features
from repro.core.ps import (
    _partition_gradients,
    _prepared,
    _vectorize_partition,
    distributed_gradient,
    train_parameter_server,
)
from repro.core.trainer import TrainConfig
from repro.graphs.generators import uug_lite


@pytest.fixture(scope="module")
def gf_strings(spark, tmp_path_factory):
    ds = uug_lite(n=200, seed=61)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:32]}))
    gf = build_graph_features(nodes_df, edges_df, targets, 2)
    path = str(tmp_path_factory.mktemp("ps") / "gf")
    store_graph_features(gf, path)
    gf = load_graph_features(spark, path).cache()
    gf.count()  # cache it now, not inside the first test's actions
    return ds, gf


def _cfg():
    return TrainConfig(kind="gcn", n_layers=2, hidden=6, n_out=1, task="binary",
                       lr=0.05, batch_size=8, seed=5)


def _local_reference(strings, cfg, d_in, params):
    batches = _vectorize_partition(iter(strings), cfg, d_in)
    out = list(_partition_gradients(batches, cfg, d_in, params))
    assert len(out) == 1
    g, loss, n = out[0]
    return {k: v / n for k, v in g.items()}, loss / n


@pytest.mark.parametrize("n_workers", [1, 2, 4, 7])
def test_distributed_gradient_equals_local(spark, gf_strings, n_workers):
    """Σ over any partitioning of the records gives the same gradient —
    the property that lets AGL train on a plain PS with data parallel."""
    ds, gf = gf_strings
    cfg = _cfg()
    params = cfg.build_model(ds.feat_dim).get_params()
    strings = sorted(r["gf"] for r in gf.collect())
    ref_g, ref_loss = _local_reference(strings, cfg, ds.feat_dim, params)
    got_g, got_loss = distributed_gradient(gf, cfg, ds.feat_dim, params, n_workers)
    np.testing.assert_allclose(got_loss, ref_loss, rtol=1e-9)
    for k in ref_g:
        np.testing.assert_allclose(got_g[k], ref_g[k], rtol=1e-7, atol=1e-10, err_msg=k)


def _persistent_rdds(sc) -> int:
    return sc._jsc.getPersistentRDDs().size()


@pytest.mark.parametrize("n_workers", [1, 2, 4, 7])
def test_cached_rounds_track_new_params(spark, gf_strings, n_workers):
    """Rounds on one frame reuse the workers' cached batches, not their
    gradients: each round matches the local gradient at its own params,
    and a later round is one job whose shuffle-map stage runs no task."""
    ds, gf = gf_strings
    cfg = _cfg()
    strings = sorted(r["gf"] for r in gf.collect())
    params_a = cfg.build_model(ds.feat_dim).get_params()
    rng = np.random.default_rng(n_workers)
    params_b = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in params_a.items()}
    sc = spark.sparkContext
    group = f"test_ps.cached_round.{n_workers}"
    for i, params in enumerate((params_a, params_b)):
        ref_g, ref_loss = _local_reference(strings, cfg, ds.feat_dim, params)
        if i == 1:
            sc.setJobGroup(group, "second PS round")
        try:
            got_g, got_loss = distributed_gradient(gf, cfg, ds.feat_dim, params, n_workers)
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        np.testing.assert_allclose(got_loss, ref_loss, rtol=1e-9)
        for k in ref_g:
            np.testing.assert_allclose(got_g[k], ref_g[k], rtol=1e-7, atol=1e-10, err_msg=k)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    assert len(jobs) == 1
    stage_ids = sorted(tracker.getJobInfo(jobs[0]).stageIds)
    assert len(stage_ids) == 2  # the repartition's shuffle-map stage, then the result stage
    shuffle_map, result = (tracker.getStageInfo(s) for s in stage_ids)
    assert result.numCompletedTasks == n_workers
    assert shuffle_map.numCompletedTasks == 0


def test_prepared_batches_memo_key_and_lifetime(spark, gf_strings):
    """Equal (frame, batch-shaping config, n_workers) → one cached RDD;
    any of them changed → another. Dropping the frame unpersists them."""
    ds, gf = gf_strings
    sc = spark.sparkContext
    gc.collect()
    before = _persistent_rdds(sc)
    frame = gf.select("root", "gf")
    cfg = _cfg()
    a = _prepared(frame, cfg, ds.feat_dim, 2)
    assert a.is_cached
    assert _prepared(frame, _cfg(), ds.feat_dim, 2) is a
    cfg.lr, cfg.hidden = 0.5, 9  # fields that shape no batch
    assert _prepared(frame, cfg, ds.feat_dim, 2) is a
    others = [
        _prepared(frame, _cfg(), ds.feat_dim, 3),
        _prepared(frame, replace(_cfg(), batch_size=5), ds.feat_dim, 2),
        _prepared(frame, replace(_cfg(), pruning=True), ds.feat_dim, 2),
        _prepared(gf.select("root", "gf"), _cfg(), ds.feat_dim, 2),
    ]
    assert len({id(r) for r in [a, *others]}) == 5
    params = _cfg().build_model(ds.feat_dim).get_params()
    train_parameter_server(frame, _cfg(), ds.feat_dim, epochs=2, n_workers=2)
    distributed_gradient(frame, replace(_cfg(), pruning=True), ds.feat_dim, params, 2)
    assert _persistent_rdds(sc) > before
    del frame, a, others
    gc.collect()
    assert _persistent_rdds(sc) == before


def test_ps_training_loss_decreases(spark, gf_strings):
    ds, gf = gf_strings
    res = train_parameter_server(gf, _cfg(), ds.feat_dim, epochs=12, n_workers=4)
    assert res.losses[-1] < res.losses[0] * 0.95
    assert all(np.isfinite(v).all() for v in res.params.values())


def test_ps_converges_same_regardless_of_workers(spark, gf_strings):
    """Figure-7 property: the trajectory is worker-count independent in
    the synchronous PS (exact gradients)."""
    ds, gf = gf_strings
    r1 = train_parameter_server(gf, _cfg(), ds.feat_dim, epochs=4, n_workers=1)
    r4 = train_parameter_server(gf, _cfg(), ds.feat_dim, epochs=4, n_workers=4)
    np.testing.assert_allclose(r1.losses, r4.losses, rtol=1e-7)
    for k in r1.params:
        np.testing.assert_allclose(r1.params[k], r4.params[k], rtol=1e-6, atol=1e-9)


def test_partition_gradients_empty_partition_yields_nothing():
    cfg = _cfg()
    assert list(_partition_gradients(iter([]), cfg, 4, {})) == []


def test_distributed_gradient_on_empty_frame_raises(spark, gf_strings):
    ds, gf = gf_strings
    cfg = _cfg()
    params = cfg.build_model(ds.feat_dim).get_params()
    with pytest.raises(ValueError, match="GraphFeature frame is empty"):
        distributed_gradient(gf.limit(0), cfg, ds.feat_dim, params, 2)
