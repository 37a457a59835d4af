"""GraphInfer (§3.4): slice segmentation, and the three-way equality
GraphInfer ≡ Original(GraphFeature) ≡ local whole-graph forward, per
model kind; sampling consistency; cost accounting."""
from __future__ import annotations

import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.graphfeature import store_graph_features, load_graph_features
from repro.core import graphflat, infer
from repro.core.graphflat import build_graph_features
from repro.core.infer import (
    inference_cost_report,
    run_graph_infer,
    run_original_inference,
)
from repro.core.sampling import sample_in_edges
from repro.core.vectorize import whole_graph_batch
from repro.graphs.generators import EDGE_SCHEMA, NODE_SCHEMA, GraphDataset, uug_lite
from repro.nn.models import NEEDS_SELF_LOOPS, GNNModel, layer_from_slice
from tests.test_graphflat import _persistent_rdds, key_partitions


@pytest.fixture(scope="module")
def setup(spark):
    ds = uug_lite(n=150, seed=71)
    nodes_df, edges_df = ds.to_spark(spark)
    return ds, nodes_df.cache(), edges_df.cache()


def _model(ds, kind, k=2, seed=9, n_heads=1):
    return GNNModel(kind, ds.feat_dim, 6, 1, k, "binary", n_heads=n_heads, seed=seed)


def _local_scores(ds, model, kind):
    ids = ds.nodes["id"].to_numpy()
    bg = whole_graph_batch(
        ids, ds.feat_matrix(), ds.edges["src"].to_numpy(), ds.edges["dst"].to_numpy(),
        ds.edges["w"].to_numpy(), ids, np.zeros((len(ids), 1)),
    )
    adj = bg.adj_list(model.n_layers, self_loops=NEEDS_SELF_LOOPS[kind], pruning=False)
    return model.forward(bg.X, adj, np.arange(len(ids)))


def test_slices_count_and_roundtrip(setup):
    ds, _, _ = setup
    model = _model(ds, "gat")
    slices = model.to_slices()
    assert len(slices) == 3  # K + 1 with K=2
    for spec in slices:
        lyr = layer_from_slice(spec)
        for k, v in spec["params"].items():
            np.testing.assert_array_equal(lyr.params[k], v)


#: (kind, n_heads): every layer kind, and GAT's multi-head slices
KIND_HEADS = pytest.mark.parametrize(
    "kind,n_heads", [("gcn", 1), ("sage", 1), ("gat", 1), ("gat", 2)],
    ids=["gcn", "sage", "gat", "gat-2h"],
)


@KIND_HEADS
def test_graph_infer_matches_local_forward(spark, setup, kind, n_heads):
    """Every node's distributed score equals the single-machine
    whole-graph forward — the slice-wise pipeline is exact."""
    ds, nodes_df, edges_df = setup
    model = _model(ds, kind, n_heads=n_heads)
    got = run_graph_infer(nodes_df, edges_df, model.to_slices()).toPandas()
    got = got.sort_values("id").reset_index(drop=True)
    want = _local_scores(ds, model, kind)
    assert len(got) == len(ds.nodes)
    np.testing.assert_allclose(
        np.array([s[0] for s in got["score"]]), want[:, 0], rtol=1e-8, atol=1e-8
    )


@KIND_HEADS
def test_round_reducer_emits_the_block_forward_with_every_peer(kind, n_heads):
    """One round-0 block, built by hand and sorted by ``(key, kind, peer)``:
    node 7 only sends, node 2 sends and has a self row, node 3 has a self
    row and no messages. The reducer's self rows carry the layer forward
    over the block, bit for bit, and every row it emits has a ``peer``,
    ``key`` itself on a self row."""
    S, M, O = infer.SELF, infer.MSG, infer.OUT
    X = dict(zip([1, 2, 3, 7], np.random.default_rng(5).normal(size=(4, 3))))
    # (key, peer, w, kind): in-edges 7→1, 2→1, 7→2; out-edges 1→9, 2→1, 3→9
    rows = [(1, 1, None, S), (1, 2, 0.5, M), (1, 7, 2.0, M), (1, 9, 1.5, O),
            (2, 2, None, S), (2, 7, 0.25, M), (2, 1, 0.5, O),
            (3, 3, None, S), (3, 9, 3.0, O)]
    key, peer, w, kinds = map(list, zip(*rows))
    rb = pa.RecordBatch.from_arrays([
        pa.array(key, pa.int64()), pa.array(peer, pa.int64()), pa.array(w, pa.float64()),
        pa.array(kinds, pa.int8()),
        pa.array([None if k == O else X[p].tolist() for p, k in zip(peer, kinds)],
                 pa.list_(pa.float64())),
    ], names=["key", "peer", "w", "kind", "h"])
    spec = GNNModel(kind, 3, 4, 1, 1, "binary", n_heads=n_heads, seed=2).to_slices()[0]
    out = pa.Table.from_batches(list(infer._round_fn(spec, None)(iter([rb]))))

    layer = layer_from_slice(spec)
    ids = np.array([1, 2, 3, 7])
    bg = whole_graph_batch(
        ids, np.stack([X[i] for i in ids]), np.array([2, 7, 7]), np.array([1, 1, 2]),
        np.array([0.5, 2.0, 0.25]), np.array([1, 2, 3]), np.empty((3, 0)),
    )
    want = layer.forward(
        bg.X, bg.adj_list(1, self_loops=layer.self_loops, pruning=False)[0]
    )[bg.target_idx]
    got = out.to_pydict()
    assert out.column("peer").null_count == 0
    self_rows = [i for i, k in enumerate(got["kind"]) if k == S]
    assert [got["key"][i] for i in self_rows] == [1, 2, 3]
    assert [got["peer"][i] for i in self_rows] == [1, 2, 3]
    np.testing.assert_array_equal(np.array([got["h"][i] for i in self_rows]), want)


@KIND_HEADS
def test_original_inference_matches_graph_infer(spark, setup, tmp_path, kind, n_heads):
    """The Original per-GraphFeature baseline produces the same scores —
    it is only slower, never different (Table 5 compares cost only)."""
    ds, nodes_df, edges_df = setup
    model = _model(ds, kind, n_heads=n_heads)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.nodes["id"][:60]}))
    gf = build_graph_features(nodes_df, edges_df, targets, 2)
    path = str(tmp_path / f"gf_{kind}")
    store_graph_features(gf, path)
    orig = run_original_inference(
        load_graph_features(spark, path), model.to_slices(), n_layers=2
    ).toPandas().sort_values("id")
    gi = run_graph_infer(nodes_df, edges_df, model.to_slices()).toPandas()
    gi = gi[gi["id"].isin(set(orig["id"]))].sort_values("id")
    np.testing.assert_allclose(
        np.array([s[0] for s in orig["score"]]),
        np.array([s[0] for s in gi["score"]]),
        rtol=1e-8,
        atol=1e-8,
    )


def _scores(df) -> np.ndarray:
    got = df.toPandas().sort_values("id")
    return np.array([s[0] for s in got["score"]])


@pytest.mark.parametrize("partitions", [1, 7])
@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_graph_infer_key_groups_span_arrow_batches(spark, setup, kind, partitions):
    """With 7-row Arrow batches a node's rows (self + messages +
    out-edges) span several batches, and the reducer must carry each
    batch's trailing key group into the next; the result is also the
    same for one shuffle partition or seven."""
    ds, nodes_df, edges_df = setup
    group_rows = 1 + ds.edges["dst"].value_counts() + ds.edges["src"].value_counts()
    assert group_rows.max() > 7  # some key group is longer than a batch
    model = _model(ds, kind)
    confs = {
        "spark.sql.execution.arrow.maxRecordsPerBatch": "7",
        "spark.sql.shuffle.partitions": str(partitions),
    }
    saved = {k: spark.conf.get(k, None) for k in confs}
    run_graph_infer(nodes_df, edges_df, model.to_slices())  # memoize the round tables
    try:
        for k, v in confs.items():
            spark.conf.set(k, v)
        gi = run_graph_infer(nodes_df, edges_df, model.to_slices())
        # a memo hit still plans every round under the current conf
        assert key_partitions(gi) == {partitions}
        got = _scores(gi)
    finally:
        for k, v in saved.items():
            spark.conf.unset(k) if v is None else spark.conf.set(k, v)
    np.testing.assert_allclose(got, _local_scores(ds, model, kind)[:, 0], rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("missing", ["src", "dst"])
@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_graph_infer_ignores_edges_to_unknown_nodes(spark, setup, kind, missing):
    """Edges whose src or dst is not in the node table change no score:
    the result equals the forward over the graph without them."""
    ds, nodes_df, _ = setup
    ids = ds.nodes["id"].to_numpy()
    ghosts = pd.DataFrame({missing: [-1, -2, -1], "w": [1.0, 2.0, 0.5]})
    ghosts["dst" if missing == "src" else "src"] = ids[[0, 1, len(ids) - 1]]
    edges = pd.concat([ds.edges, ghosts[["src", "dst", "w"]]], ignore_index=True)
    edges_df = spark.createDataFrame(edges.astype({"src": "int64", "dst": "int64"}))
    model = _model(ds, kind)
    got = _scores(run_graph_infer(nodes_df, edges_df, model.to_slices()))
    np.testing.assert_allclose(got, _local_scores(ds, model, kind)[:, 0], rtol=1e-8, atol=1e-8)


@pytest.mark.parametrize("ghosts", [[-1, -2], [99, 98]])
def test_original_ignores_edges_from_unknown_nodes(spark, tmp_path, ghosts):
    """Edges from nodes missing from the node table are left out of the
    stored GraphFeatures, so Original, GraphInfer and the graph without
    those edges give the same scores."""
    rng = np.random.default_rng(5)
    nodes = pd.DataFrame({
        "id": np.arange(6), "feat": rng.normal(size=(6, 3)).tolist(),
        "label": [[0.0]] * 6, "split": ["train"] * 6,
    })
    clean = pd.DataFrame({"src": [2, 3, 4, 5, 0, 1], "dst": [0, 0, 1, 2, 3, 4], "w": 1.0})
    dirty = pd.concat(
        [clean, pd.DataFrame({"src": ghosts, "dst": [0, 1], "w": 1.0})], ignore_index=True
    )
    nodes_df = spark.createDataFrame(nodes, schema=NODE_SCHEMA)
    clean_df, dirty_df = (spark.createDataFrame(e, schema=EDGE_SCHEMA) for e in (clean, dirty))
    slices = GNNModel("gat", 3, 4, 1, 2, "binary", seed=2).to_slices()
    path = str(tmp_path / "gf")
    store_graph_features(build_graph_features(nodes_df, dirty_df, nodes_df.select("id"), 2), path)
    want = _scores(run_graph_infer(nodes_df, clean_df, slices))
    orig = _scores(run_original_inference(load_graph_features(spark, path), slices, n_layers=2))
    np.testing.assert_allclose(orig, want, rtol=1e-8, atol=1e-8)
    gi = _scores(run_graph_infer(nodes_df, dirty_df, slices))
    np.testing.assert_allclose(gi, want, rtol=1e-8, atol=1e-8)


def test_pipelines_reject_non_finite_edge_weights(spark):
    """The ingest contract: GraphInfer and GraphFlat raise, before any
    sampling, on an edge whose weight is null, NaN or infinite (it used
    to give its destination a NaN score); w ≤ 0 stays legal for uniform
    sampling."""
    rng = np.random.default_rng(3)
    nodes = pd.DataFrame({
        "id": np.arange(4), "feat": rng.normal(size=(4, 3)).tolist(),
        "label": [[0.0]] * 4, "split": ["train"] * 4,
    })
    nodes_df = spark.createDataFrame(nodes, schema=NODE_SCHEMA)
    edges = pd.DataFrame({"src": [0, 2, 3], "dst": [1, 1, 2], "w": [1.0, -1.0, 1.0]})
    legal = spark.createDataFrame(edges, schema=EDGE_SCHEMA)
    slices = GNNModel("gcn", 3, 4, 1, 2, "binary", seed=2).to_slices()
    assert np.isfinite(_scores(run_graph_infer(nodes_df, legal, slices))).all()
    msg = "sampled_edges: 1 edges have a null, NaN or infinite w"
    for bad_w in (None, float("nan"), float("inf"), float("-inf")):
        w = F.when(F.col("src") == 2, F.lit(bad_w).cast("double")).otherwise(F.col("w"))
        bad = legal.withColumn("w", w)  # the 2 → 1 edge's weight
        # weighted sampling's own check would raise another message
        for opts in ({}, {"max_degree": 1}, {"max_degree": 1, "strategy": "weighted"}):
            with pytest.raises(ValueError, match=msg):
                run_graph_infer(nodes_df, bad, slices, **opts)
            with pytest.raises(ValueError, match=msg):
                build_graph_features(nodes_df, bad, nodes_df.select("id"), 2, **opts)


def test_pipelines_on_the_same_frames_sample_once(spark, monkeypatch):
    """GraphFlat and GraphInfer called on the same frames with the same
    sampling options share one sampled edge table: two GraphFlat runs
    and one GraphInfer run sample the edges once."""
    ds = uug_lite(n=60, seed=18)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:10]}))
    calls = []
    sample = graphflat.sample_in_edges

    def counting(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(graphflat, "sample_in_edges", counting)
    for _ in range(2):
        build_graph_features(nodes_df, edges_df, targets, 2, max_degree=4, seed=3).collect()
    run_graph_infer(nodes_df, edges_df, _model(ds, "gcn").to_slices(), max_degree=4, seed=3).collect()
    assert len(calls) == 1


def test_pipeline_plans_memo_key_and_lifetime(spark, monkeypatch):
    """Repeated GraphFlat and GraphInfer calls on the same frames and
    options build their model-independent plan once; another targets,
    k, max_degree, strategy or seed builds another, and a dropped
    targets frame takes its plan with it. Two models run
    alternately on one memoized plan each equal the local forward, and
    dropping the frames frees every table the memo cached."""
    ds = uug_lite(n=60, seed=19)
    sc = spark.sparkContext
    gc.collect()
    before = _persistent_rdds(sc)
    nodes_df, edges_df = ds.to_spark(spark)
    ids = ds.split_ids("train")[:10]
    targets = spark.createDataFrame(pd.DataFrame({"id": ids}))
    khops, tables = [], []
    khop, round_tables = graphflat.khop_members, infer._round_tables

    def counting_khop(*args):
        khops.append(args[-1])  # k: holding the frames would keep them alive
        return khop(*args)

    def counting_tables(*args):
        tables.append(args)
        return round_tables(*args)

    monkeypatch.setattr(graphflat, "khop_members", counting_khop)
    monkeypatch.setattr(infer, "_round_tables", counting_tables)

    def flat(t=targets, k=2, **opts):
        gf = build_graph_features(nodes_df, edges_df, t, k, **{"max_degree": 4, "seed": 3, **opts})
        return {r["root"]: bytes(r["gf"]) for r in gf.collect()}

    first = flat()
    assert flat() == first and len(first) == 10
    assert len(khops) == 1
    other_targets = spark.createDataFrame(pd.DataFrame({"id": ids}))
    assert flat(other_targets) == first
    # GraphFlat's plan is memoized on targets and goes with it
    gone = weakref.ref(other_targets)
    del other_targets
    gc.collect()
    assert gone() is None
    flat(k=1), flat(max_degree=5), flat(strategy="weighted"), flat(seed=4)
    assert len(khops) == 6

    models = [(kind, _model(ds, kind, seed=s)) for kind, s in (("gcn", 1), ("gat", 2))]
    for _ in range(2):
        for kind, model in models:
            got = _scores(run_graph_infer(nodes_df, edges_df, model.to_slices()))
            want = _local_scores(ds, model, kind)[:, 0]
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8, err_msg=kind)
    assert len(tables) == 1
    slices = models[0][1].to_slices()
    for opts in ({"max_degree": 4}, {"max_degree": 4, "strategy": "weighted"}, {"seed": 4}):
        run_graph_infer(nodes_df, edges_df, slices, **opts)
        run_graph_infer(nodes_df, edges_df, slices, **opts)
    run_graph_infer(nodes_df, edges_df, _model(ds, "gcn", k=1).to_slices())
    assert len(tables) == 5

    assert _persistent_rdds(sc) > before
    # flat's default holds targets, whose plan holds nodes and edges
    del nodes_df, edges_df, targets, flat
    gc.collect()
    assert _persistent_rdds(sc) == before


def test_head_only_model_scores_node_features(spark, setup):
    """A model with no GNN slice scores each node's features with the
    head alone, and still reads the edges through the ingest contract: a
    non-finite weight raises."""
    ds, nodes_df, edges_df = setup
    slices = _model(ds, "gcn", k=0).to_slices()
    assert len(slices) == 1
    got = _scores(run_graph_infer(nodes_df, edges_df, slices))
    order = np.argsort(ds.nodes["id"].to_numpy())
    want = layer_from_slice(slices[0]).forward(ds.feat_matrix()[order])[:, 0]
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-8)
    src = int(ds.edges["src"].iloc[0])
    w = F.when(F.col("src") == src, F.lit(float("nan"))).otherwise(F.col("w"))
    with pytest.raises(ValueError, match="null, NaN or infinite w"):
        run_graph_infer(nodes_df, edges_df.withColumn("w", w), slices)


_MAX_DEGREE = 2


@st.composite
def _multigraphs(draw) -> GraphDataset:
    """A small directed multigraph over nodes ``0..n-1``: positive, zero
    and negative weights, duplicate edges with different weights, edges
    from or to ids with no node row, isolated nodes (``n-1`` has no edge
    between real nodes) and one hub with more in-edges than
    ``_MAX_DEGREE``."""
    n = draw(st.integers(6, 9))
    real = st.integers(0, n - 2)
    weight = st.one_of(st.floats(0.25, 4.0), st.just(0.0), st.floats(-4.0, -0.25))
    pairs = draw(st.lists(st.tuples(real, real).filter(lambda p: p[0] != p[1]), max_size=12))
    hub = draw(real)
    feeders = [u for u in range(n - 1) if u != hub][: _MAX_DEGREE + draw(st.integers(1, 3))]
    pairs += [(u, hub) for u in feeders]
    w = [draw(weight) for _ in pairs]
    dups = draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=4))
    pairs += [pairs[i] for i in dups]
    w += [w[i] + draw(st.sampled_from([-0.125, 0.5, 1.5])) for i in dups]
    ghosts = draw(st.lists(
        st.tuples(st.sampled_from([-2, -1, n, n + 1]), st.integers(0, n - 1), st.booleans()),
        min_size=1, max_size=4,
    ))
    pairs += [(g, u) if into else (u, g) for g, u, into in ghosts]
    w += [draw(weight) for _ in ghosts]
    feats = np.random.default_rng(draw(st.integers(0, 2**16))).normal(size=(n, 3))
    nodes = pd.DataFrame({
        "id": np.arange(n), "feat": feats.tolist(), "label": [[0.0]] * n, "split": ["train"] * n,
    })
    src, dst = np.array(pairs).T
    edges = pd.DataFrame({"src": src, "dst": dst, "w": w}).sample(frac=1.0, random_state=n)
    return GraphDataset("multigraph", "binary", 2, 3, nodes, edges.reset_index(drop=True))


@settings(max_examples=4, deadline=None)
@given(_multigraphs())
def test_property_multigraphs_infer_equals_original_and_local(spark, ds):
    """On multigraphs with signed weights, ghost endpoints, isolated
    nodes and a hub, GraphInfer and Original read one legal edge table: without sampling
    both equal the local forward over the graph with ghost edges dropped
    and each duplicate edge kept once with its largest weight; with
    sampling they still equal each other."""
    nodes_df, edges_df = ds.to_spark(spark)
    legal = ds.edges[ds.edges["src"].isin(ds.nodes["id"]) & ds.edges["dst"].isin(ds.nodes["id"])]
    canon = replace(ds, edges=legal.groupby(["src", "dst"], as_index=False)["w"].max())
    models = {kind: _model(ds, kind, seed=4) for kind in ("gcn", "sage", "gat")}
    parts = "spark.sql.shuffle.partitions"
    saved = spark.conf.get(parts)
    try:
        spark.conf.set(parts, "4")
        for max_degree in (None, _MAX_DEGREE):
            gf = build_graph_features(
                nodes_df, edges_df, nodes_df.select("id"), 2, max_degree=max_degree, seed=5
            )
            gf = spark.createDataFrame(gf.collect(), "root long, gf binary")
            for kind, model in models.items():
                slices = model.to_slices()
                gi = run_graph_infer(nodes_df, edges_df, slices, max_degree=max_degree, seed=5)
                gi = _scores(gi)
                orig = _scores(run_original_inference(gf, slices, n_layers=2))
                assert gi.shape == orig.shape == (len(ds.nodes),)
                np.testing.assert_allclose(orig, gi, rtol=1e-8, atol=1e-8, err_msg=kind)
                if max_degree is None:
                    want = _local_scores(canon, model, kind)[:, 0]
                    np.testing.assert_allclose(gi, want, rtol=1e-8, atol=1e-8, err_msg=kind)
    finally:
        spark.conf.set(parts, saved)


@pytest.mark.parametrize("n_layers", [1, 3])
def test_original_rejects_n_layers_not_matching_slices(spark, setup, n_layers):
    ds, _, _ = setup
    gf = spark.createDataFrame([], "root long, gf binary")
    with pytest.raises(ValueError, match="n_layers"):
        run_original_inference(gf, _model(ds, "gcn").to_slices(), n_layers=n_layers)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_graph_infer_plan_is_one_python_stage_per_round(spark, setup, k):
    """K GNN slices run as exactly K Python stages — the prediction
    slice is fused into the last one — with no aggregate: every round
    is a single shuffle into a sorted reducer."""
    ds, nodes_df, edges_df = setup
    df = run_graph_infer(nodes_df, edges_df, _model(ds, "gcn", k=k).to_slices())
    plan = df._jdf.queryExecution().executedPlan().toString()
    ops = re.findall(r"(?m)^[\s:|+-]*(\w+)", plan)
    assert sum(bool(re.search("Python|InPandas|InArrow", op)) for op in ops) == k
    assert not [op for op in ops if "Aggregate" in op]


def test_1layer_model_infer(spark, setup):
    ds, nodes_df, edges_df = setup
    model = _model(ds, "gcn", k=1)
    got = run_graph_infer(nodes_df, edges_df, model.to_slices()).toPandas()
    want = _local_scores(ds, model, "gcn")
    got = got.sort_values("id").reset_index(drop=True)
    np.testing.assert_allclose(
        np.array([s[0] for s in got["score"]]), want[:, 0], rtol=1e-8, atol=1e-8
    )


def test_sampling_consistency_training_vs_inference(spark, setup):
    """With the same (max_degree, strategy, seed), GraphInfer runs on the
    identical sampled edge set GraphFlat used (§3.4)."""
    ds, nodes_df, edges_df = setup
    sampled = sample_in_edges(edges_df, 3, strategy="uniform", seed=13).toPandas()
    model = _model(ds, "gcn")
    gi = run_graph_infer(
        nodes_df, edges_df, model.to_slices(), max_degree=3, seed=13
    ).toPandas().sort_values("id")
    # reference: local forward on the sampled graph
    ds2_edges = sampled.sort_values(["dst", "src"])
    ids = ds.nodes["id"].to_numpy()
    bg = whole_graph_batch(
        ids, ds.feat_matrix(), ds2_edges["src"].to_numpy(), ds2_edges["dst"].to_numpy(),
        ds2_edges["w"].to_numpy(), ids, np.zeros((len(ids), 1)),
    )
    want = model.forward(
        bg.X, bg.adj_list(2, self_loops=True, pruning=False), np.arange(len(ids))
    )
    np.testing.assert_allclose(
        np.array([s[0] for s in gi["score"]]), want[:, 0], rtol=1e-8, atol=1e-8
    )


def test_cost_report_shapes(spark, setup):
    ds, nodes_df, edges_df = setup
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.nodes["id"].to_numpy()}))
    rep = inference_cost_report(
        edges_df, targets, 2, len(ds.nodes), len(ds.edges)
    )
    # all-node inference with overlapping 2-hop neighborhoods must cost
    # strictly more node computations for Original than for GraphInfer
    assert rep["original_node_computations"] > rep["graphinfer_node_computations"]
    assert rep["graphinfer_node_computations"] == 2 * len(ds.nodes)
    assert rep["graphinfer_edge_traversals"] == 2 * len(ds.edges)
    assert rep["original_edge_traversals"] > 0
