"""GraphFeature codec + storage: binary record round trip, parquet
round trip, decoded record integrity."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from repro.core.graphfeature import (
    SubgraphRecord,
    collect_records,
    load_graph_features,
    store_graph_features,
)
from repro.core.graphflat import EDGE, NODE, _assemble, _key_groups, build_graph_features
from repro.graphs.generators import uug_lite


@pytest.fixture(scope="module")
def gf(spark):
    ds = uug_lite(n=120, seed=31)
    nodes_df, edges_df = ds.to_spark(spark)
    targets = spark.createDataFrame(pd.DataFrame({"id": ds.split_ids("train")[:12]}))
    return ds, build_graph_features(nodes_df, edges_df, targets, 2)


def _sample_record():
    return SubgraphRecord(
        root=7,
        label=np.array([1.0]),
        node_ids=np.array([7, 3, 9]),
        dists=np.array([0, 1, 2]),
        feats=np.array([[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]]),
        e_src=np.array([3, 9]),
        e_dst=np.array([7, 3]),
        e_w=np.array([1.0, 0.25]),
    )


def test_bytes_roundtrip():
    r = _sample_record()
    r2 = SubgraphRecord.from_bytes(r.to_bytes())
    np.testing.assert_array_equal(r2.node_ids, r.node_ids)
    np.testing.assert_array_equal(r2.dists, r.dists)
    np.testing.assert_allclose(r2.feats, r.feats)
    np.testing.assert_array_equal(r2.e_src, r.e_src)
    np.testing.assert_allclose(r2.e_w, r.e_w)
    np.testing.assert_allclose(r2.label, r.label)
    assert r2.root == r.root


def test_bytes_roundtrip_empty_edges():
    r = SubgraphRecord(
        root=3,
        label=np.array([]),
        node_ids=np.array([3]),
        dists=np.array([0]),
        feats=np.array([[2.0, 4.0]]),
        e_src=np.empty(0, np.int64),
        e_dst=np.empty(0, np.int64),
        e_w=np.empty(0),
    )
    r2 = SubgraphRecord.from_bytes(r.to_bytes())
    assert r2.n_edges == 0 and r2.label.size == 0
    np.testing.assert_allclose(r2.feats, r.feats)


def test_empty_edges_record_roundtrip():
    r = SubgraphRecord(
        root=0,
        label=np.array([0.0]),
        node_ids=np.array([0]),
        dists=np.array([0]),
        feats=np.array([[1.0]]),
        e_src=np.empty(0, np.int64),
        e_dst=np.empty(0, np.int64),
        e_w=np.empty(0),
    )
    r2 = SubgraphRecord.from_bytes(r.to_bytes())
    assert r2.n_edges == 0 and r2.n_nodes == 1


def test_encode_reads_list_offsets_of_a_sliced_batch():
    """GraphFlat's assembly reducer reads the ``feat`` and ``label``
    list columns of a batch sliced out of a larger one (non-zero first
    offsets, as ``_key_groups`` hands it), drops an edge whose endpoint
    has no node row, gives a null label as an empty segment and emits
    nothing for a root without a node row of its own."""
    node_rows = {  # key -> [(id, dist, feat, label)]
        5: [(5, 0, [0.0, 0.5], [1.0])],
        7: [(3, 1, [2.5, 3.5], None), (7, 0, [0.5, 1.5], [1.0]), (9, 2, [4.5, 5.5], None)],
        8: [(8, 0, [6.0, 7.0], None)],
    }
    edge_rows = {  # key -> [(src, dst, w)], sorted
        5: [(5, 5, 9.0)],
        7: [(-1, 7, 3.0), (3, 7, 1.0), (9, 3, 0.25)],
        8: [],
    }
    rows = [
        row
        for key in (5, 7, 8)
        for row in [(key, NODE, i, d, None, f, lab) for i, d, f, lab in node_rows[key]]
        + [(key, EDGE, s, t, w, None, None) for s, t, w in edge_rows[key]]
    ]
    types = [pa.int64(), pa.int8(), pa.int64(), pa.int64(), pa.float64(),
             pa.list_(pa.float64()), pa.list_(pa.float64())]
    rb = pa.RecordBatch.from_arrays(
        [pa.array([r[c] for r in rows], t) for c, t in enumerate(types)],
        names=["key", "kind", "u", "v", "w", "feat", "label"],
    )
    # slicing off root 5's node row leaves its edge row without a node
    out = pa.Table.from_batches(list(_assemble(_key_groups(iter([rb.slice(1)])))))
    assert out.column("root").to_pylist() == [7, 8]
    seven = SubgraphRecord(
        root=7, label=np.array([1.0]), node_ids=np.array([3, 7, 9]), dists=np.array([1, 0, 2]),
        feats=np.array([[2.5, 3.5], [0.5, 1.5], [4.5, 5.5]]),
        e_src=np.array([3, 9]), e_dst=np.array([7, 3]), e_w=np.array([1.0, 0.25]),
    )  # the edge from -1, which has no node, is dropped
    eight = SubgraphRecord(
        root=8, label=np.array([]), node_ids=np.array([8]), dists=np.array([0]),
        feats=np.array([[6.0, 7.0]]), e_src=np.empty(0, np.int64),
        e_dst=np.empty(0, np.int64), e_w=np.empty(0),
    )
    assert out.column("gf").to_pylist() == [seven.to_bytes(), eight.to_bytes()]


def test_collect_records_decodes_rows(gf):
    ds, gf_df = gf
    recs = collect_records(gf_df)
    assert len(recs) == 12
    X = ds.feat_matrix()
    for r in recs:
        assert r.node_ids.shape == r.dists.shape
        assert r.feats.shape == (r.n_nodes, ds.feat_dim)
        i = int(np.flatnonzero(r.node_ids == r.root)[0])
        assert r.dists[i] == 0
        np.testing.assert_allclose(r.feats[i], X[r.root])


def test_store_load_parquet_roundtrip(spark, gf, tmp_path):
    _, gf_df = gf
    path = str(tmp_path / "gfs")
    store_graph_features(gf_df, path)
    back = load_graph_features(spark, path)
    assert back.count() == 12
    rows = back.collect()
    direct = {r.root: r for r in collect_records(gf_df)}
    for row in rows:
        r = SubgraphRecord.from_bytes(row["gf"])
        assert row["root"] == r.root
        d = direct[r.root]
        np.testing.assert_array_equal(np.sort(r.node_ids), np.sort(d.node_ids))
        assert r.n_edges == d.n_edges
        np.testing.assert_allclose(np.sort(r.e_w), np.sort(d.e_w))
