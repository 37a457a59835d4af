"""Dataset generators: determinism, structure, splits, Spark lifting.

Degree/count queries are verified against DuckDB via the oracle.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.generators import DATASETS, cora_lite, ppi_lite, uug_lite
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small():
    return {
        "cora_lite": cora_lite(n=300, n_train=40, n_val=50, n_test=60, seed=7),
        "ppi_lite": ppi_lite(n_graphs=3, nodes_per_graph=80, n_train_graphs=1, seed=7),
        "uug_lite": uug_lite(n=400, seed=7),
    }


@pytest.mark.parametrize("name", list(DATASETS))
def test_deterministic_in_seed(name):
    kw = {"cora_lite": dict(n=100, n_train=10, n_val=10, n_test=10),
          "ppi_lite": dict(n_graphs=2, nodes_per_graph=50, n_train_graphs=1, n_val_graphs=1),
          "uug_lite": dict(n=100)}[name]
    a, b = DATASETS[name](seed=3, **kw), DATASETS[name](seed=3, **kw)
    pd.testing.assert_frame_equal(a.edges, b.edges)
    assert (a.nodes["split"] == b.nodes["split"]).all()
    np.testing.assert_array_equal(a.feat_matrix(), b.feat_matrix())


#: small sizes for the pinned-output test
PIN_KW = {
    "cora_lite": dict(n=120, n_train=20, n_val=20, n_test=20),
    "ppi_lite": dict(n_graphs=2, nodes_per_graph=60, n_train_graphs=1, n_val_graphs=1),
    "uug_lite": dict(n=150),
}
#: (name, seed) -> sha256 prefixes of (nodes, edges), from frame_digest
PINNED = {
    ("cora_lite", 0): ("c7c67c6c73505010", "d6dd687795a3a320"),
    ("cora_lite", 1): ("f31076986fc95b17", "581aa98ada907ada"),
    ("ppi_lite", 0): ("3721e8c39e99f297", "eeda5c1afc495061"),
    ("ppi_lite", 1): ("4d80615cbc5eb7b5", "18947fe5eb42ab49"),
    ("uug_lite", 0): ("4ccc0bdd64c92ec8", "2d734279f1de4697"),
    ("uug_lite", 1): ("c3194b7e973d2328", "365fbe74c4b32931"),
}


def frame_digest(df: pd.DataFrame) -> str:
    """sha256 prefix over every column's name, dtype and values (list
    columns stacked into a float64 matrix)."""
    h = hashlib.sha256()
    for c in df.columns:
        v = df[c].to_numpy()
        if v.dtype == object and not isinstance(v[0], str):
            v = np.stack([np.asarray(x, dtype=np.float64) for x in v])
        h.update(f"{c}:{v.dtype}:{v.shape}".encode())
        h.update("\0".join(v).encode() if v.dtype == object else np.ascontiguousarray(v).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name,seed", list(PINNED))
def test_output_is_pinned(name, seed):
    """Each generator's frames stay byte-for-byte what they were when
    pinned (numpy 1.26, pandas 2): no refactor may change the data."""
    ds = DATASETS[name](seed=seed, **PIN_KW[name])
    assert (frame_digest(ds.nodes), frame_digest(ds.edges)) == PINNED[(name, seed)]


@pytest.mark.parametrize("name", list(DATASETS))
def test_schema_and_shapes(small, name):
    ds = small[name]
    assert set(ds.nodes.columns) == {"id", "feat", "label", "split"}
    assert set(ds.edges.columns) == {"src", "dst", "w"}
    X = ds.feat_matrix()
    assert X.shape == (len(ds.nodes), ds.feat_dim)
    Y = ds.label_matrix()
    if ds.task == "multilabel":
        assert Y.shape[1] == ds.n_classes and set(np.unique(Y)) <= {0.0, 1.0}
    else:
        assert Y.shape[1] == 1


@pytest.mark.parametrize("name", list(DATASETS))
def test_edges_reference_valid_nodes(small, name):
    ds = small[name]
    ids = set(ds.nodes["id"])
    assert set(ds.edges["src"]).issubset(ids)
    assert set(ds.edges["dst"]).issubset(ids)
    assert (ds.edges["src"] != ds.edges["dst"]).all()  # no self loops in input


@pytest.mark.parametrize("name", list(DATASETS))
def test_splits_disjoint(small, name):
    ds = small[name]
    tr, va, te = ds.split_ids("train"), ds.split_ids("val"), ds.split_ids("test")
    assert len(set(tr) & set(va)) == 0
    assert len(set(tr) & set(te)) == 0
    assert len(set(va) & set(te)) == 0
    assert len(tr) > 0 and len(va) > 0 and len(te) > 0


def test_cora_split_sizes_match_paper():
    ds = cora_lite(seed=0)
    assert len(ds.nodes) == 2708
    assert len(ds.split_ids("train")) == 140
    assert len(ds.split_ids("val")) == 500
    assert len(ds.split_ids("test")) == 1000


def test_cora_is_symmetric(small):
    e = small["cora_lite"].edges
    fwd = set(zip(e.src, e.dst))
    assert all((d, s) in fwd for s, d in fwd)


def test_ppi_graphs_are_disconnected(small):
    ds = small["ppi_lite"]
    # edges never cross the per-graph id blocks of 80
    g_src = ds.edges["src"] // 80
    g_dst = ds.edges["dst"] // 80
    assert (g_src == g_dst).all()


def test_ppi_split_by_graph(small):
    ds = small["ppi_lite"]
    by_graph = ds.nodes.groupby(ds.nodes["id"] // 80)["split"].nunique()
    assert (by_graph == 1).all()


def test_uug_has_hubs(small):
    ds = small["uug_lite"]
    deg = ds.edges.groupby("dst").size()
    assert deg.max() > 10 * max(deg.median(), 1)  # heavy-tailed in-degree


def test_uug_is_directed(small):
    e = small["uug_lite"].edges
    fwd = set(zip(e.src, e.dst))
    assert any((d, s) not in fwd for s, d in fwd)


def test_uug_marker_feature_column(small):
    X = small["uug_lite"].feat_matrix()
    assert set(np.unique(X[:, 1])) <= {0.0, 1.0}


def test_uug_labels_not_degenerate(small):
    y = small["uug_lite"].label_matrix()[:, 0]
    assert 0.2 < y.mean() < 0.8


def test_to_spark_roundtrip_counts(spark, small):
    ds = small["cora_lite"]
    nodes_df, edges_df = ds.to_spark(spark)
    assert nodes_df.count() == len(ds.nodes)
    assert edges_df.count() == len(ds.edges)
    row = nodes_df.filter(F.col("id") == 0).first()
    np.testing.assert_allclose(np.array(row["feat"]), ds.feat_matrix()[0])


def test_degree_table_matches_duckdb(spark, small):
    ds = small["uug_lite"]
    _, edges_df = ds.to_spark(spark)
    got = edges_df.groupBy("dst").agg(F.count("*").alias("in_deg"))
    assert_equivalent(
        got,
        "SELECT dst, count(*) AS in_deg FROM edges GROUP BY dst",
        edges=ds.edges,
    )


def test_split_counts_match_duckdb(spark, small):
    ds = small["cora_lite"]
    nodes_df, _ = ds.to_spark(spark)
    got = nodes_df.groupBy("split").agg(F.count("*").alias("n"))
    assert_equivalent(
        got,
        "SELECT split, count(*) AS n FROM nodes GROUP BY split",
        nodes=ds.nodes[["id", "split"]].assign(split=ds.nodes["split"]),
    )
