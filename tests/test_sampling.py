"""Sampling framework & re-indexing (§3.2.2): degree caps, determinism,
weighted bias, and the salted two-phase ≡ direct top-k equivalence."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.sampling import sample_in_edges
from repro.graphs.generators import uug_lite
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def hub_edges(spark):
    ds = uug_lite(n=300, seed=21)
    return ds.edges, spark.createDataFrame(ds.edges)


@pytest.mark.parametrize("strategy", ["uniform", "weighted"])
@pytest.mark.parametrize("max_degree", [1, 3, 8])
def test_degree_cap_respected(spark, hub_edges, strategy, max_degree):
    _, edges_df = hub_edges
    out = sample_in_edges(edges_df, max_degree, strategy=strategy, seed=1)
    degs = out.groupBy("dst").count().agg(F.max("count")).first()[0]
    assert degs <= max_degree


def test_low_degree_nodes_untouched(spark, hub_edges):
    pdf, edges_df = hub_edges
    out = sample_in_edges(edges_df, 5, seed=2).toPandas()
    deg = pdf.groupby("dst").size()
    small = deg[deg <= 5].index
    got = out[out.dst.isin(small)].sort_values(["dst", "src"]).reset_index(drop=True)
    want = pdf[pdf.dst.isin(small)].sort_values(["dst", "src"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[["src", "dst"]], want[["src", "dst"]])


def test_sample_is_subset_of_input(spark, hub_edges):
    pdf, edges_df = hub_edges
    out = sample_in_edges(edges_df, 4, seed=3).toPandas()
    orig = set(zip(pdf.src, pdf.dst))
    assert all((s, d) in orig for s, d in zip(out.src, out.dst))


def test_deterministic_in_seed(spark, hub_edges):
    _, edges_df = hub_edges
    a = sample_in_edges(edges_df, 4, seed=5).toPandas().sort_values(["dst", "src"])
    b = sample_in_edges(edges_df, 4, seed=5).toPandas().sort_values(["dst", "src"])
    pd.testing.assert_frame_equal(a.reset_index(drop=True), b.reset_index(drop=True))


def test_different_seeds_differ(spark, hub_edges):
    _, edges_df = hub_edges
    a = sample_in_edges(edges_df, 3, seed=5).toPandas()
    b = sample_in_edges(edges_df, 3, seed=6).toPandas()
    assert set(zip(a.src, a.dst)) != set(zip(b.src, b.dst))


@pytest.mark.parametrize("strategy", ["uniform", "weighted"])
def test_reindexing_equals_direct(spark, hub_edges, strategy):
    """Salting + partial reduce + inverted index is a pure load-balance
    trick — the selected edge set must be identical to the direct path."""
    _, edges_df = hub_edges
    direct = sample_in_edges(edges_df, 5, strategy=strategy, seed=7).toPandas()
    salted = sample_in_edges(
        edges_df, 5, strategy=strategy, seed=7, reindex_threshold=10
    ).toPandas()
    key = ["dst", "src"]
    pd.testing.assert_frame_equal(
        direct.sort_values(key).reset_index(drop=True),
        salted.sort_values(key).reset_index(drop=True),
    )


def test_reindexing_max_degree_via_oracle(spark, hub_edges):
    pdf, edges_df = hub_edges
    out = sample_in_edges(edges_df, 3, seed=8, reindex_threshold=5)
    got = out.groupBy("dst").agg(F.count("*").alias("n"))
    # every destination present in the input survives, capped at 3
    assert_equivalent(
        got.filter(F.col("n") > 3),
        "SELECT dst, count(*) AS n FROM edges GROUP BY dst HAVING count(*) > 3",
        edges=pdf.iloc[0:0],  # empty: nothing may exceed the cap
    )
    dsts = {r["dst"] for r in out.select("dst").distinct().collect()}
    assert dsts == set(pdf["dst"].unique())


def test_weighted_sampling_biased_toward_heavy_edges(spark):
    """One hub with 100 in-edges, two weight classes; the heavy class
    must be strongly over-represented across seeds."""
    n = 100
    pdf = pd.DataFrame(
        {
            "src": np.arange(1, n + 1),
            "dst": 0,
            "w": np.where(np.arange(n) < 50, 10.0, 0.1),
        }
    )
    edges_df = spark.createDataFrame(pdf)
    heavy = 0
    for seed in range(10):
        out = sample_in_edges(edges_df, 10, strategy="weighted", seed=seed).toPandas()
        heavy += (out.w > 1.0).sum()
    assert heavy / 100 > 0.9  # ~99% expected; uniform would give ~0.5


def test_uniform_sampling_not_biased(spark):
    n = 100
    pdf = pd.DataFrame(
        {
            "src": np.arange(1, n + 1),
            "dst": 0,
            "w": np.where(np.arange(n) < 50, 10.0, 0.1),
        }
    )
    edges_df = spark.createDataFrame(pdf)
    heavy = 0
    for seed in range(10):
        out = sample_in_edges(edges_df, 10, strategy="uniform", seed=seed).toPandas()
        heavy += (out.w > 1.0).sum()
    assert 0.3 < heavy / 100 < 0.7


def test_unknown_strategy_raises(spark, hub_edges):
    _, edges_df = hub_edges
    with pytest.raises(ValueError, match="unknown sampling strategy"):
        sample_in_edges(edges_df, 3, strategy="nope").collect()


@pytest.mark.parametrize("bad_w", [0.0, -1.0, float("nan"), float("inf")])
def test_weighted_sampling_rejects_non_positive_weights(spark, bad_w):
    """Efraimidis–Spirakis keys exist for finite w > 0 only: w = 0 used
    to fail with a division by zero and w < 0 to outrank every valid
    edge. (A pandas NaN arrives in Spark as a null weight.)"""
    pdf = pd.DataFrame({"src": [1, 2, 3], "dst": [0, 0, 0], "w": [1.0, bad_w, 2.0]})
    edges_df = spark.createDataFrame(pdf)
    with pytest.raises(ValueError, match=r"finite and > 0.*1 edges"):
        sample_in_edges(edges_df, 2, strategy="weighted")
    sample_in_edges(edges_df, 2, strategy="uniform").collect()
