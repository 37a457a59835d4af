"""The DuckDB oracle checks itself on graph-shaped tables: it agrees
with a correct Spark join + aggregate and rejects a wrong one."""
from __future__ import annotations

import pytest
from pyspark.sql import functions as F

from repro.graphs.generators import uug_lite
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def graph():
    ds = uug_lite(n=300, seed=5)
    nodes = ds.nodes.assign(y=[int(v[0]) for v in ds.nodes["label"]])[["id", "y"]]
    return ds.edges, nodes


def test_oracle_agreement_on_join(spark, graph):
    """In-edges per label: edges joined to their destination's node row,
    grouped by the destination's label."""
    edges, nodes = graph
    e, n = spark.createDataFrame(edges), spark.createDataFrame(nodes)
    got = (
        e.join(n, e.dst == n.id)
        .groupBy("y")
        .agg(F.count("*").alias("in_edges"), F.sum("w").alias("w_sum"))
    )
    assert_equivalent(
        got,
        """SELECT y, count(*) AS in_edges, sum(w) AS w_sum
           FROM e JOIN n ON e.dst = n.id
           GROUP BY y""",
        e=edges,
        n=nodes,
    )


def test_oracle_detects_wrong_result(spark, graph):
    """Out-degree in place of in-degree is caught (the graph's in-degrees
    are hub-heavy, its out-degrees are not)."""
    edges, _ = graph
    got = spark.createDataFrame(edges).groupBy(F.col("dst").alias("id")).agg(
        F.count("*").alias("deg")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(
            got, "SELECT src AS id, count(*) AS deg FROM e GROUP BY src", e=edges
        )
