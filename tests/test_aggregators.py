"""Kernel equivalence: add_at ≡ partitioned, plus the
destination-disjoint partition invariants of the edge-partitioning
strategy (§3.3.2)."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.aggregators import Aggregator, edge_partitions, segment_starts
from tests.nn_utils import partitions, run_callers

KINDS = ["add_at", "partitioned"]


def _sorted_edges(rng, n_nodes, m):
    dst = np.sort(rng.integers(0, n_nodes, m))
    vals = rng.standard_normal((m, 4))
    return dst, vals


def _row_sum(agg, vals, dst, n):
    """out[dst[e]] += vals[e]: the identity-gather case of the fused kernel."""
    return agg.gather_scale_reduce(vals, np.arange(dst.shape[0]), None, dst, n)


@pytest.mark.parametrize("kind", ["dense", "Partitioned", ""])
def test_unknown_kind_is_rejected(kind):
    """An unknown kernel name fails when the aggregator is built instead
    of silently running ``partitioned``."""
    with pytest.raises(ValueError, match="aggregator kind"):
        Aggregator(kind=kind)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m,n", [(0, 5), (1, 1), (17, 5), (200, 13), (1000, 50)])
def test_scatter_add_matches_reference(kind, m, n):
    rng = np.random.default_rng(m * 31 + n)
    dst, vals = _sorted_edges(rng, n, m)
    ref = np.zeros((n, 4))
    for e in range(m):
        ref[dst[e]] += vals[e]
    got = _row_sum(Aggregator(kind=kind), vals, dst, n)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_scatter_add_1d(kind):
    """1-D segment sums run as one ``np.bincount`` under either kernel
    and equal ``np.add.at`` bit for bit, sorted or not."""
    rng = np.random.default_rng(0)
    dst = np.sort(rng.integers(0, 7, 40))
    vals = rng.standard_normal(40)
    for idx in (dst, rng.permutation(dst)):
        ref = np.zeros(7)
        np.add.at(ref, idx, vals)
        got = Aggregator(kind=kind).segment_sum(vals, idx, 7)
        np.testing.assert_allclose(got, ref, rtol=1e-12)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("concurrent", [False, True])
@pytest.mark.parametrize("t", [1, 2, 3, 8, 64])
def test_partitioned_any_partition_count(t, concurrent):
    """``partitioned`` equals ``add_at`` for any partition count, also
    when callers with different edges overlap on the shared kernel pool."""

    def check(i):
        rng = np.random.default_rng(t + 1000 * i)
        dst, vals = _sorted_edges(rng, 20, 300)
        ref = _row_sum(Aggregator(kind="add_at"), vals, dst, 20)
        got = _row_sum(Aggregator(kind="partitioned"), vals, dst, 20)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    with partitions(t):
        run_callers(check, concurrent)


@pytest.mark.parametrize("kind", KINDS)
def test_segment_max(kind):
    dst = np.array([0, 0, 2, 2, 2, 4])
    vals = np.array([1.0, 3.0, -5.0, -1.0, -2.0, 7.0])
    got = Aggregator(kind=kind).segment_max(vals, dst, 5)
    assert got[0] == 3.0 and got[2] == -1.0 and got[4] == 7.0
    assert np.isneginf(got[1]) and np.isneginf(got[3])
    perm = np.random.default_rng(0).permutation(dst.size)  # any order of dst
    np.testing.assert_array_equal(Aggregator.segment_max(vals[perm], dst[perm], 5), got)


@pytest.mark.parametrize("kind", KINDS)
def test_segment_softmax_sums_to_one(kind):
    rng = np.random.default_rng(3)
    dst = np.sort(rng.integers(0, 10, 100))
    scores = rng.standard_normal(100) * 10
    a = Aggregator(kind=kind)
    alpha = a.segment_softmax(scores, dst, 10)
    sums = _row_sum(a, alpha[:, None], dst, 10)[:, 0]
    present = np.unique(dst)
    np.testing.assert_allclose(sums[present], 1.0, rtol=1e-9)
    assert (alpha > 0).all()


def test_segment_softmax_stability_large_scores():
    dst = np.array([0, 0, 0])
    scores = np.array([1000.0, 1000.0, 999.0])
    alpha = Aggregator(kind="partitioned").segment_softmax(scores, dst, 1)
    assert np.isfinite(alpha).all()
    np.testing.assert_allclose(alpha.sum(), 1.0)


def test_segment_starts_basic():
    dst = np.array([0, 0, 1, 3, 3, 3])
    uniq, starts = segment_starts(dst)
    np.testing.assert_array_equal(uniq, [0, 1, 3])
    np.testing.assert_array_equal(starts, [0, 2, 3])


def test_segment_starts_empty():
    uniq, starts = segment_starts(np.array([], dtype=np.int64))
    assert uniq.size == 0 and starts.size == 0


@pytest.mark.parametrize("t", [1, 2, 4, 16])
def test_edge_partitions_are_destination_disjoint(t):
    rng = np.random.default_rng(t)
    dst = np.sort(rng.integers(0, 30, 500))
    _, starts = segment_starts(dst)
    spans = edge_partitions(dst.size, starts, t)
    # spans tile [0, m) exactly
    assert spans[0][0] == 0 and spans[-1][1] == dst.size
    for (a, b), (c, d) in zip(spans[:-1], spans[1:]):
        assert b == c
        # conflict-free: no destination straddles a boundary
        assert dst[b - 1] != dst[b]


def test_edge_partitions_empty():
    assert edge_partitions(0, np.array([], dtype=np.int64), 4) == []


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 30).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, n - 1), min_size=0, max_size=120),
            st.integers(1, 12),
        )
    )
)
def test_property_partitioned_equals_add_at(args):
    n, dst_list, t = args
    dst = np.sort(np.array(dst_list, dtype=np.int64))
    rng = np.random.default_rng(len(dst_list))
    vals = rng.standard_normal((dst.size, 3))
    ref = _row_sum(Aggregator(kind="add_at"), vals, dst, n)
    with partitions(t):
        got = _row_sum(Aggregator(kind="partitioned"), vals, dst, n)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-10)
