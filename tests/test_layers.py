"""Layer forward semantics + full finite-difference gradient checks for
GCN / GraphSAGE / GAT / Dense, under every aggregation kernel."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.vectorize import BatchGraph
from repro.nn.aggregators import Aggregator
from repro.nn.edges import Edges
from repro.nn.layers import DenseLayer, GATLayer, GCNLayer, SAGELayer, _act
from tests.nn_utils import (
    gat_backward_edgewise, layer_gradcheck, partitions, random_edges, run_callers,
)


def _X(n, d, seed=0):
    return np.random.default_rng(seed).standard_normal((n, d))


# ---------- Edges container ----------
def test_edges_sorted_by_dst():
    e = random_edges(10, 50, seed=1)
    assert (np.diff(e.dst) >= 0).all()


def test_edges_self_loops_count_and_sorted():
    e = random_edges(8, 30, seed=2).with_self_loops()
    assert e.m == 38
    assert (np.diff(e.dst) >= 0).all()
    for v in range(8):
        assert ((e.src == v) & (e.dst == v)).any()


def test_edges_scatter_to_src_equals_manual():
    """out[src[e]] += vals[e] through the src-sorted permutation and the
    fused kernel, the way the backward pass reduces to source nodes."""
    e = random_edges(6, 40, seed=3)
    vals = np.random.default_rng(4).standard_normal((e.m, 3))
    ref = np.zeros((6, 3))
    np.add.at(ref, e.src, vals)
    o = e.src_order
    for kind in ("add_at", "partitioned"):
        got = Aggregator(kind=kind).gather_scale_reduce(vals, o, None, e.src[o], 6)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_edges_in_degrees():
    e = Edges.from_arrays([0, 1, 2, 2], [1, 1, 1, 0], [1.0, 2.0, 3.0, 4.0], 3)
    np.testing.assert_array_equal(e.in_degrees(), [1, 3, 0])
    np.testing.assert_array_equal(e.in_degrees(weighted=True), [4, 6, 0])


@pytest.mark.parametrize("weighted", [False, True])
def test_edges_in_degrees_bit_identical_to_add_at(weighted):
    """The bincount degree equals the buffered ``np.add.at`` sum bit for
    bit: dst-sorted edges with duplicate (src, dst) pairs, and nodes
    with no in-edge."""
    rng = np.random.default_rng(9)
    n = 40
    src = rng.integers(0, n, 300)
    dst = rng.integers(0, n // 2, 300)  # nodes n/2.. have no in-edge
    src, dst = np.concatenate([src, src[:50]]), np.concatenate([dst, dst[:50]])
    e = Edges.from_arrays(src, dst, rng.uniform(0.1, 3.0, src.shape[0]), n)
    ref = np.zeros(n)
    np.add.at(ref, e.dst, e.w if weighted else np.ones(e.m))
    got = e.in_degrees(weighted=weighted)
    assert got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


# ---------- forward semantics on tiny graphs ----------
def test_gcn_forward_is_weighted_mean():
    # 2 nodes, edge 0->1 weight 3, plus self loops weight 1.
    e = Edges.from_arrays([0], [1], [3.0], 2).with_self_loops()
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    lyr = GCNLayer(2, 2, act="id", seed=0)
    lyr.params["W"][:] = np.eye(2)
    lyr.params["b"][:] = 0
    H = lyr.forward(X, e)
    np.testing.assert_allclose(H[0], [1.0, 0.0])  # only self loop
    np.testing.assert_allclose(H[1], [3 / 4, 1 / 4])  # (3*x0 + 1*x1)/4


def test_sage_forward_mean_excludes_self():
    e = Edges.from_arrays([0, 2], [1, 1], None, 3)
    X = np.array([[2.0], [10.0], [4.0]])
    lyr = SAGELayer(1, 1, act="id", seed=0)
    lyr.params["Wself"][:] = 1.0
    lyr.params["Wnbr"][:] = 1.0
    lyr.params["b"][:] = 0.0
    H = lyr.forward(X, e)
    assert H[1, 0] == pytest.approx(10.0 + 3.0)  # self + mean(2,4)
    assert H[0, 0] == pytest.approx(2.0)  # no in-edges: mean term 0


def test_gat_forward_uniform_attention_when_scores_equal():
    # zero attention vectors -> softmax uniform -> mean over {self}∪N+
    e = Edges.from_arrays([0, 2], [1, 1], None, 3).with_self_loops()
    X = np.array([[3.0], [9.0], [6.0]])
    lyr = GATLayer(1, 1, n_heads=1, act="id", seed=0)
    lyr.params["W0"][:] = 1.0
    lyr.params["as0"][:] = 0.0
    lyr.params["ad0"][:] = 0.0
    lyr.params["b"][:] = 0.0
    H = lyr.forward(X, e)
    assert H[1, 0] == pytest.approx((3 + 9 + 6) / 3)
    assert H[0, 0] == pytest.approx(3.0)


def test_gat_attention_normalized_per_dst():
    e = random_edges(7, 30, seed=5).with_self_loops()
    lyr = GATLayer(4, 3, n_heads=2, seed=1)
    lyr.forward(_X(7, 4, seed=6), e)
    for hc in lyr._cache["heads"]:
        sums = np.zeros(7)
        np.add.at(sums, e.dst, hc["alpha"])
        np.testing.assert_allclose(sums, 1.0, rtol=1e-9)


def test_isolated_nodes_no_nan():
    # node 3 has no edges at all (SAGE path: deg clamp)
    e = Edges.from_arrays([0], [1], None, 4)
    for lyr in (SAGELayer(2, 2, seed=0),):
        H = lyr.forward(_X(4, 2), e)
        assert np.isfinite(H).all()


def test_gcn_output_bounded_when_in_weights_cancel_the_self_loop():
    """GCN divides by the sum of |w| into each destination: node 1's
    in-edge of weight −1 cancels its self-loop's 1, and its output stays
    within max|XW| + |b| instead of being scaled by the zero sum's floor."""
    e = Edges.from_arrays([0], [1], [-1.0], 2).with_self_loops()
    X = np.array([[1.0, -2.0], [3.0, 0.5]])
    lyr = GCNLayer(2, 3, act="id", seed=0)
    lyr.params["b"][:] = [0.5, -0.25, 1.0]
    H = lyr.forward(X, e)
    bound = np.abs(X @ lyr.params["W"]).max() + np.abs(lyr.params["b"])
    assert (np.abs(H[1]) <= bound).all()
    np.testing.assert_allclose(H[1], (X[1] - X[0]) @ lyr.params["W"] / 2 + lyr.params["b"])


def test_elu_does_not_overflow_on_large_inputs():
    """ELU takes ``expm1`` of its non-positive inputs only: a large
    positive pre-activation passes through with no overflow."""
    with np.errstate(over="raise"):
        out = _act("elu", np.array([1000.0, -1.0, 0.0]))
    np.testing.assert_array_equal(out, [1000.0, np.expm1(-1.0), 0.0])


# ---------- gradient checks ----------
GRADCHECK_LAYERS = pytest.mark.parametrize(
    "layer_fn",
    [
        lambda: GCNLayer(3, 2, act="relu", seed=7),
        lambda: GCNLayer(3, 2, act="id", seed=8),
        lambda: SAGELayer(3, 2, act="relu", seed=9),
        lambda: GATLayer(3, 2, n_heads=1, act="elu", seed=10),
        lambda: GATLayer(3, 2, n_heads=2, act="elu", seed=11),
    ],
    ids=["gcn-relu", "gcn-id", "sage", "gat-1h", "gat-2h"],
)


@pytest.mark.parametrize("kind", ["add_at", "partitioned"])
@GRADCHECK_LAYERS
def test_layer_gradcheck(layer_fn, kind):
    lyr = layer_fn()
    lyr.agg = Aggregator(kind=kind)
    e = random_edges(6, 18, seed=12, self_loops=lyr.self_loops)
    X = _X(6, 3, seed=13)
    with partitions(3):
        layer_gradcheck(lyr, X, e, tol=2e-4)


@pytest.mark.parametrize("kind", ["add_at", "partitioned"])
@GRADCHECK_LAYERS
def test_layer_gradcheck_signed_weights(layer_fn, kind):
    """The gradcheck on edge weights drawn from {−w, 0, w}, which the
    ingest contract keeps for uniform sampling."""
    lyr = layer_fn()
    lyr.agg = Aggregator(kind=kind)
    e = random_edges(6, 18, seed=12)
    sign = np.random.default_rng(22).choice([-1.0, 0.0, 1.0], e.m)
    e = Edges.from_arrays(e.src, e.dst, sign * e.w, 6)
    if lyr.self_loops:
        e = e.with_self_loops()
    with partitions(3):
        layer_gradcheck(lyr, _X(6, 3, seed=13), e, tol=2e-4)


@pytest.mark.parametrize("which", ["pruned-l0", "pruned-l1"])
@pytest.mark.parametrize("kind", ["add_at", "partitioned"])
@GRADCHECK_LAYERS
def test_layer_gradcheck_pruned_block(layer_fn, kind, which):
    """The gradcheck on a pruned block: the layer reads ``n_src`` rows and
    returns only its ``n_nodes`` destination rows. With zero biases a
    pre-activation is odd in ``X``, so a row ReLU zeroes for ``X`` is
    live for ``−X``."""
    lyr = layer_fn()
    lyr.agg = Aggregator(kind=kind)
    e = _oracle_adjacency(which, self_loops=lyr.self_loops)
    assert e.n_nodes < e.n_src
    for X in (_X(e.n_src, 3, seed=23), -_X(e.n_src, 3, seed=23)):
        assert lyr.forward(X, e).shape[0] == e.n_nodes
        with partitions(3):
            layer_gradcheck(lyr, X, e, tol=2e-4)


def _oracle_adjacency(which: str, self_loops: bool = True) -> Edges:
    """9 nodes: duplicate edges 1→0 and 3→2, node 8 isolated, node 7 with
    no out-edge. ``full`` is layer 1 of the unpruned batch. ``pruned-l0``
    and ``pruned-l1`` are the blocks of a 2-layer pruned batch with
    targets 0 and 7: 9 source rows into the 6 with dist ≤ 1, then those
    6 into the 2 targets."""
    src = [1, 1, 2, 3, 3, 0, 4, 5, 6, 0, 5, 2, 4]
    dst = [0, 0, 1, 2, 2, 3, 3, 4, 5, 7, 7, 6, 0]
    e = Edges.from_arrays(src, dst, None, 9)
    dists = np.array([0, 1, 2, 1, 1, 1, 2, 0, 3])
    bg = BatchGraph(
        node_ids=np.arange(9), X=_X(9, 5), dists=dists, e_src=e.src, e_dst=e.dst,
        e_w=e.w, target_idx=np.array([0, 7]), labels=np.zeros((2, 1)),
    )
    adj = bg.adj_list(2, self_loops=self_loops, pruning=which != "full")
    return adj[0] if which == "pruned-l0" else adj[1]


@pytest.mark.parametrize("concurrent", [False, True])
@pytest.mark.parametrize("kind", ["add_at", "partitioned"])
@pytest.mark.parametrize("which", ["full", "pruned-l0", "pruned-l1"])
def test_gat_backward_matches_edgewise_oracle(which, kind, concurrent):
    """The factored GAT backward (score gradients through per-node sums)
    equals the edge-wise reference in every grad and in dX, also on
    pruned blocks whose source and destination rows differ, and when
    layers with different inputs overlap on the shared kernel pool."""
    e = _oracle_adjacency(which)

    def check(i):
        lyr = GATLayer(5, 3, n_heads=2, act="elu", seed=17 + 100 * i)
        lyr.agg = Aggregator(kind=kind)
        X = _X(e.n_src, 5, seed=18 + 100 * i)
        R = np.random.default_rng(19 + 100 * i).standard_normal((e.n_nodes, 6))
        lyr.zero_grad()
        lyr.forward(X, e)
        dX = lyr.backward(R)
        ref_grads, ref_dX = gat_backward_edgewise(lyr, R)
        np.testing.assert_allclose(dX, ref_dX, rtol=1e-10, atol=1e-10)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(lyr.grads[name], g, rtol=1e-10, atol=1e-10, err_msg=name)

    with partitions(3):
        run_callers(check, concurrent)


def test_dense_gradcheck():
    lyr = DenseLayer(4, 3, act="id", seed=14)
    X = _X(5, 4, seed=15)
    from tests.nn_utils import numerical_grad

    rng = np.random.default_rng(16)
    R = rng.standard_normal((5, 3))
    lyr.zero_grad()
    lyr.forward(X)
    dX = lyr.backward(R)
    num = numerical_grad(lambda: float((lyr.forward(X) * R).sum()), X)
    np.testing.assert_allclose(dX, num, rtol=1e-5, atol=1e-6)
    numW = numerical_grad(lambda: float((lyr.forward(X) * R).sum()), lyr.params["W"])
    np.testing.assert_allclose(lyr.grads["W"], numW, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize(
    "layer_fn",
    [lambda: GCNLayer(3, 3, seed=1), lambda: SAGELayer(3, 3, seed=1), lambda: GATLayer(3, 3, seed=1)],
    ids=["gcn", "sage", "gat"],
)
def test_kernels_agree_forward(layer_fn):
    """add_at / partitioned / (dense for scatter) produce the same H."""
    e = random_edges(20, 80, seed=20, self_loops=layer_fn().self_loops)
    X = _X(20, 3, seed=21)
    outs = []
    for kind in ("add_at", "partitioned"):
        lyr = layer_fn()
        lyr.agg = Aggregator(kind=kind)
        with partitions(5):
            outs.append(lyr.forward(X, e))
    np.testing.assert_allclose(outs[0], outs[1], rtol=1e-10, atol=1e-10)
