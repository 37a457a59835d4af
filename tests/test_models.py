"""GNNModel: parameter plumbing (PS contract), end-to-end gradcheck
through a full stack, slice segmentation, task wiring."""
from __future__ import annotations

import numpy as np
import pytest

from repro.nn.aggregators import Aggregator
from repro.nn.models import NEEDS_SELF_LOOPS, TASKS, GNNModel, layer_from_slice
from tests.nn_utils import numerical_grad, random_edges


def _inputs(kind, n=8, d=4, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    e = random_edges(n, 20, seed=seed + 1, self_loops=NEEDS_SELF_LOOPS[kind])
    tgt = np.array([0, 3, 5])
    return X, e, tgt


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_params_roundtrip(kind):
    m = GNNModel(kind, 4, 5, 2, 2, "multiclass", seed=1)
    p = {k: v.copy() for k, v in m.get_params().items()}
    m2 = GNNModel(kind, 4, 5, 2, 2, "multiclass", seed=99)
    m2.set_params(p)
    for k, v in m2.get_params().items():
        np.testing.assert_array_equal(v, p[k])


def test_param_names_are_namespaced():
    m = GNNModel("sage", 4, 5, 2, 2, "multiclass", seed=1)
    names = set(m.get_params())
    assert {"l0/Wself", "l1/Wnbr", "head/W", "head/b"} <= names


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
@pytest.mark.parametrize("task", ["multiclass", "multilabel", "binary"])
def test_full_model_gradcheck(kind, task):
    """End-to-end: d(loss)/d(params) through K layers + head + loss
    matches central differences."""
    n_out = {"multiclass": 3, "multilabel": 3, "binary": 1}[task]
    m = GNNModel(kind, 4, 3, n_out, 2, task, seed=2)
    X, e, tgt = _inputs(kind, seed=3)
    rng = np.random.default_rng(4)
    if task == "multiclass":
        labels = rng.integers(0, n_out, len(tgt))
    elif task == "multilabel":
        labels = (rng.random((len(tgt), n_out)) > 0.5).astype(float)
    else:
        labels = rng.integers(0, 2, (len(tgt), 1)).astype(float)

    def loss():
        logits = m.forward(X, [e, e], tgt)
        return m.loss_fn(logits, labels)[0]

    m.zero_grad()
    m.loss_and_grad(X, [e, e], tgt, labels)
    grads = m.get_grads()
    params = m.get_params()
    for name in ("l0/W" if kind == "gcn" else ("l0/Wself" if kind == "sage" else "l0/W0"),
                 "head/W", "head/b"):
        num = numerical_grad(lambda: loss(), params[name])
        np.testing.assert_allclose(grads[name], num, rtol=2e-4, atol=2e-6, err_msg=name)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_gradcheck_with_a_repeated_target(kind):
    """A batch may hold two records of one root, so a target row repeats:
    both logits count in the loss, and both gradients reach the layers."""
    m = GNNModel(kind, 4, 3, 1, 2, "binary", seed=2)
    X, e, _ = _inputs(kind, seed=3)
    tgt, labels = np.array([0, 3, 0]), np.array([[1.0], [0.0], [0.0]])
    m.zero_grad()
    m.loss_and_grad(X, [e, e], tgt, labels)
    name = {"gcn": "l0/W", "sage": "l0/Wself", "gat": "l0/W0"}[kind]
    num = numerical_grad(lambda: m.loss_fn(m.forward(X, [e, e], tgt), labels)[0], m.get_params()[name])
    np.testing.assert_allclose(m.get_grads()[name], num, rtol=2e-4, atol=2e-6)


@pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
def test_slices_structure(kind):
    m = GNNModel(kind, 4, 5, 2, 3, "binary", seed=5)
    slices = m.to_slices()
    assert len(slices) == 4
    assert [s["kind"] for s in slices[:-1]] == [kind] * 3
    assert slices[-1]["kind"] == "dense"
    assert all(set(s) == {"kind", "act", "params"} for s in slices)


def test_slices_are_copies():
    m = GNNModel("gcn", 4, 5, 2, 1, "binary", seed=6)
    slices = m.to_slices()
    m.get_params()["l0/W"][:] = 0.0
    assert not np.allclose(slices[0]["params"]["W"], 0.0)


def test_layer_from_slice_unknown_kind_raises():
    with pytest.raises(ValueError):
        layer_from_slice({"kind": "tcn", "act": "relu", "params": {}})


def test_invalid_task_raises():
    with pytest.raises(KeyError):
        GNNModel("gcn", 4, 5, 2, 2, "regression")


def test_invalid_kind_raises():
    with pytest.raises(ValueError):
        GNNModel("rgcn", 4, 5, 2, 2, "binary")


def test_gat_multihead_output_dim():
    m = GNNModel("gat", 4, 5, 2, 2, "binary", n_heads=3, seed=7)
    X, e, tgt = _inputs("gat", seed=8)
    H = m.forward_embeddings(X, [e, e])
    assert H.shape == (8, 15)  # hidden * heads
    with pytest.raises(TypeError):  # only attention layers have heads
        GNNModel("gcn", 4, 5, 2, 2, "binary", n_heads=3)


def test_set_aggregator_propagates():
    m = GNNModel("gcn", 4, 5, 2, 2, "binary", seed=9)
    agg = Aggregator("partitioned")
    m.set_aggregator(agg)
    assert all(l.agg is agg for l in m.layers) and m.head.agg is agg


def test_tasks_registry_complete():
    for task, (loss_fn, metric_fn) in TASKS.items():
        assert callable(loss_fn) and callable(metric_fn)
