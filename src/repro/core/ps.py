"""Parameter-server training on Spark (§3.3, Figure 4).

Because GraphFlat made every training example self-contained (its
GraphFeature carries the whole K-hop neighborhood), workers are fully
data-parallel — the paper's central claim. The PS maps onto Spark as:

- **server** = the driver: holds the canonical parameters and the Adam
  state, applies updates.
- **workers** = partitions of the GraphFeature RDD: each round they
  receive the broadcast parameters, replay their partition through a
  :class:`~repro.core.trainer.GraphTrainer`'s ``vectorize`` and the
  batch step every trainer shares, and emit summed gradients.
- **synchronisation** = ``treeReduce`` of (grad-sum, loss-sum, count);
  one driver update per round (synchronous PS — the substitution for
  the paper's async PS is documented in DESIGN.md).

A test asserts the reduced distributed gradient is numerically equal to
the single-process gradient over the same records, which is the data-
independence property Figure 7 (convergence regardless of #workers)
rests on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from ..nn.optim import Adam
from .trainer import GraphTrainer, TrainConfig, batch_step


def _partition_gradients(gf_blobs, cfg: TrainConfig, d_in: int, params):
    """Worker body: full gradient of this partition at ``params``.

    Builds a :class:`GraphTrainer` at ``params``, runs the shared batch
    step over mini-batches of ``cfg.batch_size`` encoded records, and
    yields one (grad·n, loss·n, n) triple, n = targets seen.
    """
    blobs = list(gf_blobs)
    if not blobs:
        return
    tr = GraphTrainer(cfg, d_in)
    tr.model.set_params(params)
    grads: dict[str, np.ndarray] | None = None
    loss_sum, n = 0.0, 0
    for i in range(0, len(blobs), cfg.batch_size):
        loss, b = batch_step(tr.model, *tr.vectorize(blobs[i : i + cfg.batch_size]))
        # per-target gradient sum: batch loss is a mean over the batch
        bgrads = {k: v * b for k, v in tr.model.get_grads().items()}
        grads = bgrads if grads is None else {k: grads[k] + bgrads[k] for k in grads}
        loss_sum += loss * b
        n += b
    yield (grads, loss_sum, n)


def _merge(a, b):
    ga, la, na = a
    gb, lb, nb = b
    return ({k: ga[k] + gb[k] for k in ga}, la + lb, na + nb)


@dataclass
class PSResult:
    params: dict
    losses: list[float]


def distributed_gradient(
    gf: DataFrame, cfg: TrainConfig, d_in: int, params: dict, n_workers: int
) -> tuple[dict, float]:
    """One PS round: broadcast → worker grads → treeReduce. Returns the
    *mean* gradient over all records and the mean loss."""
    sc = gf.sparkSession.sparkContext
    bc = sc.broadcast(params)
    rdd = gf.select("gf").rdd.map(lambda r: r["gf"]).repartition(n_workers)
    try:
        grads, loss_sum, n = rdd.mapPartitions(
            lambda it: _partition_gradients(it, cfg, d_in, bc.value)
        ).treeReduce(_merge)
    except ValueError as e:  # treeReduce raises it driver-side when no partition yielded
        raise ValueError("distributed_gradient: the GraphFeature frame is empty") from e
    finally:
        bc.unpersist()
    return {k: v / n for k, v in grads.items()}, loss_sum / n


def train_parameter_server(
    gf: DataFrame,
    cfg: TrainConfig,
    d_in: int,
    *,
    epochs: int = 10,
    n_workers: int = 4,
) -> PSResult:
    """Synchronous PS training: one global Adam step per epoch, computed
    from the reduced full-batch gradient. ``gf`` is the (root, gf-string)
    frame the Storing phase produced."""
    gf = gf.cache()
    model = cfg.build_model(d_in)  # driver-side canonical params
    opt = Adam(lr=cfg.lr)
    params = model.get_params()
    losses = []
    for _ in range(epochs):
        mean_grads, mean_loss = distributed_gradient(gf, cfg, d_in, params, n_workers)
        opt.step(params, mean_grads)
        losses.append(mean_loss)
    model.set_params(params)
    return PSResult(params=params, losses=losses)
