"""Parameter-server training on Spark (§3.3, Figure 4).

Because GraphFlat made every training example self-contained (its
GraphFeature carries the whole K-hop neighborhood), workers are fully
data-parallel — the paper's central claim. The PS maps onto Spark as:

- **server** = the driver: holds the canonical parameters and the Adam
  state, applies updates.
- **workers** = partitions of the GraphFeature RDD. Like the paper's
  workers, each keeps its data shard across rounds: the records are
  partitioned across the workers once, vectorized once through
  :meth:`~repro.core.trainer.GraphTrainer.vectorize`, and the batches
  are cached. Each round they receive the broadcast parameters, run
  the batch step every trainer shares over their cached batches, and
  emit summed gradients.
- **synchronisation** = ``reduce`` of (grad-sum, loss-sum, count) on
  the driver; one driver update per round (synchronous PS — the
  substitution for the paper's async PS is documented in DESIGN.md).

After the first round, a round is one Spark job over the cached
batches, one task per worker, with no shuffle. Both worker functions
run through :func:`~repro.core.graphflat.worker_entry`, so a reused
worker does not re-read Spark's zip archives before its task.

A test asserts the reduced distributed gradient is numerically equal to
the single-process gradient over the same records, which is the data-
independence property Figure 7 (convergence regardless of #workers)
rests on.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
from pyspark import RDD
from pyspark.sql import DataFrame

from ..nn.optim import Adam
from .graphflat import cached_on, worker_entry
from .trainer import GraphTrainer, TrainConfig, batch_step


@worker_entry
def _vectorize_partition(gf_blobs, cfg: TrainConfig, d_in: int):
    """Worker preparation: yields one ``(BatchGraph, adj)`` per
    ``cfg.batch_size`` encoded records of this partition.

    :meth:`GraphTrainer.vectorize` computes each adjacency's src-sorted
    permutation, so the cached batches carry it and no round re-sorts
    edges for backward.
    """
    blobs = list(gf_blobs)
    if not blobs:
        return
    tr = GraphTrainer(cfg, d_in)
    for i in range(0, len(blobs), cfg.batch_size):
        yield tr.vectorize(blobs[i : i + cfg.batch_size])


@worker_entry
def _partition_gradients(batches, cfg: TrainConfig, d_in: int, params):
    """Worker body: full gradient of this partition at ``params``.

    Runs the shared batch step over the partition's vectorized batches
    and yields one (grad·n, loss·n, n) triple, n = targets seen, or
    nothing for an empty partition.
    """
    batches = iter(batches)
    first = next(batches, None)
    if first is None:
        return
    model = cfg.build_model(d_in)
    model.set_params(params)
    grads: dict[str, np.ndarray] | None = None
    loss_sum, n = 0.0, 0
    for bg, adj in itertools.chain([first], batches):
        loss, b = batch_step(model, bg, adj)
        # per-target gradient sum: batch loss is a mean over the batch
        bgrads = {k: v * b for k, v in model.get_grads().items()}
        grads = bgrads if grads is None else {k: grads[k] + bgrads[k] for k in grads}
        loss_sum += loss * b
        n += b
    yield (grads, loss_sum, n)


def _prepared(gf: DataFrame, cfg: TrainConfig, d_in: int, n_workers: int) -> RDD:
    """The workers' data shards: ``gf``'s records split across
    ``n_workers`` partitions once, vectorized once and cached by
    :func:`~repro.core.graphflat.cached_on` on the frame, ``n_workers``
    and the batch-shaping config values (``d_in`` shapes no batch)."""
    key = ("ps", n_workers, cfg.batch_size, cfg.n_layers, cfg.kind, cfg.pruning)
    snap = replace(cfg)  # TrainConfig is mutable
    return cached_on(gf, key, lambda: (
        gf.select("gf").rdd.map(lambda r: r["gf"]).repartition(n_workers)
        .mapPartitions(lambda it: _vectorize_partition(it, snap, d_in))
    ))


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
    """One PS round: broadcast → worker grads over the cached shards →
    reduce. Returns the *mean* gradient over all records and the mean
    loss.

    The driver sums one triple per worker; a ``treeReduce`` would add a
    shuffle level from 5 workers on."""
    batches = _prepared(gf, cfg, d_in, n_workers)
    bc = gf.sparkSession.sparkContext.broadcast(params)
    try:
        grads, loss_sum, n = batches.mapPartitions(
            lambda it: _partition_gradients(it, cfg, d_in, bc.value)
        ).reduce(_merge)
    except ValueError as e:  # reduce raises it driver-side when no partition yielded
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
    frame the Storing phase produced; the workers' vectorized shards of
    it stay cached until the frame is garbage-collected."""
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
