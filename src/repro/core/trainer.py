"""GraphTrainer — training over GraphFeatures (§3.3).

A GraphFeature batch is self-contained, so every trainer runs the same
batch step, :func:`batch_step`: zero the grads, convert the labels with
:func:`~repro.nn.models.task_labels`, then one forward+backward. Its
callers differ only in where batches come from and who applies Adam:

- :class:`GraphTrainer` — the AGL path: streams GraphFeature records
  (from memory or from the parquet the Storing phase wrote — AGL is
  disk-based, unlike the in-memory comparators), vectorizes batches,
  and steps Adam after each one, with the three optimisation
  strategies toggleable:

  * ``pipeline``  — a prefetch thread decodes + vectorizes batch i+1
    while the model computes on batch i (§3.3.2 "training pipeline").
    The source itself reads each batch on the consumer thread, between
    model steps, before handing it to the prefetch thread.
  * ``pruning``   — per-layer pruned adjacencies A_B^(k) (Eq. 3), each a
    block that computes only the rows the next layer reads.
  * ``partition`` — the fused destination-partitioned threaded
    aggregation kernel instead of buffered ``np.add.at``.

- the parameter-server workers (:mod:`repro.core.ps`): each vectorizes
  its partition's batches once with a GraphTrainer and caches them;
  each round sums their gradients and the driver applies Adam.

- :class:`WholeGraphTrainer` — the in-memory comparator stand-ins,
  one full-batch step per epoch on the whole graph: ``dgl_sim`` runs
  the fused partitioned kernel (DGL's fused SpMM design); ``pyg_sim``
  runs the buffered ``np.add.at`` scatter *and* re-coalesces (re-sorts)
  the edge list every forward pass, as PyG 1.3's generic message
  passing did.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from ..nn.aggregators import Aggregator
from ..nn.edges import Edges
from ..nn.models import NEEDS_SELF_LOOPS, GNNModel, task_labels
from ..nn.optim import Adam
from .graphfeature import SubgraphRecord
from .vectorize import BatchGraph, merge_batch


@dataclass
class TrainConfig:
    """Model + strategy knobs for one training run."""

    kind: str = "gcn"  # gcn | sage | gat
    n_layers: int = 2
    hidden: int = 16
    n_out: int = 2
    task: str = "multiclass"
    n_heads: int = 1
    lr: float = 0.01
    batch_size: int = 64
    seed: int = 0
    # AGL optimisation strategies (§3.3.2)
    pipeline: bool = True
    pruning: bool = False
    partition: bool = False

    def build_model(self, d_in: int) -> GNNModel:
        m = GNNModel(
            self.kind, d_in, self.hidden, self.n_out, self.n_layers,
            self.task, n_heads=self.n_heads, seed=self.seed,
        )
        m.set_aggregator(Aggregator("partitioned" if self.partition else "add_at"))
        return m


def batch_step(model: GNNModel, bg: BatchGraph, adj: list[Edges]) -> tuple[float, int]:
    """The batch → loss/gradient step every trainer shares: zero the
    grads, convert labels, one forward+backward. Returns (mean loss over
    the batch's targets, number of targets); the gradients are left in
    ``model``."""
    model.zero_grad()
    loss, _ = model.loss_and_grad(bg.X, adj, bg.target_idx, task_labels(model.task, bg.labels))
    return loss, len(bg.target_idx)


# ---------------------------------------------------------------- sources
class MemorySource:
    """Batches from decoded records held in memory (tests, Table 3)."""

    def __init__(self, records: list[SubgraphRecord], batch_size: int):
        self.records, self.batch_size = records, batch_size

    def batches(self, epoch: int) -> list[list[SubgraphRecord]]:
        order = np.arange(len(self.records))
        np.random.default_rng(epoch).shuffle(order)
        recs = [self.records[i] for i in order]
        return [recs[i : i + self.batch_size] for i in range(0, len(recs), self.batch_size)]


class ParquetSource:
    """Batches streamed from the GraphFlat parquet each epoch — the
    paper's disk-based data path ("data will be loaded from disks
    rather than from memory").

    Yields *encoded* records (bytes), ``batch_size`` per batch except
    the last, across parquet fragment boundaries. The read runs on the
    consumer thread; decoding happens inside
    :meth:`GraphTrainer.vectorize`, i.e. on the pipeline's prefetch
    thread."""

    def __init__(self, path: str, batch_size: int):
        self.path, self.batch_size = path, batch_size

    def batches(self, epoch: int):
        # imported here: it takes ~0.3 s, and the PS workers that import
        # this module never read parquet
        import pyarrow.dataset as pads

        ds = pads.dataset(self.path, format="parquet")
        # to_batches stops at every fragment: carry the remainder over
        buf: list[bytes] = []
        for rb in ds.to_batches(batch_size=self.batch_size, columns=["gf"]):
            buf.extend(rb.column("gf").to_pylist())
            while len(buf) >= self.batch_size:
                yield buf[: self.batch_size]
                buf = buf[self.batch_size :]
        if buf:
            yield buf


# ---------------------------------------------------------------- trainer
class GraphTrainer:
    """AGL's trainer: vectorize GraphFeature batches, run the model.

    One instance owns the model and Adam state; each PS worker
    (:mod:`repro.core.ps`) builds one to vectorize its partition.
    """

    def __init__(self, cfg: TrainConfig, d_in: int):
        self.cfg = cfg
        self.model = cfg.build_model(d_in)
        self.opt = Adam(lr=cfg.lr)

    def vectorize(self, records: list) -> tuple[BatchGraph, list[Edges]]:
        """Subgraph-vectorization phase: records → (A_B, X_B, …) and the
        per-layer (pruned) adjacency list — plus decoding when the
        source hands over encoded bytes. All of it runs off the
        model-computation thread (§3.3.2), including each adjacency's
        src-sorted permutation for the backward pass, which the PS
        workers' cached batches then carry."""
        records = [
            SubgraphRecord.from_bytes(r) if isinstance(r, (bytes, bytearray)) else r
            for r in records
        ]
        bg = merge_batch(records)
        cfg = self.cfg
        adj = bg.adj_list(cfg.n_layers, self_loops=NEEDS_SELF_LOOPS[cfg.kind], pruning=cfg.pruning)
        for e in adj:
            _ = e.src_order
        return bg, adj

    def _vectorized_batches(self, source, epoch: int):
        it = iter(source.batches(epoch))
        if not self.cfg.pipeline:
            for recs in it:
                yield self.vectorize(recs)
            return
        # training pipeline: preprocessing (read+vectorize) of batch i+1
        # overlaps the model computation of batch i
        with ThreadPoolExecutor(max_workers=1) as pool:
            fut = None
            for recs in it:
                nxt = pool.submit(self.vectorize, recs)
                if fut is not None:
                    yield fut.result()
                fut = nxt
            if fut is not None:
                yield fut.result()

    def train_epoch(self, source, epoch: int = 0) -> float:
        """One pass over ``source``; returns the target-weighted mean loss."""
        losses, counts = [], []
        for bg, adj in self._vectorized_batches(source, epoch):
            loss, n = batch_step(self.model, bg, adj)
            self.opt.step(self.model.get_params(), self.model.get_grads())
            losses.append(loss)
            counts.append(n)
        if not counts:
            raise ValueError(f"train_epoch: {type(source).__name__} yielded no batches")
        return float(np.average(losses, weights=counts))

    def evaluate(self, records: list[SubgraphRecord]) -> float:
        bg, adj = self.vectorize(records)
        logits = self.model.forward(bg.X, adj, bg.target_idx)
        return self.model.metric_fn(logits, task_labels(self.cfg.task, bg.labels))


class WholeGraphTrainer:
    """In-memory comparator stand-ins (DGL / PyG, see DESIGN.md §6).

    Trains full-batch on one whole-graph :class:`BatchGraph`; the
    ``system`` flag picks the kernel behaviour:

    - ``dgl_sim``: fused destination-partitioned threaded kernel.
    - ``pyg_sim``: buffered ``np.add.at`` kernel + re-coalescing the
      edge list (a fresh lexsort) before every forward pass.
    """

    def __init__(self, cfg: TrainConfig, bg: BatchGraph, system: str = "dgl_sim"):
        if system not in ("dgl_sim", "pyg_sim"):
            raise ValueError(system)
        self.cfg, self.bg, self.system = cfg, bg, system
        self.model = replace(cfg, partition=(system == "dgl_sim")).build_model(bg.X.shape[1])
        self.opt = Adam(lr=cfg.lr)
        self._adj_list = bg.adj_list(cfg.n_layers, self_loops=NEEDS_SELF_LOOPS[cfg.kind], pruning=False)

    def _adj(self) -> list[Edges]:
        if self.system == "dgl_sim":
            return self._adj_list
        # re-coalesce per forward, as PyG's generic scatter prep did
        e = self._adj_list[0]
        return [Edges.from_arrays(e.src, e.dst, e.w, e.n_nodes)] * self.cfg.n_layers

    def train_epoch(self, epoch: int = 0) -> float:
        loss, _ = batch_step(self.model, self.bg, self._adj())
        self.opt.step(self.model.get_params(), self.model.get_grads())
        return loss

    def evaluate(self, target_idx: np.ndarray, labels: np.ndarray) -> float:
        """Metric at ``target_idx``, whose ``[b, n_out]`` label matrix is
        ``labels``."""
        logits = self.model.forward(self.bg.X, self._adj(), target_idx)
        return self.model.metric_fn(logits, task_labels(self.cfg.task, labels))
