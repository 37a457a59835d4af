"""The benchmark's workloads: train-ppi and infer-uug.

Each workload builds its inputs from a seed and fixed sizes, runs two
timed operations (``ops``) whose outputs it checks outside the timed
region, and, for the traced run, probes each layer from outside
(``probe``). See README.md for why each workload exists and which
layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from repro.core import trainer as trainer_mod, vectorize
from repro.core.graphfeature import (
    SubgraphRecord,
    load_graph_features,
    store_graph_features,
)
from repro.core.graphflat import build_graph_features, khop_members, subgraph_edges
from repro.core.infer import (
    inference_cost_report,
    run_graph_infer,
    run_original_inference,
)
from repro.core.ps import distributed_gradient
from repro.core.sampling import sample_in_edges
from repro.core.trainer import GraphTrainer, ParquetSource, TrainConfig
from repro.core.vectorize import BatchGraph, whole_graph_batch
from repro.graphs.generators import ppi_lite, uug_lite
from repro.nn.models import NEEDS_SELF_LOOPS, GNNModel, layer_from_slice
from repro.nn.optim import Adam

K = 2
#: GraphFlat's hub re-indexing applies to destinations above this in-degree
REINDEX_THRESHOLD = 50

#: Input sizes. ``bench`` is what BENCHMARK.json measures; ``test`` is
#: the smoke-test size.
SIZES = {
    "bench": {
        "train-ppi": dict(n_graphs=3, nodes_per_graph=1000, n_train_graphs=2,
                          n_targets=512, batch_size=64),
        "infer-uug": dict(n=2000),
    },
    "test": {
        "train-ppi": dict(n_graphs=3, nodes_per_graph=120, n_train_graphs=1,
                          n_targets=96, batch_size=16),
        "infer-uug": dict(n=300),
    },
}

#: Spark public calls whose stage metrics the traced run reports.
SPARK_CALLS = (
    "sample_in_edges", "khop_members", "build_graph_features",
    "store_graph_features", "distributed_gradient", "run_graph_infer",
    "run_original_inference",
)
SPARK_TOTALS = {
    "run_s": "s", "cpu_s": "s", "gc_s": "s", "shuffle_read_bytes": "B",
    "shuffle_write_bytes": "B", "peak_exec_mem_bytes": "B", "tasks": "count",
    "tasks_failed": "count",
}
SPARK_PER_CALL = ("run_s", "cpu_s", "shuffle_read_bytes", "shuffle_write_bytes", "tasks")

#: Every per-layer metric and its unit. A layer a workload does not run
#: reads 0 on that workload.
PER_LAYER = {
    "sampling.busy_s": "s", "sampling.reindex_busy_s": "s", "sampling.edges_in": "count",
    "sampling.edges_kept": "count", "sampling.kept_ratio": "ratio",
    "sampling.hub_dsts": "count",
    "graphflat.khop_busy_s": "s", "graphflat.build_busy_s": "s",
    "graphflat.member_rows": "count", "graphflat.subgraph_edge_rows": "count",
    **{f"graphflat.gf_{w}_{q}": "count" for w in ("nodes", "edges") for q in ("p50", "p99", "max")},
    "graphfeature.store_s": "s", "graphfeature.bytes_written": "B",
    **{f"graphfeature.record_bytes_{q}": "B" for q in ("p50", "p99", "max")},
    "graphfeature.decode_s": "s",
    "vectorize.merge_s": "s", "vectorize.adj_list_s": "s",
    "vectorize.batch_nodes_mean": "count", "vectorize.batch_edges_mean": "count",
    "vectorize.pruned_edge_ratio": "ratio",
    **{f"nn.{l}.{d}_s": "s" for l in ("l0", "l1", "head") for d in ("forward", "backward")},
    "nn.adam_s": "s", "nn.loss_and_grad_s": "s",
    "trainer.epoch_s": "s", "trainer.wait_s": "s", "trainer.batches": "count",
    "ps.round_s": "s", "ps.spark_run_s": "s", "ps.param_bytes": "B", "ps.tasks": "count",
    "infer.round0.s": "s", "infer.round1.s": "s", "infer.head.s": "s",
    "infer.numpy_floor_s": "s", "infer.original_flat_s": "s",
    "infer.original_store_s": "s", "infer.original_forward_s": "s",
    "infer.speedup": "ratio",
    "infer.original_node_computations": "count", "infer.graphinfer_node_computations": "count",
    "infer.original_edge_traversals": "count", "infer.graphinfer_edge_traversals": "count",
    **{f"spark.{f}": u for f, u in SPARK_TOTALS.items()},
    **{f"spark.{c}.{f}": SPARK_TOTALS[f] for c in SPARK_CALLS for f in SPARK_PER_CALL},
    "trace.items_per_s": "items/s", "trace.items_per_s_untraced": "items/s",
    "trace.slowdown": "ratio",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _require_simple_graph(edges: pd.DataFrame) -> None:
    """The generators emit no duplicate (src, dst) edges; the benchmark
    relies on it (multigraph semantics are a test-suite matter)."""
    _require(not edges.duplicated(["src", "dst"]).any(), "generator emitted duplicate edges")


def _pcts(values) -> tuple[float, float, float]:
    a = np.asarray(values, dtype=np.float64)
    return float(np.percentile(a, 50)), float(np.percentile(a, 99)), float(a.max())


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
        if not f.startswith((".", "_"))
    )


def spark_metrics(calls: dict[str, dict[str, float]]) -> dict[str, float]:
    """Per-layer ``spark.*`` and ``ps.*`` metrics from per-call stage
    metrics (:meth:`tracing.SparkStages.collect`)."""
    out = {}
    for f in SPARK_TOTALS:
        vals = [m[f] for m in calls.values()] or [0.0]
        out[f"spark.{f}"] = max(vals) if f == "peak_exec_mem_bytes" else sum(vals)
    for c in SPARK_CALLS:
        for f in SPARK_PER_CALL:
            out[f"spark.{c}.{f}"] = calls.get(c, {}).get(f, 0.0)
    if "distributed_gradient" in calls:
        out["ps.spark_run_s"] = calls["distributed_gradient"]["run_s"]
        out["ps.tasks"] = calls["distributed_gradient"]["tasks"]
    return out


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


class Workload:
    """Inputs, two timed operations with output checks, and probes."""

    name = ""
    #: what an item is in items_per_s / alt_items_per_s
    item = ""

    def __init__(self, size: str, seed: int, workdir: str) -> None:
        self.sizes = SIZES[size][self.name]
        self.seed = seed
        self.workdir = workdir
        self.probe_path = os.path.join(workdir, "gf_probe")
        os.makedirs(workdir, exist_ok=True)
        self.tracer = None
        self.stages = None
        self.items = 0

    def _group(self, call: str):
        return self.stages.group(call) if self.stages is not None else nullcontext()

    # -- to be provided by each workload --------------------------------
    def setup(self, spark) -> None:
        """Generate the inputs and cache the tables (repeatable)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Compute the reference outputs the checks compare against and
        run each op once (first-pass costs), after the last setup."""
        for _, op in self.ops():
            op()

    def ops(self):
        """[(metric, op)]; op() runs once, returns its timed seconds and
        raises CheckFailed if its output is wrong."""
        raise NotImplementedError

    def probe(self, spark, loop_times: dict) -> dict:
        raise NotImplementedError

    def instrument(self) -> None:
        """Install span wrappers for the traced loop (optional)."""

    def teardown(self) -> None:
        """Drop cached tables before the session is stopped."""

    # -- shared probe of sampling, GraphFlat and the codec's write side --
    def _flat_probe(self, flat_kw: dict) -> dict:
        """Time sampling, k-hop membership, GraphFlat and Storing of this
        workload's graph and targets, each as its own Spark action;
        the stored GraphFeatures go to ``self.probe_path``."""
        nodes, edges, targets, path = self.nodes, self.edges, self.targets, self.probe_path
        pd_edges = self.ds.edges
        md = flat_kw["max_degree"]
        with self._group("sample_in_edges"):
            sampled = sample_in_edges(edges, **flat_kw)
            kept, busy = _timed(sampled.count)
        in_deg = pd_edges.groupby("dst").size()
        sampled = sampled.cache()
        sampled.count()
        # the re-indexed (salted two-phase) sampling must keep the same edges
        reindexed = sample_in_edges(edges, **flat_kw, reindex_threshold=REINDEX_THRESHOLD)
        _, reindex_busy = _timed(reindexed.count)
        key = ["src", "dst", "w"]
        _require(
            reindexed.toPandas().sort_values(key).reset_index(drop=True)
            .equals(sampled.toPandas().sort_values(key).reset_index(drop=True)),
            "re-indexed sampling keeps the same edges as the direct path",
        )
        with self._group("khop_members"):
            members = khop_members(sampled, targets, K)
            member_rows, khop_busy = _timed(members.count)
        sub_rows = subgraph_edges(sampled, members, K).count()
        sampled.unpersist()
        with self._group("build_graph_features"):
            _, build_busy = _timed(
                build_graph_features(nodes, edges, targets, K, **flat_kw).count
            )
        with self._group("store_graph_features"):
            _, build_store = _timed(
                lambda: store_graph_features(
                    build_graph_features(nodes, edges, targets, K, **flat_kw), path
                )
            )
        blobs = pq.read_table(path, columns=["gf"]).column("gf").to_pylist()
        recs = [SubgraphRecord.from_bytes(b) for b in blobs]
        out = {
            "sampling.busy_s": busy,
            "sampling.reindex_busy_s": reindex_busy,
            "sampling.edges_in": len(pd_edges),
            "sampling.edges_kept": kept,
            "sampling.kept_ratio": kept / len(pd_edges),
            "sampling.hub_dsts": int((in_deg > md).sum()),
            "graphflat.khop_busy_s": khop_busy,
            "graphflat.build_busy_s": build_busy,
            "graphflat.member_rows": member_rows,
            "graphflat.subgraph_edge_rows": sub_rows,
            "graphfeature.store_s": build_store - build_busy,
            "graphfeature.bytes_written": _dir_bytes(path),
        }
        for what, sizes in (("nodes", [r.n_nodes for r in recs]), ("edges", [r.n_edges for r in recs])):
            p50, p99, mx = _pcts(sizes)
            out.update({f"graphflat.gf_{what}_p50": p50, f"graphflat.gf_{what}_p99": p99,
                        f"graphflat.gf_{what}_max": mx})
        p50, p99, mx = _pcts([len(b) for b in blobs])
        out.update({"graphfeature.record_bytes_p50": p50, "graphfeature.record_bytes_p99": p99,
                    "graphfeature.record_bytes_max": mx})
        return out


# ----------------------------------------------------------------- train-ppi
class TrainPPI(Workload):
    """GraphTrainer epochs and parameter-server rounds over stored
    GraphFeatures of ppi_lite (the Table-4 2-layer GAT)."""

    name = "train-ppi"
    item = "targets"

    def setup(self, spark) -> None:
        z = self.sizes
        self.ds = ds = ppi_lite(
            n_graphs=z["n_graphs"], nodes_per_graph=z["nodes_per_graph"],
            n_train_graphs=z["n_train_graphs"], n_val_graphs=1, seed=self.seed,
        )
        _require_simple_graph(ds.edges)
        nodes, edges = ds.to_spark(spark)
        self.nodes, self.edges = nodes.cache(), edges.cache()
        self.nodes.count(), self.edges.count()
        rng = np.random.default_rng(self.seed)
        ids = np.sort(rng.permutation(ds.split_ids("train"))[: z["n_targets"]])
        self.items = len(ids)
        self.targets = spark.createDataFrame(pd.DataFrame({"id": ids})).cache()
        self.targets.count()
        self.flat_kw = dict(max_degree=8, seed=self.seed)
        self.path = os.path.join(self.workdir, "gf_train")
        self.gf = None  # stored GraphFeatures, written by warm_up
        self.cfg = TrainConfig(
            kind="gat", n_layers=K, hidden=64, n_out=24, task="multilabel", lr=0.01,
            batch_size=z["batch_size"], seed=1, pipeline=True, pruning=True, partition=True,
        )
        self.d_in = ds.feat_dim
        self.n_workers = spark.sparkContext.defaultParallelism
        self.source = ParquetSource(self.path, batch_size=self.cfg.batch_size)

    def warm_up(self) -> None:
        # GraphFlat and Storing of the training GraphFeatures
        store_graph_features(
            build_graph_features(self.nodes, self.edges, self.targets, K, **self.flat_kw),
            self.path,
        )
        self.gf = load_graph_features(self.nodes.sparkSession, self.path).cache()
        _require(self.gf.count() == self.items, "one stored GraphFeature per target")
        # references: epoch-0 loss without pruning/partition, and the
        # single-process mean gradient over the same records
        plain = replace(self.cfg, pruning=False, partition=False)
        self.ref_loss = GraphTrainer(plain, self.d_in).train_epoch(self.source, 0)
        _require(np.isfinite(self.ref_loss), "reference loss is finite")
        ref = GraphTrainer(self.cfg, self.d_in)
        self.params0 = {k: v.copy() for k, v in ref.model.get_params().items()}
        self.ref_grads = self._local_gradient(ref)
        super().warm_up()

    def _local_gradient(self, tr: GraphTrainer) -> dict:
        blobs = sorted(r["gf"] for r in self.gf.collect())
        bs = self.cfg.batch_size
        total: dict[str, np.ndarray] = {}
        for i in range(0, len(blobs), bs):
            bg, adj = tr.vectorize(blobs[i : i + bs])
            tr.model.zero_grad()
            tr.model.loss_and_grad(bg.X, adj, bg.target_idx, bg.labels)  # multilabel
            for k, g in tr.model.get_grads().items():
                total[k] = total.get(k, 0.0) + g * len(bg.target_idx)
        return {k: v / len(blobs) for k, v in total.items()}

    def ops(self):
        return [("items_per_s", self.train_op), ("alt_items_per_s", self.ps_op)]

    def train_op(self) -> float:
        # a fresh trainer per op: every timed epoch is epoch 0 from the
        # same initial parameters, so its loss has a fixed reference
        tr = GraphTrainer(self.cfg, self.d_in)
        if self.tracer is not None:
            self._instrument_trainer(tr)
        loss, dt = _timed(lambda: tr.train_epoch(self.source, 0))
        _require(np.isfinite(loss), "epoch loss is finite")
        _require(np.isclose(loss, self.ref_loss, rtol=1e-8, atol=0.0),
                 f"epoch-0 loss {loss!r} != unpruned/unpartitioned {self.ref_loss!r}")
        return dt

    def ps_op(self) -> float:
        params = {k: v.copy() for k, v in self.params0.items()}
        opt = Adam(lr=self.cfg.lr)

        def round_():
            with self._group("distributed_gradient"):
                grads, loss = distributed_gradient(
                    self.gf, self.cfg, self.d_in, params, self.n_workers
                )
            opt.step(params, grads)
            return grads, loss

        with self.tracer.span("ps.round") if self.tracer is not None else nullcontext():
            (grads, loss), dt = _timed(round_)
        _require(np.isfinite(loss), "PS loss is finite")
        for k, g in self.ref_grads.items():
            _require(np.allclose(grads[k], g, rtol=1e-7, atol=1e-10),
                     f"PS gradient {k} != single-process gradient")
        return dt

    def instrument(self) -> None:
        t = self.tracer
        t.patch(SubgraphRecord, "from_bytes", "graphfeature.decode")
        t.patch(trainer_mod, "merge_batch", "vectorize.merge")

        def count_adj(adj, bg: BatchGraph, n_layers, *, self_loops, pruning):
            full = bg.n_edges + (bg.n_nodes if self_loops else 0)
            t.add("vectorize.batches", 1)
            t.add("vectorize.batch_nodes", bg.n_nodes)
            t.add("vectorize.batch_edges", bg.n_edges)
            t.add("vectorize.kept_edges", sum(e.m for e in adj))
            t.add("vectorize.full_edges", n_layers * full)

        t.patch(BatchGraph, "adj_list", "vectorize.adj_list", after=count_adj)

    def _instrument_trainer(self, tr: GraphTrainer) -> None:
        t = self.tracer
        t.patch(tr, "train_epoch", "trainer.epoch")
        t.patch(tr.opt, "step", "nn.adam")
        t.patch(tr.model, "loss_and_grad", "nn.loss_and_grad")
        named = [(f"l{i}", lyr) for i, lyr in enumerate(tr.model.layers)]
        for name, lyr in named + [("head", tr.model.head)]:
            t.patch(lyr, "forward", f"nn.{name}.forward")
            t.patch(lyr, "backward", f"nn.{name}.backward")

    def probe(self, spark, loop_times: dict) -> dict:
        t = self.tracer
        epochs = max(t.count("trainer.epoch"), 1)
        main = threading.main_thread().ident
        busy_main = t.total("nn.loss_and_grad", main) + t.total("nn.adam", main)
        out = {
            "trainer.epoch_s": t.total("trainer.epoch") / epochs,
            "trainer.wait_s": (t.total("trainer.epoch") - busy_main) / epochs,
            "trainer.batches": t.count("nn.loss_and_grad") / epochs,
            "nn.adam_s": t.total("nn.adam") / epochs,
            "nn.loss_and_grad_s": t.self_time("nn.loss_and_grad") / epochs,
            "graphfeature.decode_s": t.total("graphfeature.decode") / epochs,
            "vectorize.merge_s": t.total("vectorize.merge") / epochs,
            "vectorize.adj_list_s": t.total("vectorize.adj_list") / epochs,
            "ps.round_s": float(np.median(t.durations("ps.round") or [0.0])),
            "ps.param_bytes": sum(v.nbytes for v in self.params0.values()),
        }
        for name in ("l0", "l1", "head"):
            for d in ("forward", "backward"):
                out[f"nn.{name}.{d}_s"] = t.total(f"nn.{name}.{d}") / epochs
        c = t.counters
        nb = max(c["vectorize.batches"], 1)
        out["vectorize.batch_nodes_mean"] = c["vectorize.batch_nodes"] / nb
        out["vectorize.batch_edges_mean"] = c["vectorize.batch_edges"] / nb
        out["vectorize.pruned_edge_ratio"] = 1 - c["vectorize.kept_edges"] / max(c["vectorize.full_edges"], 1)
        out.update(self._flat_probe(self.flat_kw))
        return out

    def teardown(self) -> None:
        for df in (self.targets, self.nodes, self.edges):
            df.unpersist()
        if self.gf is not None:
            self.gf.unpersist()


# ----------------------------------------------------------------- infer-uug
class InferUUG(Workload):
    """GraphInfer against the Original per-GraphFeature inference over
    every node of uug_lite (Table 5), 2-layer GAT, 8-dim embeddings."""

    name = "infer-uug"
    item = "nodes"
    MAX_DEGREE, SAMPLE_SEED, MODEL_SEED = 8, 13, 3

    def setup(self, spark) -> None:
        self.ds = ds = uug_lite(n=self.sizes["n"], avg_in_degree=10.0, seed=self.seed)
        _require_simple_graph(ds.edges)
        nodes, edges = ds.to_spark(spark)
        self.nodes, self.edges = nodes.cache(), edges.cache()
        self.nodes.count(), self.edges.count()
        self.all_ids = ds.nodes["id"].to_numpy()
        self.items = len(self.all_ids)
        self.targets = self.nodes.select("id")
        model = GNNModel("gat", ds.feat_dim, 8, 1, K, "binary", seed=self.MODEL_SEED)
        self.slices = model.to_slices()
        self.flat_kw = dict(max_degree=self.MAX_DEGREE, seed=self.SAMPLE_SEED)
        self.path = os.path.join(self.workdir, "gf_infer")

    def warm_up(self) -> None:
        # reference scores: one-process forward over the sampled graph
        self.sampled = sample_in_edges(self.edges, **self.flat_kw).toPandas()
        self.ref = self._numpy_forward(self.slices)
        super().warm_up()

    def _numpy_forward(self, slices) -> np.ndarray:
        e = self.sampled
        bg = whole_graph_batch(
            self.all_ids, self.ds.feat_matrix(), e["src"].to_numpy(), e["dst"].to_numpy(),
            e["w"].to_numpy(), self.all_ids, np.zeros((self.items, 1)),
        )
        adj = bg.adj_list(K, self_loops=NEEDS_SELF_LOOPS["gat"], pruning=False)
        H = bg.X
        for spec, a in zip(slices[:-1], adj):
            H = layer_from_slice(spec).forward(H, a)
        return layer_from_slice(slices[-1]).forward(H)[:, 0]

    def _check_scores(self, tbl) -> None:
        _require(tbl.num_rows == self.items, f"{tbl.num_rows} nodes scored, want {self.items}")
        ids = tbl.column("id").to_numpy()
        order = np.argsort(ids)
        _require(np.array_equal(ids[order], self.all_ids), "every node scored exactly once")
        scores = tbl.column("score").combine_chunks().flatten().to_numpy()
        _require(scores.shape[0] == self.items, "one score per node")
        _require(np.allclose(scores[order], self.ref, rtol=1e-8, atol=1e-8),
                 "scores equal the one-process forward")

    def ops(self):
        return [("items_per_s", self.graphinfer_op), ("alt_items_per_s", self.original_op)]

    def graphinfer_op(self) -> float:
        def run():
            with self._group("run_graph_infer"):
                return run_graph_infer(
                    self.nodes, self.edges, self.slices,
                    max_degree=self.MAX_DEGREE, seed=self.SAMPLE_SEED,
                ).toArrow()

        tbl, dt = _timed(run)
        self._check_scores(tbl)
        return dt

    def original_op(self) -> float:
        spark = self.nodes.sparkSession

        def run():
            with self._group("store_graph_features"):
                store_graph_features(
                    build_graph_features(self.nodes, self.edges, self.targets, K, **self.flat_kw),
                    self.path,
                )
            with self._group("run_original_inference"):
                return run_original_inference(
                    load_graph_features(spark, self.path), self.slices, n_layers=K
                ).toArrow()

        tbl, dt = _timed(run)
        self._check_scores(tbl)
        return dt

    def probe(self, spark, loop_times: dict) -> dict:
        out = self._flat_probe(self.flat_kw)
        out["infer.original_flat_s"] = out["graphflat.build_busy_s"]
        out["infer.original_store_s"] = out["graphfeature.store_s"]
        _, out["infer.original_forward_s"] = _timed(
            run_original_inference(
                load_graph_features(spark, self.probe_path), self.slices, n_layers=K
            ).count
        )
        # rounds: the first k GNN slices plus a head, for k = 0..K
        zero_head = {"kind": "dense", "act": "id", "params": {
            "W": np.zeros((self.ds.feat_dim, 1)), "b": np.zeros(1)}}
        t = []
        for k in range(K + 1):
            head = self.slices[-1] if k else zero_head
            _, dt = _timed(run_graph_infer(
                self.nodes, self.edges, self.slices[:k] + [head],
                max_degree=self.MAX_DEGREE, seed=self.SAMPLE_SEED,
            ).count)
            t.append(dt)
        out["infer.head.s"] = t[0]
        out["infer.round0.s"] = t[1] - t[0]
        out["infer.round1.s"] = t[2] - t[1]
        _, out["infer.numpy_floor_s"] = _timed(lambda: self._numpy_forward(self.slices))
        # Original time over GraphInfer time, from the untraced loop
        out["infer.speedup"] = float(np.median(loop_times["items_per_s"])) / float(
            np.median(loop_times["alt_items_per_s"]))
        sampled = spark.createDataFrame(self.sampled).cache()
        out.update({f"infer.{k}": v for k, v in inference_cost_report(
            sampled, self.targets, K, self.items, len(self.sampled)).items()})
        sampled.unpersist()
        out.update(self._original_replay(self.probe_path))
        return out

    def _original_replay(self, path: str) -> dict:
        """The Original path's per-record work (decode, merge, forward)
        in this process, traced per layer."""
        t = self.tracer
        layers = [layer_from_slice(s) for s in self.slices]
        names = [f"l{i}" for i in range(K)] + ["head"]
        for name, lyr in zip(names, layers):
            t.patch(lyr, "forward", f"nn.{name}.forward")
        t.patch(SubgraphRecord, "from_bytes", "graphfeature.decode")
        t.patch(vectorize, "merge_batch", "vectorize.merge")
        try:
            for blob in pq.read_table(path, columns=["gf"]).column("gf").to_pylist():
                bg = vectorize.merge_batch([SubgraphRecord.from_bytes(blob)])
                t.add("vectorize.batches", 1)
                t.add("vectorize.batch_nodes", bg.n_nodes)
                t.add("vectorize.batch_edges", bg.n_edges)
                H, e = bg.X, bg.edges_raw().with_self_loops()
                for lyr in layers[:-1]:
                    H = lyr.forward(H, e)
                layers[-1].forward(H[bg.target_idx])
        finally:
            t.restore()
        c = t.counters
        out = {f"nn.{n}.forward_s": t.total(f"nn.{n}.forward") for n in names}
        out["graphfeature.decode_s"] = t.total("graphfeature.decode")
        out["vectorize.merge_s"] = t.total("vectorize.merge")
        out["vectorize.batch_nodes_mean"] = c["vectorize.batch_nodes"] / max(c["vectorize.batches"], 1)
        out["vectorize.batch_edges_mean"] = c["vectorize.batch_edges"] / max(c["vectorize.batches"], 1)
        return out

    def teardown(self) -> None:
        self.nodes.unpersist()
        self.edges.unpersist()


WORKLOADS = {w.name: w for w in (TrainPPI, InferUUG)}
