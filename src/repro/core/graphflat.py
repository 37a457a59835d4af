"""GraphFlat — distributed K-hop neighborhood generation (§3.2).

:func:`khop_members` + :func:`build_graph_features` are the
root-anchored frontier formulation of the pipeline: K iterated
``join``/``groupBy`` rounds over (root, member) pairs, then one keyed
sorted reduce (:func:`sort_by_key` and :func:`reduce_by_key`, the reduce
every GraphInfer round runs too) that assembles each root's member and
edge rows into one GraphFeature record. Tests assert the neighborhoods
equal those of the paper's literal merge/propagate Map/Reduce rounds
(kept in ``tests/graphflat_reference.py``) and of a DuckDB
recursive-CTE BFS.

:func:`worker_entry` wraps every Python function this package ships to
Spark workers — the reducer :func:`reduce_by_key` runs, and the map-side
functions of ``infer.py`` and ``ps.py`` — so a reused worker does not
re-read Spark's own zip archives before each task. :func:`cached_on`
is the one memo of what the pipelines derive from their input frames:
the tables they cache, each freed when the last frame holding it is
collected, and the model-independent plans of GraphFlat and
GraphInfer, built once per frames and options. Each call adds its own
reducer on top, so Spark plans it under the current conf.

Direction convention (§2.1): an edge row (src, dst, w) is src → dst,
so ``dst``'s in-edge neighbors include ``src``; d(v, u) is the length
of the shortest directed path *from u to v*. The K-hop membership of
root v is {u : d(v, u) ≤ K}, reached by walking in-edges backwards from
v. The edge set kept for v is every in-edge of a member at distance
≤ K−1 — the sufficient-and-necessary set for a K-layer GNN (Theorem 1).
"""
from __future__ import annotations

import collections
import functools
import os
import sys
import threading
import weakref
import zipimport
from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark import SparkFiles, TaskContext
from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .graphfeature import SubgraphRecord
from .sampling import sample_in_edges

#: row kinds of the assembly table; a root's group sorts as nodes, then edges
NODE, EDGE = 0, 1


def _concat(parts: list[pa.RecordBatch]) -> pa.RecordBatch:
    """``parts`` (same schema, not all empty) as one batch."""
    if len(parts) == 1:
        return parts[0]
    return pa.Table.from_batches(parts).combine_chunks().to_batches()[0]


def _key_groups(batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    """Re-cut a key-sorted Arrow stream so no key group spans two
    batches. Each batch's trailing group is held back, as a list of
    slices, until a batch shows it has ended, and is then joined once
    (with the rows before that batch's cut, if the group ends there), so
    a key group spread over many batches costs time linear in its rows."""
    held: list[pa.RecordBatch] = []  # slices of the unfinished trailing group
    for rb in batches:
        if rb.num_rows == 0:
            continue
        keys = rb.column("key").to_numpy()
        cut = int(np.searchsorted(keys, keys[-1], side="left"))
        if held and keys[0] != tail:  # the held group ended with the last batch
            yield _concat(held)
            held = []
        if cut:
            yield _concat([*held, rb.slice(0, cut)])
            held = []
        held.append(rb.slice(cut))
        tail = keys[-1]
    if held:
        yield _concat(held)


def _matrix(col: pa.ListArray) -> np.ndarray:
    """The non-null rows of a ``list<double>`` column as one ``[n, d]`` matrix."""
    n = len(col) - col.null_count
    flat = col.flatten().to_numpy()
    return flat.reshape(n, flat.size // n if n else 0)


def _keep_directory() -> None:
    """``invalidate_caches`` of an archive that does not change."""


def worker_entry(fn):
    """``fn``, the body of a Python function Spark runs on its workers,
    behind one guard against Python's per-task zip rescan.

    Before every task PySpark's worker calls
    ``importlib.invalidate_caches()``, and each ``zipimporter`` in
    ``sys.path_importer_cache`` (one per imported package of Spark's
    ``pyspark.zip``, plus ``py4j`` and the ``spark-core`` jar) then
    re-reads its whole archive: about 0.2 s per task. Spark's install
    does not change while the application runs, so on a worker this
    sets ``invalidate_caches`` to a no-op on each such importer whose
    archive lies outside :meth:`SparkFiles.getRootDirectory`, then calls
    ``fn``. Archives shipped with ``addPyFile`` live under that root and
    refresh as before. Workers are reused, so each task after a
    worker's first skips the rescan. Off a worker (no task context) it
    only calls ``fn``."""

    @functools.wraps(fn)
    def entry(*args, **kwargs):
        if TaskContext.get() is not None:
            root = os.path.join(SparkFiles.getRootDirectory(), "")
            for finder in sys.path_importer_cache.values():
                if isinstance(finder, zipimport.zipimporter) and not finder.archive.startswith(root):
                    finder.invalidate_caches = _keep_directory
        return fn(*args, **kwargs)

    return entry


def sort_by_key(rows: DataFrame, order: list[str]) -> DataFrame:
    """The shuffle-and-sort half of one MapReduce reduce: ``rows``
    shuffled by ``key``, each partition sorted by ``(key, *order)``."""
    return rows.repartition("key").sortWithinPartitions("key", *order)


def reduce_by_key(rows: DataFrame, fn, schema: str) -> DataFrame:
    """The reduce over ``rows`` from :func:`sort_by_key`: ``fn`` (Arrow
    batches → Arrow batches of ``schema``) runs over whole key groups.
    Each call is a fresh DataFrame, planned under the current conf even
    when ``rows`` is memoized (a DataFrame keeps its first physical plan)."""
    return rows.mapInArrow(worker_entry(lambda batches: fn(_key_groups(batches))), schema)


_MEMO = weakref.WeakKeyDictionary()  # frame → {key: a frame or cached table derived from it}
_LOCK = threading.Lock()
_HOLDERS = collections.Counter()  # Spark cache entry → live memo entries that cached it
_RELEASED = collections.deque()  # (cache entry, table, session) of collected frames


def _release(*collected) -> None:
    """Queue the holds of ``collected`` frames, then drop every queued
    hold and unpersist a cache entry when its last holder goes. Frames'
    finalizers call this, also from a GC inside :func:`cached_on`, so it
    never waits for the lock: the lock's holder releases the queue after."""
    _RELEASED.extend(collected)
    while _RELEASED and _LOCK.acquire(blocking=False):
        try:
            while _RELEASED:
                entry, table, session = _RELEASED.popleft()
                _HOLDERS[entry] -= 1
                if not _HOLDERS[entry]:
                    del _HOLDERS[entry]
                    if session.sparkContext._jsc is not None:  # the context is not stopped
                        table.unpersist()
        finally:
            _LOCK.release()


def cached_on(frame: DataFrame, key: tuple, build, *, cache: bool = True):
    """``build()`` memoized on the ``frame`` object and ``key`` (a frame in
    ``key`` compares by identity): a repeated call returns it without
    calling ``build``. The memo entry lives as long as ``frame``.

    ``build`` runs outside the memo's lock, so callers on other frames
    never wait for it; of two racing builds of one entry the first to
    finish is kept. Without ``cache`` the value is held as built: plain
    frames, whose plans are then built once. With ``cache`` it is a
    DataFrame or an RDD, cached. Memo entries over frames with equal
    data build equal DataFrame plans, which Spark caches as one entry;
    that entry is unpersisted when the last frame holding it is
    collected. The application's end frees the rest."""
    try:
        with _LOCK:
            value = _MEMO.setdefault(frame, {}).get(key)
        if value is None:
            built = build()
            with _LOCK:
                value = _MEMO[frame].setdefault(key, built)
                if cache and value is built:
                    value.cache()
                    entry = value.semanticHash() if isinstance(value, DataFrame) else value
                    _HOLDERS[entry] += 1
                    hold = (entry, value, frame.sparkSession)
                    weakref.finalize(frame, _release, hold).atexit = False
        return value
    finally:
        _release()


def sampled_edges(
    nodes: DataFrame, edges: DataFrame, max_degree: int | None, *,
    strategy: str = "uniform", seed: int = 0,
) -> DataFrame:
    """The cached ``(src, dst, w)`` table both pipelines run on, made
    legal, then sampled if ``max_degree`` is set. The ingest contract:
    a null, NaN or infinite ``w`` raises ``ValueError``; edges with an
    endpoint missing from ``nodes`` are dropped; of duplicate ``(dst,
    src)`` edges the one with the largest ``w`` is kept, by a Window that
    reuses the ``dst`` partitioning of the last join, so the table stays
    hash-partitioned by ``dst``. Memoized by :func:`cached_on` on both
    frames and the options: GraphFlat and GraphInfer share it (§3.4)."""
    def build() -> DataFrame:
        bad = edges.filter("w IS NULL OR isnan(w) OR abs(w) = double('inf')").count()
        if bad:
            raise ValueError(f"sampled_edges: {bad} edges have a null, NaN or infinite w")
        copies = Window.partitionBy("dst", "src").orderBy(F.desc("w"))
        legal = (
            edges.join(nodes, edges.src == nodes.id, "left_semi")
            .join(nodes, F.col("dst") == nodes.id, "left_semi")
            .withColumn("_rn", F.row_number().over(copies))
            .filter("_rn = 1")
        )
        if max_degree is not None:
            legal = sample_in_edges(legal, max_degree, strategy=strategy, seed=seed)
        return legal.select("src", "dst", "w")

    return cached_on(edges, ("sampled_edges", nodes, max_degree, strategy, seed), build)


def khop_members(edges: DataFrame, targets: DataFrame, k: int) -> DataFrame:
    """(root, id, dist) rows: all nodes within k in-hops of each root,
    each ``(root, id)`` once.

    ``targets`` needs an ``id`` column; a repeated id is one root.
    ``dist`` is the exact shortest in-path length (ties resolved by min
    across rounds).
    """
    members = targets.select("id").distinct().select(
        F.col("id").alias("root"), F.col("id"), F.lit(0).alias("dist")
    )
    frontier = members
    for hop in range(1, k + 1):
        grown = (
            frontier.join(edges, frontier.id == edges.dst)
            .select("root", F.col("src").alias("id"), F.lit(hop).alias("dist"))
        )
        members = (
            members.unionByName(grown)
            .groupBy("root", "id")
            .agg(F.min("dist").alias("dist"))
        )
        # next frontier: only genuinely-new nodes at this distance
        frontier = members.filter(F.col("dist") == hop)
    return members


def subgraph_edges(edges: DataFrame, members: DataFrame, k: int) -> DataFrame:
    """(root, src, dst, w): in-edges of members at distance ≤ k−1.

    Both endpoints are guaranteed members (src sits at distance ≤ k)."""
    inner = members.filter(F.col("dist") <= k - 1).select("root", "id")
    return inner.join(edges, inner.id == edges.dst).select("root", "src", "dst", "w")


def _assemble(groups: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    """Each root's sorted node and edge rows → one ``(root, gf)`` record.

    A root with no node row of its own emits nothing. The rows are
    encoded as they come: under :func:`sampled_edges`' ingest contract
    both endpoints of every edge row are node rows of its group, and
    :func:`khop_members` lists each member once."""
    for rb in groups:
        key = rb.column("key").to_numpy()
        u, v = rb.column("u").to_numpy(), rb.column("v").to_numpy()
        w = rb.column("w").to_numpy(zero_copy_only=False)
        label = rb.column("label")
        X = _matrix(rb.column("feat"))  # one row per node row, in row order
        at = np.concatenate([[0], np.cumsum(rb.column("kind").to_numpy() == NODE)])
        starts = np.flatnonzero(np.diff(key, prepend=key[0] - 1))
        roots, gf = [], []
        for s, e in zip(starts, [*starts[1:], key.size]):
            n = at[e] - at[s]  # the group's node rows are [s, s + n)
            ids = u[s : s + n]
            i = int(np.searchsorted(ids, key[s]))
            if i == n or ids[i] != key[s]:
                continue
            lab = label[s + i].values
            rec = SubgraphRecord(
                root=key[s],
                label=np.empty(0) if lab is None else lab.to_numpy(),
                node_ids=ids,
                dists=v[s : s + n],
                feats=X[at[s] : at[s] + n],
                e_src=u[s + n : e],
                e_dst=v[s + n : e],
                e_w=w[s + n : e],
            )
            roots.append(key[s])
            gf.append(rec.to_bytes())
        if roots:
            yield pa.RecordBatch.from_arrays(
                [pa.array(roots, pa.int64()), pa.array(gf, pa.binary())], names=["root", "gf"]
            )


def build_graph_features(
    nodes: DataFrame,
    edges: DataFrame,
    targets: DataFrame,
    k: int,
    *,
    max_degree: int | None = None,
    strategy: str = "uniform",
    seed: int = 0,
) -> DataFrame:
    """The full GraphFlat pipeline → one GraphFeature record per target.

    Output schema: ``root long, gf binary``, where ``gf`` is the
    :meth:`~repro.core.graphfeature.SubgraphRecord.to_bytes` record:
    members sorted by id, edges by (src, dst, w), ``label`` from the
    node table (a null label is empty). The edge table is made legal and
    sampled once, by :func:`sampled_edges`, which GraphInfer reads too.

    The assembly is one keyed reduce over rows keyed by root, columns
    ``(key, kind, u, v, w, feat, label)``: a node row is ``(NODE, id,
    dist)`` with its features and, on the root's own row only, the label;
    an edge row is ``(EDGE, src, dst, w)``. Everything up to and
    including the rows' shuffle-and-sort is built once per frames and
    options, memoized by :func:`cached_on` on ``targets`` (the frame a
    caller most often makes anew), so it goes with ``targets``; each call
    adds its own reducer.
    """
    sampled = sampled_edges(nodes, edges, max_degree, strategy=strategy, seed=seed)

    def build() -> DataFrame:
        members = khop_members(sampled, targets, k)
        node_rows = members.join(nodes.select("id", "feat", "label"), "id").select(
            F.col("root").alias("key"),
            F.lit(NODE).cast("tinyint").alias("kind"),
            F.col("id").alias("u"),
            F.col("dist").cast("long").alias("v"),
            "feat",
            F.when(F.col("id") == F.col("root"), F.col("label")).alias("label"),
        )
        edge_rows = subgraph_edges(sampled, members, k).select(
            F.col("root").alias("key"),
            F.lit(EDGE).cast("tinyint").alias("kind"),
            F.col("src").alias("u"),
            F.col("dst").alias("v"),
            "w",
        )
        rows = node_rows.unionByName(edge_rows, allowMissingColumns=True)
        return sort_by_key(rows, ["kind", "u", "v", "w"])

    key = ("graphflat", nodes, edges, k, max_degree, strategy, seed)
    rows = cached_on(targets, key, build, cache=False)
    return reduce_by_key(rows, _assemble, "root long, gf binary")
