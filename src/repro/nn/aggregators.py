"""Aggregation kernels — the operator-level contribution of AGL (§3.3.2).

A GNN layer aggregates edge values into destination nodes
(``out[dst[e]] += val[e]``). AGL's *edge partitioning* strategy sorts
edges by destination so the adjacency splits into destination-disjoint
partitions that threads can reduce without conflicts. We reproduce the
CPU trade-off with two kernels:

- ``add_at``      — ``np.add.at`` buffered scatter: conflict-safe but
                    slow (the "conventional framework" kernel; the
                    PyG stand-in and AGL without ``partition`` use it).
- ``partitioned`` — destination-sorted segment reduction via
                    ``np.add.reduceat`` over ``t`` destination-disjoint
                    partitions, on real threads. This is AGL's
                    edge-partitioning kernel; the DGL stand-in runs it
                    too. ``t`` and the thread pool are the machine's
                    core count.

The kernel choice applies to the ``[m, d]`` row reductions
(:meth:`Aggregator.gather_scale_reduce`). GAT's 1-D segment sums and
maxes are one ``np.bincount`` and one ``np.maximum.at`` under both
kernels: each takes microseconds where a threaded span loop costs
hundreds, and the sum equals ``np.add.at`` bit for bit.

Both kernels are exact (no approximation) and are property-tested
against each other. Edge arrays are **assumed sorted by ``dst``** for
``partitioned`` — :mod:`repro.core.vectorize` guarantees this, exactly
as the paper states ("Edges in the sparse matrix are sorted by their
destination nodes").
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

#: threads of the kernel pool and partitions of ``partitioned``
N_CORES = os.cpu_count() or 1

#: the kernel pool; it starts its threads on its first task
_POOL = ThreadPoolExecutor(max_workers=N_CORES)

KINDS = ("add_at", "partitioned")


def segment_starts(sorted_dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (unique destinations, start offsets) of a dst-sorted edge list.

    ``starts[i]`` is the first edge index of segment ``uniq[i]``;
    segments are contiguous because the input is sorted.
    """
    if sorted_dst.size == 0:
        return np.empty(0, dtype=sorted_dst.dtype), np.empty(0, dtype=np.int64)
    mask = np.empty(sorted_dst.shape, dtype=bool)
    mask[0] = True
    np.not_equal(sorted_dst[1:], sorted_dst[:-1], out=mask[1:])
    starts = np.flatnonzero(mask)
    return sorted_dst[starts], starts


def edge_partitions(n_edges: int, starts: np.ndarray, t: int) -> list[tuple[int, int]]:
    """Split ``n_edges`` dst-sorted edges into ≤``t`` destination-disjoint
    spans ``(lo, hi)``.

    Split points are snapped to segment boundaries so no destination row
    straddles two partitions — AGL's conflict-free property.
    """
    if n_edges == 0 or t <= 1 or starts.size <= 1:
        return [(0, n_edges)] if n_edges else []
    # Ideal split points, snapped to the nearest following segment start.
    cuts = [0]
    for i in range(1, t):
        ideal = i * n_edges // t
        j = int(np.searchsorted(starts, ideal, side="left"))
        cut = int(starts[j]) if j < starts.size else n_edges
        if cut > cuts[-1]:
            cuts.append(cut)
    if cuts[-1] != n_edges:
        cuts.append(n_edges)
    return list(zip(cuts[:-1], cuts[1:]))


@dataclass
class Aggregator:
    """Scatter/segment reduction engine for one kernel choice.

    Parameters
    ----------
    kind : {"add_at", "partitioned"}; ``partitioned`` splits the edges
        into ``N_CORES`` destination-disjoint partitions, run on a
        thread pool (numpy releases the GIL in ``reduceat``).
    """

    kind: str = "partitioned"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown aggregator kind {self.kind!r}; expected one of {KINDS}")

    def gather_scale_reduce(
        self,
        M: np.ndarray,
        gather_idx: np.ndarray,
        scale: np.ndarray | None,
        sorted_dst: np.ndarray,
        n_nodes: int,
    ) -> np.ndarray:
        """Fused per-edge gather → scale → per-destination reduce:
        ``out[sorted_dst[e]] += scale[e] * M[gather_idx[e]]``.

        This is the aggregation a GNN layer actually runs; fusing it is
        what makes edge partitioning pay off — each destination-disjoint
        span gathers, scales and reduces independently on its own
        thread, with no write conflicts (the paper's §3.3.2 argument).
        The ``add_at`` kernel runs the same math unfused + buffered,
        which is what conventional frameworks do.
        """
        out = np.zeros((n_nodes, M.shape[1]), dtype=M.dtype)
        m = gather_idx.shape[0]
        if m == 0:
            return out
        if self.kind == "add_at":
            vals = M[gather_idx]
            if scale is not None:
                vals = vals * scale[:, None]
            np.add.at(out, sorted_dst, vals)
            return out
        uniq, starts = segment_starts(sorted_dst)

        def reduce_span(lo: int, hi: int) -> None:
            s_lo = int(np.searchsorted(starts, lo, side="left"))
            s_hi = int(np.searchsorted(starts, hi, side="left"))
            seg = starts[s_lo:s_hi]
            if seg.size == 0:
                return
            vals = M[gather_idx[lo:hi]]
            if scale is not None:
                vals = vals * scale[lo:hi, None]
            out[uniq[s_lo:s_hi]] = np.add.reduceat(vals, seg - lo, axis=0)

        spans = edge_partitions(m, starts, N_CORES)
        if len(spans) > 1:
            list(_POOL.map(lambda s: reduce_span(*s), spans))
        else:
            reduce_span(*spans[0])
        return out

    @staticmethod
    def segment_sum(values: np.ndarray, idx: np.ndarray, n_nodes: int) -> np.ndarray:
        """1-D ``out[idx[e]] += values[e]`` over ``n_nodes`` rows, for any
        order of ``idx``, under either kernel. Accumulates in edge order,
        as ``np.add.at`` does."""
        return np.bincount(idx, weights=values, minlength=n_nodes)

    @staticmethod
    def segment_max(values: np.ndarray, idx: np.ndarray, n_nodes: int) -> np.ndarray:
        """Per-row max of 1-D edge values (−inf for empty rows), for any
        order of ``idx``, under either kernel."""
        out = np.full(n_nodes, -np.inf, dtype=values.dtype)
        np.maximum.at(out, idx, values)
        return out

    def segment_softmax(
        self, scores: np.ndarray, dst: np.ndarray, n_nodes: int
    ) -> np.ndarray:
        """Numerically-stable softmax of edge scores within each
        destination segment (GAT attention, §2.2 / Veličković et al.)."""
        mx = self.segment_max(scores, dst, n_nodes)
        ex = np.exp(scores - mx[dst])
        denom = self.segment_sum(ex, dst, n_nodes)
        return ex / np.maximum(denom[dst], 1e-30)
