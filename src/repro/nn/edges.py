"""Local (vectorized-batch) edge representation.

An :class:`Edges` holds a COO edge list over *local* node indices,
**sorted by destination** — the invariant the paper states for ``A_B``
("Edges in the sparse matrix are sorted by their destination nodes")
and the one AGL's edge-partitioning kernel requires. A precomputed
permutation sorted by source supports the backward pass (scattering
gradients to source nodes with the same conflict-free kernel).

A pruned layer's edges form a bipartite block (§3.3.2): ``src`` indexes
the ``n_src`` rows the layer reads, ``dst`` the ``n_nodes`` rows it
returns, and ``dst_rows`` names each destination's own input row.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregators import Aggregator


@dataclass
class Edges:
    """dst-sorted COO edges from ``n_src`` source rows into ``n_nodes``
    destination rows; without ``dst_rows`` both are the same rows."""

    src: np.ndarray  # int64 [m], in 0..n_src−1
    dst: np.ndarray  # int64 [m], non-decreasing, in 0..n_nodes−1
    w: np.ndarray  # float [m]
    n_nodes: int
    dst_rows: np.ndarray | None = None  # int64 [n_nodes]: each destination's source row
    n_src: int = -1  # defaults to n_nodes
    _src_order: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.n_src < 0:
            self.n_src = self.n_nodes

    @classmethod
    def from_arrays(
        cls, src: np.ndarray, dst: np.ndarray, w: np.ndarray | None, n_nodes: int
    ) -> "Edges":
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.ones(src.shape[0]) if w is None else np.asarray(w, dtype=np.float64)
        order = np.argsort(dst, kind="stable")
        return cls(src[order], dst[order], w[order], n_nodes)

    @property
    def m(self) -> int:
        return int(self.src.shape[0])

    @property
    def src_order(self) -> np.ndarray:
        if self._src_order is None:
            self._src_order = np.argsort(self.src, kind="stable")
        return self._src_order

    def with_self_loops(self) -> "Edges":
        """Append one self-loop per node (GCN/GAT aggregate over
        ``{v} ∪ N_v^+``, Eq. 1). Square edges only."""
        assert self.dst_rows is None
        ids = np.arange(self.n_nodes, dtype=np.int64)
        return Edges.from_arrays(
            np.concatenate([self.src, ids]),
            np.concatenate([self.dst, ids]),
            np.concatenate([self.w, np.ones(self.n_nodes)]),
            self.n_nodes,
        )

    def in_degrees(self, weighted: bool = False) -> np.ndarray:
        """In-edges per node, or with ``weighted`` the sum of their ``|w|``."""
        w = np.abs(self.w) if weighted else None
        return np.bincount(self.dst, weights=w, minlength=self.n_nodes).astype(np.float64)

    def at_dst(self, A: np.ndarray) -> np.ndarray:
        """The destination rows of the source-row array ``A``."""
        return A if self.dst_rows is None else A[self.dst_rows]

    def from_dst(self, A: np.ndarray) -> np.ndarray:
        """The destination-row array ``A`` at its source rows, 0 elsewhere."""
        if self.dst_rows is None:
            return A
        out = np.zeros((self.n_src,) + A.shape[1:], dtype=A.dtype)
        out[self.dst_rows] = A
        return out

    def aggregate(
        self, agg: Aggregator, M: np.ndarray, scale: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused out[dst[e]] += scale[e] * M[src[e]] (forward direction)."""
        return agg.gather_scale_reduce(M, self.src, scale, self.dst, self.n_nodes)

    def aggregate_rev(
        self, agg: Aggregator, M: np.ndarray, scale: np.ndarray | None = None
    ) -> np.ndarray:
        """Fused out[src[e]] += scale[e] * M[dst[e]] (backward direction),
        reduced in src-sorted order to stay conflict-free."""
        o = self.src_order
        return agg.gather_scale_reduce(
            M, self.dst[o], None if scale is None else scale[o], self.src[o], self.n_src
        )
