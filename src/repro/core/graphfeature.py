"""GraphFeature records — the "flattened subgraph string" artifact of
GraphFlat (§3.2.1 step 3: *Storing*).

The paper flattens each K-hop neighborhood to a protobuf string on a
distributed filesystem. Protobuf is unavailable offline, so the
flattened form here is a compact binary record (a fixed header plus
raw numpy buffers, :meth:`SubgraphRecord.to_bytes`) in a parquet
column on the local filesystem (substitution documented in DESIGN.md);
the property that matters — a self-contained, batch-loadable record
per target node — is preserved and round-trip tested.

That record is the only GraphFeature form. GraphFlat's assembly
reducer writes one :meth:`SubgraphRecord.to_bytes` record per root as
``(root, gf: binary)``; :func:`store_graph_features` writes that frame
to parquet, and the trainer, the PS workers, the "Original" inference
baseline and :func:`collect_records` decode ``gf`` with
:meth:`SubgraphRecord.from_bytes` into :class:`SubgraphRecord` (plain
numpy arrays).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession


@dataclass
class SubgraphRecord:
    """One decoded GraphFeature: the K-hop neighborhood of ``root``."""

    root: int
    label: np.ndarray  # [n_out] or empty
    node_ids: np.ndarray  # [n] global ids; node_ids[?] == root somewhere
    dists: np.ndarray  # [n] hop distance from root
    feats: np.ndarray  # [n, f]
    e_src: np.ndarray  # [m] global ids
    e_dst: np.ndarray  # [m] global ids
    e_w: np.ndarray  # [m]

    @property
    def n_nodes(self) -> int:
        return int(self.node_ids.shape[0])

    @property
    def n_edges(self) -> int:
        return int(self.e_src.shape[0])

    def to_bytes(self) -> bytes:
        """Flatten to the compact binary storage form — the stand-in for
        the paper's protobuf string (decode is a few ``np.frombuffer``
        calls, so the disk-based trainer is not dominated by parsing,
        just as protobuf decoding is cheap)."""
        import struct

        n, m = self.n_nodes, self.n_edges
        f = self.feats.shape[1] if n else 0
        lab = np.asarray(self.label, dtype=np.float64)
        head = struct.pack("<qqqqq", int(self.root), lab.size, n, f, m)
        return b"".join(
            [
                head,
                lab.tobytes(),
                np.asarray(self.node_ids, dtype=np.int64).tobytes(),
                np.asarray(self.dists, dtype=np.int64).tobytes(),
                np.asarray(self.feats, dtype=np.float64).tobytes(),
                np.asarray(self.e_src, dtype=np.int64).tobytes(),
                np.asarray(self.e_dst, dtype=np.int64).tobytes(),
                np.asarray(self.e_w, dtype=np.float64).tobytes(),
            ]
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "SubgraphRecord":
        import struct

        root, nl, n, f, m = struct.unpack_from("<qqqqq", buf, 0)
        o = 40

        def take(count, dtype):
            nonlocal o
            arr = np.frombuffer(buf, dtype=dtype, count=count, offset=o)
            o += arr.nbytes
            return arr

        label = take(nl, np.float64)
        node_ids = take(n, np.int64)
        dists = take(n, np.int64)
        feats = take(n * f, np.float64).reshape(n, f)
        return cls(
            root=int(root),
            label=label,
            node_ids=node_ids,
            dists=dists,
            feats=feats,
            e_src=take(m, np.int64),
            e_dst=take(m, np.int64),
            e_w=take(m, np.float64),
        )


def store_graph_features(gf: DataFrame, path: str) -> None:
    """Write GraphFlat's ``(root, gf)`` records to parquet — the
    pipeline's *Storing* phase (one flattened record per target, the
    paper's protobuf-string analog)."""
    gf.write.mode("overwrite").parquet(path)


def load_graph_features(spark: SparkSession, path: str) -> DataFrame:
    """(root, gf: binary) DataFrame back from parquet."""
    return spark.read.parquet(path)


def collect_records(gf: DataFrame) -> list[SubgraphRecord]:
    """Decode ``(root, gf)`` records on the driver, in root order (not
    in the order Spark's partitioning happens to return them)."""
    recs = [SubgraphRecord.from_bytes(r["gf"]) for r in gf.select("gf").collect()]
    return sorted(recs, key=lambda r: r.root)
