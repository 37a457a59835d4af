"""Synthetic attributed-graph generators standing in for the paper's
datasets (§4.1.1). No network access exists in this environment, so
Cora / PPI / UUG are replaced by deterministic generators that preserve
the *task structure* each dataset contributes to the evaluation:

- :func:`cora_lite`  — one transductive citation-style graph: stochastic
  block model, 7 classes, sparse class-correlated binary features,
  140/500/1000 train/val/test nodes (paper's split sizes).
- :func:`ppi_lite`   — several independent graphs, inductive multilabel
  classification (paper: 24 graphs / 121 labels; scaled down), Gaussian
  community-correlated features.
- :func:`uug_lite`   — a directed, hub-heavy (power-law in-degree)
  social graph with binary labels where only *marked* in-neighbors carry
  label signal — an attention-learnable structure, so GAT ≫ GCN/SAGE as
  on the paper's UUG. Hubs exercise GraphFlat's sampling.

All generators are deterministic in ``seed`` and return pandas frames
(:class:`GraphDataset`); :func:`GraphDataset.to_spark` lifts them to the
node/edge tables GraphFlat consumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

NODE_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("feat", T.ArrayType(T.DoubleType()), False),
        T.StructField("label", T.ArrayType(T.DoubleType()), False),
        T.StructField("split", T.StringType(), False),
    ]
)
EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
        T.StructField("w", T.DoubleType(), False),
    ]
)


@dataclass
class GraphDataset:
    """A generated dataset: node/edge pandas frames + task metadata.

    ``nodes``: id, feat (list[float]), label (list[float]; class id for
    multiclass, multi-hot for multilabel, {0,1} for binary), split.
    ``edges``: src, dst, w — directed edges ``src -> dst`` (an
    undirected input is emitted as both directions, §2.1).
    """

    name: str
    task: str  # multiclass | multilabel | binary
    n_classes: int
    feat_dim: int
    nodes: pd.DataFrame
    edges: pd.DataFrame

    def to_spark(self, spark: SparkSession) -> tuple[DataFrame, DataFrame]:
        return (
            spark.createDataFrame(self.nodes, schema=NODE_SCHEMA),
            spark.createDataFrame(self.edges, schema=EDGE_SCHEMA),
        )

    def split_ids(self, split: str) -> np.ndarray:
        return self.nodes.loc[self.nodes["split"] == split, "id"].to_numpy()

    def feat_matrix(self) -> np.ndarray:
        return np.stack(self.nodes["feat"].to_numpy())

    def label_matrix(self) -> np.ndarray:
        return np.stack(self.nodes["label"].to_numpy())


def _simple_edges(src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> pd.DataFrame:
    """No self-loops; the max-``w`` copy of each ``(src, dst)`` edge."""
    keep = src != dst
    df = pd.DataFrame({"src": src[keep], "dst": dst[keep], "w": w[keep]})
    df = df.groupby(["src", "dst"], as_index=False)["w"].max()
    return df.astype({"src": np.int64, "dst": np.int64, "w": np.float64})


def _symmetrize(src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> pd.DataFrame:
    """Both directions of each edge, as a simple graph."""
    return _simple_edges(
        np.concatenate([src, dst]), np.concatenate([dst, src]), np.concatenate([w, w])
    )


def _assign_splits(n: int, n_train: int, n_val: int, n_test: int, rng) -> np.ndarray:
    split = np.array(["none"] * n, dtype=object)
    perm = rng.permutation(n)
    split[perm[:n_train]] = "train"
    split[perm[n_train : n_train + n_val]] = "val"
    split[perm[n_train + n_val : n_train + n_val + n_test]] = "test"
    return split


def cora_lite(
    *,
    n: int = 2708,
    intra_ratio: float = 0.9,
    flip_rate: float = 0.05,
    seed: int = 0,
    n_train: int = 140,
    n_val: int = 500,
    n_test: int = 1000,
) -> GraphDataset:
    """SBM citation-graph stand-in for Cora (2708 nodes / 7 classes).

    ``intra_ratio``/``flip_rate`` set the task difficulty; the bench
    configuration (see experiments.make_datasets) targets the paper's
    ~0.81 GCN accuracy band rather than a saturated synthetic task."""
    rng = np.random.default_rng(seed)
    n_classes, feat_dim = 7, 128
    labels = rng.integers(0, n_classes, n)
    m = 2 * n  # average degree 4
    src = rng.integers(0, n, m)
    # intra_ratio of edges stay within the class block
    intra = rng.random(m) < intra_ratio
    dst = np.where(
        intra,
        _sample_same_class(labels, labels[src], rng),
        rng.integers(0, n, m),
    )
    edges = _symmetrize(src, dst, np.ones(m))
    # sparse binary features: per-class prototype mask with bit flips
    proto = rng.random((n_classes, feat_dim)) < 0.15
    X = proto[labels].astype(float)
    flip = rng.random((n, feat_dim)) < flip_rate
    X = np.abs(X - flip.astype(float))
    nodes = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "feat": list(X),
            "label": [[float(c)] for c in labels],
            "split": _assign_splits(n, n_train, n_val, n_test, rng),
        }
    )
    return GraphDataset("cora_lite", "multiclass", n_classes, feat_dim, nodes, edges)


def _sample_same_class(labels: np.ndarray, want: np.ndarray, rng) -> np.ndarray:
    """For each wanted class, pick a uniform node of that class."""
    out = np.empty(want.shape[0], dtype=np.int64)
    for c in np.unique(want):
        members = np.flatnonzero(labels == c)
        sel = want == c
        out[sel] = rng.choice(members, sel.sum())
    return out


def ppi_lite(
    *,
    n_graphs: int = 6,
    nodes_per_graph: int = 500,
    avg_degree: float = 8.0,
    seed: int = 1,
    n_train_graphs: int = 4,
    n_val_graphs: int = 1,
) -> GraphDataset:
    """Inductive multilabel stand-in for PPI: independent graphs with
    community structure; split is *by graph* (train graphs first)."""
    rng = np.random.default_rng(seed)
    n_labels, feat_dim, n_communities = 24, 50, 8
    # label weights shared across graphs (inductive transfer is possible)
    P = rng.standard_normal((feat_dim, n_labels)) * 0.8
    Q = rng.standard_normal((n_communities, n_labels)) * 1.5
    mu = rng.standard_normal((n_communities, feat_dim))
    all_nodes, all_edges = [], []
    offset = 0
    for g in range(n_graphs):
        n = nodes_per_graph
        comm = rng.integers(0, n_communities, n)
        X = mu[comm] + rng.standard_normal((n, feat_dim)) * 0.7
        logits = X @ P + Q[comm] + rng.standard_normal((n, n_labels)) * 0.5
        Y = (logits > 0).astype(float)
        m = int(n * avg_degree / 2)
        src = rng.integers(0, n, m)
        intra = rng.random(m) < 0.8
        dst = np.where(intra, _sample_same_class(comm, comm[src], rng), rng.integers(0, n, m))
        e = _symmetrize(src, dst, np.ones(m))
        e[["src", "dst"]] += offset
        split = (
            "train"
            if g < n_train_graphs
            else ("val" if g < n_train_graphs + n_val_graphs else "test")
        )
        all_nodes.append(
            pd.DataFrame(
                {
                    "id": np.arange(offset, offset + n, dtype=np.int64),
                    "feat": list(X),
                    "label": list(Y),
                    "split": split,
                }
            )
        )
        all_edges.append(e)
        offset += n
    return GraphDataset(
        "ppi_lite",
        "multilabel",
        n_labels,
        feat_dim,
        pd.concat(all_nodes, ignore_index=True),
        pd.concat(all_edges, ignore_index=True),
    )


def uug_lite(
    *,
    n: int = 4000,
    avg_in_degree: float = 8.0,
    label_mode: str = "max",
    seed: int = 2,
    labeled_frac: float = 0.5,
) -> GraphDataset:
    """Hub-heavy directed social-graph stand-in for Alipay's UUG.

    Hidden per-node trait ``t`` leaks (noisily) into the features; a
    visible *marker* bit says whether a node's out-edges carry signal.
    In-degrees follow a zipf law, so "hub" destinations exist for
    re-indexing/sampling tests.

    ``label_mode``:
    - ``"max"`` (default, the Table-3 configuration): the label is the
      thresholded trait of the **strongest marked in-neighbor** — a
      selection a mean aggregator (GCN/SAGE) cannot represent but
      attention approximates (softmax ≈ soft max). This reproduces the
      paper's GAT ≫ SAGE > GCN ordering on UUG and its explanation
      ("GAT learns different weights for neighbors, which may play
      different roles w.r.t. their targeted node").
    - ``"mean"``: the easier linear variant (sign of the mean marked
      in-neighbor trait), used by tests that exercise training
      mechanics rather than the attention-vs-mean separation.
    """
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(n)
    marked = (rng.random(n) < 0.3).astype(float)
    m = int(n * avg_in_degree)
    # power-law destination popularity -> hub in-degrees
    ranks = np.arange(1, n + 1, dtype=np.float64)
    pop = 1.0 / ranks**1.1
    pop /= pop.sum()
    dst = rng.choice(n, size=m, p=pop)
    src = rng.integers(0, n, m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = rng.random(src.shape[0]) + 0.5  # drawn after the self-loop filter
    edges = _simple_edges(src, dst, w)
    es, ed = edges["src"].to_numpy(), edges["dst"].to_numpy()
    if label_mode == "max":
        best = np.full(n, -np.inf)
        np.maximum.at(best, ed, np.where(marked[es] > 0, t[es], -np.inf))
        # 0.55 ≈ median of the max-of-marked-standard-normals statistic
        # at this degree -> balanced classes; own trait as fallback
        score = np.where(np.isfinite(best), best - 0.55, t)
    elif label_mode == "mean":
        sig_sum = np.zeros(n)
        sig_cnt = np.zeros(n)
        np.add.at(sig_sum, ed, (t * marked)[es])
        np.add.at(sig_cnt, ed, marked[es])
        score = np.where(sig_cnt > 0, sig_sum / np.maximum(sig_cnt, 1), t)
    else:
        raise ValueError(label_mode)
    y = (score + rng.standard_normal(n) * 0.05 > 0).astype(float)  # label noise
    X = np.concatenate(
        [
            (t + rng.standard_normal(n) * 0.2)[:, None],  # the trait leaks
            marked[:, None],
            rng.standard_normal((n, 62)) * 0.5,  # 64 features in all
        ],
        axis=1,
    )
    n_lab = int(n * labeled_frac)
    nodes = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "feat": list(X),
            "label": [[float(v)] for v in y],
            "split": _assign_splits(
                n, int(n_lab * 0.7), int(n_lab * 0.1), int(n_lab * 0.2), rng
            ),
        }
    )
    return GraphDataset("uug_lite", "binary", 2, X.shape[1], nodes, edges)


DATASETS = {"cora_lite": cora_lite, "ppi_lite": ppi_lite, "uug_lite": uug_lite}
