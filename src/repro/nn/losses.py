"""Losses and metrics for the three AGL evaluation tasks.

- Cora-lite: 7-class softmax cross-entropy + accuracy.
- PPI-lite: multilabel sigmoid BCE + micro-F1 (threshold 0.5, as in
  the GraphSAGE/GAT evaluation protocol the paper follows).
- UUG-lite: the same sigmoid BCE over one logit column (binary logistic
  loss) + AUC (rank statistic, ties averaged).

All gradients are w.r.t. logits and hand-derived; each is verified by a
finite-difference test.
"""
from __future__ import annotations

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def softmax_xent(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE over rows; ``labels`` are int class ids. Returns (loss, dlogits)."""
    n = logits.shape[0]
    p = softmax(logits)
    loss = float(-np.log(np.maximum(p[np.arange(n), labels], 1e-30)).mean())
    d = p.copy()
    d[np.arange(n), labels] -= 1.0
    return loss, d / n


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign so exp never overflows.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean BCE over all entries; ``targets`` ∈ {0,1}, same shape. On
    ``[b, 1]`` logits this is the binary logistic loss."""
    # log(1+e^x) computed stably as max(x,0)+log1p(e^-|x|).
    loss = float((np.maximum(logits, 0) - logits * targets + np.log1p(np.exp(-np.abs(logits)))).mean())
    d = (sigmoid(logits) - targets) / logits.size
    return loss, d


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == labels).mean())


def micro_f1(logits: np.ndarray, targets: np.ndarray) -> float:
    """Micro-averaged F1 with predictions = (logit > 0), i.e.
    probability > 0.5 after a sigmoid."""
    pred = logits > 0
    t = targets.astype(bool)
    tp = float(np.logical_and(pred, t).sum())
    fp = float(np.logical_and(pred, ~t).sum())
    fn = float(np.logical_and(~pred, t).sum())
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """ROC-AUC via the rank-sum (Mann–Whitney U) statistic; ties get
    average ranks. Returns 0.5 for degenerate single-class inputs."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1).astype(bool)
    n_pos, n_neg = int(y.sum()), int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty_like(s)
    ranks[order] = np.arange(1, s.size + 1, dtype=np.float64)
    # Average ranks within tie groups.
    sorted_s = s[order]
    uniq, start = np.unique(sorted_s, return_index=True)
    counts = np.diff(np.append(start, s.size))
    avg = start + (counts + 1) / 2.0
    tie_rank = np.repeat(avg, counts)
    ranks[order] = tie_rank
    return float((ranks[y].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
