"""Clustering evaluation: optimal-matching accuracy, F1 scores, confusion matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["EvalReport", "evaluate"]


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    micro_f1: float
    macro_f1: float
    mapping: dict[int, int]
    confusion: np.ndarray  # rows = predicted labels (pred_label_order), cols = true labels
    pred_labels: np.ndarray
    true_labels: np.ndarray

    def to_json(self) -> str:
        return json.dumps(
            {
                "accuracy": self.accuracy,
                "micro_f1": self.micro_f1,
                "macro_f1": self.macro_f1,
                "mapping": {str(k): int(v) for k, v in self.mapping.items()},
                "pred_labels": [int(x) for x in self.pred_labels],
                "true_labels": [int(x) for x in self.true_labels],
                "confusion": self.confusion.tolist(),
            },
            indent=2,
        )


def _confusion(pred, truth):
    """Sorted predicted labels, sorted true labels, and their count matrix (rows = predicted)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.size == 0 or pred.shape != truth.shape:
        raise ValueError("prediction and truth must be equal-length non-empty vectors")
    pred_labels = np.unique(pred)
    true_labels = np.unique(truth)
    counts = np.zeros((pred_labels.size, true_labels.size), dtype=np.int64)
    pi = np.searchsorted(pred_labels, pred)
    ti = np.searchsorted(true_labels, truth)
    np.add.at(counts, (pi, ti), 1)
    return pred_labels, true_labels, counts


def _f1(counts, rows, cols) -> tuple[float, float]:
    """(micro, macro) F1 when predicted row rows[i] stands for true class cols[i].

    A class's tp is its matched cell, its predicted count that row's sum and
    its true count its column's sum, so 2 tp + fp + fn is the sum of the two.
    Every wrong prediction is one FP and one FN, so micro-F1 is the matched
    fraction, the accuracy. Macro-F1 averages per-true-class F1; true classes
    nothing is matched to score 0.
    """
    tp = counts[rows, cols]
    f1 = np.zeros(counts.shape[1])
    f1[cols] = 2 * tp / (counts.sum(axis=1)[rows] + counts.sum(axis=0)[cols])
    return float(tp.sum() / counts.sum()), float(np.mean(f1))


def _max_matching(counts) -> tuple[np.ndarray, np.ndarray]:
    """A one-to-one row/column matching of maximum total count: (rows ascending, their columns).

    The Hungarian method (Kuhn 1955; Munkres 1957) in its shortest augmenting
    path form (Crouse 2016): each row in turn joins the matching along a
    shortest path of reduced costs, and the dual potentials u, v keep every
    reduced cost non-negative. The costs are the negated counts in int64, so
    the result is exact; each augmentation is O(r c), the whole O(r^2 c).
    Among equally short paths it prefers one that ends at an unmatched
    column. A matrix with more rows than columns is solved transposed;
    min(r, c) pairs come back either way.
    """
    transpose = counts.shape[0] > counts.shape[1]
    cost = -(counts.T if transpose else counts).astype(np.int64)
    nr, nc = cost.shape
    big = np.iinfo(np.int64).max
    u, v = np.zeros(nr, dtype=np.int64), np.zeros(nc, dtype=np.int64)
    col4row, row4col = np.full(nr, -1), np.full(nc, -1)
    path = np.full(nc, -1)
    for row in range(nr):
        dist = np.full(nc, big)
        seen_rows, seen_cols = np.zeros(nr, dtype=bool), np.zeros(nc, dtype=bool)
        remaining = np.arange(nc)[::-1].copy()  # the scan order decides between tied paths
        i, length, sink = row, 0, -1
        while sink < 0:
            seen_rows[i] = True
            reduced = length + cost[i, remaining] - u[i] - v[remaining]
            shorter = reduced < dist[remaining]
            path[remaining[shorter]] = i
            dist[remaining[shorter]] = reduced[shorter]
            reach = dist[remaining]
            length = int(reach.min())
            ties = np.flatnonzero(reach == length)
            free = ties[row4col[remaining[ties]] < 0]
            k = free[-1] if free.size else ties[0]
            j = remaining[k]
            seen_cols[j] = True
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            remaining[k] = remaining[-1]
            remaining = remaining[:-1]
        u[row] += length
        others = seen_rows.copy()
        others[row] = False
        u[others] += length - dist[col4row[others]]
        v[seen_cols] -= length - dist[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == row:
                break
    if not transpose:
        return np.arange(nr), col4row
    order = np.argsort(col4row)
    return col4row[order], order


def evaluate(pred, truth) -> EvalReport:
    """Accuracy, F1 scores and the confusion matrix under the best label matching.

    The one-to-one predicted -> true matching (``mapping``) maximizes the
    matched count on the confusion matrix (``_max_matching``); accuracy is
    matched/n, so the report is invariant under relabeling of either input. Predictions whose label has no match count as wrong.
    """
    pred_labels, true_labels, counts = _confusion(pred, truth)
    rows, cols = _max_matching(counts)
    micro, macro = _f1(counts, rows, cols)
    return EvalReport(
        accuracy=micro,
        micro_f1=micro,
        macro_f1=macro,
        mapping={int(pred_labels[r]): int(true_labels[c]) for r, c in zip(rows, cols)},
        confusion=counts,
        pred_labels=pred_labels,
        true_labels=true_labels,
    )
