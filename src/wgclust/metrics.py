"""Clustering evaluation: optimal-matching accuracy, F1 scores, confusion matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = ["EvalReport", "clustering_accuracy", "f1_scores", "evaluate"]


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


def _match(pred_labels, true_labels, counts):
    """The matching of predicted rows to true columns that maximizes the matched count.

    Returns (rows, cols, predicted -> true label mapping).
    """
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(counts, maximize=True)
    return rows, cols, {int(pred_labels[r]): int(true_labels[c]) for r, c in zip(rows, cols)}


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


def clustering_accuracy(pred, truth) -> tuple[float, dict[int, int]]:
    """Accuracy under the best one-to-one predicted-to-true label matching.

    Solves the assignment problem on the confusion matrix (maximizing the
    matched count) and returns matched/n plus the predicted -> true mapping.
    Invariant under relabeling of either input.
    """
    pred_labels, true_labels, counts = _confusion(pred, truth)
    rows, cols, mapping = _match(pred_labels, true_labels, counts)
    return float(counts[rows, cols].sum() / counts.sum()), mapping


def f1_scores(pred, truth, mapping) -> tuple[float, float]:
    """(micro, macro) F1 under a one-to-one predicted -> true mapping, such as the
    one clustering_accuracy returns.

    Predictions whose label has no match count as wrong, so for single-label
    data micro-F1 reduces exactly to accuracy. Macro-F1 averages per-true-class
    F1; true classes nothing maps onto score 0.
    """
    pred_labels, true_labels, counts = _confusion(pred, truth)
    row_of = {int(x): i for i, x in enumerate(pred_labels)}
    col_of = {int(x): j for j, x in enumerate(true_labels)}
    # a pair whose labels do not both occur matches no prediction
    pairs = [(row_of[p], col_of[t]) for p, t in mapping.items() if p in row_of and t in col_of]
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return _f1(counts, rows, cols)


def evaluate(pred, truth) -> EvalReport:
    """Bundle accuracy, F1 scores, and the confusion matrix into one report."""
    pred_labels, true_labels, counts = _confusion(pred, truth)
    rows, cols, mapping = _match(pred_labels, true_labels, counts)
    micro, macro = _f1(counts, rows, cols)
    return EvalReport(
        accuracy=micro,
        micro_f1=micro,
        macro_f1=macro,
        mapping=mapping,
        confusion=counts,
        pred_labels=pred_labels,
        true_labels=true_labels,
    )
