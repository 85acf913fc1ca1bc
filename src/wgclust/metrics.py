"""Clustering evaluation: optimal-matching accuracy, F1 scores, confusion matrix."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

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
    pred_labels = np.unique(pred)
    true_labels = np.unique(truth)
    counts = np.zeros((pred_labels.size, true_labels.size), dtype=np.int64)
    pi = np.searchsorted(pred_labels, pred)
    ti = np.searchsorted(true_labels, truth)
    np.add.at(counts, (pi, ti), 1)
    return pred_labels, true_labels, counts


def clustering_accuracy(pred, truth) -> tuple[float, dict[int, int]]:
    """Accuracy under the best one-to-one predicted-to-true label matching.

    Solves the assignment problem on the confusion matrix (maximizing the
    matched count) and returns matched/n plus the predicted -> true mapping.
    Invariant under relabeling of either input.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.size == 0 or pred.shape != truth.shape:
        raise ValueError("prediction and truth must be equal-length non-empty vectors")
    pred_labels, true_labels, counts = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(counts, maximize=True)
    mapping = {int(pred_labels[r]): int(true_labels[c]) for r, c in zip(rows, cols)}
    matched = counts[rows, cols].sum()
    return float(matched / pred.size), mapping


def f1_scores(pred, truth, mapping) -> tuple[float, float]:
    """(micro, macro) F1 after applying the accuracy mapping.

    Predictions whose label has no match keep a sentinel class of their own,
    so for single-label data micro-F1 reduces exactly to accuracy. Macro-F1
    averages per-true-class F1; true classes nothing maps onto score 0.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    mapped = np.array([mapping.get(int(p), -1) for p in pred])
    correct = int((mapped == truth).sum())
    n = pred.size
    # every wrong prediction is one FP and one FN, so micro-F1 collapses to accuracy
    micro = correct / n
    f1s = []
    for c in np.unique(truth):
        tp = int(((mapped == c) & (truth == c)).sum())
        fp = int(((mapped == c) & (truth != c)).sum())
        fn = int(((mapped != c) & (truth == c)).sum())
        f1s.append(2 * tp / (2 * tp + fp + fn) if tp else 0.0)
    return float(micro), float(np.mean(f1s))


def evaluate(pred, truth) -> EvalReport:
    """Bundle accuracy, F1 scores, and the confusion matrix into one report."""
    acc, mapping = clustering_accuracy(pred, truth)
    micro, macro = f1_scores(pred, truth, mapping)
    pred_labels, true_labels, counts = _confusion(pred, truth)
    return EvalReport(
        accuracy=acc,
        micro_f1=micro,
        macro_f1=macro,
        mapping=mapping,
        confusion=counts,
        pred_labels=pred_labels,
        true_labels=true_labels,
    )
