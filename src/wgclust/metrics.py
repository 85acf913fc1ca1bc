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


def evaluate(pred, truth) -> EvalReport:
    """Accuracy, F1 scores and the confusion matrix under the best label matching.

    The one-to-one predicted -> true matching (``mapping``) solves the
    assignment problem on the confusion matrix, maximizing the matched
    count; accuracy is matched/n, so the report is invariant under relabeling
    of either input. Predictions whose label has no match count as wrong.
    """
    from scipy.optimize import linear_sum_assignment

    pred_labels, true_labels, counts = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(counts, maximize=True)
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
