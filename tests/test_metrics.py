"""Accuracy via optimal matching (vs brute-force permutation oracle) and F1."""

import itertools

import numpy as np
import pytest

from wgclust.metrics import clustering_accuracy, evaluate, f1_scores


def permutation_oracle(pred, truth):
    """Best accuracy over every injective relabeling of predicted clusters."""
    pred_labels = sorted(set(pred))
    true_labels = sorted(set(truth))
    best = 0
    targets = true_labels + [-1] * max(0, len(pred_labels) - len(true_labels))
    for perm in itertools.permutations(targets, len(pred_labels)):
        relabel = dict(zip(pred_labels, perm))
        best = max(best, sum(relabel[p] == t for p, t in zip(pred, truth)))
    return best / len(pred)


class TestClusteringAccuracy:
    def test_permutation_of_truth_scores_one(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        acc, mapping = clustering_accuracy(pred, truth)
        assert acc == 1.0
        assert mapping == {2: 0, 0: 1, 1: 2}

    def test_single_cluster_prediction(self):
        truth = np.array([0, 1, 2, 3] * 5)
        pred = np.zeros(20, dtype=int)
        acc, _ = clustering_accuracy(pred, truth)
        assert acc == 0.25

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            pred = rng.integers(0, k, size=n)
            truth = rng.integers(0, k, size=n)
            acc, _ = clustering_accuracy(pred, truth)
            assert acc == pytest.approx(permutation_oracle(pred.tolist(), truth.tolist()))

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, size=40)
        truth = rng.integers(0, 4, size=40)
        base, _ = clustering_accuracy(pred, truth)
        shuffled, _ = clustering_accuracy((pred * 7 + 3) % 13, truth)
        assert base == shuffled

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            clustering_accuracy([], [])


class TestF1Scores:
    def test_perfect_prediction(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        acc, mapping = clustering_accuracy(truth, truth)
        micro, macro = f1_scores(truth, truth, mapping)
        assert micro == 1.0 and macro == 1.0

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pred = rng.integers(0, 3, size=30)
            truth = rng.integers(0, 4, size=30)
            acc, mapping = clustering_accuracy(pred, truth)
            micro, _ = f1_scores(pred, truth, mapping)
            assert micro == pytest.approx(acc)

    def test_two_class_macro_hand_case(self):
        # mapped confusion [[3,1],[1,3]]: per-class F1 = 0.75 each, macro = 0.75
        pred = np.array([0, 0, 0, 1, 0, 1, 1, 1])
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        acc, mapping = clustering_accuracy(pred, truth)
        assert mapping == {0: 0, 1: 1}
        micro, macro = f1_scores(pred, truth, mapping)
        assert macro == pytest.approx(0.75)
        assert micro == pytest.approx(0.75)

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pred = rng.integers(0, 5, size=25)
            truth = rng.integers(0, 3, size=25)
            acc, mapping = clustering_accuracy(pred, truth)
            micro, macro = f1_scores(pred, truth, mapping)
            assert 0.0 <= micro <= 1.0 and 0.0 <= macro <= 1.0


class TestEvaluate:
    def test_report_fields(self):
        pred = np.array([1, 1, 0, 0])
        truth = np.array([0, 0, 1, 1])
        report = evaluate(pred, truth)
        assert report.accuracy == 1.0
        assert report.confusion.sum() == 4
        parsed = report.to_json()
        assert '"accuracy": 1.0' in parsed

    def test_confusion_orientation(self):
        pred = np.array([0, 0, 1])
        truth = np.array([1, 1, 0])
        report = evaluate(pred, truth)
        # rows follow sorted predicted labels, cols sorted true labels
        assert report.confusion[0, 1] == 2  # pred 0 with truth 1
        assert report.confusion[1, 0] == 1
