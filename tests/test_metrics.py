"""evaluate: accuracy via optimal matching (vs brute-force permutation and scipy oracles) and F1."""

import itertools

import numpy as np
import pytest

from wgclust.metrics import _max_matching, evaluate


def permutation_oracle(pred, truth):
    """Best accuracy over every injective relabeling of predicted clusters."""
    pred_labels = sorted(set(pred))
    true_labels = sorted(set(truth))
    best = 0
    # None pads the targets: it matches no true label, negative ones included
    targets = true_labels + [None] * max(0, len(pred_labels) - len(true_labels))
    for perm in itertools.permutations(targets, len(pred_labels)):
        relabel = dict(zip(pred_labels, perm))
        best = max(best, sum(relabel[p] == t for p, t in zip(pred, truth)))
    return best / len(pred)


class TestClusteringAccuracy:
    def test_permutation_of_truth_scores_one(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        pred = np.array([2, 2, 0, 0, 1, 1])
        report = evaluate(pred, truth)
        assert report.accuracy == 1.0
        assert report.mapping == {2: 0, 0: 1, 1: 2}

    def test_single_cluster_prediction(self):
        truth = np.array([0, 1, 2, 3] * 5)
        pred = np.zeros(20, dtype=int)
        assert evaluate(pred, truth).accuracy == 0.25

    def test_matches_permutation_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            pred = rng.integers(0, k, size=n)
            truth = rng.integers(0, k, size=n)
            acc = evaluate(pred, truth).accuracy
            assert acc == pytest.approx(permutation_oracle(pred.tolist(), truth.tolist()))

    def test_matcher_matches_scipy_assignment(self):
        # scipy is the oracle only; small value ranges make tied optima common
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(5)
        for case in range(600):
            r, c = (int(x) for x in rng.integers(1, 13, size=2))
            if case % 2:
                r, c = max(r, c), min(r, c)  # both orientations, square included
            else:
                r, c = min(r, c), max(r, c)
            counts = rng.integers(0, int(rng.choice([1, 2, 3, 10])) + 1, size=(r, c))
            rows, cols = _max_matching(counts)
            want_rows, want_cols = linear_sum_assignment(counts, maximize=True)
            assert counts[rows, cols].sum() == counts[want_rows, want_cols].sum(), counts
            assert rows.size == cols.size == min(r, c)
            assert np.unique(rows).size == rows.size and np.unique(cols).size == cols.size
            assert (np.diff(rows) > 0).all() and 0 <= cols.min() and cols.max() < c

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.integers(0, 4, size=40)
        truth = rng.integers(0, 4, size=40)
        base = evaluate(pred, truth).accuracy
        shuffled = evaluate((pred * 7 + 3) % 13, truth).accuracy
        assert base == shuffled

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate([], [])


class TestF1Scores:
    def test_perfect_prediction(self):
        truth = np.array([0, 1, 2, 0, 1, 2])
        report = evaluate(truth, truth)
        assert report.micro_f1 == 1.0 and report.macro_f1 == 1.0

    def test_micro_equals_accuracy(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            pred = rng.integers(0, 3, size=30)
            truth = rng.integers(0, 4, size=30)
            # more predicted than true labels, some true labels negative: an
            # unmatched prediction is wrong even where the truth is -1
            for p, t in ((pred, truth), (2 * pred + truth % 2, truth - 3)):
                report = evaluate(p, t)
                assert report.micro_f1 == pytest.approx(permutation_oracle(p.tolist(), t.tolist()))
                assert report.micro_f1 == report.accuracy

    def test_shifting_truth_labels_keeps_the_scores(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            pred = rng.integers(0, 8, size=40)
            truth = rng.integers(0, 6, size=40)
            base, shifted = evaluate(pred, truth), evaluate(pred, truth - 5)
            assert (shifted.accuracy, shifted.micro_f1, shifted.macro_f1) == (
                base.accuracy, base.micro_f1, base.macro_f1)

    def test_two_class_macro_hand_case(self):
        # mapped confusion [[3,1],[1,3]]: per-class F1 = 0.75 each, macro = 0.75
        pred = np.array([0, 0, 0, 1, 0, 1, 1, 1])
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        report = evaluate(pred, truth)
        assert report.mapping == {0: 0, 1: 1}
        assert report.macro_f1 == pytest.approx(0.75)
        assert report.micro_f1 == pytest.approx(0.75)

    def test_scores_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pred = rng.integers(0, 5, size=25)
            truth = rng.integers(0, 3, size=25)
            report = evaluate(pred, truth)
            assert 0.0 <= report.micro_f1 <= 1.0 and 0.0 <= report.macro_f1 <= 1.0


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
