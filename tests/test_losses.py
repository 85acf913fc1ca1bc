"""Objective terms against brute-force oracles: refinement, modularity, contrastive loss."""

import signal

import numpy as np
import pytest

from wgclust.attention import AttentionRecord, build_attention_structure
from wgclust.graph import build_graph, synth_weighted_sbm
from wgclust.losses import (
    NegativeSampler,
    draw_structure_samples,
    modularity,
    modularity_weight_grad,
    structure_loss_from_samples,
    structure_loss_grad,
    total_loss,
    update_edge_weights,
)


def _raise_timeout(signum, frame):
    raise TimeoutError("draw_structure_samples did not return")


def sampled_structure_loss(h, g, sampler, seed):
    """Draw samples with a fresh seeded rng and evaluate the loss."""
    samples = draw_structure_samples(g, sampler, np.random.default_rng(seed))
    return structure_loss_from_samples(np.asarray(h, dtype=np.float64), samples)


def brute_force_modularity(g, labels):
    """Double loop over ordered pairs, straight from the definition."""
    n = g.n
    w = np.zeros((n, n))
    for i in range(n):
        for j, x in g.neighbors(i):
            w[i, j] = x
    two_m = w.sum()
    k = w.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += w[i, j] - k[i] * k[j] / two_m
    return q / two_m


def record_with_coefficients(g, per_pair):
    """Build an AttentionRecord whose final head-average equals the given map."""
    s = build_attention_structure(g)
    coeffs = np.zeros((s.src.size, 1))
    for e in range(s.src.size):
        coeffs[e, 0] = per_pair.get((int(s.src[e]), int(s.dst[e])), 0.0)
    return AttentionRecord(structure=s, coefficients=[coeffs])


class TestUpdateEdgeWeights:
    def test_unit_attention_keeps_weight(self):
        g = build_graph(2, [0], [1], [4.0])
        rec = record_with_coefficients(g, {(0, 1): 1.0, (1, 0): 1.0})
        out = update_edge_weights(g, rec)
        assert out.neighbors(0) == [(1, 4.0)]

    def test_zero_attention_removes_edge(self):
        g = build_graph(3, [0, 1], [1, 2], [4.0, 2.0])
        rec = record_with_coefficients(g, {(0, 1): 0.0, (1, 0): 0.0, (1, 2): 0.5, (2, 1): 0.5})
        out = update_edge_weights(g, rec)
        assert not out.has_edge(0, 1)
        assert out.has_edge(1, 2)

    def test_asymmetric_attention_arithmetic(self):
        g = build_graph(2, [0], [1], [10.0])
        rec = record_with_coefficients(g, {(0, 1): 0.4, (1, 0): 0.2})
        out = update_edge_weights(g, rec)
        assert out.neighbors(0) == [(1, pytest.approx(3.0))]

    def test_never_increases_weights(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.2, 3.0, 1.0, seed=0)
        g = lab.graph
        s = build_attention_structure(g)
        rng = np.random.default_rng(1)
        coeffs = rng.random((s.src.size, 2))  # entries in [0, 1)
        rec = AttentionRecord(structure=s, coefficients=[coeffs])
        out = update_edge_weights(g, rec)
        assert out.total_weight_2m <= g.total_weight_2m

    def test_mismatched_graph_rejected(self):
        g = build_graph(2, [0], [1], [1.0])
        other = build_graph(3, [0, 1], [1, 2], [1.0, 1.0])
        rec = record_with_coefficients(other, {})
        with pytest.raises(ValueError, match="cover"):
            update_edge_weights(g, rec)


class TestModularity:
    def test_two_disjoint_dyads(self):
        g = build_graph(4, [0, 2], [1, 3], [1.0, 1.0])
        assert modularity(g, [0, 0, 1, 1]) == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_single_cluster(self):
        g = build_graph(2, [0], [1], [1.0])
        assert modularity(g, [0, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_label_permutation_invariance(self):
        lab = synth_weighted_sbm(15, 3, 0.5, 0.2, 3.0, 1.0, seed=2)
        labels = lab.labels
        q1 = modularity(lab.graph, labels)
        q2 = modularity(lab.graph, (labels + 1) % 3)
        assert q1 == pytest.approx(q2, abs=1e-14)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 13))
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 0.5
            if not keep.any():
                continue
            w = rng.random(int(keep.sum())) * 4 + 0.1
            g = build_graph(n, iu[keep], ju[keep], w)
            labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
            assert modularity(g, labels) == pytest.approx(
                brute_force_modularity(g, labels), abs=1e-12
            )

    def test_bounds_hold(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(3, 14))
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 0.6
            if not keep.any():
                continue
            g = build_graph(n, iu[keep], ju[keep], rng.random(int(keep.sum())) + 0.1)
            labels = rng.integers(0, 3, size=n)
            assert -0.5 - 1e-12 <= modularity(g, labels) <= 1.0 + 1e-12

    def test_empty_graph_rejected(self):
        g = build_graph(2, [0], [1], [1.0])
        # fabricate an empty graph by pruning the only edge
        rec = record_with_coefficients(g, {(0, 1): 0.0, (1, 0): 0.0})
        empty = update_edge_weights(g, rec)
        with pytest.raises(ValueError):
            modularity(empty, [0, 0])

    def test_weight_gradient_matches_finite_differences(self):
        lab = synth_weighted_sbm(10, 2, 0.6, 0.3, 3.0, 1.0, seed=5)
        g = lab.graph
        labels = lab.labels
        grad = modularity_weight_grad(g, labels)
        u, v, w = g.edge_arrays()
        h = 1e-6
        src = g.directed_src()
        for e_idx in range(min(u.size, 8)):
            w_up, w_dn = w.copy(), w.copy()
            w_up[e_idx] += h
            w_dn[e_idx] -= h
            fd = (
                modularity(build_graph(g.n, u, v, w_up), labels)
                - modularity(build_graph(g.n, u, v, w_dn), labels)
            ) / (2 * h)
            entry = np.flatnonzero((src == u[e_idx]) & (g.indices == v[e_idx]))[0]
            assert grad[entry] == pytest.approx(fd, abs=1e-6)


class TestStructureLoss:
    def test_zero_score_no_negatives_is_log_two(self):
        h = np.array([[1.0, 0.0], [0.0, 1.0]])  # orthogonal: score 0
        g = build_graph(2, [0], [1], [1.0])
        sampler = NegativeSampler.for_graph(g, 0)
        val = sampled_structure_loss(h, g, sampler, seed=0)
        assert val == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturation_to_zero(self):
        h = np.array([[30.0, 0.0], [30.0, 0.0]])  # score 900: sigmoid ~ 1
        g = build_graph(2, [0], [1], [1.0])
        sampler = NegativeSampler.for_graph(g, 0)
        val = sampled_structure_loss(h, g, sampler, seed=0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        lab = synth_weighted_sbm(20, 2, 0.5, 0.2, 3.0, 1.0, seed=7)
        sampler = NegativeSampler.for_graph(lab.graph, 5)
        for seed in range(10):
            h = rng.normal(size=(20, 4))
            assert sampled_structure_loss(h, lab.graph, sampler, seed=seed) >= 0.0

    def test_matches_straight_line_oracle_exactly(self):
        rng = np.random.default_rng(8)
        g = build_graph(6, [0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 5], [2.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        h = rng.normal(size=(6, 4))
        sampler = NegativeSampler.for_graph(g, 3)
        samples = draw_structure_samples(g, sampler, np.random.default_rng(9))
        fast = structure_loss_from_samples(h, samples)
        per_node = []
        for i in range(6):
            if not samples.active[i]:
                continue
            u = samples.positives[i]
            positive_term = np.logaddexp(0.0, -np.sum(h[i] * h[u]))  # -log sigmoid(s)
            negative_term = 0.0
            for v in samples.negatives[i]:
                if v == i:
                    continue
                negative_term += np.logaddexp(0.0, np.sum(h[i] * h[v]))  # -log sigmoid(-s)
            per_node.append(positive_term + negative_term)
        oracle = np.mean(np.array(per_node))
        assert fast == oracle  # bit-exact: same formula, same reduction order

    def test_isolated_nodes_excluded(self):
        g = build_graph(3, [0], [1], [1.0])  # node 2 isolated
        h = np.array([[1.0, 0.0], [0.0, 1.0], [50.0, 50.0]])
        sampler = NegativeSampler.for_graph(g, 0)
        val = sampled_structure_loss(h, g, sampler, seed=0)
        assert val == pytest.approx(np.log(2.0), abs=1e-12)  # node 2 contributes nothing

    def test_positive_sampling_follows_weights(self):
        # node 0 has neighbors 1 (w=99) and 2 (w=1): positives should mostly be 1
        g = build_graph(3, [0, 0], [1, 2], [99.0, 1.0])
        sampler = NegativeSampler.for_graph(g, 0)
        rng = np.random.default_rng(10)
        picks = [draw_structure_samples(g, sampler, rng).positives[0] for _ in range(200)]
        assert np.mean(np.array(picks) == 1) > 0.9

    def test_negatives_exclude_self_and_neighbors(self):
        lab = synth_weighted_sbm(15, 2, 0.5, 0.2, 3.0, 1.0, seed=11)
        g = lab.graph
        sampler = NegativeSampler.for_graph(g, 4)
        samples = draw_structure_samples(g, sampler, np.random.default_rng(12))
        for i in range(g.n):
            if not samples.active[i]:
                continue
            nbrs = {j for j, _ in g.neighbors(i)}
            for v in samples.negatives[i]:
                assert v != i and v not in nbrs

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        g = build_graph(6, [0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 5], [2.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        h = rng.normal(size=(6, 3))
        sampler = NegativeSampler.for_graph(g, 2)
        samples = draw_structure_samples(g, sampler, np.random.default_rng(14))
        grad = structure_loss_grad(h, samples)
        step = 1e-6
        for i in range(6):
            for d in range(3):
                hp, hm = h.copy(), h.copy()
                hp[i, d] += step
                hm[i, d] -= step
                fd = (
                    structure_loss_from_samples(hp, samples)
                    - structure_loss_from_samples(hm, samples)
                ) / (2 * step)
                assert grad[i, d] == pytest.approx(fd, abs=1e-5)


class TestNegativeSampler:
    def test_distribution_is_degree_power(self):
        g = build_graph(3, [0, 0], [1, 2], [8.0, 1.0])
        sampler = NegativeSampler.for_graph(g, 2)
        deg = g.weighted_degree()
        expect = deg**0.75 / (deg**0.75).sum()
        np.testing.assert_allclose(sampler.probs, expect)
        assert sampler.probs.sum() == pytest.approx(1.0)

    def test_zero_probability_non_neighbors_leave_no_negative(self):
        # node 3 is isolated, so its sampling probability is 0; it is node 0's
        # only non-neighbor, so node 0 has no drawable negative at all
        g = build_graph(4, [0, 0], [1, 2], [1.0, 1.0])
        sampler = NegativeSampler.for_graph(g, 2)
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(10)
        try:
            samples = draw_structure_samples(g, sampler, np.random.default_rng(0))
        finally:
            signal.alarm(0)
        np.testing.assert_array_equal(samples.negatives, [[0, 0], [2, 2], [1, 1], [0, 0]])
        np.testing.assert_array_equal(samples.active, [True, True, True, False])
        assert np.isfinite(structure_loss_from_samples(np.eye(4), samples))


class TestTotalLoss:
    def test_zero_weight_keeps_structure_only(self):
        b = total_loss(1.5, -0.4, 0.0)
        assert b.total == 1.5

    def test_arithmetic(self):
        b = total_loss(1.0, -0.5, 0.03)
        assert b.total == pytest.approx(0.985, abs=1e-15)
        assert b.modularity_q == pytest.approx(0.5)

    def test_linearity_in_weight(self):
        a = total_loss(1.0, 0.25, 0.04)
        b = total_loss(1.0, 0.25, 0.08)
        assert (b.total - 1.0) == pytest.approx(2 * (a.total - 1.0))

    def test_breakdown_identity(self):
        b = total_loss(0.7, -0.3, 0.05)
        assert abs(b.total - (b.structure + 0.05 * b.modularity_loss)) <= 1e-12
