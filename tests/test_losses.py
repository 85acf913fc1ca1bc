"""Objective terms against brute-force oracles: refinement, modularity, contrastive loss."""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgclust.losses as losses_module
from wgclust.attention import AttentionRecord, build_attention_structure
from wgclust.graph import build_graph, synth_weighted_sbm
from wgclust.losses import (
    PRUNE_EPS,
    NegativeSampler,
    StructureSamples,
    draw_structure_samples,
    modularity,
    modularity_weight_grad,
    structure_loss_from_samples,
    structure_loss_grad,
    total_loss,
    update_edge_weights,
)
from wgclust.trainer import _refinement_coeff_grad


def _raise_timeout(signum, frame):
    raise TimeoutError("draw_structure_samples did not return")


def reference_draw_structure_samples(g, sampler, rng):
    """The set-based sampler the one-stream walk replaced: per node, chunks of the missing count."""
    n = g.n
    deg = np.diff(g.indptr)
    active = deg > 0
    positives = np.zeros(n, dtype=np.int64)
    cw = np.concatenate([[0.0], np.cumsum(g.weights)])
    totals = cw[g.indptr[1:]] - cw[g.indptr[:-1]]
    r = rng.random(n)
    targets = cw[g.indptr[:-1]] + r * totals
    pos_entry = np.searchsorted(cw, targets, side="right") - 1
    pos_entry = np.clip(pos_entry, g.indptr[:-1], np.maximum(g.indptr[1:] - 1, g.indptr[:-1]))
    positives[active] = g.indices[pos_entry[active]]
    q = sampler.negatives
    negatives = np.zeros((n, q), dtype=np.int64)
    if q > 0 and active.any():
        cdf = np.cumsum(sampler.probs)
        cdf[-1] = 1.0
        nbr_sets = [set(g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()) for i in range(n)]
        drawable = sampler.probs > 0
        nbr_drawable = np.bincount(g.directed_src()[drawable[g.indices]], minlength=n)
        valid_count = int(drawable.sum()) - drawable - nbr_drawable
        for i in np.flatnonzero(active):
            excluded = nbr_sets[i]
            if valid_count[i] <= 0:
                negatives[i] = i
                continue
            found = 0
            while found < q:
                draws = np.searchsorted(cdf, rng.random(q - found), side="right")
                for v in draws:
                    v = int(v)
                    if v == i or v in excluded:
                        continue
                    negatives[i, found] = v
                    found += 1
                    if found == q:
                        break
    return StructureSamples(active=active, positives=positives, negatives=negatives)


def reference_update_edge_weights(g, record):
    """The refinement as it was built before: upper-triangle edges through build_graph."""
    s = record.structure
    avg = record.final_head_average()
    sym = 0.5 * (avg + avg[s.rev])
    new_w = sym[s.edge_pos] * g.weights
    src = g.directed_src()
    sel = src < g.indices
    u, v, w = src[sel], g.indices[sel], new_w[sel]
    keep = w >= PRUNE_EPS
    return build_graph(g.n, u[keep], v[keep], w[keep], node_ids=g.node_ids)


def reference_refinement_coeff_grad(working, refined, record, modularity_weight, labels, heads):
    """The modularity coefficient gradient with its scatter found by a searchsorted over int64 keys."""
    dq_refined = modularity_weight_grad(refined, labels)
    work_keys = working.directed_src() * working.n + working.indices
    ref_keys = refined.directed_src() * refined.n + refined.indices
    pos = np.searchsorted(work_keys, ref_keys)
    dq_work = np.zeros(work_keys.size)
    dq_work[pos] = dq_refined
    d_edge_coeff = modularity_weight * (-dq_work) * working.weights * 0.5
    s = record.structure
    d_coeffs = np.zeros((s.src.size, heads))
    d_coeffs[s.edge_pos] = (d_edge_coeff / heads)[:, None]
    return d_coeffs


@st.composite
def sampling_graphs(draw):
    """Small graphs with isolated (zero-probability) nodes, hubs adjacent to every other
    drawable node (no valid negative), and dense or sparse edge sets."""
    n = draw(st.integers(1, 30))
    isolated = draw(st.integers(0, 3))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.05, 0.3, 0.9, 1.0]))
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < density
    u, v = list(iu[keep]), list(ju[keep])
    if n > 1 and draw(st.booleans()):
        hub = int(rng.integers(n))
        others = [j for j in range(n) if j != hub]
        u += [hub] * len(others)
        v += others
    w = rng.random(len(u)) * 5.0 + 0.01
    return build_graph(n + isolated, u, v, w)


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

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 25), m=st.integers(1, 80), heads=st.integers(1, 3),
           zero_frac=st.sampled_from([0.0, 0.3, 0.8]), seed=st.integers(0, 2**31 - 1))
    def test_masked_refinement_equals_the_rebuilt_graph(self, n, m, heads, zero_frac, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        keep = u != v
        if not keep.any():
            return
        g = build_graph(n, u[keep], v[keep], rng.random(int(keep.sum())) * 3.0 + 0.01)
        s = build_attention_structure(g)
        coeffs = rng.random((s.src.size, heads))
        coeffs[rng.random(s.src.size) < zero_frac] = 0.0
        tiny = rng.random(s.src.size) < 0.2  # refined weights on both sides of PRUNE_EPS
        coeffs[tiny] *= 10.0 ** rng.integers(-14, -9, size=(int(tiny.sum()), 1))
        cut = int(s.src[0])  # every edge of this node is pruned
        coeffs[(s.src == cut) | (s.dst == cut)] = 0.0
        rec = AttentionRecord(structure=s, coefficients=[coeffs])
        expected = reference_update_edge_weights(g, rec)
        out = update_edge_weights(g, rec)
        for name in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(out, name), getattr(expected, name))
            assert getattr(out, name).dtype == getattr(expected, name).dtype
        assert out.indptr[cut + 1] == out.indptr[cut]
        np.testing.assert_array_equal(g.indices[out.kept], out.indices)
        if out.num_edges:
            labels = rng.integers(0, 3, size=n)
            np.testing.assert_array_equal(
                _refinement_coeff_grad(g, out, rec, 0.3, labels, heads),
                reference_refinement_coeff_grad(g, expected, rec, 0.3, labels, heads),
            )

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

    def test_vanishing_probability_negative_raises_at_the_draw_cap(self):
        # node 0's only valid negative is node 3, drawn with probability 2.7e-226
        g = build_graph(4, [0, 0, 1], [1, 2, 3], [1.0, 1.0, 1e-300])
        sampler = NegativeSampler.for_graph(g, 2)
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError) as info:
                draw_structure_samples(g, sampler, np.random.default_rng(0))
        finally:
            signal.alarm(0)
        message = str(info.value)
        assert "node 0 " in message
        assert f"in {losses_module.SAMPLE_MAX_DRAWS} draws" in message
        assert "mass is 2.72e-226" in message

    def test_cap_counts_the_draws_of_one_node(self, monkeypatch):
        # three disjoint edges and q = 1: node i rejects itself and its partner
        g = build_graph(6, [0, 2, 4], [1, 3, 5], [1.0, 1.0, 1.0])
        sampler = NegativeSampler.for_graph(g, 1)
        rng = np.random.default_rng(5)
        rng.random(g.n)  # the positives' draw
        cdf = np.cumsum(sampler.probs)
        cdf[-1] = 1.0
        stream = iter(np.searchsorted(cdf, rng.random(1000), side="right"))
        draws = []
        for i in range(g.n):
            draws.append(1)
            while next(stream) in (i, i ^ 1):
                draws[-1] += 1
        most = max(draws)
        assert most >= 2
        expected = reference_draw_structure_samples(g, sampler, np.random.default_rng(5))
        monkeypatch.setattr(losses_module, "SAMPLE_MAX_DRAWS", most)
        samples = draw_structure_samples(g, sampler, np.random.default_rng(5))
        np.testing.assert_array_equal(samples.negatives, expected.negatives)
        monkeypatch.setattr(losses_module, "SAMPLE_MAX_DRAWS", most - 1)
        with pytest.raises(RuntimeError, match=rf"node {draws.index(most)} accepted 0 of 1 "
                                               rf"negatives in {most - 1} draws"):
            draw_structure_samples(g, sampler, np.random.default_rng(5))

    @settings(max_examples=120, deadline=None)
    @given(g=sampling_graphs(), q=st.sampled_from([0, 1, 5]), seed=st.integers(0, 2**31 - 1))
    def test_walk_equals_the_set_based_sampler(self, g, q, seed):
        sampler = NegativeSampler.for_graph(g, q)
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_draw_structure_samples(g, sampler, rng_ref)
        samples = draw_structure_samples(g, sampler, rng)
        np.testing.assert_array_equal(samples.active, expected.active)
        np.testing.assert_array_equal(samples.positives, expected.positives)
        np.testing.assert_array_equal(samples.negatives, expected.negatives)
        assert rng.random() == rng_ref.random()  # the generator ends in the same state


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
