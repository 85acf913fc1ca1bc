"""Objective terms against brute-force oracles: refinement, modularity, contrastive loss."""

import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgclust.losses as losses_module
from wgclust.graph import build_graph, synth_weighted_sbm
from wgclust.losses import (
    PRUNE_EPS,
    StructureSamples,
    draw_structure_samples,
    modularity,
    modularity_weight_grad,
    refinement_coeff_grad,
    structure_loss_from_samples,
    structure_loss_grad,
    total_loss,
    update_edge_weights,
)

from graph_helpers import has_edge, neighbors


def _raise_timeout(signum, frame):
    raise TimeoutError("draw_structure_samples did not return")


def degree_power_probs(g):
    """The negative-sampling law: probability proportional to weighted degree^0.75."""
    raw = g.weighted_degree() ** 0.75
    return raw / raw.sum()


def reference_draw_structure_samples(g, q, rng):
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
    negatives = np.zeros((n, q), dtype=np.int64)
    if q > 0 and active.any():
        probs = degree_power_probs(g)
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        nbr_sets = [set(g.indices[g.indptr[i] : g.indptr[i + 1]].tolist()) for i in range(n)]
        drawable = probs > 0
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


def reference_update_edge_weights(g, edge_attention):
    """The refinement as it was built before: upper-triangle edges through build_graph."""
    new_w = edge_attention * g.weights
    src = g.directed_src()
    sel = src < g.indices
    u, v, a, w = src[sel], g.indices[sel], edge_attention[sel], new_w[sel]
    keep = (a >= PRUNE_EPS) & (w > 0)
    return build_graph(g.n, u[keep], v[keep], w[keep], node_ids=g.node_ids)


def reference_refinement_coeff_grad(working, refined, modularity_weight, labels):
    """The modularity edge-attention gradient with its scatter found by a searchsorted over int64 keys."""
    dq_refined = modularity_weight_grad(refined, labels)[1]
    work_keys = working.directed_src() * working.n + working.indices
    ref_keys = refined.directed_src() * refined.n + refined.indices
    pos = np.searchsorted(work_keys, ref_keys)
    dq_work = np.zeros(work_keys.size)
    dq_work[pos] = dq_refined
    return modularity_weight * (-dq_work) * working.weights


def two_pass_weight_grad(g, labels):
    """dQ/dw as computed when it took its own pass over the graph, after Q's."""
    labels = np.asarray(labels)
    src_labels = labels[g.directed_src()]
    intra = src_labels == labels[g.indices]
    s1 = float(g.weights[intra].sum())
    two_m = g.total_weight_2m
    d_per_cluster = np.bincount(labels, weights=g.weighted_degree())
    d_sq = float((d_per_cluster**2).sum())
    d_ij = d_per_cluster[src_labels]
    d_ij += d_per_cluster[labels[g.indices]]
    d_ij *= 2.0
    d_ij /= two_m**2
    grad = 2.0 * intra
    grad /= two_m
    grad -= 2.0 * s1 / two_m**2
    grad -= d_ij
    grad += 4.0 * d_sq / two_m**3
    return grad


def symmetric_entries(g, table):
    """Per directed entry of g, table[min(i, j), max(i, j)]: one value per edge on both entries."""
    src = g.directed_src()
    return table[np.minimum(src, g.indices), np.maximum(src, g.indices)]


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


def sampled_structure_loss(h, g, q, seed):
    """Draw samples with a fresh seeded rng and evaluate the loss."""
    samples = draw_structure_samples(g, q, np.random.default_rng(seed))
    return structure_loss_from_samples(np.asarray(h, dtype=np.float64), samples)


def brute_force_modularity(g, labels):
    """Double loop over ordered pairs, straight from the definition."""
    n = g.n
    w = np.zeros((n, n))
    for i in range(n):
        for j, x in neighbors(g, i):
            w[i, j] = x
    two_m = w.sum()
    k = w.sum(axis=1)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += w[i, j] - k[i] * k[j] / two_m
    return q / two_m


def edge_attention_of(g, per_edge):
    """Edge attention per directed entry of g from {(i, j): value} with i < j; 0 elsewhere."""
    table = np.zeros((g.n, g.n))
    for (i, j), value in per_edge.items():
        table[i, j] = value
    return symmetric_entries(g, table)


class TestUpdateEdgeWeights:
    def test_unit_attention_keeps_weight(self):
        g = build_graph(2, [0], [1], [4.0])
        out = update_edge_weights(g, edge_attention_of(g, {(0, 1): 1.0}))
        assert neighbors(out, 0) == [(1, 4.0)]

    def test_zero_attention_removes_edge(self):
        g = build_graph(3, [0, 1], [1, 2], [4.0, 2.0])
        out = update_edge_weights(g, edge_attention_of(g, {(0, 1): 0.0, (1, 2): 0.5}))
        assert not has_edge(out, 0, 1)
        assert has_edge(out, 1, 2)

    @pytest.mark.parametrize("node_ids, want", [(None, ("0", "1", "2")), (("x", "y", "z"),) * 2])
    def test_refined_graph_keeps_the_tokens(self, node_ids, want):
        g = build_graph(3, [0, 1], [1, 2], [4.0, 2.0], node_ids=node_ids)
        attention = edge_attention_of(g, {(0, 1): 0.0, (1, 2): 0.5})
        assert update_edge_weights(g, attention).node_ids == want

    def test_attention_times_weight(self):
        g = build_graph(2, [0], [1], [10.0])
        out = update_edge_weights(g, edge_attention_of(g, {(0, 1): 0.3}))
        assert neighbors(out, 0) == [(1, pytest.approx(3.0))]

    def test_prunes_on_the_attention_not_the_weight_scale(self):
        # a tiny weight with live attention stays; live attention times the
        # smallest subnormal weight underflows to 0 and is pruned
        g = build_graph(4, [0, 1, 2], [1, 2, 3], [1e-300, 5e-324, 1.0])
        out = update_edge_weights(g, edge_attention_of(g, {(0, 1): 0.4, (1, 2): 0.4, (2, 3): 1e-13}))
        assert neighbors(out, 0) == [(1, 0.4 * 1e-300)]
        assert not has_edge(out, 1, 2) and not has_edge(out, 2, 3)

    def test_never_increases_weights(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.2, 3.0, 1.0, seed=0)
        g = lab.graph
        rng = np.random.default_rng(1)
        attention = symmetric_entries(g, rng.random((g.n, g.n)))  # values in [0, 1)
        out = update_edge_weights(g, attention)
        assert out.total_weight_2m <= g.total_weight_2m

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 25), m=st.integers(1, 80),
           zero_frac=st.sampled_from([0.0, 0.3, 0.8]), seed=st.integers(0, 2**31 - 1))
    def test_masked_refinement_equals_the_rebuilt_graph(self, n, m, zero_frac, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.integers(0, n, m), rng.integers(0, n, m)
        keep = u != v
        if not keep.any():
            return
        g = build_graph(n, u[keep], v[keep], rng.random(int(keep.sum())) * 3.0 + 0.01)
        table = rng.random((n, n))
        table[rng.random((n, n)) < zero_frac] = 0.0
        tiny = rng.random((n, n)) < 0.2  # attention on both sides of PRUNE_EPS
        table[tiny] *= 10.0 ** rng.integers(-14, -9, size=int(tiny.sum()))
        cut = int(g.directed_src()[0])  # every edge of this node is pruned
        table[cut, :] = table[:, cut] = 0.0
        attention = symmetric_entries(g, table)
        expected = reference_update_edge_weights(g, attention)
        out = update_edge_weights(g, attention)
        for name in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(out, name), getattr(expected, name))
            assert getattr(out, name).dtype == getattr(expected, name).dtype
        assert out.indptr[cut + 1] == out.indptr[cut]
        np.testing.assert_array_equal(g.indices[out.kept], out.indices)
        if out.num_edges:
            labels = rng.integers(0, 3, size=n)
            want = reference_refinement_coeff_grad(g, expected, 0.3, labels)
            got = refinement_coeff_grad(g, out, 0.3 * -modularity_weight_grad(out, labels)[1])
            np.testing.assert_array_equal(got, want)

    def test_coeff_grad_matches_finite_differences(self):
        lab = synth_weighted_sbm(12, 3, 0.6, 0.2, 3.0, 1.0, seed=4)
        g, labels, weight = lab.graph, lab.labels, 0.3
        rng = np.random.default_rng(5)
        # no attention near PRUNE_EPS
        attention = symmetric_entries(g, rng.random((g.n, g.n)) * 0.8 + 0.2)
        refined = update_edge_weights(g, attention)
        assert refined.num_edges == g.num_edges
        d_refined = weight * -modularity_weight_grad(refined, labels)[1]
        got = refinement_coeff_grad(g, refined, d_refined)
        assert got.shape == attention.shape

        def objective(a):
            return weight * -modularity(update_edge_weights(g, a), labels)

        src, step = g.directed_src(), 1e-6
        for e in range(g.indices.size):
            # an edge's value sits on both of its entries: perturb them together
            both = (np.minimum(src, g.indices) == min(src[e], g.indices[e])) & (
                np.maximum(src, g.indices) == max(src[e], g.indices[e]))
            assert both.sum() == 2
            fd = (objective(attention + step * both) - objective(attention - step * both)) / (2 * step)
            assert got[e] == pytest.approx(fd, abs=1e-8)

    def test_mismatched_graph_rejected(self):
        g = build_graph(2, [0], [1], [1.0])
        other = build_graph(3, [0, 1], [1, 2], [1.0, 1.0])
        with pytest.raises(ValueError, match=r"shape \(4,\); the graph has 2 directed entries"):
            update_edge_weights(g, edge_attention_of(other, {}))


class TestModularity:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 25), clusters=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_one_pass_gives_modularity_and_the_two_pass_gradient_bit_for_bit(
            self, n, clusters, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.integers(0, n, size=(2, 3 * n))
        keep = u != v
        w = rng.random(keep.sum()) * 10 ** rng.uniform(-3, 3) + 1e-3
        g = build_graph(n, u[keep], v[keep], w)
        labels = rng.integers(0, clusters, size=n)
        if not g.num_edges:
            return
        q, grad = modularity_weight_grad(g, labels)
        assert q == modularity(g, labels)
        want = two_pass_weight_grad(g, labels)
        assert grad.dtype == want.dtype
        np.testing.assert_array_equal(grad, want)

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
        empty = update_edge_weights(g, edge_attention_of(g, {(0, 1): 0.0}))
        with pytest.raises(ValueError):
            modularity(empty, [0, 0])

    @pytest.mark.parametrize("scale", [1e-98, 1e98])
    def test_scale_invariant_while_two_m_is_in_range(self, scale):
        lab = synth_weighted_sbm(12, 2, 0.6, 0.3, 3.0, 1.0, seed=5)
        u, v, w = lab.graph.edge_arrays()
        scaled = build_graph(lab.graph.n, u, v, w * (scale / w.sum()))  # 2m = 2 * scale
        assert modularity(scaled, lab.labels) == pytest.approx(modularity(lab.graph, lab.labels))
        np.testing.assert_allclose(modularity_weight_grad(scaled, lab.labels)[1] * scale,
                                   modularity_weight_grad(lab.graph, lab.labels)[1] * w.sum())

    @pytest.mark.parametrize("weight", [1e-300, 1e-101, 1e100, 1e300])
    def test_two_m_beyond_normal_cube_rejected(self, weight):
        # (2m)^3 would over- or underflow; the error names 2m instead
        g = build_graph(3, [0, 1], [1, 2], [weight, weight])
        for fn in (modularity, modularity_weight_grad):
            with pytest.raises(ValueError, match=r"total edge weight 2m within \[1e-100, 1e\+100\]"):
                fn(g, [0, 0, 1])

    def test_weight_gradient_matches_finite_differences(self):
        lab = synth_weighted_sbm(10, 2, 0.6, 0.3, 3.0, 1.0, seed=5)
        g = lab.graph
        labels = lab.labels
        grad = modularity_weight_grad(g, labels)[1]
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
        val = sampled_structure_loss(h, g, 0, seed=0)
        assert val == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturation_to_zero(self):
        h = np.array([[30.0, 0.0], [30.0, 0.0]])  # score 900: sigmoid ~ 1
        g = build_graph(2, [0], [1], [1.0])
        val = sampled_structure_loss(h, g, 0, seed=0)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        lab = synth_weighted_sbm(20, 2, 0.5, 0.2, 3.0, 1.0, seed=7)
        for seed in range(10):
            h = rng.normal(size=(20, 4))
            assert sampled_structure_loss(h, lab.graph, 5, seed=seed) >= 0.0

    def test_matches_straight_line_oracle_exactly(self):
        rng = np.random.default_rng(8)
        g = build_graph(6, [0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 5], [2.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        h = rng.normal(size=(6, 4))
        samples = draw_structure_samples(g, 3, np.random.default_rng(9))
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
        val = sampled_structure_loss(h, g, 0, seed=0)
        assert val == pytest.approx(np.log(2.0), abs=1e-12)  # node 2 contributes nothing

    def test_positive_sampling_follows_weights(self):
        # node 0 has neighbors 1 (w=99) and 2 (w=1): positives should mostly be 1
        g = build_graph(3, [0, 0], [1, 2], [99.0, 1.0])
        rng = np.random.default_rng(10)
        picks = [draw_structure_samples(g, 0, rng).positives[0] for _ in range(200)]
        assert np.mean(np.array(picks) == 1) > 0.9

    def test_negatives_exclude_self_and_neighbors(self):
        lab = synth_weighted_sbm(15, 2, 0.5, 0.2, 3.0, 1.0, seed=11)
        g = lab.graph
        samples = draw_structure_samples(g, 4, np.random.default_rng(12))
        for i in range(g.n):
            if not samples.active[i]:
                continue
            nbrs = {j for j, _ in neighbors(g, i)}
            for v in samples.negatives[i]:
                assert v != i and v not in nbrs

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        g = build_graph(6, [0, 0, 1, 2, 3, 4], [1, 2, 3, 4, 5, 5], [2.0, 1.0, 3.0, 1.0, 2.0, 1.0])
        h = rng.normal(size=(6, 3))
        samples = draw_structure_samples(g, 2, np.random.default_rng(14))
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
        # node 0's valid negatives are 2, 3 and 4, of weighted degrees 1, 4 and 3
        g = build_graph(5, [0, 2, 3], [1, 3, 4], [8.0, 1.0, 3.0])
        draws = draw_structure_samples(g, 20000, np.random.default_rng(0)).negatives[0]
        freq = np.bincount(draws, minlength=g.n) / draws.size
        law = np.array([0.0, 0.0, 1.0, 4.0**0.75, 3.0**0.75])
        np.testing.assert_allclose(freq, law / law.sum(), atol=0.015)

    def test_zero_probability_non_neighbors_leave_no_negative(self):
        # node 3 is isolated, so its sampling probability is 0; it is node 0's
        # only non-neighbor, so node 0 has no drawable negative at all
        g = build_graph(4, [0, 0], [1, 2], [1.0, 1.0])
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(10)
        try:
            samples = draw_structure_samples(g, 2, np.random.default_rng(0))
        finally:
            signal.alarm(0)
        np.testing.assert_array_equal(samples.negatives, [[0, 0], [2, 2], [1, 1], [0, 0]])
        np.testing.assert_array_equal(samples.active, [True, True, True, False])
        assert np.isfinite(structure_loss_from_samples(np.eye(4), samples))

    def test_vanishing_probability_negative_raises_at_the_draw_cap(self):
        # node 0's only valid negative is node 3, drawn with probability 2.7e-226
        g = build_graph(4, [0, 0, 1], [1, 2, 3], [1.0, 1.0, 1e-300])
        signal.signal(signal.SIGALRM, _raise_timeout)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError) as info:
                draw_structure_samples(g, 2, np.random.default_rng(0))
        finally:
            signal.alarm(0)
        message = str(info.value)
        assert "node '0' " in message
        assert f"in {losses_module.SAMPLE_MAX_DRAWS} draws" in message
        assert "mass is 2.72e-226" in message

    def test_cap_counts_the_draws_of_one_node(self, monkeypatch):
        # three disjoint edges and q = 1: node i rejects itself and its partner
        g = build_graph(6, [0, 2, 4], [1, 3, 5], [1.0, 1.0, 1.0])
        rng = np.random.default_rng(5)
        rng.random(g.n)  # the positives' draw
        cdf = np.cumsum(degree_power_probs(g))
        cdf[-1] = 1.0
        stream = iter(np.searchsorted(cdf, rng.random(1000), side="right"))
        draws = []
        for i in range(g.n):
            draws.append(1)
            while next(stream) in (i, i ^ 1):
                draws[-1] += 1
        most = max(draws)
        assert most >= 2
        expected = reference_draw_structure_samples(g, 1, np.random.default_rng(5))
        monkeypatch.setattr(losses_module, "SAMPLE_MAX_DRAWS", most)
        samples = draw_structure_samples(g, 1, np.random.default_rng(5))
        np.testing.assert_array_equal(samples.negatives, expected.negatives)
        monkeypatch.setattr(losses_module, "SAMPLE_MAX_DRAWS", most - 1)
        with pytest.raises(RuntimeError, match=rf"node '{draws.index(most)}' accepted 0 of 1 "
                                               rf"negatives in {most - 1} draws"):
            draw_structure_samples(g, 1, np.random.default_rng(5))

    @settings(max_examples=120, deadline=None)
    @given(g=sampling_graphs(), q=st.sampled_from([0, 1, 5]), seed=st.integers(0, 2**31 - 1))
    def test_walk_equals_the_set_based_sampler(self, g, q, seed):
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = reference_draw_structure_samples(g, q, rng_ref)
        samples = draw_structure_samples(g, q, rng)
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
