"""Core selection, rank fusion, PageRank importance, and subgraph induction."""

import numpy as np
import pytest
import scipy.sparse as sp

import wgclust.contraction as contraction_module
from wgclust.contraction import (
    PPR_MAX_ITER,
    PPR_TOL,
    ContractionConfig,
    contract,
    distance_to_cores,
    node_density,
    personalized_pagerank,
    rank_score,
    select_core_nodes,
)
from wgclust.graph import build_graph, synth_weighted_sbm


def two_cliques_graph():
    """Two 4-cliques (unit weights) joined by one weak edge 3-4 (w=0.5)."""
    u, v, w = [], [], []
    for block in (range(4), range(4, 8)):
        block = list(block)
        for i in range(4):
            for j in range(i + 1, 4):
                u.append(block[i])
                v.append(block[j])
                w.append(1.0)
    u.append(3)
    v.append(4)
    w.append(0.5)
    return build_graph(8, u, v, w)


def single_seed_pagerank(g, seed_node, teleport):
    """One seed's power iteration, one matrix-vector product per pass.

    The reference for the batched solve; returns (scores, passes).
    """
    e = np.zeros(g.n)
    e[seed_node] = 1.0
    deg = g.weighted_degree()
    if teleport == 1.0 or deg[seed_node] == 0:
        return e, 0
    scale = np.zeros(g.n)
    scale[deg > 0] = 1.0 / deg[deg > 0]
    trans = sp.csr_matrix((g.weights * scale[g.indices], g.indices, g.indptr), shape=(g.n, g.n))
    r = e.copy()
    for passes in range(1, PPR_MAX_ITER + 1):
        nxt = teleport * e + (1.0 - teleport) * trans.dot(r)
        residual = np.abs(nxt - r).sum()
        r = nxt
        if residual < PPR_TOL:
            return r, passes
    raise RuntimeError("reference did not converge")


def sbm_with_tail_and_isolated_node():
    """A 3-block SBM on nodes 0..59, a weak path 59-61-62-63, and the isolated node 60.

    Seeds on the path converge in more passes than seeds inside the blocks.
    """
    g = synth_weighted_sbm(60, 3, 0.3, 0.03, 4.0, 1.0, seed=12).graph
    u, v, w = g.edge_arrays()
    return build_graph(
        64, np.append(u, [59, 61, 62]), np.append(v, [61, 62, 63]), np.append(w, [0.5, 3.0, 0.2])
    )


class TestNodeDensity:
    def test_star_center(self):
        g = build_graph(4, [0, 0, 0], [1, 2, 3], [1.0, 2.0, 3.0])
        rho = node_density(g)
        assert rho[0] == 6.0

    def test_isolated_node(self):
        g = build_graph(3, [0], [1], [1.0])
        assert node_density(g)[2] == 0.0

    def test_single_edge_both_endpoints(self):
        g = build_graph(2, [0], [1], [2.0])
        np.testing.assert_array_equal(node_density(g), [2.0, 2.0])


class TestDistanceToCores:
    def test_core_contributes_zero_to_itself(self):
        g = build_graph(3, [0, 1], [1, 2], [1.0, 1.0])
        theta = distance_to_cores(g, [0], mode="unit")
        assert theta[0] == 0.0

    def test_unit_path_length(self):
        g = build_graph(3, [0, 1], [1, 2], [5.0, 9.0])
        theta = distance_to_cores(g, [0], mode="unit")
        assert theta[2] == 2.0

    def test_reciprocal_weights(self):
        # path a-b-c with w=2 each: lengths 1/2 + 1/2 = 1.0
        g = build_graph(3, [0, 1], [1, 2], [2.0, 2.0])
        theta = distance_to_cores(g, [0], mode="reciprocal")
        assert theta[2] == pytest.approx(1.0)

    def test_unreachable_uses_sentinel(self):
        g = build_graph(4, [0, 2], [1, 3], [1.0, 2.0])
        theta = distance_to_cores(g, [0], mode="unit")
        assert theta[2] == g.n * 1.0
        theta_r = distance_to_cores(g, [0], mode="reciprocal")
        assert theta_r[2] == g.n * 1.0  # max length = 1/min weight = 1

    def test_sum_over_multiple_cores(self):
        g = build_graph(3, [0, 1], [1, 2], [1.0, 1.0])
        theta = distance_to_cores(g, [0, 2], mode="unit")
        assert theta[1] == 2.0  # one hop to each core

    @pytest.mark.parametrize("mode", ["reciprocal", "unit"])
    def test_equals_undirected_search(self, mode):
        # the stored CSR holds both directions, so the directed search used
        # here must give the undirected distances exactly
        g = synth_weighted_sbm(80, 3, 0.2, 0.02, 3.0, 1.0, seed=21).graph
        g = build_graph(g.n + 1, *g.edge_arrays())  # plus an unreachable node
        cores = [0, 17, 40]
        lengths = 1.0 / g.weights if mode == "reciprocal" else np.ones_like(g.weights)
        mat = sp.csr_matrix((lengths, g.indices, g.indptr), shape=(g.n, g.n))
        dist = sp.csgraph.dijkstra(mat, directed=False, indices=cores)
        dist[~np.isfinite(dist)] = g.n * (lengths.max())
        assert np.array_equal(distance_to_cores(g, cores, mode), dist.sum(axis=0))


class TestRankScore:
    def test_basic_ordering(self):
        np.testing.assert_array_equal(rank_score([5.0, 1.0, 3.0]), [3, 1, 2])

    def test_all_equal_share_worst(self):
        np.testing.assert_array_equal(rank_score([2.0, 2.0, 2.0]), [1, 1, 1])

    def test_single_value(self):
        np.testing.assert_array_equal(rank_score([4.2]), [1])

    def test_partial_ties(self):
        # ties share the lower (worse) position: [7, 7, 3] -> positions {0,1} share score n - 1 = 2
        np.testing.assert_array_equal(rank_score([7.0, 7.0, 3.0]), [2, 2, 1])


class TestSelectCoreNodes:
    def test_single_core_is_densest(self):
        g = two_cliques_graph()
        cores = select_core_nodes(g, ContractionConfig(core_count=1))
        rho = node_density(g)
        assert cores[0] == np.argmax(rho)
        assert cores[0] == 3  # tie between 3 and 4 at 3.5 goes to the lower id

    def test_density_only_when_weight_is_one(self):
        g = two_cliques_graph()
        cores = select_core_nodes(g, ContractionConfig(core_count=3, density_weight=1.0))
        rho = node_density(g)
        # pure density ranking: the three densest nodes in id-tie-broken order
        assert cores[0] == 3 and cores[1] == 4
        assert rho[cores[2]] == 3.0

    def test_one_core_per_clique(self):
        g = two_cliques_graph()
        cores = select_core_nodes(g, ContractionConfig(core_count=2, density_weight=0.5))
        assert (cores < 4).sum() == 1 and (cores >= 4).sum() == 1

    def test_matches_exhaustive_rank_fusion(self):
        # independent straight-line evaluation of the second pick
        g = two_cliques_graph()
        config = ContractionConfig(core_count=2, density_weight=0.5)
        cores = select_core_nodes(g, config)
        first = cores[0]
        rho = node_density(g)
        theta = distance_to_cores(g, [first], mode="reciprocal")
        candidates = [i for i in range(8) if i != first]
        rr = {}
        for i in candidates:
            dens_rank = sum(rho[j] < rho[i] for j in candidates) + 1
            dist_rank = sum(theta[j] < theta[i] for j in candidates) + 1
            rr[i] = 0.5 * dens_rank + 0.5 * dist_rank
        best = max(sorted(rr), key=lambda i: rr[i])
        assert cores[1] == best

    @pytest.mark.parametrize("mode", ["reciprocal", "unit"])
    def test_equals_per_round_distance_to_cores(self, mode):
        # the selection builds the edge lengths once; a loop that calls the
        # public distance_to_cores every round must pick the same cores
        g = synth_weighted_sbm(80, 3, 0.2, 0.02, 3.0, 1.0, seed=22).graph
        g = build_graph(g.n + 1, *g.edge_arrays())  # plus an unreachable node
        config = ContractionConfig(core_count=7, density_weight=0.3, distance_mode=mode)
        rho = node_density(g)
        cores = [int(np.argmax(rho))]
        dist_sum = np.zeros(g.n)
        for _ in range(6):
            dist_sum += distance_to_cores(g, cores[-1:], mode)
            candidates = np.setdiff1d(np.arange(g.n), cores)
            score = 0.3 * rank_score(rho[candidates]) + 0.7 * rank_score(dist_sum[candidates])
            cores.append(int(candidates[np.argmax(score)]))
        np.testing.assert_array_equal(select_core_nodes(g, config), cores)

    def test_deterministic(self):
        lab = synth_weighted_sbm(60, 3, 0.4, 0.05, 4.0, 1.0, seed=2)
        config = ContractionConfig(core_count=5)
        a = select_core_nodes(lab.graph, config)
        b = select_core_nodes(lab.graph, config)
        np.testing.assert_array_equal(a, b)

    def test_too_many_cores_rejected(self):
        g = build_graph(2, [0], [1], [1.0])
        with pytest.raises(ValueError):
            select_core_nodes(g, ContractionConfig(core_count=3))

    def test_weight_scale_invariance(self):
        lab = synth_weighted_sbm(40, 2, 0.4, 0.1, 4.0, 1.0, seed=3)
        g = lab.graph
        u, v, w = g.edge_arrays()
        scaled = build_graph(g.n, u, v, w * 37.5)
        config = ContractionConfig(core_count=4, density_weight=0.5)
        np.testing.assert_array_equal(
            select_core_nodes(g, config), select_core_nodes(scaled, config)
        )


class TestPersonalizedPagerank:
    def test_teleport_one_is_indicator(self):
        g = build_graph(3, [0, 1], [1, 2], [1.0, 1.0])
        r = personalized_pagerank(g, [1], 1.0)[:, 0]
        np.testing.assert_array_equal(r, [0.0, 1.0, 0.0])

    def test_disconnected_component_gets_no_mass(self):
        g = build_graph(5, [0, 1, 3], [1, 2, 4], [1.0, 1.0, 1.0])
        r = personalized_pagerank(g, [0], 0.3)[:, 0]
        assert r[3] == 0.0 and r[4] == 0.0
        assert r.sum() == pytest.approx(1.0, abs=1e-9)

    def test_triangle_matches_linear_system_oracle(self):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        phi = 0.5
        r = personalized_pagerank(g, [0], phi)[:, 0]
        # oracle: dense solve of (I - (1-phi) W D^-1) r = phi e_seed
        w = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        trans = w / w.sum(axis=0, keepdims=True)
        expect = np.linalg.solve(np.eye(3) - (1 - phi) * trans, phi * np.eye(3)[0])
        np.testing.assert_allclose(r, expect, atol=1e-9)
        np.testing.assert_allclose(r, [0.6, 0.2, 0.2], atol=1e-9)

    def test_random_graph_matches_linear_system_oracle(self):
        lab = synth_weighted_sbm(25, 2, 0.5, 0.2, 3.0, 1.0, seed=6)
        g = lab.graph
        dense = np.zeros((g.n, g.n))
        for i in range(g.n):
            for j, w in g.neighbors(i):
                dense[j, i] = 0.0  # filled below symmetrically
        for i in range(g.n):
            for j, w in g.neighbors(i):
                dense[i, j] = w
        deg = dense.sum(axis=0)
        trans = np.divide(dense, deg, out=np.zeros_like(dense), where=deg > 0)
        for phi in (0.2, 0.5, 0.9):
            seeded = 4
            expect = np.linalg.solve(
                np.eye(g.n) - (1 - phi) * trans, phi * np.eye(g.n)[seeded]
            )
            r = personalized_pagerank(g, [seeded], phi)[:, 0]
            np.testing.assert_allclose(r, expect, atol=1e-8)
            assert r.sum() == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("teleport", [0.15, 0.5, 0.9, 1.0])
    def test_columns_equal_single_seed_reference(self, teleport):
        g = sbm_with_tail_and_isolated_node()
        seeds = [60, 0, 17, 25, 44, 59, 61, 63, 3]
        r = personalized_pagerank(g, seeds, teleport)
        assert r.shape == (g.n, len(seeds))
        passes = set()
        for j, s in enumerate(seeds):
            want, count = single_seed_pagerank(g, s, teleport)
            np.testing.assert_array_equal(r[:, j], want)
            passes.add(count)
        if teleport < 1.0:
            assert len(passes) > 2  # the isolated seed's 0 and at least two pass counts
        np.testing.assert_array_equal(r[:, 0], np.eye(g.n)[60])

    def test_pass_cap_names_the_first_unconverged_seed(self, monkeypatch):
        monkeypatch.setattr(contraction_module, "PPR_MAX_ITER", 1)
        g = sbm_with_tail_and_isolated_node()
        with pytest.raises(RuntimeError, match=r"from node 17 did not converge \(residual"):
            personalized_pagerank(g, [60, 17, 25], 0.5)


class TestContract:
    def test_threshold_zero_selects_all_reachable(self):
        lab = synth_weighted_sbm(40, 2, 0.6, 0.2, 3.0, 1.0, seed=8)
        sel = contract(lab.graph, ContractionConfig(core_count=2, importance_threshold=0.0))
        # the SBM at these densities is connected, so everything is selected
        assert sel.selected.size == lab.graph.n

    def test_threshold_one_keeps_exactly_cores(self):
        lab = synth_weighted_sbm(30, 2, 0.6, 0.2, 3.0, 1.0, seed=9)
        sel = contract(lab.graph, ContractionConfig(core_count=3, importance_threshold=1.0))
        np.testing.assert_array_equal(np.sort(sel.core_nodes), sel.selected)

    def test_cores_always_included(self):
        lab = synth_weighted_sbm(50, 3, 0.4, 0.05, 3.0, 1.0, seed=10)
        sel = contract(lab.graph, ContractionConfig(core_count=4, importance_threshold=0.01))
        assert set(sel.core_nodes.tolist()) <= set(sel.selected.tolist())

    def test_subgraph_weights_exact_restriction(self):
        lab = synth_weighted_sbm(50, 3, 0.4, 0.05, 3.0, 1.0, seed=11)
        g = lab.graph
        sel = contract(g, ContractionConfig(core_count=4, importance_threshold=0.005))
        inv = {int(sel.old_to_new[o]): int(o) for o in sel.selected}
        for i_new in range(sel.subgraph.n):
            i_old = inv[i_new]
            old_row = dict(g.neighbors(i_old))
            for j_new, w in sel.subgraph.neighbors(i_new):
                assert old_row[inv[j_new]] == w

    def test_default_core_count_rule(self):
        config = ContractionConfig()
        assert config.resolved_core_count(1000, cluster_count=4) == 20  # ceil(0.02 * 1000)
        assert config.resolved_core_count(100, cluster_count=7) == 7  # K dominates
