"""Training loop determinism, gradient correctness, inference, checkpoints."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import wgclust.entmax as entmax_module
from wgclust import attention as attention_module
from wgclust import losses as losses_module
from wgclust.attention import (
    ModelParams,
    build_attention_structure,
    init_model_params,
    network_forward,
)
from wgclust.config import TrainConfig, config_to_text, parse_config_text
from wgclust.contraction import contract
from wgclust.fcm import memberships_for
from wgclust.graph import build_graph, induce_subgraph, synth_weighted_sbm
from wgclust.metrics import evaluate
from wgclust.losses import draw_structure_samples, modularity
from wgclust.trainer import epoch_step, infer, load_checkpoint, save_checkpoint, train

from numeric_helpers import gradient_check

TINY = dict(heads=2, layer_count=2, embed_dim=6, attn_dim=5, hidden_dim=6, negatives=2)


def two_hop_graph():
    """Two 4-cliques joined by a0-b0, a tail a3-c-d, and a separate path p-q-r.

    Returns (graph, selected): the cliques' nodes are selected, so c is one
    vote hop away, d two, and p, q, r lie in a component with no selected node.
    """
    tokens = ["a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "c", "d", "p", "q", "r"]
    at = {t: i for i, t in enumerate(tokens)}
    pairs = [(f"{x}{i}", f"{x}{j}", 3.0) for x in "ab" for i in range(4) for j in range(i + 1, 4)]
    pairs += [("a0", "b0", 1.0), ("a3", "c", 2.0), ("c", "d", 1.5), ("p", "q", 1.0),
              ("q", "r", 2.0)]
    u, v, w = zip(*pairs)
    g = build_graph(len(tokens), [at[t] for t in u], [at[t] for t in v], w, node_ids=tuple(tokens))
    return g, np.arange(8)


def six_node_graph():
    return build_graph(
        6, [0, 0, 1, 2, 3, 4, 1], [1, 2, 2, 3, 4, 5, 4], [2.0, 1.0, 3.0, 0.5, 2.0, 1.0, 1.5]
    )


class TestTrainBasics:
    def test_attn_dim_sets_logit_projection_width(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.1, 3.0, 1.0, seed=0)
        model = train(lab.graph, 2, TrainConfig(epochs=0, no_contraction=True, **TINY))
        assert (TINY["embed_dim"], TINY["attn_dim"], TINY["hidden_dim"]) == (6, 5, 6)
        for layer in model.params.layers:
            assert layer.w1.shape == (2, 6, 5)
            assert layer.w2.shape == (2, 6, 6)

    def test_zero_epochs_returns_initialized_model(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.1, 3.0, 1.0, seed=0)
        cfg = TrainConfig(epochs=0, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        assert model.loss_history.shape == (0, 4)
        assert model.params.embedding.shape == (20, 6)
        # inference still works from the initialized state
        a = infer(lab.graph, model)
        assert a.labels.shape == (20,)

    def test_same_seed_bit_identical(self):
        lab = synth_weighted_sbm(25, 2, 0.5, 0.1, 3.0, 1.0, seed=1)
        cfg = TrainConfig(epochs=5, no_contraction=True, seed=11, **TINY)
        m1 = train(lab.graph, 2, cfg)
        m2 = train(lab.graph, 2, cfg)
        for a, b in zip(m1.params.flat_arrays(), m2.params.flat_arrays()):
            np.testing.assert_array_equal(a, b)
        assert m1.loss_history.tolist() == m2.loss_history.tolist()
        a1 = infer(lab.graph, m1)
        a2 = infer(lab.graph, m2)
        np.testing.assert_array_equal(a1.memberships, a2.memberships)

    def test_k_below_two_rejected(self):
        lab = synth_weighted_sbm(10, 2, 0.6, 0.2, 2.0, 1.0, seed=2)
        with pytest.raises(ValueError):
            train(lab.graph, 1, TrainConfig(**TINY))

    def test_contraction_smaller_than_k_rejected(self):
        lab = synth_weighted_sbm(12, 2, 0.9, 0.4, 2.0, 1.0, seed=3)
        cfg = TrainConfig(core_count=2, importance_threshold=1.0, **TINY)  # keeps only cores
        with pytest.raises(ValueError, match="fewer than K"):
            train(lab.graph, 3, cfg)

    def test_contracted_non_finite_activation_names_the_graph_node(self):
        g = synth_weighted_sbm(200, 2, 0.2, 0.01, 5.0, 1.0, seed=0).graph
        cfg = TrainConfig(layer_count=2, heads=2, embed_dim=8, attn_dim=8, hidden_dim=8,
                          epochs=5, patience=0, learning_rate=1e200, importance_threshold=3e-3)
        # contraction drops node 0, so node 0 of the training subgraph is another node
        selected = contract(g, cfg, 2).selected
        assert selected[0] != 0
        with pytest.raises(FloatingPointError, match=f"^epoch 1: layer 0: non-finite activation "
                                                      f"at node '{selected[0]}'$"):
            train(g, 2, cfg)

    def test_contracted_sampling_error_names_the_graph_node(self, monkeypatch):
        g = synth_weighted_sbm(200, 2, 0.2, 0.01, 5.0, 1.0, seed=0).graph
        cfg = TrainConfig(layer_count=2, heads=2, embed_dim=8, attn_dim=8, hidden_dim=8,
                          epochs=1, patience=0, negatives=2, importance_threshold=3e-3)
        selected = contract(g, cfg, 2).selected
        assert selected[0] != 0
        # one draw leaves the walk's first node, node 0 of the subgraph, a negative short
        monkeypatch.setattr(losses_module, "SAMPLE_MAX_DRAWS", 1)
        with pytest.raises(RuntimeError, match=f"^epoch 0: negative sampling for node "
                                               f"'{selected[0]}' accepted 1 of 2 negatives "
                                               f"in 1 draws;"):
            train(g, 2, cfg)

    def test_loss_history_written(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.1, 3.0, 1.0, seed=4)
        cfg = TrainConfig(epochs=4, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        hist = model.loss_history
        assert hist.shape == (4, 4)
        np.testing.assert_allclose(hist[:, 2], hist[:, 0] + cfg.modularity_weight * hist[:, 1])

    def test_early_stopping_respects_patience(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.1, 3.0, 1.0, seed=5)
        cfg = TrainConfig(epochs=60, patience=3, learning_rate=1e-9,
                          no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)  # lr ~ 0: loss barely moves, stops early
        assert len(model.loss_history) <= 10


class TestSeparableRecovery:
    def test_two_block_perfect_recovery_and_descent(self):
        lab = synth_weighted_sbm(40, 2, 0.8, 0.0, 5.0, 1.0, seed=6)
        cfg = TrainConfig(
            epochs=60, no_contraction=True, seed=0, heads=2, layer_count=2,
            embed_dim=16, attn_dim=16, hidden_dim=16, patience=0,
        )
        model = train(lab.graph, 2, cfg)
        a = infer(lab.graph, model)
        acc = evaluate(a.labels, lab.labels).accuracy
        assert acc == 1.0
        hist = model.loss_history[:, 2]
        # 10-epoch moving average decreases from start to finish
        assert hist[-10:].mean() < hist[:10].mean()

    def test_four_block_with_noise_median_accuracy(self):
        from wgclust.graph import inject_noise_edges

        accs = []
        for seed in range(5):
            lab = synth_weighted_sbm(120, 4, 0.5, 0.05, 5.0, 1.0, seed=seed)
            noisy, _ = inject_noise_edges(lab.graph, 0.1, seed=seed + 500)
            cfg = TrainConfig(
                seed=seed, epochs=300, patience=0, heads=4, layer_count=2,
                embed_dim=32, attn_dim=32, hidden_dim=32,
            )
            model = train(noisy, 4, cfg)
            acc = evaluate(infer(noisy, model).labels, lab.labels).accuracy
            accs.append(acc)
        assert float(np.median(accs)) >= 0.85


class TestWeightScale:
    # the acceptance criteria's network on the criterion-5 seed-0 graph
    BENCH = dict(layer_count=2, heads=4, embed_dim=32, attn_dim=32, hidden_dim=32,
                 negatives=5, patience=0, epochs=20, seed=0)

    @pytest.mark.parametrize("power", [43, -30, -43])
    def test_scaling_every_weight_by_a_power_of_two_changes_nothing(self, power):
        # pruning reads the attention, not the refined weight: at 2^-43 the
        # refined weights fall below PRUNE_EPS, and no edge is pruned for that
        g = synth_weighted_sbm(120, 4, 0.5, 0.05, 5.0, 1.0, seed=0).graph
        u, v, w = g.edge_arrays()
        scaled = build_graph(g.n, u, v, w * 2.0**power)
        cfg = TrainConfig(**self.BENCH)
        base, model = train(g, 4, cfg), train(scaled, 4, cfg)
        assert np.array_equal(model.loss_history, base.loss_history)
        assert np.array_equal(infer(scaled, model).labels, infer(g, base).labels)


class TestGradientCheck:
    def test_entmax_pipeline_gradients(self):
        cfg = TrainConfig(no_contraction=True, **TINY)
        assert gradient_check(cfg, six_node_graph()) < 1e-3

    # seed 0 at TINY dims is test_entmax_pipeline_gradients
    @pytest.mark.parametrize(
        "seed, dims",
        [(s, dict(embed_dim=4, attn_dim=4, hidden_dim=4)) for s in range(4)]
        + [(s, {}) for s in range(1, 4)],
    )
    def test_entmax_gradients_with_modularity_across_seeds(self, seed, dims):
        # the modularity term reaches the loss through the refined weights,
        # so any entmax solver noise shows up in the finite differences
        cfg = TrainConfig(no_contraction=True, modularity_weight=0.03, seed=seed,
                          **{**TINY, **dims})
        assert gradient_check(cfg, six_node_graph()) < 1e-3

    def test_softmax_ablation_gradients(self):
        cfg = TrainConfig(no_contraction=True, softmax_instead_of_entmax=True, **TINY)
        assert gradient_check(cfg, six_node_graph()) < 1e-3

    def test_structure_only_when_modularity_weight_zero(self):
        cfg = TrainConfig(no_contraction=True, modularity_weight=0.0, **TINY)
        assert gradient_check(cfg, six_node_graph()) < 1e-3

    def test_large_graph_rejected(self):
        lab = synth_weighted_sbm(30, 2, 0.5, 0.1, 2.0, 1.0, seed=7)
        with pytest.raises(ValueError, match="tiny"):
            gradient_check(TrainConfig(**TINY), lab.graph)


class TestEpochMemory:
    @pytest.mark.parametrize("softmax", [False, True], ids=["entmax", "softmax"])
    def test_full_graph_epoch_holds_three_entry_buffers(self, monkeypatch, softmax):
        # a dense graph, so one (heads, entries) array is 30 per-node arrays;
        # small blocks keep the solver's, the VJP's and the dots' block temporaries small
        monkeypatch.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", 1024)
        monkeypatch.setattr(attention_module, "_PAIR_DOT_FLOATS", 1024)
        g = synth_weighted_sbm(200, 2, 0.8, 0.4, 3.0, 1.0, seed=26).graph
        heads, width = 4, 4
        config = TrainConfig(heads=heads, layer_count=2, embed_dim=width, attn_dim=width,
                             hidden_dim=width, no_contraction=True,
                             softmax_instead_of_entmax=softmax)
        s = build_attention_structure(g, config)
        rng = np.random.default_rng(27)
        model = init_model_params(g.n, config.layer_dims(), width, heads, rng)
        labels = rng.integers(0, 2, size=g.n)
        samples = draw_structure_samples(g, config.negatives, rng)

        def fixed(h, refined):
            return labels, samples

        epoch_step(s, model, config, fixed)  # the first products import scipy.sparse
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            epoch_step(s, model, config, fixed)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        entry_bytes = heads * s.src.size * 8
        node_bytes = heads * g.n * width * 8
        assert entry_bytes >= 30 * node_bytes
        # the record's two coefficient buffers, plus either the sweep's coefficient
        # gradient and edge-gradient row (a quarter of a buffer) or the objective's
        # per-entry arrays, plus per-node arrays; a sweep that kept the refined graph
        # and every layer's state to its end peaked at 4.3 buffers, and a softmax
        # normalizer that made full-size temporaries at 6.2
        assert peak <= 3.3 * entry_bytes + 12 * node_bytes, (peak / entry_bytes)


class TestEpochObjective:
    @pytest.mark.parametrize("backward", [True, False])
    def test_one_modularity_pass_per_epoch(self, monkeypatch, backward):
        lab = synth_weighted_sbm(40, 2, 0.5, 0.1, 3.0, 1.0, seed=3)
        config = TrainConfig(no_contraction=True, **TINY)
        s = build_attention_structure(lab.graph, config)
        model = init_model_params(lab.graph.n, config.layer_dims(), config.attn_dim,
                                  config.heads, np.random.default_rng(4))
        labels = lab.labels
        samples = draw_structure_samples(lab.graph, config.negatives, np.random.default_rng(5))
        passes = []
        terms = losses_module._modularity_terms

        def counted(*args):
            passes.append(args)
            return terms(*args)

        monkeypatch.setattr(losses_module, "_modularity_terms", counted)
        breakdown, grads = epoch_step(s, model, config, lambda h, refined: (labels, samples),
                                      backward=backward)
        assert len(passes) == 1
        assert (grads is not None) == backward
        assert breakdown.modularity_q == modularity(passes[0][0], labels)


class TestInfer:
    def test_deterministic_reassignment_of_training_nodes(self):
        lab = synth_weighted_sbm(30, 2, 0.6, 0.1, 3.0, 1.0, seed=8)
        cfg = TrainConfig(epochs=5, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        a1 = infer(lab.graph, model)
        a2 = infer(lab.graph, model)
        np.testing.assert_array_equal(a1.labels, a2.labels)
        np.testing.assert_array_equal(a1.memberships, a2.memberships)

    @pytest.mark.parametrize("no_contraction", [True, False])
    def test_train_and_each_infer_build_one_structure(self, monkeypatch, no_contraction):
        import wgclust.trainer as trainer_module

        lab = synth_weighted_sbm(30, 2, 0.6, 0.1, 3.0, 1.0, seed=8)
        cfg = TrainConfig(epochs=3, no_contraction=no_contraction, core_count=4,
                          importance_threshold=0.03, **TINY)
        built = []
        build = trainer_module.build_attention_structure

        def counting_build(g, config):
            built.append((g, config))
            return build(g, config)

        monkeypatch.setattr(trainer_module, "build_attention_structure", counting_build)
        model = train(lab.graph, 2, cfg)
        # training builds one structure, on the graph it trains on
        assert len(built) == 1
        trained_on = built[0][0]
        if no_contraction:
            assert trained_on is lab.graph
        else:
            assert model.selected.size < lab.graph.n
            expect = induce_subgraph(lab.graph, model.selected)
            for got, want in zip((trained_on.indptr, trained_on.indices, trained_on.weights),
                                 (expect.indptr, expect.indices, expect.weights)):
                np.testing.assert_array_equal(got, want)
        # each infer builds one structure: on the graph itself, or on the
        # subgraph of the selected nodes, which is the training subgraph
        copy = build_graph(lab.graph.n, *lab.graph.edge_arrays())
        a = infer(lab.graph, model)
        b = infer(copy, model)
        assert len(built) == 3
        assert all(config is cfg for _, config in built)
        for (g, _), given in zip(built[1:], (lab.graph, copy)):
            if no_contraction:
                assert g is given
            else:
                assert g.n == model.selected.size
                for got, want in zip((g.indptr, g.indices, g.weights),
                                     (trained_on.indptr, trained_on.indices, trained_on.weights)):
                    np.testing.assert_array_equal(got, want)
        # an equal graph in another object gets the same labels
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.memberships, b.memberships)

    def test_selection_of_every_node_is_the_no_contraction_path(self):
        lab = synth_weighted_sbm(30, 2, 0.6, 0.1, 3.0, 1.0, seed=8)
        model = train(lab.graph, 2, TrainConfig(epochs=3, no_contraction=True, **TINY))
        np.testing.assert_array_equal(model.selected, np.arange(lab.graph.n))
        a = infer(lab.graph, model)
        assert (a.forward_nodes, a.vote_nodes, a.fallback_nodes, a.vote_hops) == (30, 0, 0, 0)

    def test_vote_reaches_two_hops_and_fallback_labels_a_component_without_selected_nodes(self):
        g, selected = two_hop_graph()
        model = train(g, 2, TrainConfig(epochs=3, no_contraction=True, seed=1, **TINY))
        model = dataclasses.replace(model, selected=selected)
        a = infer(g, model)
        assert (a.forward_nodes, a.vote_nodes, a.fallback_nodes, a.vote_hops) == (8, 2, 3, 2)
        np.testing.assert_allclose(a.memberships.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(a.labels, a.memberships.argmax(axis=1))
        a3, c, d = (g.node_ids.index(t) for t in ("a3", "c", "d"))
        # c's only labelled neighbour is a3 and d's is c, so each takes that row
        np.testing.assert_allclose(a.memberships[c], a.memberships[a3], rtol=1e-15)
        np.testing.assert_allclose(a.memberships[d], a.memberships[c], rtol=1e-15)
        # the component p-q-r gets the fitted centers applied to its full-graph representation
        h = network_forward(build_attention_structure(g, model.config), model.params,
                            model.config)[0]
        rest = [g.node_ids.index(t) for t in "pqr"]
        np.testing.assert_allclose(a.memberships[rest], memberships_for(h[rest], a.centers),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("token", ["b0", "p"])
    def test_non_finite_activation_names_the_graph_node(self, token):
        # b0 is node 0 of the selected b-clique's subgraph and p node 0 of the
        # fallback's component p-q-r; a NaN row makes its own entries, the
        # subgraph's first, non-finite
        g, _ = two_hop_graph()
        model = train(g, 2, TrainConfig(epochs=1, no_contraction=True, seed=1, **TINY))
        embedding = model.params.embedding.copy()
        node = g.node_ids.index(token)
        embedding[node] = np.nan
        selected = np.arange(4, 8)
        model = dataclasses.replace(
            model, params=ModelParams(embedding=embedding, layers=model.params.layers),
            selected=selected)
        with pytest.raises(FloatingPointError, match=f"^layer 0: non-finite activation at node "
                                                      f"{token!r}$"):
            infer(g, model)

    @pytest.mark.parametrize("seed", range(4))
    def test_vote_matches_a_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        iu, ju = np.triu_indices(40, 1)
        keep = rng.random(iu.size) < 0.05  # sparse: several hops and unreached components
        g = build_graph(40, iu[keep], ju[keep], rng.uniform(0.5, 4.0, int(keep.sum())))
        selected = np.sort(rng.choice(40, size=8, replace=False))
        model = train(g, 2, TrainConfig(epochs=0, no_contraction=True, seed=seed, **TINY))
        model = dataclasses.replace(model, selected=selected)
        a = infer(g, model)

        def neighbours(i):
            lo, hi = g.indptr[i], g.indptr[i + 1]
            return zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist())

        rows = {i: a.memberships[i] for i in selected.tolist()}
        last, hops = list(rows), 0
        while True:
            reach = sorted({j for i in last for j, _ in neighbours(i) if j not in rows})
            if not reach:
                break
            votes = {i: sum(w * rows[j] for j, w in neighbours(i) if j in rows)
                        / sum(w for j, w in neighbours(i) if j in rows) for i in reach}
            rows.update(votes)
            last, hops = reach, hops + 1
        assert (a.vote_nodes, a.vote_hops) == (len(rows) - 8, hops)
        assert a.fallback_nodes == 40 - len(rows)
        for i, row in rows.items():
            np.testing.assert_allclose(a.memberships[i], row, rtol=1e-12)

    def test_random_sampling_model_labels_every_node(self):
        lab = synth_weighted_sbm(60, 3, 0.5, 0.05, 3.0, 1.0, seed=13)
        cfg = TrainConfig(epochs=2, importance_threshold=0.02, random_sampling=True, **TINY)
        model = train(lab.graph, 3, cfg)
        assert model.selected.size < lab.graph.n
        a = infer(lab.graph, model)
        assert a.forward_nodes == model.selected.size
        assert a.forward_nodes + a.vote_nodes + a.fallback_nodes == lab.graph.n
        assert a.labels.shape == (lab.graph.n,) and set(a.labels.tolist()) <= {0, 1, 2}
        assert np.isfinite(a.memberships).all()
        np.testing.assert_allclose(a.memberships.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(a.labels, a.memberships.argmax(axis=1))

    def test_node_count_mismatch_rejected(self):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=9)
        cfg = TrainConfig(epochs=2, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        other = synth_weighted_sbm(21, 2, 0.6, 0.1, 3.0, 1.0, seed=9).graph
        with pytest.raises(ValueError, match="nodes"):
            infer(other, model)

    def test_embedding_rows_follow_the_node_tokens(self):
        lab = synth_weighted_sbm(24, 2, 0.6, 0.1, 3.0, 1.0, seed=10)
        g = lab.graph
        model = train(g, 2, TrainConfig(epochs=4, no_contraction=True, seed=2, **TINY))
        a = infer(g, model)
        # the same edges, with the nodes numbered in another order but
        # keeping their tokens
        perm = np.random.default_rng(1).permutation(g.n)
        u, v, w = g.edge_arrays()
        tokens = [None] * g.n
        for old, new in enumerate(perm):
            tokens[new] = g.node_ids[old]
        renumbered = build_graph(g.n, perm[u], perm[v], w, node_ids=tuple(tokens))
        params = model.params_for(renumbered)
        np.testing.assert_array_equal(params.embedding[perm], model.params.embedding)
        assert model.params_for(g) is model.params
        b = infer(renumbered, model)
        assert evaluate(b.labels[perm], a.labels).accuracy == 1.0

    def test_unknown_node_token_rejected(self):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=9)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        u, v, w = lab.graph.edge_arrays()
        tokens = lab.graph.node_ids[:-1] + ("stranger",)
        other = build_graph(lab.graph.n, u, v, w, node_ids=tokens)
        with pytest.raises(ValueError, match="graph node 'stranger' is not one the model embeds"):
            infer(other, model)

    def test_permutation_equivariance(self):
        lab = synth_weighted_sbm(24, 2, 0.6, 0.1, 3.0, 1.0, seed=10)
        g = lab.graph
        cfg = TrainConfig(epochs=6, no_contraction=True, seed=2, **TINY)
        model = train(g, 2, cfg)
        a = infer(g, model)
        perm = np.random.default_rng(0).permutation(g.n)
        u, v, w = g.edge_arrays()
        gp = build_graph(g.n, perm[u], perm[v], w)
        model_p_emb = np.empty_like(model.params.embedding)
        model_p_emb[perm] = model.params.embedding
        from wgclust.attention import ModelParams
        from wgclust.trainer import TrainedModel

        model_p = TrainedModel(
            params=ModelParams(embedding=model_p_emb, layers=model.params.layers),
            cluster_count=model.cluster_count,
            config=model.config,
            loss_history=model.loss_history,
            selected=model.selected,
            node_ids=model.node_ids,
        )
        ap = infer(gp, model_p)
        acc = evaluate(ap.labels[perm], a.labels).accuracy
        assert acc == 1.0


class TestAblations:
    def test_ewsgat_ablation_equals_softmax_plus_no_factor(self):
        from wgclust.cli import ABLATIONS

        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=11)
        base = TrainConfig(epochs=3, no_contraction=True, **TINY)
        cfg_a = base.replace(**ABLATIONS["ewsgat"])
        cfg_b = TrainConfig(
            epochs=3, no_contraction=True, softmax_instead_of_entmax=True, drop_f_iz=True, **TINY
        )
        m_a = train(lab.graph, 2, cfg_a)
        m_b = train(lab.graph, 2, cfg_b)
        for a, b in zip(m_a.params.flat_arrays(), m_b.params.flat_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_no_weight_update_modularity_uses_original_weights(self, monkeypatch):
        import wgclust.trainer as trainer_module

        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=12)
        cfg = TrainConfig(epochs=1, no_contraction=True, no_weight_update=True, seed=4, **TINY)
        scored = []

        def recording_modularity(g, labels):
            scored.append((g, labels.copy()))
            return modularity(g, labels)

        monkeypatch.setattr(trainer_module, "modularity", recording_modularity)
        model = train(lab.graph, 2, cfg)
        # epoch 0 scores the unrefined input graph under that epoch's labels
        [(graph, labels)] = scored
        assert graph is lab.graph
        assert model.loss_history[0, 3] == modularity(lab.graph, labels)

    def test_random_sampling_matches_contraction_size(self):
        lab = synth_weighted_sbm(60, 3, 0.5, 0.05, 3.0, 1.0, seed=13)
        cfg = TrainConfig(epochs=1, importance_threshold=0.02, **TINY)
        m_contract = train(lab.graph, 3, cfg)
        m_random = train(lab.graph, 3, cfg.replace(random_sampling=True))
        assert m_random.selected.size == m_contract.selected.size


class TestCheckpoint:
    def test_round_trip_bit_identical_inference(self, tmp_path):
        lab = synth_weighted_sbm(25, 2, 0.6, 0.1, 3.0, 1.0, seed=14)
        cfg = TrainConfig(epochs=4, importance_threshold=0.001, **TINY)
        model = train(lab.graph, 2, cfg)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for a, b in zip(model.params.flat_arrays(), loaded.params.flat_arrays()):
            np.testing.assert_array_equal(a, b)
        assert loaded.config == model.config
        a1 = infer(lab.graph, model)
        a2 = infer(lab.graph, loaded)
        np.testing.assert_array_equal(a1.memberships, a2.memberships)
        np.testing.assert_array_equal(a1.labels, a2.labels)

    @pytest.mark.parametrize("key", ["layer0_w1", "layer1_gamma", "embedding"])
    def test_checkpoint_disagreeing_with_config_rejected(self, tmp_path, key):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=16)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            data = dict(z)
        # one column fewer on the last axis
        data[key] = data[key][..., :-1]
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(ValueError, match=key):
            load_checkpoint(tmp_path / "bad.npz")

    def test_version_1_checkpoint_rejected(self, tmp_path):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=16)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            data = dict(z)
        # a version-1 file also named the removed config keys and carried the
        # training graph and the FCM centers
        u, v, w = lab.graph.edge_arrays()
        old_keys = "fcm_mode = literal\nwarm_start_fcm = false\nreuse_centers = false\n"
        data.update(
            format_version=np.array(1), config_text=np.array(str(data["config_text"]) + old_keys),
            working_edge_u=u, working_edge_v=v, working_edge_w=w, working_n=np.array(lab.graph.n),
            centers=np.zeros((2, TINY["hidden_dim"])),
        )
        np.savez(tmp_path / "v1.npz", **data)
        with pytest.raises(ValueError, match="unsupported checkpoint version 1"):
            load_checkpoint(tmp_path / "v1.npz")

    def test_version_2_checkpoint_rejected(self, tmp_path):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=16)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            # a version-2 file held no node tokens
            data = {k: v for k, v in z.items() if k != "node_ids"}
        data["format_version"] = np.array(2)
        np.savez(tmp_path / "v2.npz", **data)
        with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
            load_checkpoint(tmp_path / "v2.npz")

    def test_version_4_checkpoint_rejected(self, tmp_path):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=16)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            # a version-4 file held no selected_nodes without contraction
            data = {k: v for k, v in z.items() if k != "selected_nodes"}
        # and it held layer_count, and its config named the FCM round and restart counts
        old_keys = "fcm_iters = 30\nfcm_restarts = 8\n"
        data.update(format_version=np.array(4), layer_count=np.array(2),
                    config_text=np.array(str(data["config_text"]) + old_keys))
        np.savez(tmp_path / "v4.npz", **data)
        with pytest.raises(ValueError, match="unsupported checkpoint version 4$"):
            load_checkpoint(tmp_path / "v4.npz")

    def test_path_without_npz_suffix_kept(self, tmp_path):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=16)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]
        loaded = load_checkpoint(path)
        for a, b in zip(model.params.flat_arrays(), loaded.params.flat_arrays()):
            np.testing.assert_array_equal(a, b)

    def test_node_tokens_round_trip(self, tmp_path):
        u, v, w = six_node_graph().edge_arrays()
        tokens = ("a", "b b", "c,\"", "ü", "0", "")
        g = build_graph(6, u, v, w, node_ids=tokens)
        model = train(g, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        assert load_checkpoint(tmp_path / "m.npz").node_ids == tokens

    def test_token_a_checkpoint_cannot_hold_rejected(self, tmp_path):
        u, v, w = six_node_graph().edge_arrays()
        g = build_graph(6, u, v, w, node_ids=("a", "b", "c", "d", "e", "f\x00"))
        model = train(g, 2, TrainConfig(epochs=0, no_contraction=True, **TINY))
        with pytest.raises(ValueError, match=r"node token 'f\\x00' cannot be stored"):
            save_checkpoint(model, tmp_path / "m.npz")

    @pytest.mark.parametrize("no_contraction", [False, True])
    @pytest.mark.parametrize("key", ["format_version", "config_text", "layer1_w2",
                                     "selected_nodes", "node_ids"])
    def test_missing_key_named(self, tmp_path, key, no_contraction):
        lab = synth_weighted_sbm(25, 2, 0.6, 0.1, 3.0, 1.0, seed=14)
        model = train(lab.graph, 2, TrainConfig(epochs=1, importance_threshold=0.001,
                                                no_contraction=no_contraction, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            data = {k: v for k, v in z.items() if k != key}
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(ValueError, match=f"checkpoint lacks key {key}$"):
            load_checkpoint(tmp_path / "bad.npz")

    @pytest.mark.parametrize("key, value, message", [
        ("selected_nodes", lambda sel: sel[None, :],
         r"checkpoint key selected_nodes has dtype int64 and shape \(1, \d+\); "
         r"expected a 1-D integer array"),
        ("selected_nodes", lambda sel: sel.astype(float),
         r"checkpoint key selected_nodes has dtype float64 .* expected a 1-D integer array"),
        ("selected_nodes", lambda sel: sel[::-1],
         r"checkpoint key selected_nodes is not strictly increasing$"),
        ("selected_nodes", lambda sel: np.repeat(sel, 2),
         r"checkpoint key selected_nodes is not strictly increasing$"),
        ("selected_nodes", lambda sel: np.append(sel, 25),
         r"checkpoint key selected_nodes names a row outside \[0, 25\)$"),
        ("selected_nodes", lambda sel: np.insert(sel, 0, -1),
         r"checkpoint key selected_nodes names a row outside \[0, 25\)$"),
        ("cluster_count", lambda sel: np.array(1),
         r"checkpoint key cluster_count is 1; expected 2 to the \d+ rows of selected_nodes$"),
        ("cluster_count", lambda sel: np.array(sel.size + 1),
         r"checkpoint key cluster_count is \d+; expected 2 to the \d+ rows of selected_nodes$"),
    ], ids=["2-d selected", "float selected", "decreasing selected", "repeated selected",
            "selected past the rows", "negative selected", "one cluster",
            "more clusters than selected rows"])
    def test_malformed_selection_named(self, tmp_path, key, value, message):
        lab = synth_weighted_sbm(25, 2, 0.6, 0.1, 3.0, 1.0, seed=14)
        model = train(lab.graph, 2, TrainConfig(epochs=1, importance_threshold=0.03, **TINY))
        assert model.selected.size < lab.graph.n
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            data = dict(z)
        data[key] = value(data["selected_nodes"])
        np.savez(tmp_path / "bad.npz", **data)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(tmp_path / "bad.npz")

    @pytest.mark.parametrize("no_contraction", [False, True])
    def test_every_written_key_is_read(self, tmp_path, monkeypatch, no_contraction):
        lab = synth_weighted_sbm(25, 2, 0.6, 0.1, 3.0, 1.0, seed=14)
        model = train(lab.graph, 2, TrainConfig(epochs=1, importance_threshold=0.03,
                                                no_contraction=no_contraction, **TINY))
        assert (model.selected.size == lab.graph.n) == no_contraction
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            written = set(z.files)
        read = set()
        npz_getitem = np.lib.npyio.NpzFile.__getitem__

        def recording_getitem(archive, key):
            read.add(key)
            return npz_getitem(archive, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording_getitem)
        load_checkpoint(tmp_path / "m.npz")
        assert read == written

    def test_history_survives_round_trip(self, tmp_path):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=15)
        cfg = TrainConfig(epochs=3, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        save_checkpoint(model, tmp_path / "m.npz")
        loaded = load_checkpoint(tmp_path / "m.npz")
        np.testing.assert_array_equal(model.loss_history, loaded.loss_history)


class TestConfigFormat:
    def test_round_trip(self):
        cfg = TrainConfig(seed=7, epochs=12, drop_f_iz=True, core_count=9)
        text = config_to_text(cfg)
        assert parse_config_text(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("not_a_real_knob = 3\n")
        for key in ("vanilla_gat", "fcm_mode", "warm_start_fcm", "reuse_centers",
                    "persist_refined", "distance_mode", "self_loop_mode", "fcm_iters",
                    "fcm_restarts"):
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config_text(f"{key} = true\n")

    def test_contraction_fields_are_validated_by_contraction_config(self):
        from wgclust.contraction import ContractionConfig

        cfg = TrainConfig(density_weight=0.25, teleport=0.75, core_count=3,
                          importance_threshold=0.01)
        assert isinstance(cfg, ContractionConfig)
        inherited = {f.name for f in dataclasses.fields(ContractionConfig)}
        assert {name: getattr(cfg, name) for name in inherited} == dict(
            core_count=3, density_weight=0.25, teleport=0.75, importance_threshold=0.01,
        )
        for bad in ({"density_weight": 1.5}, {"teleport": 0.0}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_text_in_earlier_key_order_parses_to_same_config(self):
        # the echo order before the contraction fields moved to the base class
        text = (
            "density_weight = 0.25\nentmax_alpha = 1.7\nmodularity_weight = 0.05\n"
            "teleport = 0.75\ncore_count = 4\nimportance_threshold = 0.002\n"
            "heads = 2\nlayer_count = 2\nembed_dim = 6\n"
            "attn_dim = 5\nhidden_dim = 6\nlearning_rate = 0.01\nnegatives = 3\n"
            "epochs = 9\npatience = 4\nseed = 11\n"
            "no_contraction = false\nrandom_sampling = true\n"
            "softmax_instead_of_entmax = false\ndrop_f_iz = true\nno_weight_update = false\n"
        )
        expect = TrainConfig(
            density_weight=0.25, entmax_alpha=1.7, modularity_weight=0.05, teleport=0.75,
            core_count=4, importance_threshold=0.002, heads=2,
            layer_count=2, embed_dim=6, attn_dim=5, hidden_dim=6, learning_rate=0.01,
            negatives=3, epochs=9, patience=4, seed=11,
            random_sampling=True, drop_f_iz=True,
        )
        assert parse_config_text(text) == expect
        assert len(text.splitlines()) == len(dataclasses.fields(TrainConfig))
        assert config_to_text(expect).splitlines()[:4] == [
            "core_count = 4", "density_weight = 0.25", "teleport = 0.75",
            "importance_threshold = 0.002",
        ]

    def test_repeated_key_rejected(self):
        text = "# a comment\nepochs = 5\nheads = 2\n\nepochs = 50\n"
        with pytest.raises(ValueError, match=r"^config line 5: key 'epochs' repeats line 2$"):
            parse_config_text(text)
        assert parse_config_text(text.replace("epochs = 50", "seed = 3")).epochs == 5

    def test_random_sampling_without_contraction_rejected(self):
        # random_sampling replaces the contraction that no_contraction skips
        message = "no_contraction and random_sampling are both set"
        with pytest.raises(ValueError, match=message):
            TrainConfig(no_contraction=True, random_sampling=True)
        with pytest.raises(ValueError, match=message):
            parse_config_text("no_contraction = true\nrandom_sampling = true\n")
        with pytest.raises(ValueError, match=message):
            TrainConfig(random_sampling=True).replace(no_contraction=True)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("entmax_alpha = 0.5\n")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)

    @pytest.mark.parametrize("text, message", [
        ("core_count = abc", r"config line 1: key 'core_count': expected an integer, got 'abc'"),
        ("seed = 1\nepochs = 2.5", r"config line 2: key 'epochs': expected an integer, got '2\.5'"),
        ("# c\nteleport = half", r"config line 2: key 'teleport': expected a number, got 'half'"),
        ("drop_f_iz = maybe", r"config line 1: key 'drop_f_iz': expected a boolean, got 'maybe'"),
    ])
    def test_value_errors_name_line_and_key(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_config_text(text)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [
        f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"
    ])
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            TrainConfig(**{name: float(value)})
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            parse_config_text(f"{name} = {value}\n")
