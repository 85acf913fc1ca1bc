"""Training loop determinism, gradient correctness, inference, checkpoints."""

import dataclasses

import numpy as np
import pytest

from wgclust.config import TrainConfig, config_to_text, parse_config_text
from wgclust.graph import build_graph, synth_weighted_sbm
from wgclust.metrics import clustering_accuracy
from wgclust.trainer import (
    gradient_check,
    infer,
    load_checkpoint,
    save_checkpoint,
    train,
)

TINY = dict(heads=2, layer_count=2, embed_dim=6, attn_dim=5, hidden_dim=6,
            fcm_restarts=2, negatives=2)


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
        assert model.loss_history == []
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
        assert m1.history_array().tolist() == m2.history_array().tolist()
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

    def test_loss_history_written(self):
        lab = synth_weighted_sbm(20, 2, 0.5, 0.1, 3.0, 1.0, seed=4)
        cfg = TrainConfig(epochs=4, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        hist = model.history_array()
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
        acc, _ = clustering_accuracy(a.labels, lab.labels)
        assert acc == 1.0
        hist = model.history_array()[:, 2]
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
            acc, _ = clustering_accuracy(infer(noisy, model).labels, lab.labels)
            accs.append(acc)
        assert float(np.median(accs)) >= 0.85


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
    def test_training_structure_reused_only_for_the_same_graph(self, monkeypatch, no_contraction):
        import wgclust.trainer as trainer_module

        lab = synth_weighted_sbm(30, 2, 0.6, 0.1, 3.0, 1.0, seed=8)
        cfg = TrainConfig(epochs=3, no_contraction=no_contraction, core_count=4, **TINY)
        built = []
        build = trainer_module.build_attention_structure

        def counting_build(g, mode):
            built.append(g)
            return build(g, mode)

        monkeypatch.setattr(trainer_module, "build_attention_structure", counting_build)
        model = train(lab.graph, 2, cfg)
        a = infer(lab.graph, model)
        # training on the whole graph builds its structure once, for both
        # training and labelling; a contracted run trains on a subgraph
        assert len(built) == (1 if no_contraction else 2)
        assert built[0] is (lab.graph if no_contraction else model.selection.subgraph)
        # an equal graph in another object gets its own structure and the
        # same labels
        copy = build_graph(lab.graph.n, *lab.graph.edge_arrays())
        b = infer(copy, model)
        assert built[-1] is copy
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.memberships, b.memberships)

    def test_node_count_mismatch_rejected(self):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=9)
        cfg = TrainConfig(epochs=2, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        other = synth_weighted_sbm(21, 2, 0.6, 0.1, 3.0, 1.0, seed=9).graph
        with pytest.raises(ValueError, match="nodes"):
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
            selection=None,
        )
        ap = infer(gp, model_p)
        acc, _ = clustering_accuracy(ap.labels[perm], a.labels)
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

    def test_no_weight_update_modularity_uses_original_weights(self):
        from wgclust.attention import ModelParams, build_attention_structure, network_forward_cached
        from wgclust.fcm import fcm_fit
        from wgclust.losses import modularity
        from wgclust.trainer import _RNG_FCM, _forward_options, _rng

        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=12)
        cfg = TrainConfig(epochs=1, no_contraction=True, no_weight_update=True, seed=4, **TINY)
        model = train(lab.graph, 2, cfg)
        # replay epoch 0 from the initialized parameters and score the raw graph
        init = train(lab.graph, 2, cfg.replace(epochs=0))
        structure = build_attention_structure(lab.graph, cfg.self_loop_mode)
        h, _, _ = network_forward_cached(structure, init.params, _forward_options(cfg))
        fcm_seed = int(_rng(cfg.seed, _RNG_FCM).integers(2**31))
        labels = fcm_fit(h, 2, iters=cfg.fcm_iters, seed=fcm_seed,
                         restarts=cfg.fcm_restarts).labels
        assert model.loss_history[0].modularity_q == modularity(lab.graph, labels)

    def test_random_sampling_matches_contraction_size(self):
        lab = synth_weighted_sbm(60, 3, 0.5, 0.05, 3.0, 1.0, seed=13)
        cfg = TrainConfig(epochs=1, importance_threshold=0.02, **TINY)
        m_contract = train(lab.graph, 3, cfg)
        m_random = train(lab.graph, 3, cfg.replace(random_sampling=True))
        assert (
            m_random.selection.selected.size == m_contract.selection.selected.size
        )
        assert m_random.selection.core_nodes.size == 0


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

    @pytest.mark.parametrize(
        "key", ["layer_count", "layer0_w1", "layer1_gamma", "embedding"]
    )
    def test_checkpoint_disagreeing_with_config_rejected(self, tmp_path, key):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=16)
        model = train(lab.graph, 2, TrainConfig(epochs=1, no_contraction=True, **TINY))
        save_checkpoint(model, tmp_path / "m.npz")
        with np.load(tmp_path / "m.npz") as z:
            data = dict(z)
        # one layer fewer, or one column fewer on the last axis
        data[key] = np.array(1) if key == "layer_count" else data[key][..., :-1]
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

    def test_history_survives_round_trip(self, tmp_path):
        lab = synth_weighted_sbm(20, 2, 0.6, 0.1, 3.0, 1.0, seed=15)
        cfg = TrainConfig(epochs=3, no_contraction=True, **TINY)
        model = train(lab.graph, 2, cfg)
        save_checkpoint(model, tmp_path / "m.npz")
        loaded = load_checkpoint(tmp_path / "m.npz")
        np.testing.assert_array_equal(model.history_array(), loaded.history_array())


class TestConfigFormat:
    def test_round_trip(self):
        cfg = TrainConfig(seed=7, epochs=12, drop_f_iz=True, core_count=9)
        text = config_to_text(cfg)
        assert parse_config_text(text) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("not_a_real_knob = 3\n")
        for key in ("vanilla_gat", "fcm_mode", "warm_start_fcm", "reuse_centers",
                    "persist_refined"):
            with pytest.raises(ValueError, match=f"unknown key '{key}'"):
                parse_config_text(f"{key} = true\n")

    def test_contraction_fields_are_validated_by_contraction_config(self):
        from wgclust.contraction import ContractionConfig

        cfg = TrainConfig(density_weight=0.25, teleport=0.75, distance_mode="unit", core_count=3,
                          importance_threshold=0.01)
        assert isinstance(cfg, ContractionConfig)
        inherited = {f.name for f in dataclasses.fields(ContractionConfig)}
        assert {name: getattr(cfg, name) for name in inherited} == dict(
            core_count=3, density_weight=0.25, teleport=0.75, importance_threshold=0.01,
            distance_mode="unit",
        )
        for bad in ({"density_weight": 1.5}, {"teleport": 0.0}, {"distance_mode": "hops"}):
            with pytest.raises(ValueError):
                TrainConfig(**bad)

    def test_text_in_earlier_key_order_parses_to_same_config(self):
        # the echo order before the contraction fields moved to the base class
        text = (
            "density_weight = 0.25\nentmax_alpha = 1.7\nmodularity_weight = 0.05\n"
            "teleport = 0.75\ncore_count = 4\nimportance_threshold = 0.002\n"
            "distance_mode = unit\nheads = 2\nlayer_count = 2\nembed_dim = 6\n"
            "attn_dim = 5\nhidden_dim = 6\nlearning_rate = 0.01\nnegatives = 3\n"
            "epochs = 9\npatience = 4\nseed = 11\nfcm_iters = 12\nfcm_restarts = 2\n"
            "self_loop_mode = mean\nno_contraction = false\nrandom_sampling = true\n"
            "softmax_instead_of_entmax = false\ndrop_f_iz = true\nno_weight_update = false\n"
        )
        expect = TrainConfig(
            density_weight=0.25, entmax_alpha=1.7, modularity_weight=0.05, teleport=0.75,
            core_count=4, importance_threshold=0.002, distance_mode="unit", heads=2,
            layer_count=2, embed_dim=6, attn_dim=5, hidden_dim=6, learning_rate=0.01,
            negatives=3, epochs=9, patience=4, seed=11, fcm_iters=12, fcm_restarts=2,
            self_loop_mode="mean", random_sampling=True, drop_f_iz=True,
        )
        assert parse_config_text(text) == expect
        assert len(text.splitlines()) == len(dataclasses.fields(TrainConfig))
        assert config_to_text(expect).splitlines()[:5] == [
            "core_count = 4", "density_weight = 0.25", "teleport = 0.75",
            "importance_threshold = 0.002", "distance_mode = unit",
        ]

    def test_overrides_apply_over_base(self):
        base = TrainConfig(seed=1)
        out = parse_config_text("seed = 5\nepochs = 7\n", base=base)
        assert out.seed == 5 and out.epochs == 7

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("entmax_alpha = 0.5\n")
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
