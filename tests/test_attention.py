"""Attention layer against a straight-line re-implementation, plus gradients."""

import numpy as np
import pytest
import scipy.sparse as sp

from wgclust import attention
from wgclust.attention import (
    ForwardOptions,
    LayerParams,
    ModelParams,
    build_attention_structure,
    init_model_params,
    network_backward,
    network_forward_cached,
    _PAIR_DOT_FLOATS,
    _elu,
    _elu_grad,
    _pair_dots,
    _symmetric_logits,
)
from wgclust.entmax import (
    entmax,
    segment_entmax,
    segment_entmax_vjp,
    segment_softmax,
    segment_softmax_vjp,
    softmax,
)
from wgclust.graph import build_graph, synth_weighted_sbm


def straight_line_layer(g, h_in, params, alpha, use_factor=True, use_entmax=True,
                        self_loop_mode="max"):
    """Node-by-node re-implementation of one attention layer (loops, no reuse)."""
    n = g.n
    heads = params.heads
    d_out = params.w2.shape[2]
    per_head = np.zeros((heads, n, d_out))
    coeffs = {}
    for i in range(n):
        nbrs = g.neighbors(i)
        if nbrs:
            row_w = [w for _, w in nbrs]
            w_self = {"max": max, "min": min}.get(self_loop_mode, lambda x: sum(x) / len(x))(row_w)
        else:
            w_self = 1.0
        cand = sorted([j for j, _ in nbrs] + [i])
        wmap = dict(nbrs)
        wmap[i] = w_self
        denom = sum(w for _, w in nbrs) + w_self
        for t in range(heads):
            scores = []
            for z in cand:
                e = (params.w1[t].T @ h_in[i]) @ (params.w1[t].T @ h_in[z])
                f = wmap[z] / denom
                scores.append(e + f if use_factor else e)
            scores = np.array(scores)
            a = entmax(scores, alpha).p if use_entmax else softmax(scores)
            for z, av in zip(cand, a):
                coeffs[(t, i, z)] = av
            agg = np.zeros(d_out)
            for z, av in zip(cand, a):
                agg += av * (params.w2[t].T @ h_in[z])
            per_head[t, i] = np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0)))
    out = np.zeros((n, h_in.shape[1] if False else d_out))
    for t in range(heads):
        out += params.gamma[t] * per_head[t]
    return out, coeffs


def per_node_factors(g, i, mode="max"):
    """Node-by-node reference for f_iz, keyed by candidate id (including i)."""
    nbrs = g.neighbors(i)
    if not nbrs:
        return {i: 1.0}
    row_w = [w for _, w in nbrs]
    w_self = {"max": max(row_w), "mean": sum(row_w) / len(row_w), "min": min(row_w)}[mode]
    denom = sum(row_w) + w_self
    out = {z: w / denom for z, w in nbrs}
    out[i] = w_self / denom
    return out


def structure_factors(g, i, mode="max"):
    """f_iz of node i as build_attention_structure stores them, keyed by candidate id."""
    s = build_attention_structure(g, mode)
    lo, hi = s.indptr[i], s.indptr[i + 1]
    return {int(z): float(f) for z, f in zip(s.dst[lo:hi], s.factors[lo:hi])}


def run_network(g, model, alpha, self_loop_mode="max", opts=None):
    """All layers over a graph; returns (H_final, AttentionRecord)."""
    structure = build_attention_structure(g, self_loop_mode)
    h, record, _ = network_forward_cached(structure, model, opts or ForwardOptions(alpha=alpha))
    return h, record


def run_layer(g, h_in, params, alpha, self_loop_mode="max"):
    """One layer over a graph; returns (h_out, AttentionRecord)."""
    model = ModelParams(embedding=np.asarray(h_in, dtype=np.float64), layers=[params])
    return run_network(g, model, alpha, self_loop_mode)


def with_isolated_node(g):
    """The same edges plus one node (the last id) without edges."""
    u, v, w = g.edge_arrays()
    return build_graph(g.n + 1, u, v, w)


# Per-head reference of the layer: one chunked dot, one n x n sparse product
# per head and aggregation. The head-batched layer must equal it bit for bit.

REF_CHUNK = 1024


def ref_pair_dots(a_rows, b_rows, src, dst):
    out = np.empty(src.size)
    for lo in range(0, src.size, REF_CHUNK):
        hi = lo + REF_CHUNK
        out[lo:hi] = np.einsum("me,me->m", a_rows[src[lo:hi]], b_rows[dst[lo:hi]])
    return out


def ref_symmetric_logits(s, proj_attn):
    upper = np.flatnonzero(s.src <= s.dst)
    lower = np.flatnonzero(s.src > s.dst)
    logits = np.empty((s.src.size, proj_attn.shape[0]))
    for t in range(proj_attn.shape[0]):
        logits[upper, t] = ref_pair_dots(proj_attn[t], proj_attn[t], s.src[upper], s.dst[upper])
    logits[lower] = logits[s.rev[lower]]
    return logits


def ref_row_aggregate(s, values, dense):
    n = s.indptr.size - 1
    return sp.csr_matrix((values, s.dst, s.indptr), shape=(n, n)) @ dense


def ref_col_aggregate(s, values, dense):
    return ref_row_aggregate(s, values[s.rev], dense)


def ref_network(s, model, opts, d_h_final, d_final_coeffs=None):
    """Forward and backward of every layer, head by head; returns (h, coefficients, grads)."""
    h = model.embedding
    caches = []
    for params in model.layers:
        proj_attn = np.einsum("nd,hde->hne", h, params.w1)
        proj_val = np.einsum("nd,hde->hne", h, params.w2)
        logits = ref_symmetric_logits(s, proj_attn)
        if opts.use_weight_factor:
            logits += s.factors[:, None]
        if opts.normalizer == "entmax":
            coeffs = segment_entmax(logits, s.indptr, opts.alpha)
        else:
            coeffs = segment_softmax(logits, s.indptr)
        pre_act = np.empty((params.heads, h.shape[0], params.w2.shape[2]))
        for t in range(params.heads):
            pre_act[t] = ref_row_aggregate(s, coeffs[:, t], proj_val[t])
        caches.append((h, proj_attn, proj_val, coeffs, pre_act, _elu(pre_act)))
        h = np.einsum("h,hne->ne", params.gamma, _elu(pre_act))
    layer_grads = [None] * len(model.layers)
    d_out = d_h_final
    for li in range(len(model.layers) - 1, -1, -1):
        params = model.layers[li]
        h_in, proj_attn, proj_val, coeffs, pre_act, head_out = caches[li]
        d_gamma = np.einsum("ne,hne->h", d_out, head_out)
        d_pre = params.gamma[:, None, None] * d_out[None] * _elu_grad(pre_act)
        d_coeffs = np.empty_like(coeffs)
        d_h_in = np.zeros_like(h_in)
        d_w2 = np.empty_like(params.w2)
        for t in range(params.heads):
            d_coeffs[:, t] = ref_pair_dots(d_pre[t], proj_val[t], s.src, s.dst)
            d_val_t = ref_col_aggregate(s, coeffs[:, t], d_pre[t])
            d_w2[t] = h_in.T @ d_val_t
            d_h_in += d_val_t @ params.w2[t].T
        if d_final_coeffs is not None and li == len(model.layers) - 1:
            d_coeffs = d_coeffs + d_final_coeffs
        if opts.normalizer == "entmax":
            d_logits = segment_entmax_vjp(coeffs, s.indptr, opts.alpha, d_coeffs)
        else:
            d_logits = segment_softmax_vjp(coeffs, s.indptr, d_coeffs)
        d_w1 = np.empty_like(params.w1)
        for t in range(params.heads):
            d_proj = ref_row_aggregate(s, d_logits[:, t], proj_attn[t])
            d_proj += ref_col_aggregate(s, d_logits[:, t], proj_attn[t])
            d_w1[t] = h_in.T @ d_proj
            d_h_in += d_proj @ params.w1[t].T
        layer_grads[li] = LayerParams(w1=d_w1, w2=d_w2, gamma=d_gamma)
        d_out = d_h_in
    grads = ModelParams(embedding=d_out, layers=layer_grads)
    return h, [c[3] for c in caches], grads


def tiny_graph():
    return build_graph(4, [0, 0, 1, 2], [1, 2, 2, 3], [2.0, 1.0, 3.0, 0.5])


class TestEdgeWeightFactor:
    def test_max_self_loop(self):
        g = build_graph(3, [0, 0], [1, 2], [2.0, 6.0])
        f = structure_factors(g, 0, mode="max")
        assert f[1] == pytest.approx(2 / 14)
        assert f[2] == pytest.approx(6 / 14)
        assert f[0] == pytest.approx(6 / 14)
        assert sum(f.values()) == pytest.approx(1.0)

    def test_single_neighbor_splits_evenly(self):
        g = build_graph(2, [0], [1], [3.5])
        f = structure_factors(g, 0)
        assert f[0] == pytest.approx(0.5) and f[1] == pytest.approx(0.5)

    def test_isolated_node(self):
        g = build_graph(3, [0], [1], [1.0])
        f = structure_factors(g, 2)
        assert f == {2: 1.0}

    def test_mean_and_min_modes(self):
        g = build_graph(3, [0, 0], [1, 2], [2.0, 6.0])
        assert structure_factors(g, 0, mode="mean")[0] == pytest.approx(4 / 12)
        assert structure_factors(g, 0, mode="min")[0] == pytest.approx(2 / 10)

    def test_structure_factors_match_per_node_api(self):
        lab = synth_weighted_sbm(15, 2, 0.5, 0.2, 3.0, 1.0, seed=0)
        g = lab.graph
        s = build_attention_structure(g, "max")
        for e in range(s.src.size):
            i, z = int(s.src[e]), int(s.dst[e])
            assert s.factors[e] == pytest.approx(per_node_factors(g, i)[z], abs=1e-14)

    @pytest.mark.parametrize("mode", ["max", "mean", "min"])
    def test_structure_matches_per_node_loop(self, mode):
        sbm = synth_weighted_sbm(40, 2, 0.3, 0.05, 3.0, 1.0, seed=4).graph
        graphs = [
            with_isolated_node(sbm),
            build_graph(5, [1, 1, 2], [2, 4, 4], [1.5, 0.5, 2.0]),  # nodes 0 and 3 isolated
            build_graph(3, [], [], []),
        ]
        for g in graphs:
            s = build_attention_structure(g, mode)
            deg = np.diff(g.indptr)
            np.testing.assert_array_equal(s.indptr, np.concatenate([[0], np.cumsum(deg + 1)]))
            # mean sums a row in another order than the reference: each side is
            # within (deg - 1) eps of the exact sum, relative
            rtol = 2 * deg.max(initial=1) * np.finfo(float).eps if mode == "mean" else 0.0
            for i in range(g.n):
                ref = per_node_factors(g, i, mode)
                lo, hi = s.indptr[i], s.indptr[i + 1]
                cand = sorted(ref)
                np.testing.assert_array_equal(s.src[lo:hi], i)
                np.testing.assert_array_equal(s.dst[lo:hi], cand)
                np.testing.assert_array_equal(s.src[lo:hi] == s.dst[lo:hi], np.array(cand) == i)
                expect = np.array([ref[z] for z in cand])
                if rtol == 0.0:
                    np.testing.assert_array_equal(s.factors[lo:hi], expect)
                else:
                    np.testing.assert_allclose(s.factors[lo:hi], expect, rtol=rtol, atol=0)
            np.testing.assert_array_equal(s.src[s.rev], s.dst)
            np.testing.assert_array_equal(s.dst[s.rev], s.src)
            np.testing.assert_array_equal(s.edge_pos, np.flatnonzero(s.src != s.dst))
            np.testing.assert_array_equal(s.dst[s.edge_pos], g.indices)


class TestHeadBatchedLayer:
    """The head-batched layer against the per-head reference: equal bit for bit."""

    @staticmethod
    def graphs():
        sbm = synth_weighted_sbm(100, 2, 0.5, 0.1, 3.0, 1.0, seed=14).graph
        return {
            "sbm+isolated": with_isolated_node(sbm),
            "tiny": tiny_graph(),
            "edgeless": build_graph(4, [], [], []),
        }

    def test_mirror_pairs_every_entry_with_its_reverse(self):
        for g in self.graphs().values():
            s = build_attention_structure(g)
            upper = s.src <= s.dst
            np.testing.assert_array_equal(s.pair_src, s.src[upper])
            np.testing.assert_array_equal(s.pair_dst, s.dst[upper])
            lo = np.minimum(s.src, s.dst)
            hi = np.maximum(s.src, s.dst)
            np.testing.assert_array_equal(s.pair_src[s.mirror], lo)
            np.testing.assert_array_equal(s.pair_dst[s.mirror], hi)

    def test_head_pattern_built_once_per_head_count(self):
        s = build_attention_structure(tiny_graph())
        indptr, indices = s.head_pattern(3)
        assert s.head_pattern(3)[1] is indices
        assert indices.dtype == np.int32 and indptr.dtype == np.int32
        n, e = s.indptr.size - 1, s.src.size
        for t in range(3):
            np.testing.assert_array_equal(indices[t * e:(t + 1) * e], s.dst + t * n)
            np.testing.assert_array_equal(indptr[t * n:(t + 1) * n], s.indptr[:-1] + t * e)
        assert indptr[-1] == 3 * e

    @pytest.mark.parametrize("heads", [1, 3, 4])
    @pytest.mark.parametrize("normalizer", ["entmax", "softmax"])
    @pytest.mark.parametrize("use_weight_factor", [True, False])
    @pytest.mark.parametrize("block_floats", [_PAIR_DOT_FLOATS, 96])
    def test_forward_and_gradients_equal_per_head_reference(
        self, monkeypatch, heads, normalizer, use_weight_factor, block_floats
    ):
        # 96 floats per operand puts every dot of every graph into many blocks
        monkeypatch.setattr(attention, "_PAIR_DOT_FLOATS", block_floats)
        opts = ForwardOptions(
            alpha=1.55, normalizer=normalizer, use_weight_factor=use_weight_factor
        )
        for name, g in self.graphs().items():
            s = build_attention_structure(g)
            rng = np.random.default_rng(16 + heads)
            model = init_model_params(g.n, [6, 5, 4], attn_dim=7, heads=heads, rng=rng)
            model.embedding *= 20.0  # spread the logits so that entmax leaves exact zeros
            d_h = rng.normal(size=(g.n, 4))
            d_final = rng.normal(size=(s.src.size, heads))
            h, record, caches = network_forward_cached(s, model, opts)
            grads = network_backward(s, model, opts, caches, d_h, d_final)
            ref_h, ref_coeffs, ref_grads = ref_network(s, model, opts, d_h, d_final)
            assert np.array_equal(h, ref_h), name
            for got, want in zip(record.coefficients, ref_coeffs):
                assert np.array_equal(got, want), name
            for got, want in zip(grads.flat_arrays(), ref_grads.flat_arrays()):
                assert np.array_equal(got, want), name

    def test_reference_inputs_have_exact_zeros_and_several_blocks(self):
        g = self.graphs()["sbm+isolated"]
        s = build_attention_structure(g)
        assert s.pair_src.size > 2 * (96 // (4 * 7))
        assert s.src.size > 2 * (96 // 5)
        model = init_model_params(g.n, [6, 5, 4], attn_dim=7, heads=4,
                                  rng=np.random.default_rng(20))
        model.embedding *= 20.0
        _, record, _ = network_forward_cached(s, model, ForwardOptions(alpha=1.55))
        assert all((c == 0.0).any() for c in record.coefficients)


class TestLayerForward:
    def test_chunked_and_mirrored_dots_equal_full_gather(self):
        g = with_isolated_node(synth_weighted_sbm(100, 2, 0.5, 0.1, 3.0, 1.0, seed=14).graph)
        s = build_attention_structure(g)
        assert s.pair_src.size > 2 * (_PAIR_DOT_FLOATS // (3 * 40))
        assert s.src.size > 2 * (_PAIR_DOT_FLOATS // 40)
        rng = np.random.default_rng(15)
        proj = rng.normal(size=(3, g.n, 40))
        other = rng.normal(size=(g.n, 40))
        full = np.stack(
            [np.einsum("me,me->m", proj[t][s.src], proj[t][s.dst]) for t in range(3)], axis=1
        )
        assert np.array_equal(_symmetric_logits(s, proj), full)
        assert np.array_equal(
            _pair_dots(proj[0][:, None], other[:, None], s.src, s.dst)[:, 0],
            np.einsum("me,me->m", proj[0][s.src], other[s.dst]),
        )


    def test_identical_features_one_edge_split_evenly(self):
        g = build_graph(2, [0], [1], [1.0])
        h = np.array([[0.3, -0.2], [0.3, -0.2]])
        rng = np.random.default_rng(0)
        params = LayerParams(
            w1=rng.normal(size=(1, 2, 2)), w2=rng.normal(size=(1, 2, 2)), gamma=np.array([1.0])
        )
        _, record = run_layer(g, h, params, alpha=1.55)
        assert record.coefficient(0, 0, 0, 0) == pytest.approx(0.5, abs=1e-9)
        assert record.coefficient(0, 0, 0, 1) == pytest.approx(0.5, abs=1e-9)

    def test_single_head_gamma_identity(self):
        g = tiny_graph()
        rng = np.random.default_rng(1)
        h = rng.normal(size=(4, 3))
        params = LayerParams(
            w1=rng.normal(size=(1, 3, 3)), w2=rng.normal(size=(1, 3, 3)), gamma=np.array([1.0])
        )
        out, _ = run_layer(g, h, params, alpha=1.55)
        oracle, _ = straight_line_layer(g, h, params, 1.55)
        np.testing.assert_allclose(out, oracle, atol=1e-10)

    def test_multi_head_matches_straight_line(self):
        g = tiny_graph()
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4, 3)) * 0.5
        params = LayerParams(
            w1=rng.normal(size=(3, 3, 2)) * 0.7,
            w2=rng.normal(size=(3, 3, 4)) * 0.7,
            gamma=rng.normal(size=3),
        )
        out, record = run_layer(g, h, params, alpha=1.55)
        oracle, coeffs = straight_line_layer(g, h, params, 1.55)
        np.testing.assert_allclose(out, oracle, atol=1e-10)
        for (t, i, z), a in coeffs.items():
            assert record.coefficient(0, t, i, z) == pytest.approx(a, abs=1e-10)

    def test_attention_rows_sum_to_one(self):
        lab = synth_weighted_sbm(25, 2, 0.4, 0.1, 3.0, 1.0, seed=3)
        g = lab.graph
        rng = np.random.default_rng(4)
        model = init_model_params(g.n, [8, 8, 8], attn_dim=8, heads=2, rng=rng)
        _, record = run_network(g, model, alpha=1.55)
        s = record.structure
        for layer in range(2):
            for head in range(2):
                sums = np.add.reduceat(record.coefficients[layer][:, head], s.indptr[:-1])
                np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_raising_non_max_weight_never_lowers_its_coefficient(self):
        g = build_graph(3, [0, 0], [1, 2], [2.0, 6.0])
        h = np.full((3, 2), 0.1)
        rng = np.random.default_rng(5)
        params = LayerParams(
            w1=rng.normal(size=(1, 2, 2)) * 0.1,
            w2=rng.normal(size=(1, 2, 2)),
            gamma=np.array([1.0]),
        )
        _, rec_before = run_layer(g, h, params, alpha=1.55)
        bumped = build_graph(3, [0, 0], [1, 2], [3.0, 6.0])  # raise the non-max edge 0-1
        _, rec_after = run_layer(bumped, h, params, alpha=1.55)
        assert rec_after.coefficient(0, 0, 0, 1) >= rec_before.coefficient(0, 0, 0, 1) - 1e-12


class TestNetworkForward:
    def test_single_layer_reduces_to_layer_forward(self):
        g = tiny_graph()
        rng = np.random.default_rng(6)
        model = init_model_params(g.n, [3, 5], attn_dim=5, heads=2, rng=rng)
        h_net, _ = run_network(g, model, alpha=1.55)
        h_layer, _ = run_layer(g, model.embedding, model.layers[0], alpha=1.55)
        np.testing.assert_allclose(h_net, h_layer, atol=1e-12)
        oracle, _ = straight_line_layer(g, model.embedding, model.layers[0], 1.55)
        np.testing.assert_allclose(h_net, oracle, atol=1e-10)

    def test_permutation_equivariance(self):
        lab = synth_weighted_sbm(12, 2, 0.6, 0.2, 3.0, 1.0, seed=7)
        g = lab.graph
        rng = np.random.default_rng(8)
        model = init_model_params(g.n, [6, 6], attn_dim=6, heads=2, rng=rng)
        h, _ = run_network(g, model, alpha=1.55)
        perm = np.random.default_rng(9).permutation(g.n)
        u, v, w = g.edge_arrays()
        gp = build_graph(g.n, perm[u], perm[v], w)
        model_p = ModelParams(
            embedding=np.empty_like(model.embedding), layers=model.layers
        )
        model_p.embedding[perm] = model.embedding
        hp, _ = run_network(gp, model_p, alpha=1.55)
        np.testing.assert_allclose(hp[perm], h, atol=1e-9)

    def test_vanilla_variant_matches_plain_gat_oracle(self):
        g = tiny_graph()
        rng = np.random.default_rng(10)
        model = init_model_params(g.n, [3, 4], attn_dim=4, heads=2, rng=rng)
        opts = ForwardOptions(alpha=1.55, normalizer="softmax", use_weight_factor=False)
        h, _ = run_network(g, model, alpha=1.55, opts=opts)
        oracle, _ = straight_line_layer(
            g, model.embedding, model.layers[0], alpha=1.55, use_factor=False, use_entmax=False
        )
        np.testing.assert_allclose(h, oracle, atol=1e-10)

    def test_non_finite_activation_raises(self):
        g = build_graph(2, [0], [1], [1.0])
        model = init_model_params(2, [2, 2], attn_dim=2, heads=1, rng=np.random.default_rng(11))
        model.embedding[0, 0] = 1e200
        model.embedding[1, 0] = 1e200
        with pytest.raises(FloatingPointError, match="node"):
            run_network(g, model, alpha=2.0)


class TestLayerGradients:
    def test_parameter_gradients_match_finite_differences(self):
        lab = synth_weighted_sbm(5, 2, 0.9, 0.5, 2.0, 1.0, seed=12)
        g = lab.graph
        rng = np.random.default_rng(13)
        model = init_model_params(g.n, [3, 4, 3], attn_dim=3, heads=2, rng=rng)
        structure = build_attention_structure(g, "max")
        opts = ForwardOptions(alpha=1.55)
        target = rng.normal(size=(g.n, 3))

        def loss_of(m):
            h, _, _ = network_forward_cached(structure, m, opts)
            return 0.5 * float(((h - target) ** 2).sum())

        h, _, caches = network_forward_cached(structure, model, opts)
        grads = network_backward(structure, model, opts, caches, h - target)
        step = 1e-5
        probe = model.copy()
        worst = 0.0
        # coordinates far below the gradient scale sit at the finite-difference
        # noise floor (the entmax threshold is solved to 1e-10), so they are
        # measured against 1% of the dominant magnitude instead
        scale = max(float(np.abs(a).max()) for a in grads.flat_arrays())
        for arr, g_arr in zip(probe.flat_arrays(), grads.flat_arrays()):
            flat, gflat = arr.reshape(-1), g_arr.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + step
                up = loss_of(probe)
                flat[idx] = keep - step
                down = loss_of(probe)
                flat[idx] = keep
                fd = (up - down) / (2 * step)
                rel = abs(gflat[idx] - fd) / max(abs(gflat[idx]) + abs(fd), 1e-2 * scale, 1e-8)
                worst = max(worst, rel)
        assert worst < 1e-4
