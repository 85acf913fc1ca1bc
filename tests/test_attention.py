"""Attention layer against a straight-line re-implementation, plus gradients."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

import wgclust.entmax as entmax_module
from wgclust import attention
from wgclust.attention import (
    LayerParams,
    ModelParams,
    build_attention_structure,
    init_model_params,
    network_backward,
    network_forward,
    network_forward_cached,
    _PAIR_DOT_FLOATS,
    _elu,
    _elu_grad,
    _pair_dots,
    _symmetric_logits,
)
from wgclust.entmax import (
    segment_entmax,
    segment_entmax_vjp,
    segment_softmax,
    segment_softmax_vjp,
)
from wgclust.config import TrainConfig
from wgclust.graph import build_graph, synth_weighted_sbm

from graph_helpers import neighbors
from numeric_helpers import copy_params, entmax, softmax


def straight_line_layer(g, h_in, params, alpha, use_factor=True, use_entmax=True):
    """Node-by-node re-implementation of one attention layer (loops, no reuse)."""
    n = g.n
    heads = params.heads
    d_out = params.w2.shape[2]
    per_head = np.zeros((heads, n, d_out))
    coeffs = {}
    for i in range(n):
        nbrs = neighbors(g, i)
        w_self = max(w for _, w in nbrs) if nbrs else 1.0
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
            a = entmax(scores, alpha) if use_entmax else softmax(scores)
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


def per_node_factors(g, i):
    """Node-by-node reference for f_iz, keyed by candidate id (including i)."""
    nbrs = neighbors(g, i)
    if not nbrs:
        return {i: 1.0}
    row_w = [w for _, w in nbrs]
    w_self = max(row_w)
    denom = sum(row_w) + w_self
    out = {z: w / denom for z, w in nbrs}
    out[i] = w_self / denom
    return out


def structure_factors(g, i):
    """f_iz of node i as build_attention_structure stores them, keyed by candidate id."""
    s = build_attention_structure(g, TrainConfig())
    lo, hi = s.indptr[i], s.indptr[i + 1]
    return {int(z): float(f) for z, f in zip(s.dst[lo:hi], s.factors[lo:hi])}


def run_network(g, model, alpha, config=None):
    """All layers over a graph; returns (H_final, AttentionRecord)."""
    config = config or TrainConfig(entmax_alpha=alpha)
    config = config.replace(heads=model.layers[0].heads)
    structure = build_attention_structure(g, config)
    return network_forward_cached(structure, model, config)


def run_layer(g, h_in, params, alpha):
    """One layer over a graph; returns (h_out, AttentionRecord)."""
    model = ModelParams(embedding=np.asarray(h_in, dtype=np.float64), layers=[params])
    return run_network(g, model, alpha)


def coefficient(record, layer, head, i, z):
    """Coefficient of candidate z in node i's row, read from the CSR-ordered entry arrays."""
    s = record.structure
    lo, hi = s.indptr[i], s.indptr[i + 1]
    k = np.searchsorted(s.dst[lo:hi], z)
    if k >= hi - lo or s.dst[lo + k] != z:
        raise KeyError(f"{z} is not a candidate of node {i}")
    return float(record.layers[layer].coeffs.T[lo + k, head])


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


def ref_network(s, model, config, d_h_final, d_final_coeffs=None):
    """Forward and backward of every layer, head by head; returns (h, coefficients, grads)."""
    h = model.embedding
    caches = []
    for params in model.layers:
        proj_attn = np.einsum("nd,hde->hne", h, params.w1)
        proj_val = np.einsum("nd,hde->hne", h, params.w2)
        logits = ref_symmetric_logits(s, proj_attn)
        if not config.drop_f_iz:
            logits += s.factors[:, None]
        if config.softmax_instead_of_entmax:
            coeffs = segment_softmax(logits, s.indptr)
        else:
            coeffs = segment_entmax(logits, s.indptr, config.entmax_alpha)
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
        if config.softmax_instead_of_entmax:
            d_logits = segment_softmax_vjp(coeffs, s.indptr, d_coeffs)
        else:
            d_logits = segment_entmax_vjp(coeffs, s.indptr, config.entmax_alpha, d_coeffs)
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
        f = structure_factors(g, 0)
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

    def test_structure_factors_match_per_node_api(self):
        lab = synth_weighted_sbm(15, 2, 0.5, 0.2, 3.0, 1.0, seed=0)
        g = lab.graph
        s = build_attention_structure(g, TrainConfig())
        for e in range(s.src.size):
            i, z = int(s.src[e]), int(s.dst[e])
            assert s.factors[e] == pytest.approx(per_node_factors(g, i)[z], abs=1e-14)

    def test_structure_matches_per_node_loop(self):
        sbm = synth_weighted_sbm(40, 2, 0.3, 0.05, 3.0, 1.0, seed=4).graph
        graphs = [
            with_isolated_node(sbm),
            build_graph(5, [1, 1, 2], [2, 4, 4], [1.5, 0.5, 2.0]),  # nodes 0 and 3 isolated
            build_graph(3, [], [], []),
        ]
        for g in graphs:
            s = build_attention_structure(g, TrainConfig())
            deg = np.diff(g.indptr)
            np.testing.assert_array_equal(s.indptr, np.concatenate([[0], np.cumsum(deg + 1)]))
            for i in range(g.n):
                ref = per_node_factors(g, i)
                lo, hi = s.indptr[i], s.indptr[i + 1]
                cand = sorted(ref)
                np.testing.assert_array_equal(s.src[lo:hi], i)
                np.testing.assert_array_equal(s.dst[lo:hi], cand)
                np.testing.assert_array_equal(s.src[lo:hi] == s.dst[lo:hi], np.array(cand) == i)
                np.testing.assert_array_equal(s.factors[lo:hi], [ref[z] for z in cand])
            np.testing.assert_array_equal(s.src[s.rev], s.dst)
            np.testing.assert_array_equal(s.dst[s.rev], s.src)
            np.testing.assert_array_equal(s.edge_pos, np.flatnonzero(s.src != s.dst))
            np.testing.assert_array_equal(s.dst[s.edge_pos], g.indices)


@st.composite
def random_graphs(draw):
    """A graph of up to 40 nodes, isolated nodes and repeated pairs allowed."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                          .filter(lambda pair: pair[0] != pair[1]), max_size=120))
    u, v = (np.array([pair[k] for pair in pairs], dtype=np.int64) for k in (0, 1))
    return build_graph(n, u, v, np.ones(len(pairs)))


@given(g=random_graphs())
def test_reverse_entry_is_the_lexsort_order(g):
    s = build_attention_structure(g, TrainConfig())
    np.testing.assert_array_equal(s.rev, np.lexsort((s.src, s.dst)))


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
            s = build_attention_structure(g, TrainConfig())
            upper = s.src <= s.dst
            np.testing.assert_array_equal(s.pair_src, s.src[upper])
            np.testing.assert_array_equal(s.pair_dst, s.dst[upper])
            lo = np.minimum(s.src, s.dst)
            hi = np.maximum(s.src, s.dst)
            np.testing.assert_array_equal(s.pair_src[s.mirror], lo)
            np.testing.assert_array_equal(s.pair_dst[s.mirror], hi)

    def test_entry_index_arrays_are_int32(self):
        s = build_attention_structure(self.graphs()["sbm+isolated"], TrainConfig())
        for name in ("src", "dst", "rev", "edge_pos", "pair_src", "pair_dst", "mirror"):
            assert getattr(s, name).dtype == np.int32, name

    def test_head_pattern_built_once_per_head_count(self):
        s = build_attention_structure(tiny_graph(), TrainConfig(heads=3))
        indptr, indices = s.head_indptr, s.head_indices
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
        config = TrainConfig(
            entmax_alpha=1.55,
            heads=heads,
            softmax_instead_of_entmax=normalizer == "softmax",
            drop_f_iz=not use_weight_factor,
        )
        for name, g in self.graphs().items():
            s = build_attention_structure(g, config)
            rng = np.random.default_rng(16 + heads)
            model = init_model_params(g.n, [6, 5, 4], attn_dim=7, heads=heads, rng=rng)
            model.embedding *= 20.0  # spread the logits so that entmax leaves exact zeros
            d_h = rng.normal(size=(g.n, 4))
            d_edge = rng.normal(size=g.indices.size)
            # the reverse of the edge attention: half to each entry's head
            # average, spread evenly over the heads
            d_avg = np.zeros(s.src.size)
            d_avg[s.edge_pos] = d_edge * 0.5
            d_final = (d_avg / heads)[:, None]
            h, record = network_forward_cached(s, model, config)
            ref_h, ref_coeffs, ref_grads = ref_network(s, model, config, d_h, d_final)
            assert np.array_equal(h, ref_h), name
            # the backward consumes the record, so its coefficients are read first
            assert len(record.layers) == len(ref_coeffs), name
            for got, want in zip(record.layers, ref_coeffs):
                assert np.array_equal(got.coeffs.T, want), name
            grads = network_backward(record, model, config, d_h, d_edge)
            assert record.layers == [], name
            for got, want in zip(grads.flat_arrays(), ref_grads.flat_arrays()):
                assert np.array_equal(got, want), name
            plain_h, final_avg = network_forward(s, model, config)
            assert np.array_equal(plain_h, ref_h), name
            assert np.array_equal(final_avg, ref_coeffs[-1].mean(axis=1)), name

    def test_reference_inputs_have_exact_zeros_and_several_blocks(self):
        g = self.graphs()["sbm+isolated"]
        config = TrainConfig(entmax_alpha=1.55, heads=4)
        s = build_attention_structure(g, config)
        assert s.pair_src.size > 2 * (96 // (4 * 7))
        assert s.src.size > 2 * (96 // 5)
        model = init_model_params(g.n, [6, 5, 4], attn_dim=7, heads=4,
                                  rng=np.random.default_rng(20))
        model.embedding *= 20.0
        _, record = network_forward_cached(s, model, config)
        assert all((layer.coeffs == 0.0).any() for layer in record.layers)


class TestLayerForward:
    def test_chunked_and_mirrored_dots_equal_full_gather(self):
        g = with_isolated_node(synth_weighted_sbm(100, 2, 0.5, 0.1, 3.0, 1.0, seed=14).graph)
        s = build_attention_structure(g, TrainConfig(heads=3))
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
        assert coefficient(record, 0, 0, 0, 0) == pytest.approx(0.5, abs=1e-9)
        assert coefficient(record, 0, 0, 0, 1) == pytest.approx(0.5, abs=1e-9)

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
            assert coefficient(record, 0, t, i, z) == pytest.approx(a, abs=1e-10)

    def test_attention_rows_sum_to_one(self):
        lab = synth_weighted_sbm(25, 2, 0.4, 0.1, 3.0, 1.0, seed=3)
        g = lab.graph
        rng = np.random.default_rng(4)
        model = init_model_params(g.n, [8, 8, 8], attn_dim=8, heads=2, rng=rng)
        _, record = run_network(g, model, alpha=1.55)
        s = record.structure
        for layer in range(2):
            for head in range(2):
                sums = np.add.reduceat(record.layers[layer].coeffs.T[:, head], s.indptr[:-1])
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
        assert coefficient(rec_after, 0, 0, 0, 1) >= coefficient(rec_before, 0, 0, 0, 1) - 1e-12


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
        config = TrainConfig(entmax_alpha=1.55, softmax_instead_of_entmax=True, drop_f_iz=True)
        h, _ = run_network(g, model, alpha=1.55, config=config)
        oracle, _ = straight_line_layer(
            g, model.embedding, model.layers[0], alpha=1.55, use_factor=False, use_entmax=False
        )
        np.testing.assert_allclose(h, oracle, atol=1e-10)

    def test_forward_without_backward_state_peaks_below_the_cached_one(self):
        g = synth_weighted_sbm(200, 2, 0.3, 0.05, 3.0, 1.0, seed=22).graph
        config = TrainConfig(entmax_alpha=1.55, heads=4)
        s = build_attention_structure(g, config)  # outside both measurements
        model = init_model_params(g.n, [8, 8, 8, 8], attn_dim=8, heads=4,
                                  rng=np.random.default_rng(23))

        def traced_peak(forward):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                forward(s, model, config)
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        plain, cached = traced_peak(network_forward), traced_peak(network_forward_cached)
        assert plain < cached, (plain, cached)

    @pytest.mark.parametrize("forward", [network_forward, network_forward_cached])
    def test_layer_with_another_head_count_than_the_structure_rejected(self, forward):
        g = tiny_graph()
        rng = np.random.default_rng(28)
        model = init_model_params(g.n, [3, 4, 4], attn_dim=3, heads=2, rng=rng)
        model.layers[1] = init_model_params(g.n, [4, 4], attn_dim=3, heads=3, rng=rng).layers[0]
        config = TrainConfig(heads=2)
        s = build_attention_structure(g, config)
        with pytest.raises(ValueError, match=r"^layer 1 has 3 heads but the attention structure "
                                             r"was built for 2$"):
            forward(s, model, config)

    def test_non_finite_activation_raises(self):
        g = build_graph(2, [0], [1], [1.0])
        model = init_model_params(2, [2, 2], attn_dim=2, heads=1, rng=np.random.default_rng(11))
        model.embedding[0, 0] = 1e200
        model.embedding[1, 0] = 1e200
        with pytest.raises(FloatingPointError, match="node"):
            run_network(g, model, alpha=2.0)


def worst_fd_error(model, loss_of, grads, step=1e-5):
    """Worst relative error of ``grads`` against central differences of ``loss_of``.

    Coordinates far below the gradient scale sit at the finite-difference
    noise floor (the entmax threshold is solved to 1e-10), so they are
    measured against 1% of the dominant magnitude instead.
    """
    probe = copy_params(model)
    worst = 0.0
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
    return worst


class TestEdgeAttention:
    def test_edge_attention_is_the_symmetrised_head_average(self):
        g = tiny_graph()
        model = init_model_params(g.n, [3, 4, 3], attn_dim=3, heads=3,
                                  rng=np.random.default_rng(24))
        _, record = run_network(g, model, alpha=1.55)
        s = record.structure
        avg = record.layers[-1].coeffs.T.mean(axis=1)
        assert (avg != avg[s.rev]).any()  # the two directions of some edge differ
        at = {(int(i), int(z)): e for e, (i, z) in enumerate(zip(s.src, s.dst))}
        want = [0.5 * (avg[at[i, j]] + avg[at[j, i]])
                for i in range(g.n) for j, _ in neighbors(g, i)]
        assert np.array_equal(record.edge_attention(), np.array(want))

    def test_backward_of_the_edge_attention_matches_finite_differences(self):
        g = synth_weighted_sbm(5, 2, 0.9, 0.5, 2.0, 1.0, seed=12).graph
        rng = np.random.default_rng(25)
        model = init_model_params(g.n, [3, 4, 3], attn_dim=3, heads=2, rng=rng)
        config = TrainConfig(entmax_alpha=1.55, heads=2)
        structure = build_attention_structure(g, config)
        src = g.directed_src()
        table = rng.normal(size=(g.n, g.n))
        per_edge = table[np.minimum(src, g.indices), np.maximum(src, g.indices)]

        def loss_of(m):
            # sum over undirected edges of c_e * attention_e; each sits on two entries
            edge_attention = network_forward_cached(structure, m, config)[1].edge_attention()
            return 0.5 * float((per_edge * edge_attention).sum())

        h, record = network_forward_cached(structure, model, config)
        grads = network_backward(record, model, config, np.zeros_like(h), per_edge)
        assert worst_fd_error(model, loss_of, grads) < 1e-4


class TestLayerGradients:
    @pytest.mark.parametrize("normalizer", ["entmax", "softmax"])
    def test_backward_works_in_one_entry_buffer(self, monkeypatch, normalizer):
        # a dense graph, so one (heads, entries) array is 30 per-node arrays;
        # small blocks keep the VJP's and the dots' block temporaries small
        monkeypatch.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", 1024)
        monkeypatch.setattr(attention, "_PAIR_DOT_FLOATS", 1024)
        g = synth_weighted_sbm(200, 2, 0.8, 0.4, 3.0, 1.0, seed=26).graph
        heads, width = 4, 4
        config = TrainConfig(entmax_alpha=1.55, heads=heads,
                             softmax_instead_of_entmax=normalizer == "softmax")
        s = build_attention_structure(g, config)
        rng = np.random.default_rng(27)
        model = init_model_params(g.n, [width] * 3, attn_dim=width, heads=heads, rng=rng)
        h, record = network_forward_cached(s, model, config)
        d_h = rng.normal(size=h.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            # the edge attention's gradient is made here and passed with no
            # other reference, as training passes it: the sweep may drop it
            network_backward(record, model, config, d_h, rng.normal(size=g.indices.size))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        entry_bytes = heads * s.src.size * 8
        node_bytes = heads * g.n * width * 8
        assert entry_bytes >= 30 * node_bytes
        # one buffer for the coefficient and logit gradients, one copy of the
        # edge attention's gradient (a row 1/heads of it) and row blocks; d_pre, two
        # node-major operands of the dots and d_h_in are the per-node arrays
        assert peak <= 1.3 * entry_bytes + 6 * node_bytes, (peak / entry_bytes)

    def test_parameter_gradients_match_finite_differences(self):
        lab = synth_weighted_sbm(5, 2, 0.9, 0.5, 2.0, 1.0, seed=12)
        g = lab.graph
        rng = np.random.default_rng(13)
        model = init_model_params(g.n, [3, 4, 3], attn_dim=3, heads=2, rng=rng)
        config = TrainConfig(entmax_alpha=1.55, heads=2)
        structure = build_attention_structure(g, config)
        target = rng.normal(size=(g.n, 3))

        def loss_of(m):
            h, _ = network_forward_cached(structure, m, config)
            return 0.5 * float(((h - target) ** 2).sum())

        h, record = network_forward_cached(structure, model, config)
        grads = network_backward(record, model, config, h - target)
        assert worst_fd_error(model, loss_of, grads) < 1e-4
