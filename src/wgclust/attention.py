"""Edge-weight-aware sparse graph attention.

Each layer redefines the attention logit between a node and each candidate
(its neighbors plus a synthesized self-loop) as the sum of a dot-product
feature score and a weight-derived factor, normalizes per node with
alpha-entmax (exact zeros silence noisy edges), aggregates with ELU, and
fuses heads through learnable per-head weights.

Everything operates on a flat array of directed candidate entries (one per
(node, neighbor-or-self) pair) in CSR order, which keeps reductions in a
fixed sorted order and the whole pass deterministic. The backward pass is a
hand-derived reverse sweep over the same arrays; no autodiff framework is
involved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import TrainConfig
from .entmax import (
    segment_entmax,
    segment_entmax_vjp,
    segment_softmax,
    segment_softmax_vjp,
)
from .graph import WeightedGraph

__all__ = [
    "LayerParams",
    "ModelParams",
    "AttentionStructure",
    "AttentionRecord",
    "build_attention_structure",
    "network_forward",
    "network_forward_cached",
    "network_backward",
    "init_model_params",
    "non_finite_activation",
]

# floats per gathered operand in _pair_dots (256 KB): a block of entries takes
# every head's row at once, and both gathered operands fit in L2
_PAIR_DOT_FLOATS = 32768


@dataclass
class LayerParams:
    """Per-head projections and the head-fusion vector of one layer.

    w1: (heads, d_in, d_attn) attention projections.
    w2: (heads, d_in, d_out) value projections.
    gamma: (heads,) fusion weights.
    """

    w1: np.ndarray
    w2: np.ndarray
    gamma: np.ndarray

    @property
    def heads(self) -> int:
        return self.gamma.size


@dataclass
class ModelParams:
    """Trainable state: the id-indexed embedding table plus all layers."""

    embedding: np.ndarray
    layers: list[LayerParams]

    def flat_arrays(self) -> list[np.ndarray]:
        out = [self.embedding]
        for l in self.layers:
            out.extend([l.w1, l.w2, l.gamma])
        return out


def init_model_params(n, dims, attn_dim, heads, rng) -> ModelParams:
    """Seeded initialization.

    The embedding table is uniform(-0.05, 0.05) over all n nodes (node ids
    are the only input feature, so the table is the trainable input). Layer
    i maps width dims[i] to dims[i + 1]; its W1 projects to attn_dim for the
    logits. W1/W2 use scaled uniform fan-in/fan-out init; gamma starts at
    1/heads so the fused output begins as the head average.
    """
    d0 = dims[0]
    embedding = rng.uniform(-0.05, 0.05, size=(n, d0))
    layers = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        bound1 = np.sqrt(6.0 / (d_in + attn_dim))
        bound2 = np.sqrt(6.0 / (d_in + d_out))
        w1 = rng.uniform(-bound1, bound1, size=(heads, d_in, attn_dim))
        w2 = rng.uniform(-bound2, bound2, size=(heads, d_in, d_out))
        layers.append(LayerParams(w1=w1, w2=w2, gamma=np.full(heads, 1.0 / heads)))
    return ModelParams(embedding=embedding, layers=layers)


@dataclass(frozen=True)
class AttentionStructure:
    """Directed candidate entries (neighbors + self-loop) of one graph, for one head count.

    Entries are sorted by (src, dst); each node's row is its sorted
    neighborhood with the self-loop spliced into sorted position. ``rev``
    maps an entry to its reversed counterpart (self-loops map to themselves),
    ``edge_pos`` are the positions of non-self entries (aligned, in order,
    with the graph's own directed CSR entries), and ``factors`` holds the
    weight-derived logit offsets f_iz. ``pair_src``/``pair_dst`` are the
    src <= dst entries, one per unordered pair, and ``mirror`` maps every
    entry to its pair (symmetric per-entry values are computed once per
    pair). ``head_indptr``/``head_indices`` are the CSR index arrays of the
    (heads*n, heads*n) block-diagonal entry matrix: block t holds the entry
    pattern with its columns shifted by t*n, so one sparse product over
    (heads*n, width) operands aggregates every head. Every index array but
    ``indptr`` is int32 whenever the sizes allow.
    """

    graph: WeightedGraph
    heads: int
    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rev: np.ndarray
    factors: np.ndarray
    edge_pos: np.ndarray
    pair_src: np.ndarray
    pair_dst: np.ndarray
    mirror: np.ndarray
    head_indptr: np.ndarray
    head_indices: np.ndarray


def _self_loop_weights(g: WeightedGraph) -> np.ndarray:
    has_edges = np.diff(g.indptr) > 0
    w_self = np.ones(g.n)  # isolated nodes: w_ii = 1 so f_ii = 1
    # empty rows have zero length, so the non-empty starts delimit every row
    w_self[has_edges] = np.maximum.reduceat(g.weights, g.indptr[:-1][has_edges])
    return w_self


def build_attention_structure(g: WeightedGraph, config: TrainConfig) -> AttentionStructure:
    """Precompute the candidate-entry arrays, f_iz and the head pattern for a working graph.

    f_iz is the candidate's weight divided by node i's weighted degree plus
    its self-loop weight, the largest incident weight; an isolated node's
    only candidate is itself with f = 1. The head pattern covers
    ``config.heads`` heads.
    """
    heads = config.heads
    w_self = _self_loop_weights(g)
    nodes = np.arange(g.n, dtype=np.int64)
    edge_src = g.directed_src()
    # rows are sorted by (src, dst), so each self-loop's place in the flat
    # entry array is a search on the combined key src * n + dst
    self_at = np.searchsorted(edge_src * g.n + g.indices, nodes * (g.n + 1))
    src = np.insert(edge_src, self_at, nodes)
    dst = np.insert(g.indices, self_at, nodes)
    w_entry = np.insert(g.weights, self_at, w_self)
    indptr = g.indptr + np.arange(g.n + 1, dtype=np.int64)
    denom = g.weighted_degree() + w_self
    factors = w_entry / denom[src]
    # the entries are in (src, dst) order, so a stable sort on dst alone is
    # lexsort's (dst, src) order, with no key array to allocate
    rev = np.argsort(dst, kind="stable")
    upper = src <= dst
    entries = src.size
    # int32 halves every per-entry index array whenever the entry count allows
    idx = np.int32 if entries < 2**31 else np.int64
    pair_of = np.cumsum(upper, dtype=idx) - 1  # an upper entry's position among the upper ones
    pairs = np.flatnonzero(upper)
    head_idx = np.int32 if heads * max(g.n, entries) < 2**31 else np.int64
    shift = np.arange(heads, dtype=head_idx)[:, None]
    return AttentionStructure(
        graph=g,
        heads=heads,
        indptr=indptr,
        src=src.astype(idx),
        dst=dst.astype(idx),
        rev=rev.astype(idx),
        factors=factors,
        edge_pos=np.flatnonzero(src != dst).astype(idx),  # the graph stores no self-loops
        pair_src=src[pairs].astype(idx),
        pair_dst=dst[pairs].astype(idx),
        mirror=np.where(upper, pair_of, pair_of[rev]),
        head_indptr=np.append((indptr[:-1].astype(head_idx) + shift * entries).ravel(),
                              head_idx(heads * entries)),
        head_indices=(dst.astype(head_idx) + shift * g.n).ravel(),
    )


class _LayerCache(NamedTuple):
    h_in: np.ndarray
    proj_attn: np.ndarray  # (heads, n, d_attn)
    proj_val: np.ndarray  # (heads, n, d_out)
    coeffs: np.ndarray  # (heads, entries) normalized coefficients, head-major
    pre_act: np.ndarray  # (heads, n, d_out)


@dataclass
class AttentionRecord:
    """One training forward pass: every layer's coefficients and backward state.

    ``layers[li].coeffs`` has shape (heads, entries), each head's row aligned
    with the structure's entry arrays; the other fields of a layer are what its
    reverse sweep reads (inputs, projections, activations). Only
    ``network_forward_cached`` makes a record; ``network_forward``, which
    labels and dumps attention, returns the final head average alone.
    ``network_backward`` consumes the record: it removes each layer from
    ``layers`` as its sweep starts, so read the coefficients before it runs.
    """

    structure: AttentionStructure
    layers: list[_LayerCache] = field(repr=False, compare=False)

    def edge_attention(self) -> np.ndarray:
        """The symmetrized final-layer head average of every edge, per directed graph entry.

        Entry e of the structure's graph (CSR order) holds
        0.5 * (avg_ij + avg_ji) of its edge, where avg is the head average
        of the final layer's coefficients; both entries of an edge hold the
        same value. The edge-weight refinement multiplies it into the weight.
        """
        s = self.structure
        avg = self.layers[-1].coeffs.mean(axis=0)
        return (0.5 * (avg + avg[s.rev]))[s.edge_pos]


def _aggregate(structure, values, dense, transpose=False) -> np.ndarray:
    """out[t, i] = sum over entries e with src(e)=i of values[t, e] * dense[t, dst(e)].

    values: (heads, entries), C-contiguous, so its flat view is the data of
    the block-diagonal entry matrix; dense: (heads, n, width). One sparse
    product over the block-diagonal pattern covers every head. With
    ``transpose`` the sum runs over entries with dst(e)=i and reads
    dense[t, src(e)]: the structure is symmetric, so the CSR arrays of the
    pattern read as CSC are its transpose, and the product accumulates each
    output row in ascending src order, as the row aggregation of
    values[:, rev] would.
    """
    import scipy.sparse as sp

    heads, n, width = dense.shape
    matrix = sp.csc_matrix if transpose else sp.csr_matrix
    mat = matrix((values.ravel(), structure.head_indices, structure.head_indptr),
                 shape=(heads * n, heads * n))
    return (mat @ dense.reshape(heads * n, width)).reshape(heads, n, width)


def _node_major(per_head: np.ndarray) -> np.ndarray:
    """(heads, n, width) -> contiguous (n, heads, width): one gather takes a node's every head."""
    return np.ascontiguousarray(per_head.transpose(1, 0, 2))


def _pair_dots(a_rows: np.ndarray, b_rows: np.ndarray, src, dst, out=None) -> np.ndarray:
    """Per-entry, per-head dots a_rows[src(e), t] . b_rows[dst(e), t], shape (entries, heads).

    a_rows, b_rows: (n, heads, width). Entries go in blocks of
    _PAIR_DOT_FLOATS floats per gathered operand, so both operands stay in
    cache instead of being materialized for every entry at once. ``out``, an
    (entries, heads) array of any layout, receives the dots when given.
    """
    heads, width = a_rows.shape[1:]
    block = max(1, _PAIR_DOT_FLOATS // (heads * width))
    if out is None:
        out = np.empty((src.size, heads))
    for lo in range(0, src.size, block):
        hi = lo + block
        np.einsum("mhe,mhe->mh", a_rows[src[lo:hi]], b_rows[dst[lo:hi]], out=out[lo:hi])
    return out


def _symmetric_logits(structure, proj_attn) -> np.ndarray:
    """Per-entry, per-head dot logits <P_src, P_dst>, shape (entries, heads).

    The dot is symmetric, so it is computed once per src <= dst pair and
    copied to every entry through the structure's mirror index.
    """
    rows = _node_major(proj_attn)
    return _pair_dots(rows, rows, structure.pair_src, structure.pair_dst)[structure.mirror]


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def non_finite_activation(layer: int, node: int) -> FloatingPointError:
    """The forward's error for a non-finite activation of ``node`` in layer ``layer``.

    It keeps both as its ``layer`` and ``node`` attributes, so that a caller
    that ran the forward on a subgraph can name the node of the whole graph.
    """
    exc = FloatingPointError(f"layer {layer}: non-finite activation at node {node}")
    exc.layer, exc.node = layer, node
    return exc


def _require_finite(li, values, node_of_row=None) -> None:
    """Raise ``non_finite_activation`` for layer ``li`` and the node of the first non-finite row."""
    if not np.all(np.isfinite(values)):
        row = int(np.flatnonzero(~np.isfinite(values).all(axis=1))[0])
        node = row if node_of_row is None else int(node_of_row[row])
        raise non_finite_activation(li, node)


def _coefficients(li, structure, proj_attn, config) -> np.ndarray:
    """Normalized attention coefficients (entries, heads) of layer ``li`` from the projected rows.

    The logits are freed on return, before the caller makes the head-major
    copy of the coefficients.
    """
    logits = _symmetric_logits(structure, proj_attn)
    if not config.drop_f_iz:
        logits += structure.factors[:, None]
    _require_finite(li, logits, structure.src)
    if config.softmax_instead_of_entmax:
        return segment_softmax(logits, structure.indptr)
    return segment_entmax(logits, structure.indptr, config.entmax_alpha)


def _forward_layer(li, structure, h_in, params, config) -> tuple[np.ndarray, _LayerCache]:
    """Layer ``li``: (fused output, backward state); a FloatingPointError names the layer.

    Raises ValueError when the layer's head count is not the structure's.
    """
    if params.heads != structure.heads:
        raise ValueError(
            f"layer {li} has {params.heads} heads but the attention structure "
            f"was built for {structure.heads}"
        )
    proj_attn = np.einsum("nd,hde->hne", h_in, params.w1)
    proj_val = np.einsum("nd,hde->hne", h_in, params.w2)
    # the solver works row-major; its output is freed once the head-major copy exists
    coeffs = np.ascontiguousarray(_coefficients(li, structure, proj_attn, config).T)
    pre_act = _aggregate(structure, coeffs, proj_val)
    h_out = np.einsum("h,hne->ne", params.gamma, _elu(pre_act))
    _require_finite(li, h_out)
    return h_out, _LayerCache(h_in=h_in, proj_attn=proj_attn, proj_val=proj_val, coeffs=coeffs,
                              pre_act=pre_act)


def _backward_layer(structure, params, config, cache, d_out, d_coeffs_extra=None):
    """Reverse sweep of one layer whose forward gave ``cache``.

    d_out: gradient w.r.t. the fused output. d_coeffs_extra: additional
    gradient w.r.t. the normalized coefficients, anything that broadcasts to
    (heads, entries), used when the final layer's attention also feeds the
    edge-weight refinement. Returns (d_h_in, LayerParams-shaped gradients).

    One full-size buffer holds the coefficient gradient and then, after the
    normalizer's VJP runs in place on it, the logit gradient; both are
    head-major, as the products read them. Each array of ``cache`` is dropped
    after its last use, so when the caller holds no other reference to the
    cache, the coefficients are freed before the logit gradient's
    aggregations run.
    """
    heads = params.heads
    h_in, proj_attn, proj_val, coeffs, pre_act = cache
    del cache
    d_gamma = np.einsum("ne,hne->h", d_out, _elu(pre_act))
    d_pre = params.gamma[:, None, None] * d_out[None] * _elu_grad(pre_act)
    del pre_act
    d_val = _aggregate(structure, coeffs, d_pre, transpose=True)
    d_h_in = np.zeros_like(h_in)
    d_w2 = np.empty_like(params.w2)
    for t in range(heads):
        d_w2[t] = h_in.T @ d_val[t]
        d_h_in += d_val[t] @ params.w2[t].T
    del d_val
    d_coeffs = np.empty_like(coeffs)
    # the node-major operands replace their head-major sources one at a time
    d_pre = _node_major(d_pre)
    proj_val = _node_major(proj_val)
    _pair_dots(d_pre, proj_val, structure.src, structure.dst, out=d_coeffs.T)
    del d_pre, proj_val
    if d_coeffs_extra is not None:
        d_coeffs += d_coeffs_extra
    # the VJP overwrites d_coeffs with the logit gradient
    p, d_entries, indptr = coeffs.T, d_coeffs.T, structure.indptr
    if config.softmax_instead_of_entmax:
        segment_softmax_vjp(p, indptr, d_entries, out=d_entries)
    else:
        segment_entmax_vjp(p, indptr, config.entmax_alpha, d_entries, out=d_entries)
    del p, coeffs
    d_proj = _aggregate(structure, d_coeffs, proj_attn)
    d_proj += _aggregate(structure, d_coeffs, proj_attn, transpose=True)
    d_w1 = np.empty_like(params.w1)
    for t in range(heads):
        d_w1[t] = h_in.T @ d_proj[t]
        d_h_in += d_proj[t] @ params.w1[t].T
    return d_h_in, LayerParams(w1=d_w1, w2=d_w2, gamma=d_gamma)


def network_forward(structure, model: ModelParams, config: TrainConfig):
    """Full forward pass that keeps no backward state; returns (H_final, final head average).

    The head average is the final layer's coefficients averaged over heads,
    one value per entry of the structure. Each layer's state is freed before
    the next layer runs. Raises ValueError when the structure's graph and
    the embedding table disagree on the node count, or when a layer's head
    count is not the structure's. Reads the same config fields as
    ``network_forward_cached``.
    """
    n, rows = structure.graph.n, model.embedding.shape[0]
    if n != rows:
        raise ValueError(f"graph has {n} nodes but the model embeds {rows}")
    h, cache = model.embedding, None
    for li, params in enumerate(model.layers):
        del cache  # only the final layer's coefficients are read
        h, cache = _forward_layer(li, structure, h, params, config)
    return h, cache.coeffs.mean(axis=0)


def network_forward_cached(structure, model: ModelParams, config: TrainConfig):
    """Full forward pass; returns (H_final, AttentionRecord).

    The record keeps every layer's backward state for ``network_backward``.
    Reads ``entmax_alpha``, ``softmax_instead_of_entmax`` and ``drop_f_iz``
    from the config.
    """
    h, layers = model.embedding, []
    for li, params in enumerate(model.layers):
        h, cache = _forward_layer(li, structure, h, params, config)
        layers.append(cache)
    return h, AttentionRecord(structure=structure, layers=layers)


def network_backward(record, model, config, d_h_final, d_edge_attention=None) -> ModelParams:
    """Reverse sweep through every layer of ``record``'s forward pass down to the embedding table.

    The sweep consumes the record: each layer leaves ``record.layers`` as its
    sweep starts, and its backward state is freed as the sweep reads it, so
    the record holds no layer state afterwards.

    d_edge_attention, when given, is the gradient of ``record.edge_attention()``
    (the modularity loss reaches the final layer's coefficients through the
    edge-weight refinement). It follows the convention of
    ``modularity_weight_grad``: the gradient of each undirected edge's one
    value, given on both of its directed entries. Entry ij passes half of it
    to the head average of ij, which spreads it evenly over the heads.
    """
    s, last = record.structure, len(model.layers) - 1
    extra = None
    if d_edge_attention is not None:
        # one (1, entries) row that broadcasts over the heads
        extra = np.zeros((1, s.src.size))
        extra[0, s.edge_pos] = d_edge_attention * 0.5 / model.layers[last].heads
        d_edge_attention = None  # freed here when the caller passed it unnamed
    layer_grads = [None] * len(model.layers)
    d_h = d_h_final
    for li in range(last, -1, -1):
        # popped into the call, so the sweep holds the layer's only reference
        d_h, layer_grads[li] = _backward_layer(s, model.layers[li], config, record.layers.pop(),
                                               d_h, extra)
        extra = None  # only the last layer reads it
    return ModelParams(embedding=d_h, layers=layer_grads)
