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

import numpy as np
import scipy.sparse as sp

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
    "ForwardOptions",
    "build_attention_structure",
    "network_forward_cached",
    "network_backward",
    "init_model_params",
]

SELF_LOOP_MODES = ("max", "mean", "min")

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

    def copy(self) -> "ModelParams":
        return ModelParams(
            embedding=self.embedding.copy(),
            layers=[
                LayerParams(w1=l.w1.copy(), w2=l.w2.copy(), gamma=l.gamma.copy())
                for l in self.layers
            ],
        )

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
    """Directed candidate entries (neighbors + self-loop) for one graph.

    Entries are sorted by (src, dst); each node's row is its sorted
    neighborhood with the self-loop spliced into sorted position. ``rev``
    maps an entry to its reversed counterpart (self-loops map to themselves),
    ``edge_pos`` are the positions of non-self entries (aligned, in order,
    with the graph's own directed CSR entries), and ``factors`` holds the
    weight-derived logit offsets f_iz. ``pair_src``/``pair_dst`` are the
    src <= dst entries, one per unordered pair, and ``mirror`` maps every
    entry to its pair (symmetric per-entry values are computed once per
    pair).
    """

    graph: WeightedGraph
    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rev: np.ndarray
    factors: np.ndarray
    edge_pos: np.ndarray
    pair_src: np.ndarray
    pair_dst: np.ndarray
    mirror: np.ndarray
    # heads -> block-diagonal (indptr, indices) that aggregate every head at once
    _head_patterns: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def head_pattern(self, heads: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR index arrays of the (heads*n, heads*n) block-diagonal entry matrix.

        Block t holds the entry pattern with its columns shifted by t*n, so
        one sparse product over (heads*n, width) operands aggregates every
        head. Built once per head count; int32 whenever the sizes fit.
        """
        if heads not in self._head_patterns:
            n, entries = self.indptr.size - 1, self.src.size
            idx = np.int32 if heads * max(n, entries) < 2**31 else np.int64
            shift = np.arange(heads, dtype=idx)[:, None]
            indptr = np.append((self.indptr[:-1].astype(idx) + shift * entries).ravel(),
                               idx(heads * entries))
            indices = (self.dst.astype(idx) + shift * n).ravel()
            self._head_patterns[heads] = (indptr, indices)
        return self._head_patterns[heads]


def _self_loop_weights(g: WeightedGraph, mode: str) -> np.ndarray:
    if mode not in SELF_LOOP_MODES:
        raise ValueError(f"self_loop_mode must be one of {SELF_LOOP_MODES}")
    deg = np.diff(g.indptr)
    has_edges = deg > 0
    w_self = np.ones(g.n)  # isolated nodes: w_ii = 1 so f_ii = 1
    # empty rows have zero length, so the non-empty starts delimit every row
    starts = g.indptr[:-1][has_edges]
    if mode == "mean":
        w_self[has_edges] = np.add.reduceat(g.weights, starts) / deg[has_edges]
    else:
        reduce = np.maximum if mode == "max" else np.minimum
        w_self[has_edges] = reduce.reduceat(g.weights, starts)
    return w_self


def build_attention_structure(g: WeightedGraph, self_loop_mode: str = "max") -> AttentionStructure:
    """Precompute the candidate-entry arrays and f_iz for a working graph.

    f_iz is the candidate's weight divided by node i's weighted degree plus
    its self-loop weight, which is the max (default), mean, or min of the
    incident weights; an isolated node's only candidate is itself with f = 1.
    """
    w_self = _self_loop_weights(g, self_loop_mode)
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
    rev = np.lexsort((src, dst))
    edge_pos = np.flatnonzero(src != dst)  # the graph stores no self-loops
    upper = src <= dst
    # an upper entry's position among the upper ones; int32 keeps the three
    # pair arrays at half the size whenever the entry count allows
    idx = np.int32 if src.size < 2**31 else np.int64
    pair_of = np.cumsum(upper, dtype=idx) - 1
    pairs = np.flatnonzero(upper)
    return AttentionStructure(
        graph=g,
        indptr=indptr,
        src=src,
        dst=dst,
        rev=rev,
        factors=factors,
        edge_pos=edge_pos,
        pair_src=src[pairs].astype(idx),
        pair_dst=dst[pairs].astype(idx),
        mirror=np.where(upper, pair_of, pair_of[rev]),
    )


@dataclass(frozen=True)
class ForwardOptions:
    """Ablation-aware forward settings."""

    alpha: float = 1.55
    normalizer: str = "entmax"  # or "softmax"
    use_weight_factor: bool = True

    def __post_init__(self):
        if self.normalizer not in ("entmax", "softmax"):
            raise ValueError("normalizer must be 'entmax' or 'softmax'")


@dataclass
class AttentionRecord:
    """Normalized coefficients of every layer, head, and candidate entry.

    coefficients[layer] has shape (entries, heads), aligned with the
    structure's entry arrays.
    """

    structure: AttentionStructure
    coefficients: list[np.ndarray]

    def coefficient(self, layer: int, head: int, i: int, z: int) -> float:
        s = self.structure
        lo, hi = s.indptr[i], s.indptr[i + 1]
        k = np.searchsorted(s.dst[lo:hi], z)
        if k >= hi - lo or s.dst[lo + k] != z:
            raise KeyError(f"{z} is not a candidate of node {i}")
        return float(self.coefficients[layer][lo + k, head])

    def final_head_average(self) -> np.ndarray:
        """Head-averaged final-layer coefficient per entry (drives the edge-weight refinement)."""
        return self.coefficients[-1].mean(axis=1)


@dataclass
class _LayerCache:
    h_in: np.ndarray
    proj_attn: np.ndarray  # (heads, n, d_attn)
    proj_val: np.ndarray  # (heads, n, d_out)
    coeffs: np.ndarray  # (entries, heads)
    pre_act: np.ndarray  # (heads, n, d_out)
    head_out: np.ndarray  # (heads, n, d_out)


def _head_major(values: np.ndarray) -> np.ndarray:
    """(entries, heads) -> flat head-major data of the block-diagonal entry matrix."""
    return values.T.ravel()


def _row_aggregate(structure, data, dense) -> np.ndarray:
    """out[t, i] = sum over entries e with src(e)=i of values[e, t] * dense[t, dst(e)].

    data: _head_major(values) of (entries, heads) values; dense: (heads, n,
    width). One sparse product over the block-diagonal pattern covers every
    head.
    """
    heads, n, width = dense.shape
    indptr, indices = structure.head_pattern(heads)
    mat = sp.csr_matrix((data, indices, indptr), shape=(heads * n, heads * n))
    return (mat @ dense.reshape(heads * n, width)).reshape(heads, n, width)


def _col_aggregate(structure, data, dense) -> np.ndarray:
    """out[t, z] = sum over entries e with dst(e)=z of values[e, t] * dense[t, src(e)].

    The structure is symmetric, so the CSR arrays of the pattern read as CSC
    are its transpose; the product accumulates each output row in ascending
    src order, as the row aggregation of values[rev] would.
    """
    heads, n, width = dense.shape
    indptr, indices = structure.head_pattern(heads)
    mat = sp.csc_matrix((data, indices, indptr), shape=(heads * n, heads * n))
    return (mat @ dense.reshape(heads * n, width)).reshape(heads, n, width)


def _node_major(per_head: np.ndarray) -> np.ndarray:
    """(heads, n, width) -> contiguous (n, heads, width): one gather takes a node's every head."""
    return np.ascontiguousarray(per_head.transpose(1, 0, 2))


def _pair_dots(a_rows: np.ndarray, b_rows: np.ndarray, src, dst) -> np.ndarray:
    """Per-entry, per-head dots a_rows[src(e), t] . b_rows[dst(e), t], shape (entries, heads).

    a_rows, b_rows: (n, heads, width). Entries go in blocks of
    _PAIR_DOT_FLOATS floats per gathered operand, so both operands stay in
    cache instead of being materialized for every entry at once.
    """
    heads, width = a_rows.shape[1:]
    block = max(1, _PAIR_DOT_FLOATS // (heads * width))
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


def _coefficients(structure, proj_attn, opts) -> np.ndarray:
    """Normalized attention coefficients (entries, heads) from the projected rows.

    The logits are freed on return, before the aggregation allocates its
    head-major copy of the coefficients.
    """
    logits = _symmetric_logits(structure, proj_attn)
    if opts.use_weight_factor:
        logits += structure.factors[:, None]
    if not np.all(np.isfinite(logits)):
        bad = int(structure.src[np.flatnonzero(~np.isfinite(logits).all(axis=1))[0]])
        raise FloatingPointError(f"non-finite activation at node {bad}")
    if opts.normalizer == "entmax":
        return segment_entmax(logits, structure.indptr, opts.alpha)
    return segment_softmax(logits, structure.indptr)


def _forward_layer(structure, h_in, params, opts) -> tuple[np.ndarray, _LayerCache]:
    proj_attn = np.einsum("nd,hde->hne", h_in, params.w1)
    proj_val = np.einsum("nd,hde->hne", h_in, params.w2)
    coeffs = _coefficients(structure, proj_attn, opts)
    pre_act = _row_aggregate(structure, _head_major(coeffs), proj_val)
    head_out = _elu(pre_act)
    h_out = np.einsum("h,hne->ne", params.gamma, head_out)
    if not np.all(np.isfinite(h_out)):
        bad = int(np.flatnonzero(~np.isfinite(h_out).all(axis=1))[0])
        raise FloatingPointError(f"non-finite activation at node {bad}")
    cache = _LayerCache(
        h_in=h_in,
        proj_attn=proj_attn,
        proj_val=proj_val,
        coeffs=coeffs,
        pre_act=pre_act,
        head_out=head_out,
    )
    return h_out, cache


def _backward_layer(structure, params, opts, cache, d_out, d_coeffs_extra=None):
    """Reverse sweep of one layer.

    d_out: gradient w.r.t. the fused output. d_coeffs_extra: additional
    gradient w.r.t. the normalized coefficients (entries, heads), used when
    the final layer's attention also feeds the edge-weight refinement.
    Returns (d_h_in, LayerParams-shaped gradients).
    """
    heads = params.heads
    d_gamma = np.einsum("ne,hne->h", d_out, cache.head_out)
    d_pre = params.gamma[:, None, None] * d_out[None] * _elu_grad(cache.pre_act)
    d_coeffs = _pair_dots(
        _node_major(d_pre), _node_major(cache.proj_val), structure.src, structure.dst
    )
    d_val = _col_aggregate(structure, _head_major(cache.coeffs), d_pre)
    d_h_in = np.zeros_like(cache.h_in)
    d_w2 = np.empty_like(params.w2)
    for t in range(heads):
        d_w2[t] = cache.h_in.T @ d_val[t]
        d_h_in += d_val[t] @ params.w2[t].T
    if d_coeffs_extra is not None:
        d_coeffs += d_coeffs_extra
    if opts.normalizer == "entmax":
        d_logits = segment_entmax_vjp(cache.coeffs, structure.indptr, opts.alpha, d_coeffs)
    else:
        d_logits = segment_softmax_vjp(cache.coeffs, structure.indptr, d_coeffs)
    # both products read one head-major copy of d_logits; the (entries, heads)
    # original is freed before they allocate
    d_data = _head_major(d_logits)
    del d_logits
    d_proj = _row_aggregate(structure, d_data, cache.proj_attn)
    d_proj += _col_aggregate(structure, d_data, cache.proj_attn)
    d_w1 = np.empty_like(params.w1)
    for t in range(heads):
        d_w1[t] = cache.h_in.T @ d_proj[t]
        d_h_in += d_proj[t] @ params.w1[t].T
    return d_h_in, LayerParams(w1=d_w1, w2=d_w2, gamma=d_gamma)


def network_forward_cached(structure, model: ModelParams, opts: ForwardOptions):
    """Full forward pass keeping per-layer caches for the backward sweep."""
    h = model.embedding
    caches: list[_LayerCache] = []
    coeffs: list[np.ndarray] = []
    for li, params in enumerate(model.layers):
        try:
            h, cache = _forward_layer(structure, h, params, opts)
        except FloatingPointError as exc:
            raise FloatingPointError(f"layer {li}: {exc}") from None
        caches.append(cache)
        coeffs.append(cache.coeffs)
    record = AttentionRecord(structure=structure, coefficients=coeffs)
    return h, record, caches


def network_backward(structure, model, opts, caches, d_h_final, d_final_coeffs=None) -> ModelParams:
    """Reverse sweep through every layer down to the embedding table.

    d_final_coeffs, when given, is an (entries, heads) gradient that the
    final layer's coefficients receive on top of the aggregation path (the
    modularity loss reaches them through the edge-weight refinement).
    """
    layer_grads = [None] * len(model.layers)
    d_h = d_h_final
    last = len(model.layers) - 1
    for li in range(last, -1, -1):
        extra = d_final_coeffs if li == last else None
        d_h, layer_grads[li] = _backward_layer(
            structure, model.layers[li], opts, caches[li], d_h, extra
        )
    return ModelParams(embedding=d_h, layers=layer_grads)
