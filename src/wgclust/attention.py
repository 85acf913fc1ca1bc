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

from dataclasses import dataclass

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

# entries per block in _pair_dots: the two gathered (block, width) operands
# fit in L2 at the widths used here
_PAIR_DOT_CHUNK = 1024


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

    def zeros_like(self) -> "ModelParams":
        return ModelParams(
            embedding=np.zeros_like(self.embedding),
            layers=[
                LayerParams(
                    w1=np.zeros_like(l.w1), w2=np.zeros_like(l.w2), gamma=np.zeros_like(l.gamma)
                )
                for l in self.layers
            ],
        )


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
    weight-derived logit offsets f_iz.
    """

    graph: WeightedGraph
    indptr: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    rev: np.ndarray
    is_self: np.ndarray
    factors: np.ndarray
    edge_pos: np.ndarray
    self_loop_mode: str


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
    is_self = np.zeros(src.size, dtype=bool)
    is_self[self_at + nodes] = True
    indptr = g.indptr + np.arange(g.n + 1, dtype=np.int64)
    denom = g.weighted_degree() + w_self
    factors = w_entry / denom[src]
    rev = np.lexsort((src, dst))
    edge_pos = np.flatnonzero(~is_self)
    return AttentionStructure(
        graph=g,
        indptr=indptr,
        src=src,
        dst=dst,
        rev=rev,
        is_self=is_self,
        factors=factors,
        edge_pos=edge_pos,
        self_loop_mode=self_loop_mode,
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


def _entry_csr(structure: AttentionStructure, values: np.ndarray) -> sp.csr_matrix:
    """The n x n sparse matrix whose nonzeros are per-entry values."""
    n = structure.indptr.size - 1
    return sp.csr_matrix((values, structure.dst, structure.indptr), shape=(n, n))


def _row_aggregate(structure, values, dense) -> np.ndarray:
    """out[i] = sum over entries e with src(e)=i of values[e] * dense[dst(e)]."""
    return _entry_csr(structure, values) @ dense


def _col_aggregate(structure, values, dense) -> np.ndarray:
    """out[z] = sum over entries e with dst(e)=z of values[e] * dense[src(e)].

    The structure is symmetric, so the transpose has the same sparsity
    pattern with data permuted by rev.
    """
    return _entry_csr(structure, values[structure.rev]) @ dense


def _pair_dots(a_rows: np.ndarray, b_rows: np.ndarray, src, dst) -> np.ndarray:
    """Per-entry dot products a_rows[src(e)] . b_rows[dst(e)].

    Entries go in blocks of _PAIR_DOT_CHUNK, so the two gathered operands
    stay in cache instead of being materialized for every entry at once.
    """
    out = np.empty(src.size)
    for lo in range(0, src.size, _PAIR_DOT_CHUNK):
        hi = lo + _PAIR_DOT_CHUNK
        out[lo:hi] = np.einsum("me,me->m", a_rows[src[lo:hi]], b_rows[dst[lo:hi]])
    return out


def _symmetric_logits(structure, proj_attn) -> np.ndarray:
    """Per-entry, per-head dot logits <P_src, P_dst>, shape (entries, heads).

    The dot is symmetric, so it is computed on src <= dst entries only and
    copied to each reversed entry through rev.
    """
    src, dst = structure.src, structure.dst
    upper = np.flatnonzero(src <= dst)
    lower = np.flatnonzero(src > dst)
    logits = np.empty((src.size, proj_attn.shape[0]))
    for t in range(proj_attn.shape[0]):
        logits[upper, t] = _pair_dots(proj_attn[t], proj_attn[t], src[upper], dst[upper])
    logits[lower] = logits[structure.rev[lower]]
    return logits


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))


def _elu_grad(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))


def _forward_layer(structure, h_in, params, opts) -> tuple[np.ndarray, _LayerCache]:
    heads = params.heads
    proj_attn = np.einsum("nd,hde->hne", h_in, params.w1)
    proj_val = np.einsum("nd,hde->hne", h_in, params.w2)
    logits = _symmetric_logits(structure, proj_attn)
    if opts.use_weight_factor:
        logits += structure.factors[:, None]
    if not np.all(np.isfinite(logits)):
        bad = int(structure.src[np.flatnonzero(~np.isfinite(logits).all(axis=1))[0]])
        raise FloatingPointError(f"non-finite activation at node {bad}")
    if opts.normalizer == "entmax":
        coeffs = segment_entmax(logits, structure.indptr, opts.alpha)
    else:
        coeffs = segment_softmax(logits, structure.indptr)
    pre_act = np.empty((heads, h_in.shape[0], params.w2.shape[2]))
    for t in range(heads):
        pre_act[t] = _row_aggregate(structure, coeffs[:, t], proj_val[t])
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
    src, dst = structure.src, structure.dst
    d_gamma = np.einsum("ne,hne->h", d_out, cache.head_out)
    d_pre = params.gamma[:, None, None] * d_out[None] * _elu_grad(cache.pre_act)
    d_coeffs = np.empty_like(cache.coeffs)
    d_h_in = np.zeros_like(cache.h_in)
    d_w2 = np.empty_like(params.w2)
    for t in range(heads):
        d_coeffs[:, t] = _pair_dots(d_pre[t], cache.proj_val[t], src, dst)
        d_val_t = _col_aggregate(structure, cache.coeffs[:, t], d_pre[t])
        d_w2[t] = cache.h_in.T @ d_val_t
        d_h_in += d_val_t @ params.w2[t].T
    if d_coeffs_extra is not None:
        d_coeffs = d_coeffs + d_coeffs_extra
    if opts.normalizer == "entmax":
        d_logits = segment_entmax_vjp(cache.coeffs, structure.indptr, opts.alpha, d_coeffs)
    else:
        d_logits = segment_softmax_vjp(cache.coeffs, structure.indptr, d_coeffs)
    d_w1 = np.empty_like(params.w1)
    for t in range(heads):
        g = d_logits[:, t]
        d_proj = _row_aggregate(structure, g, cache.proj_attn[t])
        d_proj += _col_aggregate(structure, g, cache.proj_attn[t])
        d_w1[t] = cache.h_in.T @ d_proj
        d_h_in += d_proj @ params.w1[t].T
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
    grads = model.zeros_like()
    d_h = d_h_final
    last = len(model.layers) - 1
    for li in range(last, -1, -1):
        extra = d_final_coeffs if li == last else None
        d_h, layer_grads = _backward_layer(
            structure, model.layers[li], opts, caches[li], d_h, extra
        )
        grads.layers[li] = layer_grads
    grads.embedding = d_h
    return grads
