"""Training objective: modularity over refined weights plus a contrastive structure loss.

The final layer's edge attention (``AttentionRecord.edge_attention``: one
symmetrized value per edge, given on both of its directed entries) refines
the working graph's edge weights: w' = attention * w, and an edge whose
attention falls below ``PRUNE_EPS`` is pruned. Modularity of the refined
graph under the current hard labels gives one loss term; a negative-sampling
reconstruction of the graph from the node representations gives the other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

# build_graph is not called here; benchmarks/tracing.py wraps it at this lookup site
from .graph import WeightedGraph, build_graph

__all__ = [
    "PRUNE_EPS",
    "SAMPLE_MAX_DRAWS",
    "LossBreakdown",
    "RefinedGraph",
    "StructureSamples",
    "update_edge_weights",
    "refinement_coeff_grad",
    "modularity",
    "modularity_weight_grad",
    "draw_structure_samples",
    "short_of_negatives",
    "structure_loss_from_samples",
    "structure_loss_grad",
    "total_loss",
]

PRUNE_EPS = 1e-12
NEG_POWER = 0.75
# a node still short of negatives after this many draws raises instead of looping on
SAMPLE_MAX_DRAWS = 1_000_000
# modularity takes (2m)^3 and squared cluster degrees (at most (2m)^2), which
# stay normal floats while 2m lies within [1 / _MAX_TWO_M, _MAX_TWO_M]
_MAX_TWO_M = 1e100


@dataclass(frozen=True)
class LossBreakdown:
    """structure + modularity_weight * modularity_loss = total; q = -modularity_loss.

    The fields, in order, are the columns of ``TrainedModel.loss_history``.
    """

    structure: float
    modularity_loss: float
    total: float
    modularity_q: float


def total_loss(l_structure: float, l_modularity: float, modularity_weight: float) -> LossBreakdown:
    return LossBreakdown(
        structure=float(l_structure),
        modularity_loss=float(l_modularity),
        total=float(l_structure + modularity_weight * l_modularity),
        modularity_q=float(-l_modularity),
    )


@dataclass(frozen=True)
class RefinedGraph(WeightedGraph):
    """A refined graph plus the mask of its source's directed entries that it kept.

    The refined entries are the source entries at ``kept``, in CSR order, so
    a per-entry array of the refined graph scatters back through ``kept``.
    """

    kept: np.ndarray = field(kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        self.kept.flags.writeable = False


def update_edge_weights(g: WeightedGraph, edge_attention: np.ndarray) -> RefinedGraph:
    """Refine every edge: w_ij <- its edge attention times w_ij.

    ``edge_attention`` holds one value per directed entry of ``g``, in CSR
    order, equal on both entries of an edge. An edge whose attention is
    below ``PRUNE_EPS`` (attention that died in both directions marks
    noise), or whose product underflows to 0, is removed; the threshold
    reads the attention, not the product, so the refinement does not depend
    on the weight scale. Both directed entries of an edge carry the same
    product, so the refined CSR is ``g``'s CSR masked to the kept entries.
    """
    if edge_attention.shape != g.indices.shape:
        raise ValueError(
            f"edge attention has shape {edge_attention.shape}; "
            f"the graph has {g.indices.size} directed entries"
        )
    new_w = edge_attention * g.weights
    kept = (edge_attention >= PRUNE_EPS) & (new_w > 0)
    kept_before = np.zeros(kept.size + 1, dtype=np.int64)
    np.cumsum(kept, out=kept_before[1:])
    return RefinedGraph(
        n=g.n,
        indptr=kept_before[g.indptr],
        indices=g.indices[kept],
        weights=new_w[kept],
        node_ids=g.node_ids,
        kept=kept,
    )


def refinement_coeff_grad(g: WeightedGraph, refined: RefinedGraph,
                          d_refined: np.ndarray) -> np.ndarray:
    """The reverse of update_edge_weights: the edge-attention gradient from d/dw'.

    ``d_refined`` is the loss gradient per directed entry of ``refined``
    (the refinement of ``g``). It scatters back onto ``g``'s surviving
    entries (``refined.kept``) and chains through w' = attention * w, so
    the result has one value per directed entry of ``g``, in the convention
    of ``network_backward``'s ``d_edge_attention``. Pruned edges contribute
    nothing.
    """
    d_work = np.zeros(g.indices.size)
    d_work[refined.kept] = d_refined
    d_work *= g.weights
    return d_work


def _modularity_terms(g: WeightedGraph, labels: np.ndarray):
    """(per-entry source labels, intra mask, matched weight s1, 2m, per-cluster degree sums)."""
    two_m = g.total_weight_2m
    if two_m == 0:
        raise ValueError("modularity of an empty graph is undefined")
    if not 1 / _MAX_TWO_M <= two_m <= _MAX_TWO_M:
        raise ValueError(
            f"modularity needs a total edge weight 2m within [{1 / _MAX_TWO_M:g}, {_MAX_TWO_M:g}] "
            f"(its cube must stay a normal float); this graph has 2m = {two_m:.3g}"
        )
    src_labels = labels[g.directed_src()]
    intra = src_labels == labels[g.indices]
    s1 = float(g.weights[intra].sum())
    d_per_cluster = np.bincount(labels, weights=g.weighted_degree())
    return src_labels, intra, s1, two_m, d_per_cluster


def modularity(g: WeightedGraph, labels) -> float:
    """Newman modularity Q of a labeling over the (weighted) graph.

    Q = (1/2m) sum_ij (w_ij - k_i k_j / 2m) delta(c_i, c_j) over ordered
    pairs including i = j (stored graphs have w_ii = 0).
    """
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise ValueError("labels must cover all nodes")
    _, _, s1, two_m, d_per_cluster = _modularity_terms(g, labels)
    return s1 / two_m - float((d_per_cluster**2).sum()) / two_m**2


def modularity_weight_grad(g: WeightedGraph, labels) -> np.ndarray:
    """dQ/dw per directed CSR entry (both entries of an edge share the value).

    Derivative of Q treating each undirected edge weight as one variable that
    feeds 2m, both endpoint degrees, and (when intra-cluster) the matched-weight
    sum.
    """
    labels = np.asarray(labels)
    src_labels, intra, s1, two_m, d_per_cluster = _modularity_terms(g, labels)
    d_sq = float((d_per_cluster**2).sum())
    # 2 intra / 2m - 2 s1 / (2m)^2 - 2 (d_i + d_j) / (2m)^2 + 4 d_sq / (2m)^3, left to
    # right, each step in place on one of two per-entry buffers
    d_ij = d_per_cluster[src_labels]
    del src_labels
    d_ij += d_per_cluster[labels[g.indices]]
    d_ij *= 2.0
    d_ij /= two_m**2
    grad = 2.0 * intra
    del intra
    grad /= two_m
    grad -= 2.0 * s1 / two_m**2
    grad -= d_ij
    grad += 4.0 * d_sq / two_m**3
    return grad


@dataclass(frozen=True)
class StructureSamples:
    """One positive neighbor and Q negatives per active (non-isolated) node."""

    active: np.ndarray  # bool mask, false for isolated nodes
    positives: np.ndarray  # (n,) neighbor id, arbitrary on inactive rows
    negatives: np.ndarray  # (n, Q) node ids, arbitrary on inactive rows


def draw_structure_samples(g: WeightedGraph, negatives: int, rng) -> StructureSamples:
    """Sample one positive (weight-proportional neighbor) and ``negatives`` negatives per node.

    Positives come from one ``rng.random(n)`` draw. Negatives are drawn with
    probability proportional to weighted degree^0.75 in ``g``, rejecting the
    node itself and its neighbors: one uniform stream, mapped to nodes
    through the cumulative distribution, is walked in node order, and each
    active node takes the first ``negatives`` accepted draws after the
    previous node's last one. The stream is drawn in chunks of exactly the
    acceptances still missing, so no draw is made past the last one used.
    Neighbor membership is a binary search in the node's sorted CSR row. A
    node for which every node of positive sampling probability is excluded
    gets no negatives (its slots are masked as self). A node still short of
    negatives after ``SAMPLE_MAX_DRAWS`` draws raises RuntimeError.
    Deterministic for a given rng state.
    """
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

    q = negatives
    neg_ids = np.zeros((n, q), dtype=np.int64)
    if q > 0 and active.any():
        raw = g.weighted_degree() ** NEG_POWER
        probs = raw / raw.sum()  # positive: an active node has a positive weighted degree
        # per node: drawable (positive-probability) nodes that are neither it nor a neighbor
        drawable = probs > 0
        nbr_drawable = np.bincount(g.directed_src()[drawable[g.indices]], minlength=n)
        valid_count = int(drawable.sum()) - drawable - nbr_drawable
        stuck = np.flatnonzero(active & (valid_count <= 0))
        neg_ids[stuck] = stuck[:, None]  # no valid negative exists; masked as self
        nodes = np.flatnonzero(active & (valid_count > 0))
        if nodes.size:
            neg_ids[nodes] = np.reshape(_walk_negatives(g, probs, q, nodes.tolist(), rng), (-1, q))
    return StructureSamples(active=active, positives=positives, negatives=neg_ids)


def _walk_negatives(g: WeightedGraph, probs: np.ndarray, q: int, nodes: list[int], rng) -> list[int]:
    """The accepted negatives of ``nodes``, in order, from one rejection-sampled stream."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    # bisect reads the row through the buffer: no Python int per stored entry
    indptr, indices = g.indptr.tolist(), memoryview(np.ascontiguousarray(g.indices))
    need = q * len(nodes)
    accepted: list[int] = []
    order = iter(nodes)
    i = next(order)
    lo, hi = indptr[i], indptr[i + 1]
    done = q  # accepted count at which node i is complete
    drawn = start = 0  # draws so far; draws before node i's first
    while len(accepted) < need:
        chunk = np.searchsorted(cdf, rng.random(need - len(accepted)), side="right")
        for v in chunk.tolist():
            drawn += 1
            if v != i:
                at = bisect_left(indices, v, lo, hi)
                if at == hi or indices[at] != v:
                    accepted.append(v)
                    if len(accepted) == done:
                        if done < need:
                            i = next(order)
                            lo, hi = indptr[i], indptr[i + 1]
                            done += q
                            start = drawn
                        continue
            if drawn - start >= SAMPLE_MAX_DRAWS:
                raise _short_of_negatives(g, probs, q, i, drawn - start, len(accepted) + q - done)
    return accepted


def _short_of_negatives(g, probs, q, i, draws, found) -> RuntimeError:
    valid = np.ones(g.n, dtype=bool)
    valid[i] = False
    valid[g.indices[g.indptr[i] : g.indptr[i + 1]]] = False
    mass = float(probs[valid].sum())
    return short_of_negatives(i, f"accepted {found} of {q} negatives in {draws} draws; "
                                 f"its valid probability mass is {mass:.3g}")


def short_of_negatives(node: int, detail: str) -> RuntimeError:
    """Sampling's error for a ``node`` still short of negatives, which ``detail`` describes.

    It keeps both as its ``node`` and ``detail`` attributes, so that a caller
    that sampled a subgraph can name the node of the whole graph.
    """
    exc = RuntimeError(f"negative sampling for node {node} {detail}")
    exc.node, exc.detail = node, detail
    return exc


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _neg_valid(samples: StructureSamples) -> np.ndarray:
    # negatives stored as the node itself mark "no valid negative"
    return samples.negatives != np.arange(samples.negatives.shape[0])[:, None]


def structure_loss_from_samples(h: np.ndarray, samples: StructureSamples) -> float:
    """Negative-sampling reconstruction loss averaged over active nodes.

    Per node: -log sigmoid(h_i . h_pos) - sum_q log sigmoid(-h_i . h_neg_q).
    Isolated nodes are excluded from the average. Always >= 0.
    """
    active = samples.active
    if not active.any():
        return 0.0
    # multiply-then-sum keeps reductions in plain elementwise order, so a
    # scalar recomputation of the formula reproduces the value bit for bit
    pos_scores = (h * h[samples.positives]).sum(axis=1)
    neg_scores = (h[:, None, :] * h[samples.negatives]).sum(axis=2)
    per_node = -_log_sigmoid(pos_scores)
    per_node += np.where(_neg_valid(samples), -_log_sigmoid(-neg_scores), 0.0).sum(axis=1)
    return float(per_node[active].mean())


def structure_loss_grad(h: np.ndarray, samples: StructureSamples) -> np.ndarray:
    """Gradient of structure_loss_from_samples w.r.t. the representations."""
    n = h.shape[0]
    active = samples.active
    grad = np.zeros_like(h)
    count = int(active.sum())
    if count == 0:
        return grad
    scale = 1.0 / count
    idx = np.flatnonzero(active)
    pos = samples.positives[idx]
    pos_scores = np.einsum("nd,nd->n", h[idx], h[pos])
    c_pos = (_sigmoid(pos_scores) - 1.0) * scale  # d/ds of -log sigmoid(s)
    np.add.at(grad, idx, c_pos[:, None] * h[pos])
    np.add.at(grad, pos, c_pos[:, None] * h[idx])
    negs = samples.negatives[idx]
    valid = _neg_valid(samples)[idx]
    neg_scores = np.einsum("nd,nqd->nq", h[idx], h[negs])
    c_neg = np.where(valid, _sigmoid(neg_scores), 0.0) * scale  # d/ds of -log sigmoid(-s)
    grad[idx] += np.einsum("nq,nqd->nd", c_neg, h[negs])
    np.add.at(grad, negs.ravel(), (c_neg[:, :, None] * h[idx][:, None, :]).reshape(-1, h.shape[1]))
    return grad
