"""Training objective: modularity over refined weights plus a contrastive structure loss.

The attention coefficients of the final layer refine the working graph's
edge weights (symmetrized attention times weight; edges whose attention dies
in both directions are pruned). Modularity of the refined graph under the
current hard labels gives one loss term; a negative-sampling reconstruction
of the graph from the node representations gives the other.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionRecord
# build_graph is not called here; benchmarks/tracing.py wraps it at this lookup site
from .graph import WeightedGraph, build_graph

__all__ = [
    "PRUNE_EPS",
    "SAMPLE_MAX_DRAWS",
    "LossBreakdown",
    "NegativeSampler",
    "RefinedGraph",
    "StructureSamples",
    "update_edge_weights",
    "modularity",
    "modularity_weight_grad",
    "draw_structure_samples",
    "structure_loss_from_samples",
    "structure_loss_grad",
    "total_loss",
]

PRUNE_EPS = 1e-12
NEG_POWER = 0.75
# a node still short of negatives after this many draws raises instead of looping on
SAMPLE_MAX_DRAWS = 1_000_000


@dataclass(frozen=True)
class LossBreakdown:
    """structure + modularity_weight * modularity_loss = total; q = -modularity_loss."""

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


def update_edge_weights(g: WeightedGraph, record: AttentionRecord) -> RefinedGraph:
    """Refine every edge: w_ij <- mean of the two directed head-averaged coefficients, times w_ij.

    Edges whose refined weight drops below 1e-12 are removed (both attention
    directions zero means the edge was judged noise). The attention record
    must cover every directed edge of ``g``. Both directed entries of an
    edge carry the same product, so the refined CSR is ``g``'s CSR masked to
    the kept entries.
    """
    s = record.structure
    if s.graph.n != g.n or not (
        np.array_equal(s.graph.indptr, g.indptr) and np.array_equal(s.graph.indices, g.indices)
    ):
        raise ValueError("attention record does not cover this graph's edges")
    avg = record.final_head_average()
    sym = 0.5 * (avg + avg[s.rev])
    new_w = sym[s.edge_pos] * g.weights  # aligned with g's directed CSR entries
    kept = new_w >= PRUNE_EPS
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


def modularity(g: WeightedGraph, labels) -> float:
    """Newman modularity Q of a labeling over the (weighted) graph.

    Q = (1/2m) sum_ij (w_ij - k_i k_j / 2m) delta(c_i, c_j) over ordered
    pairs including i = j (stored graphs have w_ii = 0).
    """
    labels = np.asarray(labels)
    if labels.shape != (g.n,):
        raise ValueError("labels must cover all nodes")
    two_m = g.total_weight_2m
    if two_m == 0:
        raise ValueError("modularity of an empty graph is undefined")
    src = g.directed_src()
    intra = labels[src] == labels[g.indices]
    s1 = float(g.weights[intra].sum())
    k = g.weighted_degree()
    d_per_cluster = np.bincount(labels, weights=k)
    return s1 / two_m - float((d_per_cluster**2).sum()) / two_m**2


def modularity_weight_grad(g: WeightedGraph, labels) -> np.ndarray:
    """dQ/dw per directed CSR entry (both entries of an edge share the value).

    Derivative of Q treating each undirected edge weight as one variable that
    feeds 2m, both endpoint degrees, and (when intra-cluster) the matched-weight
    sum.
    """
    labels = np.asarray(labels)
    two_m = g.total_weight_2m
    if two_m == 0:
        raise ValueError("modularity of an empty graph is undefined")
    src = g.directed_src()
    intra = (labels[src] == labels[g.indices]).astype(np.float64)
    s1 = float(g.weights[intra.astype(bool)].sum())
    k = g.weighted_degree()
    d_per_cluster = np.bincount(labels, weights=k)
    d_sq = float((d_per_cluster**2).sum())
    d_i = d_per_cluster[labels[src]]
    d_j = d_per_cluster[labels[g.indices]]
    return (
        2.0 * intra / two_m
        - 2.0 * s1 / two_m**2
        - 2.0 * (d_i + d_j) / two_m**2
        + 4.0 * d_sq / two_m**3
    )


@dataclass
class NegativeSampler:
    """Degree-biased negative-sample distribution (prob proportional to degree^0.75)."""

    probs: np.ndarray
    negatives: int

    @classmethod
    def for_graph(cls, g: WeightedGraph, negatives: int) -> "NegativeSampler":
        deg = g.weighted_degree()
        raw = deg**NEG_POWER
        total = raw.sum()
        probs = raw / total if total > 0 else np.full(g.n, 1.0 / g.n)
        return cls(probs=probs, negatives=negatives)


@dataclass(frozen=True)
class StructureSamples:
    """One positive neighbor and Q negatives per active (non-isolated) node."""

    active: np.ndarray  # bool mask, false for isolated nodes
    positives: np.ndarray  # (n,) neighbor id, arbitrary on inactive rows
    negatives: np.ndarray  # (n, Q) node ids, arbitrary on inactive rows


def draw_structure_samples(g: WeightedGraph, sampler: NegativeSampler, rng) -> StructureSamples:
    """Sample positives (weight-proportional neighbors) and negatives per node.

    Positives come from one ``rng.random(n)`` draw. Negatives follow the
    sampler's distribution, rejecting the node itself and its neighbors: one
    uniform stream, mapped to nodes through the cumulative distribution, is
    walked in node order, and each active node takes the first ``q``
    accepted draws after the previous node's last one. The stream is drawn
    in chunks of exactly the acceptances still missing, so no draw is made
    past the last one used. Neighbor membership is a binary search in the
    node's sorted CSR row. A node for which every node of positive sampling
    probability is excluded gets no negatives (its slots are masked as self).
    A node still short of negatives after ``SAMPLE_MAX_DRAWS`` draws raises
    RuntimeError. Deterministic for a given rng state.
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

    q = sampler.negatives
    negatives = np.zeros((n, q), dtype=np.int64)
    if q > 0 and active.any():
        # per node: drawable (positive-probability) nodes that are neither it nor a neighbor
        drawable = sampler.probs > 0
        nbr_drawable = np.bincount(g.directed_src()[drawable[g.indices]], minlength=n)
        valid_count = int(drawable.sum()) - drawable - nbr_drawable
        stuck = np.flatnonzero(active & (valid_count <= 0))
        negatives[stuck] = stuck[:, None]  # no valid negative exists; masked as self
        nodes = np.flatnonzero(active & (valid_count > 0))
        if nodes.size:
            negatives[nodes] = np.reshape(_walk_negatives(g, sampler, nodes.tolist(), rng), (-1, q))
    return StructureSamples(active=active, positives=positives, negatives=negatives)


def _walk_negatives(g: WeightedGraph, sampler: NegativeSampler, nodes: list[int], rng) -> list[int]:
    """The accepted negatives of ``nodes``, in order, from one rejection-sampled stream."""
    q = sampler.negatives
    cdf = np.cumsum(sampler.probs)
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
                raise _short_of_negatives(g, sampler, i, drawn - start, len(accepted) + q - done)
    return accepted


def _short_of_negatives(g, sampler, i, draws, found) -> RuntimeError:
    valid = np.ones(g.n, dtype=bool)
    valid[i] = False
    valid[g.indices[g.indptr[i] : g.indptr[i + 1]]] = False
    mass = float(sampler.probs[valid].sum())
    return RuntimeError(
        f"negative sampling for node {i} accepted {found} of {sampler.negatives} negatives "
        f"in {draws} draws; its valid probability mass is {mass:.3g}"
    )


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
