"""Cluster-oriented graph contraction.

Core nodes are picked by fusing density and distance ranks; the subgraph is
expanded around them with personalized PageRank importance and induced on the
selected nodes. All selections break ties by lowest node id, so contraction
is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .graph import WeightedGraph, induce_subgraph

__all__ = [
    "ContractionConfig",
    "SubgraphSelection",
    "node_density",
    "distance_to_cores",
    "rank_score",
    "select_core_nodes",
    "personalized_pagerank",
    "contract",
]

PPR_TOL = 1e-10
PPR_MAX_ITER = 1000
DISTANCE_MODES = ("reciprocal", "unit")


@dataclass(frozen=True)
class ContractionConfig:
    """Knobs for core selection and subgraph expansion.

    core_count: number of core nodes (None = max(K, ceil(0.02 n)) at contract
    time). density_weight blends the density rank against the distance rank
    in [0, 1]. teleport is the PageRank restart probability in (0, 1].
    importance_threshold keeps a node when its best per-core PageRank score
    exceeds it. distance_mode is "reciprocal" (edge length 1/w, default) or
    "unit" (hop counts).
    """

    core_count: int | None = None
    density_weight: float = 0.5
    teleport: float = 0.5
    importance_threshold: float = 0.0
    distance_mode: str = "reciprocal"

    def __post_init__(self):
        if not (0.0 <= self.density_weight <= 1.0):
            raise ValueError("density_weight must lie in [0, 1]")
        if not (0.0 < self.teleport <= 1.0):
            raise ValueError("teleport must lie in (0, 1]")
        if self.importance_threshold < 0:
            raise ValueError("importance_threshold must be >= 0")
        if self.distance_mode not in DISTANCE_MODES:
            raise ValueError(f"distance_mode must be one of {DISTANCE_MODES}")
        if self.core_count is not None and self.core_count < 1:
            raise ValueError("core_count must be >= 1")

    def resolved_core_count(self, n: int, cluster_count: int | None = None) -> int:
        o = self.core_count
        if o is None:
            o = max(cluster_count or 1, math.ceil(0.02 * n))
        if o > n:
            raise ValueError(f"core_count {o} exceeds node count {n}")
        return o


@dataclass(frozen=True)
class SubgraphSelection:
    """Outcome of contraction: which nodes survived and the induced subgraph."""

    selected: np.ndarray
    core_nodes: np.ndarray
    old_to_new: np.ndarray
    subgraph: WeightedGraph


def node_density(g: WeightedGraph) -> np.ndarray:
    """Per-node density: the sum of incident edge weights."""
    return g.weighted_degree()


def _length_csr(g: WeightedGraph, mode: str) -> sp.csr_matrix:
    lengths = 1.0 / g.weights if mode == "reciprocal" else np.ones_like(g.weights)
    return sp.csr_matrix((lengths, g.indices, g.indptr), shape=(g.n, g.n))


def _unreachable_sentinel(g: WeightedGraph, mode: str) -> float:
    # Upper bound on any path length: n hops of the longest edge. Rounded
    # division is monotone, so 1/min(w) is exactly the largest 1/w.
    if g.num_edges == 0:
        return float(g.n)
    max_len = 1.0 / float(g.weights.min()) if mode == "reciprocal" else 1.0
    return g.n * max_len


def distance_to_cores(g: WeightedGraph, cores, mode: str = "reciprocal") -> np.ndarray:
    """Sum of shortest-path distances from every node to each core.

    Edge length is 1/w ("reciprocal", strong ties are short) or 1 ("unit").
    Unreachable pairs contribute the sentinel n * max_edge_length so
    disconnected nodes rank as maximally distant without infinities.
    """
    cores = np.asarray(cores, dtype=np.int64)
    if cores.size == 0:
        raise ValueError("core set is empty")
    return _distance_sum(_length_csr(g, mode), _unreachable_sentinel(g, mode), cores)


def _distance_sum(lengths: sp.csr_matrix, sentinel: float, cores) -> np.ndarray:
    # the stored CSR holds both directions of every edge, so a directed
    # search gives the undirected distances without a transpose per call
    dist = dijkstra(lengths, directed=True, indices=cores)
    dist[~np.isfinite(dist)] = sentinel
    return dist.sum(axis=0)


def rank_score(values) -> np.ndarray:
    """Rank-based scores where larger values earn higher scores.

    The best value scores n, the worst scores 1; ties share the worse of
    their positions, i.e. score = (#strictly smaller values) + 1.
    """
    values = np.asarray(values, dtype=np.float64)
    srt = np.sort(values)
    return np.searchsorted(srt, values, side="left") + 1.0


def select_core_nodes(g: WeightedGraph, config: ContractionConfig, cluster_count=None) -> np.ndarray:
    """Pick core nodes one by one.

    The first core is the densest node; each later round scores the remaining
    candidates by blending their density rank with the rank of summed
    distance to the cores chosen so far, and takes the argmax (ties to the
    lowest id).
    """
    o = config.resolved_core_count(g.n, cluster_count)
    rho = node_density(g)
    cores = [int(np.argmax(rho))]
    chosen = np.zeros(g.n, dtype=bool)
    chosen[cores] = True
    dist_sum = np.zeros(g.n)
    eps = config.density_weight
    lengths = _length_csr(g, config.distance_mode)
    sentinel = _unreachable_sentinel(g, config.distance_mode)
    for _ in range(o - 1):
        dist_sum += _distance_sum(lengths, sentinel, cores[-1:])
        candidates = np.flatnonzero(~chosen)
        score = eps * rank_score(rho[candidates]) + (1.0 - eps) * rank_score(dist_sum[candidates])
        cores.append(int(candidates[np.argmax(score)]))
        chosen[cores[-1]] = True
    return np.array(cores, dtype=np.int64)


def personalized_pagerank(g: WeightedGraph, seed_nodes, teleport: float) -> np.ndarray:
    """Restart-walk importance of every node relative to each seed node.

    Column j of the (n, k) result solves
    r = teleport * e_seed_j + (1 - teleport) * (W D^-1) r by power iteration
    to an L1 residual below 1e-10 and sums to 1. All columns share one
    transition matrix and advance together, one sparse-dense product per
    pass; a column leaves the iteration after the pass at which its own
    residual falls below the tolerance, so it takes exactly the passes a
    one-seed solve would. An isolated seed gets its indicator column. A
    column still above the tolerance after 1000 passes raises
    ``RuntimeError`` naming its seed node.
    """
    if not (0.0 < teleport <= 1.0):
        raise ValueError("teleport must lie in (0, 1]")
    seeds = np.asarray(seed_nodes, dtype=np.int64)
    r = np.zeros((g.n, seeds.size))
    r[seeds, np.arange(seeds.size)] = 1.0
    deg = g.weighted_degree()
    active = np.flatnonzero(deg[seeds] > 0)  # the walk never leaves an isolated seed
    scale = np.zeros(g.n)
    nz = deg > 0
    scale[nz] = 1.0 / deg[nz]
    # column-stochastic transition: entry (i, j) = w_ij / deg_j
    trans = sp.csr_matrix((g.weights * scale[g.indices], g.indices, g.indptr), shape=(g.n, g.n))
    passes = 0
    while active.size:
        if passes == PPR_MAX_ITER:
            raise RuntimeError(
                f"personalized pagerank from node {int(seeds[active[0]])} did not converge"
                f" (residual {residual[0]:.3e})"
            )
        cur = r[:, active]
        nxt = (1.0 - teleport) * (trans @ cur)
        nxt[seeds[active], np.arange(active.size)] += teleport
        # one row per column, summed along the fast axis: the same pairwise
        # sum as for a single vector
        residual = np.abs(np.ascontiguousarray((nxt - cur).T)).sum(axis=1)
        r[:, active] = nxt
        unconverged = residual >= PPR_TOL
        active, residual = active[unconverged], residual[unconverged]
        passes += 1
    return r


def contract(g: WeightedGraph, config: ContractionConfig, cluster_count=None) -> SubgraphSelection:
    """Select core nodes plus every node some core deems important.

    A node survives iff it is a core or max over cores of that core's
    PageRank score for it exceeds ``importance_threshold``. The subgraph is
    induced on the survivors with weights unchanged.
    """
    cores = select_core_nodes(g, config, cluster_count)
    best = personalized_pagerank(g, cores, config.teleport).max(axis=1)
    keep = best > config.importance_threshold
    keep[cores] = True
    selected = np.flatnonzero(keep)
    subgraph, old_to_new = induce_subgraph(g, selected)
    return SubgraphSelection(
        selected=selected, core_nodes=np.sort(cores), old_to_new=old_to_new, subgraph=subgraph
    )
