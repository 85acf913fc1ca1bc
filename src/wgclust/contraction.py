"""Cluster-oriented graph contraction.

Core nodes are picked by fusing density and distance ranks; the subgraph is
expanded around them with personalized PageRank importance and induced on the
selected nodes. All selections break ties by lowest node id, so contraction
is deterministic.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import WeightedGraph, induce_subgraph

if TYPE_CHECKING:  # scipy loads at the first call that needs it
    import scipy.sparse as sp

__all__ = [
    "ContractionConfig",
    "SubgraphSelection",
    "rank_score",
    "select_core_nodes",
    "personalized_pagerank",
    "contract",
]

PPR_TOL = 1e-10
PPR_MAX_ITER = 1000


@dataclass(frozen=True)
class ContractionConfig:
    """Knobs for core selection and subgraph expansion.

    core_count: number of core nodes (None = max(K, ceil(0.02 n)) at contract
    time). density_weight blends the density rank against the distance rank
    in [0, 1]. teleport is the PageRank restart probability in (0, 1].
    importance_threshold keeps a node when its best per-core PageRank score
    exceeds it.
    """

    core_count: int | None = None
    density_weight: float = 0.5
    teleport: float = 0.5
    importance_threshold: float = 0.0

    def __post_init__(self):
        # covers the float fields of subclasses too (TrainConfig calls this first)
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if not (0.0 <= self.density_weight <= 1.0):
            raise ValueError("density_weight must lie in [0, 1]")
        if not (0.0 < self.teleport <= 1.0):
            raise ValueError("teleport must lie in (0, 1]")
        if self.importance_threshold < 0:
            raise ValueError("importance_threshold must be >= 0")
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
    subgraph: WeightedGraph


def _length_csr(g: WeightedGraph) -> sp.csr_matrix:
    import scipy.sparse as sp

    return sp.csr_matrix((1.0 / g.weights, g.indices, g.indptr), shape=(g.n, g.n))


def _unreachable_sentinel(g: WeightedGraph) -> float:
    # Upper bound on any path length: n hops of the longest edge. Rounded
    # division is monotone, so 1/min(w) is exactly the largest 1/w.
    if g.num_edges == 0:
        return float(g.n)
    return g.n * (1.0 / float(g.weights.min()))


def _distance_sum(lengths: sp.csr_matrix, sentinel: float, cores) -> np.ndarray:
    from scipy.sparse.csgraph import dijkstra

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
    lowest id). Edge length is 1/w, so strong ties are short; an unreachable
    pair counts n times the longest edge, so a disconnected node ranks as
    maximally distant without infinities.
    """
    o = config.resolved_core_count(g.n, cluster_count)
    rho = g.weighted_degree()  # density: summed incident edge weight
    cores = [int(np.argmax(rho))]
    chosen = np.zeros(g.n, dtype=bool)
    chosen[cores] = True
    dist_sum = np.zeros(g.n)
    eps = config.density_weight
    lengths = _length_csr(g)
    sentinel = _unreachable_sentinel(g)
    # a candidate's density rank among the candidates: its rank among all
    # nodes minus the chosen cores with a smaller density
    dens_rank = rank_score(rho)
    for _ in range(o - 1):
        dens_rank -= rho > rho[cores[-1]]
        dist_sum += _distance_sum(lengths, sentinel, cores[-1:])
        candidates = np.flatnonzero(~chosen)
        score = eps * dens_rank[candidates] + (1.0 - eps) * rank_score(dist_sum[candidates])
        cores.append(int(candidates[np.argmax(score)]))
        chosen[cores[-1]] = True
    return np.array(cores, dtype=np.int64)


def personalized_pagerank(g: WeightedGraph, seed_nodes, teleport: float,
                          threshold: float | None = None) -> np.ndarray:
    """Restart-walk importance of every node relative to each seed node.

    Column j of the (n, k) result solves
    r = teleport * e_seed_j + (1 - teleport) * (W D^-1) r by power iteration
    to an L1 residual below 1e-10 and sums to 1. All columns share one
    transition matrix and advance together, one sparse-dense product per
    pass; a column leaves the iteration after the pass at which its own
    residual falls below the tolerance, so it takes exactly the passes a
    one-seed solve would. An isolated seed gets its indicator column. A
    column still running after 1000 passes raises ``RuntimeError`` naming
    its seed node.

    With a ``threshold`` θ only ``result.max(axis=1) > θ`` is promised: it
    equals the converged result's, while columns may stop early. After each
    pass, every later value r_ij of column j, the converged one included,
    lies within b_ij of the current one, the smaller of
    - b_j = (ρ_j + 1e-10)·(1 − teleport)/teleport, ρ_j the pass's L1 residual,
    - deg_i · max_k(|Δr_kj| / deg_k)·(1 − teleport)/teleport, Δr the pass's
      change, which is tighter for nodes of small weighted degree,
    each plus a rounding allowance (``_KeepDecisions`` derives both), and
    b_ij = 0 once the column converges. With B_i = max_j b_ij, a node is
    kept once a converged column has r_ij > θ or max_j r_ij − B_i > θ, and
    dropped once max_j r_ij + B_i ≤ θ; a column stops once the undecided
    nodes' largest r_ij plus their largest b_ij is ≤ θ, and the loop ends
    when every node is decided. A node within b of θ waits for its columns
    to converge and is then decided by the converged comparison.
    """
    import scipy.sparse as sp

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
    decisions = (None if threshold is None
                 else _KeepDecisions(g, r, active, teleport, threshold, deg, scale))
    # the running columns, contiguous: csr_matvecs sums each column in CSR
    # row order whatever the other columns, so a column's values do not
    # depend on which columns run beside it
    cur = r[:, active]
    passes = 0
    while active.size:
        if passes == PPR_MAX_ITER:
            raise RuntimeError(
                f"personalized pagerank from node {int(seeds[active[0]])} did not converge"
                f" (residual {residual[0]:.3e})"
            )
        nxt = (1.0 - teleport) * (trans @ cur)
        nxt[seeds[active], np.arange(active.size)] += teleport
        # one row per column, summed along the fast axis: the same pairwise
        # sum as for a single vector
        diff = np.abs(np.ascontiguousarray((nxt - cur).T))
        residual = diff.sum(axis=1)
        running = residual >= PPR_TOL
        if decisions is not None:
            running &= decisions.needed(nxt, diff, residual, running)
        if not running.all():
            r[:, active[~running]] = nxt[:, ~running]
            nxt = nxt[:, running]
            active, residual = active[running], residual[running]
        cur = nxt
        passes += 1
    return r


class _KeepDecisions:
    """The nodes whose ``max_j r_ij > threshold`` is not yet certain, pass by pass.

    ``undecided`` holds their ids and ``final`` their best score over the
    columns that have converged so far (-inf before any has).

    Why every later value of column j stays within b_ij of the current one.
    In exact arithmetic the differences d_s = x_{s+1} - x_s of the iterates
    obey d_{s+1} = c P d_s (c = 1 - teleport, P = W D^-1), so the passes
    after one with difference d move the column by at most
    sum_k c^k |P^k d| in total. Two norms do not grow under P: the L1 norm
    (P is column-stochastic) and ||v||_D = max_i |v_i| / deg_i (W is
    symmetric, so |(P v)_i| <= deg_i ||v||_D). Hence b_j = ρ_j c / (1 - c)
    bounds the whole column (ρ_j the pass's L1 residual; the solve's
    tolerance is added on top) and deg_i ||d||_D c / (1 - c) bounds node i.

    In floating point, with u the unit roundoff, d the longest CSR row and
    eta = 2 (d + 4) u, while 16 eta <= teleport:
    - P's column sums, and the row sums behind |(P v)_i| <= deg_i ||v||_D,
      exceed 1 by at most eta, so both norms shrink by q = c (1 + eta)^2,
      and 1 - q >= teleport / 2;
    - the iterates are >= 0 with L1 norm <= 2 and ||x||_D <= 2 / deg_min,
      by induction from the seed's indicator;
    - one pass rounds the sparse product, the scaling and the restart of
      each entry by at most eta times the entry (the dot-product bound
      gamma_d, Higham 2002, 3.1), plus at most (d + 3) 2^-1074 where it
      underflows; so the differences obey |d_{s+1}| <= q |d_s| + 2 delta in
      either norm, with delta = 2 eta (L1) or (2 eta + (d + 3) 2^-1074) /
      deg_min (D), and over at most 1000 passes they sum to at most
      q |d| / (1 - q) + 4000 delta / teleport;
    - q / (1 - q) exceeds c / teleport by at most 6 eta / teleport^2; the
      computed ρ_j (n terms summed) is low by at most 2 (n + 2) u relative,
      and the computed ||d||_D by at most 3 u; L1 residuals are <= 4.
    ``slack`` adds these terms to b_j, and ``node_gain`` and ``node_slack``
    to the per-node bound; ``at_theta`` = 2 u θ covers rounding θ +- b
    where b <= θ.
    """

    def __init__(self, g, r, active, teleport, threshold, deg, scale):
        self.threshold = threshold
        self.deg, self.scale = deg, scale
        u = np.finfo(np.float64).eps / 2
        row = int(np.diff(g.indptr).max(initial=0))
        eta = 2 * (row + 4) * u
        self.bounded = 16 * eta <= teleport  # else every column runs to convergence
        if self.bounded:
            self.gain = (1.0 - teleport) / teleport
            over = 6 * eta / teleport**2
            self.at_theta = 2 * u * threshold
            self.slack = (4 * over + 16 * (g.n + 2) * u / teleport + 8000 * eta / teleport
                          + self.at_theta)
            tiny = (row + 3) * np.finfo(np.float64).smallest_subnormal
            self.node_slack = (4000 * (2 * eta + tiny) / teleport
                               / deg[deg > 0].min(initial=math.inf))
            self.node_gain = (self.gain + over) * (1 + 8 * u)
        self.undecided = np.arange(g.n)
        done = np.ones(r.shape[1], dtype=bool)
        done[active] = False
        self.final = r[:, done].max(axis=1, initial=-np.inf)

    def needed(self, nxt, diff, residual, running) -> np.ndarray:
        """Decide what this pass certifies; True for each column still needed.

        ``diff`` is the pass's |nxt - previous| transposed, one row per
        column. Each test takes node i's largest bound over the columns (and
        column j's over the undecided nodes), so each costs one reduction.
        """
        if not self.bounded:
            return running
        theta = self.threshold
        und = self.undecided
        whole = np.where(running, (residual + PPR_TOL) * self.gain + self.slack, 0.0)
        spread = np.where(running, (diff * self.scale).max(axis=1) * self.node_gain
                          + self.node_slack, 0.0)
        sub = nxt[und]
        if not running.all():
            self.final = np.maximum(self.final, sub[:, ~running].max(axis=1))
        best = np.maximum(self.final, sub.max(axis=1, initial=-np.inf))
        # a per-node bound that overflows (or is 0 * inf) yields to the column bound
        with np.errstate(over="ignore", invalid="ignore"):
            widest = np.fmin(whole.max(initial=0.0),
                             self.deg[und] * spread.max(initial=0.0) + self.at_theta)
            open_ = (self.final <= theta) & (best - widest <= theta) & (best + widest > theta)
            self.undecided, self.final = und[open_], self.final[open_]
            if not self.undecided.size:
                return np.zeros(running.size, dtype=bool)
            reach = np.fmin(whole, self.deg[self.undecided].max() * spread + self.at_theta)
        return sub[open_].max(axis=0) + reach > theta


def contract(g: WeightedGraph, config: ContractionConfig, cluster_count=None) -> SubgraphSelection:
    """Select core nodes plus every node some core deems important.

    A node survives iff it is a core or max over cores of that core's
    PageRank score for it exceeds ``importance_threshold``. The PageRank
    solve gets the threshold, so it stops once a residual bound certifies
    every node's keep/drop decision (see ``personalized_pagerank``); the
    survivors are those of a fully converged solve. The subgraph is induced
    on the survivors with weights unchanged.
    """
    cores = select_core_nodes(g, config, cluster_count)
    theta = config.importance_threshold
    keep = personalized_pagerank(g, cores, config.teleport, theta).max(axis=1) > theta
    keep[cores] = True
    selected = np.flatnonzero(keep)
    subgraph = induce_subgraph(g, selected)
    return SubgraphSelection(selected=selected, core_nodes=np.sort(cores), subgraph=subgraph)
