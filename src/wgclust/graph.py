"""Undirected weighted graphs: CSR storage, file IO, synthetic benchmarks, noise injection.

Graphs are immutable after construction. Storage is symmetric CSR: every
undirected edge appears as two directed entries, rows sorted by node id and
neighbor ids sorted within each row. Absent edges are never stored; weights
are strictly positive 64-bit floats (fractional weights appear once training
starts refining them). Self-loops are rejected on input; the attention layer
synthesizes its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice, repeat

import numpy as np

__all__ = [
    "WeightedGraph",
    "LabeledGraph",
    "build_graph",
    "load_edge_list",
    "save_edge_list",
    "save_id_map",
    "load_labels",
    "save_labels",
    "induce_subgraph",
    "synth_weighted_sbm",
    "inject_noise_edges",
]

# lines per block in load_edge_list: a block's token lists are transient, so
# peak memory stays near that of the parsed arrays instead of growing with a
# whole file's tokens
_LOAD_BLOCK = 8192


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric weighted adjacency in CSR form.

    Attributes
    ----------
    n : int
        Node count; ids are dense 0..n-1.
    indptr : (n+1,) int64
        Row pointers into ``indices``/``weights``.
    indices : (2E,) int64
        Neighbor ids, sorted within each row.
    weights : (2E,) float64
        Positive edge weights; entry (i -> j) and (j -> i) carry the same value.
    node_ids : tuple of str, optional
        Original external ids (position = dense id) when the graph was loaded
        from a file with arbitrary ids.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    node_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.weights):
            arr.flags.writeable = False

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.indices.size // 2

    @property
    def total_weight_2m(self) -> float:
        """Sum over all ordered pairs, i.e. each undirected edge counted twice."""
        return float(self.weights.sum())

    def weighted_degree(self) -> np.ndarray:
        """Per-node sum of incident edge weights."""
        src = np.repeat(np.arange(self.n), np.diff(self.indptr))
        return np.bincount(src, weights=self.weights, minlength=self.n)

    def degree(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> list[tuple[int, float]]:
        """Sorted (neighbor, weight) pairs of node i."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return [(int(j), float(w)) for j, w in zip(self.indices[lo:hi], self.weights[lo:hi])]

    def directed_src(self) -> np.ndarray:
        """Source node of every directed entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays of undirected edges with u < v, sorted by (u, v)."""
        src = self.directed_src()
        mask = src < self.indices
        return src[mask], self.indices[mask], self.weights[mask].copy()

    def has_edge(self, u: int, v: int) -> bool:
        lo, hi = self.indptr[u], self.indptr[u + 1]
        k = np.searchsorted(self.indices[lo:hi], v)
        return k < hi - lo and self.indices[lo + k] == v

    def check_invariants(self) -> None:
        """Full-scan validation of symmetry, positivity, and sorted rows."""
        if np.any(self.weights <= 0):
            raise AssertionError("non-positive stored weight")
        src = self.directed_src()
        if np.any(src == self.indices):
            raise AssertionError("stored self-loop")
        for i in range(self.n):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            row = self.indices[lo:hi]
            if np.any(np.diff(row) <= 0):
                raise AssertionError(f"row {i} not strictly sorted")
        # symmetry with identical weights
        order = np.lexsort((src, self.indices))
        if not np.array_equal(self.indices[order], src):
            raise AssertionError("asymmetric structure")
        if not np.array_equal(self.weights[order], self.weights):
            raise AssertionError("asymmetric weights")


@dataclass(frozen=True)
class LabeledGraph:
    """A graph plus ground-truth cluster ids in 0..K-1."""

    graph: WeightedGraph
    labels: np.ndarray
    cluster_count: int

    def __post_init__(self):
        if self.labels.shape != (self.graph.n,):
            raise ValueError("label array length must equal node count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.cluster_count):
            raise ValueError("labels must lie in 0..K-1")
        self.labels.flags.writeable = False


def build_graph(n, u, v, w, node_ids=None) -> WeightedGraph:
    """Assemble a WeightedGraph from undirected edge arrays.

    Duplicate (u, v) pairs -- in either orientation -- have their weights
    summed. Self-loops and non-positive weights raise.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if u.size != v.size or u.size != w.size:
        raise ValueError("edge arrays must have equal length")
    if u.size:
        if u.min() < 0 or v.min() < 0 or max(u.max(), v.max()) >= n:
            raise ValueError("edge endpoint out of range")
        if np.any(u == v):
            raise ValueError("self-loops are not allowed")
        if np.any(w <= 0):
            raise ValueError("edge weights must be strictly positive")
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    # a stable sort on one int64 key is lexsort's (lo, hi) order, ties kept;
    # the key fits in int64 while n < 3e9
    order = np.argsort(lo * n + hi, kind="stable")
    lo, hi, w = lo[order], hi[order], w[order]
    if lo.size:
        dup = np.zeros(lo.size, dtype=bool)
        dup[1:] = (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])
        if dup.any():
            first = np.flatnonzero(~dup)
            group = np.cumsum(~dup) - 1
            wsum = np.bincount(group, weights=w)
            lo, hi, w = lo[first], hi[first], wsum
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    ww = np.concatenate([w, w])
    order = np.argsort(src * n + dst, kind="stable")
    src, dst, ww = src[order], dst[order], ww[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return WeightedGraph(n=n, indptr=indptr, indices=dst, weights=ww, node_ids=node_ids)


def load_edge_list(path) -> WeightedGraph:
    """Read a `u<TAB>v<TAB>w` edge list.

    Every line is stripped; blank lines and lines starting with ``#`` are
    ignored, and a line without a tab is split on runs of whitespace instead.
    Both node tokens must be non-blank, ``w`` is read by ``float`` and must be
    finite and positive, and self-loops are rejected; a violation raises
    ``ValueError`` naming the first offending line. External ids may be
    arbitrary tokens; they are remapped to dense 0..n-1 in order of first
    appearance and the original ids are kept on the returned graph
    (``node_ids``) so results can be joined back. Duplicate (u, v) lines have
    their weights summed and (u, v) equals (v, u).

    The file is read in blocks of ``_LOAD_BLOCK`` lines, and each block is
    split, converted and checked as whole arrays.
    """
    lookup: dict[str, int] = {}
    blocks = []
    lineno = 1
    with open(path, encoding="utf-8") as fh:
        while raw := list(islice(fh, _LOAD_BLOCK)):
            blocks.append(_parse_edge_block(path, lineno, raw, lookup))
            lineno += len(raw)
    if not lookup:
        raise ValueError(f"{path}: no edges")
    u, v, w = (np.concatenate(column) for column in zip(*blocks))
    return build_graph(len(lookup), u, v, w, node_ids=tuple(lookup))


def _parse_edge_block(path, first_lineno: int, raw: list[str], lookup: dict[str, int]):
    """(u, v, w) arrays of one block of edge-list lines; new node tokens join ``lookup``."""
    lines = list(map(str.strip, raw))
    keep = np.fromiter(map(len, lines), np.int64, len(lines)) > 0
    keep &= ~np.fromiter(map(str.startswith, lines, repeat("#")), bool, len(lines))
    linenos = first_lineno + np.flatnonzero(keep)
    kept = lines if keep.all() else list(compress(lines, keep))
    body = kept
    tabs = np.fromiter(map(str.count, body, repeat("\t")), np.int64, len(body))
    bare = np.flatnonzero(tabs == 0)
    if bare.size:  # whitespace-separated lines
        body = list(kept)
        for i in bare:
            body[i] = "\t".join(body[i].split())
            tabs[i] = body[i].count("\t")
    three = tabs == 2
    rows = body if three.all() else list(compress(body, three))
    toks = "\t".join(rows).split("\t") if rows else []
    wtoks = toks[2::3]
    del toks[2::3]  # toks is now u0, v0, u1, v1, ...
    try:
        w = np.fromiter(map(float, wtoks), np.float64, len(wtoks))
        not_number = np.zeros(len(wtoks), dtype=bool)
    except ValueError:
        parsed = [_float_or_none(tok) for tok in wtoks]
        not_number = np.array([x is None for x in parsed], dtype=bool)
        w = np.array([1.0 if x is None else x for x in parsed], dtype=np.float64)
    fresh = [tok for tok in dict.fromkeys(toks) if tok not in lookup]
    lookup.update(zip(fresh, range(len(lookup), len(lookup) + len(fresh))))
    ids = np.fromiter(map(lookup.__getitem__, toks), np.int64, len(toks))
    u, v = ids[0::2], ids[1::2]
    # a blank token is new to lookup: an earlier block holding one has raised
    blank = np.zeros(len(wtoks), dtype=bool)
    if not all(map(str.strip, fresh)):
        blank = np.array([not (a.strip() and b.strip()) for a, b in zip(toks[0::2], toks[1::2])])
    # per row, in the order the checks apply to one line
    faults = (blank, not_number, ~(np.isfinite(w) & (w > 0)), u == v)
    if not three.all() or np.logical_or.reduce(faults).any():
        _raise_first_fault(path, linenos, kept, three, faults, toks, wtoks)
    return u, v, w


def _float_or_none(tok: str):
    try:
        return float(tok)
    except ValueError:
        return None


def _raise_first_fault(path, linenos, kept, three, faults, toks, wtoks):
    """Raise the error of the block's first faulty line, in file order."""
    rows = np.flatnonzero(three)
    bad_row = np.logical_or.reduce(faults)
    first = min(np.flatnonzero(~three)[:1].tolist() + rows[bad_row][:1].tolist())
    where = f"{path}: line {int(linenos[first])}"
    if not three[first]:
        raise ValueError(f"{where}: expected 'u<TAB>v<TAB>w', got {kept[first]!r}")
    r = int(np.searchsorted(rows, first))
    blank, not_number, non_positive, _ = (mask[r] for mask in faults)
    if blank:
        raise ValueError(f"{where}: empty node token in {kept[first]!r}")
    if not_number:
        raise ValueError(f"{where}: weight {wtoks[r]!r} is not a number")
    if non_positive:
        raise ValueError(f"{where}: rejected non-positive weight {wtoks[r]}")
    raise ValueError(f"{where}: self-loop {toks[2 * r]!r} in input")


def save_edge_list(g: WeightedGraph, path) -> None:
    """Write one `u<TAB>v<TAB>w` line per undirected edge (decimal round-trip exact)."""
    u, v, w = g.edge_arrays()
    names = g.node_ids if g.node_ids is not None else None
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, x in zip(u, v, w):
            sa = names[a] if names else str(int(a))
            sb = names[b] if names else str(int(b))
            fh.write(f"{sa}\t{sb}\t{float(x)!r}\n")


def save_id_map(g: WeightedGraph, path) -> None:
    """Persist the external-id -> dense-id remap table (`old<TAB>new`)."""
    with open(path, "w", encoding="utf-8") as fh:
        names = g.node_ids if g.node_ids is not None else [str(i) for i in range(g.n)]
        for dense, old in enumerate(names):
            fh.write(f"{old}\t{dense}\n")


def load_labels(path, node_ids=None) -> np.ndarray:
    """Read a `node<TAB>label` file into a dense int array.

    ``node_ids`` (from a graph loaded out of the matching edge list) maps
    external node tokens to dense ids; without it node tokens must already be
    integers in 0..n-1. A negative node token or a node listed twice raises
    ``ValueError`` naming the file and line.
    """
    pairs: dict[int, int] = {}
    lookup = {tok: i for i, tok in enumerate(node_ids)} if node_ids is not None else None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'node<TAB>label'")
            tok, lab = parts
            if lookup is not None:
                if tok not in lookup:
                    continue  # label for a node absent from the graph
                node = lookup[tok]
            else:
                node = _line_int(path, lineno, "node", tok)
                if node < 0:
                    raise ValueError(f"{path}: line {lineno}: node {tok!r} is negative")
            if node in pairs:
                raise ValueError(f"{path}: line {lineno}: node {tok!r} is listed twice")
            pairs[node] = _line_int(path, lineno, "label", lab)
    if not pairs:
        raise ValueError(f"{path}: no labels")
    n = (max(pairs) + 1) if lookup is None else len(lookup)
    out = np.full(n, -1, dtype=np.int64)
    for node, lab in pairs.items():
        out[node] = lab
    if np.any(out < 0):
        missing = int(np.flatnonzero(out < 0)[0])
        raise ValueError(f"{path}: node {missing} has no label")
    return out


def _line_int(path, lineno: int, what: str, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: {what} {tok!r} is not an integer") from None


def save_labels(labels: np.ndarray, path, node_ids=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, lab in enumerate(labels):
            tok = node_ids[i] if node_ids is not None else str(i)
            fh.write(f"{tok}\t{int(lab)}\n")


def induce_subgraph(g: WeightedGraph, nodes: np.ndarray) -> tuple[WeightedGraph, np.ndarray]:
    """Subgraph on ``nodes`` (sorted unique ids); returns (subgraph, old_to_new).

    Keeps exactly the edges with both endpoints selected, weights unchanged.
    ``old_to_new[i]`` is the new id or -1 for unselected nodes.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[nodes] = np.arange(nodes.size)
    u, v, w = g.edge_arrays()
    keep = (old_to_new[u] >= 0) & (old_to_new[v] >= 0)
    sub = build_graph(nodes.size, old_to_new[u[keep]], old_to_new[v[keep]], w[keep])
    return sub, old_to_new


def synth_weighted_sbm(n, K, p_in, p_out, w_in_mean, w_out_mean, seed) -> LabeledGraph:
    """Weighted stochastic block model with integer-valued weights.

    Nodes split into K near-equal contiguous blocks. An intra-block pair gets
    an edge with probability ``p_in`` and weight ``1 + Poisson(w_in_mean - 1)``;
    inter-block pairs analogously with ``p_out`` / ``w_out_mean``. Deterministic
    per seed.
    """
    if not (0 <= p_out < p_in <= 1):
        raise ValueError("need 0 <= p_out < p_in <= 1")
    if w_in_mean < 1 or w_out_mean < 1:
        raise ValueError("weight means must be >= 1")
    if not (1 <= K <= n):
        raise ValueError("need 1 <= K <= n")
    rng = np.random.default_rng(seed)
    sizes = np.full(K, n // K, dtype=np.int64)
    sizes[: n % K] += 1
    labels = np.repeat(np.arange(K), sizes)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    keep = rng.random(iu.size) < np.where(same, p_in, p_out)
    means = np.where(same[keep], w_in_mean, w_out_mean)
    w = 1.0 + rng.poisson(means - 1.0)
    g = build_graph(n, iu[keep], ju[keep], w)
    return LabeledGraph(graph=g, labels=labels, cluster_count=K)


def inject_noise_edges(g, fraction, seed, unit_weight=False):
    """Add ``floor(fraction * |E|)`` uniformly random non-edges.

    Noise weights are drawn uniformly from the multiset of existing edge
    weights so noise is indistinguishable by weight alone; ``unit_weight``
    forces constant weight 1 instead. Returns (new graph, added edges as an
    (m, 2) int array of (u, v) pairs with u < v).
    """
    if fraction < 0:
        raise ValueError("fraction must be non-negative")
    m = g.num_edges
    add = int(np.floor(fraction * m))
    u, v, w = g.edge_arrays()
    if add == 0:
        return g, np.empty((0, 2), dtype=np.int64)
    capacity = g.n * (g.n - 1) // 2 - m
    if add > capacity:
        raise ValueError(f"cannot add {add} noise edges: only {capacity} non-edges remain")
    rng = np.random.default_rng(seed)
    existing = set(zip(u.tolist(), v.tolist()))
    chosen: list[tuple[int, int]] = []
    seen = set()
    while len(chosen) < add:
        a, b = int(rng.integers(0, g.n)), int(rng.integers(0, g.n))
        if a == b:
            continue
        pair = (a, b) if a < b else (b, a)
        if pair in existing or pair in seen:
            continue
        seen.add(pair)
        chosen.append(pair)
    added = np.array(chosen, dtype=np.int64)
    if unit_weight:
        new_w = np.ones(add)
    else:
        new_w = rng.choice(w, size=add, replace=True)
    out = build_graph(
        g.n,
        np.concatenate([u, added[:, 0]]),
        np.concatenate([v, added[:, 1]]),
        np.concatenate([w, new_w]),
        node_ids=g.node_ids,
    )
    return out, added
