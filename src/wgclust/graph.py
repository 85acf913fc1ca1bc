"""Undirected weighted graphs: CSR storage, file IO, synthetic benchmarks, noise injection.

Graphs are immutable after construction. Storage is symmetric CSR: every
undirected edge appears as two directed entries, rows sorted by node id and
neighbor ids sorted within each row. Absent edges are never stored; weights
are strictly positive 64-bit floats (fractional weights appear once training
starts refining them). Self-loops are rejected on input; the attention layer
synthesizes its own. Every graph names node i by the token ``node_ids[i]``
(``str(i)`` unless ids were given), and every writer uses those tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# characters read per block in load_edge_list (a block then ends at its last
# newline): a block's token lists are transient, so peak memory stays near that
# of the parsed arrays instead of growing with a whole file's tokens
_LOAD_BLOCK = 1 << 17
# lines formatted per write in save_edge_list: one string per block, without
# holding the whole file's line objects at once
_SAVE_BLOCK = 8192
# the largest mean numpy's Poisson sampler accepts (it raises "lam value too large" above)
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


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
    node_ids : tuple of str
        The token that names each node in files (position = dense id): the
        external ids of a loaded graph, ``str(i)`` when none are given. Every
        writer names node i by ``node_ids[i]``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    node_ids: tuple[str, ...] | None = None

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.weights):
            arr.flags.writeable = False
        if self.node_ids is None:
            object.__setattr__(self, "node_ids", tuple(map(str, range(self.n))))

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
        return np.bincount(self.directed_src(), weights=self.weights, minlength=self.n)

    def directed_src(self) -> np.ndarray:
        """Source node of every directed entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u, v, w) arrays of undirected edges with u < v, sorted by (u, v)."""
        src = self.directed_src()
        mask = src < self.indices
        return src[mask], self.indices[mask], self.weights[mask].copy()


@dataclass(frozen=True)
class LabeledGraph:
    """A graph plus ground-truth cluster ids in 0..K-1."""

    graph: WeightedGraph
    labels: np.ndarray
    cluster_count: int

    def __post_init__(self):
        if self.labels.shape != (self.graph.n,):
            raise ValueError("label array length must equal node count")
        if self.labels.dtype.kind not in "iu":
            whole = (np.floor(self.labels) == self.labels if self.labels.dtype.kind == "f"
                     else np.zeros(self.labels.shape, dtype=bool))
            if not whole.all():
                i = int(np.argmin(whole))
                raise ValueError(f"label {self.labels[i].item()!r} of node "
                                 f"{self.graph.node_ids[i]!r} is not an integer")
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
    lo, hi, w = _merge_duplicates(n, np.minimum(u, v), np.maximum(u, v), w)
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    ww = np.concatenate([w, w])
    order = np.argsort(src * n + dst)  # the keys are distinct now
    src, dst, ww = src[order], dst[order], ww[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return WeightedGraph(n=n, indptr=indptr, indices=dst, weights=ww, node_ids=node_ids)


def _merge_duplicates(n, lo, hi, w):
    """(lo, hi, w) sorted by (lo, hi), each repeated pair once with its weights summed."""
    key = lo * n + hi  # lexsort's (lo, hi) order; it fits in int64 while n < 3e9
    if not np.any(key[1:] <= key[:-1]):
        return lo, hi, w
    # any sort orders distinct keys alike; only duplicates need the stable
    # sort, which keeps them in input order so their weights sum in that order
    order = np.argsort(key)
    sorted_key = key[order]
    dup = np.zeros(key.size, dtype=bool)
    dup[1:] = sorted_key[1:] == sorted_key[:-1]
    if not dup.any():
        return lo[order], hi[order], w[order]
    order = np.argsort(key, kind="stable")
    first = order[~dup]
    return lo[first], hi[first], np.bincount(np.cumsum(~dup) - 1, weights=w[order])


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

    The file is read in blocks of whole lines, about ``_LOAD_BLOCK``
    characters each. A plain block, whose lines are all
    ``tok<TAB>tok<TAB>tok`` in printable ASCII without spaces, with non-empty
    fields, no leading ``#``, no self-loop and finite positive weights (as
    ``save_edge_list`` writes them for such tokens), is split and checked as
    one string. Any other block, with comments, blank or
    whitespace-separated lines, other text or any fault, takes a per-line
    loop, which alone names errors. Both give the same arrays and tokens.
    """
    lookup: dict[str, int] = {}
    blocks = []
    lineno = 1
    with open(path, encoding="utf-8") as fh:
        for text in _text_blocks(fh):
            block = _parse_plain_block(text, lookup)
            if block is None:
                block = _parse_edge_block(path, lineno, text.split("\n")[:-1], lookup)
            blocks.append(block)
            lineno += text.count("\n")
    if not lookup:
        raise ValueError(f"{path}: no edges")
    u, v, w = (np.concatenate(column) for column in zip(*blocks))
    return build_graph(len(lookup), u, v, w, node_ids=tuple(lookup))


def _text_blocks(fh):
    """The text of ``fh`` in blocks of whole lines, each ending in a newline."""
    tail = ""
    while chunk := fh.read(_LOAD_BLOCK):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        if cut:
            yield text[:cut]
    if tail:
        yield tail + "\n"


def _parse_plain_block(text: str, lookup: dict[str, int]):
    """(u, v, w) arrays of a plain block of edge-list lines, or None if it is not plain.

    Its bytes must be tabs, newlines and printable ASCII other than space,
    with exactly ``tok<TAB>tok<TAB>tok<NEWLINE>`` per line: then stripping
    changes no line and ``str.split`` yields each line's three tokens. A bad
    weight or a self-loop also returns None, and the per-line loop then
    raises the error that names it.
    """
    if not text.isascii():
        return None
    b = np.frombuffer(text.encode("ascii"), np.uint8)
    # every control byte or space is a tab or newline in the pattern, and no byte is DEL
    at = np.flatnonzero(b <= 32)
    if at.size % 3 or not (b[at].reshape(-1, 3) == (9, 9, 10)).all() or b.max() == 127:
        return None
    # no empty field, and no line starts with "#" (a comment)
    if at[0] == 0 or (np.diff(at) == 1).any() or b[0] == 35 or (b[at[2:-1:3] + 1] == 35).any():
        return None
    toks = text.split()
    wtoks = toks[2::3]
    del toks[2::3]  # toks is now u0, v0, u1, v1, ...
    try:
        w = np.fromiter(map(float, wtoks), np.float64, len(wtoks))
    except ValueError:
        return None
    if not (np.isfinite(w) & (w > 0)).all():
        return None
    u, v = _intern(toks, lookup)
    if (u == v).any():
        return None
    return u, v, w


def _intern(toks: list[str], lookup: dict[str, int]):
    """Dense ids of the tokens u0, v0, u1, v1, ... as (u, v); new tokens join ``lookup``.

    Most blocks bring no new token, so the lookup is tried first; the pass
    that numbers new tokens in order of first appearance runs only when it
    fails.
    """
    try:
        ids = np.fromiter(map(lookup.__getitem__, toks), np.int64, len(toks))
    except KeyError:
        fresh = [tok for tok in dict.fromkeys(toks) if tok not in lookup]
        lookup.update(zip(fresh, range(len(lookup), len(lookup) + len(fresh))))
        ids = np.fromiter(map(lookup.__getitem__, toks), np.int64, len(toks))
    return ids[0::2], ids[1::2]


def _parse_edge_block(path, first_lineno: int, raw: list[str], lookup: dict[str, int]):
    """(u, v, w) arrays of one block of edge-list lines; new node tokens join ``lookup``.

    Line by line: the first faulty line raises, its checks in the order field
    count, blank node token, weight parse, weight sign, self-loop.
    """
    us, vs, ws = [], [], []
    for lineno, line in enumerate(map(str.strip, raw), start=first_lineno):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 'u<TAB>v<TAB>w', got {line!r}")
        a, b, wtok = parts
        if not (a.strip() and b.strip()):
            raise ValueError(f"{path}: line {lineno}: empty node token in {line!r}")
        try:
            w = float(wtok)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: weight {wtok!r} is not a number") from None
        if not 0 < w < np.inf:  # also false for nan
            raise ValueError(f"{path}: line {lineno}: rejected non-positive weight {wtok}")
        if a == b:
            raise ValueError(f"{path}: line {lineno}: self-loop {a!r} in input")
        us.append(lookup.setdefault(a, len(lookup)))
        vs.append(lookup.setdefault(b, len(lookup)))
        ws.append(w)
    return (np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
            np.array(ws, dtype=np.float64))


def save_edge_list(g: WeightedGraph, path) -> None:
    """Write one `u<TAB>v<TAB>w` line per undirected edge, nodes named by their tokens.

    The weights are written as ``repr`` of the float, so they round-trip exactly.
    """
    u, v, w = g.edge_arrays()
    names = g.node_ids
    with open(path, "w", encoding="utf-8") as fh:
        for at in range(0, u.size, _SAVE_BLOCK):  # one write per block of lines
            block = slice(at, at + _SAVE_BLOCK)
            fh.write("".join([f"{names[a]}\t{names[b]}\t{x!r}\n" for a, b, x
                              in zip(u[block].tolist(), v[block].tolist(), w[block].tolist())]))


def save_id_map(g: WeightedGraph, path) -> None:
    """Persist the token -> dense-id remap table (`old<TAB>new`)."""
    with open(path, "w", encoding="utf-8") as fh:
        for dense, old in enumerate(g.node_ids):
            fh.write(f"{old}\t{dense}\n")


def load_labels(path) -> dict[str, int]:
    """Read a `node<TAB>label` file into {node token: label}.

    Every line is stripped; blank lines and lines starting with ``#`` are
    ignored, and a line without a tab is split on runs of whitespace instead.
    A row that is not two fields, a label that is not an integer or a node
    listed twice raises ``ValueError`` naming the file and line; so does a
    file with no rows.
    """
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}: line {lineno}"
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise ValueError(f"{where}: expected 'node<TAB>label', got {line!r}")
            node, label = parts
            if node in labels:
                raise ValueError(f"{where}: node {node!r} is listed twice")
            try:
                labels[node] = int(label)
            except ValueError:
                raise ValueError(f"{where}: label {label!r} is not an integer") from None
    if not labels:
        raise ValueError(f"{path}: no labels")
    return labels


def save_labels(labeled: LabeledGraph, path) -> None:
    """Write one `node<TAB>label` line per node, named by the graph's tokens."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{tok}\t{int(lab)}\n" for tok, lab in zip(labeled.graph.node_ids,
                                                           labeled.labels.tolist()))


def induce_subgraph(g: WeightedGraph, nodes: np.ndarray) -> WeightedGraph:
    """Subgraph on ``nodes`` (unique ids, in any order).

    Keeps exactly the edges with both endpoints selected, weights unchanged.
    ``nodes[i]`` becomes node i of the subgraph, whose tokens are its own
    dense ids (``str(i)``).
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    old_to_new = np.full(g.n, -1, dtype=np.int64)
    old_to_new[nodes] = np.arange(nodes.size)
    u, v, w = g.edge_arrays()
    keep = (old_to_new[u] >= 0) & (old_to_new[v] >= 0)
    return build_graph(nodes.size, old_to_new[u[keep]], old_to_new[v[keep]], w[keep])


def synth_weighted_sbm(n, K, p_in, p_out, w_in_mean, w_out_mean, seed) -> LabeledGraph:
    """Weighted stochastic block model with integer-valued weights.

    Nodes split into K near-equal contiguous blocks. An intra-block pair gets
    an edge with probability ``p_in`` and weight ``1 + Poisson(w_in_mean - 1)``;
    inter-block pairs analogously with ``p_out`` / ``w_out_mean``. Deterministic
    per seed. A weight mean below 1, or one whose ``mean - 1`` is above
    numpy's Poisson limit (about 9.22e18; this includes inf and nan), raises
    ``ValueError`` naming it.
    """
    if not (0 <= p_out < p_in <= 1):
        raise ValueError("need 0 <= p_out < p_in <= 1")
    for name, mean in (("w_in_mean", w_in_mean), ("w_out_mean", w_out_mean)):
        if not (1 <= mean and mean - 1.0 <= _POISSON_LAM_MAX):
            raise ValueError(
                f"{name} must be >= 1 and at most 1 + {_POISSON_LAM_MAX:.6g} "
                f"(numpy's Poisson limit), got {mean}"
            )
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


def inject_noise_edges(g, fraction, seed):
    """Add ``floor(fraction * |E|)`` uniformly random non-edges.

    Noise weights are drawn uniformly from the multiset of existing edge
    weights so noise is indistinguishable by weight alone. Returns (new
    graph, added edges as an (m, 2) int array of (u, v) pairs with u < v).
    A ``fraction`` that is not finite and >= 0 raises ``ValueError``.
    """
    if not (0 <= fraction < np.inf):
        raise ValueError(f"fraction must be finite and >= 0, got {fraction}")
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
    out = build_graph(
        g.n,
        np.concatenate([u, added[:, 0]]),
        np.concatenate([v, added[:, 1]]),
        np.concatenate([w, rng.choice(w, size=add, replace=True)]),
        node_ids=g.node_ids,
    )
    return out, added
