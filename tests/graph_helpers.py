"""Test-side readers of a WeightedGraph's CSR arrays: rows, edge lookup, an invariant scan."""

import numpy as np


def neighbors(g, i):
    """Sorted (neighbor, weight) pairs of node i."""
    lo, hi = g.indptr[i], g.indptr[i + 1]
    return list(zip(g.indices[lo:hi].tolist(), g.weights[lo:hi].tolist()))


def has_edge(g, u, v):
    lo, hi = g.indptr[u], g.indptr[u + 1]
    return bool(np.isin(v, g.indices[lo:hi]))


def assert_invariants(g):
    """Positive weights, no self-loops, strictly sorted rows, symmetric structure and weights."""
    assert g.indptr.shape == (g.n + 1,) and g.indptr[0] == 0 and g.indptr[-1] == g.indices.size
    assert np.all(np.diff(g.indptr) >= 0)
    assert np.all(g.weights > 0), "non-positive stored weight"
    src = g.directed_src()
    assert not np.any(src == g.indices), "stored self-loop"
    same_row = src[1:] == src[:-1]
    assert np.all(np.diff(g.indices)[same_row] > 0), "a row is not strictly sorted"
    order = np.lexsort((src, g.indices))
    assert np.array_equal(g.indices[order], src), "asymmetric structure"
    assert np.array_equal(g.weights[order], g.weights), "asymmetric weights"
