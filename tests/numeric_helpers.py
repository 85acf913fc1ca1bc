"""Test-side numeric references."""

import numpy as np

from wgclust.entmax import segment_entmax, segment_entmax_vjp


def softmax(z):
    """Softmax of one score vector, shifted by its maximum."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


def entmax(z, alpha):
    """alpha-entmax of one score vector: a one-row call of the segmented kernel."""
    z = np.asarray(z, dtype=np.float64)
    return segment_entmax(z, np.array([0, z.size]), alpha)


def entmax_vjp(p, alpha, upstream):
    """Gradient w.r.t. the scores of one row, given p = entmax(z, alpha) and the gradient w.r.t. p."""
    p = np.asarray(p, dtype=np.float64)
    return segment_entmax_vjp(p, np.array([0, p.size]), alpha, np.asarray(upstream, dtype=np.float64))
