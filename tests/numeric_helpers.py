"""Test-side numeric references."""

import numpy as np


def softmax(z):
    """Softmax of one score vector, shifted by its maximum."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()
