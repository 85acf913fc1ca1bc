"""alpha-entmax: a sparse normalizing transform solved by Newton's method.

For alpha in (1, 2] the transform maps a score vector z to
p_i = [(alpha-1) z_i - tau]_+^(1/(alpha-1)) with tau chosen so sum(p) = 1.
It interpolates softmax (alpha -> 1) and sparsemax (alpha = 2) and assigns
exact zeros to scores far enough below the maximum.

The threshold solves f(tau) = sum_i [z'_i - tau]_+^(1/(alpha-1)) - 1 = 0 on
the scaled scores z' = (alpha-1) z. Each row is first shifted so that its
maximum is 0 (entmax is shift-invariant), which keeps the solve accurate for
rows far from zero. f is convex and decreasing in tau, and f(-1) >= 0, so
Newton's method started at tau = -1 rises monotonically to the root without
a bracket (Blondel, Martins & Niculae 2020, "Learning with Fenchel-Young
Losses"). It stops when every row has |sum(p) - 1| <= 1e-10 and raises
FloatingPointError if some row has not converged after 100 passes. A second
short solve from just below the root makes the result independent of the
entries that end up off the support.

The kernel works on a flat value array split into contiguous rows by an
indptr, which is how the attention layer normalizes all nodes (and heads) in
one call; the single-vector API is a one-row call of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SOLVE_TOL = 1e-10
SOLVE_MAX_PASSES = 100
_SETTLE_GRID = 2.0**30  # the final solve starts on this grid, within 1e-9 of the root


@dataclass(frozen=True)
class EntmaxResult:
    """Probabilities, the solved threshold (scaled domain), and the support set."""

    p: np.ndarray
    tau: float
    support: np.ndarray


def _check_alpha(alpha: float) -> None:
    if not alpha > 1:
        raise ValueError(f"alpha must be > 1 (got {alpha}); the softmax limit is a separate code path")


def entmax_tau(z, alpha: float) -> float:
    """Solve for the threshold of a single score vector.

    The returned tau lives in the scaled domain, i.e.
    p = [ (alpha-1) z - tau ]_+^(1/(alpha-1)).
    """
    return entmax(z, alpha).tau


def entmax(z, alpha: float) -> EntmaxResult:
    """Normalize a score vector with alpha-entmax."""
    z = np.asarray(z, dtype=np.float64)
    if z.size == 0:
        raise ValueError("empty score vector")
    p, tau = _solve(z, np.array([0, z.size]), alpha)
    return EntmaxResult(p=p, tau=float(tau[0]), support=np.flatnonzero(p > 0))


def entmax_jvp(result: EntmaxResult, alpha: float, upstream) -> np.ndarray:
    """Gradient of the loss w.r.t. z given the gradient w.r.t. p.

    On the support, with s_i = p_i^(2-alpha):
        g = s * u - s * (s . u) / sum(s)
    and exactly zero off-support. (The entmax Jacobian is symmetric, so the
    vector-Jacobian and Jacobian-vector products coincide.)
    """
    p = result.p
    return segment_entmax_vjp(p, np.array([0, p.size]), alpha, np.asarray(upstream, dtype=np.float64))


def softmax(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# Segmented variants: values is (m,) or (m, h); indptr splits axis 0 into rows.
# Rows must be non-empty (the attention layer always includes a self-loop).
# ---------------------------------------------------------------------------


def _newton_pass(zs, tau, starts, lens, inv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One pass at tau: (p, per-row sum(p) - 1, per-row sum of the derivative's summand).

    p is built in place of x and the summand dies on return, so a pass holds
    two value-sized arrays besides the scores.
    """
    x = np.repeat(tau, lens, axis=0)
    np.subtract(zs, x, out=x)
    np.maximum(x, 0.0, out=x)
    # xq = x^(inv-1) is the derivative's summand; at alpha = 2 it is the
    # support indicator (0**0 would count off-support entries)
    xq = (x > 0).astype(np.float64) if inv == 1.0 else x ** (inv - 1.0)
    slope = np.add.reduceat(xq, starts, axis=0)
    p = np.multiply(xq, x, out=x)
    return p, np.add.reduceat(p, starts, axis=0) - 1.0, slope


def _newton(zs, tau, starts, lens, inv) -> tuple[np.ndarray, np.ndarray]:
    """Newton passes on row-max-shifted scaled scores from a tau left of the root."""
    for _ in range(SOLVE_MAX_PASSES):
        p, residual, slope = _newton_pass(zs, tau, starts, lens, inv)
        converged = np.abs(residual) <= SOLVE_TOL
        if converged.all():
            return p, tau
        tau = tau + residual / (inv * slope)
    bad = tuple(np.argwhere(~converged)[0])
    raise FloatingPointError(
        f"entmax did not converge in {SOLVE_MAX_PASSES} passes: row {int(bad[0])} "
        f"has |sum(p) - 1| = {abs(float(residual[bad])):.1e}"
    )


def _solve(values, indptr, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve every row's threshold; returns (p, tau).

    values is (m,) or (m, h) and indptr splits axis 0 into non-empty rows.
    tau is per row (and head), in the unshifted scaled domain.
    """
    _check_alpha(alpha)
    values = np.asarray(values, dtype=np.float64)
    if np.any(np.diff(indptr) <= 0):
        raise ValueError("segments must be non-empty")
    starts = indptr[:-1]
    lens = np.diff(indptr)
    zs = (alpha - 1.0) * values
    top = np.maximum.reduceat(zs, starts, axis=0)
    zs -= np.repeat(top, lens, axis=0)
    inv = 1.0 / (alpha - 1.0)
    _, tau = _newton(zs, np.full_like(top, -1.0), starts, lens, inv)
    # Newton's path crosses entries that end up off the support, so the root
    # carries their rounding. A second solve from the grid point just below
    # it depends only on the entries above that point: an exact zero then
    # has exactly no effect on p, as the VJP assumes.
    p, tau = _newton(zs, np.floor(tau * _SETTLE_GRID) / _SETTLE_GRID, starts, lens, inv)
    return p, tau + top


def segment_entmax(values, indptr, alpha: float) -> np.ndarray:
    """alpha-entmax applied independently to every row of a segmented array."""
    return _solve(values, indptr, alpha)[0]


def segment_entmax_vjp(p, indptr, alpha: float, upstream) -> np.ndarray:
    """Row-wise entmax gradient (see entmax_jvp) on a segmented array."""
    _check_alpha(alpha)
    starts = indptr[:-1]
    s = np.where(p > 0, p ** (2.0 - alpha), 0.0)
    su = s * upstream
    dot = np.add.reduceat(su, starts, axis=0)
    ssum = np.add.reduceat(s, starts, axis=0)
    ratio = np.divide(dot, ssum, out=np.zeros_like(dot), where=ssum > 0)
    su -= s * np.repeat(ratio, np.diff(indptr), axis=0)
    return su


def segment_softmax(values, indptr) -> np.ndarray:
    """Row-wise softmax on a segmented array (the entmax alpha -> 1 limit)."""
    values = np.asarray(values, dtype=np.float64)
    starts, lens = indptr[:-1], np.diff(indptr)
    shifted = values - np.repeat(np.maximum.reduceat(values, starts, axis=0), lens, axis=0)
    e = np.exp(shifted)
    return e / np.repeat(np.add.reduceat(e, starts, axis=0), lens, axis=0)


def segment_softmax_vjp(p, indptr, upstream) -> np.ndarray:
    """Row-wise softmax gradient: g = p * (u - <p, u>)."""
    dot = np.add.reduceat(p * upstream, indptr[:-1], axis=0)
    return p * (upstream - np.repeat(dot, np.diff(indptr), axis=0))
