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

The solve runs block by block: the rows are split, at row boundaries, into
blocks of at most _SOLVE_BLOCK_FLOATS values (a longer row is a block of its
own), and each block runs its Newton passes while it stays in cache. Every
row still takes the same number of passes, the first at which all rows have
converged: a block whose rows converged earlier runs the missing passes from
its saved tau afterwards. The output is the same bit for bit whatever the
block size. The VJP goes through the same blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SOLVE_TOL = 1e-10
SOLVE_MAX_PASSES = 100
_SETTLE_GRID = 2.0**30  # the final solve starts on this grid, within 1e-9 of the root
# values per row block (512 KB): a block's scores and a pass's temporaries stay
# in L2 through all of its Newton passes
_SOLVE_BLOCK_FLOATS = 65536


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


def _row_blocks(indptr, width: int) -> list[tuple[slice, slice, np.ndarray, np.ndarray]]:
    """Split the rows into runs of at most _SOLVE_BLOCK_FLOATS values; a longer row is a block alone.

    width is the number of values per entry (the heads). Each block is
    (row slice, entry slice, block-local row starts, row lengths).
    """
    cap = max(1, _SOLVE_BLOCK_FLOATS // width)
    rows = indptr.size - 1
    blocks = []
    lo = 0
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(indptr, indptr[lo] + cap, side="right")) - 1)
        first = indptr[lo]
        blocks.append((slice(lo, hi), slice(first, indptr[hi]), indptr[lo:hi] - first,
                       np.diff(indptr[lo:hi + 1])))
        lo = hi
    return blocks


def _newton_pass(zs, tau, starts, lens, inv, p, residual, slope) -> None:
    """One pass at tau: p, per-row sum(p) - 1 and per-row sum of the derivative's summand, in place.

    The summand is the pass's one temporary besides the repeated threshold.
    """
    np.subtract(zs, np.repeat(tau, lens, axis=0), out=p)
    np.maximum(p, 0.0, out=p)
    # xq = x^(inv-1) is the derivative's summand; at alpha = 2 it is the
    # support indicator (0**0 would count off-support entries)
    xq = (p > 0).astype(np.float64) if inv == 1.0 else p ** (inv - 1.0)
    np.add.reduceat(xq, starts, axis=0, out=slope)
    np.multiply(xq, p, out=p)
    np.add.reduceat(p, starts, axis=0, out=residual)
    residual -= 1.0


def _unconverged(residual, first_row: int = 0) -> FloatingPointError:
    bad = tuple(np.argwhere(~(np.abs(residual) <= SOLVE_TOL))[0])
    return FloatingPointError(
        f"entmax did not converge in {SOLVE_MAX_PASSES} passes: row {first_row + int(bad[0])} "
        f"has |sum(p) - 1| = {abs(float(residual[bad])):.1e}"
    )


def _block_passes(zs, p, tau, residual, slope, inv, block, done: int, until: int | None) -> int:
    """Run one block's Newton passes after its first ``done``; returns the new pass count.

    With ``until`` None the block stops at the first pass where all its rows
    have converged (raising at SOLVE_MAX_PASSES); otherwise it runs to pass
    ``until``. p, tau, residual and slope are updated in place.
    """
    rows, vals, starts, lens = block
    z, out, t, r, s = zs[vals], p[vals], tau[rows], residual[rows], slope[rows]
    while until is None or done < until:
        if done:
            t += r / (inv * s)
        _newton_pass(z, t, starts, lens, inv, out, r, s)
        done += 1
        if until is None:
            if (np.abs(r) <= SOLVE_TOL).all():
                break
            if done == SOLVE_MAX_PASSES:
                raise _unconverged(r, rows.start)
    return done


def _newton(zs, tau, blocks, inv) -> tuple[np.ndarray, np.ndarray]:
    """Newton passes on row-max-shifted scaled scores from a tau left of the root.

    Every row takes the same number of passes: the first at which all rows
    have converged. Each block runs in cache until its own rows converge;
    then the blocks that stopped early run the remaining passes from their
    saved tau, so the result does not depend on the block size.
    """
    p = np.empty_like(zs)
    residual, slope = np.empty_like(tau), np.empty_like(tau)
    state = (zs, p, tau, residual, slope, inv)
    done = [_block_passes(*state, block, 0, None) for block in blocks]
    target = max(done)
    while True:
        done = [_block_passes(*state, block, d, target) for block, d in zip(blocks, done)]
        if (np.abs(residual) <= SOLVE_TOL).all():
            return p, tau
        if target == SOLVE_MAX_PASSES:
            raise _unconverged(residual)
        target += 1


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
    blocks = _row_blocks(indptr, math.prod(zs.shape[1:]))
    _, tau = _newton(zs, np.full_like(top, -1.0), blocks, inv)
    # Newton's path crosses entries that end up off the support, so the root
    # carries their rounding. A second solve from the grid point just below
    # it depends only on the entries above that point: an exact zero then
    # has exactly no effect on p, as the VJP assumes.
    p, tau = _newton(zs, np.floor(tau * _SETTLE_GRID) / _SETTLE_GRID, blocks, inv)
    return p, tau + top


def segment_entmax(values, indptr, alpha: float) -> np.ndarray:
    """alpha-entmax applied independently to every row of a segmented array."""
    return _solve(values, indptr, alpha)[0]


def segment_entmax_vjp(p, indptr, alpha: float, upstream) -> np.ndarray:
    """Row-wise entmax gradient (see entmax_jvp) on a segmented array, one row block at a time."""
    _check_alpha(alpha)
    grad = np.empty(p.shape)
    for _, vals, starts, lens in _row_blocks(indptr, math.prod(p.shape[1:])):
        pb = p[vals]
        s = np.where(pb > 0, pb ** (2.0 - alpha), 0.0)
        su = np.multiply(s, upstream[vals], out=grad[vals])
        dot = np.add.reduceat(su, starts, axis=0)
        ssum = np.add.reduceat(s, starts, axis=0)
        ratio = np.divide(dot, ssum, out=np.zeros_like(dot), where=ssum > 0)
        su -= s * np.repeat(ratio, lens, axis=0)
    return grad


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
