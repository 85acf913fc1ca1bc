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
one call.

The solve runs block by block: the rows are split, at row boundaries, into
blocks of at most _SOLVE_BLOCK_FLOATS values (a longer row is a block of its
own), and each block runs its Newton passes while it stays in cache. Every
row still takes the same number of passes, the first at which all rows have
converged: a block whose rows converged earlier runs the missing passes from
its saved tau afterwards. The output is the same bit for bit whatever the
block size. The VJP, the softmax limit and its VJP go through the same
blocks.

Working memory is the output plus one block: a block forms its shifted
scores from the input and the per-row maxima each time it is visited (a
block is almost always visited once per solve), and both solves write the
same output array. A row with a NaN or +inf score, or with only -inf
scores, raises ValueError before any Newton pass; a -inf among finite
scores gets an exact zero.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SOLVE_TOL", "SOLVE_MAX_PASSES",
    "segment_entmax", "segment_entmax_vjp", "segment_softmax", "segment_softmax_vjp",
]

SOLVE_TOL = 1e-10
SOLVE_MAX_PASSES = 100
_SETTLE_GRID = 2.0**30  # the final solve starts on this grid, within 1e-9 of the root
# values per row block (512 KB): a block's scores and a pass's temporaries stay
# in L2 through all of its Newton passes
_SOLVE_BLOCK_FLOATS = 65536


def _check_alpha(alpha: float) -> None:
    if not alpha > 1:
        raise ValueError(f"alpha must be > 1 (got {alpha}); the softmax limit is a separate code path")


# values is (m,) or (m, h); indptr splits axis 0 into rows. Rows must be
# non-empty (the attention layer always includes a self-loop).


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


def _non_finite(top) -> ValueError:
    """The error for the first row whose max scaled score is not finite."""
    bad = tuple(np.argwhere(~np.isfinite(top))[0])
    what = "a NaN score" if np.isnan(top[bad]) else (
        "a +inf score" if top[bad] > 0 else "only -inf scores")
    return ValueError(f"entmax row {int(bad[0])} has {what}")


def _block_passes(scores, p, tau, residual, slope, inv, block, done: int, until: int | None) -> int:
    """Run one block's Newton passes after its first ``done``; returns the new pass count.

    scores is (values, top, alpha - 1): the block's row-max-shifted scaled
    scores are formed here, once per visit, so no full-size copy exists.
    With ``until`` None the block stops at the first pass where all its rows
    have converged (raising at SOLVE_MAX_PASSES); otherwise it runs to pass
    ``until``. p, tau, residual and slope are updated in place.
    """
    values, top, scale = scores
    rows, vals, starts, lens = block
    z = scale * values[vals]
    z -= np.repeat(top[rows], lens, axis=0)
    out, t, r, s = p[vals], tau[rows], residual[rows], slope[rows]
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


def _newton(scores, p, tau, blocks, inv) -> None:
    """Newton passes on row-max-shifted scaled scores from a tau left of the root, into p and tau.

    Every row takes the same number of passes: the first at which all rows
    have converged. Each block runs in cache until its own rows converge;
    then the blocks that stopped early run the remaining passes from their
    saved tau, so the result does not depend on the block size.
    """
    residual, slope = np.empty_like(tau), np.empty_like(tau)
    state = (scores, p, tau, residual, slope, inv)
    done = [_block_passes(*state, block, 0, None) for block in blocks]
    target = max(done)
    while True:
        done = [_block_passes(*state, block, d, target) for block, d in zip(blocks, done)]
        if (np.abs(residual) <= SOLVE_TOL).all():
            return
        if target == SOLVE_MAX_PASSES:
            raise _unconverged(residual)
        target += 1


def segment_entmax(values, indptr, alpha: float) -> np.ndarray:
    """alpha-entmax applied independently to every row of a segmented array.

    values is (m,) or (m, h) and indptr splits axis 0 into non-empty rows.
    Raises ValueError for a row with a NaN or +inf score or with only -inf
    scores; a -inf among finite scores gets p = 0.
    """
    _check_alpha(alpha)
    values = np.asarray(values, dtype=np.float64)
    if np.any(np.diff(indptr) <= 0):
        raise ValueError("segments must be non-empty")
    scale = alpha - 1.0
    inv = 1.0 / scale
    blocks = _row_blocks(indptr, math.prod(values.shape[1:]))
    top = np.empty((indptr.size - 1,) + values.shape[1:])
    for rows, vals, starts, _ in blocks:
        np.maximum.reduceat(scale * values[vals], starts, axis=0, out=top[rows])
    if not np.isfinite(top).all():
        raise _non_finite(top)
    scores = (values, top, scale)
    p = np.empty_like(values)
    tau = np.full_like(top, -1.0)
    _newton(scores, p, tau, blocks, inv)
    # Newton's path crosses entries that end up off the support, so the root
    # carries their rounding. A second solve from the grid point just below
    # it depends only on the entries above that point: an exact zero then
    # has exactly no effect on p, as the VJP assumes.
    tau = np.floor(tau * _SETTLE_GRID) / _SETTLE_GRID
    _newton(scores, p, tau, blocks, inv)
    return p


def segment_entmax_vjp(p, indptr, alpha: float, upstream, out=None) -> np.ndarray:
    """Gradient w.r.t. the scores given the gradient u w.r.t. p, row by row, one row block at a time.

    On a row's support, with s_i = p_i^(2-alpha):
        g = s * u - s * (s . u) / sum(s)
    and exactly zero off-support. (The entmax Jacobian is symmetric, so the
    vector-Jacobian and Jacobian-vector products coincide.)

    p and upstream are (m,) or (m, h) arrays of any memory layout (the
    transpose of a head-major array works); each block is computed on a
    C-order copy, so the result does not depend on the layout. ``out``
    receives the gradient and may be ``upstream`` itself.
    """
    _check_alpha(alpha)
    if out is None:
        out = np.empty(p.shape)
    for _, vals, starts, lens in _row_blocks(indptr, math.prod(p.shape[1:])):
        pb = np.ascontiguousarray(p[vals])
        s = np.where(pb > 0, pb ** (2.0 - alpha), 0.0)
        su = s * np.ascontiguousarray(upstream[vals])
        dot = np.add.reduceat(su, starts, axis=0)
        ssum = np.add.reduceat(s, starts, axis=0)
        ratio = np.divide(dot, ssum, out=np.zeros_like(dot), where=ssum > 0)
        su -= s * np.repeat(ratio, lens, axis=0)
        out[vals] = su
    return out


def segment_softmax(values, indptr) -> np.ndarray:
    """Row-wise softmax on a segmented array (the entmax alpha -> 1 limit), block by block."""
    values = np.asarray(values, dtype=np.float64)
    p = np.empty_like(values)
    for _, vals, starts, lens in _row_blocks(indptr, math.prod(values.shape[1:])):
        vb = values[vals]
        e = vb - np.repeat(np.maximum.reduceat(vb, starts, axis=0), lens, axis=0)
        np.exp(e, out=e)
        np.divide(e, np.repeat(np.add.reduceat(e, starts, axis=0), lens, axis=0), out=p[vals])
    return p


def segment_softmax_vjp(p, indptr, upstream, out=None) -> np.ndarray:
    """Row-wise softmax gradient: g = p * (u - <p, u>), one row block at a time.

    Takes the layouts and ``out`` of ``segment_entmax_vjp``.
    """
    if out is None:
        out = np.empty(p.shape)
    for _, vals, starts, lens in _row_blocks(indptr, math.prod(p.shape[1:])):
        pb = np.ascontiguousarray(p[vals])
        ub = np.ascontiguousarray(upstream[vals])
        dot = np.add.reduceat(pb * ub, starts, axis=0)
        out[vals] = pb * (ub - np.repeat(dot, lens, axis=0))
    return out
