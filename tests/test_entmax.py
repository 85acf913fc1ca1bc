"""Entmax against closed-form/sort-based oracles and a bisection reference, its gradient,
and its invariants."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgclust.entmax as entmax_module
from wgclust.entmax import (
    segment_entmax,
    segment_entmax_vjp,
    segment_softmax,
    segment_softmax_vjp,
)

from numeric_helpers import entmax, entmax_vjp, softmax


def sparsemax_oracle(z):
    """Exact sparsemax via the sorted cumulative-sum support condition."""
    z = np.asarray(z, dtype=np.float64)
    zs = np.sort(z)[::-1]
    css = np.cumsum(zs) - 1.0
    ks = np.arange(1, z.size + 1)
    support = ks[zs - css / ks > 0][-1]
    tau = css[support - 1] / support
    return np.maximum(z - tau, 0.0)


def bisection_reference(values, indptr, alpha, tol=1e-10, max_iter=100):
    """Segmented entmax by bisection on the bracket [max z' - 1, max z' - d^(1-alpha)].

    Stops when every row has |sum(p) - 1| <= tol or after max_iter passes;
    returns (p, per-row converged mask).
    """
    zs = (alpha - 1.0) * np.asarray(values, dtype=np.float64)
    starts = indptr[:-1]
    lens = np.diff(indptr).astype(np.float64)
    hi_anchor = np.maximum.reduceat(zs, starts, axis=0)
    if zs.ndim == 2:
        lens = lens[:, None]
    lo = hi_anchor - 1.0
    hi = hi_anchor - lens ** (1.0 - alpha)
    rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    for _ in range(max_iter):
        tau = 0.5 * (lo + hi)
        p = np.maximum(zs - tau[rows], 0.0) ** (1.0 / (alpha - 1.0))
        sums = np.add.reduceat(p, starts, axis=0)
        if np.abs(sums - 1.0).max() <= tol:
            break
        low = sums < 1.0
        hi = np.where(low, tau, hi)
        lo = np.where(low, lo, tau)
    return p, np.abs(sums - 1.0) <= tol


# The full-array solve that the blocked one replaced: it shifts every score
# up front and keeps both solves' outputs. The blocked solve must equal it
# bit for bit.


def reference_block_passes(zs, p, tau, residual, slope, inv, block, done, until):
    rows, vals, starts, lens = block
    z, out, t, r, s = zs[vals], p[vals], tau[rows], residual[rows], slope[rows]
    while until is None or done < until:
        if done:
            t += r / (inv * s)
        entmax_module._newton_pass(z, t, starts, lens, inv, out, r, s)
        done += 1
        if until is None and ((np.abs(r) <= entmax_module.SOLVE_TOL).all()
                              or done == entmax_module.SOLVE_MAX_PASSES):
            break
    return done


def reference_newton(zs, tau, blocks, inv):
    p = np.empty_like(zs)
    residual, slope = np.empty_like(tau), np.empty_like(tau)
    state = (zs, p, tau, residual, slope, inv)
    done = [reference_block_passes(*state, block, 0, None) for block in blocks]
    target = max(done)
    while True:
        done = [reference_block_passes(*state, block, d, target) for block, d in zip(blocks, done)]
        if (np.abs(residual) <= entmax_module.SOLVE_TOL).all():
            return p, tau
        assert target < entmax_module.SOLVE_MAX_PASSES
        target += 1


def reference_solve(values, indptr, alpha):
    lens = np.diff(indptr)
    zs = (alpha - 1.0) * np.asarray(values, dtype=np.float64)
    top = np.maximum.reduceat(zs, indptr[:-1], axis=0)
    zs -= np.repeat(top, lens, axis=0)
    inv = 1.0 / (alpha - 1.0)
    blocks = entmax_module._row_blocks(indptr, int(np.prod(zs.shape[1:])))
    _, tau = reference_newton(zs, np.full_like(top, -1.0), blocks, inv)
    grid = entmax_module._SETTLE_GRID
    return reference_newton(zs, np.floor(tau * grid) / grid, blocks, inv)[0]


def two_element_entmax_oracle(z, alpha):
    """Closed-form solve for length-2 vectors: either degenerate or symmetric split."""
    z = np.asarray(z, dtype=np.float64)
    hi, lo = (0, 1) if z[0] >= z[1] else (1, 0)
    gap = (alpha - 1.0) * (z[hi] - z[lo])
    if gap >= 1.0:  # support collapses
        out = np.zeros(2)
        out[hi] = 1.0
        return out
    # solve p^(a-1) - (1-p)^(a-1) = gap for p in [1/2, 1) by bisection
    lo_p, hi_p = 0.5, 1.0
    for _ in range(200):
        mid = 0.5 * (lo_p + hi_p)
        if mid ** (alpha - 1.0) - (1.0 - mid) ** (alpha - 1.0) < gap:
            lo_p = mid
        else:
            hi_p = mid
    out = np.empty(2)
    out[hi] = lo_p
    out[lo] = 1.0 - lo_p
    return out


class TestEntmaxTau:
    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            entmax([1.0, 2.0], 1.0)

    def test_two_equal_elements_split_evenly(self):
        for t in (-3.0, 0.0, 7.5):
            np.testing.assert_allclose(entmax([t, t], 1.5), [0.5, 0.5], atol=1e-9)

    def test_sparsemax_two_element_closed_form(self):
        np.testing.assert_allclose(entmax([0.6, 0.2], 2.0), [0.7, 0.3], atol=1e-8)

    def test_support_collapse(self):
        p = entmax([10.0, 0.0], 1.5)
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-10)
        assert list(np.flatnonzero(p > 0)) == [0]


class TestEntmax:
    def test_single_element(self):
        for alpha in (1.1, 1.55, 2.0):
            np.testing.assert_allclose(entmax([3.7], alpha), [1.0])

    def test_matches_sparsemax_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z = rng.normal(size=int(rng.integers(2, 9)))
            np.testing.assert_allclose(entmax(z, 2.0), sparsemax_oracle(z), atol=1e-8)

    def test_matches_softmax_near_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(-1, 1, size=int(rng.integers(2, 33)))
            np.testing.assert_allclose(entmax(z, 1.001), softmax(z), atol=1e-3)

    def test_two_element_closed_form_any_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.normal(size=2) * 2
            alpha = float(rng.uniform(1.05, 2.0))
            np.testing.assert_allclose(
                entmax(z, alpha), two_element_entmax_oracle(z, alpha), atol=1e-7
            )

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.normal(size=10) * 3
            assert abs(entmax(z, 1.55).sum() - 1.0) < 1e-8


class TestEntmaxJvp:
    def test_constant_upstream_gives_zero(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=7)
        g = entmax_vjp(entmax(z, 1.55), 1.55, np.full(7, 3.25))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_off_support_gradient_is_zero(self):
        p = entmax([5.0, 0.0, -5.0], 1.55)
        g = entmax_vjp(p, 1.55, np.array([1.0, 2.0, 3.0]))
        off = np.setdiff1d(np.arange(3), np.flatnonzero(p > 0))
        assert off.size > 0
        np.testing.assert_array_equal(g[off], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(57)
        z = rng.normal(size=6)
        u = rng.normal(size=6)
        alpha, h = 1.55, 1e-5
        analytic = entmax_vjp(entmax(z, alpha), alpha, u)
        fd = np.zeros(6)
        for i in range(6):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (entmax(zp, alpha) @ u - entmax(zm, alpha) @ u) / (2 * h)
        rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
        assert rel.max() < 1e-4


class TestInvariants:
    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 10_000),
        shift=st.floats(-50, 50),
        alpha=st.floats(1.05, 2.0),
    )
    def test_shift_invariance(self, seed, shift, alpha):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=6)
        np.testing.assert_allclose(entmax(z + shift, alpha), entmax(z, alpha), atol=1e-8)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=5)
        i = int(rng.integers(0, 5))
        before = entmax(z, 1.55)[i]
        z[i] += 0.3
        after = entmax(z, 1.55)[i]
        assert after >= before - 1e-10

    def test_sparsity_with_spread(self):
        # spread >= 4 at alpha = 1.55 guarantees the minimum never enters the support
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(4, 17))
            z = rng.normal(size=d)
            z[0] = z.max() + 0.0  # keep as is
            z[1] = z.max() - 4.0 - rng.random()  # force spread >= 4
            p = entmax(z, 1.55)
            assert (p == 0.0).any()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=8)
        perm = rng.permutation(8)
        np.testing.assert_allclose(entmax(z[perm], 1.55), entmax(z, 1.55)[perm], atol=1e-9)


class TestSegmented:
    def test_matches_single_vector_api(self):
        rng = np.random.default_rng(9)
        vals = rng.normal(size=(17, 3))
        indptr = np.array([0, 2, 5, 11, 17])
        for alpha in (1.3, 1.55, 2.0):
            p = segment_entmax(vals, indptr, alpha)
            for r in range(4):
                seg = slice(indptr[r], indptr[r + 1])
                for h in range(3):
                    np.testing.assert_allclose(
                        p[seg, h], entmax(vals[seg, h], alpha), atol=1e-9
                    )

    def test_vjp_matches_single_vector_api(self):
        rng = np.random.default_rng(10)
        vals = rng.normal(size=12)
        up = rng.normal(size=12)
        indptr = np.array([0, 4, 7, 12])
        p = segment_entmax(vals, indptr, 1.55)
        g = segment_entmax_vjp(p, indptr, 1.55, up)
        for r in range(3):
            seg = slice(indptr[r], indptr[r + 1])
            np.testing.assert_allclose(g[seg], entmax_vjp(p[seg], 1.55, up[seg]), atol=1e-12)
            s = np.where(p[seg] > 0, p[seg] ** 0.45, 0.0)
            expect = s * up[seg] - s * (s @ up[seg]) / s.sum()
            np.testing.assert_allclose(g[seg], expect, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.01, 1.1, 1.3, 1.55, 1.8, 2.0])
    def test_matches_bisection_reference(self, alpha):
        rng = np.random.default_rng(int(alpha * 100))
        checked = 0
        for scale in (1e-2, 1.0, 10.0, 1e3, 1e6):
            lens = rng.integers(1, 40, size=60)
            indptr = np.concatenate([[0], np.cumsum(lens)])
            vals = rng.normal(size=(indptr[-1], 2)) * scale
            ref, converged = bisection_reference(vals, indptr, alpha)
            p = segment_entmax(vals, indptr, alpha)
            rows = np.repeat(np.arange(lens.size), lens)
            keep = converged[rows]
            assert np.abs(p - ref)[keep].max() <= 1e-10
            np.testing.assert_array_equal((p == 0)[keep], (ref == 0)[keep])
            checked += int(converged.sum())
        assert checked >= 400

    def test_near_tie_rows_far_from_zero(self):
        # scores at 1e12 differ by a few ulps: unshifted, the threshold
        # cannot be resolved to the tolerance
        rng = np.random.default_rng(12)
        lens = rng.integers(2, 30, size=50)
        indptr = np.concatenate([[0], np.cumsum(lens)])
        vals = 1e12 + rng.normal(size=(indptr[-1], 3)) * 1e-3
        for alpha in (1.1, 1.55, 2.0):
            p = segment_entmax(vals, indptr, alpha)
            sums = np.add.reduceat(p, indptr[:-1], axis=0)
            np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-10)

    def test_pass_cap_raises(self, monkeypatch):
        monkeypatch.setattr(entmax_module, "SOLVE_MAX_PASSES", 1)
        vals = np.array([0.0, 0.5, 0.3, 0.2, 0.1])
        with pytest.raises(FloatingPointError, match=r"row 1 has \|sum\(p\) - 1\|"):
            segment_entmax(vals, np.array([0, 1, 5]), 1.55)
        # one row per block: the unconverged row is the third block's first
        # row, and the error names its index in the whole array
        monkeypatch.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", 1)
        vals = np.array([0.0, 2.0, 0.5, 0.3, 0.2, 0.1])
        indptr = np.array([0, 1, 2, 6])
        assert len(entmax_module._row_blocks(indptr, 1)) == 3
        with pytest.raises(FloatingPointError, match=r"row 2 has \|sum\(p\) - 1\|"):
            segment_entmax(vals, indptr, 1.55)

    @pytest.mark.parametrize("z, what", [
        ([np.nan, 1.0], "row 0 has a NaN score"),
        ([np.inf, 1.0], r"row 0 has a \+inf score"),
        ([np.inf, np.nan], "row 0 has a NaN score"),
        ([-np.inf, -np.inf], "row 0 has only -inf scores"),
    ])
    def test_non_finite_rows_raise_before_any_pass(self, monkeypatch, z, what):
        def no_pass(*args):
            raise AssertionError("a Newton pass ran")

        monkeypatch.setattr(entmax_module, "_newton_pass", no_pass)
        with pytest.raises(ValueError, match=what):
            entmax(z, 1.5)

    def test_first_non_finite_row_named(self):
        vals = np.array([[0.0, 1.0], [2.0, -np.inf], [-np.inf, -np.inf], [np.nan, 0.0]])
        # row 0 is fine: in each head a -inf is one of two scores
        with pytest.raises(ValueError, match="row 1 has only -inf scores"):
            segment_entmax(vals, np.array([0, 2, 3, 4]), 1.5)
        with pytest.raises(ValueError, match="row 1 has a NaN score"):
            segment_entmax(vals, np.array([0, 2, 4]), 1.5)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 2.0])
    def test_minus_inf_among_finite_scores_is_an_exact_zero(self, alpha):
        np.testing.assert_array_equal(entmax([-np.inf, 1.0], alpha), [0.0, 1.0])
        p = entmax([0.3, -np.inf, 0.1, -np.inf], alpha)
        np.testing.assert_array_equal(p[[1, 3]], 0.0)
        np.testing.assert_array_equal(p[[0, 2]], entmax([0.3, 0.1], alpha))

    def test_off_support_entries_do_not_move_p(self):
        rng = np.random.default_rng(57)
        z = rng.normal(size=6)
        for alpha in (1.1, 1.55, 2.0):
            p = entmax(z, alpha)
            off = np.flatnonzero(p == 0)
            for i in off:
                for h in (1e-5, -1e-5):
                    zp = z.copy()
                    zp[i] += h
                    np.testing.assert_array_equal(entmax(zp, alpha), p)

    def test_softmax_segments(self):
        rng = np.random.default_rng(11)
        vals = rng.normal(size=9)
        indptr = np.array([0, 3, 9])
        p = segment_softmax(vals, indptr)
        np.testing.assert_allclose(p[:3], softmax(vals[:3]), atol=1e-12)
        np.testing.assert_allclose(p[3:], softmax(vals[3:]), atol=1e-12)
        u = rng.normal(size=9)
        g = segment_softmax_vjp(p, indptr, u)
        # softmax gradient identity: p * (u - <p, u>)
        for seg in (slice(0, 3), slice(3, 9)):
            expect = p[seg] * (u[seg] - p[seg] @ u[seg])
            np.testing.assert_allclose(g[seg], expect, atol=1e-12)


@st.composite
def mixed_rows(draw):
    """Segmented scores with rows of mixed length and scale, so rows need different pass counts.

    One row is longer than the small blocks the tests force.
    """
    lens = draw(st.lists(st.integers(1, 12), min_size=1, max_size=12))
    lens.insert(draw(st.integers(0, len(lens))), draw(st.integers(20, 40)))
    heads = draw(st.sampled_from([0, 1, 3]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(lens)])
    shape = (indptr[-1],) if heads == 0 else (indptr[-1], heads)
    scale = np.repeat(10.0 ** rng.integers(-3, 4, size=len(lens)), lens)
    vals = rng.normal(size=shape) * (scale if heads == 0 else scale[:, None])
    return vals, indptr, rng.normal(size=shape)


class TestRowBlocks:
    """The solve and the VJP run block by block; the block size never changes a bit."""

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_rows(), alpha=st.sampled_from([1.1, 1.55, 2.0]),
           block=st.sampled_from([1, 5, 16]))
    def test_block_size_does_not_change_results(self, case, alpha, block):
        vals, indptr, up = case
        p = segment_entmax(vals, indptr, alpha)
        g = segment_entmax_vjp(p, indptr, alpha, up)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", block)
            p_b = segment_entmax(vals, indptr, alpha)
            g_b = segment_entmax_vjp(p_b, indptr, alpha, up)
        np.testing.assert_array_equal(p_b, p)
        np.testing.assert_array_equal(g_b, g)

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_rows(), alpha=st.sampled_from([1.1, 1.55, 2.0]),
           block=st.sampled_from([1, 5, 16]))
    def test_equals_the_full_array_solve(self, case, alpha, block):
        vals, indptr, _ = case
        ref_p = reference_solve(vals, indptr, alpha)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", block)
            p = segment_entmax(vals, indptr, alpha)
        np.testing.assert_array_equal(p, ref_p)

    @settings(max_examples=40, deadline=None)
    @given(case=mixed_rows(), alpha=st.sampled_from([1.1, 1.55, 2.0]),
           block=st.sampled_from([1, 5, 16]))
    def test_vjps_in_place_on_head_major_arrays(self, case, alpha, block):
        # the attention backward passes transposed (heads, entries) arrays
        # and lets the VJP overwrite its upstream gradient
        vals, indptr, up = case
        p, q = segment_entmax(vals, indptr, alpha), segment_softmax(vals, indptr)
        g = segment_entmax_vjp(p, indptr, alpha, up)
        dot = np.add.reduceat(q * up, indptr[:-1], axis=0)  # the whole-array softmax VJP
        g_soft = q * (up - np.repeat(dot, np.diff(indptr), axis=0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", block)
            for normalizer, probs, want in (("entmax", p, g), ("softmax", q, g_soft)):
                probs_t, buf = probs.T.copy().T, up.T.copy()  # buf is head-major
                if normalizer == "entmax":
                    segment_entmax_vjp(probs_t, indptr, alpha, buf.T, out=buf.T)
                else:
                    segment_softmax_vjp(probs_t, indptr, buf.T, out=buf.T)
                np.testing.assert_array_equal(buf.T, want)

    def test_working_memory_is_the_output_plus_one_block(self):
        # about 20 blocks of 4 heads; the full-array solve peaked at about 3x
        # the output (a scaled copy, a repeated max and the first solve's p)
        rng = np.random.default_rng(21)
        lens = rng.integers(20, 200, size=3000)
        indptr = np.concatenate([[0], np.cumsum(lens)])
        vals = rng.normal(size=(indptr[-1], 4)) * 3.0
        assert len(entmax_module._row_blocks(indptr, 4)) >= 10
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            p = segment_entmax(vals, indptr, 1.55)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * p.nbytes, peak / p.nbytes

    def test_blocks_that_converge_early_catch_up(self, monkeypatch):
        # a row of near-equal scores and a row of widely spread ones converge
        # after different pass counts; further passes still move the earlier
        # row's p in the last bits, so every block must end on the shared count
        counts = []
        run = entmax_module._block_passes

        def record(*args):
            done = run(*args)
            if args[-1] is None:
                counts.append(done)
            return done

        rng = np.random.default_rng(9)
        vals = np.concatenate([rng.normal(size=3) * 0.01, rng.normal(size=30) * 10.0])
        indptr = np.array([0, 3, 33])
        p = segment_entmax(vals, indptr, 1.55)
        monkeypatch.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", 1)
        monkeypatch.setattr(entmax_module, "_block_passes", record)
        p_b = segment_entmax(vals, indptr, 1.55)
        first_solve = counts[:2]
        assert first_solve[0] != first_solve[1]
        np.testing.assert_array_equal(p_b, p)

    def test_rows_split_at_row_boundaries(self):
        indptr = np.array([0, 3, 4, 10, 12, 13])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", 8)
            blocks = entmax_module._row_blocks(indptr, 2)  # 2 values per entry
        # at most 4 entries per block unless one row alone is longer
        assert [(b[0].start, b[0].stop) for b in blocks] == [(0, 2), (2, 3), (3, 5)]
        assert [(b[1].start, b[1].stop) for b in blocks] == [(0, 4), (4, 10), (10, 13)]
        np.testing.assert_array_equal(blocks[2][2], [0, 2])
        np.testing.assert_array_equal(blocks[2][3], [2, 1])


def test_submodule_import_yields_the_module():
    import types

    import wgclust.entmax as m

    assert isinstance(m, types.ModuleType)
    assert not hasattr(m, "entmax") and callable(m.segment_entmax)
