"""Entmax against closed-form/sort-based oracles and a bisection reference, its gradient,
and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgclust.entmax as entmax_module
from wgclust.entmax import (
    EntmaxResult,
    entmax,
    entmax_jvp,
    entmax_tau,
    segment_entmax,
    segment_entmax_vjp,
    segment_softmax,
    segment_softmax_vjp,
    softmax,
)


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
            entmax_tau([1.0, 2.0], 1.0)

    def test_two_equal_elements_split_evenly(self):
        for t in (-3.0, 0.0, 7.5):
            res = entmax([t, t], 1.5)
            np.testing.assert_allclose(res.p, [0.5, 0.5], atol=1e-9)

    def test_sparsemax_two_element_closed_form(self):
        res = entmax([0.6, 0.2], 2.0)
        assert res.tau == pytest.approx(-0.1, abs=1e-8)
        np.testing.assert_allclose(res.p, [0.7, 0.3], atol=1e-8)

    def test_support_collapse(self):
        res = entmax([10.0, 0.0], 1.5)
        np.testing.assert_allclose(res.p, [1.0, 0.0], atol=1e-10)
        assert list(res.support) == [0]


class TestEntmax:
    def test_single_element(self):
        for alpha in (1.1, 1.55, 2.0):
            res = entmax([3.7], alpha)
            np.testing.assert_allclose(res.p, [1.0])

    def test_matches_sparsemax_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            z = rng.normal(size=int(rng.integers(2, 9)))
            np.testing.assert_allclose(entmax(z, 2.0).p, sparsemax_oracle(z), atol=1e-8)

    def test_matches_softmax_near_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            z = rng.uniform(-1, 1, size=int(rng.integers(2, 33)))
            np.testing.assert_allclose(entmax(z, 1.001).p, softmax(z), atol=1e-3)

    def test_two_element_closed_form_any_alpha(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.normal(size=2) * 2
            alpha = float(rng.uniform(1.05, 2.0))
            np.testing.assert_allclose(
                entmax(z, alpha).p, two_element_entmax_oracle(z, alpha), atol=1e-7
            )

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = rng.normal(size=10) * 3
            assert abs(entmax(z, 1.55).p.sum() - 1.0) < 1e-8


class TestEntmaxJvp:
    def test_constant_upstream_gives_zero(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=7)
        res = entmax(z, 1.55)
        g = entmax_jvp(res, 1.55, np.full(7, 3.25))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_off_support_gradient_is_zero(self):
        res = entmax([5.0, 0.0, -5.0], 1.55)
        g = entmax_jvp(res, 1.55, np.array([1.0, 2.0, 3.0]))
        off = np.setdiff1d(np.arange(3), res.support)
        assert off.size > 0
        np.testing.assert_array_equal(g[off], 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(57)
        z = rng.normal(size=6)
        u = rng.normal(size=6)
        alpha, h = 1.55, 1e-5
        res = entmax(z, alpha)
        analytic = entmax_jvp(res, alpha, u)
        fd = np.zeros(6)
        for i in range(6):
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            fd[i] = (entmax(zp, alpha).p @ u - entmax(zm, alpha).p @ u) / (2 * h)
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
        np.testing.assert_allclose(entmax(z + shift, alpha).p, entmax(z, alpha).p, atol=1e-8)

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=5)
        i = int(rng.integers(0, 5))
        before = entmax(z, 1.55).p[i]
        z[i] += 0.3
        after = entmax(z, 1.55).p[i]
        assert after >= before - 1e-10

    def test_sparsity_with_spread(self):
        # spread >= 4 at alpha = 1.55 guarantees the minimum never enters the support
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(4, 17))
            z = rng.normal(size=d)
            z[0] = z.max() + 0.0  # keep as is
            z[1] = z.max() - 4.0 - rng.random()  # force spread >= 4
            p = entmax(z, 1.55).p
            assert (p == 0.0).any()

    @settings(max_examples=30)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=8)
        perm = rng.permutation(8)
        np.testing.assert_allclose(entmax(z[perm], 1.55).p, entmax(z, 1.55).p[perm], atol=1e-9)


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
                        p[seg, h], entmax(vals[seg, h], alpha).p, atol=1e-9
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
            res = EntmaxResult(p=p[seg], tau=0.0, support=np.flatnonzero(p[seg] > 0))
            np.testing.assert_allclose(g[seg], entmax_jvp(res, 1.55, up[seg]), atol=1e-12)
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
        tau = entmax_tau(vals[:5, 0], 1.55)
        expect = entmax(vals[:5, 0] - 1e12, 1.55).tau + 0.55 * 1e12
        assert tau == pytest.approx(expect, rel=1e-15)

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

    def test_off_support_entries_do_not_move_p(self):
        rng = np.random.default_rng(57)
        z = rng.normal(size=6)
        for alpha in (1.1, 1.55, 2.0):
            p = entmax(z, alpha).p
            off = np.flatnonzero(p == 0)
            for i in off:
                for h in (1e-5, -1e-5):
                    zp = z.copy()
                    zp[i] += h
                    np.testing.assert_array_equal(entmax(zp, alpha).p, p)

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
        p, tau = entmax_module._solve(vals, indptr, alpha)
        g = segment_entmax_vjp(p, indptr, alpha, up)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", block)
            p_b, tau_b = entmax_module._solve(vals, indptr, alpha)
            g_b = segment_entmax_vjp(p_b, indptr, alpha, up)
            np.testing.assert_array_equal(segment_entmax(vals, indptr, alpha), p)
        np.testing.assert_array_equal(p_b, p)
        np.testing.assert_array_equal(tau_b, tau)
        np.testing.assert_array_equal(g_b, g)

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
        p, tau = entmax_module._solve(vals, indptr, 1.55)
        monkeypatch.setattr(entmax_module, "_SOLVE_BLOCK_FLOATS", 1)
        monkeypatch.setattr(entmax_module, "_block_passes", record)
        p_b, tau_b = entmax_module._solve(vals, indptr, 1.55)
        first_solve = counts[:2]
        assert first_solve[0] != first_solve[1]
        np.testing.assert_array_equal(p_b, p)
        np.testing.assert_array_equal(tau_b, tau)

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
    assert callable(m.entmax) and callable(m.segment_entmax)
