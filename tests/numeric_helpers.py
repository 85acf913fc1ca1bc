"""Test-side numeric references and the finite-difference gradient check."""

import numpy as np

from wgclust.attention import (
    LayerParams,
    ModelParams,
    build_attention_structure,
    init_model_params,
    network_forward,
)
from wgclust.entmax import segment_entmax, segment_entmax_vjp
from wgclust.fcm import fcm_fit
from wgclust.losses import draw_structure_samples
from wgclust.trainer import FCM_ITERS, epoch_step

# the spawn keys of train's init and epoch streams, derived from config.seed
RNG_INIT, RNG_EPOCH = 0, 1


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


def copy_params(params):
    """A deep copy of a ModelParams: every array copied, so a probe can perturb it in place."""
    return ModelParams(
        embedding=params.embedding.copy(),
        layers=[LayerParams(w1=l.w1.copy(), w2=l.w2.copy(), gamma=l.gamma.copy())
                for l in params.layers],
    )


def _stream(seed, key):
    """The random stream ``train`` derives from ``seed`` under spawn key ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


def gradient_check(config, g, fd_step=1e-5):
    """Worst relative error between analytic and central-difference gradients.

    Labels and contrastive samples are drawn once and held fixed; every
    scalar parameter (embedding rows, both projection stacks, head fusion)
    is perturbed by +-fd_step. Both sides evaluate ``epoch_step``, the step
    ``train`` runs. Per coordinate the error is
    |g_a - g_fd| / max(|g_a| + |g_fd|, 1e-3 * gradient_scale, 1e-8), so
    coordinates far below the gradient's dominant magnitude are measured
    against that scale instead of their own finite-difference noise.
    """
    if g.n > 8:
        raise ValueError("gradient_check expects a tiny graph (n <= 8)")
    structure = build_attention_structure(g, config)
    params = init_model_params(
        g.n, config.layer_dims(), config.attn_dim, config.heads, _stream(config.seed, RNG_INIT)
    )
    h0 = network_forward(structure, params, config)[0]
    labels = fcm_fit(h0, min(3, g.n), iters=FCM_ITERS, seed=0, restarts=2).labels
    samples = draw_structure_samples(g, config.negatives, _stream(config.seed, RNG_EPOCH))

    def fixed(h, refined):
        return labels, samples

    def loss_of(model):
        return epoch_step(structure, model, config, fixed, backward=False)[0].total

    _, grads = epoch_step(structure, params, config, fixed)

    worst = 0.0
    probe = copy_params(params)
    scale = max(float(np.abs(a).max()) for a in grads.flat_arrays())
    for arr, g_arr in zip(probe.flat_arrays(), grads.flat_arrays()):
        flat = arr.reshape(-1)
        gflat = g_arr.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + fd_step
            up = loss_of(probe)
            flat[i] = keep - fd_step
            down = loss_of(probe)
            flat[i] = keep
            fd = (up - down) / (2.0 * fd_step)
            err = abs(gflat[i] - fd) / max(abs(gflat[i]) + abs(fd), 1e-3 * scale, 1e-8)
            worst = max(worst, err)
    return worst
