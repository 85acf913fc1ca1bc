"""End-to-end training: contract, attend, cluster, refine weights, descend.

One epoch runs the attention network over the working (sub)graph, fits fuzzy
c-means on the representations, refines edge weights with the final-layer
attention, evaluates the combined objective, and applies a hand-derived
reverse-mode gradient step with adaptive-moment updates. Hard labels and the
drawn positive/negative samples are treated as constants within an epoch;
gradients reach the modularity term only through the attention coefficients
inside the edge-weight refinement.

Everything is seeded and reduction orders are fixed, so a (graph, K, config)
triple maps to a bit-identical trained model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionStructure,
    ForwardOptions,
    LayerParams,
    ModelParams,
    build_attention_structure,
    init_model_params,
    network_backward,
    network_forward_cached,
)
from .config import TrainConfig, config_to_text, parse_config_text
from .contraction import SubgraphSelection, contract
from .fcm import fcm_fit
# build_graph is not called here; benchmarks/tracing.py wraps it at this lookup site
from .graph import WeightedGraph, build_graph, induce_subgraph
from .losses import (
    LossBreakdown,
    NegativeSampler,
    draw_structure_samples,
    modularity,
    modularity_weight_grad,
    structure_loss_from_samples,
    structure_loss_grad,
    total_loss,
    update_edge_weights,
)

__all__ = ["TrainedModel", "train", "infer", "gradient_check", "save_checkpoint", "load_checkpoint"]

MIN_LOSS_IMPROVEMENT = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CHECKPOINT_VERSION = 2

# spawn keys for the independent random streams derived from config.seed
_RNG_INIT, _RNG_EPOCH, _RNG_FCM, _RNG_INFER, _RNG_SAMPLE_ABLATION = range(5)


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


class Adam:
    """Adaptive-moment updates (decay 0.9/0.999, eps 1e-8) over a list of arrays."""

    def __init__(self, shapes, learning_rate):
        self.lr = learning_rate
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


@dataclass
class TrainedModel:
    """Trained parameters plus everything needed to reproduce inference.

    ``structure`` is the attention structure of the input graph when
    training ran on all of it (no contraction); it is not saved, and
    ``infer`` reuses it when labelling that same graph object.
    """

    params: ModelParams
    cluster_count: int
    config: TrainConfig
    loss_history: list[LossBreakdown]
    selection: SubgraphSelection | None
    structure: AttentionStructure | None = field(default=None, repr=False, compare=False)

    def history_array(self) -> np.ndarray:
        return np.array(
            [[h.structure, h.modularity_loss, h.total, h.modularity_q] for h in self.loss_history]
        ).reshape(-1, 4)


def _forward_options(config: TrainConfig) -> ForwardOptions:
    return ForwardOptions(
        alpha=config.entmax_alpha,
        normalizer="softmax" if config.softmax_instead_of_entmax else "entmax",
        use_weight_factor=not config.drop_f_iz,
    )


def _select_training_graph(g, cluster_count, config):
    """Contract (or randomly sample, or pass through) the training graph."""
    if config.no_contraction:
        return None, g
    selection = contract(g, config, cluster_count)
    if config.random_sampling:
        rng = _rng(config.seed, _RNG_SAMPLE_ABLATION)
        nodes = np.sort(rng.choice(g.n, size=selection.selected.size, replace=False))
        subgraph, old_to_new = induce_subgraph(g, nodes)
        selection = SubgraphSelection(
            selected=nodes,
            core_nodes=np.empty(0, dtype=np.int64),
            old_to_new=old_to_new,
            subgraph=subgraph,
        )
    if selection.selected.size < cluster_count:
        raise ValueError(
            f"contraction kept {selection.selected.size} nodes, fewer than K={cluster_count}"
        )
    return selection, selection.subgraph


def _refinement_coeff_grad(working, refined, record, modularity_weight, labels, heads):
    """Gradient of the modularity term w.r.t. the final-layer coefficients.

    Scatters per-edge dQ/dw of the refined graph back onto the working
    graph's surviving directed entries (``refined.kept``), chains through
    w' = sym(attention) * w, and spreads over heads (the refinement uses the
    head average). Pruned edges contribute nothing.
    """
    dq_work = np.zeros(working.indices.size)
    dq_work[refined.kept] = modularity_weight_grad(refined, labels)
    # d total / d a_dir = modularity_weight * (-dQ/dw'_edge) * w_edge / 2
    d_edge_coeff = modularity_weight * (-dq_work) * working.weights * 0.5
    s = record.structure
    d_coeffs = np.zeros((s.src.size, heads))
    d_coeffs[s.edge_pos] = (d_edge_coeff / heads)[:, None]
    return d_coeffs


def _epoch_step(working, structure, model, opts, config, epoch_constants, backward=True):
    """One epoch: forward, refinement, objective and (unless ``backward`` is off) gradient.

    ``epoch_constants(h, refined)`` returns the (labels, samples) that stay
    fixed for the epoch: ``train`` clusters ``h`` and samples the refined
    graph, ``gradient_check`` returns the same pair every time. Returns
    (LossBreakdown, parameter gradients or None).
    """
    h_final, record, caches = network_forward_cached(structure, model, opts)
    refined = working if config.no_weight_update else update_edge_weights(working, record)
    if refined.num_edges == 0:
        raise RuntimeError("weight refinement pruned every edge")
    labels, samples = epoch_constants(h_final, refined)
    q = modularity(refined, labels)
    l_g = structure_loss_from_samples(h_final, samples)
    breakdown = total_loss(l_g, -q, config.modularity_weight)
    if not np.isfinite(breakdown.total):
        raise RuntimeError(f"training diverged (loss {breakdown.total})")
    if not backward:
        return breakdown, None
    d_h = structure_loss_grad(h_final, samples)
    d_coeffs = None
    if not config.no_weight_update and config.modularity_weight != 0.0:
        d_coeffs = _refinement_coeff_grad(
            working, refined, record, config.modularity_weight, labels, config.heads
        )
    grads = network_backward(structure, model, opts, caches, d_h, d_coeffs)
    return breakdown, grads


def train(g: WeightedGraph, cluster_count: int, config: TrainConfig) -> TrainedModel:
    """Run the full training loop on (a contraction of) the graph.

    Stops at ``config.epochs`` or once the total loss has failed to improve
    by at least 1e-5 for ``config.patience`` consecutive epochs (patience 0
    disables early stopping). Raises on divergence (non-finite loss) and when
    contraction keeps fewer than K nodes.
    """
    if cluster_count < 2:
        raise ValueError("cluster_count must be >= 2")
    selection, working = _select_training_graph(g, cluster_count, config)
    sub_nodes = selection.selected if selection is not None else np.arange(g.n)

    init_rng = _rng(config.seed, _RNG_INIT)
    params = init_model_params(g.n, config.layer_dims(), config.attn_dim, config.heads, init_rng)
    opts = _forward_options(config)
    epoch_rng = _rng(config.seed, _RNG_EPOCH)
    fcm_seed = int(_rng(config.seed, _RNG_FCM).integers(2**31))

    adam = Adam([a.shape for a in params.flat_arrays()], config.learning_rate)
    history: list[LossBreakdown] = []
    best_total = np.inf
    stall = 0
    structure = build_attention_structure(working, config.self_loop_mode)

    def cluster_and_sample(h, refined):
        assignment = fcm_fit(
            h, cluster_count, iters=config.fcm_iters, seed=fcm_seed, restarts=config.fcm_restarts
        )
        sampler = NegativeSampler.for_graph(refined, config.negatives)
        return assignment.labels, draw_structure_samples(refined, sampler, epoch_rng)

    for epoch in range(config.epochs):
        sub_model = ModelParams(embedding=params.embedding[sub_nodes], layers=params.layers)
        try:
            breakdown, grads = _epoch_step(
                working, structure, sub_model, opts, config, cluster_and_sample
            )
        except RuntimeError as exc:
            raise RuntimeError(f"epoch {epoch}: {exc}") from None
        history.append(breakdown)

        full_emb_grad = np.zeros_like(params.embedding)
        full_emb_grad[sub_nodes] = grads.embedding
        grads_full = ModelParams(embedding=full_emb_grad, layers=grads.layers)
        adam.step(params.flat_arrays(), grads_full.flat_arrays())

        if best_total - breakdown.total < MIN_LOSS_IMPROVEMENT:
            stall += 1
        else:
            stall = 0
        best_total = min(best_total, breakdown.total)
        if config.patience > 0 and stall >= config.patience:
            break

    return TrainedModel(
        params=params,
        cluster_count=cluster_count,
        config=config,
        loss_history=history,
        selection=selection,
        structure=structure if selection is None else None,
    )


def infer(g: WeightedGraph, model: TrainedModel, cluster_count: int | None = None,
          return_attention: bool = False):
    """Full-graph forward (no contraction) and a fresh fuzzy c-means fit on its output."""
    config = model.config
    k = cluster_count if cluster_count is not None else model.cluster_count
    if g.n != model.params.embedding.shape[0]:
        raise ValueError(
            f"graph has {g.n} nodes but the model embeds {model.params.embedding.shape[0]}"
        )
    structure = model.structure
    if structure is None or structure.graph is not g:
        structure = build_attention_structure(g, config.self_loop_mode)
    h, record, _ = network_forward_cached(structure, model.params, _forward_options(config))
    infer_seed = int(_rng(config.seed, _RNG_INFER).integers(2**31))
    assignment = fcm_fit(h, k, iters=config.fcm_iters, seed=infer_seed,
                         restarts=config.fcm_restarts)
    if return_attention:
        return assignment, record
    return assignment


def gradient_check(config: TrainConfig, g: WeightedGraph, fd_step: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Labels and contrastive samples are drawn once and held fixed; every
    scalar parameter (embedding rows, both projection stacks, head fusion)
    is perturbed by +-fd_step. Both sides evaluate the training epoch step.
    Per coordinate the error is
    |g_a - g_fd| / max(|g_a| + |g_fd|, 1e-3 * gradient_scale, 1e-8), so
    coordinates far below the gradient's dominant magnitude are measured
    against that scale instead of their own finite-difference noise.
    """
    if g.n > 8:
        raise ValueError("gradient_check expects a tiny graph (n <= 8)")
    structure = build_attention_structure(g, config.self_loop_mode)
    opts = _forward_options(config)
    params = init_model_params(
        g.n, config.layer_dims(), config.attn_dim, config.heads, _rng(config.seed, _RNG_INIT)
    )
    h0, _, _ = network_forward_cached(structure, params, opts)
    labels = fcm_fit(h0, min(3, g.n), iters=config.fcm_iters, seed=0, restarts=2).labels
    sampler = NegativeSampler.for_graph(g, config.negatives)
    samples = draw_structure_samples(g, sampler, _rng(config.seed, _RNG_EPOCH))

    def fixed(h, refined):
        return labels, samples

    def loss_of(model: ModelParams) -> float:
        return _epoch_step(g, structure, model, opts, config, fixed, backward=False)[0].total

    _, grads = _epoch_step(g, structure, params, opts, config, fixed)

    worst = 0.0
    probe = params.copy()
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


# ---------------------------------------------------------------------------
# Checkpoint IO: a versioned key-value container (numpy .npz, row-major arrays)
# ---------------------------------------------------------------------------


def save_checkpoint(model: TrainedModel, path) -> None:
    """Write the model as an .npz with documented keys (see README)."""
    data: dict[str, np.ndarray] = {
        "format_version": np.array(CHECKPOINT_VERSION),
        "config_text": np.array(config_to_text(model.config)),
        "cluster_count": np.array(model.cluster_count),
        "embedding": model.params.embedding,
        "layer_count": np.array(len(model.params.layers)),
        "loss_history": model.history_array(),
    }
    for i, layer in enumerate(model.params.layers):
        data[f"layer{i}_w1"] = layer.w1
        data[f"layer{i}_w2"] = layer.w2
        data[f"layer{i}_gamma"] = layer.gamma
    if model.selection is not None:
        data["selected_nodes"] = model.selection.selected
        data["core_nodes"] = model.selection.core_nodes
    np.savez(path, **data)


def _check_checkpoint_shapes(config: TrainConfig, params: ModelParams) -> None:
    """Raise ValueError naming the first array whose shape disagrees with the config."""
    dims, heads = config.layer_dims(), config.heads
    checks = [("embedding", params.embedding, params.embedding.shape[:1] + (dims[0],))]
    for i, (layer, d_in, d_out) in enumerate(zip(params.layers, dims[:-1], dims[1:])):
        checks += [
            (f"layer{i}_w1", layer.w1, (heads, d_in, config.attn_dim)),
            (f"layer{i}_w2", layer.w2, (heads, d_in, d_out)),
            (f"layer{i}_gamma", layer.gamma, (heads,)),
        ]
    for key, array, shape in checks:
        if array.shape != shape:
            raise ValueError(
                f"checkpoint key {key} has shape {array.shape}; config_text implies {shape}"
            )


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint written by save_checkpoint; reject arrays that disagree with its config."""
    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = parse_config_text(str(z["config_text"]))
        layer_count = int(z["layer_count"])
        if layer_count != config.layer_count:
            raise ValueError(
                f"checkpoint key layer_count is {layer_count}; config_text says {config.layer_count}"
            )
        layers = [
            LayerParams(w1=z[f"layer{i}_w1"], w2=z[f"layer{i}_w2"], gamma=z[f"layer{i}_gamma"])
            for i in range(layer_count)
        ]
        params = ModelParams(embedding=z["embedding"], layers=layers)
        _check_checkpoint_shapes(config, params)
        history = [
            LossBreakdown(structure=row[0], modularity_loss=row[1], total=row[2], modularity_q=row[3])
            for row in z["loss_history"]
        ]
        selection = None
        if "selected_nodes" in z:
            selected = z["selected_nodes"]
            old_to_new = np.full(params.embedding.shape[0], -1, dtype=np.int64)
            old_to_new[selected] = np.arange(selected.size)
            selection = SubgraphSelection(
                selected=selected,
                core_nodes=z["core_nodes"],
                old_to_new=old_to_new,
                subgraph=None,  # not needed after training; rebuildable from the source graph
            )
        return TrainedModel(
            params=params,
            cluster_count=int(z["cluster_count"]),
            config=config,
            loss_history=history,
            selection=selection,
        )


def write_loss_history(model: TrainedModel, path) -> None:
    """Loss history CSV: epoch,L_G,L_M,total,Q."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,L_G,L_M,total,Q\n")
        for e, h in enumerate(model.loss_history):
            fh.write(
                f"{e},{float(h.structure)!r},{float(h.modularity_loss)!r},"
                f"{float(h.total)!r},{float(h.modularity_q)!r}\n"
            )
