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

import zipfile
from dataclasses import astuple, dataclass

import numpy as np

from .attention import (
    LayerParams,
    ModelParams,
    build_attention_structure,
    init_model_params,
    network_backward,
    network_forward,
    network_forward_cached,
)
from .config import TrainConfig, config_to_text, parse_config_text
from .contraction import SubgraphSelection, contract
from .fcm import fcm_fit
# build_graph is not called here; benchmarks/tracing.py wraps it at this lookup site
from .graph import WeightedGraph, build_graph, induce_subgraph
from .losses import (
    draw_structure_samples,
    modularity,
    modularity_weight_grad,
    refinement_coeff_grad,
    structure_loss_from_samples,
    structure_loss_grad,
    total_loss,
    update_edge_weights,
)

__all__ = ["TrainedModel", "train", "infer", "gradient_check", "save_checkpoint", "load_checkpoint",
           "write_loss_history"]

MIN_LOSS_IMPROVEMENT = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CHECKPOINT_VERSION = 3

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

    ``loss_history`` has one row per epoch: L_G, L_M, total, Q.
    ``node_ids`` names the node of every embedding row: row i embeds the
    token ``node_ids[i]`` of the graph the model was trained on.
    """

    params: ModelParams
    cluster_count: int
    config: TrainConfig
    loss_history: np.ndarray
    selection: SubgraphSelection | None
    node_ids: tuple[str, ...]

    def params_for(self, g: WeightedGraph) -> ModelParams:
        """The parameters with the embedding rows in ``g``'s node order, matched by token.

        The model's own parameters when ``g`` names its nodes in the model's
        order. Raises ValueError when ``g`` has another node count, or names a
        node the model never saw.
        """
        if g.node_ids == self.node_ids:
            return self.params
        rows = self.params.embedding.shape[0]
        if g.n != rows:
            raise ValueError(f"graph has {g.n} nodes but the model embeds {rows}")
        row_of = dict(zip(self.node_ids, range(rows)))
        try:
            order = [row_of[token] for token in g.node_ids]
        except KeyError as exc:
            raise ValueError(f"graph node {exc.args[0]!r} is not one the model embeds") from None
        return ModelParams(embedding=self.params.embedding[order], layers=self.params.layers)


def _select_training_graph(g, cluster_count, config):
    """Contract (or randomly sample, or pass through) the training graph."""
    if config.no_contraction:
        return None, g
    selection = contract(g, config, cluster_count)
    if config.random_sampling:
        rng = _rng(config.seed, _RNG_SAMPLE_ABLATION)
        nodes = np.sort(rng.choice(g.n, size=selection.selected.size, replace=False))
        selection = SubgraphSelection(
            selected=nodes,
            core_nodes=np.empty(0, dtype=np.int64),
            subgraph=induce_subgraph(g, nodes),
        )
    if selection.selected.size < cluster_count:
        raise ValueError(
            f"contraction kept {selection.selected.size} nodes, fewer than K={cluster_count}"
        )
    return selection, selection.subgraph


def _epoch_step(structure, model, config, epoch_constants, backward=True):
    """One epoch: forward, refinement, objective and (unless ``backward`` is off) gradient.

    The working graph is the one ``structure`` was built on. The record's
    edge attention refines its weights; the modularity gradient goes back
    through ``refinement_coeff_grad`` into ``network_backward`` as the
    gradient of that edge attention.

    ``epoch_constants(h, refined)`` returns the (labels, samples) that stay
    fixed for the epoch: ``train`` clusters ``h`` and samples the refined
    graph, ``gradient_check`` returns the same pair every time. Returns
    (LossBreakdown, parameter gradients or None).
    """
    working = structure.graph
    h_final, record = network_forward_cached(structure, model, config)
    if config.no_weight_update:
        refined = working
    else:
        refined = update_edge_weights(working, record.edge_attention())
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
    if config.no_weight_update or config.modularity_weight == 0.0:
        return breakdown, network_backward(record, model, config, d_h)
    # passed unnamed, so that network_backward holds the only reference and can drop it
    return breakdown, network_backward(record, model, config, d_h, refinement_coeff_grad(
        working, refined, config.modularity_weight * -modularity_weight_grad(refined, labels)
    ))


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
    epoch_rng = _rng(config.seed, _RNG_EPOCH)
    fcm_seed = int(_rng(config.seed, _RNG_FCM).integers(2**31))

    # Only the working graph's rows get a gradient, so Adam's state covers
    # only those rows; a row whose gradient is always 0 would keep m = v = 0
    # and move by exactly 0, so the result is the same as over the full table.
    work = ModelParams(embedding=params.embedding[sub_nodes], layers=params.layers)
    adam = Adam([a.shape for a in work.flat_arrays()], config.learning_rate)
    history = []
    best_total = np.inf
    stall = 0
    structure = build_attention_structure(working, config)

    def cluster_and_sample(h, refined):
        assignment = fcm_fit(
            h, cluster_count, iters=config.fcm_iters, seed=fcm_seed, restarts=config.fcm_restarts
        )
        return assignment.labels, draw_structure_samples(refined, config.negatives, epoch_rng)

    for epoch in range(config.epochs):
        try:
            breakdown, grads = _epoch_step(structure, work, config, cluster_and_sample)
        except (RuntimeError, FloatingPointError) as exc:
            raise type(exc)(f"epoch {epoch}: {exc}") from None
        history.append(astuple(breakdown))
        adam.step(work.flat_arrays(), grads.flat_arrays())

        if best_total - breakdown.total < MIN_LOSS_IMPROVEMENT:
            stall += 1
        else:
            stall = 0
        best_total = min(best_total, breakdown.total)
        if config.patience > 0 and stall >= config.patience:
            break

    params.embedding[sub_nodes] = work.embedding
    return TrainedModel(
        params=params,
        cluster_count=cluster_count,
        config=config,
        loss_history=np.array(history).reshape(-1, 4),
        selection=selection,
        node_ids=g.node_ids,
    )


def infer(g: WeightedGraph, model: TrainedModel, cluster_count: int | None = None):
    """Full-graph forward (no contraction, no backward state) and a fresh fuzzy c-means fit.

    Each node of ``g`` gets the embedding row of its token (``model.params_for``).
    Raises ValueError when ``g`` and the model disagree on the node count, or
    when ``g`` names a node the model never saw.
    """
    config = model.config
    k = cluster_count if cluster_count is not None else model.cluster_count
    params = model.params_for(g)
    h = network_forward(build_attention_structure(g, config), params, config)[0]
    infer_seed = int(_rng(config.seed, _RNG_INFER).integers(2**31))
    return fcm_fit(h, k, iters=config.fcm_iters, seed=infer_seed, restarts=config.fcm_restarts)


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
    structure = build_attention_structure(g, config)
    params = init_model_params(
        g.n, config.layer_dims(), config.attn_dim, config.heads, _rng(config.seed, _RNG_INIT)
    )
    h0 = network_forward(structure, params, config)[0]
    labels = fcm_fit(h0, min(3, g.n), iters=config.fcm_iters, seed=0, restarts=2).labels
    samples = draw_structure_samples(g, config.negatives, _rng(config.seed, _RNG_EPOCH))

    def fixed(h, refined):
        return labels, samples

    def loss_of(model: ModelParams) -> float:
        return _epoch_step(structure, model, config, fixed, backward=False)[0].total

    _, grads = _epoch_step(structure, params, config, fixed)

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
        "node_ids": _node_id_array(model.node_ids),
        "layer_count": np.array(len(model.params.layers)),
        "loss_history": model.loss_history,
    }
    for i, layer in enumerate(model.params.layers):
        data[f"layer{i}_w1"] = layer.w1
        data[f"layer{i}_w2"] = layer.w2
        data[f"layer{i}_gamma"] = layer.gamma
    if model.selection is not None:
        data["selected_nodes"] = model.selection.selected
        data["core_nodes"] = model.selection.core_nodes
    np.savez(path, **data)


def _node_id_array(node_ids) -> np.ndarray:
    """The tokens as a 1-D str array; ValueError naming a token the array cannot hold.

    A numpy str array drops trailing NUL characters, so such a token would
    come back as another one.
    """
    array = np.array(node_ids, dtype=str)
    for token, stored in zip(node_ids, array.tolist()):
        if token != stored:
            raise ValueError(f"node token {token!r} cannot be stored in a checkpoint")
    return array


def _check_checkpoint_shapes(config: TrainConfig, params: ModelParams) -> None:
    """Raise ValueError naming the first array that is not float or disagrees with the config."""
    dims, heads = config.layer_dims(), config.heads
    checks = [("embedding", params.embedding, params.embedding.shape[:1] + (dims[0],))]
    for i, (layer, d_in, d_out) in enumerate(zip(params.layers, dims[:-1], dims[1:])):
        checks += [
            (f"layer{i}_w1", layer.w1, (heads, d_in, config.attn_dim)),
            (f"layer{i}_w2", layer.w2, (heads, d_in, d_out)),
            (f"layer{i}_gamma", layer.gamma, (heads,)),
        ]
    for key, array, shape in checks:
        if array.dtype.kind != "f":
            raise ValueError(f"checkpoint key {key} has dtype {array.dtype}; expected floats")
        if array.shape != shape:
            raise ValueError(
                f"checkpoint key {key} has shape {array.shape}; config_text implies {shape}"
            )


# what np.load and reading an archive member raise on a malformed file
_UNREADABLE = (ValueError, EOFError, zipfile.BadZipFile)


def _open_checkpoint(fh, path):
    """np.load the open file as an .npz archive; ValueError naming the file when it is not one."""
    try:
        archive = np.load(fh, allow_pickle=False)
    except _UNREADABLE as exc:
        raise ValueError(f"{path} is not a readable checkpoint archive ({exc})") from None
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise ValueError(f"{path} is not a checkpoint archive: it holds a single .npy array")
    return archive


def load_checkpoint(path) -> TrainedModel:
    """Read a checkpoint written by save_checkpoint.

    Raises ValueError naming the file when it is not an .npz archive, and
    naming the key when one is missing or unreadable, a float array holds a
    NaN or inf, a scalar key is not a 0-d integer (or string, for
    config_text), or an array disagrees with the checkpoint's config.
    """
    with open(path, "rb") as fh, _open_checkpoint(fh, path) as z:
        def get(key: str) -> np.ndarray:
            if key not in z:
                raise ValueError(f"checkpoint lacks key {key}")
            try:
                value = z[key]
            except _UNREADABLE as exc:
                raise ValueError(f"checkpoint key {key} is unreadable ({exc})") from None
            if value.dtype.kind == "f" and not np.isfinite(value).all():
                raise ValueError(f"checkpoint key {key} holds a NaN or inf")
            return value

        def scalar(key: str, kind: str) -> np.ndarray:
            value = get(key)
            if value.ndim != 0 or value.dtype.kind not in kind:
                raise ValueError(
                    f"checkpoint key {key} has dtype {value.dtype} and shape {value.shape}; "
                    f"expected a 0-d {'string' if kind == 'U' else 'integer'}"
                )
            return value

        version = int(scalar("format_version", "iu"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = parse_config_text(str(scalar("config_text", "U")))
        layer_count = int(scalar("layer_count", "iu"))
        if layer_count != config.layer_count:
            raise ValueError(
                f"checkpoint key layer_count is {layer_count}; config_text says {config.layer_count}"
            )
        layers = [
            LayerParams(
                w1=get(f"layer{i}_w1"), w2=get(f"layer{i}_w2"), gamma=get(f"layer{i}_gamma")
            )
            for i in range(layer_count)
        ]
        params = ModelParams(embedding=get("embedding"), layers=layers)
        _check_checkpoint_shapes(config, params)
        node_ids = get("node_ids")
        rows = params.embedding.shape[0]
        if node_ids.ndim != 1 or node_ids.dtype.kind != "U" or node_ids.size != rows:
            raise ValueError(
                f"checkpoint key node_ids has dtype {node_ids.dtype} and shape {node_ids.shape}; "
                f"expected {rows} strings, one per embedding row"
            )
        tokens, counts = np.unique(node_ids, return_counts=True)
        if (counts > 1).any():
            raise ValueError(f"checkpoint key node_ids lists {str(tokens[counts > 1][0])!r} twice")
        history = get("loss_history")
        if history.ndim != 2 or history.shape[1] != 4:
            raise ValueError(
                f"checkpoint key loss_history has shape {history.shape}; expected (epochs, 4)"
            )
        selection = None
        if "selected_nodes" in z:
            selection = SubgraphSelection(
                selected=get("selected_nodes"),
                core_nodes=get("core_nodes"),
                subgraph=None,  # not needed after training; rebuildable from the source graph
            )
        return TrainedModel(
            params=params,
            cluster_count=int(scalar("cluster_count", "iu")),
            config=config,
            loss_history=history,
            selection=selection,
            node_ids=tuple(node_ids.tolist()),
        )


def write_loss_history(model: TrainedModel, path) -> None:
    """Loss history CSV: epoch,L_G,L_M,total,Q."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,L_G,L_M,total,Q\n")
        for e, row in enumerate(model.loss_history):
            fh.write(f"{e}," + ",".join(repr(float(x)) for x in row) + "\n")
