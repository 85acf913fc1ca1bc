"""End-to-end training: contract, attend, cluster, refine weights, descend.

One epoch runs the attention network over the working (sub)graph, fits fuzzy
c-means on the representations, refines edge weights with the final-layer
attention, evaluates the combined objective, and applies a hand-derived
reverse-mode gradient step with adaptive-moment updates. Hard labels and the
drawn positive/negative samples are treated as constants within an epoch;
gradients reach the modularity term only through the attention coefficients
inside the edge-weight refinement.

Everything is seeded and reduction orders are fixed, so at a fixed BLAS
thread count a (graph, K, config) triple maps to a bit-identical trained
model; a different thread count can change the last bits of the products.
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
    non_finite_activation,
)
from .config import TrainConfig, config_to_text, parse_config_text
from .contraction import contract
from .fcm import ClusterAssignment, fcm_fit, hard_labels, memberships_for
# build_graph is not called here; benchmarks/tracing.py wraps it at this lookup site
from .graph import WeightedGraph, build_graph, induce_subgraph
from .losses import (
    draw_structure_samples,
    modularity,
    modularity_weight_grad,
    refinement_coeff_grad,
    short_of_negatives,
    structure_loss_from_samples,
    structure_loss_grad,
    total_loss,
    update_edge_weights,
)

__all__ = ["TrainedModel", "InferredAssignment", "train", "infer", "epoch_step",
           "save_checkpoint", "load_checkpoint", "write_loss_history"]

MIN_LOSS_IMPROVEMENT = 1e-5
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# every fuzzy c-means fit: this many rounds from the best of this many seeded center draws
FCM_ITERS, FCM_RESTARTS = 30, 8
CHECKPOINT_VERSION = 5

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
    ``selected`` lists, in increasing order, the rows training fitted: the
    nodes contraction (or its random-sampling ablation) kept, or every row.
    """

    params: ModelParams
    cluster_count: int
    config: TrainConfig
    loss_history: np.ndarray
    selected: np.ndarray
    node_ids: tuple[str, ...]

    def rows_for(self, g: WeightedGraph) -> np.ndarray:
        """The embedding row of every node of ``g``, matched by token.

        Raises ValueError when ``g`` has another node count, or names a node
        the model never saw.
        """
        rows = self.params.embedding.shape[0]
        if g.n != rows:
            raise ValueError(f"graph has {g.n} nodes but the model embeds {rows}")
        if g.node_ids == self.node_ids:
            return np.arange(rows)
        row_of = dict(zip(self.node_ids, range(rows)))
        try:
            return np.array([row_of[token] for token in g.node_ids], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"graph node {exc.args[0]!r} is not one the model embeds") from None

    def params_for(self, g: WeightedGraph) -> ModelParams:
        """The parameters with the embedding rows in ``g``'s node order (``rows_for``).

        The model's own parameters when ``g`` names its nodes in the model's order.
        """
        if g.node_ids == self.node_ids:
            return self.params
        return ModelParams(embedding=self.params.embedding[self.rows_for(g)],
                           layers=self.params.layers)


@dataclass(frozen=True)
class InferredAssignment(ClusterAssignment):
    """``infer``'s assignment of every node, with how many nodes each step labelled.

    ``forward_nodes`` got the fuzzy c-means fit on the forward, ``vote_nodes``
    the neighbour vote (in ``vote_hops`` hops) and ``fallback_nodes`` the
    fitted centers applied to a forward over their own components.
    """

    forward_nodes: int
    vote_nodes: int
    fallback_nodes: int
    vote_hops: int


def _select_training_graph(g, cluster_count, config):
    """(nodes, working graph): contract, randomly sample or pass through the training graph.

    The nodes are increasing and the working graph is the subgraph on them.
    """
    if config.no_contraction:
        return np.arange(g.n), g
    selection = contract(g, config, cluster_count)
    nodes, working = selection.selected, selection.subgraph
    if config.random_sampling:
        rng = _rng(config.seed, _RNG_SAMPLE_ABLATION)
        nodes = np.sort(rng.choice(g.n, size=nodes.size, replace=False))
        working = induce_subgraph(g, nodes)
    if nodes.size < cluster_count:
        raise ValueError(f"contraction kept {nodes.size} nodes, fewer than K={cluster_count}")
    return nodes, working


def epoch_step(structure, model, config, epoch_constants, backward=True):
    """One epoch: forward, refinement, objective and (unless ``backward`` is off) gradient.

    The working graph is the one ``structure`` was built on. The record's
    edge attention refines its weights; the modularity gradient goes back
    through ``refinement_coeff_grad`` into ``network_backward`` as the
    gradient of that edge attention.

    ``epoch_constants(h, refined)`` returns the (labels, samples) that stay
    fixed for the epoch: ``train`` clusters ``h`` and samples the refined
    graph; a finite-difference check returns the same pair every time.
    Returns (LossBreakdown, parameter gradients or None).
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
    del samples
    if config.no_weight_update or config.modularity_weight == 0.0:
        return breakdown, network_backward(record, model, config, d_h)
    d_edge = [refinement_coeff_grad(
        working, refined, config.modularity_weight * -modularity_weight_grad(refined, labels)
    )]
    del refined
    # Release order: the samples and the refined graph go before the sweep starts;
    # popped into the call, the edge gradient's only reference is network_backward's,
    # which drops it once it is spread over the heads; the sweep then frees each
    # layer of the record as it goes.
    return breakdown, network_backward(record, model, config, d_h, d_edge.pop())


def train(g: WeightedGraph, cluster_count: int, config: TrainConfig) -> TrainedModel:
    """Run the full training loop on (a contraction of) the graph.

    Stops at ``config.epochs`` or once the total loss has failed to improve
    by at least 1e-5 for ``config.patience`` consecutive epochs (patience 0
    disables early stopping). Raises on divergence (non-finite loss) and when
    contraction keeps fewer than K nodes; a non-finite activation, or a node
    that negative sampling cannot serve, is named by its node of ``g``.
    """
    if cluster_count < 2:
        raise ValueError("cluster_count must be >= 2")
    sub_nodes, working = _select_training_graph(g, cluster_count, config)

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
        assignment = fcm_fit(h, cluster_count, iters=FCM_ITERS, seed=fcm_seed,
                             restarts=FCM_RESTARTS)
        return assignment.labels, draw_structure_samples(refined, config.negatives, epoch_rng)

    for epoch in range(config.epochs):
        try:
            breakdown, grads = epoch_step(structure, work, config, cluster_and_sample)
        except (RuntimeError, FloatingPointError) as exc:
            exc = _in_graph(exc, sub_nodes)
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
        selected=sub_nodes,
        node_ids=g.node_ids,
    )


def infer(g: WeightedGraph, model: TrainedModel) -> InferredAssignment:
    """Label every node of ``g``: fit on the model's selected nodes, vote for the rest.

    The fit has ``model.cluster_count`` clusters. The selected nodes are
    every node for a model trained without
    contraction, and each node of ``g`` takes the embedding row of its token
    (``model.rows_for``). The forward (no backward state) and a fresh fuzzy
    c-means fit run on ``g`` itself when every node is selected, otherwise on
    ``induce_subgraph(g, selected)`` in the model's row order, which is the
    training subgraph when ``g`` is the training graph. Then, hop by hop
    until nothing changes, each unlabelled neighbour of the last hop's nodes
    takes the weight-normalised sum of its labelled neighbours' memberships
    (label propagation; Zhu & Ghahramani 2002). A node in a component with
    no selected node gets ``memberships_for`` the fitted centers of its
    representation from a forward over its own component, which is the one a
    full-graph forward gives it, since attention never crosses components.
    Labels are each row's argmax.

    Raises ValueError when ``g`` and the model disagree on the node count,
    and when ``g`` names a node the model never saw.
    """
    config, params, selected, k = model.config, model.params, model.selected, model.cluster_count
    if selected.size == g.n:
        nodes, working, work = np.arange(g.n), g, model.params_for(g)
    else:
        rows = model.rows_for(g)
        node_of_row = np.empty(g.n, dtype=np.int64)
        node_of_row[rows] = np.arange(g.n)
        nodes = node_of_row[selected]
        working = induce_subgraph(g, nodes)
        work = ModelParams(embedding=params.embedding[selected], layers=params.layers)
    h = _forward(working, nodes, work, config)
    infer_seed = int(_rng(config.seed, _RNG_INFER).integers(2**31))
    fit = fcm_fit(h, k, iters=FCM_ITERS, seed=infer_seed, restarts=FCM_RESTARTS)

    # an unlabelled node's row stays 0 until it is labelled, so it adds nothing to a vote
    memberships = np.zeros((g.n, k))
    memberships[nodes] = fit.memberships
    labelled = np.zeros(g.n, dtype=bool)
    labelled[nodes] = True
    hops = _vote(g, memberships, labelled, nodes)
    voted = int(labelled.sum()) - nodes.size
    # every node is labelled when every node is selected, so ``rows`` exists here
    rest = np.flatnonzero(~labelled)
    if rest.size:
        own = ModelParams(embedding=params.embedding[rows[rest]], layers=params.layers)
        h_rest = _forward(induce_subgraph(g, rest), rest, own, config)
        memberships[rest] = memberships_for(h_rest, fit.centers)
    return InferredAssignment(
        memberships=memberships, centers=fit.centers, labels=hard_labels(memberships),
        forward_nodes=nodes.size, vote_nodes=voted, fallback_nodes=rest.size, vote_hops=hops,
    )


def _forward(working, nodes, params, config) -> np.ndarray:
    """The forward's representation on ``working``, the subgraph on ``nodes`` of a graph.

    A non-finite activation is named by its node of that graph, ``nodes[i]``.
    """
    try:
        return network_forward(build_attention_structure(working, config), params, config)[0]
    except FloatingPointError as exc:
        raise _in_graph(exc, nodes) from None


def _in_graph(exc: Exception, nodes: np.ndarray) -> Exception:
    """``exc``, raised on the subgraph on ``nodes``; an error naming node i names ``nodes[i]``.

    The errors that name a node are a non-finite activation and a node short
    of negatives.
    """
    if not hasattr(exc, "node"):
        return exc
    node = int(nodes[exc.node])
    if isinstance(exc, FloatingPointError):
        return non_finite_activation(exc.layer, node)
    return short_of_negatives(node, exc.detail)


def _vote(g: WeightedGraph, memberships: np.ndarray, labelled: np.ndarray, last: np.ndarray) -> int:
    """Spread memberships from the labelled nodes, hop by hop; returns the hop count.

    A hop labels every unlabelled neighbour of the nodes ``last`` labelled,
    each with the weight-normalised sum of the rows of its neighbours
    labelled before the hop, and fills ``memberships`` and ``labelled`` in
    place; an unlabelled node's row of ``memberships`` must be 0. A node's
    row of the adjacency is read in the hop that reaches it and in the next.
    """
    import scipy.sparse as sp

    adjacency = sp.csr_matrix((g.weights, g.indices, g.indptr), shape=(g.n, g.n))
    hops = 0
    while not labelled.all():
        near = adjacency[last].indices
        reach = np.unique(near[~labelled[near]])
        if reach.size == 0:
            break
        # every reached node has a labelled neighbour, so no vote sums to 0
        votes = adjacency[reach] @ memberships
        memberships[reach] = votes / votes.sum(axis=1, keepdims=True)
        labelled[reach] = True
        last = reach
        hops += 1
    return hops


# ---------------------------------------------------------------------------
# Checkpoint IO: a versioned key-value container (numpy .npz, row-major arrays)
# ---------------------------------------------------------------------------


def save_checkpoint(model: TrainedModel, path) -> None:
    """Write the model as an .npz with documented keys (see README) to ``path`` as given."""
    data: dict[str, np.ndarray] = {
        "format_version": np.array(CHECKPOINT_VERSION),
        "config_text": np.array(config_to_text(model.config)),
        "cluster_count": np.array(model.cluster_count),
        "embedding": model.params.embedding,
        "node_ids": _node_id_array(model.node_ids),
        "loss_history": model.loss_history,
        "selected_nodes": model.selected,
    }
    for i, layer in enumerate(model.params.layers):
        data[f"layer{i}_w1"] = layer.w1
        data[f"layer{i}_w2"] = layer.w2
        data[f"layer{i}_gamma"] = layer.gamma
    with open(path, "wb") as fh:  # np.savez appends .npz to a path that lacks it
        np.savez(fh, **data)


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


def _selected_rows(value: np.ndarray, rows: int) -> np.ndarray:
    """selected_nodes as int64 rows; ValueError naming it unless strictly increasing in [0, rows)."""
    if value.ndim != 1 or value.dtype.kind not in "iu":
        raise ValueError(
            f"checkpoint key selected_nodes has dtype {value.dtype} and shape {value.shape}; "
            f"expected a 1-D integer array"
        )
    if value.size and not (0 <= value.min() and value.max() < rows):
        raise ValueError(f"checkpoint key selected_nodes names a row outside [0, {rows})")
    if (value[1:] <= value[:-1]).any():
        raise ValueError("checkpoint key selected_nodes is not strictly increasing")
    return value.astype(np.int64, copy=False)


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
    selected_nodes must be a 1-D integer array of embedding rows, strictly
    increasing, and cluster_count must lie in [2, its size].
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
        layers = [
            LayerParams(
                w1=get(f"layer{i}_w1"), w2=get(f"layer{i}_w2"), gamma=get(f"layer{i}_gamma")
            )
            for i in range(config.layer_count)
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
        selected = _selected_rows(get("selected_nodes"), rows)
        cluster_count = int(scalar("cluster_count", "iu"))
        if not 2 <= cluster_count <= selected.size:
            raise ValueError(
                f"checkpoint key cluster_count is {cluster_count}; expected 2 to the "
                f"{selected.size} rows of selected_nodes"
            )
        return TrainedModel(
            params=params,
            cluster_count=cluster_count,
            config=config,
            loss_history=history,
            selected=selected,
            node_ids=tuple(node_ids.tolist()),
        )


def write_loss_history(model: TrainedModel, path) -> None:
    """Loss history CSV: epoch,L_G,L_M,total,Q."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,L_G,L_M,total,Q\n")
        for e, row in enumerate(model.loss_history):
            fh.write(f"{e}," + ",".join(repr(float(x)) for x in row) + "\n")
