"""Batch command-line front end.

Subcommands: build-ml100k, synth, contract, train, infer, eval,
attention-dump. Each writes its outputs under --out (optional for eval, which
prints its scores either way). Every subcommand but eval also writes a
run_manifest.json there, recording inputs, outputs, and timing. synth and
train take --seed; train alone takes --config, a flat `key = value` file
whose values its flags override.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import graph as graphio
from .attention import build_attention_structure, network_forward
from .config import TrainConfig, config_to_text, load_config_file
from .contraction import ContractionConfig, contract
from .fcm import ClusterAssignment
from .metrics import evaluate
from .ml100k import build_ml100k
from .trainer import (
    InferredAssignment,
    infer,
    load_checkpoint,
    save_checkpoint,
    train,
    write_loss_history,
)

__all__ = ["ABLATIONS", "build_parser", "main"]

ABLATIONS = {
    "cgc": {"random_sampling": True},
    "ewsgat": {"softmax_instead_of_entmax": True, "drop_f_iz": True},
    "entmax": {"softmax_instead_of_entmax": True},
    "f_iz": {"drop_f_iz": True},
    "ewo": {"no_weight_update": True},
    "no-contraction": {"no_contraction": True},
}

# attention-dump rows converted to Python values at a time: the objects of the
# whole dump would raise the process's peak memory
_DUMP_BLOCK = 8192


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, command: str, config: dict, inputs: list, outputs: list,
                    seconds: float, edges_before=None, edges_after=None, **extra) -> None:
    manifest = {
        "command": command,
        "config": config,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_clock_seconds": seconds,
        "edges_before_contraction": edges_before,
        "edges_after_contraction": edges_after,
        **extra,
    }
    for p in outputs:
        if not Path(p).exists():
            raise RuntimeError(f"declared output {p} was not written")
    (outdir / "run_manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _flag_overrides(args, config_class) -> dict:
    """The flags given on the command line whose dest names a field of ``config_class``."""
    values = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(config_class)}
    return {name: value for name, value in values.items() if value is not None}


def _load_train_config(args) -> TrainConfig:
    config = load_config_file(args.config) if args.config else TrainConfig()
    overrides = _flag_overrides(args, TrainConfig)
    if args.ablation:
        for name in args.ablation:
            if name not in ABLATIONS:
                raise ValueError(f"unknown ablation {name!r}; pick from {sorted(ABLATIONS)}")
            overrides.update(ABLATIONS[name])
    return config.replace(**overrides) if overrides else config


def _write_assignment(path, assignment: ClusterAssignment, g: graphio.WeightedGraph) -> None:
    """One CSV row per node; csv quotes a token that holds a comma or a quote."""
    k = assignment.cluster_count
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["node", "label"] + [f"Y_{j}" for j in range(k)])
        writer.writerows(
            [tok, label, *map(repr, memberships)] for tok, label, memberships
            in zip(g.node_ids, assignment.labels.tolist(), assignment.memberships.tolist())
        )


def _read_assignment_labels(path) -> dict[str, int]:
    labels: dict[str, int] = {}
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, [])[:2] != ["node", "label"]:
            raise ValueError(f"{path}: not an assignment CSV")
        for parts in rows:
            if not "".join(parts).strip():
                continue
            where = f"{path}: line {rows.line_num}"
            if len(parts) < 2:
                raise ValueError(f"{where}: expected 'node,label,...', got {','.join(parts)!r}")
            node, label = parts[:2]
            if node in labels:
                raise ValueError(f"{where}: node {node!r} is listed twice")
            try:
                labels[node] = int(label)
            except ValueError:
                raise ValueError(f"{where}: label {label!r} is not an integer") from None
    if not labels:
        raise ValueError(f"{path}: no rows")
    return labels


def cmd_build_ml100k(args) -> int:
    out = _outdir(args)
    t0 = time.perf_counter()
    labeled, report = build_ml100k(args.u_data, args.u_item)
    g = labeled.graph
    edges, labels_path = out / "edges.tsv", out / "labels.tsv"
    graphio.save_edge_list(g, edges)
    graphio.save_labels(labeled, labels_path)
    graphio.save_id_map(g, out / "id_map.tsv")
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    print(
        f"built ml100k graph: {report.node_count} nodes, {report.edge_count} edges, "
        f"{report.cluster_count} clusters, density {report.density:.3f}"
    )
    _write_manifest(out, "build-ml100k", {}, [args.u_data, args.u_item],
                    [edges, labels_path, out / "id_map.tsv", out / "report.json"],
                    time.perf_counter() - t0)
    return 0


def cmd_synth(args) -> int:
    out = _outdir(args)
    t0 = time.perf_counter()
    labeled = graphio.synth_weighted_sbm(
        args.nodes, args.clusters, args.p_in, args.p_out,
        args.w_in_mean, args.w_out_mean, args.seed,
    )
    g = labeled.graph
    outputs = [out / "edges.tsv", out / "labels.tsv"]
    noise_info = {}
    if args.noise_fraction != 0:  # inject_noise_edges rejects nan, inf and negatives
        g, added = graphio.inject_noise_edges(g, args.noise_fraction, args.seed + 1)
        noise_path = out / "noise_edges.tsv"
        with open(noise_path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{u}\t{v}\n" for u, v in added.tolist())
        outputs.append(noise_path)
        noise_info = {"noise_fraction": args.noise_fraction, "noise_edges": len(added)}
    graphio.save_edge_list(g, out / "edges.tsv")
    graphio.save_labels(labeled, out / "labels.tsv")
    print(f"synthesized graph: {g.n} nodes, {g.num_edges} edges, {labeled.cluster_count} blocks")
    cfg = {"nodes": args.nodes, "clusters": args.clusters, "p_in": args.p_in,
           "p_out": args.p_out, "w_in_mean": args.w_in_mean, "w_out_mean": args.w_out_mean,
           "seed": args.seed, **noise_info}
    _write_manifest(out, "synth", cfg, [], outputs, time.perf_counter() - t0)
    return 0


def cmd_contract(args) -> int:
    out = _outdir(args)
    t0 = time.perf_counter()
    g = graphio.load_edge_list(args.edges)
    cc = ContractionConfig(**_flag_overrides(args, ContractionConfig))
    sel = contract(g, cc, args.clusters)
    graphio.save_edge_list(sel.subgraph, out / "subgraph_edges.tsv")
    with open(out / "selection.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{g.node_ids[old]}\t{new}\n"
                      for new, old in enumerate(sel.selected.tolist()))
    with open(out / "cores.tsv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{g.node_ids[c]}\n" for c in sel.core_nodes.tolist())
    print(
        f"contracted {g.n} nodes / {g.num_edges} edges -> "
        f"{sel.subgraph.n} nodes / {sel.subgraph.num_edges} edges"
    )
    outputs = [out / "subgraph_edges.tsv", out / "selection.tsv", out / "cores.tsv"]
    _write_manifest(out, "contract", dataclasses.asdict(cc), [args.edges], outputs,
                    time.perf_counter() - t0, g.num_edges, sel.subgraph.num_edges)
    return 0


def _run_single_training(edges_path, clusters, config: TrainConfig, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    g = graphio.load_edge_list(edges_path)
    t0 = time.perf_counter()
    model = train(g, clusters, config)
    assignment = infer(g, model)
    seconds = time.perf_counter() - t0
    save_checkpoint(model, outdir / "checkpoint.npz")
    write_loss_history(model, outdir / "loss_history.csv")
    (outdir / "config_echo.txt").write_text(config_to_text(config), encoding="utf-8")
    _write_assignment(outdir / "assignment.csv", assignment, g)
    kept = np.zeros(g.n, dtype=bool)
    kept[model.selected] = True
    # the edges with both ends selected: those of the subgraph training ran on
    edges_after = int(np.count_nonzero(kept[g.directed_src()] & kept[g.indices])) // 2
    return seconds, g.num_edges, edges_after, _labelling(assignment)


def _labelling(assignment: InferredAssignment) -> dict:
    """The manifest fields that say how ``infer`` labelled the nodes."""
    return {"labelled_by": {"forward": assignment.forward_nodes, "vote": assignment.vote_nodes,
                            "fallback": assignment.fallback_nodes},
            "vote_hops": assignment.vote_hops}


def _parse_seeds(text: str) -> list[int]:
    """The --seeds list; the error names a token that is not an integer or repeats."""
    seeds = []
    for token in text.split(","):
        try:
            seed = int(token)
        except ValueError:
            raise ValueError(f"--seeds lists {token!r}, which is not an integer") from None
        if seed in seeds:
            raise ValueError(f"--seeds lists seed {seed} twice")
        seeds.append(seed)
    return seeds


def cmd_train(args) -> int:
    """Train once per seed: into --out for one seed, into --out/seed_<s> for a sweep."""
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed is not None and args.seeds is not None:
        raise ValueError("--seed and --seeds are both given; --seeds lists every seed to "
                         "train, so give one of them")
    seeds = _parse_seeds(args.seeds) if args.seeds is not None else None
    out = _outdir(args)
    config = _load_train_config(args)
    seeds = seeds or [config.seed]
    sweep = len(seeds) > 1
    if not sweep:
        config = config.replace(seed=seeds[0])
    dirs = [out / f"seed_{s}" if sweep else out for s in seeds]
    configs = [config.replace(seed=s) for s in seeds]
    run = functools.partial(_run_single_training, args.edges, args.clusters)
    jobs = min(args.jobs, len(seeds))
    t0 = time.perf_counter()
    if jobs == 1:
        results = list(map(run, configs, dirs))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, configs, dirs))
    outputs = [d / name for d in dirs for name in
               ("checkpoint.npz", "loss_history.csv", "config_echo.txt", "assignment.csv")]
    seconds, before, after, labelling = results[0]
    if sweep:  # one entry per seed, keyed by the seed
        after = {str(s): result[2] for s, result in zip(seeds, results)}
        labelling = {key: {str(s): result[3][key] for s, result in zip(seeds, results)}
                     for key in labelling}
    _write_manifest(out, "train-sweep" if sweep else "train", dataclasses.asdict(config),
                    [args.edges], outputs, time.perf_counter() - t0, before, after, **labelling)
    if sweep:
        print(f"trained {len(seeds)} seeds; outputs in {out}")
    else:
        print(f"trained in {seconds:.2f}s; outputs in {out}")
    return 0


def cmd_infer(args) -> int:
    out = _outdir(args)
    t0 = time.perf_counter()
    model = load_checkpoint(args.checkpoint)
    g = graphio.load_edge_list(args.edges)
    assignment = infer(g, model)
    _write_assignment(out / "assignment.csv", assignment, g)
    print(f"inferred labels for {g.n} nodes")
    _write_manifest(out, "infer", dataclasses.asdict(model.config), [args.checkpoint, args.edges],
                    [out / "assignment.csv"], time.perf_counter() - t0, **_labelling(assignment))
    return 0


def cmd_eval(args) -> int:
    pred_by_node = _read_assignment_labels(args.pred)
    truth_pairs = graphio.load_labels(args.truth)
    common = [tok for tok in pred_by_node if tok in truth_pairs]
    if not common:
        raise ValueError("prediction and truth files share no node ids")
    pred = np.array([pred_by_node[t] for t in common])
    truth = np.array([truth_pairs[t] for t in common])
    report = evaluate(pred, truth)
    print(
        f"acc={report.accuracy:.4f} micro_f1={report.micro_f1:.4f} macro_f1={report.macro_f1:.4f}"
        f" (n={len(common)})"
    )
    if args.out:
        out = _outdir(args)
        (out / "eval.json").write_text(report.to_json(), encoding="utf-8")
        with open(out / "confusion.csv", "w", encoding="utf-8") as fh:
            fh.write("pred\\true," + ",".join(str(c) for c in report.true_labels) + "\n")
            for lab, row in zip(report.pred_labels, report.confusion):
                fh.write(str(lab) + "," + ",".join(str(int(x)) for x in row) + "\n")
    return 0


def cmd_attention_dump(args) -> int:
    out = _outdir(args)
    t0 = time.perf_counter()
    model = load_checkpoint(args.checkpoint)
    g = graphio.load_edge_list(args.edges)
    params = model.params_for(g)
    s = build_attention_structure(g, model.config)
    avg = network_forward(s, params, model.config)[1]
    names = g.node_ids
    path = out / "attention.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "a_ij"])
        for at in range(0, avg.size, _DUMP_BLOCK):
            block = slice(at, at + _DUMP_BLOCK)
            rows = zip(s.src[block].tolist(), s.dst[block].tolist(), avg[block].tolist())
            writer.writerows([names[i], names[j], repr(a)] for i, j, a in rows)
    print(f"dumped {s.src.size} attention coefficients to {path}")
    _write_manifest(out, "attention-dump", {}, [args.checkpoint, args.edges], [path],
                    time.perf_counter() - t0)
    return 0


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wgclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-ml100k", help="build the movie graph from raw MovieLens files")
    p.add_argument("--u-data", required=True)
    p.add_argument("--u-item", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_ml100k)

    p = sub.add_parser("synth", help="generate a weighted block-model benchmark")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--w-in-mean", type=float, default=5.0)
    p.add_argument("--w-out-mean", type=float, default=1.0)
    p.add_argument("--noise-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("contract", help="extract the cluster-preserving subgraph")
    p.add_argument("--edges", required=True)
    p.add_argument("--cores", dest="core_count", type=int, default=None)
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--density-weight", type=float, default=None)
    p.add_argument("--teleport", type=float, default=None)
    p.add_argument("--threshold", dest="importance_threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("train", help="train on an edge list and write a checkpoint")
    p.add_argument("--edges", required=True)
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--heads", type=int, default=None)
    p.add_argument("--layer-count", dest="layer_count", type=int, default=None)
    p.add_argument("--core-count", dest="core_count", type=int, default=None)
    p.add_argument("--importance-threshold", dest="importance_threshold", type=float, default=None)
    p.add_argument("--entmax-alpha", dest="entmax_alpha", type=float, default=None)
    p.add_argument("--modularity-weight", dest="modularity_weight", type=float, default=None)
    p.add_argument("--density-weight", dest="density_weight", type=float, default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--ablation", action="append", default=None,
                   help=f"one of {sorted(ABLATIONS)}; repeatable")
    p.add_argument("--seeds", default=None, help="comma-separated seed sweep")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for the seed sweep")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="label a graph with a trained checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score an assignment CSV against a label file")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "attention-dump", help="export final-layer head-averaged coefficients",
        description="Export the final layer's head-averaged attention coefficient of every "
                    "candidate entry (each edge direction and each self-loop) of --edges. The "
                    "forward runs on the whole graph. On a contracted model only the selected "
                    "nodes' embedding rows were trained; the others keep their random initial "
                    "values, so the coefficients around those nodes come from untrained rows.",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attention_dump)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
