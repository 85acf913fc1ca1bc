"""Batch command-line front end.

Subcommands: build-ml100k, synth, contract, train, infer, eval,
attention-dump. Every run honors --seed, takes an optional --config file
(flat `key = value`, flags override file values), writes its outputs under
--out, and drops a run_manifest.json recording inputs, outputs, and timing.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import graph as graphio
from .config import TrainConfig, config_to_text, load_config_file
from .contraction import DISTANCE_MODES, ContractionConfig, contract
from .fcm import ClusterAssignment
from .metrics import evaluate
from .ml100k import build_ml100k
from .trainer import infer, load_checkpoint, save_checkpoint, train, write_loss_history

ABLATIONS = {
    "cgc": {"random_sampling": True},
    "ewsgat": {"softmax_instead_of_entmax": True, "drop_f_iz": True},
    "entmax": {"softmax_instead_of_entmax": True},
    "f_iz": {"drop_f_iz": True},
    "ewo": {"no_weight_update": True},
    "no-contraction": {"no_contraction": True},
}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir: Path, command: str, config: dict, inputs: list, outputs: list,
                    seconds: float, edges_before=None, edges_after=None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_clock_seconds": seconds,
        "edges_before_contraction": edges_before,
        "edges_after_contraction": edges_after,
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


def _write_assignment(path, assignment: ClusterAssignment, node_ids=None) -> None:
    k = assignment.cluster_count
    header = "node,label," + ",".join(f"Y_{j}" for j in range(k))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(assignment.labels.size):
            tok = node_ids[i] if node_ids is not None else str(i)
            row = ",".join(repr(float(y)) for y in assignment.memberships[i])
            fh.write(f"{tok},{int(assignment.labels[i])},{row}\n")


def _add_label(labels: dict[str, int], path, lineno: int, node: str, label: str) -> None:
    if node in labels:
        raise ValueError(f"{path}:{lineno}: node {node!r} appears twice")
    try:
        labels[node] = int(label)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: label {label!r} is not an integer") from None


def _read_assignment_labels(path) -> dict[str, int]:
    labels = {}
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("node,label"):
            raise ValueError(f"{path}: not an assignment CSV")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'node,label,...', got {line!r}")
            _add_label(labels, path, lineno, parts[0], parts[1])
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
    graphio.save_labels(labeled.labels, labels_path, node_ids=g.node_ids)
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
    if args.noise_fraction > 0:
        g, added = graphio.inject_noise_edges(
            g, args.noise_fraction, args.seed + 1, unit_weight=args.noise_unit_weight
        )
        noise_path = out / "noise_edges.tsv"
        with open(noise_path, "w", encoding="utf-8") as fh:
            for u, v in added:
                fh.write(f"{u}\t{v}\n")
        outputs.append(noise_path)
        noise_info = {"noise_fraction": args.noise_fraction, "noise_edges": len(added)}
    graphio.save_edge_list(g, out / "edges.tsv")
    graphio.save_labels(labeled.labels, out / "labels.tsv")
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
        for new, old in enumerate(sel.selected):
            tok = g.node_ids[old] if g.node_ids else str(int(old))
            fh.write(f"{tok}\t{new}\n")
    with open(out / "cores.tsv", "w", encoding="utf-8") as fh:
        for c in sel.core_nodes:
            tok = g.node_ids[c] if g.node_ids else str(int(c))
            fh.write(f"{tok}\n")
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
    _write_assignment(outdir / "assignment.csv", assignment, node_ids=g.node_ids)
    edges_before = g.num_edges
    edges_after = model.selection.subgraph.num_edges if model.selection else g.num_edges
    return seconds, edges_before, edges_after


def cmd_train(args) -> int:
    """Train once per seed: into --out for one seed, into --out/seed_<s> for a sweep."""
    out = _outdir(args)
    config = _load_train_config(args)
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [config.seed]
    sweep = len(seeds) > 1
    if not sweep:
        config = config.replace(seed=seeds[0])
    dirs = [out / f"seed_{s}" if sweep else out for s in seeds]
    configs = [config.replace(seed=s) for s in seeds]
    run = functools.partial(_run_single_training, args.edges, args.clusters)
    jobs = min(max(1, args.jobs), len(seeds))
    t0 = time.perf_counter()
    if jobs == 1:
        results = list(map(run, configs, dirs))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, configs, dirs))
    outputs = [d / name for d in dirs for name in
               ("checkpoint.npz", "loss_history.csv", "config_echo.txt", "assignment.csv")]
    seconds, before, after = results[0]
    _write_manifest(out, "train-sweep" if sweep else "train", dataclasses.asdict(config),
                    [args.edges], outputs, time.perf_counter() - t0, before, after)
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
    assignment = infer(g, model, cluster_count=args.clusters)
    _write_assignment(out / "assignment.csv", assignment, node_ids=g.node_ids)
    print(f"inferred labels for {g.n} nodes")
    _write_manifest(out, "infer", dataclasses.asdict(model.config), [args.checkpoint, args.edges],
                    [out / "assignment.csv"], time.perf_counter() - t0)
    return 0


def cmd_eval(args) -> int:
    pred_by_node = _read_assignment_labels(args.pred)
    truth_pairs = {}
    with open(args.truth, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) != 2:
                raise ValueError(f"{args.truth}:{lineno}: bad label line {line!r}")
            _add_label(truth_pairs, args.truth, lineno, parts[0], parts[1])
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
    _, record = infer(g, model, return_attention=True)
    s = record.structure
    avg = record.final_head_average()
    path = out / "attention.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("i,j,a_ij\n")
        for e in range(s.src.size):
            i, j = int(s.src[e]), int(s.dst[e])
            ti = g.node_ids[i] if g.node_ids else str(i)
            tj = g.node_ids[j] if g.node_ids else str(j)
            fh.write(f"{ti},{tj},{float(avg[e])!r}\n")
    print(f"dumped {s.src.size} attention coefficients to {path}")
    _write_manifest(out, "attention-dump", {}, [args.checkpoint, args.edges], [path],
                    time.perf_counter() - t0)
    return 0


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
    p.add_argument("--noise-unit-weight", action="store_true")
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
    p.add_argument("--distance-mode", choices=DISTANCE_MODES, default=None)
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
    p.add_argument("--clusters", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="score an assignment CSV against a label file")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attention-dump", help="export final-layer head-averaged coefficients")
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
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
