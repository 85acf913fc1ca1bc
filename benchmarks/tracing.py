"""Spans around wgclust's functions, installed only for a traced run.

Each span wraps a function at the place where its caller looks it up (for
example ``wgclust.trainer.network_forward_cached``), so an untraced run
executes unmodified code and nothing under src/ changes. Spans are kept in
memory with name, start, end, parent and run id, and written out at the end.
A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 for a root
    run: int


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.run = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent, self.run))
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index].end = self.clock()

    def count(self, key: str, value: float) -> None:
        self.counts[self.run][key] += value

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, own in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**asdict(s), "self": own}) + "\n")


# Counters run after the wrapped call returns; they read the call's
# arguments and result, so they add nothing to the span they follow.

def _count_forward(tracer, args, result):
    structure, model = args[0], args[1]
    entries = structure.src.size * len(model.layers)
    tracer.count("attention.entries", entries)
    tracer.count("attention.entry_heads", entries * model.layers[0].heads)


def _count_entmax(tracer, args, result):
    tracer.count("entmax.outputs", result.size)
    tracer.count("entmax.zeros", int((result == 0.0).sum()))


def _count_refinement(tracer, args, result):
    tracer.count("losses.edges_in", args[0].num_edges)
    tracer.count("losses.edges_out", result.num_edges)


def _count_contraction(tracer, args, result):
    tracer.count("contraction.edges_in", args[0].num_edges)
    tracer.count("contraction.edges_kept", result.subgraph.num_edges)


# (module, attribute looked up by the caller, span name, counter)
SITES = [
    ("wgclust.cli", "contract", "contraction.contract", _count_contraction),
    ("wgclust.cli", "train", "trainer.train", None),
    ("wgclust.cli", "infer", "trainer.infer", None),
    ("wgclust.cli", "save_checkpoint", "trainer.save_checkpoint", None),
    ("wgclust.cli", "load_checkpoint", "trainer.load_checkpoint", None),
    ("wgclust.cli", "write_loss_history", "trainer.write_loss_history", None),
    ("wgclust.cli", "evaluate", "metrics.evaluate", None),
    ("wgclust.graph", "load_edge_list", "graph.load_edge_list", None),
    ("wgclust.graph", "save_edge_list", "graph.save_edge_list", None),
    ("wgclust.graph", "build_graph", "graph.build_graph", None),
    ("wgclust.losses", "build_graph", "graph.build_graph", None),
    ("wgclust.trainer", "build_graph", "graph.build_graph", None),
    ("wgclust.contraction", "induce_subgraph", "contraction.induce_subgraph", None),
    ("wgclust.trainer", "induce_subgraph", "contraction.induce_subgraph", None),
    ("wgclust.contraction", "select_core_nodes", "contraction.select_core_nodes", None),
    ("wgclust.contraction", "personalized_pagerank", "contraction.personalized_pagerank", None),
    ("wgclust.trainer", "contract", "contraction.contract", _count_contraction),
    ("wgclust.trainer", "build_attention_structure", "attention.build_attention_structure", None),
    ("wgclust.trainer", "network_forward_cached", "attention.network_forward_cached",
     _count_forward),
    ("wgclust.trainer", "network_backward", "attention.network_backward", None),
    ("wgclust.attention", "segment_entmax", "entmax.segment_entmax", _count_entmax),
    ("wgclust.attention", "segment_entmax_vjp", "entmax.segment_entmax_vjp", None),
    ("wgclust.trainer", "fcm_fit", "fcm.fcm_fit", None),
    ("wgclust.trainer", "update_edge_weights", "losses.update_edge_weights", _count_refinement),
    ("wgclust.trainer", "draw_structure_samples", "losses.draw_structure_samples", None),
    ("wgclust.trainer", "modularity", "losses.modularity", None),
    ("wgclust.trainer", "modularity_weight_grad", "losses.modularity_weight_grad", None),
    ("wgclust.trainer", "structure_loss_from_samples", "losses.structure_loss_from_samples", None),
    ("wgclust.trainer", "structure_loss_grad", "losses.structure_loss_grad", None),
]


@contextlib.contextmanager
def installed(tracer: Tracer, sites=SITES):
    """Replace each site's attribute with a traced wrapper; restore on exit."""
    saved = []
    try:
        for module_name, attr, name, counter in sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# name -> unit of every metric a traced run reports
LAYER_UNITS = {
    "attention.forward.self_s": "s",
    "attention.backward.self_s": "s",
    "attention.build_attention_structure.s": "s",
    "attention.build_attention_structure.calls": "count",
    "attention.entries": "count",
    "attention.entry_heads_per_s": "1/s",
    "attention.noise_zero_frac": "frac",
    "entmax.segment_entmax.s": "s",
    "entmax.segment_entmax.calls": "count",
    "entmax.segment_entmax_vjp.s": "s",
    "entmax.zero_frac": "frac",
    "losses.update_edge_weights.s": "s",
    "losses.pruned_edge_frac": "frac",
    "losses.draw_structure_samples.s": "s",
    "losses.modularity.s": "s",
    "losses.structure_loss_grad.s": "s",
    "fcm.fcm_fit.s": "s",
    "fcm.fcm_fit.calls": "count",
    "contraction.select_core_nodes.s": "s",
    "contraction.personalized_pagerank.s": "s",
    "contraction.personalized_pagerank.calls": "count",
    "contraction.induce_subgraph.s": "s",
    "contraction.kept_edge_frac": "frac",
    "graph.load_edge_list.s": "s",
    "graph.build_graph.s": "s",
    "graph.build_graph.calls": "count",
    "trainer.train.self_s": "s",
    "trainer.epoch_ms.p50": "ms",
    "trainer.epoch_ms.p90": "ms",
    "trainer.infer.s": "s",
    "trainer.save_checkpoint.s": "s",
    "trainer.load_checkpoint.s": "s",
    "cli.unattributed_s": "s",
    "trace.overhead_frac": "frac",
    "trace.coverage": "frac",
}

# per-pass sums of span durations ("total") or self times ("self"), by span name
_PER_PASS = {
    "attention.forward.self_s": ("self", "attention.network_forward_cached"),
    "attention.backward.self_s": ("self", "attention.network_backward"),
    "attention.build_attention_structure.s": ("total", "attention.build_attention_structure"),
    "attention.build_attention_structure.calls": ("calls", "attention.build_attention_structure"),
    "entmax.segment_entmax.s": ("total", "entmax.segment_entmax"),
    "entmax.segment_entmax.calls": ("calls", "entmax.segment_entmax"),
    "entmax.segment_entmax_vjp.s": ("total", "entmax.segment_entmax_vjp"),
    "losses.update_edge_weights.s": ("total", "losses.update_edge_weights"),
    "losses.draw_structure_samples.s": ("total", "losses.draw_structure_samples"),
    "losses.modularity.s": ("total", "losses.modularity"),
    "losses.structure_loss_grad.s": ("total", "losses.structure_loss_grad"),
    "fcm.fcm_fit.s": ("total", "fcm.fcm_fit"),
    "fcm.fcm_fit.calls": ("calls", "fcm.fcm_fit"),
    "contraction.select_core_nodes.s": ("total", "contraction.select_core_nodes"),
    "contraction.personalized_pagerank.s": ("total", "contraction.personalized_pagerank"),
    "contraction.personalized_pagerank.calls": ("calls", "contraction.personalized_pagerank"),
    "contraction.induce_subgraph.s": ("total", "contraction.induce_subgraph"),
    "graph.load_edge_list.s": ("total", "graph.load_edge_list"),
    "graph.build_graph.s": ("total", "graph.build_graph"),
    "graph.build_graph.calls": ("calls", "graph.build_graph"),
    "trainer.train.self_s": ("self", "trainer.train"),
    "trainer.infer.s": ("total", "trainer.infer"),
    "trainer.save_checkpoint.s": ("total", "trainer.save_checkpoint"),
    "trainer.load_checkpoint.s": ("total", "trainer.load_checkpoint"),
}


def _ratio(num: float, den: float) -> float | None:
    return num / den if den else None


def _percentile(values: list[float], q: float) -> float | None:
    if not values:
        return None
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def command_coverage(tracer: Tracer, runs: list[int]) -> dict[str, float]:
    """Share of each command's wall time that layer spans cover, over ``runs``."""
    wall, own = defaultdict(float), defaultdict(float)
    for s, self_s in zip(tracer.spans, tracer.self_times()):
        if s.run in runs and s.name.startswith("cli."):
            wall[s.name] += s.end - s.start
            own[s.name] += self_s
    return {name: 1.0 - own[name] / wall[name] for name in wall}


def layer_metrics(tracer: Tracer, runs: list[int]) -> dict[str, float | None]:
    """Per-layer metrics over the traced passes ``runs``.

    Times and call counts are per-pass medians; ratios pool every traced
    pass. Command spans are the roots named ``cli.<command>``; whatever of a
    command's wall time no layer span covers is ``cli.unattributed_s``.
    """
    selfs = tracer.self_times()
    per_run = {r: defaultdict(lambda: [0.0, 0.0, 0]) for r in runs}  # name -> [total, self, calls]
    cli_wall = cli_self = 0.0
    epoch_ms: list[float] = []
    last_forward: dict[int, float] = {}  # train span index -> start of its latest forward
    for s, own in zip(tracer.spans, selfs):
        if s.run not in per_run:
            continue
        acc = per_run[s.run][s.name]
        acc[0] += s.end - s.start
        acc[1] += own
        acc[2] += 1
        if s.name.startswith("cli."):
            cli_wall += s.end - s.start
            cli_self += own
        if (s.name == "attention.network_forward_cached" and s.parent >= 0
                and tracer.spans[s.parent].name == "trainer.train"):
            if s.parent in last_forward:
                epoch_ms.append(1e3 * (s.start - last_forward[s.parent]))
            last_forward[s.parent] = s.start
    out: dict[str, float | None] = {}
    column = {"total": 0, "self": 1, "calls": 2}
    for metric, (kind, name) in _PER_PASS.items():
        out[metric] = statistics.median(per_run[r][name][column[kind]] for r in runs)
    out["cli.unattributed_s"] = statistics.median(
        sum(v[1] for k, v in per_run[r].items() if k.startswith("cli.")) for r in runs
    )
    counts = defaultdict(float)
    for r in runs:
        for key, value in tracer.counts[r].items():
            counts[key] += value
    forward_s = sum(per_run[r]["attention.network_forward_cached"][0] for r in runs)
    out["attention.entries"] = counts["attention.entries"] / len(runs)
    out["attention.entry_heads_per_s"] = _ratio(counts["attention.entry_heads"], forward_s)
    out["entmax.zero_frac"] = _ratio(counts["entmax.zeros"], counts["entmax.outputs"])
    pruned = counts["losses.edges_in"] - counts["losses.edges_out"]
    out["losses.pruned_edge_frac"] = _ratio(pruned, counts["losses.edges_in"])
    out["contraction.kept_edge_frac"] = _ratio(counts["contraction.edges_kept"],
                                               counts["contraction.edges_in"])
    out["trainer.epoch_ms.p50"] = _percentile(epoch_ms, 50)
    out["trainer.epoch_ms.p90"] = _percentile(epoch_ms, 90)
    out["trace.coverage"] = _ratio(cli_wall - cli_self, cli_wall)
    return out
