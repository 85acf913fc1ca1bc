"""Workload definitions: the generated inputs and the command flags of each run.

Every workload drives the same user path, one pass at a time:
``contract`` -> ``train`` -> ``infer`` -> ``eval`` -> ``attention-dump``.
The workloads differ in graph size, noise, contraction threshold and epoch
count, so that different layers dominate; README.md says which and why.
"""

from __future__ import annotations

from dataclasses import dataclass

# The acceptance suite's network: 2 layers, 4 heads, every dimension 32,
# 5 negatives, fixed epoch count.
BENCH_NETWORK = {
    "layer_count": 2,
    "heads": 4,
    "embed_dim": 32,
    "attn_dim": 32,
    "hidden_dim": 32,
    "negatives": 5,
    "patience": 0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    nodes: int
    clusters: int
    p_in: float
    p_out: float
    noise_fraction: float
    epochs: int
    importance_threshold: float  # 0 keeps every node; used by `contract` and by `train`
    no_contraction: bool  # train on the full graph (`contract` still runs as its own command)
    graphs: int  # distinct generated graphs per run; pass k uses graph k % graphs
    min_passes: int  # passes every run completes; quality metrics use exactly these
    short_reps: int  # runs of `contract` and `infer` per pass, for commands too short to time once
    acc_floor: float  # floor of the run's `acc`, an output check
    # scale times by the reference loop (run.reference_loop); see README, Design choices
    scale_to_reference: bool

    def graph_seed(self, seed: int, index: int) -> int:
        return seed * 100 + index

    def train_seed(self, seed: int, pass_index: int) -> int:
        return seed * 1000 + pass_index

    def config_text(self) -> str:
        keys = dict(BENCH_NETWORK, epochs=self.epochs,
                    importance_threshold=self.importance_threshold,
                    no_contraction=self.no_contraction)
        return "".join(f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n"
                       for k, v in keys.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sbm120-noisy", nodes=120, clusters=4, p_in=0.5, p_out=0.05,
            noise_fraction=0.2, epochs=60, importance_threshold=0.0, no_contraction=False,
            graphs=10, min_passes=10, short_reps=5, acc_floor=0.45, scale_to_reference=True,
        ),
        Workload(
            name="sbm1500-full", nodes=1500, clusters=2, p_in=0.16, p_out=0.02,
            noise_fraction=0.05, epochs=5, importance_threshold=2.95e-3, no_contraction=True,
            graphs=1, min_passes=2, short_reps=2, acc_floor=0.6, scale_to_reference=False,
        ),
        Workload(
            name="sbm1500-contracted", nodes=1500, clusters=2, p_in=0.16, p_out=0.02,
            noise_fraction=0.05, epochs=20, importance_threshold=2.95e-3, no_contraction=False,
            graphs=1, min_passes=2, short_reps=2, acc_floor=0.9, scale_to_reference=False,
        ),
    )
}
