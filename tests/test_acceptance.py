"""Acceptance suite: every criterion as one test printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight training
criteria (5-7) run the real pipeline end to end and take a few minutes
combined. The MovieLens reconstruction criterion needs the stock raw files
(WGCLUST_ML100K_DIR or tests/data/ml-100k) and skips without them.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from wgclust.attention import build_attention_structure, network_forward
from wgclust.cli import main as cli_main
from wgclust.config import TrainConfig
from wgclust.graph import build_graph, induce_subgraph, inject_noise_edges, synth_weighted_sbm
from wgclust.losses import modularity
from wgclust.metrics import evaluate
from wgclust.trainer import infer, train

from graph_helpers import neighbors
from numeric_helpers import entmax, entmax_vjp, gradient_check, softmax

# shared benchmark configuration for the training criteria: within the tuning
# grids where the source settings give one (layers in 2..6, alpha 1.55,
# lr 0.005, eta 0.03), sized for desk-scale runtimes
BENCH = dict(
    layer_count=2,
    heads=4,
    embed_dim=32,
    attn_dim=32,
    hidden_dim=32,
    epochs=300,
    negatives=5,
    patience=0,
)


def _sparsemax_oracle(z):
    zs = np.sort(z)[::-1]
    css = np.cumsum(zs) - 1.0
    ks = np.arange(1, z.size + 1)
    support = ks[zs - css / ks > 0][-1]
    tau = css[support - 1] / support
    return np.maximum(z - tau, 0.0)


def test_criterion_1_entmax_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_sparsemax = 0.0
    worst_softmax = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 65))
        z = rng.normal(size=d)
        worst_sparsemax = max(
            worst_sparsemax, float(np.abs(entmax(z, 2.0) - _sparsemax_oracle(z)).max())
        )
        z2 = rng.uniform(-1.0, 1.0, size=d)
        worst_softmax = max(
            worst_softmax, float(np.abs(entmax(z2, 1.001) - softmax(z2)).max())
        )
    elapsed = time.perf_counter() - t0
    assert worst_sparsemax <= 1e-8
    assert worst_softmax <= 1e-3
    assert elapsed < 5.0
    print(
        f"\nPASS criterion-1: sparsemax L_inf {worst_sparsemax:.2e} <= 1e-8, "
        f"softmax L_inf {worst_softmax:.2e} <= 1e-3, {elapsed:.1f}s < 5s"
    )


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    # entmax gradient vs central differences
    rng = np.random.default_rng(57)
    z = rng.normal(size=6)
    u = rng.normal(size=6)
    analytic = entmax_vjp(entmax(z, 1.55), 1.55, u)
    h = 1e-5
    fd = np.zeros(6)
    for i in range(6):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        fd[i] = (entmax(zp, 1.55) @ u - entmax(zm, 1.55) @ u) / (2 * h)
    jvp_err = float(
        (np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))).max()
    )
    # full pipeline on a 6-node graph, 3 layers, 2 heads, alpha 1.55
    g = build_graph(
        6, [0, 0, 1, 2, 3, 4, 1], [1, 2, 2, 3, 4, 5, 4], [2.0, 1.0, 3.0, 0.5, 2.0, 1.0, 1.5]
    )
    cfg = TrainConfig(
        heads=2, layer_count=3, embed_dim=6, attn_dim=5, hidden_dim=6,
        entmax_alpha=1.55, negatives=2, no_contraction=True,
    )
    pipeline_err = gradient_check(cfg, g)
    elapsed = time.perf_counter() - t0
    assert jvp_err <= 1e-4
    assert pipeline_err <= 1e-3
    assert elapsed < 30.0
    print(
        f"\nPASS criterion-2: entmax jvp rel err {jvp_err:.2e} <= 1e-4, "
        f"pipeline rel err {pipeline_err:.2e} <= 1e-3, {elapsed:.1f}s < 30s"
    )


def test_criterion_3_modularity_oracle():
    def brute(g, labels):
        w = np.zeros((g.n, g.n))
        for i in range(g.n):
            for j, x in neighbors(g, i):
                w[i, j] = x
        two_m = w.sum()
        k = w.sum(axis=1)
        q = 0.0
        for i in range(g.n):
            for j in range(g.n):
                if labels[i] == labels[j]:
                    q += w[i, j] - k[i] * k[j] / two_m
        return q / two_m

    rng = np.random.default_rng(3)
    checked = 0
    worst = 0.0
    while checked < 200:
        n = int(rng.integers(2, 13))
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < 0.5
        if not keep.any():
            continue
        w = rng.random(int(keep.sum())) * 4 + 0.1
        g = build_graph(n, iu[keep], ju[keep], w)
        labels = rng.integers(0, int(rng.integers(1, 5)), size=n)
        worst = max(worst, abs(modularity(g, labels) - brute(g, labels)))
        checked += 1
    assert worst <= 1e-12
    dyads = build_graph(4, [0, 2], [1, 3], [1.0, 1.0])
    assert modularity(dyads, [0, 0, 1, 1]) == 0.5
    print(f"\nPASS criterion-3: 200 random graphs, worst |Q - brute| {worst:.2e} <= 1e-12; "
          "two-dyad Q = 0.5 exactly")


def test_criterion_4_accuracy_oracle():
    def permutation_oracle(pred, truth):
        pred_labels = sorted(set(pred))
        true_labels = sorted(set(truth))
        targets = true_labels + [-1] * max(0, len(pred_labels) - len(true_labels))
        best = 0
        for perm in itertools.permutations(targets, len(pred_labels)):
            relabel = dict(zip(pred_labels, perm))
            best = max(best, sum(relabel[p] == t for p, t in zip(pred, truth)))
        return best / len(pred)

    rng = np.random.default_rng(4)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        pred = rng.integers(0, k, size=n)
        truth = rng.integers(0, k, size=n)
        acc = evaluate(pred, truth).accuracy
        assert acc == permutation_oracle(pred.tolist(), truth.tolist())
    print("\nPASS criterion-4: accuracy equals exhaustive permutation search on 500 instances")


def _bench_graph(seed, noise=0.0):
    lab = synth_weighted_sbm(120, 4, 0.5, 0.05, 5.0, 1.0, seed=seed)
    if noise == 0.0:
        return lab, lab.graph, np.empty((0, 2), dtype=np.int64)
    noisy, added = inject_noise_edges(lab.graph, noise, seed=seed + 1000)
    return lab, noisy, added


def test_criterion_5_separable_recovery():
    accs = []
    worst_seed_time = 0.0
    for seed in range(5):
        lab, g, _ = _bench_graph(seed)
        t0 = time.perf_counter()
        model = train(g, 4, TrainConfig(seed=seed, **BENCH))
        assignment = infer(g, model)
        worst_seed_time = max(worst_seed_time, time.perf_counter() - t0)
        acc = evaluate(assignment.labels, lab.labels).accuracy
        accs.append(acc)
    median = float(np.median(accs))
    assert median >= 0.90
    assert worst_seed_time < 120.0
    print(
        f"\nPASS criterion-5: accs {[f'{a:.2f}' for a in accs]}, median {median:.3f} >= 0.90, "
        f"slowest seed {worst_seed_time:.0f}s < 120s"
    )


def test_criterion_6_noise_robustness():
    stats = {False: [], True: []}
    attn_means = []
    zero_noise_edges = 0
    for use_softmax in (False, True):
        for seed in range(5):
            lab, noisy, added = _bench_graph(seed, noise=0.2)
            cfg = TrainConfig(seed=seed, softmax_instead_of_entmax=use_softmax, **BENCH)
            model = train(noisy, 4, cfg)
            acc = evaluate(infer(noisy, model).labels, lab.labels).accuracy
            stats[use_softmax].append(acc)
            if not use_softmax:
                s = build_attention_structure(noisy, cfg)
                pairs = {(int(u), int(v)) for u, v in added}
                pairs |= {(v, u) for u, v in pairs}
                is_noise = np.fromiter(
                    ((int(a), int(b)) in pairs for a, b in zip(s.src, s.dst)),
                    dtype=bool, count=s.src.size,
                )
                avg = network_forward(s, model.params, cfg)[1]
                is_self = s.src == s.dst
                noise_mean = avg[is_noise & ~is_self].mean()
                orig_mean = avg[~is_noise & ~is_self].mean()
                assert noise_mean < orig_mean  # strictly, per seed
                attn_means.append((float(noise_mean), float(orig_mean)))
                zero_noise_edges += int((avg[is_noise & ~is_self] == 0.0).sum())
    med_full = float(np.median(stats[False]))
    med_soft = float(np.median(stats[True]))
    assert med_full >= med_soft
    assert zero_noise_edges > 0  # entmax silences some injected edges outright
    print(
        f"\nPASS criterion-6: median ACC full {med_full:.3f} >= softmax {med_soft:.3f}; "
        f"noise attention < original attention on all seeds "
        f"(e.g. {attn_means[0][0]:.4f} < {attn_means[0][1]:.4f}); "
        f"{zero_noise_edges} noise directions at exactly 0"
    )


def test_criterion_7_contraction_speedup():
    full_times, sub_times = [], []
    full_accs, sub_accs = [], []
    kw = dict(BENCH, epochs=40)
    for seed in range(3):
        lab = synth_weighted_sbm(1500, 2, 0.16, 0.02, 5.0, 1.0, seed=seed)
        g = lab.graph
        # the ACC is scored outside the timed region, as in criterion 5
        t0 = time.perf_counter()
        model = train(g, 2, TrainConfig(seed=seed, no_contraction=True, **kw))
        labels = infer(g, model).labels
        full_times.append(time.perf_counter() - t0)
        full_accs.append(evaluate(labels, lab.labels).accuracy)
        t0 = time.perf_counter()
        model = train(g, 2, TrainConfig(seed=seed, importance_threshold=2.95e-3, **kw))
        labels = infer(g, model).labels
        sub_times.append(time.perf_counter() - t0)
        sub_accs.append(evaluate(labels, lab.labels).accuracy)
        assert induce_subgraph(g, model.selected).num_edges < g.num_edges / 2
    ratio = sum(sub_times) / sum(full_times)
    gap = abs(float(np.median(full_accs)) - float(np.median(sub_accs)))
    assert ratio <= 0.5
    assert gap <= 0.05
    print(
        f"\nPASS criterion-7: wall-clock ratio {ratio:.3f} <= 0.5 "
        f"({sum(sub_times):.0f}s vs {sum(full_times):.0f}s at equal epochs), "
        f"median ACC gap {gap:.3f} <= 0.05 "
        f"(full {np.median(full_accs):.3f}, contracted {np.median(sub_accs):.3f})"
    )


def _real_ml100k_dir():
    for candidate in (
        os.environ.get("WGCLUST_ML100K_DIR"),
        Path(__file__).parent / "data" / "ml-100k",
    ):
        if candidate and Path(candidate).joinpath("u.data").exists():
            return Path(candidate)
    return None


@pytest.mark.skipif(
    _real_ml100k_dir() is None,
    reason="stock MovieLens 100K files not available (set WGCLUST_ML100K_DIR)",
)
def test_criterion_8_ml100k_reconstruction():
    from wgclust.ml100k import build_ml100k

    d = _real_ml100k_dir()
    labeled, report = build_ml100k(d / "u.data", d / "u.item")
    assert report.cluster_count == 9
    assert abs(report.node_count - 1612) <= 0.02 * 1612
    assert abs(report.edge_count - 58424) <= 0.02 * 58424
    print(
        f"\nPASS criterion-8: {report.node_count} nodes (ref 1612 +-2%), "
        f"{report.edge_count} edges (ref 58424 +-2%), {report.cluster_count} clusters"
    )
    # best-effort, non-gating: clustering quality on the rebuilt graph
    model = train(labeled.graph, labeled.cluster_count,
                  TrainConfig(seed=0, importance_threshold=1e-3, **BENCH))
    acc = evaluate(infer(labeled.graph, model).labels, labeled.labels).accuracy
    print(f"INFO criterion-8 (non-gating): trained ACC {acc:.4f} vs 0.4636 reference")


def test_criterion_9_pipeline_determinism(tmp_path):
    def run(tag):
        base = tmp_path / tag
        assert cli_main([
            "synth", "--nodes", "60", "--clusters", "3", "--p-in", "0.5", "--p-out", "0.05",
            "--w-in-mean", "5", "--w-out-mean", "1", "--seed", "7",
            "--out", str(base / "data"),
        ]) == 0
        assert cli_main([
            "train", "--edges", str(base / "data" / "edges.tsv"), "--clusters", "3",
            "--seed", "7", "--epochs", "8", "--heads", "2", "--layer-count", "2",
            "--out", str(base / "model"),
        ]) == 0
        assert cli_main([
            "eval", "--pred", str(base / "model" / "assignment.csv"),
            "--truth", str(base / "data" / "labels.tsv"), "--out", str(base / "eval"),
        ]) == 0
        return (
            (base / "model" / "assignment.csv").read_bytes(),
            (base / "eval" / "eval.json").read_bytes(),
        )

    a = run("first")
    b = run("second")
    assert a[0] == b[0]
    assert a[1] == b[1]
    print("\nPASS criterion-9: synth -> train -> eval reproduces byte-identical outputs")
