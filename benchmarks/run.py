"""wgclust benchmark: one workload run, printed as metrics plus a JSON result line.

    python3 benchmarks/run.py --workload sbm120-noisy --seed 0 --seconds 30 --trace 0

Set-up generates the inputs from --seed in child processes (timed as
`setup_s`). The measuring process then drives the user path in-process
through `wgclust.cli.main`, pass after pass, for --seconds: `contract`,
`train`, `infer`, `eval`, `attention-dump`. Each command is timed from the
outside and its outputs are checked; a non-zero exit, an exception or a
failed check counts as a failed operation. With --trace 1 the passes come in
pairs, one untraced and one with spans installed (tracing.py); the pair must
write byte-identical outputs, and the traced passes give the per-layer
metrics. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_REPS = 3
REFERENCE_REPS = 3  # reference-loop timings before every pass
REFERENCE_S = 0.012  # the reference loop's time at the speed reported times are scaled to
HARD_LIMIT_S = 140.0  # the measuring loop stops starting passes after this, whatever --seconds says
MEMBERSHIP_SUM_TOL = 1e-9
ATTENTION_SUM_TOL = 1e-6

END_TO_END_UNITS = {
    "setup_s": "s",
    "contract_cmd_s": "s",
    "train_cmd_s": "s",
    "infer_cmd_s": "s",
    "peak_rss_mb": "MB",
    "acc": "frac",
}

# outputs that must be byte-identical between an untraced pass and its traced twin
COMPARED_OUTPUTS = (
    "contract/subgraph_edges.tsv", "contract/selection.tsv", "contract/cores.tsv",
    "train/assignment.csv", "train/loss_history.csv", "infer/assignment.csv",
    "eval/eval.json", "dump/attention.csv",
)


class SetupError(RuntimeError):
    pass


class OutputCheckError(RuntimeError):
    pass


def import_wgclust_cli():
    """Import wgclust from this checkout's src/, never from an installed copy."""
    if not (SRC / "wgclust" / "__init__.py").is_file():
        raise SetupError(f"no wgclust sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import wgclust.cli

    if Path(wgclust.cli.__file__).resolve().parent != (SRC / "wgclust").resolve():
        raise SetupError(f"imported wgclust from {wgclust.cli.__file__}, not from {SRC}")
    return wgclust.cli


# ---------------------------------------------------------------------------
# set-up: inputs generated in child processes, stored by (workload, seed)
# ---------------------------------------------------------------------------

def _input_digest(directory: Path) -> str:
    # run_manifest.json holds wall-clock times, so it is left out
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name != "run_manifest.json":
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def set_up(workload: Workload, seed: int, work: Path, reps: int = SETUP_REPS):
    """Generate the inputs ``reps`` times; return (inputs dir, seconds per rep).

    Every repetition, and any inputs stored earlier for the same workload
    definition and seed, must be byte-identical.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    spec = json.dumps(dataclasses.asdict(workload), sort_keys=True)
    spec_id = hashlib.sha256(spec.encode()).hexdigest()[:12]  # a changed workload is a new key
    stored = work / "inputs" / f"{workload.name}-seed{seed}-{spec_id}"
    times, digests = [], []
    for rep in range(reps):
        out = work / "setup" / f"rep{rep}"
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, str(BENCH_DIR / "make_inputs.py"),
               "--spec", spec, "--seed", str(seed), "--out", str(out)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(f"input generation failed ({proc.returncode}):\n{proc.stderr}")
        digests.append(_input_digest(out))
    if len(set(digests)) != 1:
        raise SetupError("input generation is not deterministic for this seed")
    if stored.exists():
        if _input_digest(stored) != digests[0]:
            raise SetupError(f"inputs stored in {stored} differ from a fresh generation")
    else:
        stored.parent.mkdir(parents=True, exist_ok=True)
        (work / "setup" / "rep0").rename(stored)
    shutil.rmtree(work / "setup", ignore_errors=True)
    return stored, times


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class GraphInfo:
    n: int
    edges: int
    noise_keys: np.ndarray  # i * n_ids + j for both directions of every injected edge
    n_ids: int


def graph_info(graph_dir: Path) -> GraphInfo:
    e = np.loadtxt(graph_dir / "edges.tsv", delimiter="\t", ndmin=2)
    ids = e[:, :2].astype(np.int64)
    n_ids = int(ids.max()) + 1
    noise_path = graph_dir / "noise_edges.tsv"
    noise = np.empty((0, 2), dtype=np.int64)
    if noise_path.exists() and noise_path.stat().st_size:
        noise = np.loadtxt(noise_path, delimiter="\t", dtype=np.int64, ndmin=2)
    keys = np.concatenate([noise[:, 0] * n_ids + noise[:, 1], noise[:, 1] * n_ids + noise[:, 0]])
    return GraphInfo(n=np.unique(ids).size, edges=e.shape[0], noise_keys=keys, n_ids=n_ids)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OutputCheckError(message)


def _manifest(outdir: Path) -> dict:
    path = outdir / "run_manifest.json"
    _require(path.is_file(), f"{outdir.name}: no run_manifest.json")
    return json.loads(path.read_text(encoding="utf-8"))


def check_assignment(path: Path, n: int, k: int) -> None:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [line.rstrip("\n").split(",") for line in fh]
    _require(header == "node,label," + ",".join(f"Y_{j}" for j in range(k)),
             f"{path.name}: bad header {header!r}")
    _require(len(rows) == n, f"{path.name}: {len(rows)} rows, expected {n}")
    labels = np.array([int(r[1]) for r in rows])
    y = np.array([[float(x) for x in r[2:]] for r in rows])
    _require(y.shape == (n, k), f"{path.name}: membership block has shape {y.shape}")
    _require(bool(np.isfinite(y).all()), f"{path.name}: non-finite membership")
    _require(bool(((labels >= 0) & (labels < k)).all()), f"{path.name}: label outside 0..{k - 1}")
    worst = float(np.abs(y.sum(axis=1) - 1.0).max())
    _require(worst <= MEMBERSHIP_SUM_TOL, f"{path.name}: membership row sum off by {worst:.3e}")
    _require(bool((labels == y.argmax(axis=1)).all()), f"{path.name}: label is not the argmax")


def check_contract(outdir: Path, info: GraphInfo, threshold: float) -> int:
    m = _manifest(outdir)
    before, after = m["edges_before_contraction"], m["edges_after_contraction"]
    _require(before == info.edges, f"contract: read {before} edges, the input has {info.edges}")
    if threshold > 0:
        _require(after < before,
                 f"contract: kept {after} of {before} edges at threshold {threshold}")
    else:
        _require(after == before, f"contract: kept {after} of {before} edges at threshold 0")
    with open(outdir / "subgraph_edges.tsv", encoding="utf-8") as fh:
        written = sum(1 for _ in fh)
    _require(written == after, f"contract: wrote {written} subgraph edges, manifest says {after}")
    selected = {line.split("\t")[0] for line in
                (outdir / "selection.tsv").read_text(encoding="utf-8").splitlines()}
    cores = (outdir / "cores.tsv").read_text(encoding="utf-8").split()
    _require(bool(cores), "contract: no cores")
    _require(set(cores) <= selected, "contract: a core is missing from the selection")
    return after


def attention_zero_stats(path: Path, info: GraphInfo) -> tuple[int, int]:
    """Check the dump; return (noise directions at exactly 0, noise directions)."""
    a = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(a.shape == (2 * info.edges + info.n, 3),
             f"attention.csv: shape {a.shape}, expected {(2 * info.edges + info.n, 3)}")
    i, j, coef = a[:, 0].astype(np.int64), a[:, 1].astype(np.int64), a[:, 2]
    _require(bool(((coef >= 0) & (coef <= 1)).all()), "attention.csv: coefficient outside [0, 1]")
    sums = np.bincount(i, weights=coef, minlength=info.n_ids)[np.unique(i)]
    worst = float(np.abs(sums - 1.0).max())
    _require(worst <= ATTENTION_SUM_TOL, f"attention.csv: row sum off by {worst:.3e}")
    is_noise = np.isin(i * info.n_ids + j, info.noise_keys)
    return int((coef[is_noise] == 0.0).sum()), int(is_noise.sum())


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Tally:
    """Command times, operation counts, failures and quality of one run."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failures: list[str] = []
        self.acc: dict[int, float] = {}
        self.noise_zero = [0, 0]  # zeros, directions
        self.command_s = 0.0  # wall time inside commands, checks excluded
        self.reference_times: list[float] = []

    def fail(self, where: str, message: str) -> None:
        self.failures.append(f"{where}: {message}")


def _invoke(cli_main, tally: Tally, tracer, where: str, command: str, argv: list[str], check):
    """Run one command, time it, check its outputs; False if it failed."""
    tally.attempted += 1
    span = tracer.span(f"cli.{command}") if tracer is not None else contextlib.nullcontext()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main([command, *argv])
    except Exception:  # a crash is a failed operation; the run goes on
        tally.fail(where, traceback.format_exc(limit=3))
        return False
    seconds = time.perf_counter() - t0
    tally.command_s += seconds
    if code != 0:
        tally.fail(where, f"exit {code}: {sink.getvalue().strip()[-300:]}")
        return False
    try:
        check()
    except (OutputCheckError, OSError, ValueError, KeyError, IndexError) as exc:
        tally.fail(where, f"output check: {exc}")
        return False
    tally.samples[command].append(seconds)
    return True


def run_pass(cli_main, w: Workload, inputs: Path, infos: dict, k: int, seed: int, out: Path,
             tally: Tally, tracer=None) -> float:
    """One pass of the user path on graph k % w.graphs; returns its wall seconds."""
    t_pass = time.perf_counter()
    g = inputs / f"g{k % w.graphs}"
    if g not in infos:
        infos[g] = graph_info(g)
    info = infos[g]
    edges, labels = str(g / "edges.tsv"), str(g / "labels.tsv")
    d = {name: out / name for name in ("contract", "train", "infer", "eval", "dump")}
    where = f"pass {k}"
    kept = []

    def contract_ok():
        kept.append(check_contract(d["contract"], info, w.importance_threshold))

    for _ in range(w.short_reps):
        _invoke(cli_main, tally, tracer, where, "contract",
                ["--edges", edges, "--clusters", str(w.clusters),
                 "--threshold", repr(w.importance_threshold), "--out", str(d["contract"])],
                contract_ok)

    def train_ok():
        m = _manifest(d["train"])
        if not w.no_contraction and kept:
            _require(m["edges_after_contraction"] == kept[-1],
                     "train: contracted edge count differs from the contract command's")
        check_assignment(d["train"] / "assignment.csv", info.n, w.clusters)

    trained = _invoke(cli_main, tally, tracer, where, "train",
                      ["--edges", edges, "--clusters", str(w.clusters),
                       "--config", str(inputs / "train.cfg"),
                       "--seed", str(w.train_seed(seed, k)), "--out", str(d["train"])],
                      train_ok)

    def infer_ok():
        _manifest(d["infer"])
        same = (d["infer"] / "assignment.csv").read_bytes() == \
            (d["train"] / "assignment.csv").read_bytes()
        _require(same, "infer: assignment differs from the one train wrote")

    def eval_ok():
        tally.acc[k] = json.loads((d["eval"] / "eval.json").read_text(encoding="utf-8"))["accuracy"]

    def dump_ok():
        _manifest(d["dump"])
        zeros, total = attention_zero_stats(d["dump"] / "attention.csv", info)
        tally.noise_zero[0] += zeros
        tally.noise_zero[1] += total

    checkpoint = str(d["train"] / "checkpoint.npz")
    later = [
        ("infer", ["--checkpoint", checkpoint, "--edges", edges, "--out", str(d["infer"])],
         infer_ok, w.short_reps),
        ("eval", ["--pred", str(d["infer"] / "assignment.csv"), "--truth", labels,
                  "--out", str(d["eval"])], eval_ok, 1),
        ("attention-dump", ["--checkpoint", checkpoint, "--edges", edges,
                            "--out", str(d["dump"])], dump_ok, 1),
    ]
    for command, argv, check, reps in later:
        for _ in range(reps):
            if trained:
                _invoke(cli_main, tally, tracer, where, command, argv, check)
            else:  # nothing to run it on: still an attempted, failed operation
                tally.attempted += 1
                tally.fail(where, f"{command}: not run, train failed")
    return time.perf_counter() - t_pass


def warm_up(cli_main, w: Workload, work: Path) -> None:
    """Run every command once on a tiny graph so that lazy set-up is not timed."""
    from make_inputs import make_inputs

    tiny = dataclasses.replace(w, name="warm-up", nodes=40, clusters=2, epochs=1, graphs=1,
                               short_reps=1)
    make_inputs(tiny, 0, work / "warm-up" / "inputs")
    run_pass(cli_main, tiny, work / "warm-up" / "inputs", {}, 0, 0, work / "warm-up" / "out",
             Tally())
    shutil.rmtree(work / "warm-up", ignore_errors=True)


def reference_loop() -> float:
    """Time a fixed pure-Python loop, a yardstick for the interpreter's current speed.

    On a shared machine the speed of interpreted code can change by a third
    from one minute to the next. For workloads with ``scale_to_reference``
    the command times are divided by the median of these timings from the
    same run (see end_to_end_metrics). The loop runs no wgclust code, so a
    change to the program cannot move it.
    """
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(60000):
        table[i % 997] = table.get(i % 997, 0.0) + i * 0.5
    sorted(table.values())
    return time.perf_counter() - t0


def measure(cli_main, w: Workload, inputs: Path, seed: int, seconds: float, work: Path,
            tracer: tracing.Tracer | None = None):
    """Run passes for ``seconds`` (at least w.min_passes of them, or one traced pair).

    Returns (tally, traced pass ids, traced/untraced command-time ratios).
    """
    tally, infos = Tally(), {}
    traced_runs, ratios, walls = [], [], []
    minimum = w.min_passes if tracer is None else 1
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        if k >= minimum and (elapsed + statistics.median(walls) > seconds
                             or elapsed > HARD_LIMIT_S):
            break
        out = work / f"pass{k}"
        tally.reference_times.extend(reference_loop() for _ in range(REFERENCE_REPS))
        if tracer is None:
            walls.append(run_pass(cli_main, w, inputs, infos, k, seed, out, tally))
        else:
            # untraced and traced twins of pass k, in alternating order
            command_s, wall = {}, 0.0
            tracer.run = k
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                before = tally.command_s
                with tracing.installed(tracer) if traced else contextlib.nullcontext():
                    wall += run_pass(cli_main, w, inputs, infos, k, seed,
                                     out / ("traced" if traced else "plain"), tally,
                                     tracer if traced else None)
                command_s[traced] = tally.command_s - before
            walls.append(wall)
            traced_runs.append(k)
            ratios.append(command_s[True] / command_s[False])
            tally.attempted += 1
            for rel in COMPARED_OUTPUTS:
                a, b = out / "plain" / rel, out / "traced" / rel
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    tally.fail(f"pass {k}", f"traced output {rel} differs from the untraced one")
                    break
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    return tally, traced_runs, ratios


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "wgclust").glob("*.py")):
        src_hash.update(path.name.encode())
        src_hash.update(path.read_bytes())
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "git_commit": commit or None,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in threads},
    }


def _median(values):
    return statistics.median(values) if values else None


def raw_times(tally: Tally, setup_times: list[float]) -> dict:
    """Median wall seconds as measured, unscaled."""
    return {
        "setup_s": _median(setup_times),
        "contract_cmd_s": _median(tally.samples["contract"]),
        "train_cmd_s": _median(tally.samples["train"]),
        "infer_cmd_s": _median(tally.samples["infer"]),
    }


def end_to_end_metrics(w: Workload, tally: Tally, setup_times: list[float]) -> dict:
    """Median wall seconds; for w.scale_to_reference, times REFERENCE_S / reference loop."""
    scale = REFERENCE_S / statistics.median(tally.reference_times) if w.scale_to_reference else 1.0
    metrics = {name: None if raw is None else raw * scale
               for name, raw in raw_times(tally, setup_times).items()}
    accs = [tally.acc[k] for k in range(w.min_passes) if k in tally.acc]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["acc"] = statistics.fmean(accs) if accs else None
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
               ROOT / ".bench_work")


def run(w: Workload, seed: int, seconds: float, trace: bool, work: Path) -> int:
    try:
        cli = import_wgclust_cli()
        inputs, setup_times = set_up(w, seed, work)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    run_dir = work / "runs" / f"{w.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    tracer = tracing.Tracer() if trace else None
    coverage = {}
    try:
        warm_up(cli.main, w, run_dir)
        tally, traced_runs, ratios = measure(cli.main, w, inputs, seed, seconds, run_dir, tracer)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if trace:
        metrics = tracing.layer_metrics(tracer, traced_runs)
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        zeros, total = tally.noise_zero
        metrics["attention.noise_zero_frac"] = zeros / total if total else None
        units = tracing.LAYER_UNITS
        coverage = tracing.command_coverage(tracer, traced_runs)
    else:
        metrics = end_to_end_metrics(w, tally, setup_times)
        units = END_TO_END_UNITS
        tally.attempted += 1
        if metrics["acc"] is not None and metrics["acc"] < w.acc_floor:
            tally.fail("acc", f"mean accuracy {metrics['acc']:.4f} below the floor {w.acc_floor}")
    tally.attempted += 1
    missing = [name for name in units if metrics.get(name) is None]
    if missing:
        tally.fail("metrics", f"could not measure {', '.join(missing)}")

    env = environment()
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{w.name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))
    report = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace, "env": env,
        "attempted": tally.attempted, "failed": len(tally.failures),
        "fail_frac": len(tally.failures) / tally.attempted, "failures": tally.failures,
        "samples": tally.samples, "setup_samples": setup_times, "acc_per_pass": tally.acc,
        "reference_loop_s": tally.reference_times, "raw_median_s": raw_times(tally, setup_times),
        "command_coverage": coverage,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2), encoding="utf-8")

    counts = ", ".join(f"{command} {len(times)}" for command, times in tally.samples.items())
    print(f"workload {w.name} seed {seed} trace {int(trace)}; timed samples: {counts}")
    print("env " + json.dumps(env, sort_keys=True))
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        value = metrics.get(name)
        print(f"{name:44s} {'n/a' if value is None else f'{value:.6g}':>14s} {unit}")
    if w.scale_to_reference and not trace:
        raw = ", ".join(f"{name} {value:.6g}" for name, value in report["raw_median_s"].items()
                        if value is not None)
        print(f"unscaled wall seconds: {raw}; reference loop "
              f"{statistics.median(tally.reference_times):.6g} s against {REFERENCE_S} s")
    for name, frac in coverage.items():
        print(f"coverage of {name:32s} {frac:>14.6g} frac")
    print(f"{'fail_frac':44s} {report['fail_frac']:>14.6g} frac "
          f"({report['failed']} of {report['attempted']} operations)")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if metrics.get(name) is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
