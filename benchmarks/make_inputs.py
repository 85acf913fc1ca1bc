"""Generate one run's inputs: `wgclust synth` graphs (with noise) and the train config.

Run as its own process by run.py, which times it as `setup_s`; the O(n^2)
generator's memory therefore stays out of the measuring process.

    python3 benchmarks/make_inputs.py --spec '<Workload fields as JSON>' --seed N --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

from workloads import Workload


def make_inputs(workload: Workload, seed: int, out: Path) -> None:
    from wgclust.cli import main as wgclust_main

    out.mkdir(parents=True, exist_ok=True)
    for index in range(workload.graphs):
        argv = [
            "synth", "--nodes", str(workload.nodes), "--clusters", str(workload.clusters),
            "--p-in", str(workload.p_in), "--p-out", str(workload.p_out),
            "--noise-fraction", str(workload.noise_fraction),
            "--seed", str(workload.graph_seed(seed, index)), "--out", str(out / f"g{index}"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = wgclust_main(argv)
        if code != 0:
            raise RuntimeError(f"wgclust synth exited with {code}")
    (out / "train.cfg").write_text(workload.config_text(), encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="Workload fields as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    make_inputs(Workload(**json.loads(args.spec)), args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
