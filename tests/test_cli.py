"""End-to-end command-line runs in temp directories."""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wgclust.cli import main
from wgclust.graph import load_edge_list

FAST_CONFIG = """
heads = 2
layer_count = 2
embed_dim = 8
attn_dim = 8
hidden_dim = 8
epochs = 5
fcm_restarts = 2
negatives = 2
no_contraction = true
"""


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert run_cli(
        "synth", "--nodes", 30, "--clusters", 2, "--p-in", 0.6, "--p-out", 0.1,
        "--seed", 3, "--out", out,
    ) == 0
    return out


class TestSynth:
    def test_outputs_and_manifest(self, synth_dir):
        assert (synth_dir / "edges.tsv").exists()
        assert (synth_dir / "labels.tsv").exists()
        manifest = json.loads((synth_dir / "run_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["wall_clock_seconds"] >= 0
        for p in manifest["outputs"]:
            assert Path(p).exists()

    def test_noise_flag_writes_noise_edges(self, tmp_path):
        out = tmp_path / "noisy"
        assert run_cli(
            "synth", "--nodes", 30, "--clusters", 2, "--p-in", 0.6, "--p-out", 0.1,
            "--noise-fraction", 0.1, "--seed", 3, "--out", out,
        ) == 0
        lines = (out / "noise_edges.tsv").read_text().strip().splitlines()
        g = load_edge_list(out / "edges.tsv")
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert len(lines) == manifest["config"]["noise_edges"]


class TestContract:
    def test_contract_outputs(self, synth_dir, tmp_path):
        out = tmp_path / "contracted"
        assert run_cli(
            "contract", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--threshold", 0.01, "--out", out,
        ) == 0
        sub = load_edge_list(out / "subgraph_edges.tsv")
        assert sub.n >= 2
        selection = (out / "selection.tsv").read_text().strip().splitlines()
        assert len(selection) == sub.n
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["edges_after_contraction"] <= manifest["edges_before_contraction"]

    def test_contraction_flags_reach_manifest(self, synth_dir, tmp_path):
        out = tmp_path / "contracted"
        assert run_cli(
            "contract", "--edges", synth_dir / "edges.tsv", "--clusters", 2, "--cores", 3,
            "--threshold", 0.01, "--distance-mode", "unit", "--density-weight", 0.25,
            "--teleport", 0.75, "--out", out,
        ) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == {
            "core_count": 3, "density_weight": 0.25, "teleport": 0.75,
            "importance_threshold": 0.01, "distance_mode": "unit",
        }
        assert len((out / "cores.tsv").read_text().splitlines()) == 3


class TestTrainInferEval:
    def test_full_pipeline_and_determinism(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        for out in (out1, out2):
            assert run_cli(
                "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                "--config", cfg, "--seed", 5, "--out", out,
            ) == 0
        a1 = (out1 / "assignment.csv").read_bytes()
        a2 = (out2 / "assignment.csv").read_bytes()
        assert a1 == a2  # byte-identical across identical seeded runs
        for name in ("checkpoint.npz", "loss_history.csv", "config_echo.txt"):
            assert (out1 / name).exists()
        hist = (out1 / "loss_history.csv").read_text().splitlines()
        assert hist[0] == "epoch,L_G,L_M,total,Q"
        assert len(hist) == 6  # header + 5 epochs

        ev = run_cli("eval", "--pred", out1 / "assignment.csv",
                     "--truth", synth_dir / "labels.tsv", "--out", tmp_path / "eval")
        assert ev == 0
        report = json.loads((tmp_path / "eval" / "eval.json").read_text())
        assert 0.0 <= report["accuracy"] <= 1.0
        assert (tmp_path / "eval" / "confusion.csv").exists()

    def test_eval_identical_files_scores_one(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "run"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--out", out,
        ) == 0
        # self-agreement: predictions against themselves as truth
        pred = out / "assignment.csv"
        truth = tmp_path / "truth.tsv"
        rows = pred.read_text().splitlines()[1:]
        truth.write_text("\n".join(f"{r.split(',')[0]}\t{r.split(',')[1]}" for r in rows) + "\n")
        assert run_cli("eval", "--pred", pred, "--truth", truth) == 0

    def test_zero_epoch_train_writes_empty_history(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "run0"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--epochs", 0, "--out", out,
        ) == 0
        assert (out / "checkpoint.npz").exists()
        hist = (out / "loss_history.csv").read_text().splitlines()
        assert len(hist) == 1  # header only

    def test_infer_from_checkpoint(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        train_out = tmp_path / "train"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--out", train_out,
        ) == 0
        infer_out = tmp_path / "infer"
        assert run_cli(
            "infer", "--checkpoint", train_out / "checkpoint.npz",
            "--edges", synth_dir / "edges.tsv", "--out", infer_out,
        ) == 0
        assert (infer_out / "assignment.csv").read_bytes() == (
            train_out / "assignment.csv"
        ).read_bytes()

    def test_ablation_flag_changes_config_echo(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "abl"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--ablation", "entmax", "--out", out,
        ) == 0
        echo = (out / "config_echo.txt").read_text()
        assert "softmax_instead_of_entmax = true" in echo

    def test_every_override_flag_reaches_config_echo(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "flags"
        flags = {
            "seed": 7, "epochs": 0, "patience": 3, "heads": 3, "layer-count": 1,
            "core-count": 4, "importance-threshold": 0.002, "entmax-alpha": 1.7,
            "modularity-weight": 0.05, "density-weight": 0.25, "learning-rate": 0.01,
        }
        argv = [a for flag, value in flags.items() for a in (f"--{flag}", value)]
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, *argv, "--out", out,
        ) == 0
        echo = (out / "config_echo.txt").read_text().splitlines()
        for flag, value in flags.items():
            assert f"{flag.replace('-', '_')} = {value}" in echo

    def test_one_seed_sweep_matches_seed_flag(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        runs = {"--seeds": tmp_path / "seeds", "--seed": tmp_path / "seed"}
        for flag, out in runs.items():
            assert run_cli(
                "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                "--config", cfg, flag, 5, "--out", out,
            ) == 0
            assert capsys.readouterr().out.startswith("trained in ")
        a, b = runs.values()
        for name in ("assignment.csv", "loss_history.csv", "config_echo.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        with np.load(a / "checkpoint.npz") as za, np.load(b / "checkpoint.npz") as zb:
            assert sorted(za.files) == sorted(zb.files)
            for key in za.files:
                assert np.array_equal(za[key], zb[key])
        ma, mb = (json.loads((d / "run_manifest.json").read_text()) for d in runs.values())
        assert ma["command"] == mb["command"] == "train"
        assert ma["config"] == mb["config"] and ma["config"]["seed"] == 5

    def test_seed_sweep_writes_per_seed_outputs(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        out = tmp_path / "sweep"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--seeds", "1,2", "--jobs", 2, "--out", out,
        ) == 0
        assert capsys.readouterr().out == f"trained 2 seeds; outputs in {out}\n"
        assert (out / "seed_1" / "assignment.csv").exists()
        assert (out / "seed_2" / "assignment.csv").exists()
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["command"] == "train-sweep"
        assert manifest["config"]["seed"] == 0  # the base config, not a per-seed one
        assert len(manifest["outputs"]) == 8
        single = tmp_path / "single"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--seed", 2, "--out", single,
        ) == 0
        assert (single / "assignment.csv").read_bytes() == \
            (out / "seed_2" / "assignment.csv").read_bytes()


class TestAttentionDump:
    def test_dump_covers_all_directed_pairs(self, synth_dir, tmp_path):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        train_out = tmp_path / "train"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--out", train_out,
        ) == 0
        dump_out = tmp_path / "attn"
        assert run_cli(
            "attention-dump", "--checkpoint", train_out / "checkpoint.npz",
            "--edges", synth_dir / "edges.tsv", "--out", dump_out,
        ) == 0
        g = load_edge_list(synth_dir / "edges.tsv")
        lines = (dump_out / "attention.csv").read_text().strip().splitlines()
        assert lines[0] == "i,j,a_ij"
        assert len(lines) - 1 == 2 * g.num_edges + g.n  # both directions + self-loops
        coeffs = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert np.all(coeffs >= 0) and np.all(coeffs <= 1 + 1e-9)


class TestErrors:
    def test_missing_file_gives_nonzero_exit(self, tmp_path, capsys):
        rc = run_cli("train", "--edges", tmp_path / "absent.tsv", "--clusters", 2,
                     "--out", tmp_path / "o")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_ablation_rejected(self, synth_dir, tmp_path, capsys):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--ablation", "bogus", "--out", tmp_path / "o")
        assert rc == 1
        assert "unknown ablation" in capsys.readouterr().err

    @pytest.mark.parametrize("pred_rows, truth_rows, message", [
        # row 2 cut to its node token
        (["0,0,1.0,0.0", "1,1,0.0,1.0", "2", "3,1,0.0,1.0"], ["0\t0", "1\t1", "2\t0", "3\t1"],
         r"pred\.csv:4: expected 'node,label,\.\.\.', got '2'"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0", "1,0,1.0,0.0"], ["0\t0", "1\t1"],
         r"pred\.csv:4: node '1' appears twice"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0"], ["0\t0", "1\t1", "", "0\t1"],
         r"truth\.tsv:4: node '0' appears twice"),
        (["0,0,1.0,0.0", "1,x,1.0,0.0"], ["0\t0", "1\t1"],
         r"pred\.csv:3: label 'x' is not an integer"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0"], ["# truth", "0\t0", "1\t1.5"],
         r"truth\.tsv:3: label '1\.5' is not an integer"),
    ])
    def test_eval_rejects_short_and_duplicate_rows(self, tmp_path, capsys, pred_rows, truth_rows,
                                                   message):
        pred, truth = tmp_path / "pred.csv", tmp_path / "truth.tsv"
        pred.write_text("node,label,Y_0,Y_1\n" + "\n".join(pred_rows) + "\n")
        truth.write_text("\n".join(truth_rows) + "\n")
        assert run_cli("eval", "--pred", pred, "--truth", truth) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wgclust.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "attention-dump" in proc.stdout
