"""End-to-end command-line runs in temp directories."""

import csv
import json
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from wgclust.cli import main
from wgclust.config import load_config_file
from wgclust.contraction import contract
from wgclust.graph import induce_subgraph, load_edge_list, synth_weighted_sbm
from wgclust.metrics import evaluate

FAST_CONFIG = """
heads = 2
layer_count = 2
embed_dim = 8
attn_dim = 8
hidden_dim = 8
epochs = 5
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


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """(checkpoint, edges) of one small trained model, shared by the checkpoint tests."""
    root = tmp_path_factory.mktemp("trained")
    (root / "fast.cfg").write_text(FAST_CONFIG)
    assert run_cli(
        "synth", "--nodes", 30, "--clusters", 2, "--p-in", 0.6, "--p-out", 0.1,
        "--seed", 3, "--out", root / "synth",
    ) == 0
    assert run_cli(
        "train", "--edges", root / "synth" / "edges.tsv", "--clusters", 2,
        "--config", root / "fast.cfg", "--out", root / "train",
    ) == 0
    return root / "train" / "checkpoint.npz", root / "synth" / "edges.tsv"


def _shuffled_copy(edges, out):
    """``out``: the lines of the edge file ``edges`` in a seeded random order.

    The loader numbers nodes in the order the lines first name them, so most
    nodes of the copy get a dense id that differs from their token.
    """
    lines = edges.read_text().splitlines(keepends=True)
    out.write_text("".join(lines[i] for i in np.random.default_rng(0).permutation(len(lines))))
    return out


def _tokened_edges(path):
    """{frozenset of the two tokens: weight} of every line of an edge file."""
    pairs = (line.split("\t") for line in path.read_text().splitlines())
    return {frozenset((a, b)): float(w) for a, b, w in pairs}


def _with_key(key, value):
    def write(src, dst):
        with np.load(src) as z:
            data = dict(z)
        data[key] = value
        np.savez(dst, **data)
    return write


def _npy_under_npz_name(src, dst):
    with open(dst, "wb") as fh:
        np.save(fh, np.zeros(3))


def _flip_embedding_byte(src, dst):
    raw = bytearray(src.read_bytes())
    with zipfile.ZipFile(src) as archive:
        at = archive.getinfo("embedding.npy").header_offset + 400  # inside the array data
    raw[at] ^= 0xFF
    dst.write_bytes(bytes(raw))


# case -> (writer of the malformed file from a valid checkpoint, expected error)
MALFORMED_CHECKPOINTS = {
    "truncated": (lambda src, dst: dst.write_bytes(src.read_bytes()[:40]),
                  r"bad\.npz is not a readable checkpoint archive"),
    "empty": (lambda src, dst: dst.write_bytes(b""),
              r"bad\.npz is not a readable checkpoint archive"),
    "npy under an npz name": (_npy_under_npz_name, r"bad\.npz is not a checkpoint archive"),
    "corrupt member": (_flip_embedding_byte, r"checkpoint key embedding is unreadable"),
    "format_version of shape (2,)": (_with_key("format_version", np.array([2, 2])),
                                     r"checkpoint key format_version .* shape \(2,\)"),
    "cluster_count of shape (2,)": (_with_key("cluster_count", np.array([2, 2])),
                                    r"checkpoint key cluster_count .* shape \(2,\)"),
    "string embedding": (_with_key("embedding", np.full((30, 8), "x")),
                         r"checkpoint key embedding has dtype <U1"),
    "flat loss_history": (_with_key("loss_history", np.zeros(3)),
                          r"checkpoint key loss_history has shape \(3,\)"),
    "inf in loss_history": (_with_key("loss_history", np.full((5, 4), np.inf)),
                            r"checkpoint key loss_history holds a NaN or inf"),
    "integer node_ids": (_with_key("node_ids", np.arange(30)),
                         r"checkpoint key node_ids has dtype int64 and shape \(30,\); "
                         r"expected 30 strings"),
    "short node_ids": (_with_key("node_ids", np.array(["a", "b"])),
                       r"checkpoint key node_ids .* shape \(2,\); expected 30 strings"),
    "2-d node_ids": (_with_key("node_ids", np.full((30, 1), "a")),
                     r"checkpoint key node_ids .* shape \(30, 1\)"),
    "repeated node token": (_with_key("node_ids", np.array(["1"] + [str(i) for i in range(29)])),
                            r"checkpoint key node_ids lists '1' twice"),
}


def _first_nan(values):
    values = values.copy()
    values.flat[0] = np.nan
    return values


# case -> (key, its replacement from the valid value, expected error)
NON_FINITE_PARAMETERS = {
    "NaN in embedding": ("embedding", _first_nan, r"checkpoint key embedding holds a NaN or inf"),
    # finite, but every logit of layer 0 overflows, so the first entry's node, the
    # edge file's first token, is named
    "layer0_w1 times 1e200": ("layer0_w1", lambda w1: w1 * 1e200,
                              r"layer 0: non-finite activation at node '0'$"),
}


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

    @pytest.mark.parametrize("flag, value, field", [
        ("--noise-fraction", "inf", "fraction"),
        ("--noise-fraction", "nan", "fraction"),
        ("--noise-fraction", "-0.1", "fraction"),
        ("--w-in-mean", "nan", "w_in_mean"),
        ("--w-in-mean", "inf", "w_in_mean"),
        ("--w-out-mean", "nan", "w_out_mean"),
        ("--w-in-mean", "1e19", "w_in_mean"),  # above numpy's Poisson limit
        ("--w-out-mean", "1e300", "w_out_mean"),
    ])
    def test_bad_float_is_an_error_naming_the_field(self, tmp_path, capsys, flag, value, field):
        code = run_cli(
            "synth", "--nodes", 30, "--clusters", 2, "--p-in", 0.6, "--p-out", 0.1,
            flag, value, "--seed", 3, "--out", tmp_path / "bad",
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and field in err, err


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

    def test_subgraph_edges_are_the_input_edges_among_the_selected_tokens(self, synth_dir,
                                                                         tmp_path):
        # integer tokens in shuffled order: a subgraph named by its own dense ids
        # would name other input nodes
        edges = _shuffled_copy(synth_dir / "edges.tsv", tmp_path / "shuffled.tsv")
        out = tmp_path / "contracted"
        assert run_cli("contract", "--edges", edges, "--clusters", 2, "--threshold", 0.01,
                       "--out", out) == 0
        kept = {line.split("\t")[0] for line in (out / "selection.tsv").read_text().splitlines()}
        everything = _tokened_edges(edges)
        among = {pair: w for pair, w in everything.items() if pair <= kept}
        assert 0 < len(among) < len(everything)
        assert _tokened_edges(out / "subgraph_edges.tsv") == among

    def test_a_kept_token_that_would_not_read_back_is_an_error(self, tmp_path, capsys):
        edges = tmp_path / "e.tsv"
        edges.write_text("x\t#b\t1.0\nc\t#b\t2.0\nx\tc\t3.0\n")
        out = tmp_path / "contracted"
        assert run_cli("contract", "--edges", edges, "--clusters", 2, "--cores", 1,
                       "--threshold", 0, "--out", out) == 1
        assert "node token '#b' cannot be written" in capsys.readouterr().err
        assert not (out / "subgraph_edges.tsv").exists()

    def test_contraction_flags_reach_manifest(self, synth_dir, tmp_path):
        out = tmp_path / "contracted"
        assert run_cli(
            "contract", "--edges", synth_dir / "edges.tsv", "--clusters", 2, "--cores", 3,
            "--threshold", 0.01, "--density-weight", 0.25,
            "--teleport", 0.75, "--out", out,
        ) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["config"] == {
            "core_count": 3, "density_weight": 0.25, "teleport": 0.75,
            "importance_threshold": 0.01,
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

    def test_manifest_counts_how_infer_labelled_the_nodes(self, tmp_path):
        """Cliques a0-a3 and b0-b3 are selected; c is one vote hop away, d two, and p, q, r
        lie in a component with no selected node."""
        edges = tmp_path / "edges.tsv"
        pairs = [(f"{x}{i}", f"{x}{j}") for x in "ab" for i in range(4) for j in range(i + 1, 4)]
        pairs += [("a0", "b0"), ("a3", "c"), ("c", "d"), ("p", "q"), ("q", "r")]
        edges.write_text("".join(f"{u}\t{v}\t2.0\n" for u, v in pairs))
        (tmp_path / "fast.cfg").write_text(FAST_CONFIG)
        assert run_cli("train", "--edges", edges, "--clusters", 2, "--config", tmp_path / "fast.cfg",
                       "--out", tmp_path / "train") == 0
        checkpoint = tmp_path / "train" / "checkpoint.npz"
        with np.load(checkpoint) as z:
            tokens = z["node_ids"].tolist()
        selected = np.array(sorted(tokens.index(f"{x}{i}") for x in "ab" for i in range(4)))
        _with_key("selected_nodes", selected)(checkpoint, tmp_path / "contracted.npz")
        assert run_cli("infer", "--checkpoint", tmp_path / "contracted.npz", "--edges", edges,
                       "--out", tmp_path / "infer") == 0
        manifest = json.loads((tmp_path / "infer" / "run_manifest.json").read_text())
        assert manifest["labelled_by"] == {"forward": 8, "vote": 2, "fallback": 3}
        assert manifest["vote_hops"] == 2

    def test_train_manifest_says_how_the_nodes_were_labelled(self, tmp_path):
        assert run_cli("synth", "--nodes", 60, "--clusters", 2, "--p-in", 0.5, "--p-out", 0.05,
                       "--seed", 3, "--out", tmp_path / "synth") == 0
        edges = tmp_path / "synth" / "edges.tsv"
        flags = ["--clusters", 2, "--epochs", 1, "--heads", 2, "--layer-count", 1,
                 "--importance-threshold", 0.01]
        assert run_cli("train", "--edges", edges, *flags, "--out", tmp_path / "train") == 0
        assert run_cli("infer", "--checkpoint", tmp_path / "train" / "checkpoint.npz",
                       "--edges", edges, "--out", tmp_path / "infer") == 0
        with np.load(tmp_path / "train" / "checkpoint.npz") as z:
            kept = z["selected_nodes"].size
        train = json.loads((tmp_path / "train" / "run_manifest.json").read_text())
        inferred = json.loads((tmp_path / "infer" / "run_manifest.json").read_text())
        assert train["labelled_by"]["forward"] == kept < 60
        assert sum(train["labelled_by"].values()) == 60
        assert train["vote_hops"] >= 1
        assert (train["labelled_by"], train["vote_hops"]) == (inferred["labelled_by"],
                                                              inferred["vote_hops"])
        # a sweep records each seed's; seed 0 is the default the single run used
        assert run_cli("train", "--edges", edges, *flags, "--seeds", "0,1",
                       "--out", tmp_path / "sweep") == 0
        sweep = json.loads((tmp_path / "sweep" / "run_manifest.json").read_text())
        assert set(sweep["labelled_by"]) == set(sweep["vote_hops"]) == {"0", "1"}
        assert sweep["labelled_by"]["0"] == train["labelled_by"]
        assert sweep["vote_hops"]["0"] == train["vote_hops"]
        assert sum(sweep["labelled_by"]["1"].values()) == 60

    def test_train_edge_count_is_the_one_contract_kept(self, tmp_path):
        assert run_cli("synth", "--nodes", 60, "--clusters", 2, "--p-in", 0.5, "--p-out", 0.05,
                       "--seed", 3, "--out", tmp_path / "synth") == 0
        edges = tmp_path / "synth" / "edges.tsv"
        assert run_cli("contract", "--edges", edges, "--clusters", 2, "--threshold", 0.01,
                       "--out", tmp_path / "contract") == 0
        flags = ["--clusters", 2, "--epochs", 1, "--heads", 2, "--layer-count", 1,
                 "--importance-threshold", 0.01]
        assert run_cli("train", "--edges", edges, *flags, "--out", tmp_path / "train") == 0
        assert run_cli("train", "--edges", edges, *flags, "--ablation", "no-contraction",
                       "--out", tmp_path / "full") == 0
        contracted, trained, full = (json.loads((tmp_path / d / "run_manifest.json").read_text())
                                     for d in ("contract", "train", "full"))
        before = contracted["edges_before_contraction"]
        assert trained["edges_after_contraction"] == contracted["edges_after_contraction"] < before
        assert full["edges_after_contraction"] == full["edges_before_contraction"] == before

    def test_sweep_records_each_seeds_edge_count(self, tmp_path):
        assert run_cli("synth", "--nodes", 200, "--clusters", 2, "--p-in", 0.2, "--p-out", 0.01,
                       "--seed", 0, "--out", tmp_path / "synth") == 0
        edges = tmp_path / "synth" / "edges.tsv"
        # the random-sampling ablation keeps other nodes for each seed
        assert run_cli("train", "--edges", edges, "--clusters", 2, "--epochs", 1, "--heads", 2,
                       "--layer-count", 1, "--importance-threshold", 0.003, "--ablation", "cgc",
                       "--seeds", "0,1", "--out", tmp_path / "sweep") == 0
        g = load_edge_list(edges)
        kept = {}
        for seed in ("0", "1"):
            with np.load(tmp_path / "sweep" / f"seed_{seed}" / "checkpoint.npz") as z:
                kept[seed] = induce_subgraph(g, z["selected_nodes"]).num_edges
        assert kept["0"] != kept["1"]
        manifest = json.loads((tmp_path / "sweep" / "run_manifest.json").read_text())
        assert manifest["edges_after_contraction"] == kept
        assert manifest["edges_before_contraction"] == g.num_edges

    def test_tokens_with_commas_round_trip(self, synth_dir, tmp_path):
        """train -> infer -> eval -> attention-dump scores a graph whose tokens hold commas
        and quotes as it scores the same graph with plain tokens."""
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)

        def rename(tok):
            return f'n{tok},"{tok}'

        odd = tmp_path / "odd"
        odd.mkdir()
        edges = [line.split("\t") for line in (synth_dir / "edges.tsv").read_text().splitlines()]
        (odd / "edges.tsv").write_text(
            "".join(f"{rename(a)}\t{rename(b)}\t{w}\n" for a, b, w in edges))
        labels = [line.split("\t") for line in (synth_dir / "labels.tsv").read_text().splitlines()]
        (odd / "labels.tsv").write_text("".join(f"{rename(t)}\t{y}\n" for t, y in labels))
        runs = {}
        for tag, inputs in (("plain", synth_dir), ("odd", odd)):
            out, checkpoint = tmp_path / tag, tmp_path / tag / "train" / "checkpoint.npz"
            assert run_cli("train", "--edges", inputs / "edges.tsv", "--clusters", 2,
                           "--config", cfg, "--out", out / "train") == 0
            assert run_cli("infer", "--checkpoint", checkpoint, "--edges", inputs / "edges.tsv",
                           "--out", out / "infer") == 0
            assert run_cli("eval", "--pred", out / "infer" / "assignment.csv",
                           "--truth", inputs / "labels.tsv", "--out", out / "eval") == 0
            assert run_cli("attention-dump", "--checkpoint", checkpoint,
                           "--edges", inputs / "edges.tsv", "--out", out / "attn") == 0
            with open(out / "attn" / "attention.csv", newline="") as fh:
                runs[tag] = ((out / "eval" / "eval.json").read_bytes(), list(csv.reader(fh)))
        (plain_eval, plain_attn), (odd_eval, odd_attn) = runs["plain"], runs["odd"]
        assert odd_eval == plain_eval
        assert odd_attn[1:] == [[rename(i), rename(j), a] for i, j, a in plain_attn[1:]]

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

    def test_an_ablation_does_not_reach_the_next_call(self, synth_dir, tmp_path):
        """One process builds its parser once; a flag of one call must not stay for the next."""
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        for name, extra in (("ewo", ["--ablation", "ewo"]), ("plain", [])):
            assert run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                           "--config", cfg, *extra, "--out", tmp_path / name) == 0
        assert "no_weight_update = true" in (tmp_path / "ewo" / "config_echo.txt").read_text()
        assert "no_weight_update = false" in (tmp_path / "plain" / "config_echo.txt").read_text()

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


class TestNodeTokens:
    def test_edge_file_in_another_line_order_gets_the_same_clustering(self, tmp_path):
        """infer and attention-dump bind each embedding row to its node token, not to the
        order in which the edge file first names the nodes."""
        assert run_cli("synth", "--nodes", 60, "--clusters", 2, "--p-in", 0.5, "--p-out", 0.05,
                       "--seed", 3, "--out", tmp_path / "synth") == 0
        edges = tmp_path / "synth" / "edges.tsv"
        shuffled = _shuffled_copy(edges, tmp_path / "shuffled.tsv")
        assert load_edge_list(shuffled).node_ids != load_edge_list(edges).node_ids
        assert run_cli("train", "--edges", edges, "--clusters", 2, "--epochs", 5, "--heads", 2,
                       "--layer-count", 1, "--out", tmp_path / "train") == 0
        checkpoint = tmp_path / "train" / "checkpoint.npz"
        labels, attention = {}, {}
        for tag, path in (("original", edges), ("shuffled", shuffled)):
            assert run_cli("infer", "--checkpoint", checkpoint, "--edges", path,
                           "--out", tmp_path / tag) == 0
            assert run_cli("attention-dump", "--checkpoint", checkpoint, "--edges", path,
                           "--out", tmp_path / tag / "attn") == 0
            with open(tmp_path / tag / "assignment.csv", newline="") as fh:
                labels[tag] = {row[0]: int(row[1]) for row in list(csv.reader(fh))[1:]}
            with open(tmp_path / tag / "attn" / "attention.csv", newline="") as fh:
                attention[tag] = {(i, j): float(a) for i, j, a in list(csv.reader(fh))[1:]}
        tokens = sorted(labels["original"])
        report = evaluate(np.array([labels["shuffled"][t] for t in tokens]),
                          np.array([labels["original"][t] for t in tokens]))
        assert report.accuracy == 1.0
        pairs = sorted(attention["original"])
        assert sorted(attention["shuffled"]) == pairs
        np.testing.assert_allclose([attention["shuffled"][p] for p in pairs],
                                   [attention["original"][p] for p in pairs], rtol=1e-9, atol=1e-12)

    def test_contracted_model_labels_a_shuffled_edge_file_token_for_token(self, tmp_path):
        assert run_cli("synth", "--nodes", 60, "--clusters", 2, "--p-in", 0.5, "--p-out", 0.05,
                       "--seed", 3, "--out", tmp_path / "synth") == 0
        edges = tmp_path / "synth" / "edges.tsv"
        shuffled = _shuffled_copy(edges, tmp_path / "shuffled.tsv")
        assert run_cli("train", "--edges", edges, "--clusters", 2, "--epochs", 5, "--heads", 2,
                       "--layer-count", 1, "--importance-threshold", 0.01,
                       "--out", tmp_path / "train") == 0
        with np.load(tmp_path / "train" / "checkpoint.npz") as z:
            assert 2 <= z["selected_nodes"].size < 60
        rows = {}
        for tag, path in (("original", edges), ("shuffled", shuffled)):
            assert run_cli("infer", "--checkpoint", tmp_path / "train" / "checkpoint.npz",
                           "--edges", path, "--out", tmp_path / tag) == 0
            with open(tmp_path / tag / "assignment.csv", newline="") as fh:
                rows[tag] = {row[0]: row[1:] for row in list(csv.reader(fh))[1:]}
        assert rows["shuffled"].keys() == rows["original"].keys()
        for token, (label, *memberships) in rows["original"].items():
            assert rows["shuffled"][token][0] == label, token
            np.testing.assert_allclose(np.array(rows["shuffled"][token][1:], dtype=float),
                                       np.array(memberships, dtype=float), rtol=1e-12)

    def test_contracted_training_names_a_non_finite_node_by_its_token(self, tmp_path, capsys):
        g = synth_weighted_sbm(200, 2, 0.2, 0.01, 5.0, 1.0, seed=0).graph
        u, v, w = g.edge_arrays()
        ordered = tmp_path / "ordered.tsv"
        ordered.write_text("".join(f"v{a}\tv{b}\t{x!r}\n" for a, b, x
                                   in zip(u.tolist(), v.tolist(), w.tolist())))
        edges = _shuffled_copy(ordered, tmp_path / "edges.tsv")
        cfg = tmp_path / "contracted.cfg"
        cfg.write_text("layer_count = 2\nheads = 2\nembed_dim = 8\nattn_dim = 8\n"
                       "hidden_dim = 8\nepochs = 5\npatience = 0\nlearning_rate = 1e200\n"
                       "importance_threshold = 0.003\n")
        loaded = load_edge_list(edges)
        # every logit overflows after the first step, so node 0 of the training
        # subgraph is named; its dense id in the file is not the number in its token
        first = int(contract(loaded, load_config_file(cfg), 2).selected[0])
        token = loaded.node_ids[first]
        assert token != f"v{first}"
        assert run_cli("train", "--edges", edges, "--clusters", 2, "--config", cfg,
                       "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err == f"error: epoch 1: layer 0: non-finite activation at node {token!r}\n", err

    @pytest.mark.parametrize("command", ["infer", "attention-dump"])
    def test_graph_naming_a_node_the_model_never_saw_rejected(self, trained_checkpoint, tmp_path,
                                                              capsys, command):
        checkpoint, edges = trained_checkpoint
        renamed = tmp_path / "renamed.tsv"
        first = load_edge_list(edges).node_ids[0]
        renamed.write_text("".join(
            "\t".join("stranger" if tok == first else tok for tok in line.split("\t")[:2])
            + "\t" + line.split("\t")[2]
            for line in edges.read_text().splitlines(keepends=True)
        ))
        rc = run_cli(command, "--checkpoint", checkpoint, "--edges", renamed,
                     "--out", tmp_path / "o")
        assert rc == 1
        assert "error: graph node 'stranger' is not one the model embeds" in capsys.readouterr().err


class TestAttentionDump:
    def test_dump_covers_all_directed_pairs(self, synth_dir, tmp_path, monkeypatch):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        train_out = tmp_path / "train"
        assert run_cli(
            "train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--out", train_out,
        ) == 0

        def no_clustering(*args, **kwargs):
            raise AssertionError("attention-dump ran fuzzy c-means")

        # the dump needs the coefficients only, never a clustering
        monkeypatch.setattr("wgclust.trainer.fcm_fit", no_clustering)
        monkeypatch.setattr("wgclust.fcm.fcm_fit", no_clustering)
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

    def test_repeated_seed_rejected(self, synth_dir, tmp_path, capsys):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--seeds", "1,2,1", "--out", tmp_path / "o")
        assert rc == 1
        assert "error: --seeds lists seed 1 twice" in capsys.readouterr().err
        assert not (tmp_path / "o" / "seed_1").exists()

    @pytest.mark.parametrize("seeds, message", [
        ("1,,2", "error: --seeds lists '', which is not an integer"),
        ("1,x", "error: --seeds lists 'x', which is not an integer"),
        ("", "error: --seeds lists '', which is not an integer"),
    ])
    def test_bad_seed_token_named(self, synth_dir, tmp_path, capsys, seeds, message):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--seeds", seeds, "--out", tmp_path / "o")
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_with_seeds_rejected(self, synth_dir, tmp_path, capsys):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--seed", 3, "--seeds", "5", "--out", tmp_path / "o")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --seed and --seeds are both given"), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, synth_dir, tmp_path, capsys, jobs):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--seeds", "1,2", "--jobs", jobs, "--out", tmp_path / "o")
        assert rc == 1
        assert f"error: --jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_ablation_rejected(self, synth_dir, tmp_path, capsys):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--ablation", "bogus", "--out", tmp_path / "o")
        assert rc == 1
        assert "unknown ablation" in capsys.readouterr().err

    @pytest.mark.parametrize("pred_rows, truth_rows, message", [
        # row 2 cut to its node token
        (["0,0,1.0,0.0", "1,1,0.0,1.0", "2", "3,1,0.0,1.0"], ["0\t0", "1\t1", "2\t0", "3\t1"],
         r"pred\.csv: line 4: expected 'node,label,\.\.\.', got '2'"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0", "1,0,1.0,0.0"], ["0\t0", "1\t1"],
         r"pred\.csv: line 4: node '1' is listed twice"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0"], ["0\t0", "1\t1", "", "0\t1"],
         r"truth\.tsv: line 4: node '0' is listed twice"),
        (["0,0,1.0,0.0", "1,x,1.0,0.0"], ["0\t0", "1\t1"],
         r"pred\.csv: line 3: label 'x' is not an integer"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0"], ["# truth", "0\t0", "1\t1.5"],
         r"truth\.tsv: line 3: label '1\.5' is not an integer"),
        (["0,0,1.0,0.0", "1,1,0.0,1.0"], ["0\t0", "1"],
         r"truth\.tsv: line 2: expected 'node<TAB>label', got '1'"),
    ])
    def test_eval_rejects_short_and_duplicate_rows(self, tmp_path, capsys, pred_rows, truth_rows,
                                                   message):
        pred, truth = tmp_path / "pred.csv", tmp_path / "truth.tsv"
        pred.write_text("node,label,Y_0,Y_1\n" + "\n".join(pred_rows) + "\n")
        truth.write_text("\n".join(truth_rows) + "\n")
        assert run_cli("eval", "--pred", pred, "--truth", truth) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_rejected(self, synth_dir, tmp_path, capsys, value):
        rc = run_cli("contract", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--threshold", value, "--out", tmp_path / "o")
        assert rc == 1
        assert "error: importance_threshold must be finite" in capsys.readouterr().err

    def test_checkpoint_without_version_rejected(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        np.savez(bad, embedding=np.zeros((30, 8)))
        rc = run_cli("infer", "--checkpoint", bad, "--edges", synth_dir / "edges.tsv",
                     "--out", tmp_path / "o")
        assert rc == 1
        assert "error: checkpoint lacks key format_version" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
    def test_malformed_checkpoint_rejected(self, trained_checkpoint, tmp_path, capsys, case):
        checkpoint, edges = trained_checkpoint
        write, message = MALFORMED_CHECKPOINTS[case]
        bad = tmp_path / "bad.npz"
        write(checkpoint, bad)
        rc = run_cli("infer", "--checkpoint", bad, "--edges", edges, "--out", tmp_path / "o")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err

    @pytest.mark.parametrize("command", ["infer", "attention-dump"])
    @pytest.mark.parametrize("case", sorted(NON_FINITE_PARAMETERS))
    def test_non_finite_parameters_are_errors(self, trained_checkpoint, tmp_path, capsys, command,
                                              case):
        checkpoint, edges = trained_checkpoint
        key, change, message = NON_FINITE_PARAMETERS[case]
        with np.load(checkpoint) as z:
            _with_key(key, change(z[key]))(checkpoint, tmp_path / "bad.npz")
        rc = run_cli(command, "--checkpoint", tmp_path / "bad.npz", "--edges", edges,
                     "--out", tmp_path / "o")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(message, err), err

    @pytest.mark.parametrize("command", ["infer", "attention-dump"])
    def test_graph_with_more_nodes_than_the_model_rejected(self, tmp_path, capsys, command):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        assert run_cli(
            "synth", "--nodes", 20, "--clusters", 2, "--p-in", 0.6, "--p-out", 0.1,
            "--seed", 3, "--out", tmp_path / "synth",
        ) == 0
        assert run_cli(
            "train", "--edges", tmp_path / "synth" / "edges.tsv", "--clusters", 2,
            "--config", cfg, "--out", tmp_path / "train",
        ) == 0
        path_graph = tmp_path / "path21.tsv"
        path_graph.write_text("".join(f"{i}\t{i + 1}\t1.0\n" for i in range(20)))
        rc = run_cli(command, "--checkpoint", tmp_path / "train" / "checkpoint.npz",
                     "--edges", path_graph, "--out", tmp_path / "o")
        assert rc == 1
        assert "error: graph has 21 nodes but the model embeds 20" in capsys.readouterr().err

    def test_diverging_training_names_the_epoch(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_CONFIG)
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--config", cfg, "--learning-rate", "1e200", "--out", tmp_path / "o")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "error: epoch 1: layer 0: non-finite activation at node '0'\n", err

    def test_repeated_key_in_config_file_rejected(self, synth_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        text = FAST_CONFIG + "epochs = 50\n"
        cfg.write_text(text)
        lines = text.splitlines()
        first, repeat = (i + 1 for i, line in enumerate(lines) if line.startswith("epochs"))
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: config line {repeat}: key 'epochs' repeats line {first}\n", err
        assert not (tmp_path / "o" / "checkpoint.npz").exists()

    # a config echo from format 3 or older names the distance and self-loop rules, and
    # one from format 4 or older the FCM round and restart counts
    @pytest.mark.parametrize("line", ["distance_mode = reciprocal", "self_loop_mode = max",
                                      "fcm_iters = 30", "fcm_restarts = 8"])
    def test_removed_rule_key_in_config_file_rejected(self, synth_dir, tmp_path, capsys, line):
        cfg = tmp_path / "old.cfg"
        text = FAST_CONFIG + line + "\n"
        cfg.write_text(text)
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--config", cfg, "--out", tmp_path / "o")
        assert rc == 1
        key = line.split(" = ")[0]
        err = capsys.readouterr().err
        assert err == f"error: config line {len(text.splitlines())}: unknown key {key!r}\n", err
        assert not (tmp_path / "o" / "checkpoint.npz").exists()

    # infer fits the checkpoint's cluster_count clusters, so it takes no --clusters
    @pytest.mark.parametrize("command, flag", [
        ("contract", ["--distance-mode", "unit"]),
        ("synth", ["--noise-unit-weight"]),
        ("infer", ["--clusters", "2"]),
    ], ids=["contract", "synth", "infer"])
    def test_removed_rule_flag_rejected(self, synth_dir, tmp_path, capsys, command, flag):
        inputs = {"contract": ["--edges", synth_dir / "edges.tsv", "--clusters", 2],
                  "synth": ["--nodes", 30, "--p-in", 0.6, "--p-out", 0.1, "--clusters", 2],
                  "infer": ["--checkpoint", tmp_path / "absent.npz",
                            "--edges", synth_dir / "edges.tsv"]}
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exit_info:
            run_cli(command, *inputs[command], *flag, "--out", out)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_random_sampling_without_contraction_rejected(self, synth_dir, tmp_path, capsys):
        rc = run_cli("train", "--edges", synth_dir / "edges.tsv", "--clusters", 2,
                     "--ablation", "cgc", "--ablation", "no-contraction", "--out", tmp_path / "o")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no_contraction" in err and "random_sampling" in err
        assert not (tmp_path / "o" / "checkpoint.npz").exists()

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wgclust.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "synth" in proc.stdout and "attention-dump" in proc.stdout
