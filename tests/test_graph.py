"""Graph container, edge-list IO, synthetic benchmark, and noise injection."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wgclust.graph as graph_module
from wgclust.graph import (
    LabeledGraph,
    build_graph,
    induce_subgraph,
    inject_noise_edges,
    load_edge_list,
    load_labels,
    save_edge_list,
    save_labels,
    synth_weighted_sbm,
)

from graph_helpers import assert_invariants, has_edge, neighbors


def reference_load_edge_list(path):
    """Line-at-a-time edge-list reader, the reference ``load_edge_list`` must match.

    Each line's checks run in the order whose first failure ``load_edge_list``
    reports: field count, blank node token, weight parse, weight sign, self-loop.
    """
    id_map = {}
    us, vs, ws = [], [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'u<TAB>v<TAB>w', got {line!r}")
            a, b, wtok = parts
            if not a.strip() or not b.strip():
                raise ValueError(f"{path}: line {lineno}: empty node token in {line!r}")
            try:
                w = float(wtok)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: weight {wtok!r} is not a number") from None
            if not np.isfinite(w) or w <= 0:
                raise ValueError(f"{path}: line {lineno}: rejected non-positive weight {wtok}")
            if a == b:
                raise ValueError(f"{path}: line {lineno}: self-loop {a!r} in input")
            for tok in (a, b):
                if tok not in id_map:
                    id_map[tok] = len(id_map)
            us.append(id_map[a])
            vs.append(id_map[b])
            ws.append(w)
    if not us:
        raise ValueError(f"{path}: no edges")
    return build_graph(len(id_map), us, vs, ws, node_ids=tuple(id_map.keys()))


def lexsort_build_graph(n, u, v, w):
    """(indptr, indices, weights) of ``build_graph`` with its two sorts as lexsorts."""
    u, v, w = (np.asarray(x) for x in (u, v, w))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    lo, hi, w = lo[order], hi[order], w[order]
    first = np.ones(lo.size, dtype=bool)
    first[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    w = np.bincount(np.cumsum(first) - 1, weights=w)
    lo, hi = lo[first], hi[first]
    src, dst, ww = np.concatenate([lo, hi]), np.concatenate([hi, lo]), np.concatenate([w, w])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order], ww[order]


def load_outcome(loader, path):
    """The graph ``loader`` returns for ``path``, or the message of the ValueError it raises."""
    try:
        return loader(path)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.n == want.n
    assert got.node_ids == want.node_ids
    for name in ("indptr", "indices", "weights"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph(2, [0], [1], [2.0])
        assert g.n == 2
        assert neighbors(g, 0) == [(1, 2.0)]
        assert neighbors(g, 1) == [(0, 2.0)]
        assert g.total_weight_2m == 4.0

    def test_duplicates_sum(self):
        g = build_graph(2, [0, 1], [1, 0], [1.0, 1.0])
        assert neighbors(g, 0) == [(1, 2.0)]

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(2, [0], [0], [1.0])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            build_graph(2, [0], [1], [0.0])

    def test_total_weight_matches_double_sum(self):
        g = build_graph(4, [0, 1, 2], [1, 2, 3], [1.5, 2.5, 0.25])
        recomputed = sum(w for i in range(g.n) for _, w in neighbors(g, i))
        assert abs(g.total_weight_2m - recomputed) <= 1e-12 * recomputed

    def test_invariants_scan(self):
        g = build_graph(5, [0, 0, 1, 3], [1, 2, 4, 4], [1.0, 2.0, 3.0, 4.0])
        assert_invariants(g)

    @settings(max_examples=40)
    @given(n=st.integers(2, 30), m=st.integers(1, 200), seed=st.integers(0, 10_000))
    def test_matches_lexsort_reference_on_duplicates_in_both_orientations(self, n, m, seed):
        rng = np.random.default_rng(seed)
        u = rng.integers(0, n, size=m)
        v = (u + rng.integers(1, n, size=m)) % n
        w = rng.random(m) * 10 + 1e-3
        # every edge again reversed, with its own weight, in shuffled order
        uu, vv, ww = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w * 0.3])
        perm = rng.permutation(uu.size)
        uu, vv, ww = uu[perm], vv[perm], ww[perm]
        g = build_graph(n, uu, vv, ww)
        indptr, indices, weights = lexsort_build_graph(n, uu, vv, ww)
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, indices)
        np.testing.assert_array_equal(g.weights, weights)


class TestEdgeListIO:
    def test_load_single_edge(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t2.0\n")
        g = load_edge_list(p)
        assert g.n == 2
        assert neighbors(g, 0) == [(1, 2.0)]

    def test_duplicate_lines_sum(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t1.0\n0\t1\t1.0\n")
        g = load_edge_list(p)
        assert neighbors(g, 0) == [(1, 2.0)]

    def test_reversed_duplicate_is_same_edge(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t1.0\n1\t0\t0.5\n")
        g = load_edge_list(p)
        assert neighbors(g, 0) == [(1, 1.5)]

    def test_empty_file_errors(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("# only a comment\n")
        with pytest.raises(ValueError, match="no edges"):
            load_edge_list(p)

    def test_parse_error_names_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t1.0\nbroken line here extra\n")
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(p)

    def test_nonpositive_weight_rejected_with_line(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("0\t1\t-3\n")
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list(p)

    def test_self_loop_rejected(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("7\t7\t1.0\n")
        with pytest.raises(ValueError, match="self-loop"):
            load_edge_list(p)

    def test_arbitrary_ids_densely_remapped(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_text("movie_9\tmovie_4\t1.25\nmovie_4\tx\t2.0\n")
        g = load_edge_list(p)
        assert g.n == 3
        assert g.node_ids == ("movie_9", "movie_4", "x")

    @pytest.mark.parametrize("text, message", [
        ("a\t\t1.0\nb\tc\t2.0\n", r"line 1: empty node token in 'a\\t\\t1\.0'"),
        ("b\tc\t2.0\nx\t \t1.0\n", r"line 2: empty node token in 'x\\t \\t1\.0'"),
    ])
    def test_blank_node_token_rejected(self, tmp_path, text, message):
        p = tmp_path / "e.tsv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_edge_list(p)

    def test_whitespace_separated_and_crlf_lines(self, tmp_path):
        p = tmp_path / "e.tsv"
        p.write_bytes(b"# header\r\n0 1  2.0\r\n\r\n 1\t2\t0.5 \r\n")
        g = load_edge_list(p)
        assert g.node_ids == ("0", "1", "2")
        assert neighbors(g, 1) == [(0, 2.0), (2, 0.5)]

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 20
        iu, ju = np.triu_indices(n, 1)
        keep = rng.random(iu.size) < 0.3
        w = rng.random(int(keep.sum())) * 7 + 1e-3
        g = build_graph(n, iu[keep], ju[keep], w)
        p = tmp_path / "rt.tsv"
        save_edge_list(g, p)
        g2 = load_edge_list(p)
        assert g2.n == g.n
        u1, v1, w1 = g.edge_arrays()
        # reloaded ids follow first appearance; map back through node_ids
        back = np.array([int(tok) for tok in g2.node_ids])
        u2, v2, w2 = g2.edge_arrays()
        remapped = sorted(zip(np.minimum(back[u2], back[v2]),
                              np.maximum(back[u2], back[v2]), w2))
        assert remapped == sorted(zip(u1, v1, w1))


LINE_TEXT = st.text(st.characters(exclude_characters="\r\n"), max_size=3)
# tokens valid anywhere, then ones a line's fields or checks can trip on
NODE_TOKENS = ["0", "1", "2", "10", "a", "movie_9", "é", "#x", "x y", ""]
WEIGHT_TOKENS = ["1", "2.5", "0.125", "1e3", " 7", "1_5", "3.0000000000000004",
                 "0", "-1", "nan", "inf", "x", "", "1,5"]


@st.composite
def edge_list_text(draw, valid: bool):
    """A whole edge-list file: edges, comments and blank lines, LF or CRLF endings.

    With ``valid`` every edge line parses; otherwise tokens may be anything
    but a line break, so most files hold some fault.
    """
    if valid:
        node, weight = st.sampled_from(NODE_TOKENS[:7]), st.sampled_from(WEIGHT_TOKENS[:7])
    else:
        node = st.one_of(st.sampled_from(NODE_TOKENS), LINE_TEXT)
        weight = st.one_of(st.sampled_from(WEIGHT_TOKENS), st.floats().map(repr), LINE_TEXT)
    lines = []
    for kind in draw(st.lists(st.sampled_from("tttwcb"), min_size=1, max_size=25)):
        if kind == "c":
            lines.append("#" + draw(LINE_TEXT))
        elif kind == "b":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
        else:
            a, b = draw(node), draw(node)
            if valid and a == b:
                b = "2" if a != "2" else "1"
            sep = "\t" if kind == "t" else draw(st.sampled_from([" ", "  ", " \x0c "]))
            pad = draw(st.sampled_from(["", " "]))
            lines.append(pad + sep.join([a, b, draw(weight)]) + pad)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def write_edge_list(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("edges") / "e.tsv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


class TestBlockParserMatchesReference:
    @settings(max_examples=60)
    @given(text=edge_list_text(valid=True), block=st.sampled_from([1, 3, 8192]))
    def test_valid_files(self, tmp_path_factory, text, block):
        path = write_edge_list(tmp_path_factory, text)
        want = load_outcome(reference_load_edge_list, path)
        assert not isinstance(want, str) or want.endswith(": no edges")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_LOAD_BLOCK", block)
            got = load_outcome(load_edge_list, path)
        assert_same_outcome(got, want)

    @settings(max_examples=150)
    @given(text=edge_list_text(valid=False), block=st.sampled_from([1, 3, 8192]))
    def test_any_lines_same_graph_or_same_error(self, tmp_path_factory, text, block):
        path = write_edge_list(tmp_path_factory, text)
        want = load_outcome(reference_load_edge_list, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_LOAD_BLOCK", block)
            got = load_outcome(load_edge_list, path)
        assert_same_outcome(got, want)

    FAULTS = {
        "fields": "0\t1",
        "whitespace fields": "0 1 2 3",
        "empty token": "a\t\t1.0",
        "empty token and bad weight": "a\t\tx",
        "not a number": "0\t1\tx",
        "non-positive": "0\t1\t-2",
        "nan": "0\t1\tnan",
        "self-loop": "4\t4\t1.0",
    }

    @pytest.mark.parametrize("first, second", itertools.permutations(FAULTS, 2))
    def test_first_of_two_faults_is_named(self, tmp_path, first, second):
        path = tmp_path / "e.tsv"
        lines = ["0\t1\t1.0", "# c", self.FAULTS[first], "1\t2\t2.0", self.FAULTS[second], "2\t3\t1"]
        path.write_text("\n".join(lines) + "\n")
        want = load_outcome(reference_load_edge_list, path)
        assert isinstance(want, str) and ": line 3: " in want
        for block in (1, 2, 3, 4, 8192):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph_module, "_LOAD_BLOCK", block)
                assert load_outcome(load_edge_list, path) == want


# printable ASCII other than space; a token that opens a line must not start a comment
PLAIN_TOKEN = st.text(st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=4)
PLAIN_WEIGHT = st.one_of(
    st.sampled_from(["1", "2.0", "0.5", "1e3", "7", "3.0000000000000004", "1_5"]),
    st.floats(min_value=5e-324, max_value=1e300).map(repr),
)


@st.composite
def plain_edge_list(draw):
    """``tok<TAB>tok<TAB>w`` lines over a few printable tokens, so edges repeat in both orientations."""
    tokens = draw(st.lists(PLAIN_TOKEN.filter(lambda t: not t.startswith("#")),
                           min_size=2, max_size=10, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(tokens), st.sampled_from(tokens))
                          .filter(lambda pair: pair[0] != pair[1]), min_size=1, max_size=40))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    text = ending.join(f"{a}\t{b}\t{draw(PLAIN_WEIGHT)}" for a, b in pairs)
    return text + draw(st.sampled_from(["", ending]))


def per_line_parser_forbidden(path, first_lineno, raw, lookup):
    raise AssertionError(f"lines {first_lineno}..{first_lineno + len(raw) - 1} left the array path")


def load_by_array_path(path):
    """``load_edge_list(path)``, failing if any block takes the per-line parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_parse_edge_block", per_line_parser_forbidden)
        return load_edge_list(path)


def load_by_per_line_path(path):
    """``load_edge_list(path)`` with every block taking the per-line parser."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_parse_plain_block", lambda text, lookup: None)
        return load_edge_list(path)


def counting(parse, counts, name):
    """``parse``, adding one to ``counts[name]`` for each block it parses."""
    def wrapped(*args):
        block = parse(*args)
        counts[name] += block is not None
        return block
    return wrapped


class TestArrayPath:
    @settings(max_examples=100)
    @given(text=plain_edge_list(), block=st.sampled_from([1, 7, 32, 1 << 18]))
    def test_plain_files_give_the_per_line_arrays(self, tmp_path_factory, text, block):
        path = write_edge_list(tmp_path_factory, text)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_LOAD_BLOCK", block)
            fast, slow = load_by_array_path(path), load_by_per_line_path(path)
        assert (fast.n, fast.node_ids) == (slow.n, slow.node_ids)
        for name in ("indptr", "indices", "weights"):
            got, want = getattr(fast, name), getattr(slow, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want)

    PLAIN = [f"{i}\t{i + 1}\t{i % 3 + 1}.5" for i in range(12)]
    OTHER = ["# a comment", "#c\t1\t2", "", "3 9 2.0", " 4\t10\t1.0", "\t4\t10\t1.0",
             "4\t10\t1.0\t", "x y\tz\t1", "é\t1\t2"]

    @pytest.mark.parametrize("other", OTHER)
    def test_blocks_of_both_kinds_straddling_the_block_size(self, tmp_path, other):
        """Each block size moves the block boundaries across the non-plain line."""
        path = tmp_path / "e.tsv"
        path.write_text("\n".join(self.PLAIN[:5] + [other] + self.PLAIN[5:]) + "\n",
                        encoding="utf-8")
        want = reference_load_edge_list(path)
        counts = {"_parse_plain_block": 0, "_parse_edge_block": 0}
        for block in range(1, 80):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph_module, "_LOAD_BLOCK", block)
                for name in counts:
                    mp.setattr(graph_module, name, counting(getattr(graph_module, name), counts, name))
                assert_same_outcome(load_edge_list(path), want)
        assert all(counts.values()), counts

    FAULTS = {
        "self-loop": ("4\t4\t1.0", "self-loop '4' in input"),
        "zero weight": ("4\t5\t0", "rejected non-positive weight 0"),
        "negative weight": ("4\t5\t-2.5", "rejected non-positive weight -2.5"),
        "nan weight": ("4\t5\tnan", "rejected non-positive weight nan"),
        "inf weight": ("4\t5\tinf", "rejected non-positive weight inf"),
        "non-numeric weight": ("4\t5\t1.0x", "weight '1.0x' is not a number"),
        "empty field": ("4\t\t1.0", "empty node token in '4\\t\\t1.0'"),
        "two fields": ("4\t5", "expected 'u<TAB>v<TAB>w', got '4\\t5'"),
        "four fields": ("4\t5\t1\t2", "expected 'u<TAB>v<TAB>w', got '4\\t5\\t1\\t2'"),
    }

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("block", [1, 20, 1 << 18])
    def test_fault_in_a_plain_block_is_named_as_before(self, tmp_path, fault, block):
        line, message = self.FAULTS[fault]
        path = tmp_path / "e.tsv"
        path.write_text("\n".join(self.PLAIN[:7] + [line] + self.PLAIN[7:]) + "\n")
        want = f"{path}: line 8: {message}"
        assert load_outcome(reference_load_edge_list, path) == want
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_LOAD_BLOCK", block)
            assert load_outcome(load_edge_list, path) == want

    def test_every_block_save_edge_list_writes_takes_the_array_path(self, tmp_path):
        """A silent fallback to the per-line parser would only show as a slower benchmark."""
        lab = synth_weighted_sbm(200, 4, 0.3, 0.02, 5.0, 1.0, seed=1)
        noisy, _ = inject_noise_edges(lab.graph, 0.2, seed=2)
        u, v, w = noisy.edge_arrays()
        refined = build_graph(noisy.n, u, v, w * np.pi / 7,  # fractional, as training leaves them
                              node_ids=tuple(f"movie_{i}" for i in range(noisy.n)))
        for g in (noisy, refined):
            path = tmp_path / "e.tsv"
            save_edge_list(g, path)
            for block in (64, graph_module._LOAD_BLOCK):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(graph_module, "_LOAD_BLOCK", block)
                    assert_same_outcome(load_by_array_path(path), reference_load_edge_list(path))

    @pytest.mark.parametrize("new_line", ["x\t3\t1", "3\tx\t1", "x\ty\t1", "y\tx\t1"])
    def test_a_third_block_with_new_tokens_midway_numbers_them_as_before(self, tmp_path, new_line):
        """Blocks of ten 6-character lines; the third brings new tokens on its fifth line."""
        lines = [f"{i % 7}\t{(3 * i + 1) % 7 + (i % 7 == (3 * i + 1) % 7)}\t{i % 9 + 1}"
                 for i in range(40)]
        lines[24] = new_line
        path = tmp_path / "e.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_LOAD_BLOCK", 60)
            got = load_by_array_path(path)
        want = reference_load_edge_list(path)
        assert_same_outcome(got, want)
        assert "x" in got.node_ids

    def test_every_block_wgclust_synth_writes_takes_the_array_path(self, tmp_path):
        from wgclust.cli import main

        argv = ["synth", "--nodes", "300", "--clusters", "3", "--p-in", "0.3", "--p-out", "0.02",
                "--noise-fraction", "0.1", "--seed", "4", "--out", str(tmp_path)]
        assert main(argv) == 0
        path = tmp_path / "edges.tsv"
        assert_same_outcome(load_by_array_path(path), reference_load_edge_list(path))


class TestLabelIO:
    def test_round_trip(self, tmp_path):
        labels = np.array([0, 2, 1, 1])
        p = tmp_path / "labels.tsv"
        save_labels(LabeledGraph(build_graph(4, [0], [1], [1.0]), labels, 3), p)
        assert load_labels(p) == {"0": 0, "1": 2, "2": 1, "3": 1}

    def test_rows_are_named_by_the_graph_tokens(self, tmp_path):
        g = build_graph(3, [0], [2], [1.0], node_ids=("movie_9", "x", "é"))
        p = tmp_path / "labels.tsv"
        save_labels(LabeledGraph(g, np.array([1, 0, 1]), 2), p)
        assert p.read_text(encoding="utf-8") == "movie_9\t1\nx\t0\né\t1\n"

    @pytest.mark.parametrize("labels, message", [
        ([0.5, 1.7, 1.0], "label 0.5 of node 'a' is not an integer"),
        ([1.0, 0.0, float("nan")], "label nan of node 'c' is not an integer"),
        (["0", "1", "1"], "label '0' of node 'a' is not an integer"),
    ])
    def test_non_integer_label_is_named(self, labels, message):
        g = build_graph(3, [0], [2], [1.0], node_ids=("a", "b", "c"))
        with pytest.raises(ValueError, match=re.escape(message)):
            LabeledGraph(g, np.array(labels), 2)

    def test_integral_float_labels_are_written_as_integers(self, tmp_path):
        p = tmp_path / "labels.tsv"
        save_labels(LabeledGraph(build_graph(3, [0], [2], [1.0]), np.array([1.0, 0.0, 1.0]), 2), p)
        assert p.read_text(encoding="utf-8") == "0\t1\n1\t0\n2\t1\n"

    def test_comments_blanks_and_whitespace_rows(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("# node label\n\nmovie a\t1\n  b   0  \n")
        assert load_labels(p) == {"movie a": 1, "b": 0}

    @pytest.mark.parametrize("text, message", [
        ("0\t1\n1\tx\n", r"labels\.tsv: line 2: label 'x' is not an integer"),
        ("a\t1\nb\t0.5\n", r"labels\.tsv: line 2: label '0\.5' is not an integer"),
    ])
    def test_non_integer_tokens_named(self, tmp_path, text, message):
        p = tmp_path / "labels.tsv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_labels(p)

    @pytest.mark.parametrize("text, message", [
        ("0\t1\n1\t0\n1\t1\n", r"labels\.tsv: line 3: node '1' is listed twice"),
        ("a\t1\nb\t0\n\na\t0\n", r"labels\.tsv: line 4: node 'a' is listed twice"),
    ])
    def test_node_listed_twice_named(self, tmp_path, text, message):
        p = tmp_path / "labels.tsv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_labels(p)

    @pytest.mark.parametrize("text, message", [
        ("0\t1\n1\n", r"labels\.tsv: line 2: expected 'node<TAB>label', got '1'"),
        ("0\t1\n1\t0\t2\n", r"labels\.tsv: line 2: expected 'node<TAB>label'"),
        ("# only a comment\n\n", r"labels\.tsv: no labels"),
    ])
    def test_malformed_file_named(self, tmp_path, text, message):
        p = tmp_path / "labels.tsv"
        p.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_labels(p)


class TestSyntheticBlocks:
    def test_extreme_separation_two_cliques(self):
        lab = synth_weighted_sbm(8, 2, 1.0, 0.0, 1.0, 1.0, seed=0)
        g = lab.graph
        assert np.array_equal(lab.labels, [0, 0, 0, 0, 1, 1, 1, 1])
        for i in range(4):
            assert [j for j, _ in neighbors(g, i)] == [x for x in range(4) if x != i]
        for i in range(4, 8):
            assert [j for j, _ in neighbors(g, i)] == [x for x in range(4, 8) if x != i]

    def test_determinism(self):
        a = synth_weighted_sbm(120, 4, 0.5, 0.05, 5.0, 1.0, seed=42)
        b = synth_weighted_sbm(120, 4, 0.5, 0.05, 5.0, 1.0, seed=42)
        assert np.array_equal(a.graph.indices, b.graph.indices)
        assert np.array_equal(a.graph.weights, b.graph.weights)
        assert np.array_equal(a.labels, b.labels)

    def test_intra_fraction_within_3_sigma(self):
        n, k, p_in = 120, 4, 0.5
        lab = synth_weighted_sbm(n, k, p_in, 0.05, 5.0, 1.0, seed=7)
        u, v, _ = lab.graph.edge_arrays()
        intra = int((lab.labels[u] == lab.labels[v]).sum())
        intra_pairs = sum(s * (s - 1) // 2 for s in np.bincount(lab.labels))
        sigma = np.sqrt(intra_pairs * p_in * (1 - p_in))
        assert abs(intra - intra_pairs * p_in) <= 3 * sigma

    def test_weights_are_positive_integers(self):
        lab = synth_weighted_sbm(40, 2, 0.5, 0.1, 4.0, 1.0, seed=3)
        w = lab.graph.weights
        assert np.all(w >= 1)
        assert np.array_equal(w, np.round(w))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            synth_weighted_sbm(10, 2, 0.2, 0.5, 2.0, 1.0, seed=0)  # p_out > p_in
        with pytest.raises(ValueError):
            synth_weighted_sbm(10, 20, 0.5, 0.1, 2.0, 1.0, seed=0)  # K > n

    @pytest.mark.parametrize("name", ["w_in_mean", "w_out_mean"])
    def test_weight_mean_up_to_the_poisson_limit(self, name):
        limit = 9.223372006484771e18  # the largest mean numpy's Poisson sampler takes
        means = {"w_in_mean": 2.0, "w_out_mean": 1.0}
        lab = synth_weighted_sbm(10, 2, 0.8, 0.5, **{**means, name: 1.0 + limit}, seed=0)
        assert lab.graph.weights.max() > 1e18
        with pytest.raises(ValueError, match=f"^{name} must be"):
            synth_weighted_sbm(10, 2, 0.8, 0.5, **{**means, name: np.nextafter(limit, np.inf)},
                               seed=0)


class TestNoiseInjection:
    def test_fraction_zero_is_identity(self):
        lab = synth_weighted_sbm(30, 2, 0.4, 0.1, 3.0, 1.0, seed=1)
        g2, added = inject_noise_edges(lab.graph, 0.0, seed=9)
        assert added.shape == (0, 2)
        assert g2.num_edges == lab.graph.num_edges

    def test_edge_count_arithmetic(self):
        # build a graph with exactly 100 edges, expect exactly 110 after 10% noise
        rng = np.random.default_rng(0)
        n = 40
        iu, ju = np.triu_indices(n, 1)
        pick = rng.choice(iu.size, size=100, replace=False)
        g = build_graph(n, iu[pick], ju[pick], np.ones(100))
        noisy, added = inject_noise_edges(g, 0.1, seed=2)
        assert g.num_edges == 100
        assert noisy.num_edges == 110
        assert added.shape == (10, 2)

    def test_added_edges_are_new_and_originals_preserved(self):
        lab = synth_weighted_sbm(25, 2, 0.4, 0.1, 3.0, 1.0, seed=4)
        g = lab.graph
        noisy, added = inject_noise_edges(g, 0.2, seed=5)
        u, v, w = g.edge_arrays()
        original = set(zip(u.tolist(), v.tolist()))
        for a, b in added:
            assert (int(a), int(b)) not in original
        # every original edge keeps its weight
        for (a, b, x) in zip(u, v, w):
            assert has_edge(noisy, int(a), int(b))
            row = dict(neighbors(noisy, int(a)))
            assert row[int(b)] == x

    def test_noise_weights_from_empirical_distribution(self):
        g = build_graph(30, [0, 1, 2], [1, 2, 3], [2.0, 4.0, 8.0])
        noisy, added = inject_noise_edges(g, 1.0, seed=6)
        u, v, w = noisy.edge_arrays()
        assert set(np.unique(w)) <= {2.0, 4.0, 8.0}

    def test_insufficient_non_edges(self):
        g = build_graph(3, [0, 0, 1], [1, 2, 2], [1, 1, 1])  # complete triangle
        with pytest.raises(ValueError, match="non-edges"):
            inject_noise_edges(g, 0.5, seed=0)


class TestNodeTokens:
    def test_graph_without_ids_is_named_by_dense_ids(self):
        g = build_graph(5, [0, 3], [1, 4], [1.0, 2.0])
        assert g.node_ids == ("0", "1", "2", "3", "4")

    def test_induced_subgraph_is_named_by_its_own_dense_ids(self):
        g = build_graph(5, [0, 1, 3], [1, 3, 4], [1.0, 2.0, 3.0], node_ids=tuple("abcde"))
        sub = induce_subgraph(g, np.array([1, 3, 4]))
        assert sub.node_ids == ("0", "1", "2")

    def test_noisy_graph_keeps_the_tokens(self):
        g = build_graph(6, [0, 2], [1, 3], [1.0, 2.0], node_ids=tuple("uvwxyz"))
        noisy, _ = inject_noise_edges(g, 1.0, seed=0)
        assert noisy.node_ids == tuple("uvwxyz")

    def test_synthetic_graph_round_trips_by_token(self, tmp_path):
        g = synth_weighted_sbm(30, 3, 0.5, 0.1, 4.0, 1.0, seed=2).graph
        p = tmp_path / "e.tsv"
        save_edge_list(g, p)
        g2 = load_edge_list(p)

        def named_edges(graph):
            u, v, w = graph.edge_arrays()
            names = graph.node_ids
            return sorted((*sorted((names[a], names[b])), x) for a, b, x in zip(u, v, w))

        assert named_edges(g2) == named_edges(g)
        assert sorted(g2.node_ids) == sorted(g.node_ids)


class TestInducedSubgraph:
    def test_weights_are_exact_restriction(self):
        lab = synth_weighted_sbm(30, 3, 0.5, 0.1, 4.0, 1.0, seed=11)
        g = lab.graph
        nodes = np.array([0, 1, 2, 5, 8, 13, 21])
        sub = induce_subgraph(g, nodes)
        old_to_new = np.full(g.n, -1)
        old_to_new[nodes] = np.arange(nodes.size)
        for a in nodes:
            for b, w in neighbors(g, int(a)):
                if old_to_new[b] >= 0:
                    row = dict(neighbors(sub, int(old_to_new[a])))
                    assert row[int(old_to_new[b])] == w
        inside = set(nodes.tolist())
        expected = sum(
            1 for a in nodes for b, _ in neighbors(g, int(a)) if b in inside
        ) // 2
        assert sub.num_edges == expected

    def test_nodes_in_any_order_are_renumbered_in_that_order(self):
        g = synth_weighted_sbm(30, 3, 0.5, 0.1, 4.0, 1.0, seed=11).graph
        nodes = np.array([21, 0, 13, 5, 2, 8, 1])
        sub = induce_subgraph(g, nodes)
        assert_invariants(sub)
        for i, a in enumerate(nodes):
            expected = {j: w for j, b in enumerate(nodes) for c, w in neighbors(g, int(a)) if c == b}
            assert dict(neighbors(sub, i)) == expected


@settings(max_examples=25)
@given(
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_symmetry_invariant_random_graphs(n, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    keep = rng.random(iu.size) < 0.5
    if not keep.any():
        return
    w = rng.random(int(keep.sum())) + 0.1
    g = build_graph(n, iu[keep], ju[keep], w)
    assert_invariants(g)
    capacity = n * (n - 1) // 2 - g.num_edges
    if int(0.5 * g.num_edges) <= capacity:
        noisy, _ = inject_noise_edges(g, 0.5, seed=seed + 1)
        assert_invariants(noisy)
