"""Pipeline property: on any small graph, `wgclust train` labels every node or names its error.

`wgclust train` trains (with or without contraction) and then labels the
whole graph with ``infer``. On graphs of 3-9 nodes, with isolated nodes,
several components, K from 2 up to n, all-equal weights and weights from
1e-300 to 1e300, it must either write a label in 0..K-1 for every node or
exit 1 with `error: <cause>`.

An edge list cannot hold an isolated node, so the command reads the drawn
graph object itself. A drawn graph's weights share one scale (1e-300 to
1e300) and spread over at most three decades below 1e300. Wider spreads
mostly end at the negative-sampling cap, after about a second per run; the
explicit examples cover that case once.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wgclust import graph as graph_module
from wgclust.cli import main
from wgclust.graph import build_graph, save_edge_list

# the tests' TINY network, trained for 2 epochs
TINY_CONFIG = """
heads = 2
layer_count = 2
embed_dim = 6
attn_dim = 5
hidden_dim = 6
negatives = 2
epochs = 2
"""

# every way such a run may stop, each naming its cause
CAUSES = re.compile(
    r"error: (epoch \d+: weight refinement pruned every edge"
    r"|epoch \d+: negative sampling for node '\d+' accepted \d+ of \d+ negatives in \d+ draws;.*"
    r"|modularity needs a total edge weight 2m within .*; this graph has 2m = .*)\n"
)


@st.composite
def small_graphs(draw):
    """(n, edges, weights, K) with 1 to all n(n-1)/2 edges; unused node ids are isolated."""
    n = draw(st.integers(3, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs), unique=True))
    scale = draw(st.floats(-300, 300))
    spread = st.just(0.0) if draw(st.booleans()) else st.floats(0, 3)
    exponents = [min(scale + draw(spread), 300.0) for _ in edges]
    return n, edges, [10.0**e for e in exponents], draw(st.integers(2, n))


def train_cli(n, edges, weights, k, no_contraction):
    """(exit code, stderr, labels or None) of `wgclust train` on the graph."""
    g = build_graph(n, [u for u, _ in edges], [v for _, v in edges], weights)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_edge_list(g, tmp / "edges.tsv")
        (tmp / "tiny.cfg").write_text(TINY_CONFIG + f"no_contraction = {no_contraction}\n")
        err = io.StringIO()
        with mock.patch.object(graph_module, "load_edge_list", return_value=g), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["train", "--edges", str(tmp / "edges.tsv"), "--clusters", str(k),
                         "--config", str(tmp / "tiny.cfg"), "--out", str(tmp / "out")])
        labels = None
        if code == 0:
            rows = (tmp / "out" / "assignment.csv").read_text().splitlines()[1:]
            labels = {row.split(",")[0]: int(row.split(",")[1]) for row in rows}
    return code, err.getvalue(), labels


@pytest.mark.parametrize("no_contraction", ["true", "false"])
@settings(max_examples=30)
@given(graph=small_graphs())
# two triangles and an isolated node between them
@example(graph=(7, [(0, 1), (0, 2), (1, 2), (4, 5), (4, 6), (5, 6)], [1.0] * 6, 2))
@example(graph=(4, [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 3.0], 4))  # K = n
@example(graph=(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1e-300] * 4, 2))
@example(graph=(4, [(0, 1), (1, 2), (2, 3), (0, 3)], [1e300] * 4, 2))
@example(graph=(5, [(0, 1), (1, 2), (2, 3), (3, 4)], [1e-300, 1.0, 1e300, 1.0], 2))
def test_train_labels_every_node_or_names_the_cause(no_contraction, graph):
    n, edges, weights, k = graph
    code, err, labels = train_cli(n, edges, weights, k, no_contraction)
    if code == 0:
        assert sorted(labels) == sorted(str(i) for i in range(n))
        assert all(0 <= label < k for label in labels.values())
    else:
        assert code == 1
        assert CAUSES.fullmatch(err), err
