"""Movie-graph builder on synthetic raw files, plus the real-data check when available."""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from wgclust.cli import main
from wgclust.ml100k import GENRES, build_ml100k

from graph_helpers import neighbors


def write_items(path, genres_by_movie):
    """genres_by_movie: movie id -> iterable of genre column indices."""
    lines = []
    for movie, cols in genres_by_movie.items():
        flags = ["0"] * len(GENRES)
        for c in cols:
            flags[c] = "1"
        lines.append(
            f"{movie}|Title {movie} (1995)|01-Jan-1995||http://example/{movie}|" + "|".join(flags)
        )
    path.write_text("\n".join(lines) + "\n", encoding="latin-1")


def write_ratings(path, rows):
    """rows: (user, item, rating, timestamp) tuples."""
    path.write_text(
        "\n".join(f"{u}\t{i}\t{r}\t{t}" for u, i, r, t in rows) + "\n", encoding="utf-8"
    )


@pytest.fixture
def raw(tmp_path):
    def make(genres_by_movie, rating_rows):
        uitem = tmp_path / "u.item"
        udata = tmp_path / "u.data"
        write_items(uitem, genres_by_movie)
        write_ratings(udata, rating_rows)
        return udata, uitem

    return make


class TestEdgeConstruction:
    def test_back_and_forth_pair_accumulates(self, raw):
        # one user rating movies [1, 2, 1] in time order: both steps hit edge (1, 2)
        udata, uitem = raw({1: [8], 2: [8]}, [(1, 1, 5, 100), (1, 2, 4, 200), (1, 1, 3, 300)])
        labeled, report = build_ml100k(udata, uitem)
        g = labeled.graph
        assert g.num_edges == 1
        i, j = g.node_ids.index("1"), g.node_ids.index("2")
        assert dict(neighbors(g, i))[j] == 2.0

    def test_accumulation_across_users(self, raw):
        udata, uitem = raw(
            {1: [8], 2: [8]},
            [(1, 1, 5, 100), (1, 2, 4, 200), (2, 1, 5, 50), (2, 2, 4, 60)],
        )
        labeled, _ = build_ml100k(udata, uitem)
        g = labeled.graph
        i, j = g.node_ids.index("1"), g.node_ids.index("2")
        assert dict(neighbors(g, i))[j] == 2.0

    def test_consecutive_repeat_movie_skipped(self, raw):
        udata, uitem = raw(
            {1: [8], 2: [8]},
            [(1, 1, 5, 100), (1, 1, 4, 200), (1, 2, 3, 300)],
        )
        labeled, _ = build_ml100k(udata, uitem)
        assert labeled.graph.num_edges == 1  # only (1, 2); no self-loop

    def test_timestamp_ties_break_by_item_id(self, raw):
        # user rates items 5, 3, 9 all at t=100: order becomes 3, 5, 9
        udata, uitem = raw(
            {3: [8], 5: [8], 9: [8]},
            [(1, 5, 5, 100), (1, 3, 4, 100), (1, 9, 3, 100)],
        )
        labeled, report = build_ml100k(udata, uitem)
        g = labeled.graph
        pairs = {
            tuple(sorted((g.node_ids[a], g.node_ids[b])))
            for a, b, _ in zip(*g.edge_arrays())
        }
        assert pairs == {("3", "5"), ("5", "9")}
        assert report.timestamp_tie_pairs == 2

    def test_isolated_movies_dropped_and_counted(self, raw):
        udata, uitem = raw(
            {1: [8], 2: [8], 3: [5], 4: [5]},
            [(1, 1, 5, 100), (1, 2, 4, 200), (2, 3, 5, 100)],  # movie 3 rated once, 4 never
        )
        labeled, report = build_ml100k(udata, uitem)
        assert labeled.graph.n == 2
        assert report.dropped_isolated == 2
        assert report.node_count == 2 and report.edge_count == 1

    def test_sum_of_weights_counts_consecutive_pairs(self, raw):
        rows = [(1, m, 5, t) for t, m in enumerate([1, 2, 3, 4], start=1)]
        rows += [(2, m, 5, t) for t, m in enumerate([4, 3, 1], start=1)]
        udata, uitem = raw({m: [8] for m in range(1, 5)}, rows)
        labeled, _ = build_ml100k(udata, uitem)
        _, _, w = labeled.graph.edge_arrays()
        assert w.sum() == 3 + 2  # pairs with distinct movies per user


class TestLabels:
    def test_most_frequent_own_genre_wins(self, raw):
        # corpus: genre 8 appears 3 times, genre 5 twice; movie 1 has both -> labeled genre 8
        udata, uitem = raw(
            {1: [5, 8], 2: [8], 3: [8], 4: [5]},
            [(1, 1, 5, 1), (1, 2, 4, 2), (1, 3, 3, 3), (1, 4, 2, 4)],
        )
        labeled, report = build_ml100k(udata, uitem)
        names = dict(zip(labeled.graph.node_ids, (report.label_names[l] for l in labeled.labels)))
        assert names["1"] == GENRES[8]
        assert names["4"] == GENRES[5]

    def test_tie_goes_to_lower_column_and_is_counted(self, raw):
        # genres 5 and 8 both appear twice; movie 1 carries both -> column 5 wins
        udata, uitem = raw(
            {1: [5, 8], 2: [8], 3: [5]},
            [(1, 1, 5, 1), (1, 2, 4, 2), (1, 3, 3, 3)],
        )
        labeled, report = build_ml100k(udata, uitem)
        names = dict(zip(labeled.graph.node_ids, (report.label_names[l] for l in labeled.labels)))
        assert names["1"] == GENRES[5]
        assert report.genre_tie_broken >= 1

    def test_no_genre_movie_reported_as_unknown(self, raw):
        udata, uitem = raw(
            {1: [], 2: [8]},
            [(1, 1, 5, 1), (1, 2, 4, 2)],
        )
        labeled, report = build_ml100k(udata, uitem)
        names = dict(zip(labeled.graph.node_ids, (report.label_names[l] for l in labeled.labels)))
        assert names["1"] == "unknown"
        assert report.no_genre_movies == 1

    def test_cluster_count_is_distinct_assigned_labels(self, raw):
        udata, uitem = raw(
            {1: [8], 2: [8], 3: [5], 4: [2]},
            [(1, 1, 5, 1), (1, 2, 4, 2), (1, 3, 3, 3), (1, 4, 2, 4)],
        )
        labeled, report = build_ml100k(udata, uitem)
        assert report.cluster_count == 3
        assert labeled.cluster_count == 3
        assert set(labeled.labels.tolist()) == {0, 1, 2}


class TestReportAndErrors:
    def test_density_definition(self, raw):
        udata, uitem = raw(
            {1: [8], 2: [8], 3: [8]},
            [(1, 1, 5, 1), (1, 2, 4, 2), (1, 3, 3, 3)],
        )
        _, report = build_ml100k(udata, uitem)
        assert report.density == pytest.approx(2 / 3)  # 2 edges of 3 possible

    def test_rebuild_is_bit_identical(self, raw):
        rng = np.random.default_rng(0)
        movies = {m: [int(rng.integers(1, 19))] for m in range(1, 30)}
        rows = []
        for user in range(1, 10):
            seq = rng.choice(np.arange(1, 30), size=12, replace=False)
            rows += [(user, int(m), 5, int(t)) for t, m in enumerate(seq)]
        udata, uitem = raw(movies, rows)
        l1, r1 = build_ml100k(udata, uitem)
        l2, r2 = build_ml100k(udata, uitem)
        np.testing.assert_array_equal(l1.graph.weights, l2.graph.weights)
        np.testing.assert_array_equal(l1.labels, l2.labels)
        assert r1 == r2

    def test_cli_report_json_holds_every_field(self, raw, tmp_path):
        udata, uitem = raw(
            {1: [8], 2: [8], 3: [1, 5], 4: []},
            [(1, 1, 5, 100), (1, 2, 4, 200), (1, 3, 3, 300), (2, 3, 5, 100), (2, 4, 5, 100)],
        )
        out = tmp_path / "built"
        assert main(["build-ml100k", "--u-data", str(udata), "--u-item", str(uitem),
                     "--out", str(out)]) == 0
        _, report = build_ml100k(udata, uitem)
        written = json.loads((out / "report.json").read_text(encoding="utf-8"))
        expected = dataclasses.asdict(report)
        expected["label_names"] = list(report.label_names)
        assert written == expected
        assert list(written) == [f.name for f in dataclasses.fields(report)]

    def test_garbled_item_file_rejected(self, tmp_path):
        (tmp_path / "u.item").write_text("1|only|three\n", encoding="latin-1")
        write_ratings(tmp_path / "u.data", [(1, 1, 5, 1)])
        with pytest.raises(ValueError, match="fields"):
            build_ml100k(tmp_path / "u.data", tmp_path / "u.item")

    def test_garbled_data_file_rejected(self, tmp_path):
        write_items(tmp_path / "u.item", {1: [8]})
        (tmp_path / "u.data").write_text("1\tx\t5\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="garbled"):
            build_ml100k(tmp_path / "u.data", tmp_path / "u.item")


def _real_dataset_dir():
    for candidate in (
        os.environ.get("WGCLUST_ML100K_DIR"),
        Path(__file__).parent / "data" / "ml-100k",
    ):
        if candidate and Path(candidate).joinpath("u.data").exists():
            return Path(candidate)
    return None


@pytest.mark.skipif(_real_dataset_dir() is None,
                    reason="stock MovieLens 100K files not available "
                           "(set WGCLUST_ML100K_DIR or place them in tests/data/ml-100k)")
class TestRealDataset:
    def test_reference_statistics(self):
        d = _real_dataset_dir()
        labeled, report = build_ml100k(d / "u.data", d / "u.item")
        assert report.cluster_count == 9
        assert abs(report.node_count - 1612) <= 0.02 * 1612
        assert abs(report.edge_count - 58424) <= 0.02 * 58424
