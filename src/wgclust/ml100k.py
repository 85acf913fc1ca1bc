"""Build the weighted movie graph from raw MovieLens 100K files.

Each user's ratings are ordered by timestamp (ties broken by item id); every
consecutive pair of distinct movies bumps the edge weight between them by 1.
Movies that end up with no edges are dropped. Each movie is labeled by the
most corpus-frequent of its own genres, ties going to the lower genre column.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .graph import LabeledGraph, build_graph

__all__ = ["GENRES", "Ml100kBuildReport", "build_ml100k"]

GENRES = (
    "unknown", "Action", "Adventure", "Animation", "Children's", "Comedy", "Crime",
    "Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical", "Mystery",
    "Romance", "Sci-Fi", "Thriller", "War", "Western",
)
N_GENRES = len(GENRES)
ITEM_FIELDS = 5 + N_GENRES  # id|title|release|video_release|imdb_url|19 genre flags


@dataclass(frozen=True)
class Ml100kBuildReport:
    node_count: int
    edge_count: int
    cluster_count: int
    density: float
    dropped_isolated: int
    genre_frequency_table: dict[str, int]
    label_names: tuple[str, ...]  # assigned-label id -> genre name
    no_genre_movies: int
    genre_tie_broken: int
    timestamp_tie_pairs: int

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2)


def _parse_items(uitem_path):
    """movie id -> 19 genre flags, in file order."""
    flags: dict[int, np.ndarray] = {}
    with open(uitem_path, encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("|")
            if len(parts) != ITEM_FIELDS:
                raise ValueError(
                    f"{uitem_path}: line {lineno}: expected {ITEM_FIELDS} pipe-separated "
                    f"fields, got {len(parts)}"
                )
            try:
                movie = int(parts[0])
                g = np.array([int(x) for x in parts[-N_GENRES:]], dtype=np.int64)
            except ValueError:
                raise ValueError(f"{uitem_path}: line {lineno}: garbled row") from None
            flags[movie] = g
    if not flags:
        raise ValueError(f"{uitem_path}: no movies")
    return flags


def _parse_ratings(udata_path):
    """user id -> list of (timestamp, item)."""
    per_user: dict[int, list[tuple[int, int]]] = {}
    with open(udata_path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
            if len(parts) != 4:
                raise ValueError(
                    f"{udata_path}: line {lineno}: expected (user, item, rating, timestamp)"
                )
            try:
                user, item, _rating, ts = (int(parts[0]), int(parts[1]), parts[2], int(parts[3]))
            except ValueError:
                raise ValueError(f"{udata_path}: line {lineno}: garbled row") from None
            per_user.setdefault(user, []).append((ts, item))
    if not per_user:
        raise ValueError(f"{udata_path}: no ratings")
    return per_user


def build_ml100k(udata_path, uitem_path) -> tuple[LabeledGraph, Ml100kBuildReport]:
    """Reconstruct the consecutive-rating movie graph and genre labels."""
    genre_flags = _parse_items(uitem_path)
    per_user = _parse_ratings(udata_path)

    freq = np.zeros(N_GENRES, dtype=np.int64)
    for g in genre_flags.values():
        freq += g
    genre_frequency_table = {name: int(c) for name, c in zip(GENRES, freq)}

    weights: dict[tuple[int, int], float] = {}
    ts_tie_pairs = 0
    for user in sorted(per_user):
        ratings = sorted(per_user[user])  # (timestamp, item): ties fall back to item id
        for (ts_a, a), (ts_b, b) in zip(ratings, ratings[1:]):
            if a == b:
                continue  # repeat rating of the same movie: no self-loop
            if ts_a == ts_b:
                ts_tie_pairs += 1
            key = (a, b) if a < b else (b, a)
            weights[key] = weights.get(key, 0.0) + 1.0

    movies = sorted({m for pair in weights for m in pair})
    dropped = len(genre_flags) - len(movies)
    for m in movies:
        if m not in genre_flags:
            raise ValueError(f"movie {m} appears in ratings but not in the item file")
    dense = {m: i for i, m in enumerate(movies)}

    # label = the movie's own most corpus-frequent genre; ties -> lower column
    no_genre = 0
    tie_broken = 0
    genre_of = np.zeros(len(movies), dtype=np.int64)
    for m in movies:
        g = genre_flags[m]
        own = np.flatnonzero(g)
        if own.size == 0:
            genre_of[dense[m]] = 0  # reserved "unknown" bucket
            no_genre += 1
            continue
        best = own[np.argmax(freq[own])]
        if (freq[own] == freq[best]).sum() > 1:
            tie_broken += 1
        genre_of[dense[m]] = best

    used_genres = np.unique(genre_of)
    label_of_genre = {int(g): i for i, g in enumerate(used_genres)}
    labels = np.array([label_of_genre[int(g)] for g in genre_of], dtype=np.int64)
    label_names = tuple(GENRES[int(g)] for g in used_genres)

    u = np.array([dense[a] for a, _ in weights], dtype=np.int64)
    v = np.array([dense[b] for _, b in weights], dtype=np.int64)
    w = np.array(list(weights.values()))
    node_ids = tuple(str(m) for m in movies)
    graph = build_graph(len(movies), u, v, w, node_ids=node_ids)

    n, e = graph.n, graph.num_edges
    report = Ml100kBuildReport(
        node_count=n,
        edge_count=e,
        cluster_count=int(used_genres.size),
        density=2.0 * e / (n * (n - 1)) if n > 1 else 0.0,
        dropped_isolated=int(dropped),
        genre_frequency_table=genre_frequency_table,
        label_names=label_names,
        no_genre_movies=no_genre,
        genre_tie_broken=tie_broken,
        timestamp_tie_pairs=ts_tie_pairs,
    )
    return LabeledGraph(graph=graph, labels=labels, cluster_count=int(used_genres.size)), report
