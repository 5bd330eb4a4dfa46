"""Recommenders scored by the evaluation harness: the trained two-tower model
and the popularity / content-profile / graph-profile baselines.

Each one's `recommend(user_id, k=None)` returns the first k ids of its
ranking for the user, the whole ranking when k is None. The baselines read
the feature window `data.window_by_user` cuts from the train log; the
profile baselines take their candidate items and their fallback ranking from
the popularity baseline over that window."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import CatalogItem, InteractionRecord, popularity_ranking, window_by_user
from .hgnn import NodeEmbeddingTable
from .index import RecIndex, query_topk
from .two_tower import (
    TowerParams,
    UserHistoryTable,
    user_histories,
    user_inputs,
    user_tower_output,
)

Window = dict[str, list[InteractionRecord]]  # `data.window_by_user`


class PopularityRecommender:
    """One global ranking of the target-type catalog items (`item_ids`, in id
    order) by feature-window stream count, ties by id, served to every user.
    Zero-count items trail in id order."""

    name = "popularity"

    def __init__(
        self, window: Window, catalog: dict[str, CatalogItem], target_type: str = "audiobook"
    ):
        self.item_ids = sorted(i for i, item in catalog.items() if item.item_type == target_type)
        self.ranking = popularity_ranking(
            (r for records in window.values() for r in records), self.item_ids, target_type
        )

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        return self.ranking[:k]


class _ProfileKnnRecommender:
    """Rank the target-type items that `vector_of` gives a vector by dot
    product with the user's profile: the mean vector of the items they touched
    in the window (streams plus weak signals) that have one, built when the
    user is ranked. Users without a profile get the popularity order."""

    def __init__(
        self,
        name: str,
        vector_of: Callable[[str], np.ndarray | None],
        window: Window,
        popular: PopularityRecommender,
    ):
        self.name = name
        self.vector_of, self.window = vector_of, window
        item_ids = [i for i in popular.item_ids if vector_of(i) is not None]
        # built directly: content vectors are not unit norm, as build_index demands
        self.index = RecIndex(np.array(item_ids), np.stack([vector_of(i) for i in item_ids]))
        self.fallback_ranking = popular.ranking

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        items = sorted({r.item_id for r in self.window.get(user_id, ())})
        rows = [row for row in map(self.vector_of, items) if row is not None]
        if not rows:
            return self.fallback_ranking[:k]
        k = len(self.index) if k is None else k
        return [item_id for item_id, _ in query_topk(self.index, np.mean(rows, axis=0), k)]


def content_knn_baseline(
    window: Window, catalog: dict[str, CatalogItem], popular: PopularityRecommender
) -> _ProfileKnnRecommender:
    """Profiles and items in the catalog's content-vector space: only
    target-type catalog items have a vector."""
    content = {i: catalog[i].content_vector for i in popular.item_ids}
    return _ProfileKnnRecommender("content_knn", content.get, window, popular)


def hgnn_knn_baseline(
    window: Window, embeddings: NodeEmbeddingTable, popular: PopularityRecommender
) -> _ProfileKnnRecommender:
    """Profiles and items in the graph embedding space: every item with a
    table row, of any type, has a vector."""
    return _ProfileKnnRecommender("hgnn_knn", embeddings.get, window, popular)


class TwoTowerRecommender:
    """Serve recommendations by running the user tower and exhaustively
    querying the item index. A user's tower input is their row of a
    `UserHistoryTable`, the zero history for an id it lacks, plus their
    demographics and music vector, so users with no history still get a
    vector. Each user's packed tower input is built once and kept, so a
    repeat query runs only the user tower and the ranking."""

    name = "two_tower_hgnn"

    def __init__(
        self,
        params: TowerParams,
        index: RecIndex,
        train_records: list[InteractionRecord],
        embeddings: NodeEmbeddingTable,
        as_of: int | None = None,
    ):
        """The recommender over the table `train-2t` writes for
        `train_records`: one row per user in them, as of `as_of`, without
        demographics or music vectors."""
        if not train_records:
            raise ValueError("two-tower recommender needs a non-empty training log")
        window = window_by_user(train_records, params.config.window_days, as_of)
        users = {r.user_id for r in train_records}
        histories = user_histories(users, window, embeddings, params.config)
        self._setup(params, index, histories, None, None)

    @classmethod
    def from_table(
        cls,
        params: TowerParams,
        index: RecIndex,
        histories: UserHistoryTable,
        music_vectors: dict[str, np.ndarray] | None = None,
        demographics: dict[str, tuple[str, str]] | None = None,
    ) -> "TwoTowerRecommender":
        """The recommender over rows `train-2t` already built, such as those
        `UserHistoryTable.load` reads from `user_features.bin`."""
        recommender = cls.__new__(cls)
        recommender._setup(params, index, histories, music_vectors, demographics)
        return recommender

    def _setup(self, params, index, histories, music_vectors, demographics) -> None:
        self.params = params
        self.index = index
        self.histories = histories
        self.music_vectors = music_vectors or {}
        self.demographics = demographics or {}
        self._inputs: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def user_vector(self, user_id: str) -> np.ndarray:
        inputs = self._inputs.get(user_id)
        if inputs is None:
            inputs = self._inputs[user_id] = user_inputs(
                self.params, self.histories, [user_id], self.music_vectors, self.demographics
            )
        return user_tower_output(self.params, inputs)

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        q = self.user_vector(user_id)
        k = len(self.index) if k is None else k
        return [item_id for item_id, _ in query_topk(self.index, q, k)]

    def recommend_scored(self, user_id: str, k: int) -> list[tuple[str, float]]:
        return query_topk(self.index, self.user_vector(user_id), k)
