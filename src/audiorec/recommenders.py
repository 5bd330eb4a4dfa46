"""Recommenders scored by the evaluation harness: the trained two-tower model
and the popularity / content-profile / graph-profile baselines.

Each one's `recommend(user_id, k=None)` returns the first k ids of its
ranking for the user, the whole ranking when k is None."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .data import CatalogItem, InteractionRecord, feature_window, popularity_ranking
from .hgnn import NodeEmbeddingTable
from .index import RecIndex, query_topk
from .two_tower import (
    TowerParams,
    UserHistoryTable,
    records_by_user,
    user_histories,
    user_inputs,
    user_tower_output,
)


class PopularityRecommender:
    """One global ranking by train-window stream count, ties by id, served to
    every user. Zero-count catalog items trail in id order."""

    name = "popularity"

    def __init__(
        self,
        train_records: list[InteractionRecord],
        catalog: dict[str, CatalogItem],
        target_type: str = "audiobook",
        window_days: int = 90,
        as_of: int | None = None,
    ):
        if not train_records:
            raise ValueError("popularity baseline needs a non-empty training log")
        window_start, as_of = feature_window(train_records, window_days, as_of)
        self.ranking = popularity_ranking(
            (r for r in train_records if window_start <= r.timestamp < as_of),
            (i for i, item in catalog.items() if item.item_type == target_type),
            target_type,
        )

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        return self.ranking[:k]


class _ProfileKnnRecommender:
    """Rank the target-type items that `vector_of` gives a vector by dot
    product with the user's profile: the mean vector of the items they touched
    in the window (streams plus weak signals) that have one. Users without a
    profile get the popularity order."""

    def __init__(
        self,
        name: str,
        vector_of: Callable[[str], np.ndarray | None],
        train_records: list[InteractionRecord],
        catalog: dict[str, CatalogItem],
        target_type: str,
        window_days: int,
        as_of: int | None,
    ):
        self.name = name
        window_start, as_of = feature_window(train_records, window_days, as_of)
        self.profiles: dict[str, np.ndarray] = {}
        for user_id, records in records_by_user(train_records, window_start, as_of).items():
            items = sorted({r.item_id for r in records})
            rows = [row for row in map(vector_of, items) if row is not None]
            if rows:
                self.profiles[user_id] = np.mean(rows, axis=0)
        item_ids = sorted(
            i
            for i, it in catalog.items()
            if it.item_type == target_type and vector_of(i) is not None
        )
        # built directly: content vectors are not unit norm, as build_index demands
        self.index = RecIndex(np.array(item_ids), np.stack([vector_of(i) for i in item_ids]))
        self.fallback_ranking = PopularityRecommender(
            train_records, catalog, target_type, window_days, as_of
        ).ranking

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        profile = self.profiles.get(user_id)
        if profile is None:
            return self.fallback_ranking[:k]
        k = len(self.index) if k is None else k
        return [item_id for item_id, _ in query_topk(self.index, profile, k)]


def content_knn_baseline(
    train_records: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    target_type: str = "audiobook",
    window_days: int = 90,
    as_of: int | None = None,
) -> _ProfileKnnRecommender:
    """Profiles and items in the catalog's content-vector space: only
    target-type catalog items have a vector."""
    content = {i: it.content_vector for i, it in catalog.items() if it.item_type == target_type}
    return _ProfileKnnRecommender(
        "content_knn", content.get, train_records, catalog, target_type, window_days, as_of
    )


def hgnn_knn_baseline(
    train_records: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    embeddings: NodeEmbeddingTable,
    target_type: str = "audiobook",
    window_days: int = 90,
    as_of: int | None = None,
) -> _ProfileKnnRecommender:
    """Profiles and items in the graph embedding space: every item with a
    table row, of any type, has a vector."""
    return _ProfileKnnRecommender(
        "hgnn_knn", embeddings.get, train_records, catalog, target_type, window_days, as_of
    )


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
        users = {r.user_id for r in train_records}
        histories = user_histories(users, train_records, embeddings, params.config, as_of)
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
