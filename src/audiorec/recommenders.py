"""Recommenders scored by the evaluation harness: the trained two-tower model
and the popularity / content-profile / graph-profile baselines.

Each one's `recommend(user_id, k=None)` returns the first k ids of its
ranking for the user, the whole ranking when k is None. The baselines read
the feature window `Interactions.window` cuts from the train log; the
profile baselines take their candidate items and their fallback ranking from
the popularity baseline over that window."""

from __future__ import annotations

import numpy as np

from .data import CatalogItem, InteractionRecord, Interactions, popularity_ranking, profile_means, rows_of
from .hgnn import NodeEmbeddingTable
from .index import RecIndex, query_topk
from .two_tower import (
    TowerParams,
    UserHistoryTable,
    user_histories,
    user_inputs,
    user_tower_output,
)


class PopularityRecommender:
    """One global ranking of the target-type catalog items (`item_ids`, in id
    order) by feature-window stream count, ties by id, served to every user.
    Zero-count items trail in id order."""

    name = "popularity"

    def __init__(
        self, window: Interactions, catalog: dict[str, CatalogItem], target_type: str = "audiobook"
    ):
        self.item_ids = sorted(i for i, item in catalog.items() if item.item_type == target_type)
        self.ranking = popularity_ranking(window, self.item_ids, target_type)

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        return self.ranking[:k]


class _ProfileKnnRecommender:
    """Rank the target-type items that have a row in `matrix` (`index` gives
    an id's row) by dot product with the user's profile: the mean row of the
    items they touched in the window (streams plus weak signals) that have
    one. Users without a profile get the popularity order."""

    def __init__(
        self,
        name: str,
        index: dict[str, int],
        matrix: np.ndarray,
        window: Interactions,
        popular: PopularityRecommender,
    ):
        self.name = name
        item_ids = [i for i in popular.item_ids if i in index]
        # built directly: content vectors are not unit norm, as build_index demands
        self.index = RecIndex(np.array(item_ids), matrix[[index[i] for i in item_ids]])
        self.fallback_ranking = popular.ranking
        users, profiles = profile_means(window, None, rows_of(window.item_ids, index), matrix)
        self.profiles = dict(zip(window.user_ids[users].tolist(), profiles))

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        profile = self.profiles.get(user_id)
        if profile is None:
            return self.fallback_ranking[:k]
        k = len(self.index) if k is None else k
        return [item_id for item_id, _ in query_topk(self.index, profile, k)]


def content_knn_baseline(
    window: Interactions, catalog: dict[str, CatalogItem], popular: PopularityRecommender
) -> _ProfileKnnRecommender:
    """Profiles and items in the catalog's content-vector space: only
    target-type catalog items have a vector."""
    index = {i: row for row, i in enumerate(popular.item_ids)}
    matrix = np.array([catalog[i].content_vector for i in popular.item_ids])
    return _ProfileKnnRecommender("content_knn", index, matrix, window, popular)


def hgnn_knn_baseline(
    window: Interactions, embeddings: NodeEmbeddingTable, popular: PopularityRecommender
) -> _ProfileKnnRecommender:
    """Profiles and items in the graph embedding space: every item with a
    table row, of any type, has a vector."""
    return _ProfileKnnRecommender("hgnn_knn", embeddings.index, embeddings.matrix, window, popular)


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
        demographics or music vectors. The records become the columns
        `split` writes, and the rows are built as `train-2t` builds them."""
        if not train_records:
            raise ValueError("two-tower recommender needs a non-empty training log")
        window = Interactions.from_records(train_records).window(params.config.window_days, as_of)
        self._setup(params, index, user_histories(window, embeddings, params.config), None, None)

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
