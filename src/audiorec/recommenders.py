"""Recommenders scored by the evaluation harness: the trained two-tower model
and the popularity / content-profile / graph-profile baselines."""

from __future__ import annotations

import numpy as np

from .data import CatalogItem, InteractionRecord, feature_window
from .hgnn import NodeEmbeddingTable
from .index import RecIndex, query_topk
from .two_tower import (
    TowerParams,
    UserFeatures,
    assemble_user_features,
    records_by_user,
    user_tower_forward,
)


def _ranked_by_dot(ids: np.ndarray, vectors: np.ndarray, query: np.ndarray) -> list[str]:
    scores = vectors @ query
    order = np.lexsort((ids, -scores))
    return [str(ids[i]) for i in order]


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
        counts = {
            i: 0 for i, item in catalog.items() if item.item_type == target_type
        }
        for r in train_records:
            if (
                r.signal == "stream"
                and r.item_type == target_type
                and r.item_id in counts
                and window_start <= r.timestamp < as_of
            ):
                counts[r.item_id] += 1
        self.ranking = sorted(counts, key=lambda i: (-counts[i], i))

    def recommend(self, user_id: str) -> list[str]:
        return list(self.ranking)


class _ProfileKnnRecommender:
    """Rank the target catalog by dot product with a per-user profile vector
    (a mean over interacted items); users without a profile fall back to the
    popularity order."""

    def __init__(
        self,
        name: str,
        profiles: dict[str, np.ndarray],
        item_ids: list[str],
        item_vectors: np.ndarray,
        fallback_ranking: list[str],
    ):
        self.name = name
        self.profiles = profiles
        self.item_ids = np.array(item_ids)
        self.item_vectors = item_vectors
        self.fallback_ranking = fallback_ranking

    def recommend(self, user_id: str) -> list[str]:
        profile = self.profiles.get(user_id)
        if profile is None:
            return list(self.fallback_ranking)
        return _ranked_by_dot(self.item_ids, self.item_vectors, profile)


def content_knn_baseline(
    train_records: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    target_type: str = "audiobook",
    window_days: int = 90,
    as_of: int | None = None,
) -> _ProfileKnnRecommender:
    """User profile = mean content vector of target-type items the user
    touched (streams plus weak signals) in the window; items ranked by dot
    product with the profile."""
    window_start, as_of = feature_window(train_records, window_days, as_of)
    per_user: dict[str, set[str]] = {}
    for r in train_records:
        in_window = window_start <= r.timestamp < as_of
        if in_window and r.item_type == target_type and r.item_id in catalog:
            per_user.setdefault(r.user_id, set()).add(r.item_id)
    profiles = {
        u: np.mean([catalog[i].content_vector for i in sorted(items)], axis=0)
        for u, items in per_user.items()
    }
    item_ids = sorted(i for i, it in catalog.items() if it.item_type == target_type)
    item_vectors = np.stack([catalog[i].content_vector for i in item_ids])
    fallback = PopularityRecommender(
        train_records, catalog, target_type, window_days, as_of
    ).ranking
    return _ProfileKnnRecommender(
        "content_knn", profiles, item_ids, item_vectors, fallback
    )


def hgnn_knn_baseline(
    train_records: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    embeddings: NodeEmbeddingTable,
    target_type: str = "audiobook",
    window_days: int = 90,
    as_of: int | None = None,
) -> _ProfileKnnRecommender:
    """User profile = mean graph embedding of every item the user touched in
    the window (any type, streams plus weak signals); target items ranked in
    the same embedding space."""
    window_start, as_of = feature_window(train_records, window_days, as_of)
    per_user: dict[str, set[str]] = {}
    for r in train_records:
        if window_start <= r.timestamp < as_of and embeddings.get(r.item_id) is not None:
            per_user.setdefault(r.user_id, set()).add(r.item_id)
    profiles = {}
    for u, items in per_user.items():
        rows = [embeddings.get(i) for i in sorted(items)]
        profiles[u] = np.mean(rows, axis=0)
    item_ids = sorted(
        i
        for i, it in catalog.items()
        if it.item_type == target_type and embeddings.get(i) is not None
    )
    item_vectors = np.stack([embeddings.get(i) for i in item_ids])
    fallback = PopularityRecommender(
        train_records, catalog, target_type, window_days, as_of
    ).ranking
    return _ProfileKnnRecommender("hgnn_knn", profiles, item_ids, item_vectors, fallback)


class TwoTowerRecommender:
    """Serve recommendations by running the user tower and exhaustively
    querying the item index. Total: users with no history still get a vector
    through the tower."""

    name = "two_tower_hgnn"

    def __init__(
        self,
        params: TowerParams,
        index: RecIndex,
        train_records: list[InteractionRecord],
        embeddings: NodeEmbeddingTable,
        as_of: int | None = None,
        music_vectors: dict[str, np.ndarray] | None = None,
        demographics: dict[str, tuple[str, str]] | None = None,
    ):
        self.params = params
        self.index = index
        self.embeddings = embeddings
        self.music_vectors = music_vectors or {}
        self.demographics = demographics or {}
        self._user_features: dict[str, UserFeatures] = {}
        window_start, self._as_of = feature_window(
            train_records, params.config.window_days, as_of
        )
        self._history = records_by_user(train_records, window_start, self._as_of)

    def user_vector(self, user_id: str) -> np.ndarray:
        feats = self._user_features.get(user_id)
        if feats is None:
            feats = assemble_user_features(
                user_id,
                self._history.get(user_id, []),
                self.embeddings,
                self.params.config,
                as_of=self._as_of,
                music_vector=self.music_vectors.get(user_id),
                demographics=self.demographics,
            )
            self._user_features[user_id] = feats
        return user_tower_forward(self.params, feats)

    def recommend(self, user_id: str, k: int | None = None) -> list[str]:
        q = self.user_vector(user_id)
        k = len(self.index) if k is None else k
        return [item_id for item_id, _ in query_topk(self.index, q, k)]

    def recommend_scored(self, user_id: str, k: int) -> list[tuple[str, float]]:
        return query_topk(self.index, self.user_vector(user_id), k)
