"""Seeded synthetic interaction/catalog generator with planted cluster structure.

Users and items get latent clusters drawn uniformly. Stream counts per
(user, item) pair are Poisson with the rate boosted by a configurable factor
when the clusters match, so co-listened items share clusters far more often
than random pairs. Content vectors sit near their cluster centroid, so
co-listened items also have higher cosine similarity. A configurable share of
audiobook streams is preceded by weak signals (follow/preview/intent-to-pay),
and some weak signals are "abandoned" (never convert to a stream), which keeps
the stream-prediction analysis non-degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DAY_SECONDS, CatalogItem, InteractionRecord

# Signal-type mixes: follows dominate pre-stream signals but are rarely
# abandoned, so follow counts are the strongest stream predictor.
_PRE_STREAM_SIGNAL_P = {"follow": 0.5, "preview": 0.3, "intent_to_pay": 0.2}
_ABANDONED_SIGNAL_P = {"follow": 0.15, "preview": 0.5, "intent_to_pay": 0.35}


@dataclass
class SynthConfig:
    n_users: int = 500
    n_podcasts: int = 200
    n_audiobooks: int = 80
    n_clusters: int = 5
    d_c: int = 16
    days: int = 90
    podcast_stream_rate: float = 0.010
    audiobook_stream_rate: float = 0.010
    cluster_affinity: float = 8.0
    content_noise: float = 0.25
    weak_signal_prob: float = 0.7
    weak_extra_count: float = 1.0
    abandoned_rate: float = 0.8
    abandoned_extra_count: float = 0.2
    n_cold_items: int = 3
    languages: tuple[str, ...] = ("en", "es", "de")
    genres: tuple[str, ...] = ("g0", "g1", "g2", "g3", "g4", "g5")

    def __post_init__(self):
        self.languages = tuple(self.languages)
        self.genres = tuple(self.genres)


def _draw_signal(rng: np.random.Generator, mix: dict[str, float]) -> str:
    names = sorted(mix)
    probs = np.array([mix[n] for n in names])
    return names[rng.choice(len(names), p=probs / probs.sum())]


def synth_generate(
    config: SynthConfig, seed: int
) -> tuple[list[InteractionRecord], dict[str, CatalogItem]]:
    """Generate a seeded interaction log and catalog.

    Identical (config, seed) pairs produce identical output, record order
    included.
    """
    records, catalog, _ = synth_generate_with_meta(config, seed)
    return records, catalog


def synth_generate_with_meta(
    config: SynthConfig, seed: int
) -> tuple[list[InteractionRecord], dict[str, CatalogItem], dict]:
    """As synth_generate, also returning the latent cluster assignments
    (useful for validating planted structure)."""
    if config.n_clusters > min(config.n_users, config.n_audiobooks):
        raise ValueError(
            f"n_clusters={config.n_clusters} exceeds "
            f"min(n_users, n_audiobooks)={min(config.n_users, config.n_audiobooks)}"
        )
    rng = np.random.default_rng(seed)
    horizon = config.days * DAY_SECONDS

    user_cluster = rng.integers(0, config.n_clusters, size=config.n_users)
    pod_cluster = rng.integers(0, config.n_clusters, size=config.n_podcasts)
    ab_cluster = rng.integers(0, config.n_clusters, size=config.n_audiobooks)

    centroids = rng.normal(size=(config.n_clusters, config.d_c))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    def content_for(clusters: np.ndarray) -> np.ndarray:
        return centroids[clusters] + config.content_noise * rng.normal(
            size=(len(clusters), config.d_c)
        )

    pod_content = content_for(pod_cluster)
    ab_content = content_for(ab_cluster)

    pod_ids = [f"p{i:04d}" for i in range(config.n_podcasts)]
    ab_ids = [f"a{i:04d}" for i in range(config.n_audiobooks)]

    catalog: dict[str, CatalogItem] = {}
    for ids, content, item_type in (
        (ab_ids, ab_content, "audiobook"),
        (pod_ids, pod_content, "podcast"),
    ):
        for i, item_id in enumerate(ids):
            catalog[item_id] = CatalogItem(
                item_id=item_id,
                item_type=item_type,
                content_vector=content[i],
                language=str(rng.choice(list(config.languages))),
                genre=str(rng.choice(list(config.genres))),
            )

    def stream_counts(item_cluster: np.ndarray, base_rate: float) -> np.ndarray:
        match = user_cluster[:, None] == item_cluster[None, :]
        rates = np.where(match, base_rate * config.cluster_affinity, base_rate)
        return rng.poisson(rates)

    pod_counts = stream_counts(pod_cluster, config.podcast_stream_rate)
    ab_counts = stream_counts(ab_cluster, config.audiobook_stream_rate)
    if config.n_cold_items > 0:
        # Designated audiobooks never get streamed, so they stay out of any
        # co-listening graph and exercise the content-only embedding path.
        ab_counts[:, config.n_audiobooks - config.n_cold_items :] = 0

    records: list[InteractionRecord] = []

    def emit_streams(counts: np.ndarray, ids: list[str], item_type: str) -> dict:
        first_stream: dict[tuple[int, int], int] = {}
        for u, i in np.argwhere(counts > 0):
            times = rng.integers(0, horizon, size=counts[u, i])
            first_stream[(int(u), int(i))] = int(times.min())
            for t in times:
                records.append(
                    InteractionRecord(
                        user_id=f"u{u:04d}",
                        item_id=ids[i],
                        item_type=item_type,
                        signal="stream",
                        timestamp=int(t),
                    )
                )
        return first_stream

    emit_streams(pod_counts, pod_ids, "podcast")
    ab_first_stream = emit_streams(ab_counts, ab_ids, "audiobook")

    # Pre-stream weak signals: a share of first audiobook streams is preceded,
    # 1-14 days earlier, by one or more weak signals of a single type.
    for (u, i), t0 in sorted(ab_first_stream.items()):
        if rng.random() >= config.weak_signal_prob:
            continue
        signal = _draw_signal(rng, _PRE_STREAM_SIGNAL_P)
        n_events = 1 + rng.poisson(config.weak_extra_count)
        for _ in range(n_events):
            gap = int(rng.integers(3600, 14 * DAY_SECONDS))
            records.append(
                InteractionRecord(
                    user_id=f"u{u:04d}",
                    item_id=ab_ids[i],
                    item_type="audiobook",
                    signal=signal,
                    timestamp=max(0, t0 - gap),
                )
            )

    # Abandoned weak signals on audiobooks the user never streams. Users
    # browse within their taste, so picks are cluster-affine too.
    for u in range(config.n_users):
        n_abandoned = rng.poisson(config.abandoned_rate)
        if n_abandoned == 0:
            continue
        unstreamed = np.flatnonzero(ab_counts[u] == 0)
        if len(unstreamed) == 0:
            continue
        weights = np.where(
            ab_cluster[unstreamed] == user_cluster[u], config.cluster_affinity, 1.0
        )
        n_pick = min(n_abandoned, len(unstreamed))
        picks = rng.choice(
            unstreamed, size=n_pick, replace=False, p=weights / weights.sum()
        )
        for i in sorted(int(p) for p in picks):
            signal = _draw_signal(rng, _ABANDONED_SIGNAL_P)
            n_events = 1 + rng.poisson(config.abandoned_extra_count)
            for _ in range(n_events):
                records.append(
                    InteractionRecord(
                        user_id=f"u{u:04d}",
                        item_id=ab_ids[i],
                        item_type="audiobook",
                        signal=signal,
                        timestamp=int(rng.integers(0, horizon)),
                    )
                )

    records.sort(key=lambda r: (r.timestamp, r.user_id, r.item_id, r.signal))
    meta = {
        "user_cluster": {f"u{u:04d}": int(c) for u, c in enumerate(user_cluster)},
        "item_cluster": {
            **{ab_ids[i]: int(c) for i, c in enumerate(ab_cluster)},
            **{pod_ids[i]: int(c) for i, c in enumerate(pod_cluster)},
        },
    }
    return records, catalog, meta
