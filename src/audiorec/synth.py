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

from .data import AUDIOBOOK, DAY_SECONDS, PODCAST, SIGNALS, CatalogItem, Interactions
from .io import check_rules

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
        smaller = min(self.n_users, self.n_audiobooks)
        rules = (
            ("n_users", ">= 1", self.n_users >= 1),
            ("n_podcasts", ">= 1", self.n_podcasts >= 1),
            ("n_audiobooks", ">= 1", self.n_audiobooks >= 1),
            ("n_clusters", ">= 1", self.n_clusters >= 1),
            ("n_clusters", f"<= min(n_users, n_audiobooks) ({smaller})", self.n_clusters <= smaller),
            ("d_c", ">= 1", self.d_c >= 1),
            ("days", ">= 1", self.days >= 1),
            (
                "n_cold_items",
                f"in [0, n_audiobooks] ([0, {self.n_audiobooks}])",
                0 <= self.n_cold_items <= self.n_audiobooks,
            ),
            ("podcast_stream_rate", ">= 0", self.podcast_stream_rate >= 0),
            ("audiobook_stream_rate", ">= 0", self.audiobook_stream_rate >= 0),
            ("cluster_affinity", ">= 0", self.cluster_affinity >= 0),
            ("content_noise", ">= 0", self.content_noise >= 0),
            ("weak_signal_prob", "in [0, 1]", 0 <= self.weak_signal_prob <= 1),
            ("weak_extra_count", ">= 0", self.weak_extra_count >= 0),
            ("abandoned_rate", ">= 0", self.abandoned_rate >= 0),
            ("abandoned_extra_count", ">= 0", self.abandoned_extra_count >= 0),
            ("languages", "one or more names", len(self.languages) >= 1),
            ("genres", "one or more names", len(self.genres) >= 1),
        )
        check_rules("synth", self, rules)


# Users per block of stream-count draws: a block's rates and counts take a few
# MB on a 2,000-item catalog, where one user x item array takes 32 MB.
_STREAM_BLOCK_USERS = 256


def _stream_counts(
    rng: np.random.Generator,
    user_cluster: np.ndarray,
    item_cluster: np.ndarray,
    base_rate: float,
    affinity: float,
    n_zero: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Poisson stream counts for every (user, item) pair, at `base_rate`
    times `affinity` where the clusters match, as the `(user, item, count)`
    triples of the nonzero counts in row-major order. The last `n_zero` items
    are drawn and then dropped. The draw goes a block of users at a time;
    a Generator fills an array in C order, so the counts and the generator's
    state equal one draw over the whole user x item array."""
    keep = len(item_cluster) - n_zero
    users, items, counts = [], [], []
    for start in range(0, len(user_cluster), _STREAM_BLOCK_USERS):
        match = user_cluster[start : start + _STREAM_BLOCK_USERS, None] == item_cluster[None, :]
        block = rng.poisson(np.where(match, base_rate * affinity, base_rate))[:, :keep]
        u, i = np.nonzero(block)
        users.append(u + start)
        items.append(i)
        counts.append(block[u, i])
    return np.concatenate(users), np.concatenate(items), np.concatenate(counts)


# Signals in string order; a record's signal code is its position here.
_SIGNAL_NAMES = sorted(SIGNALS)
_STREAM = _SIGNAL_NAMES.index("stream")
# each signal code's code in an `Interactions` log
_LOG_SIGNAL = np.array([SIGNALS.index(n) for n in _SIGNAL_NAMES], dtype=np.uint8)


def _signal_cdf(mix: dict[str, float]) -> tuple[list[int], np.ndarray]:
    """The codes of the signals of `mix`, in name order, and the CDF
    `Generator.choice` builds from their probabilities:
    `cdf.searchsorted(rng.random(), side="right")` draws, from the same
    random stream, the position `rng.choice(len(mix), p=...)` draws."""
    names = sorted(mix)
    probs = np.array([mix[n] for n in names])
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return [_SIGNAL_NAMES.index(n) for n in names], cdf


def _string_ranks(ids: list[str]) -> np.ndarray:
    """Each id's position among `ids` in string order, so that sorting the
    positions sorts the ids (`u10000` before `u9999`)."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def synth_generate(config: SynthConfig, seed: int) -> tuple[Interactions, dict[str, CatalogItem]]:
    """Generate a seeded interaction log and catalog.

    Identical (config, seed) pairs produce identical output, record order
    included.
    """
    log, catalog, _ = synth_generate_with_meta(config, seed)
    return log, catalog


def synth_generate_with_meta(config: SynthConfig, seed: int) -> tuple[Interactions, dict[str, CatalogItem], dict]:
    """As synth_generate, also returning the latent cluster assignments
    (useful for validating planted structure).

    Each kind of draw is one array call where the random stream allows it,
    and the log is built from the codes as columns and sorted once, no
    record objects; the loop that drew the records one at a time, from the
    same stream, is kept as `tests/oracles.py::synth_generate_loop`."""
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

    user_ids = [f"u{u:04d}" for u in range(config.n_users)]
    pod_ids = [f"p{i:04d}" for i in range(config.n_podcasts)]
    ab_ids = [f"a{i:04d}" for i in range(config.n_audiobooks)]
    # an item's code is its position in catalog order: audiobooks, then podcasts
    item_ids = ab_ids + pod_ids
    item_types = ["audiobook"] * len(ab_ids) + ["podcast"] * len(pod_ids)

    # A language, then a genre, per item: `rng.choice(names)` draws
    # `rng.integers(0, len(names))`, and one call over the interleaved
    # bounds draws them all in that order.
    bounds = np.tile([len(config.languages), len(config.genres)], len(item_ids))
    picks = rng.integers(0, bounds).reshape(-1, 2).tolist()
    catalog = {
        item_id: CatalogItem(
            item_id=item_id,
            item_type=item_type,
            content_vector=content,
            language=config.languages[language],
            genre=config.genres[genre],
        )
        for item_id, item_type, content, (language, genre) in zip(
            item_ids, item_types, [*ab_content, *pod_content], picks
        )
    }

    affinity = config.cluster_affinity
    pod_streams = _stream_counts(rng, user_cluster, pod_cluster, config.podcast_stream_rate, affinity, 0)
    # Designated audiobooks never get streamed, so they stay out of any
    # co-listening graph and exercise the content-only embedding path.
    ab_streams = _stream_counts(
        rng, user_cluster, ab_cluster, config.audiobook_stream_rate, affinity, config.n_cold_items
    )
    streamed = np.zeros((config.n_users, config.n_audiobooks), dtype=bool)
    streamed[ab_streams[0], ab_streams[1]] = True

    def stream_columns(streams: tuple, item_offset: int) -> tuple[tuple, np.ndarray]:
        """The stream records of `(user, item, count)` triples as columns
        (user, item code, signal code, time), each pair's `count` times drawn
        pair after pair in one call; and each pair's first time."""
        users, items, counts = streams
        times = rng.integers(0, horizon, size=int(counts.sum()))
        starts = np.cumsum(counts) - counts
        first = np.minimum.reduceat(times, starts) if len(starts) else times
        columns = (
            np.repeat(users, counts), np.repeat(items, counts) + item_offset, np.full(len(times), _STREAM), times
        )
        return columns, first

    pod_columns, _ = stream_columns(pod_streams, len(ab_ids))
    ab_columns, ab_first_stream = stream_columns(ab_streams, 0)

    # Weak signals as (user, item code, signal code, times) per draw of a
    # signal type. Pre-stream: a share of first audiobook streams, in
    # (user, item) order, is preceded 1-14 days earlier by one or more weak
    # signals of a single type.
    weak: list[tuple[int, int, int, np.ndarray]] = []
    pre_codes, pre_cdf = _signal_cdf(_PRE_STREAM_SIGNAL_P)
    for u, i, t0 in zip(ab_streams[0].tolist(), ab_streams[1].tolist(), ab_first_stream.tolist()):
        if rng.random() >= config.weak_signal_prob:
            continue
        signal = pre_codes[pre_cdf.searchsorted(rng.random(), side="right")]
        n_events = 1 + rng.poisson(config.weak_extra_count)
        gaps = rng.integers(3600, 14 * DAY_SECONDS, size=n_events)
        weak.append((u, i, signal, np.maximum(0, t0 - gaps)))

    # Abandoned weak signals on audiobooks the user never streams. Users
    # browse within their taste, so picks are cluster-affine too.
    abandoned_codes, abandoned_cdf = _signal_cdf(_ABANDONED_SIGNAL_P)
    for u in range(config.n_users):
        n_abandoned = rng.poisson(config.abandoned_rate)
        if n_abandoned == 0:
            continue
        unstreamed = np.flatnonzero(~streamed[u])
        if len(unstreamed) == 0:
            continue
        weights = np.where(
            ab_cluster[unstreamed] == user_cluster[u], config.cluster_affinity, 1.0
        )
        n_pick = min(n_abandoned, len(unstreamed))
        picks = rng.choice(
            unstreamed, size=n_pick, replace=False, p=weights / weights.sum()
        )
        for i in sorted(picks.tolist()):
            signal = abandoned_codes[abandoned_cdf.searchsorted(rng.random(), side="right")]
            n_events = 1 + rng.poisson(config.abandoned_extra_count)
            weak.append((u, i, signal, rng.integers(0, horizon, size=n_events)))

    blocks = [pod_columns, ab_columns]
    if weak:
        users, items, signals, times = zip(*weak)
        counts = [len(t) for t in times]
        blocks.append(
            (np.repeat(users, counts), np.repeat(items, counts), np.repeat(signals, counts), np.concatenate(times))
        )

    # Records by (timestamp, user id, item id, signal), each id compared as a
    # string: codes of the users, items and signals in string order, which
    # `select` compacts to the ids the records name.
    user, item, signal, timestamp = (np.concatenate(c) for c in zip(*blocks))
    item_type = np.where(item < len(ab_ids), AUDIOBOOK, PODCAST).astype(np.uint8)
    user, item = _string_ranks(user_ids)[user].astype(np.int32), _string_ranks(item_ids)[item].astype(np.int32)
    log = Interactions(
        np.array(sorted(user_ids)), np.array(sorted(item_ids)), user, item, item_type, _LOG_SIGNAL[signal], timestamp
    ).select(np.lexsort((signal, item, user, timestamp)))
    meta = {
        "user_cluster": dict(zip(user_ids, user_cluster.tolist())),
        "item_cluster": {
            **dict(zip(ab_ids, ab_cluster.tolist())),
            **dict(zip(pod_ids, pod_cluster.tolist())),
        },
    }
    return log, catalog, meta
