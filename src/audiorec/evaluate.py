"""Offline ranking metrics over the holdout window, per user segment, plus the
popularity-tier breakdown.

Recommenders produce a ranked id list per user; `filtered_recommendations`
removes the target items the user streamed anywhere in train and truncates to
`eval.max_rank` (`MAX_RANK` by default). `pipeline.model_rankings` builds
these filtered rankings for every user with target-type holdout streams, and
`evaluate` and `tiered_metrics` score them: hit rate, reciprocal rank, and
catalog coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import Interactions, LogSplit, UserSegments, popularity_ranking

MAX_RANK = 100
N_TIERS = 5  # tiers 3-5 form the reported long tail


@dataclass
class MetricsReport:
    segment: str
    hr_at_k: float
    mrr: float
    coverage: float
    n_users: int
    k: int

    def to_dict(self) -> dict:
        return {
            "segment": self.segment,
            "hr_at_k": float(self.hr_at_k),
            "mrr": float(self.mrr),
            "coverage": float(self.coverage),
            "n_users": int(self.n_users),
            "k": int(self.k),
        }


def hit_rate_at_k(
    recommendations: dict[str, list[str]],
    relevant: dict[str, set[str]],
    k: int = 10,
) -> float:
    """Share of users with at least one relevant item in their top k."""
    users = sorted(recommendations)
    if not users:
        raise ValueError("no users to evaluate")
    hits = np.array(
        [1.0 if set(recommendations[u][:k]) & relevant[u] else 0.0 for u in users]
    )
    return float(hits.mean())


def first_ranks(ranking: list[str], items: Iterable[str], max_rank: int) -> dict[str, int]:
    """Each of `items` that the top `max_rank` of `ranking` holds, by the
    1-based rank of its first place there."""
    top = ranking[:max_rank]
    return {item: top.index(item) + 1 for item in items if item in top}


def mrr(
    recommendations: dict[str, list[str]],
    relevant: dict[str, set[str]],
    max_rank: int = MAX_RANK,
    ranks: dict[str, dict[str, int]] | None = None,
) -> float:
    """Mean reciprocal rank of each user's first relevant item within the top
    `max_rank`; users with no relevant item there contribute zero. `ranks`
    holds each user's `first_ranks` of their relevant items, or of more
    items, when the caller has them already."""
    users = sorted(recommendations)
    if not users:
        raise ValueError("no users to evaluate")
    if ranks is None:
        ranks = {u: first_ranks(recommendations[u], relevant[u], max_rank) for u in users}
    values = []
    for u in users:
        rank_of = ranks[u]
        first = min((rank_of[i] for i in relevant[u] if i in rank_of), default=0)
        values.append(1.0 / first if first else 0.0)
    return float(np.mean(values))


def coverage(
    recommendations: dict[str, list[str]],
    catalog: set[str],
    max_rank: int = MAX_RANK,
) -> float:
    """Fraction of the catalog appearing in at least one truncated list."""
    if not catalog:
        raise ValueError("empty catalog")
    recommended: set[str] = set()
    for items in recommendations.values():
        recommended.update(items[:max_rank])
    return len(recommended & catalog) / len(catalog)


def streamed_items(log: Interactions, target_type: str) -> dict[str, set[str]]:
    """Each user's streamed target-type items: the relevant items of a
    holdout, or the consumed items of a train log."""
    users, items = log.user_items(log.streams(target_type))
    streamed: dict[str, set[str]] = {}
    for user, item in zip(log.user_ids[users].tolist(), log.item_ids[items].tolist()):
        streamed.setdefault(user, set()).add(item)
    return streamed


def filtered_recommendations(
    recommender,
    users: list[str],
    consumed: dict[str, set[str]],
    max_rank: int = MAX_RANK,
) -> dict[str, list[str]]:
    """Ask the recommender for each user's ranking, drop train-consumed items,
    truncate to `max_rank`. Dropping removes at most one item per consumed
    one, so the first `max_rank + len(consumed)` items of a ranking are all
    that is asked for."""
    out: dict[str, list[str]] = {}
    for u in users:
        drop = consumed.get(u, set())
        ranked = recommender.recommend(u, max_rank + len(drop))
        out[u] = [i for i in ranked if i not in drop][:max_rank]
    return out


def _score(
    rankings: dict[str, list[str]],
    groups: dict[str, tuple[dict[str, set[str]], set[str]]],
    k: int,
    max_rank: int,
) -> dict[str, MetricsReport]:
    """One report per group with users. A group is its users' relevant items
    and the item set its coverage is over."""
    reports: dict[str, MetricsReport] = {}
    # each user's relevant items over every group, ranked once
    items_of: dict[str, set[str]] = {}
    for relevant, _ in groups.values():
        for u, items in relevant.items():
            items_of.setdefault(u, set()).update(items)
    ranks = {u: first_ranks(rankings[u], items, max_rank) for u, items in items_of.items()}
    for name, (relevant, items) in groups.items():
        if not relevant:
            continue
        recs = {u: rankings[u] for u in relevant}
        reports[name] = MetricsReport(
            segment=name,
            hr_at_k=hit_rate_at_k(recs, relevant, k),
            mrr=mrr(recs, relevant, max_rank, ranks),
            coverage=coverage(recs, items, max_rank),
            n_users=len(relevant),
            k=k,
        )
    return reports


def evaluate(
    rankings: dict[str, list[str]],
    split: LogSplit,
    segments: UserSegments,
    target_type: str,
    catalog_ids: set[str],
    k: int = 10,
    max_rank: int = MAX_RANK,
) -> dict[str, MetricsReport]:
    """Score a recommender's filtered rankings (`pipeline.model_rankings`)
    on holdout streams of the target type.

    Returns one report per non-empty segment among warm / cold / all. Raises
    when no user is evaluable at all.
    """
    relevant = streamed_items(split.holdout, target_type)
    if not relevant:
        raise ValueError("no evaluable users: holdout has no target-type streams")
    groups = {
        "warm": ({u: r for u, r in relevant.items() if u in segments.warm}, catalog_ids),
        "cold": ({u: r for u, r in relevant.items() if u in segments.cold}, catalog_ids),
        "all": (relevant, catalog_ids),
    }
    return _score(rankings, groups, k, max_rank)


def popularity_tiers(
    split: LogSplit, catalog_ids: set[str], target_type: str
) -> list[list[str]]:
    """Bucket target items into `N_TIERS` equal-count tiers by train stream
    count (descending, id ascending); tier 1 holds the most-streamed items."""
    ranked = popularity_ranking(split.train, catalog_ids, target_type)
    return [list(chunk) for chunk in np.array_split(np.array(ranked), N_TIERS)]


def tiered_metrics(
    rankings: dict[str, list[str]],
    split: LogSplit,
    target_type: str,
    catalog_ids: set[str],
    k: int = 10,
    max_rank: int = MAX_RANK,
) -> dict[str, MetricsReport]:
    """Per-popularity-tier metrics of a recommender's filtered rankings;
    users contribute to every tier containing at least one of their relevant
    items. Tiers 3-5 combine into the reported long tail."""
    relevant = streamed_items(split.holdout, target_type)
    active_items = set().union(*relevant.values()) if relevant else set()
    if len(active_items) < N_TIERS:
        raise ValueError(
            f"need at least {N_TIERS} distinct items with holdout activity, "
            f"got {len(active_items)}"
        )
    tiers = [set(t) for t in popularity_tiers(split, catalog_ids, target_type)]
    members = {f"tier_{i + 1}": tier for i, tier in enumerate(tiers)}
    members["long_tail"] = set().union(*tiers[2:])
    groups = {
        name: ({u: r & items for u, r in relevant.items() if r & items}, items)
        for name, items in members.items()
    }
    return _score(rankings, groups, k, max_rank)
