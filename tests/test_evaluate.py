import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec.data import (
    DAY_SECONDS,
    CatalogItem,
    DatasetSplit,
    InteractionRecord,
    Interactions,
    user_segments,
)
from audiorec.evaluate import (
    coverage,
    evaluate,
    filtered_recommendations,
    first_ranks,
    hit_rate_at_k,
    mrr,
    popularity_tiers,
    streamed_items,
    tiered_metrics,
)
from audiorec.hgnn import NodeEmbeddingTable
from audiorec.recommenders import (
    PopularityRecommender,
    content_knn_baseline,
    hgnn_knn_baseline,
)

from conftest import log_split, make_catalog, stream
import oracles


class FixedRecommender:
    def __init__(self, lists, name="fixed", default=()):
        self.lists = lists
        self.name = name
        self.default = list(default)

    def recommend(self, user_id, k=None):
        return list(self.lists.get(user_id, self.default))[:k]


def holdout_rankings(rec, split, target_type):
    """The filtered ranking of every user with target-type holdout streams,
    as `pipeline.model_rankings` builds it."""
    users = sorted(streamed_items(split.holdout, target_type))
    return filtered_recommendations(rec, users, streamed_items(split.train, target_type))


def score(rec, split, segments, target_type, catalog_ids):
    return evaluate(holdout_rankings(rec, split, target_type), split, segments, target_type, catalog_ids)


def windowed(train, catalog, target_type="audiobook", window_days=90, as_of=None):
    """The feature window of `train` and the popularity baseline over it,
    which the profile baselines share, as `pipeline.model_rankings` builds
    them."""
    window = Interactions.from_records(train).window(window_days, as_of)
    return window, PopularityRecommender(window, catalog, target_type)


def popularity(train, catalog, **window):
    return windowed(train, catalog, **window)[1]


def content_knn(train, catalog):
    window, popular = windowed(train, catalog)
    return content_knn_baseline(window, catalog, popular)


def hgnn_knn(train, catalog, table):
    window, popular = windowed(train, catalog)
    return hgnn_knn_baseline(window, table, popular)


class TestHitRate:
    def test_hit_inside_k(self):
        recs = {"u1": [f"i{j}" for j in range(20)]}
        assert hit_rate_at_k(recs, {"u1": {"i2"}}, k=10) == 1.0

    def test_hit_outside_k(self):
        recs = {"u1": [f"i{j}" for j in range(20)]}
        assert hit_rate_at_k(recs, {"u1": {"i14"}}, k=10) == 0.0

    def test_mean_over_users(self):
        recs = {"u1": ["a", "b"], "u2": ["c", "d"]}
        rel = {"u1": {"a"}, "u2": {"zz"}}
        assert hit_rate_at_k(recs, rel, k=10) == 0.5

    def test_empty_users_fatal(self):
        with pytest.raises(ValueError):
            hit_rate_at_k({}, {}, k=10)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, seed):
        rng = np.random.default_rng(seed)
        items = [f"i{j}" for j in range(30)]
        recs = {
            f"u{u}": [str(x) for x in rng.permutation(items)] for u in range(5)
        }
        rel = {
            f"u{u}": {str(x) for x in rng.choice(items, size=3, replace=False)}
            for u in range(5)
        }
        values = [hit_rate_at_k(recs, rel, k=k) for k in range(1, 31)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


class TestMrr:
    def test_reciprocal_rank(self):
        recs = {"u1": ["x", "y", "z", "hit", "w"]}
        assert mrr(recs, {"u1": {"hit"}}) == 0.25

    def test_outside_top_100_is_zero(self):
        recs = {"u1": [f"i{j}" for j in range(150)]}
        assert mrr(recs, {"u1": {"i120"}}, max_rank=100) == 0.0

    def test_rank_one_everywhere(self):
        recs = {"u1": ["a"], "u2": ["b"]}
        assert mrr(recs, {"u1": {"a"}, "u2": {"b"}}) == 1.0

    def test_first_relevant_counts(self):
        recs = {"u1": ["x", "r2", "r1"]}
        assert mrr(recs, {"u1": {"r1", "r2"}}) == 0.5

    def test_matches_the_ranking_walk(self):
        # rankings with repeated items, relevant items past `max_rank` or
        # absent, and users with no hit; given or worked-out rank lookups
        rng = np.random.default_rng(5)
        for _ in range(200):
            items = [f"i{j}" for j in range(int(rng.integers(1, 30)))]
            recs = {
                f"u{u}": [str(x) for x in rng.choice(items, size=int(rng.integers(0, 40)))]
                for u in range(int(rng.integers(1, 12)))
            }
            rel = {u: {str(x) for x in rng.choice(items + ["never"], size=int(rng.integers(1, 4)))} for u in recs}
            max_rank = int(rng.integers(1, 45))
            want = oracles.mrr_walk(recs, rel, max_rank)
            # ranks of more items than the relevant ones, as `_score` gives
            ranks = {u: first_ranks(r, items + ["never"], max_rank) for u, r in recs.items()}
            assert mrr(recs, rel, max_rank) == want
            assert mrr(recs, rel, max_rank, ranks) == want
        assert mrr({"u1": ["a", "b"], "u2": ["c"]}, {"u1": {"z"}, "u2": {"y"}}) == 0.0

    def test_first_ranks_keep_the_first_of_repeats(self):
        assert first_ranks(["a", "b", "a", "c", "b"], ["a", "b", "c", "z"], 4) == {"a": 1, "b": 2, "c": 4}
        assert first_ranks(["a", "b", "c"], ["c"], 2) == {}
        assert first_ranks([], ["a"], 3) == {}


class TestCoverage:
    def test_fraction_of_catalog(self):
        recs = {"u1": ["a", "b"], "u2": ["b", "c"]}
        assert coverage(recs, {f"x{i}" for i in range(7)} | {"a", "b", "c"}) == 0.3

    def test_identical_lists(self):
        lists = {f"u{j}": [f"i{k}" for k in range(10)] for j in range(4)}
        assert coverage(lists, {f"i{k}" for k in range(40)}) == 0.25

    def test_empty_recommendations(self):
        assert coverage({"u1": []}, {"a", "b"}) == 0.0

    def test_truncation_at_100(self):
        recs = {"u1": [f"i{j}" for j in range(150)]}
        assert coverage(recs, {f"i{j}" for j in range(150)}) == pytest.approx(100 / 150)


def toy_eval_setup():
    """Two warm users, one cold; catalog of 6 audiobooks."""
    catalog = make_catalog(n_audiobooks=6, n_podcasts=2)
    train = [
        stream("w1", "a0", catalog, t=0),
        stream("w2", "a1", catalog, t=0),
        stream("c1", "p0", catalog, t=0),
    ]
    holdout = [
        stream("w1", "a2", catalog, t=100),
        stream("w2", "a3", catalog, t=100),
        stream("c1", "a4", catalog, t=100),
    ]
    split = log_split(DatasetSplit(train=train, holdout=holdout, split_time=50))
    segments = user_segments(split)
    ids = {i for i, it in catalog.items() if it.item_type == "audiobook"}
    return catalog, split, segments, ids


class TestEvaluate:
    def test_perfect_oracle(self):
        catalog, split, segments, ids = toy_eval_setup()
        oracle = FixedRecommender(
            {"w1": ["a2"], "w2": ["a3"], "c1": ["a4"]}, name="oracle"
        )
        reports = score(oracle, split, segments, "audiobook", ids)
        for seg in ("warm", "cold", "all"):
            assert reports[seg].hr_at_k == 1.0
            assert reports[seg].mrr == 1.0

    def test_oracle_dominates_popularity(self, small_split, small_synth):
        _, catalog = small_synth
        split = log_split(small_split)
        segments = user_segments(split)
        relevant = streamed_items(split.holdout, "audiobook")
        oracle = FixedRecommender({u: sorted(items) for u, items in relevant.items()})
        ids = {i for i, it in catalog.items() if it.item_type == "audiobook"}
        pop = popularity(small_split.train, catalog)
        oracle_rep = score(oracle, split, segments, "audiobook", ids)
        pop_rep = score(pop, split, segments, "audiobook", ids)
        assert oracle_rep["all"].hr_at_k > pop_rep["all"].hr_at_k

    def test_consumed_items_filtered(self):
        catalog, split, segments, ids = toy_eval_setup()
        rec = FixedRecommender({}, default=["a0", "a1", "a2", "a3", "a4", "a5"])
        reports = score(rec, split, segments, "audiobook", ids)
        # w1 must not be shown a0 again; its list starts at a1
        assert reports["warm"].n_users == 2
        # w1 hits a2 at rank 2, w2 hits a3 at rank 3 after filtering a1
        assert reports["warm"].mrr == pytest.approx((1 / 2 + 1 / 3) / 2)

    def test_no_evaluable_users_fatal(self):
        catalog, split, segments, ids = toy_eval_setup()
        empty_split = dataclasses.replace(split, holdout=Interactions.from_records([]))
        with pytest.raises(ValueError):
            score(FixedRecommender({}), empty_split, segments, "audiobook", ids)

    def test_segment_population(self):
        catalog, split, segments, ids = toy_eval_setup()
        rec = FixedRecommender({}, default=sorted(ids))
        reports = score(rec, split, segments, "audiobook", ids)
        assert reports["warm"].n_users == 2
        assert reports["cold"].n_users == 1
        assert reports["all"].n_users == 3

    def test_metrics_match_independent_recomputation(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n_items = int(rng.integers(5, 20))
            items = [f"i{j:02d}" for j in range(n_items)]
            users = [f"u{j}" for j in range(int(rng.integers(2, 10)))]
            recs = {
                u: [str(x) for x in rng.permutation(items)[: rng.integers(1, n_items + 1)]]
                for u in users
            }
            rel = {
                u: {str(x) for x in rng.choice(items, size=int(rng.integers(1, 4)), replace=False)}
                for u in users
            }
            k = int(rng.integers(1, 12))
            # brute-force reference
            hits, rrs, union = [], [], set()
            for u in sorted(users):
                hits.append(1.0 if any(i in rel[u] for i in recs[u][:k]) else 0.0)
                rr = 0.0
                for rank, i in enumerate(recs[u][:100], start=1):
                    if i in rel[u]:
                        rr = 1.0 / rank
                        break
                rrs.append(rr)
                union |= set(recs[u][:100])
            assert hit_rate_at_k(recs, rel, k) == float(np.mean(hits))
            assert mrr(recs, rel) == float(np.mean(rrs))
            assert coverage(recs, set(items)) == len(union & set(items)) / len(items)


class TestTiers:
    def test_quantile_bucketing_ten_items(self):
        catalog = make_catalog(n_audiobooks=10, n_podcasts=0)
        train = []
        for j in range(10):
            for _ in range(10 - j):  # a0 most streamed
                train.append(stream(f"u{j}", f"a{j}", catalog, t=0))
        split = log_split(DatasetSplit(train=train, holdout=[stream("u0", "a1", catalog, t=99)], split_time=50))
        ids = set(catalog)
        tiers = popularity_tiers(split, ids, "audiobook")
        assert [len(t) for t in tiers] == [2, 2, 2, 2, 2]
        assert tiers[0] == ["a0", "a1"]

    def test_uniform_counts_tie_break_by_id(self):
        catalog = make_catalog(n_audiobooks=5, n_podcasts=0)
        split = log_split(DatasetSplit(
            train=[stream("u1", f"a{j}", catalog, t=0) for j in range(5)],
            holdout=[stream("u1", "a0", catalog, t=99)],
            split_time=50,
        ))
        tiers = popularity_tiers(split, set(catalog), "audiobook")
        assert tiers == [["a0"], ["a1"], ["a2"], ["a3"], ["a4"]]

    def test_user_counted_in_every_matching_tier(self):
        catalog = make_catalog(n_audiobooks=10, n_podcasts=0)
        train = []
        for j in range(10):
            for _ in range(10 - j):
                train.append(stream(f"filler{j}", f"a{j}", catalog, t=0))
        # u1 has holdout items in tier 1 (a0) and tier 4 (a6)
        holdout = [stream("u1", "a0", catalog, t=99), stream("u1", "a6", catalog, t=99)]
        for j in range(3, 8):  # make >=5 active items
            holdout.append(stream(f"other{j}", f"a{j}", catalog, t=99))
        split = log_split(DatasetSplit(train=train, holdout=holdout, split_time=50))
        rec = FixedRecommender({}, default=sorted(catalog))
        reports = tiered_metrics(
            holdout_rankings(rec, split, "audiobook"), split, "audiobook", set(catalog)
        )
        tiers = popularity_tiers(split, set(catalog), "audiobook")
        assert "a0" in tiers[0] and "a6" in tiers[3]
        # u1 contributes to both tiers
        assert reports["tier_1"].n_users >= 1
        assert reports["tier_4"].n_users >= 1
        assert "long_tail" in reports

    def test_too_few_active_items_fatal(self):
        catalog = make_catalog(n_audiobooks=6, n_podcasts=0)
        split = log_split(DatasetSplit(
            train=[stream("u1", "a0", catalog, t=0)],
            holdout=[stream("u2", "a1", catalog, t=99)],
            split_time=50,
        ))
        with pytest.raises(ValueError):
            tiered_metrics(
                holdout_rankings(FixedRecommender({}, default=sorted(catalog)), split, "audiobook"),
                split,
                "audiobook",
                set(catalog),
            )


class TestPopularityBaseline:
    def test_count_ranking(self):
        catalog = make_catalog(n_audiobooks=3, n_podcasts=0)
        train = (
            [stream("u1", "a0", catalog, t=0)] * 5
            + [stream("u2", "a1", catalog, t=0)] * 3
            + [stream("u3", "a2", catalog, t=0)]
        )
        rec = popularity(train, catalog)
        assert rec.recommend("anyone")[:3] == ["a0", "a1", "a2"]

    def test_tie_by_id(self):
        catalog = make_catalog(n_audiobooks=2, n_podcasts=0)
        train = [stream("u1", "a1", catalog, t=0), stream("u2", "a0", catalog, t=0)]
        rec = popularity(train, catalog)
        assert rec.recommend("u")[:2] == ["a0", "a1"]

    def test_tiers_cut_the_ranking_of_a_window_over_all_of_train(self):
        catalog = make_catalog(n_audiobooks=10, n_podcasts=3)
        items = sorted(catalog)
        picks = np.random.default_rng(0).integers(0, len(items), 60)
        train = [stream(f"u{j}", items[i], catalog, t=j) for j, i in enumerate(picks)]
        train += [InteractionRecord("u0", "a9", "audiobook", "follow", 0)] * 5  # counts nothing
        split = log_split(DatasetSplit(train=train, holdout=[], split_time=100))
        audiobooks = {i for i in items if catalog[i].item_type == "audiobook"}
        ranking = popularity(train, catalog, window_days=1, as_of=100).ranking
        assert sum(popularity_tiers(split, audiobooks, "audiobook"), []) == ranking

    def test_a_window_after_every_record_ranks_by_id_for_every_baseline(self):
        # an empty window is not an empty log: nothing is refused
        catalog = make_catalog(n_audiobooks=3, n_podcasts=2)
        train = [stream("u1", "a2", catalog, t=0)] * 3 + [stream("u1", "p0", catalog, t=1)]
        window, popular = windowed(train, catalog, window_days=1, as_of=10 * DAY_SECONDS)
        assert len(window) == 0
        assert popular.item_ids == popular.ranking == ["a0", "a1", "a2"]
        table = NodeEmbeddingTable(sorted(catalog), np.eye(len(catalog)))
        for knn in (content_knn_baseline(window, catalog, popular), hgnn_knn_baseline(window, table, popular)):
            assert knn.recommend("u1") == knn.recommend("stranger", 2) + ["a2"] == popular.ranking

    def test_profile_baselines_rank_the_popularity_baselines_items(self):
        catalog = make_catalog(n_audiobooks=4, n_podcasts=2)
        train = [stream("u1", "a3", catalog, t=5), stream("u1", "p1", catalog, t=6)]
        window, popular = windowed(train, catalog)
        table = NodeEmbeddingTable(["a1", "a3", "p1"], np.eye(3))  # a0 and a2 have no row
        hgnn = hgnn_knn_baseline(window, table, popular)
        assert hgnn.index.ids.tolist() == ["a1", "a3"]
        assert hgnn.fallback_ranking is popular.ranking
        content = content_knn_baseline(window, catalog, popular)
        assert content.index.ids.tolist() == popular.item_ids == ["a0", "a1", "a2", "a3"]

    def test_coverage_is_100_over_catalog(self):
        catalog = make_catalog(n_audiobooks=500, n_podcasts=0)
        train = [stream("u1", "a0", catalog, t=0)]
        holdout = [stream(f"u{j}", f"a{j + 1}", catalog, t=99) for j in range(5)]
        split = log_split(DatasetSplit(train=train, holdout=holdout, split_time=50))
        segments = user_segments(split)
        rec = popularity(train, catalog)
        ids = set(catalog)
        reports = score(rec, split, segments, "audiobook", ids)
        # u1's consumed filter shifts its window by one item, so the union is
        # 101 ids; still ~= 100/|catalog|
        assert reports["all"].coverage == pytest.approx(101 / 500, abs=1e-12)
        assert abs(reports["all"].coverage - 100 / 500) < 0.01


def tied_pair_case(seed):
    """Ten audiobooks a0-a9 with 16-dim vectors, a9's a byte copy of a3's,
    and a user who streamed two of them."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(10, 16))
    vectors[9] = vectors[3]
    ids = [f"a{i}" for i in range(10)]
    picks = rng.choice(10, size=2, replace=False)
    train = [InteractionRecord("u1", ids[j], "audiobook", "stream", t) for t, j in enumerate(picks)]
    return ids, vectors, train


def assert_tied_pair_in_id_order(ranked):
    assert ranked.index("a3") + 1 == ranked.index("a9")


# seeds on which a whole-matrix gemv (OpenBLAS, x86-64) scores a9 an ulp off a3
TIED_PAIR_SEEDS = [5, 6, 11, 13, 16]


class TestContentKnn:
    @pytest.mark.parametrize("seed", TIED_PAIR_SEEDS)
    def test_byte_identical_vectors_tie_in_id_order(self, seed):
        ids, vectors, train = tied_pair_case(seed)
        catalog = {i: CatalogItem(i, "audiobook", v, "en", "g0") for i, v in zip(ids, vectors)}
        assert_tied_pair_in_id_order(content_knn(train, catalog).recommend("u1"))

    def test_mean_profile_ranking(self):
        d = {"a0": [1.0, 0.0], "a1": [0.0, 1.0], "a2": [0.707, 0.707]}
        catalog = {
            k: CatalogItem(k, "audiobook", np.array(v), "en", "g0") for k, v in d.items()
        }
        train = [stream("u1", "a0", catalog, t=0), stream("u1", "a1", catalog, t=1)]
        rec = content_knn(train, catalog)
        ranked = rec.recommend("u1")
        # profile [0.5, 0.5]: a2 scores 0.707, a0/a1 score 0.5
        assert ranked[0] == "a2"

    def test_single_interaction_consumed_filter(self):
        d = {"a0": [1.0, 0.0], "a1": [0.9, np.sqrt(1 - 0.81)], "a2": [0.0, 1.0]}
        catalog = {
            k: CatalogItem(k, "audiobook", np.array(v), "en", "g0") for k, v in d.items()
        }
        train = [stream("u1", "a0", catalog, t=0)]
        holdout = [stream("u1", "a1", catalog, t=99)]
        split = log_split(DatasetSplit(train=train, holdout=holdout, split_time=50))
        segments = user_segments(split)
        rec = content_knn(train, catalog)
        # raw ranking puts the consumed a0 first; score() must filter it
        assert rec.recommend("u1")[0] == "a0"
        reports = score(rec, split, segments, "audiobook", set(catalog))
        assert reports["all"].mrr == 1.0  # a1 is first after the filter

    def test_weak_signals_included_and_fallback(self):
        d = {"a0": [1.0, 0.0], "a1": [0.0, 1.0]}
        catalog = {
            k: CatalogItem(k, "audiobook", np.array(v), "en", "g0") for k, v in d.items()
        }
        train = [
            InteractionRecord("u1", "a1", "audiobook", "follow", 0),
            stream("u2", "a0", catalog, t=0),
        ]
        rec = content_knn(train, catalog)
        assert rec.recommend("u1")[0] == "a1"  # follow shapes the profile
        # zero-interaction user falls back to popularity order (a0 streamed)
        assert rec.recommend("stranger")[0] == "a0"


class TestHgnnKnn:
    @pytest.mark.parametrize("seed", TIED_PAIR_SEEDS)
    def test_equal_embedding_rows_tie_in_id_order(self, seed):
        ids, vectors, train = tied_pair_case(seed)
        catalog = make_catalog(n_audiobooks=10, n_podcasts=0)  # its content is not read
        table = NodeEmbeddingTable(ids, vectors)
        assert_tied_pair_in_id_order(hgnn_knn(train, catalog, table).recommend("u1"))

    def test_profile_in_embedding_space(self, small_split, small_synth, small_embeddings):
        _, catalog = small_synth
        rec = hgnn_knn(small_split.train, catalog, small_embeddings)
        out = rec.recommend(small_split.train[0].user_id)
        assert out
        assert all(catalog[i].item_type == "audiobook" for i in out)
