import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec.data import DAY_SECONDS, InteractionRecord
from audiorec.hgnn import NodeEmbeddingTable
from audiorec.two_tower import (
    OOV_TOKEN,
    TowerParams,
    TwoTowerConfig,
    UserFeatures,
    Vocab,
    assemble_item_features,
    assemble_user_features,
    build_feature_set,
    build_training_pairs,
    export_item_vectors,
    item_tower_forward,
    train_two_tower,
    user_tower_forward,
)

from helpers_gradcheck import check_tower_gradients, random_tower_instance
from oracles import in_batch_loss


def toy_table(rows: dict[str, np.ndarray], types: dict[str, str] | None = None):
    ids = sorted(rows)
    return NodeEmbeddingTable(
        item_ids=ids,
        node_types=[(types or {}).get(i, "audiobook") for i in ids],
        matrix=np.stack([np.asarray(rows[i], dtype=np.float64) for i in ids]),
        inductive=np.zeros(len(ids), dtype=bool),
        fallback=np.zeros(len(ids), dtype=bool),
    )


class TestUserFeatures:
    def test_mean_of_two_embeddings(self):
        table = toy_table({"a1": [1.0, 0.0], "a2": [0.0, 1.0]})
        records = [
            InteractionRecord("u1", "a1", "audiobook", "stream", 10),
            InteractionRecord("u1", "a2", "audiobook", "stream", 20),
        ]
        f = assemble_user_features("u1", records, table, as_of=100, music_dim=2)
        assert np.allclose(f.mean_audiobook_embedding, [0.5, 0.5])
        assert np.array_equal(f.mean_podcast_embedding, [0.0, 0.0])

    def test_no_audiobooks_gives_zero_mean(self):
        table = toy_table({"p1": [1.0, 0.0]}, {"p1": "podcast"})
        records = [InteractionRecord("u1", "p1", "podcast", "stream", 10)]
        f = assemble_user_features("u1", records, table, as_of=100)
        assert np.array_equal(f.mean_audiobook_embedding, [0.0, 0.0])
        assert np.allclose(f.mean_podcast_embedding, [1.0, 0.0])

    def test_follow_only_item_enters_mean(self):
        table = toy_table({"a1": [0.0, 1.0]})
        records = [InteractionRecord("u1", "a1", "audiobook", "follow", 10)]
        f = assemble_user_features("u1", records, table, as_of=100)
        assert np.allclose(f.mean_audiobook_embedding, [0.0, 1.0])
        f_no_weak = assemble_user_features(
            "u1", records, table, as_of=100, use_weak_signals=False
        )
        assert np.array_equal(f_no_weak.mean_audiobook_embedding, [0.0, 0.0])
        assert f_no_weak.interaction_counts["follow"] == 0

    def test_window_excludes_old_events(self):
        table = toy_table({"a1": [1.0, 0.0], "a2": [0.0, 1.0]})
        records = [
            InteractionRecord("u1", "a1", "audiobook", "stream", 0),
            InteractionRecord("u1", "a2", "audiobook", "stream", 95 * DAY_SECONDS),
        ]
        f = assemble_user_features(
            "u1", records, table, window_days=90, as_of=100 * DAY_SECONDS
        )
        assert np.allclose(f.mean_audiobook_embedding, [0.0, 1.0])

    def test_missing_music_vector_is_zero(self):
        table = toy_table({"a1": [1.0, 0.0]})
        f = assemble_user_features("u9", [], table, music_dim=5)
        assert np.array_equal(f.music_vector, np.zeros(5))
        assert f.country == OOV_TOKEN

    def test_supplied_music_vector_and_demographics(self):
        table = toy_table({"a1": [1.0, 0.0]})
        f = assemble_user_features(
            "u1",
            [],
            table,
            music_vector=[0.1, 0.2, 0.3],
            music_dim=3,
            demographics={"u1": ("SE", "25-34")},
        )
        assert np.allclose(f.music_vector, [0.1, 0.2, 0.3])
        assert (f.country, f.age_bucket) == ("SE", "25-34")

    def test_music_vector_dimension_mismatch_fatal(self):
        table = toy_table({"a1": [1.0, 0.0]})
        with pytest.raises(ValueError, match="music vector"):
            assemble_user_features("u1", [], table, music_vector=[0.1], music_dim=3)


class TestTowerForward:
    def test_output_unit_norm_and_deterministic(self):
        params, users, items, _, _ = random_tower_instance(1)
        for f in users:
            o1 = user_tower_forward(params, f)
            o2 = user_tower_forward(params, f)
            assert abs(np.linalg.norm(o1) - 1.0) < 1e-6
            assert np.array_equal(o1, o2)
        for f in items:
            o = item_tower_forward(params, f)
            assert abs(np.linalg.norm(o) - 1.0) < 1e-6

    def test_unseen_category_equals_oov_token(self):
        params, users, _, _, _ = random_tower_instance(2)
        f = users[0]
        f_unseen = UserFeatures(
            "ZZ-never-seen", f.age_bucket, f.music_vector,
            f.mean_audiobook_embedding, f.mean_podcast_embedding, f.interaction_counts,
        )
        f_oov = UserFeatures(
            OOV_TOKEN, f.age_bucket, f.music_vector,
            f.mean_audiobook_embedding, f.mean_podcast_embedding, f.interaction_counts,
        )
        assert np.array_equal(
            user_tower_forward(params, f_unseen), user_tower_forward(params, f_oov)
        )

    @given(st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_oov_totality(self, country, age):
        params, users, _, _, _ = random_tower_instance(3)
        f = users[0]
        out = user_tower_forward(
            params,
            UserFeatures(country, age, f.music_vector, f.mean_audiobook_embedding,
                         f.mean_podcast_embedding, f.interaction_counts),
        )
        assert np.all(np.isfinite(out))

    def test_feature_locality(self):
        params, users, items, _, _ = random_tower_instance(4)
        item_out_before = [item_tower_forward(params, f) for f in items]
        changed_user = UserFeatures(
            users[0].country, users[0].age_bucket, users[0].music_vector,
            users[0].mean_audiobook_embedding,
            users[0].mean_podcast_embedding + 5.0,
            users[0].interaction_counts,
        )
        user_tower_forward(params, changed_user)
        item_out_after = [item_tower_forward(params, f) for f in items]
        for a, b in zip(item_out_before, item_out_after):
            assert np.array_equal(a, b)
        # and item metadata never reaches user outputs
        user_out_before = user_tower_forward(params, users[0])
        changed_item = items[0]
        changed_item.genre = "brand-new-genre"
        item_tower_forward(params, changed_item)
        assert np.array_equal(user_out_before, user_tower_forward(params, users[0]))


class TestLoss:
    def test_uniform_weights_mean(self):
        o_u = np.array([1.0, 0.0])
        o_a = np.array([0.8, 0.6])
        negs = [
            (np.array([0.3, np.sqrt(1 - 0.09)]), 1.0),
            (np.array([-0.1, np.sqrt(1 - 0.01)]), 1.0),
        ]
        assert in_batch_loss(o_u, o_a, negs) == pytest.approx(-0.7)

    def test_negative_identical_to_positive(self):
        o_u = np.array([0.6, 0.8])
        o_a = np.array([0.0, 1.0])
        assert in_batch_loss(o_u, o_a, [(o_a, 1.0)]) == 0.0

    def test_weighted_example(self):
        o_u = np.array([1.0, 0.0])
        o_a = np.array([0.8, 0.6])
        negs = [
            (np.array([0.3, np.sqrt(1 - 0.09)]), 2.0),
            (np.array([-0.1, np.sqrt(1 - 0.01)]), 0.0),
        ]
        assert in_batch_loss(o_u, o_a, negs) == pytest.approx(-0.5)

    def test_empty_negatives_fatal(self):
        with pytest.raises(ValueError):
            in_batch_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), [])

    def test_weight_neutrality_exact(self):
        from audiorec.two_tower import _batch_loss_and_douts

        params, users, items, ids, _ = random_tower_instance(5)
        rng = np.random.default_rng(0)
        o_u = rng.normal(size=(4, 3))
        o_a = rng.normal(size=(4, 3))
        uniform = np.ones(4)
        # weights derived from equal frequencies renormalize to exactly one
        from_freq = np.array([1.0 / 3] * 4)
        from_freq = (
            np.ones_like(from_freq)
            if np.all(from_freq == from_freq[0])
            else from_freq / from_freq.mean()
        )
        l1, _, _ = _batch_loss_and_douts(o_u, o_a, ids, uniform)
        l2, _, _ = _batch_loss_and_douts(o_u, o_a, ids, from_freq)
        assert l1 == l2


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 4 and seed < 80:
            ok, err = check_tower_gradients(seed)
            seed += 1
            if not ok:
                continue
            checked += 1
            assert err < 1e-3, f"seed {seed - 1}: rel error {err}"
        assert checked == 4


def small_training_setup(small_split, small_synth, small_embeddings, **cfg_overrides):
    _, catalog = small_synth
    kwargs = {"hidden": (32, 16, 8), "epochs": 3}
    kwargs.update(cfg_overrides)
    config = TwoTowerConfig(**kwargs)
    pairs = build_training_pairs(
        small_split.train, "audiobook", config.window_days, as_of=small_split.split_time
    )
    features = build_feature_set(
        {u for u, _ in pairs},
        small_split.train,
        catalog,
        small_embeddings,
        config,
        as_of=small_split.split_time,
    )
    return pairs, features, config, catalog


class TestTraining:
    def test_loss_decreases(self, small_split, small_synth, small_embeddings):
        pairs, features, config, _ = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=6
        )
        params, log = train_two_tower(pairs, features, config, seed=0)
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_deterministic_checksum(self, small_split, small_synth, small_embeddings):
        pairs, features, config, _ = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=2
        )
        p1, _ = train_two_tower(pairs, features, config, seed=3)
        p2, _ = train_two_tower(pairs, features, config, seed=3)
        assert p1.checksum() == p2.checksum()

    def test_no_pairs_fatal(self, small_split, small_synth, small_embeddings):
        _, features, config, _ = small_training_setup(
            small_split, small_synth, small_embeddings
        )
        with pytest.raises(ValueError):
            train_two_tower([], features, config, seed=0)

    def test_frequency_table_positive(self, small_split, small_synth, small_embeddings):
        pairs, features, config, _ = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=1
        )
        params, _ = train_two_tower(pairs, features, config, seed=0)
        assert all(c > 0 for c in params.item_freq.values())
        assert set(params.item_freq) == {i for _, i in pairs}


@pytest.fixture(scope="module")
def trained(small_split, small_synth, small_embeddings):
    pairs, features, config, catalog = small_training_setup(
        small_split, small_synth, small_embeddings, epochs=2
    )
    params, _ = train_two_tower(pairs, features, config, seed=1)
    return params, catalog


class TestExport:
    def test_one_vector_per_audiobook(self, trained, small_embeddings):
        params, catalog = trained
        vectors = export_item_vectors(params, catalog, small_embeddings)
        ab_ids = {i for i, it in catalog.items() if it.item_type == "audiobook"}
        assert set(vectors) == ab_ids

    def test_never_streamed_item_covered_and_unit_norm(
        self, trained, small_embeddings, small_split
    ):
        params, catalog = trained
        vectors = export_item_vectors(params, catalog, small_embeddings)
        streamed = {
            r.item_id for r in small_split.train if r.signal == "stream"
        }
        cold = set(vectors) - streamed
        assert cold  # generator plants never-streamed audiobooks
        for v in vectors.values():
            assert abs(np.linalg.norm(v) - 1.0) < 1e-6

    def test_deterministic(self, trained, small_embeddings):
        params, catalog = trained
        v1 = export_item_vectors(params, catalog, small_embeddings)
        v2 = export_item_vectors(params, catalog, small_embeddings)
        for k in v1:
            assert np.array_equal(v1[k], v2[k])

    def test_inductive_item_flagged(self, trained, small_embeddings):
        params, catalog = trained
        in_graph_inductive = [
            (i, small_embeddings.inductive[small_embeddings.index[i]])
            for i in sorted(catalog)
            if catalog[i].item_type == "audiobook"
        ]
        feats = {
            i: assemble_item_features(catalog[i], small_embeddings)
            for i, _ in in_graph_inductive
        }
        for item_id, inductive in in_graph_inductive:
            assert feats[item_id].inductive == inductive


class TestCheckpoint:
    def test_round_trip(self, small_split, small_synth, small_embeddings, tmp_path):
        pairs, features, config, _ = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=1
        )
        params, _ = train_two_tower(pairs, features, config, seed=2)
        p1, p2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
        params.save(p1)
        loaded = TowerParams.load(p1)
        assert loaded.checksum() == params.checksum()
        assert loaded.config == params.config
        assert loaded.item_freq == params.item_freq
        assert {n: v.to_list() for n, v in loaded.vocabs.items()} == {
            n: v.to_list() for n, v in params.vocabs.items()
        }
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_vocab_oov_slot():
    v = Vocab(["b", "a", "b"])
    assert v.size == 3
    assert v.lookup("a") == 1 and v.lookup("b") == 2
    assert v.lookup("zz") == 0 and v.lookup(OOV_TOKEN) == 0


def test_build_training_pairs_dedup_and_window():
    records = [
        InteractionRecord("u1", "a1", "audiobook", "stream", 10),
        InteractionRecord("u1", "a1", "audiobook", "stream", 20),
        InteractionRecord("u1", "a2", "audiobook", "follow", 30),
        InteractionRecord("u2", "p1", "podcast", "stream", 30),
    ]
    pairs = build_training_pairs(records, "audiobook", 90, as_of=100)
    assert pairs == [("u1", "a1")]
