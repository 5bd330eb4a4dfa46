import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec import two_tower
from audiorec.data import DAY_SECONDS, SIGNALS, InteractionRecord, Interactions
from audiorec.hgnn import NodeEmbeddingTable
from audiorec.two_tower import (
    OOV_TOKEN,
    TowerParams,
    TwoTowerConfig,
    UserHistoryTable,
    Vocab,
    _tower_forward,
    build_training_pairs,
    export_item_vectors,
    item_inputs,
    train_two_tower,
    user_histories,
    user_inputs,
    user_tower_output,
)

from helpers_gradcheck import check_tower_gradients, random_tower_instance
import oracles
from oracles import in_batch_loss, scan_user_inputs, train_two_tower_serial


def toy_table(rows: dict[str, np.ndarray]):
    ids = sorted(rows)
    return NodeEmbeddingTable(
        item_ids=ids,
        matrix=np.stack([np.asarray(rows[i], dtype=np.float64) for i in ids]),
    )


def profile_params(config: TwoTowerConfig) -> TowerParams:
    """Params that hold only what `user_inputs` reads: the config and the
    demographic vocabularies, "SE" and "25-34" in slot 2 of theirs."""
    vocabs = {"country": Vocab(["DE", "SE"]), "age_bucket": Vocab(["18-24", "25-34"])}
    return TowerParams(config, vocabs, {}, {})


def user_row(user, records, table, config, *, as_of=None, music_vector=None, demographics=None):
    """`user`'s packed user-tower input as the library builds it, a history
    row then `user_inputs`, split into its parts. The scan in `oracles` must
    pack the same bytes."""
    params = profile_params(config)
    music = None if music_vector is None else {user: music_vector}
    window = Interactions.from_records(records).window(config.window_days, as_of)
    history = user_histories(window, table, config)
    cat, dense = user_inputs(params, history, [user], music, demographics)
    scanned = scan_user_inputs(
        params, user, records, table, as_of=as_of, music_vector=music_vector, demographics=demographics
    )
    assert cat.tobytes() == scanned[0].tobytes() and dense.tobytes() == scanned[1].tobytes()
    m, d = config.music_dim, table.dim
    return SimpleNamespace(
        country=cat[0, 0],
        age_bucket=cat[0, 1],
        music=dense[0, :m],
        mean_audiobook=dense[0, m : m + d],
        mean_podcast=dense[0, m + d : m + 2 * d],
        log1p_counts=dict(zip(SIGNALS, dense[0, m + 2 * d :])),
    )


def first_row(inputs):
    """The first row of packed `(cat, dense)` tower inputs."""
    return inputs[0][:1], inputs[1][:1]


def item_tower_forward(params, inputs):
    return _tower_forward(params, "item", *inputs).out[0]


class TestUserFeatures:
    def test_mean_of_two_embeddings(self):
        table = toy_table({"a1": [1.0, 0.0], "a2": [0.0, 1.0]})
        records = [
            InteractionRecord("u1", "a1", "audiobook", "stream", 10),
            InteractionRecord("u1", "a2", "audiobook", "stream", 20),
        ]
        f = user_row("u1", records, table, TwoTowerConfig(music_dim=2), as_of=100)
        assert np.allclose(f.mean_audiobook, [0.5, 0.5])
        assert np.array_equal(f.mean_podcast, [0.0, 0.0])

    def test_no_audiobooks_gives_zero_mean(self):
        table = toy_table({"p1": [1.0, 0.0]})
        records = [InteractionRecord("u1", "p1", "podcast", "stream", 10)]
        f = user_row("u1", records, table, TwoTowerConfig(), as_of=100)
        assert np.array_equal(f.mean_audiobook, [0.0, 0.0])
        assert np.allclose(f.mean_podcast, [1.0, 0.0])

    def test_follow_only_item_enters_mean(self):
        table = toy_table({"a1": [0.0, 1.0]})
        records = [InteractionRecord("u1", "a1", "audiobook", "follow", 10)]
        f = user_row("u1", records, table, TwoTowerConfig(), as_of=100)
        assert np.allclose(f.mean_audiobook, [0.0, 1.0])
        assert f.log1p_counts["follow"] == np.log1p(1)
        f_no_weak = user_row("u1", records, table, TwoTowerConfig(use_weak_signals=False), as_of=100)
        assert np.array_equal(f_no_weak.mean_audiobook, [0.0, 0.0])
        assert f_no_weak.log1p_counts["follow"] == 0.0

    def test_window_excludes_old_events(self):
        table = toy_table({"a1": [1.0, 0.0], "a2": [0.0, 1.0]})
        records = [
            InteractionRecord("u1", "a1", "audiobook", "stream", 0),
            InteractionRecord("u1", "a2", "audiobook", "stream", 95 * DAY_SECONDS),
        ]
        f = user_row("u1", records, table, TwoTowerConfig(window_days=90), as_of=100 * DAY_SECONDS)
        assert np.allclose(f.mean_audiobook, [0.0, 1.0])
        assert f.log1p_counts["stream"] == np.log1p(1)

    def test_missing_music_vector_is_zero(self):
        table = toy_table({"a1": [1.0, 0.0]})
        f = user_row("u9", [], table, TwoTowerConfig(music_dim=5))
        assert np.array_equal(f.music, np.zeros(5))
        assert (f.country, f.age_bucket) == (0, 0)  # the out-of-vocabulary slot

    def test_supplied_music_vector_and_demographics(self):
        table = toy_table({"a1": [1.0, 0.0]})
        f = user_row(
            "u1",
            [],
            table,
            TwoTowerConfig(music_dim=3),
            music_vector=[0.1, 0.2, 0.3],
            demographics={"u1": ("SE", "25-34")},
        )
        assert np.allclose(f.music, [0.1, 0.2, 0.3])
        assert (f.country, f.age_bucket) == (2, 2)

    def test_music_vector_dimension_mismatch_fatal(self):
        table = toy_table({"a1": [1.0, 0.0]})
        config = TwoTowerConfig(music_dim=3)
        history = user_histories(Interactions.from_records([]), table, config)
        with pytest.raises(ValueError, match=r"music vector for 'u1' has shape \(1,\), expected \(3,\)"):
            user_inputs(profile_params(config), history, ["u1"], {"u1": [0.1]})


class TestUserHistoryTable:
    def test_saved_rows_load_back_and_unknown_ids_get_the_empty_history(self, tmp_path):
        table = toy_table({"a1": [1.0, 0.0], "a2": [0.0, 1.0], "p1": [0.5, 0.5]})
        records = [
            InteractionRecord("u2", "a1", "audiobook", "stream", 10),
            InteractionRecord("u2", "a2", "audiobook", "follow", 20),
            InteractionRecord("u1", "p1", "podcast", "stream", 30),
            InteractionRecord("u3", "a1", "audiobook", "stream", 200),  # a train user with an empty window
        ]
        config = TwoTowerConfig()
        params = profile_params(config)
        window = Interactions.from_records(records).window(config.window_days, as_of=100)
        histories = user_histories(window, table, config)
        path = tmp_path / "user_features.bin"
        histories.save(path)
        loaded = UserHistoryTable.load(path)
        assert loaded.user_ids == histories.user_ids == ["u1", "u2", "u3"]
        for user in ["u1", "u2", "u3", "u0", "u20", "u9"]:
            # a row of the loaded table, or the empty history for an id it lacks, is what a scan reads
            row = user_inputs(params, loaded, [user])
            scanned = scan_user_inputs(params, user, records, table, as_of=100)
            for want in (user_inputs(params, histories, [user]), scanned):
                assert row[0].tobytes() == want[0].tobytes() and row[1].tobytes() == want[1].tobytes()
            selected = UserHistoryTable.load(path, user=user)
            assert selected.user_ids == ([user] if user in loaded.user_ids else [])
        _, dense = user_inputs(params, loaded, ["u0"])
        assert np.array_equal(dense, np.zeros((1, config.music_dim + 2 * table.dim + len(SIGNALS))))


class TestTowerForward:
    def test_output_unit_norm_and_deterministic(self):
        params, users, items, _, _ = random_tower_instance(1)
        for r in range(len(users[0])):
            row = (users[0][r : r + 1], users[1][r : r + 1])
            o1 = user_tower_output(params, row)
            o2 = user_tower_output(params, row)
            assert abs(np.linalg.norm(o1) - 1.0) < 1e-6
            assert np.array_equal(o1, o2)
        for r in range(len(items[0])):
            o = item_tower_forward(params, (items[0][r : r + 1], items[1][r : r + 1]))
            assert abs(np.linalg.norm(o) - 1.0) < 1e-6

    def test_unseen_category_equals_oov_token(self):
        params, unseen, _, _, _ = random_tower_instance(2, country="ZZ-never-seen")
        _, oov, _, _, _ = random_tower_instance(2, country=OOV_TOKEN)
        assert np.array_equal(unseen[0], oov[0]) and np.array_equal(unseen[1], oov[1])
        assert np.array_equal(
            user_tower_output(params, first_row(unseen)), user_tower_output(params, first_row(oov))
        )

    @given(st.text(max_size=12), st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_oov_totality(self, country, age):
        params, users, _, _, _ = random_tower_instance(3, country=country, age_bucket=age)
        out = user_tower_output(params, first_row(users))
        assert np.all(np.isfinite(out))

    def test_feature_locality(self):
        params, users, items, _, _ = random_tower_instance(4)
        item_out_before = _tower_forward(params, "item", *items).out
        # the mean podcast embedding columns of the first user
        music, d_embed = params.config.music_dim, params.dims["d_embed"]
        changed_dense = users[1].copy()
        changed_dense[0, music + d_embed : music + 2 * d_embed] += 5.0
        _tower_forward(params, "user", users[0], changed_dense)
        assert np.array_equal(item_out_before, _tower_forward(params, "item", *items).out)
        # and item metadata never reaches user outputs
        user_out_before = _tower_forward(params, "user", *users).out
        changed_cat = items[0].copy()
        changed_cat[0, 1] = 0  # the first item's genre, now one the vocabulary lacks
        _tower_forward(params, "item", changed_cat, items[1])
        assert np.array_equal(user_out_before, _tower_forward(params, "user", *users).out)


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
    window = small_split.train.window(config.window_days, as_of=small_split.split_time)
    pairs = build_training_pairs(window, "audiobook")
    table = user_histories(window, small_embeddings, config)
    return pairs, (table, catalog, small_embeddings), config


class TestTraining:
    def test_loss_decreases(self, small_split, small_synth, small_embeddings):
        pairs, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=6
        )
        params, log = train_two_tower(pairs, *inputs, config, seed=0)
        assert log[-1]["train_loss"] < log[0]["train_loss"]

    def test_deterministic_checksum(self, small_split, small_synth, small_embeddings):
        pairs, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=2
        )
        p1, _ = train_two_tower(pairs, *inputs, config, seed=3)
        p2, _ = train_two_tower(pairs, *inputs, config, seed=3)
        assert p1.checksum() == p2.checksum()

    def test_no_pairs_fatal(self, small_split, small_synth, small_embeddings):
        _, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings
        )
        with pytest.raises(ValueError):
            train_two_tower([], *inputs, config, seed=0)

    def test_pair_item_outside_the_target_catalog_refused(self, small_split, small_synth, small_embeddings):
        # a record may give an item another type than the catalog does
        pairs, inputs, config = small_training_setup(small_split, small_synth, small_embeddings, epochs=1)
        podcast = min(i for i, it in inputs[1].items() if it.item_type == "podcast")
        with pytest.raises(ValueError, match=f"pair item '{podcast}' has no catalog entry of type 'audiobook'"):
            train_two_tower(pairs + [(pairs[0][0], podcast)], *inputs, config, seed=0)

    def test_lone_final_batch_counted_as_skipped(self, small_split, small_synth, small_embeddings):
        pairs, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=2, batch_size=16
        )
        assert len(pairs) > 3 * 16
        _, log = train_two_tower(pairs[: 3 * 16 + 1], *inputs, config, seed=0)
        assert [e["skipped_batches"] for e in log] == [1, 1]
        _, log = train_two_tower(pairs[: 3 * 16 + 2], *inputs, config, seed=0)
        assert [e["skipped_batches"] for e in log] == [0, 0]


class TestSerialReference:
    """`train_two_tower` keeps its gradient buffers across batches where the
    reference loop allocates fresh ones; it must give the reference's bytes
    and errors, and start no thread."""

    @pytest.mark.parametrize("use_hgnn_features", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_serial_loop(
        self, small_split, small_synth, small_embeddings, seed, use_hgnn_features
    ):
        pairs, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings,
            epochs=2, batch_size=16, use_hgnn_features=use_hgnn_features,
        )
        pairs = pairs[: 4 * 16 + 1]  # a lone final batch each epoch
        assert len(set(Counter(i for _, i in pairs).values())) > 1  # non-uniform item weights
        threads = threading.active_count()
        got, got_log = train_two_tower(pairs, *inputs, config, seed=seed)
        assert threading.active_count() == threads
        want, want_log = train_two_tower_serial(pairs, *inputs, config, seed=seed)
        assert [e["skipped_batches"] for e in want_log] == [1, 1]
        assert got_log == want_log
        assert got.weights.keys() == want.weights.keys()
        for key in want.weights:
            assert np.array_equal(got.weights[key], want.weights[key]), key
        assert got.checksum() == want.checksum()

    # with both towers damaged, the serial loop's name-ordered step meets the item weight first
    @pytest.mark.parametrize(
        "towers, raised", [(("user",), "user"), (("item",), "item"), (("user", "item"), "item")]
    )
    def test_non_finite_parameter_raises_as_serial_loop(
        self, small_split, small_synth, small_embeddings, monkeypatch, towers, raised
    ):
        pairs, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=1, batch_size=16
        )
        real_backward = two_tower._tower_backward
        calls = {"user": 0, "item": 0}

        def damaged_backward(params, tower, cache, d_out, grads):
            real_backward(params, tower, cache, d_out, grads)
            calls[tower] += 1
            if tower in towers and calls[tower] == 3:
                grads[f"{tower}.W2"][0, 0] = np.nan

        messages = []
        for module, train in ((oracles, train_two_tower_serial), (two_tower, train_two_tower)):
            monkeypatch.setattr(module, "_tower_backward", damaged_backward)
            calls.update(user=0, item=0)
            threads = threading.active_count()
            with pytest.raises(RuntimeError) as err:
                train(pairs, *inputs, config, seed=0)
            assert threading.active_count() == threads
            messages.append(str(err.value))
        assert messages[0] == f"parameter '{raised}.W2' became non-finite after step 3"
        assert messages[1] == messages[0]


@pytest.fixture(scope="module")
def trained(small_split, small_synth, small_embeddings):
    pairs, inputs, config = small_training_setup(
        small_split, small_synth, small_embeddings, epochs=2
    )
    params, _ = train_two_tower(pairs, *inputs, config, seed=1)
    return params, inputs[1]


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
            r.item_id for r in oracles.records_of(small_split.train) if r.signal == "stream"
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

    def test_inductive_items_use_their_table_rows(self, trained, small_graph, small_embeddings):
        params, catalog = trained
        ids, _, dense = item_inputs(params, catalog, small_embeddings)
        assert ids == sorted(i for i, it in catalog.items() if it.item_type == "audiobook")
        rows = [small_embeddings.index[i] for i in ids]
        assert set(ids) - set(small_graph.nodes["audiobook"])  # cold items, embedded inductively
        d_c = params.dims["d_c"]
        assert np.array_equal(dense[:, d_c:], small_embeddings.matrix[rows])
        assert np.array_equal(dense[:, :d_c], np.stack([catalog[i].content_vector for i in ids]))


class TestCheckpoint:
    def test_round_trip(self, small_split, small_synth, small_embeddings, tmp_path):
        pairs, inputs, config = small_training_setup(
            small_split, small_synth, small_embeddings, epochs=1
        )
        params, _ = train_two_tower(pairs, *inputs, config, seed=2)
        p1, p2 = tmp_path / "t1.bin", tmp_path / "t2.bin"
        params.save(p1)
        loaded = TowerParams.load(p1)
        assert loaded.checksum() == params.checksum()
        assert loaded.config == params.config
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
    pairs = build_training_pairs(Interactions.from_records(records).window(90, as_of=100), "audiobook")
    assert pairs == [("u1", "a1")]
