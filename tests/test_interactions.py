"""The `interactions` container and the column helpers over it: each must
give what the record walks in `oracles` give, byte for byte."""

import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from audiorec import io
from audiorec.data import (
    DAY_SECONDS,
    ITEM_TYPES,
    SIGNALS,
    CatalogItem,
    InteractionRecord,
    Interactions,
    LogSplit,
    check_catalog,
    popularity_ranking,
    user_segments,
)
from audiorec.evaluate import streamed_items
from audiorec.graph import build_colisten_graph
from audiorec.hgnn import NodeEmbeddingTable
from audiorec.recommenders import PopularityRecommender, content_knn_baseline, hgnn_knn_baseline
from audiorec.synth import SynthConfig, synth_generate
from audiorec.two_tower import TwoTowerConfig, build_training_pairs, user_histories

import oracles
from conftest import join_container, same_log, split_container

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import WIDE_SYNTH  # noqa: E402

HISTORY_ARRAYS = ("mean_audiobook_embedding", "mean_podcast_embedding", "interaction_counts")

CONFIGS = {
    "default": (SynthConfig(), ("aa", "ap", "pp")),
    "pp-only": (SynthConfig(), ("pp",)),
    "wide": (SynthConfig(**WIDE_SYNTH), ("aa", "ap", "pp")),
}


def random_table(item_ids, dim=6, seed=0) -> NodeEmbeddingTable:
    """Unit rows for every second id, so some items have no row."""
    ids = sorted(item_ids)[::2]
    rows = np.random.default_rng(seed).normal(size=(len(ids), dim))
    return NodeEmbeddingTable(ids, rows / np.linalg.norm(rows, axis=1, keepdims=True))


def same_table(got, want) -> None:
    assert got.user_ids == want.user_ids
    for name in HISTORY_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes(), name


def assert_helpers_match(split: oracles.DatasetSplit, catalog, window_days: int, as_of: int, relations) -> LogSplit:
    """Every column helper over the columns of a split of records against
    its record walk; returns those columns."""
    logs = LogSplit(Interactions.from_records(split.train), Interactions.from_records(split.holdout), split.split_time)
    window = logs.train.window(window_days, as_of)
    records = oracles.window_by_user(split.train, window_days, as_of)
    assert oracles.by_user(oracles.records_of(window)) == records
    for target in ITEM_TYPES:
        assert build_training_pairs(window, target) == oracles.build_training_pairs(records, target)
        for log, recs in ((logs.train, split.train), (logs.holdout, split.holdout)):
            assert streamed_items(log, target) == oracles.streamed_items(recs, target)
        ids = sorted(i for i, item in catalog.items() if item.item_type == target)
        for log, recs in ((logs.train, split.train), (window, oracles.records_of(window))):
            assert popularity_ranking(log, ids, target) == oracles.popularity_ranking(recs, ids, target)
    assert user_segments(logs) == oracles.user_segments(split)
    table = random_table(catalog)
    users = sorted({r.user_id for r in split.train})
    for config in (TwoTowerConfig(), TwoTowerConfig(use_weak_signals=False), TwoTowerConfig(use_hgnn_features=False)):
        same_table(user_histories(window, table, config), oracles.user_histories_loop(users, records, table, config))
    graph = build_colisten_graph(logs.train, catalog, relations=relations)
    loop = oracles.build_colisten_graph_loop(split.train, catalog, relations=relations)
    assert graph.nodes == loop.nodes
    for rel in relations:
        assert graph.edges[rel].tobytes() == loop.edges[rel].tobytes()
    popular = PopularityRecommender(window, catalog)
    profiles = {
        "content": content_knn_baseline(window, catalog, popular),
        "hgnn": hgnn_knn_baseline(window, table, popular),
    }
    vectors = {"content": {i: catalog[i].content_vector for i in popular.item_ids}, "hgnn": table.index}
    for name, knn in profiles.items():
        for user, user_records in records.items():
            rows = [
                catalog[i].content_vector if name == "content" else table.matrix[table.index[i]]
                for i in sorted({r.item_id for r in user_records})
                if i in vectors[name]
            ]
            want = np.mean(rows, axis=0).tobytes() if rows else None
            got = knn.profiles.get(user)
            assert (None if got is None else got.tobytes()) == want
    return logs


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_column_helpers_equal_the_record_walks(name):
    synth, relations = CONFIGS[name]
    log, catalog = synth_generate(synth, seed=7)
    split = oracles.timeline_split_records(oracles.records_of(log))
    window_days = 30
    # records on both window boundaries: the first is in, the second out
    start = split.split_time - window_days * DAY_SECONDS
    a_stream = next(r for r in split.train if r.item_type == "audiobook" and r.signal == "stream")
    edge = [dataclasses.replace(a_stream, timestamp=start), dataclasses.replace(a_stream, timestamp=split.split_time)]
    split = oracles.DatasetSplit(split.train + edge[:1], split.holdout + edge[1:], split.split_time)
    window = Interactions.from_records(split.train).window(window_days, split.split_time)
    assert start in window.timestamp and split.split_time not in window.timestamp
    assert_helpers_match(split, catalog, window_days, split.split_time, relations)


def edge_case_catalog() -> dict[str, CatalogItem]:
    rng = np.random.default_rng(3)
    ids = {
        "a": "audiobook", "ab": "audiobook", "abc": "audiobook", "aé": "audiobook",
        "\U0001f4da": "audiobook", "p": "podcast", "pa": "podcast", "pß": "podcast",
    }
    return {i: CatalogItem(i, t, rng.normal(size=3), "en", "g") for i, t in ids.items()}


def test_edge_cases_equal_the_record_walks():
    # a user with only weak signals, train users absent from the holdout,
    # non-ASCII ids and ids that share a prefix
    catalog = edge_case_catalog()

    def rec(user, item, signal, t):
        return InteractionRecord(user, item, catalog[item].item_type, signal, t)

    train = [
        rec("u", "a", "follow", 10), rec("u", "ab", "preview", 11), rec("u", "ab", "intent_to_pay", 12),
        rec("ué", "aé", "stream", 13), rec("ué", "\U0001f4da", "stream", 14),
        rec("ué", "pß", "stream", 15), rec("uu", "abc", "stream", 16), rec("uu", "a", "stream", 17),
        rec("uu", "pa", "stream", 18), rec("uu", "p", "stream", 19), rec("\U0001f600", "p", "stream", 20),
        rec("\U0001f600", "pa", "stream", 21), rec("ué", "aé", "stream", 22),
    ]
    holdout = [rec("u", "abc", "stream", 100), rec("\U0001f600", "a", "stream", 101)]
    logs = assert_helpers_match(oracles.DatasetSplit(train, holdout, 100), catalog, 1, 100, ("aa", "ap", "pp"))
    assert logs.train.user_ids.tolist() == sorted({r.user_id for r in train})
    assert logs.train.item_ids.tolist() == sorted({r.item_id for r in train})
    segments = user_segments(logs)
    assert segments.warm == {"u"} and segments.cold == {"\U0001f600"}  # weak signals make a user warm


def test_window_bounds():
    as_of = 10 * DAY_SECONDS
    start = as_of - 3 * DAY_SECONDS
    records = [InteractionRecord("u", "a", "audiobook", "stream", t) for t in (start - 1, start, as_of - 1, as_of)]
    window = Interactions.from_records(records).window(3, as_of)
    assert window.timestamp.tolist() == [start, as_of - 1]
    assert oracles.records_of(window) == records[1:3]
    # by default, one second after the last record
    assert Interactions.from_records(records).window(3).timestamp.tolist() == [as_of - 1, as_of]
    assert len(Interactions.from_records([]).window(3)) == 0


class TestCheckCatalog:
    def test_absent_item_is_the_first_in_log_order(self):
        catalog = edge_case_catalog()
        records = [
            InteractionRecord("u1", "a", "audiobook", "stream", 1),
            InteractionRecord("u2", "zz", "audiobook", "stream", 2),
            InteractionRecord("u0", "aa", "podcast", "stream", 3),
        ]
        expected = r"^interaction references item 'zz' absent from the catalog \(user 'u2', t=2\)$"
        with pytest.raises(ValueError, match=expected):
            check_catalog(Interactions.from_records(records), catalog)

    def test_item_of_another_type(self):
        catalog = edge_case_catalog()
        records = [
            InteractionRecord("u1", "a", "audiobook", "stream", 1),
            InteractionRecord("u2", "p", "audiobook", "follow", 2),
        ]
        expected = (
            r"^holdout interaction gives item 'p' type 'audiobook', but the catalog lists it as 'podcast' "
            r"\(user 'u2', t=2\)$"
        )
        with pytest.raises(ValueError, match=expected):
            check_catalog(Interactions.from_records(records), catalog, "holdout interaction")


def sample_log() -> Interactions:
    return Interactions.from_records(
        [
            InteractionRecord("ué", "a2", "audiobook", "follow", 5),
            InteractionRecord("u1", "p1", "podcast", "stream", 3),
            InteractionRecord("u1", "a10", "audiobook", "stream", 2**40),
        ]
    )


class TestContainer:
    def test_round_trip(self, tmp_path):
        log = sample_log()
        assert log.user_ids.tolist() == ["u1", "ué"] and log.item_ids.tolist() == ["a10", "a2", "p1"]
        assert [a.dtype for a in (log.user, log.item, log.item_type, log.signal, log.timestamp)] == [
            np.int32, np.int32, np.uint8, np.uint8, np.int64
        ]
        path = tmp_path / "train.bin"
        log.save(path)
        loaded = Interactions.load(path)
        assert same_log(loaded, log)
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()
        # the arrays live in buffers the reader owns, not in a view of the file
        for f in dataclasses.fields(Interactions):
            array = getattr(loaded, f.name)
            assert array.base is None or isinstance(array.base, np.ndarray)
        path.write_bytes(b"\0" * path.stat().st_size)
        assert same_log(loaded, log)

    def test_empty_log_round_trips(self, tmp_path):
        log = Interactions.from_records([])
        log.save(tmp_path / "holdout.bin")
        assert len(Interactions.load(tmp_path / "holdout.bin")) == 0

    def test_header_holds_no_per_row_list(self, tmp_path):
        sample_log().save(tmp_path / "train.bin")
        header, _ = split_container((tmp_path / "train.bin").read_bytes())
        assert header["meta"] == {"kind": "interactions", "item_types": list(ITEM_TYPES), "signals": list(SIGNALS)}

    def test_timestamp_past_int64_refused(self):
        with pytest.raises(ValueError, match=r"timestamp 9223372036854775808 of user 'u' on item 'a' is past"):
            Interactions.from_records([InteractionRecord("u", "a", "audiobook", "stream", 2**63)])


def rewritten(log: Interactions, **arrays) -> Interactions:
    return dataclasses.replace(log, **arrays)


REFUSALS = {
    "other-kind": (lambda path: io.write_pack(path, {"kind": "graph"}, {}), "container kind is 'graph'"),
    "truncated": (lambda path: path.write_bytes(path.read_bytes()[:-3]), "truncated payload"),
    "ids-not-rising": (
        lambda path: rewritten(sample_log(), user_ids=np.array(["ué", "u1"])).save(path),
        "user_ids do not rise strictly",
    ),
    "user-code-out-of-range": (
        lambda path: rewritten(sample_log(), user=np.array([1, 0, 2], np.int32)).save(path),
        "user_ids has 2 entries for user codes from 0 to 2",
    ),
    "item-code-negative": (
        lambda path: rewritten(sample_log(), item=np.array([1, -1, 0], np.int32)).save(path),
        "item_ids has 3 entries for item codes from -1 to 1",
    ),
    "unnamed-id": (
        lambda path: rewritten(sample_log(), item=np.array([1, 1, 0], np.int32)).save(path),
        "item_ids lists 'p1', which no record names",
    ),
    "type-code-out-of-range": (
        lambda path: rewritten(sample_log(), item_type=np.array([0, 2, 0], np.uint8)).save(path),
        "item_type holds a code outside ['audiobook', 'podcast']",
    ),
    "signal-code-out-of-range": (
        lambda path: rewritten(sample_log(), signal=np.array([4, 0, 0], np.uint8)).save(path),
        "signal holds a code outside",
    ),
    "weak-signal-on-podcast": (
        lambda path: rewritten(sample_log(), signal=np.array([1, 2, 0], np.uint8)).save(path),
        "record 1 gives signal 'preview' to a 'podcast'; it is only valid for audiobooks",
    ),
    "negative-timestamp": (
        lambda path: rewritten(sample_log(), timestamp=np.array([5, -3, 7])).save(path),
        "record 1 has a negative timestamp",
    ),
    "unequal-lengths": (
        lambda path: rewritten(sample_log(), timestamp=np.array([5, 3])).save(path),
        "timestamp has 2 entries for 3 records",
    ),
    "wrong-dtype": (
        lambda path: rewritten(sample_log(), signal=np.array([1, 0, 0], np.int64)).save(path),
        "signal is a 1-D int64 array, not 1-D uint8",
    ),
    "other-orders": (
        lambda path: edit_meta(path, signals=["follow", "stream", "preview", "intent_to_pay"]),
        "meta orders",
    ),
}


def edit_meta(path, **meta) -> None:
    sample_log().save(path)
    header, payload = split_container(path.read_bytes())
    header["meta"].update(meta)
    path.write_bytes(join_container(header, payload))


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_loader_refusal_names_the_file(tmp_path, case):
    write, expected = REFUSALS[case]
    path = tmp_path / "train.bin"
    sample_log().save(path)
    write(path)
    with pytest.raises(ValueError) as exc:
        Interactions.load(path)
    assert str(exc.value).startswith(f"{path}: ") and expected in str(exc.value)


def test_empty_window_gives_zero_histories():
    catalog = edge_case_catalog()
    records = [InteractionRecord("u", "a", "audiobook", "stream", 0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        window = Interactions.from_records(records).window(1, 10 * DAY_SECONDS)
        table = user_histories(window, random_table(catalog), TwoTowerConfig())
    assert table.user_ids == ["u"] and not table.interaction_counts.any() and not table.mean_audiobook_embedding.any()
