import dataclasses
import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from audiorec.data import (
    DAY_SECONDS,
    CatalogItem,
    InteractionRecord,
    load_checked_catalog,
    parse_catalog,
    parse_interactions,
    record_to_dict,
    save_catalog,
    save_checked_catalog,
    save_interactions,
    Interactions,
    timeline_split,
    user_segments,
)
from audiorec import io, synth
from audiorec.synth import SynthConfig, synth_generate, synth_generate_with_meta

from conftest import log_split, make_catalog, stream
import oracles
from oracles import by_user, parse_catalog_lines, parse_interactions_lines, read_jsonl_lines, records_of, stream_counts_dense


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def rec_line(user="u1", item="a1", item_type="audiobook", signal="stream", t=0, **extra):
    obj = {"user_id": user, "item_id": item, "item_type": item_type, "signal": signal, "timestamp": t}
    obj.update(extra)
    return json.dumps(obj)


class TestParseInteractions:
    def test_valid_file_in_order(self, tmp_path):
        p = tmp_path / "x.jsonl"
        write_lines(p, [rec_line(t=3), rec_line(item="p1", item_type="podcast", t=1), rec_line(t=2)])
        parsed = parse_interactions(p)
        assert [r.timestamp for r in parsed.records] == [3, 1, 2]
        assert parsed.diagnostics == []

    def test_unknown_signal_skipped_with_line_number(self, tmp_path):
        p = tmp_path / "x.jsonl"
        write_lines(p, [rec_line(), rec_line(signal="purchase"), rec_line(t=5)])
        parsed = parse_interactions(p)
        assert len(parsed.records) == 2
        assert len(parsed.diagnostics) == 1
        assert parsed.diagnostics[0].line_no == 2
        assert "purchase" in parsed.diagnostics[0].message

    @pytest.mark.parametrize("key", ["user", "item"])
    def test_id_holding_a_nul_skipped_with_a_reason(self, tmp_path, key):
        p = tmp_path / "x.jsonl"
        write_lines(p, [rec_line(), rec_line(**{key: "a\x00"}), rec_line(**{key: "\x00b"})])
        parsed = parse_interactions(p)
        assert len(parsed.records) == 1
        assert [(d.line_no, d.message) for d in parsed.diagnostics] == [
            (2, f"{key}_id holds a NUL character"),
            (3, f"{key}_id holds a NUL character"),
        ]

    def test_empty_file(self, tmp_path):
        p = tmp_path / "x.jsonl"
        p.write_text("", encoding="utf-8")
        parsed = parse_interactions(p)
        assert parsed.records == [] and parsed.diagnostics == []

    def test_weak_signal_on_podcast_rejected(self, tmp_path):
        p = tmp_path / "x.jsonl"
        write_lines(p, [rec_line(item="p1", item_type="podcast", signal="follow")])
        parsed = parse_interactions(p)
        assert parsed.records == []
        assert parsed.diagnostics[0].line_no == 1

    def test_negative_timestamp_and_bad_json(self, tmp_path):
        p = tmp_path / "x.jsonl"
        write_lines(p, [rec_line(t=-1), "{not json", rec_line()])
        parsed = parse_interactions(p)
        assert len(parsed.records) == 1
        assert [d.line_no for d in parsed.diagnostics] == [1, 2]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            parse_interactions(tmp_path / "missing.jsonl")


def cat_line(item="a1", item_type="audiobook", vec=(1.0, 0.0, 0.0, 0.0), lang="en", genre="g0"):
    return json.dumps(
        {"item_id": item, "item_type": item_type, "content_vector": list(vec), "language": lang, "genre": genre}
    )


# any string `json` can escape, lone surrogates included
ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=4)


class TestSaveInteractions:
    @given(st.lists(st.builds(
        InteractionRecord,
        user_id=ANY_TEXT,
        item_id=st.one_of(ANY_TEXT, st.none(), st.integers()),
        item_type=st.sampled_from(["audiobook", "podcast", None]),
        signal=st.one_of(st.sampled_from(["stream", "follow"]), ANY_TEXT),
        timestamp=st.one_of(st.integers(-2**70, 2**70), st.booleans(), st.floats(), st.none()),
    ), max_size=5))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_each_line_is_the_records_canonical_json(self, tmp_path, records):
        def saved():
            save_interactions(records, tmp_path / "x.jsonl")
            return (tmp_path / "x.jsonl").read_text(encoding="utf-8")

        want = outcome(lambda: "".join(io.canonical_json(record_to_dict(r)) + "\n" for r in records))
        assert outcome(saved) == want


class TestParseCatalog:
    def test_two_items(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [cat_line("a1"), cat_line("p1", "podcast", (0.0, 1.0, 0.0, 0.0))])
        catalog = parse_catalog(p)
        assert set(catalog) == {"a1", "p1"}
        assert catalog["a1"].content_vector.shape == (4,)

    def test_duplicate_id_names_both_lines(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [cat_line("a1"), cat_line("p1", "podcast"), cat_line("a1")])
        with pytest.raises(ValueError, match=r"lines 1 and 3"):
            parse_catalog(p)

    def test_id_holding_a_nul_names_the_line(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [cat_line("a1"), cat_line("a\x00")])
        with pytest.raises(ValueError, match=r"c.jsonl:2: item_id 'a\\x00' holds a NUL character"):
            parse_catalog(p)

    def test_dimension_mismatch(self, tmp_path):
        p = tmp_path / "c.jsonl"
        write_lines(p, [cat_line("a1", vec=(1, 0, 0, 0)), cat_line("a2", vec=(1, 0, 0, 0, 0))])
        with pytest.raises(ValueError, match="dimension"):
            parse_catalog(p)


CATALOG_META = {
    "kind": "catalog",
    "item_id": ["a1", "p1"],
    "item_type": ["audiobook", "podcast"],
    "language": ["en", "sv"],
    "genre": ["g0", "g1"],
}


class TestCheckedCatalog:
    @pytest.mark.parametrize("n", [1, 3])
    def test_round_trip_is_what_parse_catalog_returned(self, tmp_path, n):
        lines = [cat_line("a2"), cat_line("p\u00e9", "podcast", (0.1, -2.5, 1e300, 3)), cat_line("a1", lang="sv")]
        write_lines(tmp_path / "c.jsonl", lines[:n])
        parsed = parse_catalog(tmp_path / "c.jsonl")
        save_checked_catalog(parsed, tmp_path / "catalog.bin")
        loaded = load_checked_catalog(tmp_path / "catalog.bin")
        assert list(loaded) == list(parsed)
        for a, b in zip(loaded.values(), parsed.values()):
            assert (a.item_id, a.item_type, a.language, a.genre) == (b.item_id, b.item_type, b.language, b.genre)
            assert {type(a.item_id), type(a.item_type), type(a.language), type(a.genre)} == {str}
            assert a.content_vector.dtype == np.float64
            assert a.content_vector.tobytes() == b.content_vector.tobytes()

    def test_reads_into_buffers_it_owns(self, tmp_path):
        write_lines(tmp_path / "c.jsonl", [cat_line("a1"), cat_line("a2")])
        save_checked_catalog(parse_catalog(tmp_path / "c.jsonl"), tmp_path / "catalog.bin")
        loaded = load_checked_catalog(tmp_path / "catalog.bin")
        (tmp_path / "catalog.bin").write_bytes(b"")
        assert [v.content_vector.tolist() for v in loaded.values()] == [[1.0, 0.0, 0.0, 0.0]] * 2
        assert all(v.content_vector.base.flags.owndata for v in loaded.values())

    @pytest.mark.parametrize(
        "meta, vectors, expected",
        [
            ({"kind": "embeddings"}, None, "container kind is 'embeddings', expected 'catalog'"),
            *(
                ({key: CATALOG_META[key][:1]}, None, f"{key} has 1 entries for 2 matrix rows")
                for key in ("item_id", "item_type", "language", "genre")
            ),
            ({"item_type": ["audiobook", "ebook"]}, None, "unknown item_type 'ebook'"),
            ({"item_id": ["a1", "a1"]}, None, "item_id lists 'a1' twice"),
            ({"genre": ["g0", 1]}, None, "meta 'genre' must be"),
            ({}, np.ones((2, 2), np.float32), "content_vectors is float32, not float64"),
            ({}, np.ones(2), "matrix has shape [2], not rows x columns"),
        ],
        ids=[
            "kind", "short-item_id", "short-item_type", "short-language", "short-genre",
            "unknown-type", "repeated-id", "not-a-string", "float32", "1-d",
        ],
    )
    def test_damaged_container_refused_naming_it(self, tmp_path, meta, vectors, expected):
        path = tmp_path / "catalog.bin"
        vectors = np.array([[1.0, 0.5], [0.0, 2.0]]) if vectors is None else vectors
        io.write_pack(path, {**CATALOG_META, **meta}, {"content_vectors": vectors})
        with pytest.raises(ValueError, match=re.escape(f"{path}: {expected}")):
            load_checked_catalog(path)

    def test_truncated_container_refused_naming_it(self, tmp_path):
        path = tmp_path / "catalog.bin"
        io.write_pack(path, CATALOG_META, {"content_vectors": np.eye(2)})
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=re.escape(f"{path}: truncated payload for array 'content_vectors'")):
            load_checked_catalog(path)


# A field's values that a check refuses, or that only its type tells apart
# from a valid one (a bool or float timestamp, a string or bool vector entry).
BAD_INTERACTION_VALUES = {
    "user_id": ["", "u\x00", 7, None, ["u1"]],
    "item_id": ["", "\x00a", 3, True],
    "item_type": ["ebook", 1, None],
    "signal": ["purchase", "", None, "follow"],  # a weak signal is bad on a podcast
    "timestamp": [-1, True, False, 1.0, 1.5, "5", None, float("nan"), float("inf"), 10**20],
}


def bad_catalog_values(dim: int) -> dict:
    """Catalog field values a check refuses, the vectors otherwise `dim` wide."""
    return {
        "item_id": ["", "a\x00", 5, "i0"],  # "i0" repeats the first line's id
        "item_type": ["ebook", None],
        "content_vector": [
            ["0.5"] + [1.0] * (dim - 1), [True] + [0.5] * (dim - 1), [False] * dim, [],
            [[0.5]] * dim, [0.5] * (dim - 1) + [None], "0.5", 5, None, {"x": 1}, [10**400] * dim,
            [float("nan")] * dim, [float("-inf")] + [1.0] * (dim - 1), [0.5] * (dim + 1),
        ],
        "language": ["", 3],
        "genre": ["", ["g"]],
    }


# whole-line texts that are not one JSON object, or are blank
ODD_LINES = [
    "", "   ", "\t \x0c", "[1, 2]", "[]", "5", '"s"', "null", "true", "{not json", '{"a": ',
    "[1", "2],{\"a\":1}", "{}", "[" * 100_000,  # the last nested past the recursion limit
]


def line_faults(valid: dict, bad_values: dict) -> list[tuple]:
    """Every fault `jsonl_line` may give a line, each one entry."""
    return [
        *(("value", key, value) for key in sorted(bad_values) for value in bad_values[key]),
        *(("missing", key) for key in sorted(valid)),
        *(("dup", key, value) for key in sorted(bad_values) for value in bad_values[key][:2]),
        *((kind,) for kind in ("pad", "second", "bom", "cut")),
        *(("odd", text) for text in ODD_LINES),
    ]


def jsonl_line(valid: dict, fault: tuple, rng: random.Random) -> str:
    """The line of `valid`, with `fault` (an entry of `line_faults`, or
    `("none",)`): a bad or missing field, a repeated key, text around or after
    the object, or an odd line. `rng` picks how it is written."""
    obj = dict(valid)
    if fault[0] == "odd":
        return fault[1]
    if fault[0] == "value":
        obj[fault[1]] = fault[2]
    elif fault[0] == "missing":
        del obj[fault[1]]
    text = json.dumps(obj, ensure_ascii=rng.random() < 0.5)
    if fault[0] == "dup":  # the last value of a repeated key is the one read
        pair = f"{json.dumps(fault[1])}: {json.dumps(fault[2])}"
        if rng.random() < 0.5:  # the valid value last
            text = "{" + pair + ", " + text[1:]
        else:
            text = text[:-1] + ", " + pair + "}"
    elif fault[0] == "pad":
        text = rng.choice([" ", "\t", "\x0c", "\u3000"]) + text + " "
    elif fault[0] == "second":
        text = text + rng.choice(["", " ", ","]) + rng.choice([text, "{}", "1", "]"])
    elif fault[0] == "bom":
        text = "\ufeff" + text
    elif fault[0] == "cut":
        text = text[: rng.randrange(1, len(text))]
    return text


def write_jsonl_file(path, lines, data) -> None:
    """`lines` joined by newlines of one kind, with a byte that is not UTF-8
    in one line, at times."""
    sep = data.draw(st.sampled_from(["\n", "\r\n"]))
    raw = [line.encode("utf-8") for line in lines]
    if raw and data.draw(st.integers(0, 9)) == 0:
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = raw[at] + b"\xff"
    path.write_bytes(sep.encode().join(raw) + sep.encode())


def outcome(call, *args):
    """What `call(*args)` returns, or the text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def assert_interactions_match(path) -> None:
    """`parse_interactions` gives the records and diagnostics of the line loop,
    or raises the same error."""
    got, want = outcome(parse_interactions, path), outcome(parse_interactions_lines, path)
    if isinstance(want, str):
        assert got == want
        return
    assert [vars(r) for r in got.records] == [vars(r) for r in want.records]
    assert [type(r.timestamp) for r in got.records] == [type(r.timestamp) for r in want.records]
    assert got.records == want.records
    assert [(d.line_no, d.message) for d in got.diagnostics] == [
        (d.line_no, d.message) for d in want.diagnostics
    ]


def assert_catalog_matches(path) -> None:
    """`parse_catalog` and `read_jsonl` give what the line loops give, or
    raise the same error."""
    got, want = outcome(parse_catalog, path), outcome(parse_catalog_lines, path)
    if isinstance(want, str):
        assert got == want
    else:
        assert list(got) == list(want)
        for a, b in zip(got.values(), want.values()):
            assert (a.item_id, a.item_type, a.language, a.genre) == (b.item_id, b.item_type, b.language, b.genre)
            assert a.content_vector.dtype == b.content_vector.dtype == np.float64
            assert a.content_vector.tobytes() == b.content_vector.tobytes()
    for required in ((), ("item_id", "genre")):
        # repr: a NaN entry equals itself only as text
        assert repr(outcome(io.read_jsonl, path, required)) == repr(outcome(read_jsonl_lines, path, required))


@st.composite
def interaction_obj(draw) -> dict:
    item_type = draw(st.sampled_from(["audiobook", "podcast"]))
    signals = ["stream", "follow", "preview", "intent_to_pay"] if item_type == "audiobook" else ["stream"]
    obj = {
        "user_id": draw(st.sampled_from(["u1", "u2", "é", "\U0001f600"])),
        "item_id": draw(st.sampled_from(["a1", "p1", "x y"])),
        "item_type": item_type,
        "signal": draw(st.sampled_from(signals)),
        "timestamp": draw(st.integers(0, 2**40)),
    }
    if draw(st.integers(0, 4)) == 0:
        obj["extra"] = draw(st.sampled_from([1, "x", None, [1]]))
    return obj


class TestParsersMatchTheLineLoops:
    """`parse_interactions`, `read_jsonl` and `parse_catalog` against the
    line-by-line references, over files that mix valid lines with faulty
    ones."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_interactions(self, tmp_path, data):
        # faults drawn uniformly: `sampled_from` favours its first entries
        rng = data.draw(st.randoms(use_true_random=False))
        fault_percent = rng.choice([0, 10, 50])
        lines = []
        for obj in data.draw(st.lists(interaction_obj(), max_size=12)):
            fault = ("none",)
            if rng.randrange(100) < fault_percent:
                fault = rng.choice(line_faults(obj, BAD_INTERACTION_VALUES))
            lines.append(jsonl_line(obj, fault, rng))
        path = tmp_path / "x.jsonl"
        write_jsonl_file(path, lines, data)
        assert_interactions_match(path)

    def test_interactions_each_fault_alone(self, tmp_path):
        rng = random.Random(0)
        objs = [{"user_id": "u1", "item_id": "a1", "item_type": t, "signal": "stream", "timestamp": 5}
                for t in ("audiobook", "podcast", "audiobook")]
        for fault in line_faults(objs[1], BAD_INTERACTION_VALUES):
            for _ in range(3):  # each way `jsonl_line` may write it
                write_lines(tmp_path / "x.jsonl", [jsonl_line(obj, f, rng) for obj, f in zip(objs, [("none",), fault, ("none",)])])
                assert_interactions_match(tmp_path / "x.jsonl")

    @given(data=st.data(), dim=st.integers(1, 3))
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_catalog_and_read_jsonl(self, tmp_path, data, dim):
        n = data.draw(st.integers(0, 8))
        rows = [
            {
                "item_id": f"i{k}",
                "item_type": data.draw(st.sampled_from(["audiobook", "podcast"])),
                "content_vector": data.draw(st.lists(
                    st.one_of(st.integers(-5, 5), st.floats(-1e300, 1e300)), min_size=dim, max_size=dim)),
                "language": "en",
                "genre": data.draw(st.sampled_from(["g", "é"])),
            }
            for k in range(n)
        ]
        # a fault on one or two lines, or one bad vector on every line, drawn
        # uniformly: `sampled_from` favours its first entries
        rng = data.draw(st.randoms(use_true_random=False))
        bad = bad_catalog_values(dim)
        faults = [("none",)] * n
        mode = rng.choice(["none", "one", "one", "two", "every-vector"])
        if mode == "every-vector":
            faults = [("value", "content_vector", rng.choice(bad["content_vector"]))] * n
        elif n and mode != "none":
            for at in rng.sample(range(n), min(n, 1 if mode == "one" else 2)):
                faults[at] = rng.choice(line_faults(rows[at], bad))
        lines = [jsonl_line(row, fault, rng) for row, fault in zip(rows, faults)]
        path = tmp_path / "c.jsonl"
        write_jsonl_file(path, lines, data)
        assert_catalog_matches(path)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_catalog_each_fault_alone_and_each_bad_vector_on_every_line(self, tmp_path, dim):
        rng = random.Random(0)
        bad = bad_catalog_values(dim)
        rows = [
            {"item_id": f"i{k}", "item_type": t, "content_vector": [0.5] * dim, "language": "en", "genre": "g"}
            for k, t in enumerate(("audiobook", "podcast", "audiobook"))
        ]
        cases = [[("none",), fault, ("none",)] for fault in line_faults(rows[1], bad)]
        cases += [[("value", "content_vector", vector)] * 3 for vector in bad["content_vector"]]
        for faults in cases:
            for _ in range(3):  # each way `jsonl_line` may write it
                write_lines(tmp_path / "c.jsonl", [jsonl_line(row, f, rng) for row, f in zip(rows, faults)])
                assert_catalog_matches(tmp_path / "c.jsonl")

    @pytest.mark.parametrize(
        "vector, expected",
        [
            (["0.5", "1e3"], "could not convert '0.5' to a number"),
            ([True, 0.5], "could not convert True to a number"),
            ([], "content_vector is not a float array: got []"),
            ([[0.5]], "content_vector is not a flat array"),
            ([10**400], "content_vector is not a flat array of finite numbers"),
        ],
        ids=["strings", "bool", "empty", "nested", "beyond-float64"],
    )
    def test_catalog_vector_not_of_finite_numbers_names_the_line(self, tmp_path, vector, expected):
        # strings, bools and [] were read as [0.5, 1000.0], [1.0, 0.5] and a 0-d content space
        p = tmp_path / "c.jsonl"
        write_lines(p, [cat_line("a1"), cat_line("a2", vec=vector)])
        with pytest.raises(ValueError, match=f"c.jsonl:2: .*{re.escape(expected)}"):
            parse_catalog(p)


class TestTimelineSplit:
    def test_example_90_days(self):
        catalog = make_catalog()
        records = [stream("u1", "a0", catalog, t=(d - 1) * DAY_SECONDS) for d in range(1, 91)]
        split = timeline_split(records, split_time=76 * DAY_SECONDS)
        assert max(r.timestamp for r in split.train) == 75 * DAY_SECONDS  # day 76
        assert min(r.timestamp for r in split.holdout) == 76 * DAY_SECONDS  # day 77
        assert len(split.train) == 76 and len(split.holdout) == 14

    def test_default_split_time_is_max_minus_14_days(self):
        catalog = make_catalog()
        records = [stream("u1", "a0", catalog, t=t) for t in (0, 100 * DAY_SECONDS)]
        split = timeline_split(records)
        assert split.split_time == 100 * DAY_SECONDS - 14 * DAY_SECONDS

    def test_all_before_split_warns(self):
        catalog = make_catalog()
        records = [stream("u1", "a0", catalog, t=5)]
        with pytest.warns(UserWarning, match="holdout"):
            split = timeline_split(records, split_time=100)
        assert split.holdout == []

    def test_record_at_split_time_lands_in_holdout(self):
        catalog = make_catalog()
        records = [stream("u1", "a0", catalog, t=50), stream("u1", "a1", catalog, t=100)]
        split = timeline_split(records, split_time=100)
        assert [r.item_id for r in split.holdout] == ["a1"]

    def test_empty_is_fatal(self):
        with pytest.raises(ValueError):
            timeline_split([])

    @given(
        ts=st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=60),
        split_at=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_property(self, ts, split_at):
        catalog = make_catalog()
        records = [stream(f"u{i % 5}", "a0", catalog, t=t) for i, t in enumerate(ts)]
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = timeline_split(records, split_time=split_at)
        assert sorted(split.train + split.holdout, key=lambda r: (r.timestamp, r.user_id)) == sorted(
            records, key=lambda r: (r.timestamp, r.user_id)
        )
        assert all(r.timestamp < split_at for r in split.train)
        assert all(r.timestamp >= split_at for r in split.holdout)


def window_by_user(records, window_days, as_of=None):
    """`Interactions.window` of `records`, grouped by user, after checking
    it against the record walk in `oracles`."""
    window = by_user(records_of(Interactions.from_records(records).window(window_days, as_of)))
    assert window == oracles.window_by_user(records, window_days, as_of)
    return window


def user_segments_of(split):
    """`user_segments` of a split of records, after checking it against the
    record walk in `oracles`."""
    segments = user_segments(log_split(split))
    assert segments == oracles.user_segments(split)
    return segments


class TestWindowByUser:
    def test_start_is_inclusive_and_as_of_exclusive(self):
        catalog = make_catalog()
        as_of = 10 * DAY_SECONDS
        start = as_of - 3 * DAY_SECONDS
        records = [
            stream("u1", "a0", catalog, t=start - 1),
            stream("u1", "a1", catalog, t=start),
            stream("u1", "a2", catalog, t=as_of - 1),
            stream("u1", "a3", catalog, t=as_of),
        ]
        assert window_by_user(records, 3, as_of=as_of) == {"u1": records[1:3]}

    def test_defaults_to_one_second_after_the_last_record(self):
        catalog = make_catalog()
        last = 5 * DAY_SECONDS
        records = [
            stream("u1", "a1", catalog, t=last),
            stream("u2", "a2", catalog, t=3 * DAY_SECONDS),  # outside: the window starts at last + 1 - 2 days
            stream("u3", "a3", catalog, t=3 * DAY_SECONDS + 1),
        ]
        assert window_by_user(records, 2) == {"u1": records[:1], "u3": records[2:]}
        assert window_by_user(records, 2) == window_by_user(records, 2, as_of=last + 1)

    def test_keeps_log_order_within_a_user(self):
        catalog = make_catalog()
        records = [
            stream("u1", "a2", catalog, t=50),
            stream("u2", "a0", catalog, t=10),
            stream("u1", "a0", catalog, t=20),
            InteractionRecord("u1", "a1", "audiobook", "follow", 90),
            stream("u1", "a2", catalog, t=20),
        ]
        window = window_by_user(records, 1, as_of=100)
        assert list(window) == ["u1", "u2"]
        assert window["u1"] == [records[0], records[2], records[3], records[4]]
        assert window["u2"] == [records[1]]

    def test_empty_input_gives_an_empty_window(self):
        assert window_by_user([], 1) == {}
        assert window_by_user([], 3, as_of=10 * DAY_SECONDS) == {}


class TestUserSegments:
    def test_follow_makes_warm(self):
        catalog = make_catalog()
        records = [
            InteractionRecord("u1", "a0", "audiobook", "follow", 10),
            stream("u1", "a1", catalog, t=100),
        ]
        split = timeline_split(records, split_time=50)
        seg = user_segments_of(split)
        assert seg.warm == {"u1"} and seg.cold == set()

    def test_podcast_only_history_is_cold(self):
        catalog = make_catalog()
        records = [stream("u1", "p0", catalog, t=10), stream("u1", "a1", catalog, t=100)]
        split = timeline_split(records, split_time=50)
        seg = user_segments_of(split)
        assert seg.cold == {"u1"}

    def test_train_only_user_not_segmented(self):
        catalog = make_catalog()
        records = [stream("u1", "a0", catalog, t=10), stream("u2", "a1", catalog, t=100)]
        split = timeline_split(records, split_time=50)
        seg = user_segments_of(split)
        assert "u1" not in seg.warm | seg.cold
        assert seg.warm | seg.cold == {"u2"}

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_disjoint_and_cover_holdout(self, seed):
        rng = np.random.default_rng(seed)
        catalog = make_catalog()
        from conftest import random_log

        records = random_log(rng, n_users=8, catalog=catalog)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = timeline_split(records, split_time=500)
        seg = user_segments_of(split)
        holdout_users = {r.user_id for r in split.holdout}
        assert seg.warm & seg.cold == set()
        assert seg.warm | seg.cold == holdout_users


class TestSynth:
    def test_determinism_across_seeds(self):
        cfg = SynthConfig(n_users=40, n_podcasts=20, n_audiobooks=10, n_clusters=2, d_c=4)
        for seed in range(10):
            r1, c1 = synth_generate(cfg, seed)
            r2, c2 = synth_generate(cfg, seed)
            assert r1 == r2
            assert set(c1) == set(c2)
            for k in c1:
                assert np.array_equal(c1[k].content_vector, c2[k].content_vector)
                assert (c1[k].language, c1[k].genre) == (c2[k].language, c2[k].genre)

    def test_too_many_clusters_fatal(self):
        with pytest.raises(ValueError, match="n_clusters"):
            synth_generate(SynthConfig(n_users=3, n_audiobooks=2, n_clusters=5), seed=0)

    def test_within_cluster_stream_rate_exceeds_cross(self):
        cfg = SynthConfig(n_users=80, n_podcasts=40, n_audiobooks=20, n_clusters=3, d_c=4)
        assert cfg.cluster_affinity >= 5
        for seed in range(10):
            records, catalog, meta = synth_generate_with_meta(cfg, seed)
            within = cross = 0
            within_pairs = cross_pairs = 0
            uc, ic = meta["user_cluster"], meta["item_cluster"]
            for r in records:
                if r.signal != "stream":
                    continue
                if uc[r.user_id] == ic[r.item_id]:
                    within += 1
                else:
                    cross += 1
            for u in uc:
                for i in ic:
                    if uc[u] == ic[i]:
                        within_pairs += 1
                    else:
                        cross_pairs += 1
            assert within / within_pairs > cross / cross_pairs

    def test_colistened_content_similarity_exceeds_random(self, small_synth):
        # Exhaustive enumeration over audiobook pairs, independent of the
        # graph builder.
        records, catalog = small_synth
        per_user: dict[str, set[str]] = {}
        for r in records:
            if r.signal == "stream" and r.item_type == "audiobook":
                per_user.setdefault(r.user_id, set()).add(r.item_id)
        co = set()
        for items in per_user.values():
            ordered = sorted(items)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    co.add((a, b))
        assert co

        def cos(a, b):
            va, vb = catalog[a].content_vector, catalog[b].content_vector
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

        co_mean = np.mean([cos(a, b) for a, b in sorted(co)])
        ab_ids = sorted(i for i in catalog if catalog[i].item_type == "audiobook")
        all_mean = np.mean(
            [cos(a, b) for i, a in enumerate(ab_ids) for b in ab_ids[i + 1 :]]
        )
        assert co_mean > all_mean

    def test_single_cluster_has_no_content_structure(self):
        cfg = SynthConfig(n_users=80, n_podcasts=30, n_audiobooks=16, n_clusters=1, d_c=4)
        records, catalog = synth_generate(cfg, seed=3)
        per_user: dict[str, set[str]] = {}
        for r in records:
            if r.signal == "stream" and r.item_type == "audiobook":
                per_user.setdefault(r.user_id, set()).add(r.item_id)
        co = set()
        for items in per_user.values():
            ordered = sorted(items)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    co.add((a, b))

        def cos(a, b):
            va, vb = catalog[a].content_vector, catalog[b].content_vector
            return va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb))

        ab_ids = sorted(i for i in catalog if catalog[i].item_type == "audiobook")
        co_mean = np.mean([cos(a, b) for a, b in sorted(co)])
        all_mean = np.mean([cos(a, b) for i, a in enumerate(ab_ids) for b in ab_ids[i + 1 :]])
        assert abs(co_mean - all_mean) < 0.05

    def test_weak_signals_precede_first_streams(self, small_synth):
        records, _ = small_synth
        pairs: dict[tuple[str, str], dict] = {}
        for r in records:
            if r.item_type != "audiobook":
                continue
            d = pairs.setdefault((r.user_id, r.item_id), {"stream": [], "weak": []})
            d["stream" if r.signal == "stream" else "weak"].append(r.timestamp)
        preceded = streamed = 0
        for d in pairs.values():
            if d["stream"]:
                streamed += 1
                if d["weak"] and min(d["weak"]) <= min(d["stream"]):
                    preceded += 1
        assert streamed > 0
        assert 0.3 < preceded / streamed <= 1.0

    def test_cold_items_have_no_streams(self, small_synth, small_synth_config):
        records, catalog = small_synth
        ab_ids = sorted(i for i in catalog if catalog[i].item_type == "audiobook")
        cold = set(ab_ids[-small_synth_config.n_cold_items :])
        streamed = {r.item_id for r in records if r.signal == "stream"}
        assert streamed & cold == set()


# the synth section of the wide-catalog benchmark workload
WIDE_SYNTH = SynthConfig(
    n_users=2000,
    n_podcasts=2000,
    n_audiobooks=1000,
    podcast_stream_rate=0.001,
    audiobook_stream_rate=0.0005,
    n_cold_items=50,
)
# the synth section of the pipeline tests' tiny config
TINY_SYNTH = SynthConfig(
    n_users=120,
    n_podcasts=50,
    n_audiobooks=24,
    n_clusters=3,
    d_c=8,
    n_cold_items=2,
    audiobook_stream_rate=0.02,
    podcast_stream_rate=0.015,
)
SYNTH_CASES = {
    "default": (SynthConfig(), (0, 7, 11)),
    "wide": (WIDE_SYNTH, (7, 3)),
    "tiny": (TINY_SYNTH, (0, 7, 11)),
    # ids past four digits, where string order is not number order; one day
    # of timestamps, so records share times and the id order decides (the
    # weak signals, 1-14 days before a first stream, all fall on time 0)
    "ids-past-four-digits": (
        SynthConfig(
            n_users=10_001, n_podcasts=1, n_audiobooks=1, n_clusters=1, n_cold_items=0, days=1,
            podcast_stream_rate=0.5, audiobook_stream_rate=0.25,
        ),
        (0, 7),
    ),
    "no-weak-signals": (dataclasses.replace(TINY_SYNTH, weak_signal_prob=0.0), (0, 7)),
    "always-weak-signals": (dataclasses.replace(TINY_SYNTH, weak_signal_prob=1.0), (0, 7)),
    "never-abandoned": (dataclasses.replace(TINY_SYNTH, abandoned_rate=0.0), (0, 7)),
    "no-streams": (dataclasses.replace(TINY_SYNTH, podcast_stream_rate=0.0, audiobook_stream_rate=0.0), (0, 7)),
    "every-audiobook-cold": (dataclasses.replace(TINY_SYNTH, n_cold_items=TINY_SYNTH.n_audiobooks), (0, 7)),
    # `choice` from one name draws nothing
    "one-language-and-genre": (dataclasses.replace(TINY_SYNTH, languages=("en",), genres=("g0",)), (0, 7)),
}


class TestSynthMatchesTheLoop:
    """The array-at-a-time generator against `oracles.synth_generate_loop`,
    which draws one record at a time: the same records in the same order,
    catalog, meta and written bytes."""

    @pytest.mark.parametrize("case", sorted(SYNTH_CASES))
    def test_records_catalog_meta_and_bytes(self, tmp_path, case):
        config, seeds = SYNTH_CASES[case]
        for seed in seeds:
            records, catalog, meta = synth_generate_with_meta(config, seed)
            want_records, want_catalog, want_meta = oracles.synth_generate_loop(config, seed)
            assert records == want_records
            assert [tuple(map(type, vars(r).values())) for r in records] == [
                tuple(map(type, vars(r).values())) for r in want_records
            ]
            assert meta == want_meta
            assert list(catalog) == list(want_catalog)
            for got, want in zip(catalog.values(), want_catalog.values()):
                assert (got.item_id, got.item_type, got.language, got.genre) == (
                    want.item_id, want.item_type, want.language, want.genre
                )
                assert type(got.language) is type(got.genre) is str
                assert got.content_vector.dtype == want.content_vector.dtype
                assert got.content_vector.tobytes() == want.content_vector.tobytes()

            save_interactions(records, tmp_path / "interactions.jsonl")
            save_catalog(catalog, tmp_path / "catalog.jsonl")
            oracles.save_catalog_rows(want_catalog, tmp_path / "want_catalog.jsonl")
            want_lines = "".join(io.canonical_json(record_to_dict(r)) + "\n" for r in want_records)
            assert (tmp_path / "interactions.jsonl").read_bytes() == want_lines.encode("utf-8")
            assert (tmp_path / "catalog.jsonl").read_bytes() == (tmp_path / "want_catalog.jsonl").read_bytes()
        if case == "ids-past-four-digits":
            # u10000 shares a time with other users: only string order places it
            times = {r.timestamp for r in records if r.user_id == "u10000"}
            assert {r.user_id for r in records if r.timestamp in times} > {"u10000"}
        if case == "no-streams":
            assert records and {r.signal for r in records} <= {"follow", "preview", "intent_to_pay"}

    @pytest.mark.parametrize(
        "mix",
        [
            synth._PRE_STREAM_SIGNAL_P,
            synth._ABANDONED_SIGNAL_P,
            {"preview": 1.0},
            {"follow": 0.0, "preview": 2.0, "stream": 1e-9},
            {"follow": 1.0, "intent_to_pay": 3.0, "preview": 1.0, "stream": 0.0},
        ],
    )
    def test_signal_cdf_picks_what_choice_picks(self, mix):
        # a numpy whose `choice(p=...)` draws otherwise fails here, not
        # silently in the generated data
        codes, cdf = synth._signal_cdf(mix)
        for seed in range(20):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [codes[cdf.searchsorted(got_rng.random(), side="right")] for _ in range(500)]
            want = [synth._SIGNAL_NAMES.index(oracles.draw_signal(want_rng, mix)) for _ in range(500)]
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestSaveCatalog:
    @given(st.lists(st.builds(
        CatalogItem,
        item_id=st.one_of(ANY_TEXT, st.none()),
        item_type=st.sampled_from(["audiobook", "podcast", 3]),
        content_vector=st.one_of(
            st.lists(st.floats(), max_size=4).map(np.array),
            st.lists(st.one_of(st.integers(-2**60, 2**60), st.floats(width=32)), max_size=3),
        ),
        language=ANY_TEXT,
        genre=st.one_of(ANY_TEXT, st.lists(ANY_TEXT, max_size=1)),
    ), max_size=4))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_each_line_is_the_rows_canonical_json(self, tmp_path, items):
        # a non-finite vector is refused with `canonical_json`'s error
        catalog = dict(enumerate(items))

        def saved(write):
            write(catalog, tmp_path / "c.jsonl")
            return (tmp_path / "c.jsonl").read_text(encoding="utf-8")

        assert outcome(saved, save_catalog) == outcome(saved, oracles.save_catalog_rows)


class TestStreamCountBlocks:
    @pytest.mark.parametrize("block", [1, 7, synth._STREAM_BLOCK_USERS])
    @pytest.mark.parametrize(
        "n_users, n_items, n_zero, base_rate",
        [
            (20, 9, 0, 0.3),
            (23, 9, 2, 0.3),  # 23 users: no block size above 1 divides it
            (23, 9, 9, 0.3),  # every item zeroed
            (300, 40, 3, 0.05),
            (23, 9, 0, 0.0),  # zero rates draw zeros
        ],
    )
    def test_block_draw_equals_the_dense_draw(self, monkeypatch, block, n_users, n_items, n_zero, base_rate):
        monkeypatch.setattr(synth, "_STREAM_BLOCK_USERS", block)
        clusters = np.random.default_rng(n_users)
        user_cluster = clusters.integers(0, 3, size=n_users)
        item_cluster = clusters.integers(0, 3, size=n_items)
        for seed in range(3):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = synth._stream_counts(got_rng, user_cluster, item_cluster, base_rate, 8.0, n_zero)
            want = stream_counts_dense(want_rng, user_cluster, item_cluster, base_rate, 8.0, n_zero)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if n_zero == n_items or base_rate == 0:
            assert len(got[0]) == 0

    @pytest.mark.parametrize("config", [SynthConfig(), WIDE_SYNTH], ids=["default", "wide"])
    def test_generated_data_equals_the_dense_path(self, monkeypatch, config):
        records, catalog, meta = synth_generate_with_meta(config, seed=7)
        monkeypatch.setattr(synth, "_stream_counts", stream_counts_dense)
        dense_records, dense_catalog, dense_meta = synth_generate_with_meta(config, seed=7)
        assert records == dense_records
        assert meta == dense_meta
        assert list(catalog) == list(dense_catalog)
        for item_id, item in catalog.items():
            other = dense_catalog[item_id]
            assert np.array_equal(item.content_vector, other.content_vector)
            assert (item.item_type, item.language, item.genre) == (other.item_type, other.language, other.genre)
