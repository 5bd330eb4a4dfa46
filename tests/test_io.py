import json
import re

import numpy as np
import pytest

from audiorec.io import canonical_json, check_rising, column_ids, id_column, read_pack, write_pack
from audiorec.pipeline import PipelineConfig


def round_trip(tmp_path, ids) -> tuple[np.ndarray, np.ndarray]:
    """The `id_column` of `ids` as written, and its `column_ids` as read back
    from a container."""
    column = id_column(ids)
    write_pack(tmp_path / "c.bin", {"kind": "t"}, {"ids": column})
    _, arrays = read_pack(tmp_path / "c.bin", "t")
    return column, column_ids(tmp_path / "c.bin", "ids", arrays["ids"])


class TestReadRows:
    @pytest.mark.parametrize("row", [-1, 3])
    def test_row_outside_its_array_refused(self, tmp_path, row):
        # the rows past either end of `a` are bytes of the header or of `b`
        write_pack(tmp_path / "c.bin", {"kind": "t"}, {"a": np.arange(3.0), "b": np.ones(2)})
        for select in (lambda meta, shapes, read_rows: read_rows("a", [row]), lambda *_: {"a": [0, row]}):
            with pytest.raises(IndexError, match=f"c.bin: row {row} of array 'a', which has 3"):
                read_pack(tmp_path / "c.bin", "t", select)


class TestIdColumn:
    @pytest.mark.parametrize(
        "ids",
        [
            ["é\U0001f600", "a", "\U0001f600\U0001f600\U0001f600"],
            ["x\ud800", "\udfff"],
            ["same", "size"],
        ],
        ids=["non-ascii-and-astral", "lone-surrogates", "equal-lengths"],
    )
    def test_round_trip_one_row_of_code_points_per_id(self, tmp_path, ids):
        column, read = round_trip(tmp_path, ids)
        width = max(map(len, ids))
        assert column.dtype == np.uint32 and column.shape == (len(ids), width)
        assert column.tolist() == [[ord(c) for c in i] + [0] * (width - len(i)) for i in ids]
        assert read.tolist() == ids
        assert read.dtype == np.array(ids).dtype  # what `np.array` makes of the ids
        assert read.base is not None  # a view of the column read, no copy

    def test_empty_table_round_trips(self, tmp_path):
        column, read = round_trip(tmp_path, [])
        assert column.shape == (0, 1) and read.tolist() == []

    def test_id_holding_a_nul_refused_at_write_time(self):
        with pytest.raises(ValueError, match=r"id 'a\\x00' holds a NUL character"):
            id_column(["b", "a\x00"])

    @pytest.mark.parametrize(
        "column, expected",
        [
            (np.array([[97, 0, 98]], np.uint32), "holds an id with a NUL character"),
            (np.array([[97, 0x110000]], np.uint32), "holds a value above U+10FFFF"),
            (np.array([97, 98], np.uint32), "is a 1-D uint32 array, not a 2-D uint32 id column"),
            (np.array([[97, 98]], np.int32), "is a 2-D int32 array, not a 2-D uint32 id column"),
            (np.zeros((2, 0), np.uint32), "is a 2-D uint32 array, not a 2-D uint32 id column"),
        ],
        ids=["nul", "above-max-code-point", "not-2d", "not-uint32", "no-width"],
    )
    def test_column_that_is_not_ids_refused_naming_the_file(self, tmp_path, column, expected):
        write_pack(tmp_path / "c.bin", {"kind": "t"}, {"ids": column})
        _, arrays = read_pack(tmp_path / "c.bin", "t")
        with pytest.raises(ValueError, match=re.escape(f"c.bin: ids {expected}")):
            column_ids(tmp_path / "c.bin", "ids", arrays["ids"])

    @pytest.mark.parametrize(
        "ids, expected",
        [(["a", "b", "b"], "ids lists 'b' twice"), (["a", "c", "b"], "ids do not rise strictly")],
    )
    def test_ids_that_do_not_rise_refused(self, ids, expected):
        with pytest.raises(ValueError, match=f"c.bin: {expected}"):
            check_rising("c.bin", "ids", np.array(ids))


class TestCanonicalJson:
    @pytest.mark.parametrize(
        "obj",
        [
            {
                "user_id": "u\u00e9\x00",
                "item_id": "a\U0001f600",
                "item_type": "audiobook",
                "signal": "stream",
                "timestamp": 2**40,
            },
            {"stage": "train-hgnn", "seed": 7, "inputs": {"graph.bin": "ab" * 32}, "blas": {"OMP": None}},
            PipelineConfig().to_dict(),
            {
                "version": 1,
                "meta": {"kind": "graph", "relations": ["aa", "ap"], "x": [0.1, -0.0, 1e-300, 3]},
                "arrays": [{"name": "nodes.podcast", "shape": [3, 4], "dtype": "uint32"}],
            },
        ],
        ids=["record", "manifest", "config", "pack-header"],
    )
    def test_equals_json_dumps_with_its_keywords(self, obj):
        assert canonical_json(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_refused(self, value):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            canonical_json({"x": [1.0, value]})
