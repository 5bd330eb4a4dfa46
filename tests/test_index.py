import numpy as np
import pytest

from audiorec.index import RecIndex, build_index, load_index, query_topk, save_index

from oracles import query_topk_comprehension


def unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


TOY = {
    "A": np.array([1.0, 0.0]),
    "B": np.array([0.0, 1.0]),
    "C": np.array([0.6, 0.8]),
}


class TestBuild:
    def test_sorted_ids(self):
        idx = build_index({"b": np.array([1.0, 0.0]), "a": np.array([0.0, 1.0])})
        assert idx.ids.tolist() == ["a", "b"]
        assert len(idx) == 2

    def test_duplicate_id_fatal(self):
        pairs = [("a", np.array([1.0, 0.0])), ("a", np.array([0.0, 1.0]))]
        with pytest.raises(ValueError, match="duplicate"):
            build_index(pairs)

    def test_id_holding_a_nul_fatal(self):
        # a fixed-width string array drops trailing NULs: 'a\x00' would be served as 'a'
        with pytest.raises(ValueError, match="NUL"):
            build_index({"a\x00": TOY["A"], "b": TOY["B"], "c": TOY["C"]})

    def test_dimension_mismatch_fatal(self):
        with pytest.raises(ValueError, match="shape"):
            build_index({"a": np.array([1.0, 0.0]), "b": np.array([0.0, 0.0, 1.0])})

    @pytest.mark.parametrize("row", [[1.0, 1.0], [np.nan, 0.0]], ids=["long", "nan"])
    def test_non_unit_row_fatal(self, row):
        # a NaN row was indexed: its norm is no number, so no bound held it off
        with pytest.raises(ValueError, match="'b' is not unit norm"):
            build_index({"a": np.array([1.0, 0.0]), "b": np.array(row)})

    def test_empty_fatal(self):
        with pytest.raises(ValueError):
            build_index({})

    def test_rebuild_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        vecs = {f"i{i}": v for i, v in enumerate(unit_rows(rng, 8, 4))}
        i1, i2 = build_index(vecs), build_index(vecs)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_index(i1, p1)
        save_index(i2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestQuery:
    def test_hand_example(self):
        idx = build_index(TOY)
        out = query_topk(idx, np.array([1.0, 0.0]), k=2)
        assert out == [("A", pytest.approx(1.0)), ("C", pytest.approx(0.6))]

    def test_exclusion(self):
        idx = build_index(TOY)
        out = query_topk(idx, np.array([1.0, 0.0]), k=2, exclude={"A"})
        assert [i for i, _ in out] == ["C", "B"]
        assert out[1][1] == pytest.approx(0.0)

    def test_tie_broken_by_ascending_id(self):
        idx = build_index(
            {"zz": np.array([1.0, 0.0]), "aa": np.array([1.0, 0.0]), "mm": np.array([0.0, 1.0])}
        )
        out = query_topk(idx, np.array([1.0, 0.0]), k=3)
        assert [i for i, _ in out] == ["aa", "zz", "mm"]

    def test_k_larger_than_index(self):
        idx = build_index(TOY)
        assert len(query_topk(idx, np.array([1.0, 0.0]), k=50)) == 3

    def test_k_below_one_fatal(self):
        idx = build_index(TOY)
        with pytest.raises(ValueError):
            query_topk(idx, np.array([1.0, 0.0]), k=0)

    def test_scores_non_increasing_and_exclusion_sound(self):
        rng = np.random.default_rng(4)
        vecs = {f"i{i:03d}": v for i, v in enumerate(unit_rows(rng, 40, 8))}
        idx = build_index(vecs)
        for _ in range(50):
            q = rng.normal(size=8)
            exclude = {f"i{int(i):03d}" for i in rng.integers(0, 40, size=5)}
            out = query_topk(idx, q, k=10, exclude=exclude)
            scores = [s for _, s in out]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
            assert not ({i for i, _ in out} & exclude)

    @pytest.mark.parametrize("n_rows", [1, 80, 1000])
    @pytest.mark.parametrize("dim", [1, 3, 16, 17, 64, 65, 128, 129])
    def test_oracle_equivalence(self, dim, n_rows):
        rng = np.random.default_rng(11)
        base = unit_rows(rng, n_rows, dim)
        vecs = {}
        for i in range(n_rows):
            vecs[f"i{i:04d}"] = base[i]
        # duplicated rows under new ids force exact score ties
        for i in range(min(5, n_rows)):
            vecs[f"dup{i}"] = base[i]
        idx = build_index(vecs)
        ids = sorted(vecs)
        for trial in range(200):
            q = rng.normal(size=dim)
            k = int(rng.integers(1, 12))
            n_excl = int(rng.integers(0, min(6, len(ids))))
            exclude = set(str(x) for x in rng.choice(ids, size=n_excl, replace=False))
            expected = sorted(
                ((i, float(vecs[i] @ q)) for i in ids if i not in exclude),
                key=lambda p: (-p[1], p[0]),
            )[:k]
            # ranking (incl. exact ties from duplicated rows) and every score
            # equal the full-sort oracle's 1-D dot products exactly
            assert query_topk(idx, q, k, exclude) == expected

    @pytest.mark.parametrize("n_rows", [80, 1000])  # the default and wide-catalog indexes
    def test_python_pairs_equal_to_per_item_comprehension(self, n_rows):
        rng = np.random.default_rng(12)
        base = unit_rows(rng, n_rows, 128)
        base[1::7] = base[0]  # exact score ties
        idx = build_index({f"a{i:04d}": row for i, row in enumerate(base)})
        for trial in range(20):
            q = rng.normal(size=128)
            k = n_rows if trial % 2 else 10  # the whole index, and a served top 10
            exclude = {f"a{int(i):04d}" for i in rng.integers(0, n_rows, size=trial)}
            got = query_topk(idx, q, k, exclude)
            want = query_topk_comprehension(idx, q, k, exclude)
            assert [(type(i), type(s)) for i, s in got] == [(str, float)] * len(want)
            assert [(i, s.hex()) for i, s in got] == [(i, s.hex()) for i, s in want]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_selection_equals_full_sort_on_ties_zeros_and_nans(self, dim):
        # entries from a few values: most scores tie, rows and queries hold
        # -0.0 and +0.0, and a NaN entry makes a NaN score, which sorts last
        rng = np.random.default_rng(dim)
        values = np.array([-1.0, -0.0, 0.0, 0.5, 1.0, np.nan])
        for trial in range(300):
            n = int(rng.integers(1, 30))
            idx = RecIndex(np.array([f"i{i:02d}" for i in rng.permutation(n)]), rng.choice(values, (n, dim)))
            q = rng.choice(values, dim)
            exclude = set(rng.choice(idx.ids, int(rng.integers(0, n))).tolist()) if trial % 2 else set()
            for k in {1, int(rng.integers(1, n + 1)), n - 1, n, n + 3} - {0}:
                got = query_topk(idx, q, k, exclude)
                want = query_topk_comprehension(idx, q, k, exclude)
                assert [(i, np.float64(s).tobytes()) for i, s in got] == [
                    (i, np.float64(s).tobytes()) for i, s in want
                ]


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        vecs = {f"item-{i}": v for i, v in enumerate(unit_rows(rng, 12, 16))}
        idx = build_index(vecs)
        p = tmp_path / "x.bin"
        save_index(idx, p)
        loaded = load_index(p)
        assert loaded.ids.tolist() == idx.ids.tolist()
        assert np.array_equal(loaded.vectors, idx.vectors)
        p2 = tmp_path / "y.bin"
        save_index(loaded, p2)
        assert p.read_bytes() == p2.read_bytes()

    def test_loaded_id_array_is_that_of_the_built_index(self, tmp_path):
        idx = build_index({"b\u00e9": TOY["A"], "a": TOY["B"], "\U0001f600": TOY["C"]})
        save_index(idx, tmp_path / "x.bin")
        loaded = load_index(tmp_path / "x.bin")
        assert loaded.ids.dtype == idx.ids.dtype
        assert loaded.ids.tolist() == idx.ids.tolist() == ["a", "b\u00e9", "\U0001f600"]
        assert query_topk(loaded, np.array([1.0, 0.0]), 3) == query_topk(idx, np.array([1.0, 0.0]), 3)

    def test_ids_out_of_order_refused(self, tmp_path):
        # `build_index` orders its ids; the query path relies on no repeat
        save_index(RecIndex(np.array(["b", "a"]), np.eye(2)), tmp_path / "x.bin")
        with pytest.raises(ValueError, match="x.bin: ids do not rise strictly"):
            load_index(tmp_path / "x.bin")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"garbage")
        with pytest.raises(ValueError):
            load_index(p)
