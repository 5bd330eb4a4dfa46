import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec.data import InteractionRecord
from audiorec.graph import build_colisten_graph, graph_stats, load_graph, save_graph
from audiorec.index import build_index, save_index

from conftest import make_catalog, stream


def brute_force_edges(records, catalog, min_co_users=1, streams_only=True):
    """Reference: for every item pair, count users who streamed both."""
    per_user = {}
    for r in records:
        if streams_only and r.signal != "stream":
            continue
        per_user.setdefault(r.user_id, set()).add(r.item_id)
    ids = sorted({i for items in per_user.values() for i in items})
    edges = set()
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            n = sum(1 for items in per_user.values() if a in items and b in items)
            if n >= min_co_users:
                edges.add((a, b))
    return edges


def graph_edge_ids(graph):
    out = set()
    for rel, pairs in graph.edges.items():
        t1, t2 = {"aa": ("audiobook", "audiobook"), "ap": ("audiobook", "podcast"), "pp": ("podcast", "podcast")}[rel]
        for i, j in pairs:
            a, b = graph.nodes[t1][int(i)], graph.nodes[t2][int(j)]
            out.add((min(a, b), max(a, b)))
    return out


class TestBuildGraph:
    def test_two_user_example(self):
        catalog = make_catalog()
        records = [
            stream("u1", "a1", catalog),
            stream("u1", "p1", catalog),
            stream("u2", "p1", catalog),
            stream("u2", "p2", catalog),
        ]
        g = build_colisten_graph(records, catalog)
        assert graph_edge_ids(g) == {("a1", "p1"), ("p1", "p2")}
        st_ = graph_stats(g)
        assert st_.edge_counts == {"aa": 0, "ap": 1, "pp": 1}

    def test_single_item_user_no_edges(self):
        catalog = make_catalog()
        g = build_colisten_graph([stream("u1", "a1", catalog)], catalog)
        assert graph_edge_ids(g) == set()

    def test_min_co_users_threshold(self):
        catalog = make_catalog()
        records = [
            stream("u1", "a1", catalog),
            stream("u1", "a2", catalog),
            stream("u2", "a1", catalog),
            stream("u2", "a2", catalog),
        ]
        g2 = build_colisten_graph(records, catalog, min_co_users=2)
        assert graph_edge_ids(g2) == {("a1", "a2")}
        g3 = build_colisten_graph(records, catalog, min_co_users=3)
        assert graph_edge_ids(g3) == set()

    def test_weak_signals_make_no_edges(self):
        catalog = make_catalog()
        records = [
            InteractionRecord("u1", "a1", "audiobook", "follow", 0),
            InteractionRecord("u1", "a2", "audiobook", "preview", 0),
            stream("u1", "p1", catalog),
        ]
        g = build_colisten_graph(records, catalog)
        assert graph_edge_ids(g) == set()
        assert g.nodes["audiobook"] == []  # weak signals make no nodes either
        g_all = build_colisten_graph(records, catalog, include_all_signals=True)
        assert ("a1", "a2") in graph_edge_ids(g_all)

    def test_unknown_item_fatal(self):
        catalog = make_catalog()
        records = [InteractionRecord("u1", "zz", "audiobook", "stream", 0)]
        with pytest.raises(ValueError, match="zz"):
            build_colisten_graph(records, catalog)

    def test_empty_train_fatal(self):
        with pytest.raises(ValueError):
            build_colisten_graph([], make_catalog())

    def test_relation_subset(self):
        catalog = make_catalog()
        records = [
            stream("u1", "a1", catalog),
            stream("u1", "a2", catalog),
            stream("u1", "p1", catalog),
            stream("u2", "p1", catalog),
            stream("u2", "p2", catalog),
        ]
        g = build_colisten_graph(records, catalog, relations=("pp",))
        assert set(g.nodes) == {"podcast"}
        assert graph_edge_ids(g) == {("p1", "p2")}
        g2 = build_colisten_graph(records, catalog, relations=("aa", "ap"))
        assert graph_edge_ids(g2) == {("a1", "a2"), ("a1", "p1"), ("a2", "p1")}


class TestStats:
    def test_triangle_counts_and_degrees(self):
        catalog = make_catalog()
        records = []
        for u, (x, y) in enumerate([("a1", "a2"), ("a2", "a3"), ("a1", "a3")]):
            records += [stream(f"u{u}", x, catalog), stream(f"u{u}", y, catalog)]
        g = build_colisten_graph(records, catalog)
        st_ = graph_stats(g)
        assert st_.edge_counts["aa"] == 3
        assert st_.degree_summary["aa"] == {"min": 2.0, "mean": 2.0, "max": 2.0}

    def test_empty_edge_graph(self):
        catalog = make_catalog()
        g = build_colisten_graph([stream("u1", "a1", catalog)], catalog)
        st_ = graph_stats(g)
        assert all(c == 0 for c in st_.edge_counts.values())
        assert st_.degree_summary["aa"]["max"] == 0.0

    def test_counts_match_adjacency_recount(self, small_graph):
        st_ = graph_stats(small_graph)
        for rel, pairs in small_graph.edges.items():
            assert st_.edge_counts[rel] == len(pairs)
        # undirected edges appear once in `edges` and twice across adjacency
        total_directed = sum(len(csr.indices) for csr in small_graph.adj.values())
        assert total_directed == 2 * sum(st_.edge_counts.values())


class TestGraphProperties:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        catalog = make_catalog(
            n_audiobooks=int(rng.integers(2, 8)),
            n_podcasts=int(rng.integers(2, 8)),
            seed=seed,
        )
        records = []
        for u in range(int(rng.integers(1, 20))):
            ids = list(catalog)
            k = int(rng.integers(1, min(6, len(ids)) + 1))
            for item in rng.choice(ids, size=k, replace=False):
                records.append(stream(f"u{u}", str(item), catalog, int(rng.integers(0, 100))))
        min_co = int(rng.integers(1, 3))
        g = build_colisten_graph(records, catalog, min_co_users=min_co)
        assert graph_edge_ids(g) == brute_force_edges(records, catalog, min_co)

    def test_symmetry(self, small_graph):
        g = small_graph
        for (dst, src), csr in g.adj.items():
            back = g.adj[(src, dst)]
            for i in range(len(g.nodes[dst])):
                for j in csr.neighbors(i):
                    assert i in back.neighbors(int(j))

    def test_idempotent_rebuild(self, small_split, small_synth, tmp_path):
        _, catalog = small_synth
        g1 = build_colisten_graph(small_split.train, catalog, min_co_users=2)
        g2 = build_colisten_graph(small_split.train, catalog, min_co_users=2)
        save_graph(g1, tmp_path / "g1.bin")
        save_graph(g2, tmp_path / "g2.bin")
        assert (tmp_path / "g1.bin").read_bytes() == (tmp_path / "g2.bin").read_bytes()

    def test_adjacency_in_range(self, small_graph):
        for (dst, src), csr in small_graph.adj.items():
            if len(csr.indices):
                assert csr.indices.min() >= 0
                assert csr.indices.max() < len(small_graph.nodes[src])

    def test_no_self_loops_or_duplicates(self, small_graph):
        for rel, pairs in small_graph.edges.items():
            seen = set()
            for i, j in pairs:
                key = (int(i), int(j))
                assert key not in seen
                seen.add(key)
                if rel in ("aa", "pp"):
                    assert i != j


class TestSerialization:
    def test_round_trip_byte_exact(self, small_graph, tmp_path):
        p1 = tmp_path / "g1.bin"
        p2 = tmp_path / "g2.bin"
        save_graph(small_graph, p1)
        g2 = load_graph(p1)
        save_graph(g2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_content(self, small_graph, tmp_path):
        p = tmp_path / "g.bin"
        save_graph(small_graph, p)
        g2 = load_graph(p)
        assert g2.nodes == small_graph.nodes
        for t in small_graph.features:
            assert np.array_equal(g2.features[t], small_graph.features[t])
        for key in small_graph.adj:
            assert np.array_equal(g2.adj[key].indptr, small_graph.adj[key].indptr)
            assert np.array_equal(g2.adj[key].indices, small_graph.adj[key].indices)

    def test_wrong_kind_rejected(self, tmp_path):
        p = tmp_path / "index.bin"
        save_index(build_index({"a": np.array([1.0, 0.0])}), p)
        with pytest.raises(ValueError, match="not a graph"):
            load_graph(p)
