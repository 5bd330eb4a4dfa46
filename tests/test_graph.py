import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec.data import CatalogItem, InteractionRecord, Interactions, timeline_split
from audiorec.graph import build_colisten_graph, graph_stats, load_graph, save_graph
from audiorec.index import build_index, save_index
from audiorec.io import read_pack
from audiorec.synth import SynthConfig, synth_generate

from conftest import join_container, make_catalog, split_container, stream
from oracles import build_colisten_graph_loop


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
        g = build_colisten_graph(Interactions.from_records(records), catalog)
        assert graph_edge_ids(g) == {("a1", "p1"), ("p1", "p2")}
        st_ = graph_stats(g)
        assert st_.edge_counts == {"aa": 0, "ap": 1, "pp": 1}

    def test_single_item_user_no_edges(self):
        catalog = make_catalog()
        g = build_colisten_graph(Interactions.from_records([stream("u1", "a1", catalog)]), catalog)
        assert graph_edge_ids(g) == set()

    def test_min_co_users_threshold(self):
        catalog = make_catalog()
        records = [
            stream("u1", "a1", catalog),
            stream("u1", "a2", catalog),
            stream("u2", "a1", catalog),
            stream("u2", "a2", catalog),
        ]
        g2 = build_colisten_graph(Interactions.from_records(records), catalog, min_co_users=2)
        assert graph_edge_ids(g2) == {("a1", "a2")}
        g3 = build_colisten_graph(Interactions.from_records(records), catalog, min_co_users=3)
        assert graph_edge_ids(g3) == set()

    def test_weak_signals_make_no_edges(self):
        catalog = make_catalog()
        records = [
            InteractionRecord("u1", "a1", "audiobook", "follow", 0),
            InteractionRecord("u1", "a2", "audiobook", "preview", 0),
            stream("u1", "p1", catalog),
        ]
        g = build_colisten_graph(Interactions.from_records(records), catalog)
        assert graph_edge_ids(g) == set()
        assert g.nodes["audiobook"] == []  # weak signals make no nodes either

    def test_unknown_item_fatal(self):
        catalog = make_catalog()
        records = [InteractionRecord("u1", "zz", "audiobook", "stream", 0)]
        with pytest.raises(ValueError, match="zz"):
            build_colisten_graph(Interactions.from_records(records), catalog)

    def test_empty_train_fatal(self):
        with pytest.raises(ValueError):
            build_colisten_graph(Interactions.from_records([]), make_catalog())

    def test_relation_subset(self):
        catalog = make_catalog()
        records = [
            stream("u1", "a1", catalog),
            stream("u1", "a2", catalog),
            stream("u1", "p1", catalog),
            stream("u2", "p1", catalog),
            stream("u2", "p2", catalog),
        ]
        g = build_colisten_graph(Interactions.from_records(records), catalog, relations=("pp",))
        assert set(g.nodes) == {"podcast"}
        assert graph_edge_ids(g) == {("p1", "p2")}
        g2 = build_colisten_graph(Interactions.from_records(records), catalog, relations=("aa", "ap"))
        assert graph_edge_ids(g2) == {("a1", "a2"), ("a1", "p1"), ("a2", "p1")}


class TestStats:
    def test_triangle_counts_and_degrees(self):
        catalog = make_catalog()
        records = []
        for u, (x, y) in enumerate([("a1", "a2"), ("a2", "a3"), ("a1", "a3")]):
            records += [stream(f"u{u}", x, catalog), stream(f"u{u}", y, catalog)]
        g = build_colisten_graph(Interactions.from_records(records), catalog)
        st_ = graph_stats(g)
        assert st_.edge_counts["aa"] == 3
        assert st_.degree_summary["aa"] == {"min": 2.0, "mean": 2.0, "max": 2.0}

    def test_empty_edge_graph(self):
        catalog = make_catalog()
        g = build_colisten_graph(Interactions.from_records([stream("u1", "a1", catalog)]), catalog)
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
        g = build_colisten_graph(Interactions.from_records(records), catalog, min_co_users=min_co)
        assert graph_edge_ids(g) == brute_force_edges(records, catalog, min_co)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_pair_loop_byte_for_byte(self, seed):
        # ids of both types interleave in id order, so `ap` pairs come both ways round
        rng = np.random.default_rng(seed)
        n_items = int(rng.integers(1, 14))
        ids = [str(i) for i in rng.choice(200, size=n_items, replace=False)]
        catalog = {
            i: CatalogItem(i, str(rng.choice(["audiobook", "podcast"])), rng.normal(size=3), "en", "g")
            for i in ids
        }
        records = []
        for u in range(int(rng.integers(1, 12))):
            for _ in range(int(rng.integers(1, 9))):  # repeats of one item by one user, too
                item = str(rng.choice(ids))
                weak = catalog[item].item_type == "audiobook" and rng.random() < 0.2
                signal = str(rng.choice(["follow", "preview"])) if weak else "stream"
                records.append(InteractionRecord(f"u{u}", item, catalog[item].item_type, signal, 0))
        if rng.random() < 0.2:  # items absent from the catalog: the first one is named
            for user, item in (("u9", "zz"), ("u8", "zy"))[: int(rng.integers(1, 3))]:
                at = int(rng.integers(0, len(records) + 1))
                records.insert(at, InteractionRecord(user, item, "podcast", "follow", 4))
        subsets = (("aa",), ("ap",), ("pp",), ("aa", "ap"), ("aa", "pp"), ("ap", "pp"), ("aa", "ap", "pp"))
        relations = subsets[int(rng.integers(len(subsets)))]
        min_co = int(rng.integers(1, 4))

        def build(fn):
            try:
                return fn(records, catalog, min_co_users=min_co, relations=relations)
            except ValueError as exc:
                return str(exc)

        got = build(lambda train, *args, **kwargs: build_colisten_graph(Interactions.from_records(train), *args, **kwargs))
        want = build(build_colisten_graph_loop)
        if isinstance(want, str):
            assert got == want
            return
        assert got.nodes == want.nodes and got.relations == want.relations

        def same(a, b):
            return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        assert list(got.edges) == list(want.edges)
        assert all(same(got.edges[r], want.edges[r]) for r in want.edges)
        assert list(got.adj) == list(want.adj)
        for key, csr in want.adj.items():
            assert same(got.adj[key].indptr, csr.indptr) and same(got.adj[key].indices, csr.indices)
        assert list(got.features) == list(want.features)
        assert all(same(got.features[t], want.features[t]) for t in want.features)

    def test_symmetry(self, small_graph):
        g = small_graph
        for (dst, src), csr in g.adj.items():
            back = g.adj[(src, dst)]
            for i in range(len(g.nodes[dst])):
                for j in csr.neighbors(i):
                    assert i in back.neighbors(int(j))

    def test_idempotent_rebuild(self, small_split, small_synth, tmp_path):
        _, catalog = small_synth
        g1 = build_colisten_graph(Interactions.from_records(small_split.train), catalog, min_co_users=2)
        g2 = build_colisten_graph(Interactions.from_records(small_split.train), catalog, min_co_users=2)
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

    @pytest.mark.parametrize("relations", [["zz"], ["a"], ["pp", "xy"]])
    def test_unknown_relation_rejected_naming_the_file(self, small_graph, relations, tmp_path):
        p = tmp_path / "g.bin"
        save_graph(small_graph, p)
        header, payload = split_container(p.read_bytes())
        header["meta"]["relations"] = relations
        p.write_bytes(join_container(header, payload))
        unknown = sorted(set(relations) - {"aa", "ap", "pp"})[0]
        with pytest.raises(ValueError, match=f"g.bin: unknown relation '{unknown}'"):
            load_graph(p)

    def test_wrong_kind_rejected(self, tmp_path):
        p = tmp_path / "index.bin"
        save_index(build_index({"a": np.array([1.0, 0.0])}), p)
        with pytest.raises(ValueError, match="kind is 'index', expected 'graph'"):
            load_graph(p)


# the synthetic data of the wide-catalog benchmark workload
WIDE_SYNTH = SynthConfig(
    n_users=2000,
    n_podcasts=2000,
    n_audiobooks=1000,
    podcast_stream_rate=0.001,
    audiobook_stream_rate=0.0005,
    n_cold_items=50,
)


class TestEdgesFromAdjacency:
    """`graph.bin` stores no edge lists: `load_graph` reads them off the CSR
    adjacency, and must give back the arrays `build_colisten_graph` made."""

    def check(self, graph, tmp_path):
        save_graph(graph, tmp_path / "g.bin")
        loaded = load_graph(tmp_path / "g.bin")
        assert list(loaded.edges) == list(graph.edges)
        for rel, pairs in graph.edges.items():
            assert loaded.edges[rel].dtype == np.int64
            assert loaded.edges[rel].shape == pairs.shape
            assert np.array_equal(loaded.edges[rel], pairs), rel

    @pytest.mark.parametrize(
        "synth,settings",
        [
            (SynthConfig(), {}),
            (SynthConfig(), {"relations": ("pp",)}),
            (SynthConfig(), {"min_co_users": 2}),
            (WIDE_SYNTH, {}),
        ],
        ids=["default", "pp-only", "min-co-users-2", "wide"],
    )
    def test_seed_7_graphs(self, synth, settings, tmp_path):
        records, catalog = synth_generate(synth, seed=7)
        graph = build_colisten_graph(Interactions.from_records(timeline_split(records).train), catalog, **settings)
        assert all(len(pairs) for pairs in graph.edges.values())
        self.check(graph, tmp_path)

    def test_relation_without_edges(self, tmp_path):
        catalog = make_catalog()
        records = [stream("u1", "a1", catalog), stream("u1", "p1", catalog)]
        records += [stream("u2", "p1", catalog), stream("u2", "p2", catalog)]
        graph = build_colisten_graph(Interactions.from_records(records), catalog)
        assert len(graph.edges["aa"]) == 0 and len(graph.edges["ap"]) == 1
        self.check(graph, tmp_path)

    def test_container_holds_no_edge_arrays(self, small_graph, tmp_path):
        save_graph(small_graph, tmp_path / "g.bin")
        _, arrays = read_pack(tmp_path / "g.bin", "graph")
        assert not [name for name in arrays if name.startswith("edges.")]
