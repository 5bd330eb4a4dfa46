import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec.data import CatalogItem, Interactions
from audiorec.graph import Csr, HeteroGraph, build_colisten_graph
from audiorec.io import read_pack
from audiorec.hgnn import (
    HgnnConfig,
    HgnnParams,
    _inference_plan,
    balanced_edge_sample,
    embed_all,
    embed_catalog,
    forward_states,
    sample_plan,
    train_hgnn,
)

from conftest import make_catalog, stream
from helpers_gradcheck import check_hgnn_gradients
from oracles import (
    aggregate_relation,
    all_neighbors,
    embed_inductive,
    forward,
    hinge_loss,
    sample_negatives,
    sample_neighborhood,
    update_node,
)


def toy_params(d_c=2, hidden=2, out=2, layers=2, seed=0, margin=0.4):
    config = HgnnConfig(hidden_dim=hidden, out_dim=out, fanouts=(3,) * layers, margin=margin)
    return HgnnParams.init(
        config, d_c, ("audiobook", "podcast"), ("aa", "ap", "pp"), seed=seed
    )


def set_identity(params, layer, rel=None, node_type=None):
    if rel:
        params.weights[f"agg.W.{layer}.{rel}"] = np.eye(2)
        params.weights[f"agg.b.{layer}.{rel}"] = np.zeros(2)
    if node_type:
        params.weights[f"upd.W.{layer}.{node_type}"] = np.eye(2)


class TestAggregate:
    def test_identity_weights_elementwise_max(self):
        p = toy_params()
        set_identity(p, 1, rel="aa")
        out = aggregate_relation(1, "aa", p, [np.array([1.0, -2.0]), np.array([0.0, 3.0])])
        assert np.array_equal(out, [1.0, 3.0])

    def test_empty_neighborhood_returns_zero(self):
        p = toy_params()
        assert np.array_equal(aggregate_relation(1, "aa", p, []), [0.0, 0.0])

    def test_swap_matrix(self):
        p = toy_params()
        p.weights["agg.W.1.ap"] = np.array([[0.0, 1.0], [1.0, 0.0]])
        p.weights["agg.b.1.ap"] = np.zeros(2)
        out = aggregate_relation(1, "ap", p, [np.array([2.0, -1.0])])
        assert np.array_equal(out, [0.0, 2.0])

    def test_dimension_mismatch_fatal(self):
        p = toy_params()
        with pytest.raises(ValueError, match="dimension"):
            aggregate_relation(1, "aa", p, [np.array([1.0, 2.0, 3.0])])


class TestUpdate:
    def test_identity_update(self):
        p = toy_params()
        set_identity(p, 1, node_type="audiobook")
        out = update_node(
            1, "audiobook", p, np.array([1.0, 1.0]),
            {"aa": np.array([0.5, -2.0]), "ap": np.array([0.0, 0.0])},
        )
        assert np.array_equal(out, [1.5, 0.0])

    def test_zero_pool_reduces_to_own_transform(self):
        p = toy_params()
        set_identity(p, 1, node_type="audiobook")
        out = update_node(
            1, "audiobook", p, np.array([2.0, -3.0]),
            {"aa": np.zeros(2), "ap": np.zeros(2)},
        )
        assert np.array_equal(out, [2.0, 0.0])

    def test_relu_kill(self):
        p = toy_params()
        set_identity(p, 1, node_type="audiobook")
        out = update_node(
            1, "audiobook", p, np.zeros(2),
            {"aa": np.array([-1.0, -1.0]), "ap": np.zeros(2)},
        )
        assert np.array_equal(out, [0.0, 0.0])

    def test_missing_relation_fatal(self):
        p = toy_params()
        with pytest.raises(ValueError, match="missing relation"):
            update_node(1, "audiobook", p, np.zeros(2), {"aa": np.zeros(2)})


def unit2(x):
    v = np.array([x, np.sqrt(max(0.0, 1.0 - x * x))])
    return v


class TestHingeLoss:
    def test_satisfied_margin(self):
        za = np.array([1.0, 0.0])
        assert hinge_loss(za, unit2(0.9), [unit2(0.2)], margin=0.5) == 0.0

    def test_violated_margin(self):
        za = np.array([1.0, 0.0])
        assert hinge_loss(za, unit2(0.1), [unit2(0.4)], margin=0.5) == pytest.approx(0.8)

    def test_mean_over_negatives(self):
        za = np.array([1.0, 0.0])
        negs = [unit2(0.4), np.array([-0.6, np.sqrt(1 - 0.36)])]
        assert hinge_loss(za, unit2(0.1), negs, margin=0.5) == pytest.approx(0.4)

    def test_empty_negatives_fatal(self):
        with pytest.raises(ValueError):
            hinge_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), [], 0.4)

    @given(
        s_pos=st.floats(min_value=-1, max_value=1),
        s_pos2=st.floats(min_value=-1, max_value=1),
        s_neg=st.floats(min_value=-1, max_value=1),
        margin=st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_positive_similarity(self, s_pos, s_pos2, s_neg, margin):
        za = np.array([1.0, 0.0])
        lo, hi = sorted([s_pos, s_pos2])
        loss_lo = hinge_loss(za, unit2(lo), [unit2(s_neg)], margin)
        loss_hi = hinge_loss(za, unit2(hi), [unit2(s_neg)], margin)
        assert loss_hi <= loss_lo + 1e-12


def chain_graph():
    """a0 - a1 - p0 - p1 chain plus isolated a2."""
    catalog = make_catalog(n_audiobooks=3, n_podcasts=2, d_c=4, seed=5)
    records = [
        stream("u1", "a0", catalog),
        stream("u1", "a1", catalog),
        stream("u2", "a1", catalog),
        stream("u2", "p0", catalog),
        stream("u3", "p0", catalog),
        stream("u3", "p1", catalog),
        stream("u4", "a2", catalog),
    ]
    return build_colisten_graph(Interactions.from_records(records), catalog), catalog


class TestSampling:
    def test_degree_below_fanout_keeps_all(self):
        g, _ = chain_graph()
        nb = sample_neighborhood(g, "a1", (5, 5), np.random.default_rng(0))
        top = nb.layers[1][nb.seed_ref]
        got = {("audiobook", int(i)) for i in top["audiobook"]}
        got |= {("podcast", int(i)) for i in top["podcast"]}
        assert got == all_neighbors(g, *nb.seed_ref)

    def test_fanout_bound_and_true_neighbors(self, small_graph):
        rng = np.random.default_rng(1)
        fanouts = (3, 2)
        for item_id in small_graph.nodes["audiobook"][:5]:
            nb = sample_neighborhood(small_graph, item_id, fanouts, rng)
            for k, layer in enumerate(nb.layers):
                for ref, per_src in layer.items():
                    for src, sampled in per_src.items():
                        assert len(sampled) <= fanouts[k]
                        assert len(set(sampled.tolist())) == len(sampled)
                        true = set(small_graph.adj[(ref[0], src)].neighbors(ref[1]).tolist())
                        assert set(sampled.tolist()) <= true

    def test_deterministic_given_rng_state(self, small_graph):
        item = small_graph.nodes["podcast"][0]
        nb1 = sample_neighborhood(small_graph, item, (3, 2), np.random.default_rng(9))
        nb2 = sample_neighborhood(small_graph, item, (3, 2), np.random.default_rng(9))
        for l1, l2 in zip(nb1.layers, nb2.layers):
            assert l1.keys() == l2.keys()
            for ref in l1:
                for src in l1[ref]:
                    assert np.array_equal(l1[ref][src], l2[ref][src])


def graph_with_edge_counts(n_aa, n_ap, n_pp, n_a=12, n_p=12):
    """Minimal HeteroGraph with the requested undirected edge counts."""
    rng = np.random.default_rng(0)

    def sample_pairs(n, size_a, size_b=None, distinct=True):
        out = set()
        while len(out) < n:
            i = int(rng.integers(0, size_a))
            j = int(rng.integers(0, size_b if size_b else size_a))
            if size_b is None:
                if i == j:
                    continue
                out.add((min(i, j), max(i, j)))
            else:
                out.add((i, j))
        return np.array(sorted(out), dtype=np.int64).reshape(len(out), 2)

    edges = {
        "aa": sample_pairs(n_aa, n_a) if n_aa else np.zeros((0, 2), dtype=np.int64),
        "ap": sample_pairs(n_ap, n_a, n_p) if n_ap else np.zeros((0, 2), dtype=np.int64),
        "pp": sample_pairs(n_pp, n_p) if n_pp else np.zeros((0, 2), dtype=np.int64),
    }

    def csr(n_dst, dst, src):
        order = np.lexsort((src, dst))
        counts = np.bincount(dst[order], minlength=n_dst) if len(dst) else np.zeros(n_dst, dtype=int)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return Csr(indptr, src[order].astype(np.int64))

    adj = {
        ("audiobook", "audiobook"): csr(
            n_a,
            np.concatenate([edges["aa"][:, 0], edges["aa"][:, 1]]),
            np.concatenate([edges["aa"][:, 1], edges["aa"][:, 0]]),
        ),
        ("audiobook", "podcast"): csr(n_a, edges["ap"][:, 0], edges["ap"][:, 1]),
        ("podcast", "audiobook"): csr(n_p, edges["ap"][:, 1], edges["ap"][:, 0]),
        ("podcast", "podcast"): csr(
            n_p,
            np.concatenate([edges["pp"][:, 0], edges["pp"][:, 1]]),
            np.concatenate([edges["pp"][:, 1], edges["pp"][:, 0]]),
        ),
    }
    return HeteroGraph(
        nodes={
            "audiobook": [f"a{i:02d}" for i in range(n_a)],
            "podcast": [f"p{i:02d}" for i in range(n_p)],
        },
        features={
            "audiobook": np.random.default_rng(1).normal(size=(n_a, 4)),
            "podcast": np.random.default_rng(2).normal(size=(n_p, 4)),
        },
        adj=adj,
        edges=edges,
        relations=("aa", "ap", "pp"),
    )


class TestBalancedSampler:
    def test_unbalanced_counts(self):
        g = graph_with_edge_counts(3, 10, 7)
        out = balanced_edge_sample(g, np.random.default_rng(0))
        counts = {}
        for rel, _, _ in out:
            counts[rel] = counts.get(rel, 0) + 1
        assert counts == {"aa": 3, "ap": 3, "pp": 3}

    def test_already_balanced_returns_everything(self):
        g = graph_with_edge_counts(5, 5, 5)
        out = balanced_edge_sample(g, np.random.default_rng(0))
        assert len(out) == 15
        assert {(rel, i, j) for rel, i, j in out} == {
            (rel, int(p[0]), int(p[1])) for rel in g.edges for p in g.edges[rel]
        }

    def test_zero_relation_excluded_from_minimum(self):
        g = graph_with_edge_counts(0, 4, 9)
        out = balanced_edge_sample(g, np.random.default_rng(0))
        counts = {}
        for rel, _, _ in out:
            counts[rel] = counts.get(rel, 0) + 1
        assert counts == {"ap": 4, "pp": 4}

    def test_no_edges_fatal(self):
        g = graph_with_edge_counts(0, 0, 0)
        with pytest.raises(ValueError):
            balanced_edge_sample(g, np.random.default_rng(0))

    def test_balance_over_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n_aa, n_ap, n_pp = (int(x) for x in rng.integers(0, 12, size=3))
            if n_aa + n_ap + n_pp == 0:
                continue
            g = graph_with_edge_counts(n_aa, n_ap, n_pp)
            out = balanced_edge_sample(g, rng)
            counts = {"aa": 0, "ap": 0, "pp": 0}
            for rel, i, j in out:
                counts[rel] += 1
                assert [i, j] in g.edges[rel].tolist()
            nonzero = [c for c in (n_aa, n_ap, n_pp) if c > 0]
            expected = min(nonzero)
            for rel, n in zip(("aa", "ap", "pp"), (n_aa, n_ap, n_pp)):
                assert counts[rel] == (expected if n > 0 else 0)


class TestNegativeSampling:
    def test_rejects_anchor_and_neighbors(self):
        g, _ = chain_graph()
        # a1 is adjacent to a0 and p0; candidates are a2 and p1
        rng = np.random.default_rng(0)
        out = sample_negatives(g, "a1", 40, rng)
        assert set(out) <= {"a2", "p1"}
        assert len(out) == 40

    def test_isolated_anchor_samples_everyone_else(self):
        g, _ = chain_graph()
        out = sample_negatives(g, "a2", 50, np.random.default_rng(1))
        assert set(out) <= {"a0", "a1", "p0", "p1"}

    def test_reproducible(self, small_graph):
        a = sample_negatives(small_graph, small_graph.nodes["audiobook"][0], 10, np.random.default_rng(5))
        b = sample_negatives(small_graph, small_graph.nodes["audiobook"][0], 10, np.random.default_rng(5))
        assert a == b

    def test_dense_graph_fatal(self):
        catalog = make_catalog(n_audiobooks=2, n_podcasts=0)
        records = [stream("u1", "a0", catalog), stream("u1", "a1", catalog)]
        g = build_colisten_graph(Interactions.from_records(records), catalog)
        with pytest.raises(RuntimeError):
            sample_negatives(g, "a0", 2, np.random.default_rng(0))


class TestForward:
    def test_unit_norm(self, small_graph, small_hgnn_config):
        params = HgnnParams.init(
            small_hgnn_config, 8, small_graph.node_types, small_graph.relations, seed=3
        )
        table = embed_all(small_graph, params)
        norms = np.linalg.norm(table.matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_isolated_node_content_only(self):
        g, catalog = chain_graph()
        params = HgnnParams.init(
            HgnnConfig(hidden_dim=3, out_dim=3, fanouts=(2, 2)), 4, g.node_types, g.relations, seed=2
        )
        table = embed_all(g, params)
        z_inductive, _ = embed_inductive(params, "audiobook", catalog["a2"].content_vector)
        assert np.allclose(table.get("a2"), z_inductive, atol=1e-12)

    def test_sampled_equals_full_when_fanout_covers_degree(self, small_graph, small_hgnn_config):
        params = HgnnParams.init(
            small_hgnn_config, 8, small_graph.node_types, small_graph.relations, seed=4
        )
        big = max(len(csr.indices) for csr in small_graph.adj.values()) + 1
        sampled = forward_states(
            small_graph, params, sample_plan(small_graph, (big, big), np.random.default_rng(0))
        )
        full = forward_states(small_graph, params, _inference_plan(small_graph, params.config))
        assert np.array_equal(sampled.z, full.z)  # bit-for-bit

    def test_per_seed_forward_matches_batched(self):
        g, _ = chain_graph()
        params = HgnnParams.init(
            HgnnConfig(hidden_dim=3, out_dim=3, fanouts=(50, 50)), 4, g.node_types, g.relations, seed=6
        )
        table = embed_all(g, params)
        nbs = [
            sample_neighborhood(g, i, (50, 50), np.random.default_rng(0))
            for i in table.item_ids
        ]
        out = forward(g, params, nbs)
        for item_id in table.item_ids:
            assert np.allclose(out[item_id], table.get(item_id), atol=1e-12)
            assert abs(np.linalg.norm(out[item_id]) - 1.0) < 1e-6


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 4 and seed < 60:
            ok, err = check_hgnn_gradients(seed)
            seed += 1
            if not ok:
                continue
            checked += 1
            assert err < 1e-3, f"seed {seed - 1}: rel error {err}"
        assert checked == 4


class TestTraining:
    def test_loss_decreases(self, trained_hgnn):
        log = trained_hgnn.log
        assert len(log) >= 3
        first = np.mean([e.train_loss for e in log[:2]])
        last = np.mean([e.train_loss for e in log[-2:]])
        assert last < first

    def test_deterministic_checksum(self, small_graph):
        cfg_small = HgnnConfig(
            hidden_dim=8, out_dim=8, fanouts=(4, 4), n_negatives=2,
            batch_size=64, max_epochs=2, patience=2,
        )
        runs = []
        for _ in range(2):
            params = HgnnParams.init(
                cfg_small, 8, small_graph.node_types, small_graph.relations, seed=7
            )
            result = train_hgnn(small_graph, params, seed=7)
            runs.append(result.params.checksum())
        assert runs[0] == runs[1]

    def test_weights_the_config_does_not_describe_are_refused(
        self, small_graph, small_hgnn_config, tmp_path
    ):
        # 16-wide weights under a config of 8-wide layers
        params = HgnnParams.init(
            small_hgnn_config, 8, small_graph.node_types, small_graph.relations, seed=7
        )
        params.config = dataclasses.replace(small_hgnn_config, hidden_dim=8, out_dim=8)
        first = params.layout()[0][0]
        shape = re.escape("has shape [16, 8], expected [8, 8]")
        with pytest.raises(ValueError, match=f"^hgnn params: array '{re.escape(first)}' {shape}"):
            train_hgnn(small_graph, params, seed=7)
        path = tmp_path / "hgnn_params.bin"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: array '{re.escape(first)}'"):
            params.save(path)
        assert not path.exists()
        # a missing or an extra weight is refused as well
        for weights in (
            {k: v for k, v in params.weights.items() if k != first},
            {**params.weights, "agg.W.9.aa": np.zeros(1)},
        ):
            described = HgnnParams(
                small_hgnn_config, 8, small_graph.node_types, small_graph.relations, weights
            )
            with pytest.raises(ValueError, match="array 'agg.W"):
                train_hgnn(small_graph, described, seed=7)

    def test_balanced_epoch_counts_logged(self, trained_hgnn):
        for entry in trained_hgnn.log:
            nonzero = [c for c in entry.sampled_edges.values() if c > 0]
            assert len(set(nonzero)) == 1  # balanced across relations

    def test_params_finite(self, trained_hgnn):
        for w in trained_hgnn.params.weights.values():
            assert np.all(np.isfinite(w))


class TestEmbedding:
    def test_embed_all_deterministic(self, small_graph, trained_hgnn):
        t1 = embed_all(small_graph, trained_hgnn.params)
        t2 = embed_all(small_graph, trained_hgnn.params)
        assert np.array_equal(t1.matrix, t2.matrix)
        assert t1.item_ids == t2.item_ids

    def test_embed_catalog_covers_catalog(self, small_graph, small_synth, small_embeddings):
        _, catalog = small_synth
        in_graph = [i for t in small_graph.node_types for i in small_graph.nodes[t]]
        assert small_embeddings.item_ids[: len(in_graph)] == in_graph
        assert set(small_embeddings.item_ids[len(in_graph) :]) == set(catalog) - set(in_graph)

    def test_unit_norms(self, small_embeddings):
        norms = np.linalg.norm(small_embeddings.matrix, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-6)

    def test_inductive_rows_match_content_only_oracle(
        self, small_graph, small_synth, small_embeddings, trained_hgnn
    ):
        _, catalog = small_synth
        in_graph = {i for ids in small_graph.nodes.values() for i in ids}
        rows = [i for i, item_id in enumerate(small_embeddings.item_ids) if item_id not in in_graph]
        assert len(rows) > 0
        for i in rows:
            item = catalog[small_embeddings.item_ids[i]]
            z, _ = embed_inductive(trained_hgnn.params, item.item_type, item.content_vector)
            assert np.allclose(small_embeddings.matrix[i], z, rtol=0, atol=1e-12)

    def test_zero_content_item_gets_the_fallback_row(self):
        catalog = make_catalog(n_audiobooks=3, n_podcasts=2, d_c=4, seed=5)
        catalog["a2"] = CatalogItem("a2", "audiobook", np.zeros(4), "en", "g0")
        records = [stream("u1", i, catalog) for i in ("a0", "a1", "p0", "p1")]
        g = build_colisten_graph(Interactions.from_records(records), catalog)
        params = HgnnParams.init(
            HgnnConfig(hidden_dim=3, out_dim=3, fanouts=(2, 2)), 4, g.node_types, g.relations, seed=2
        )
        table = embed_catalog(g, params, catalog)
        z, fell_back = embed_inductive(params, "audiobook", catalog["a2"].content_vector)
        assert fell_back and np.array_equal(z, [1.0, 0.0, 0.0])
        assert np.allclose(table.get("a2"), z, rtol=0, atol=1e-12)

    def test_homogeneous_params_embed_every_type(self):
        catalog = make_catalog(n_audiobooks=3, n_podcasts=3, d_c=4, seed=5)
        records = [stream("u1", "p0", catalog), stream("u1", "p1", catalog)]
        g = build_colisten_graph(Interactions.from_records(records), catalog, relations=("pp",))
        params = HgnnParams.init(
            HgnnConfig(hidden_dim=3, out_dim=3, fanouts=(2, 2)), 4, g.node_types, g.relations, seed=2
        )
        table = embed_catalog(g, params, catalog)
        assert table.item_ids == ["p0", "p1", "a0", "a1", "a2", "p2"]
        types = [catalog[i].item_type for i in table.item_ids]
        assert types == ["podcast"] * 2 + ["audiobook"] * 3 + ["podcast"]
        for i, item_id in enumerate(table.item_ids[2:], start=2):
            item = catalog[item_id]
            z, _ = embed_inductive(params, item.item_type, item.content_vector)
            assert np.allclose(table.matrix[i], z, rtol=0, atol=1e-12)

    def test_table_round_trip(self, small_embeddings, tmp_path):
        p = tmp_path / "emb.bin"
        small_embeddings.save(p)
        from audiorec.hgnn import NodeEmbeddingTable

        loaded = NodeEmbeddingTable.load(p)
        assert loaded.item_ids == small_embeddings.item_ids
        assert np.array_equal(loaded.matrix, small_embeddings.matrix)
        assert set(read_pack(p, "embeddings")[1].shapes) == {"item_ids", "matrix"}


class TestCheckpoint:
    def test_round_trip_exact(self, trained_hgnn, tmp_path):
        p1 = tmp_path / "params1.bin"
        p2 = tmp_path / "params2.bin"
        trained_hgnn.params.save(p1)
        loaded = HgnnParams.load(p1)
        assert loaded.checksum() == trained_hgnn.params.checksum()
        assert loaded.config == trained_hgnn.params.config
        loaded.save(p2)
        assert p1.read_bytes() == p2.read_bytes()
