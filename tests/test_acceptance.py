"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The multi-seed benchmark (criteria 8-9) runs the file pipeline for the
full model and its variants on ten generated datasets and is shared through a
module fixture.
"""

import time

import numpy as np
import pytest

from audiorec import io
from audiorec.benchmark import (
    TOWER_VARIANTS,
    run_ordering_benchmark,
    run_ordering_seed,
    run_weak_signal_seeds,
)
from audiorec.data import Interactions, parse_catalog, parse_interactions
from audiorec.evaluate import coverage, hit_rate_at_k, mrr
from audiorec.graph import build_colisten_graph, load_graph
from audiorec.hgnn import HgnnParams, NodeEmbeddingTable, balanced_edge_sample
from audiorec.index import build_index, load_index, query_topk
from audiorec.pipeline import PipelineConfig, run_pipeline
from audiorec.recommenders import TwoTowerRecommender
from audiorec.two_tower import TowerParams, UserHistoryTable, user_tower_output

from conftest import make_catalog, stream
from helpers_gradcheck import check_hgnn_gradients, check_tower_gradients
from oracles import embed_inductive, scan_user_inputs
from test_hgnn import graph_with_edge_counts


def announce(n, name, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"\n[acceptance] criterion {n} ({name}): PASS{suffix}")


# ---------------------------------------------------------------------------
# Criterion 1: gradient oracle for both models.
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    results = {}
    for name, checker in (("hgnn", check_hgnn_gradients), ("tower", check_tower_gradients)):
        errors = []
        seed = 0
        while len(errors) < 20:
            assert seed < 500, f"could not find 20 checkable {name} instances"
            ok, err = checker(seed)
            seed += 1
            if ok:
                errors.append(err)
        assert max(errors) < 1e-3, f"{name}: max relative error {max(errors)}"
        results[name] = max(errors)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient oracle took {elapsed:.1f}s"
    announce(
        1,
        "gradient oracle",
        f"20+20 instances, max rel err hgnn {results['hgnn']:.2e}, "
        f"tower {results['tower']:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# Criterion 2: balanced sampler exactness over 100 random graphs.
# ---------------------------------------------------------------------------


def test_criterion_2_sampler_balance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    trials = 0
    while trials < 100:
        n_aa, n_ap, n_pp = (int(x) for x in rng.integers(0, 15, size=3))
        if n_aa + n_ap + n_pp == 0:
            continue
        trials += 1
        graph = graph_with_edge_counts(n_aa, n_ap, n_pp)
        sample = balanced_edge_sample(graph, rng)
        counts = {"aa": 0, "ap": 0, "pp": 0}
        for rel, i, j in sample:
            counts[rel] += 1
            assert [i, j] in graph.edges[rel].tolist()
        expected = min(c for c in (n_aa, n_ap, n_pp) if c > 0)
        for rel, n in zip(("aa", "ap", "pp"), (n_aa, n_ap, n_pp)):
            assert counts[rel] == (expected if n > 0 else 0)
        # no duplicates within a relation (sampled without replacement)
        assert len(set(sample)) == len(sample)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(2, "sampler balance", f"100 graphs, exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 3: metric oracle over 100 randomized instances.
# ---------------------------------------------------------------------------


def test_criterion_3_metric_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    for _ in range(100):
        n_items = int(rng.integers(3, 41))
        n_users = int(rng.integers(1, 51))
        items = [f"i{j:02d}" for j in range(n_items)]
        recs = {}
        rel = {}
        for u in range(n_users):
            length = int(rng.integers(1, n_items + 1))
            recs[f"u{u}"] = [str(x) for x in rng.permutation(items)[:length]]
            rel[f"u{u}"] = {
                str(x)
                for x in rng.choice(items, size=int(rng.integers(1, min(5, n_items) + 1)), replace=False)
            }
        k = int(rng.integers(1, 15))
        # independent brute-force recomputation
        hits, rrs, union = [], [], set()
        for u in sorted(recs):
            hits.append(1.0 if any(i in rel[u] for i in recs[u][:k]) else 0.0)
            rr = 0.0
            for rank, item in enumerate(recs[u][:100], start=1):
                if item in rel[u]:
                    rr = 1.0 / rank
                    break
            rrs.append(rr)
            union.update(recs[u][:100])
        assert hit_rate_at_k(recs, rel, k) == float(np.mean(hits))
        assert mrr(recs, rel) == float(np.mean(rrs))
        assert coverage(recs, set(items)) == len(union & set(items)) / n_items
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(3, "metric oracle", f"100 instances, exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 4: co-listening graph oracle over 100 random logs.
# ---------------------------------------------------------------------------


def test_criterion_4_graph_oracle():
    from test_graph import brute_force_edges, graph_edge_ids

    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    for trial in range(100):
        n_ab = int(rng.integers(1, 20))
        n_pod = int(rng.integers(1, 41 - n_ab))
        catalog = make_catalog(n_audiobooks=n_ab, n_podcasts=n_pod, seed=trial)
        records = []
        ids = list(catalog)
        for u in range(int(rng.integers(1, 51))):
            k = int(rng.integers(1, min(7, len(ids)) + 1))
            for item in rng.choice(ids, size=k, replace=False):
                records.append(stream(f"u{u}", str(item), catalog, int(rng.integers(0, 50))))
        min_co = int(rng.integers(1, 3))
        graph = build_colisten_graph(Interactions.from_records(records), catalog, min_co_users=min_co)
        assert graph_edge_ids(graph) == brute_force_edges(records, catalog, min_co)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(4, "graph oracle", f"100 logs, exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criterion 5: retrieval oracle over 1000 queries with ties and exclusions.
# ---------------------------------------------------------------------------


def test_criterion_5_retrieval_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    base = rng.normal(size=(60, 8))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    vectors = {f"i{j:03d}": base[j] for j in range(60)}
    for j in range(10):  # duplicated rows force exact score ties
        vectors[f"tie{j:02d}"] = base[j]
    index = build_index(vectors)
    ids = sorted(vectors)
    for _ in range(1000):
        q = rng.normal(size=8)
        k = int(rng.integers(1, 30))
        n_excl = int(rng.integers(0, 8))
        exclude = {str(x) for x in rng.choice(ids, size=n_excl, replace=False)}
        expected = sorted(
            ((i, float(vectors[i] @ q)) for i in ids if i not in exclude),
            key=lambda p: (-p[1], p[0]),
        )[:k]
        got = query_topk(index, q, k, exclude)
        assert [i for i, _ in got] == [i for i, _ in expected]
        for (_, s_got), (_, s_exp) in zip(got, expected):
            assert abs(s_got - s_exp) < 1e-12
        assert not ({i for i, _ in got} & exclude)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    announce(5, "retrieval oracle", f"1000 queries incl. ties/exclusions, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# Criteria 6 and 7 share one full-scale pipeline run through the file stages.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def full_pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("full_run")
    config = PipelineConfig.from_dict(
        {
            "graph": {"min_co_users": 2},
            "hgnn": {
                "hidden_dim": 32,
                "out_dim": 32,
                "fanouts": [10, 10],
                "n_negatives": 5,
                "learning_rate": 5e-3,
                "batch_size": 64,
                "max_epochs": 10,
                "patience": 4,
            },
            "two_tower": {"epochs": 4},  # default-width towers
            "seed": 1,
        }
    )
    run_pipeline(config, out)
    return config, out


def test_criterion_6_normalization_invariants(full_pipeline):
    config, out = full_pipeline
    table = NodeEmbeddingTable.load(out / "embeddings.bin")
    emb_norms = np.linalg.norm(table.matrix, axis=1)
    assert np.all(np.abs(emb_norms - 1.0) < 1e-6)

    index = load_index(out / "rec_index.bin")
    idx_norms = np.linalg.norm(index.vectors, axis=1)
    assert np.all(np.abs(idx_norms - 1.0) < 1e-6)
    assert index.dim == config.two_tower.hidden[-1]

    params = TowerParams.load(out / "tower_params.bin")
    train = parse_interactions(out / "train.jsonl").records
    users = sorted({r.user_id for r in train})[:30]
    for user in users:
        o_u = user_tower_output(params, scan_user_inputs(params, user, train, table))
        assert abs(np.linalg.norm(o_u) - 1.0) < 1e-6
    announce(
        6,
        "normalization invariants",
        f"{len(table.item_ids)} embeddings, {len(index)} item vectors, 30 user vectors",
    )


def test_criterion_7_inductive_path(full_pipeline):
    config, out = full_pipeline
    train = parse_interactions(out / "train.jsonl").records
    holdout = parse_interactions(out / "holdout.jsonl").records
    streamed_in_train = {r.item_id for r in train if r.signal == "stream"}
    graph_nodes = set()
    graph = load_graph(out / "graph.bin")
    for ids in graph.nodes.values():
        graph_nodes.update(ids)

    table = NodeEmbeddingTable.load(out / "embeddings.bin")
    catalog = parse_catalog(out / "catalog.jsonl")
    cold_items = [
        i for i in table.item_ids if catalog[i].item_type == "audiobook" and i not in graph_nodes
    ]
    assert cold_items, "generator must plant never-streamed audiobooks"
    target = cold_items[0]
    assert target not in streamed_in_train
    row = table.index[target]
    hgnn_params = HgnnParams.load(out / "hgnn_params.bin")
    z, _ = embed_inductive(hgnn_params, "audiobook", catalog[target].content_vector)
    assert np.allclose(table.matrix[row], z, rtol=0, atol=1e-12)  # its content vector alone
    assert abs(np.linalg.norm(table.matrix[row]) - 1.0) < 1e-6

    index = load_index(out / "rec_index.bin")
    assert target in index.ids

    params = TowerParams.load(out / "tower_params.bin")
    histories = UserHistoryTable.load(out / "user_features.bin")
    recommender = TwoTowerRecommender.from_table(params, index, histories)
    eval_users = sorted({r.user_id for r in holdout})
    found_in = None
    for user in eval_users:
        top100 = recommender.recommend(user)[:100]
        if target in top100:
            found_in = user
            break
    assert found_in is not None, "cold item never surfaced in any top-100"
    announce(7, "inductive path", f"item {target} embedded, indexed, shown to {found_in}")


# ---------------------------------------------------------------------------
# Criteria 8 and 9: seeded benchmark orderings (10 seeds, shared fixture).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_results(tmp_path_factory):
    t0 = time.perf_counter()
    results = run_ordering_benchmark(range(10), tmp_path_factory.mktemp("ordering"))
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_8_end_to_end_ordering(benchmark_results):
    results, elapsed = benchmark_results
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s"
    beats_popularity = sum(
        1 for r in results if r.hr_warm["two_tower_hgnn"] >= 1.2 * r.hr_warm["popularity"]
    )
    beats_plain = sum(
        1 for r in results if r.hr_warm["two_tower_hgnn"] > r.hr_warm["two_tower_only"]
    )
    assert beats_popularity >= 8, f"(a) held in only {beats_popularity}/10 seeds"
    assert beats_plain >= 8, f"(b) held in only {beats_plain}/10 seeds"
    announce(
        8,
        "end-to-end ordering",
        f"(a) {beats_popularity}/10, (b) {beats_plain}/10, {elapsed:.0f}s",
    )


def test_criterion_9_weak_signal_ablation(benchmark_results):
    results, _ = benchmark_results
    full = float(np.mean([r.hr_warm["two_tower_hgnn"] for r in results]))
    without = float(np.mean([r.hr_warm["no_weak_signals"] for r in results]))
    assert full > without, f"mean HR@10 {full:.3f} vs {without:.3f} without weak signals"
    announce(9, "weak-signal ablation", f"mean HR@10 {full:.3f} > {without:.3f}")


def test_ordering_seed_trains_the_hgnn_once_per_seed(tmp_path):
    config = PipelineConfig.from_dict(TINY_CONFIG)
    result = run_ordering_seed(config, tmp_path)
    base_embed = io.read_json(tmp_path / "base" / "manifests" / "embed.json")
    tower_hashes = set()
    for name, overrides in TOWER_VARIANTS.items():
        run = tmp_path / name
        embed = io.read_json(run / "manifests" / "embed.json")
        assert embed["outputs"] == base_embed["outputs"]
        train_2t = io.read_json(run / "manifests" / "train-2t.json")
        assert train_2t["config_hash"] == config.with_overrides(overrides).hash()
        tower_hashes.add(train_2t["config_hash"])
        models = io.read_json(run / "evaluation.json")["models"]
        assert result.hr_warm[name] == models["two_tower_hgnn"]["warm"]["hr_at_k"]
        assert result.hr_warm["popularity"] == models["popularity"]["warm"]["hr_at_k"]
        assert result.n_warm_users == models["two_tower_hgnn"]["warm"]["n_users"]
    assert len(tower_hashes) == len(TOWER_VARIANTS)


# ---------------------------------------------------------------------------
# Criterion 10: weak-signal analysis on 10 seeds.
# ---------------------------------------------------------------------------


def test_criterion_10_weak_signal_analysis():
    reports = run_weak_signal_seeds(range(10))
    for r in reports:
        assert r["skipped_reason"] is None
        assert r["coefficient"] > 0, f"seed {r['seed']}: coefficient {r['coefficient']}"
        assert r["odds_ratio"] > 1
        assert r["diag_ok"]
    ors = [r["odds_ratio"] for r in reports]
    announce(10, "weak-signal analysis", f"10/10 positive, OR in [{min(ors):.2f}, {max(ors):.2f}]")


# ---------------------------------------------------------------------------
# Criterion 11: byte-identical reports across identical runs.
# ---------------------------------------------------------------------------


TINY_CONFIG = {
    "synth": {
        "n_users": 120,
        "n_podcasts": 50,
        "n_audiobooks": 24,
        "n_clusters": 3,
        "d_c": 8,
        "audiobook_stream_rate": 0.02,
        "podcast_stream_rate": 0.015,
    },
    "graph": {"min_co_users": 2},
    "hgnn": {
        "hidden_dim": 12,
        "out_dim": 12,
        "fanouts": [6, 6],
        "n_negatives": 3,
        "batch_size": 64,
        "max_epochs": 3,
        "patience": 2,
    },
    "two_tower": {"hidden": [48, 24, 12], "epochs": 2},
    "seed": 4,
}


def test_criterion_11_determinism(tmp_path):
    digests = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        run_pipeline(PipelineConfig.from_dict(TINY_CONFIG), out)
        digests.append(io.sha256_file(out / "evaluation.json"))
    assert digests[0] == digests[1]
    announce(11, "determinism", f"evaluation report sha256 {digests[0][:12]}… twice")
