import builtins
import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import pathlib
import re
import shutil
import struct
import sys
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from audiorec import data, hgnn, io, pipeline, synth
from audiorec.cli import main
from audiorec.data import parse_catalog, parse_interactions
from audiorec.evaluate import streamed_items
from audiorec.graph import load_graph
from audiorec.hgnn import HgnnParams, NodeEmbeddingTable
from audiorec.index import load_index
from audiorec.pipeline import (
    ABLATION_VARIANTS,
    DAILY,
    PipelineConfig,
    PipelineError,
    run_pipeline,
    run_stage,
)
from audiorec.recommenders import PopularityRecommender, TwoTowerRecommender
from audiorec import two_tower
from audiorec.two_tower import (
    TowerParams,
    UserHistoryTable,
    export_item_vectors,
    item_inputs,
    user_histories,
    user_inputs,
    user_tower_output,
)

from conftest import join_container, split_container
import oracles
from oracles import current_inputs, filtered_recommendations_full, scan_user_inputs


ROOT = pathlib.Path(__file__).parents[1]


def load_script(path: pathlib.Path):
    """Import a file that is not part of the package, such as a script. It is
    registered under a name of its own, since dataclasses look their module up."""
    name = f"{path.parent.name}_{path.stem}"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def tiny_config(seed=11):
    return PipelineConfig.from_dict(
        {
            "synth": {
                "n_users": 120,
                "n_podcasts": 50,
                "n_audiobooks": 24,
                "n_clusters": 3,
                "d_c": 8,
                "n_cold_items": 2,
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
            "eval": {"probe_pairs": 200},
            "seed": seed,
        }
    )


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """A tiny config and a run directory holding only what `synth` wrote."""
    out = tmp_path_factory.mktemp("synth")
    config = tiny_config()
    run_stage("synth", config, out)
    return config, out


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = tiny_config()
    for stage in DAILY:
        run_stage(stage, config, out)
    return config, out


class TestConfig:
    def test_defaults_load(self):
        config = PipelineConfig()
        assert config.hgnn.layers == 2
        assert config.two_tower.hidden == (256, 128, 64)
        assert config.seed is None

    def test_unknown_section_fatal(self):
        with pytest.raises(PipelineError, match="sections"):
            PipelineConfig.from_dict({"nonsense": {}})

    def test_unknown_key_fatal(self):
        with pytest.raises(PipelineError):
            PipelineConfig.from_dict({"hgnn": {"not_a_knob": 3}})

    def test_readme_example_config_loads(self):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        block = text.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        example = json.loads(block)
        config, defaults = PipelineConfig.from_dict(example), PipelineConfig()
        assert config.hgnn.layers == len(config.hgnn.fanouts)
        # the example shows the defaults, not another setting
        values = [(s, k) for s, keys in example.items() if s not in ("paths", "seed") for k in keys]
        assert len(values) == 12
        for section, key in values:
            assert getattr(getattr(config, section), key) == getattr(getattr(defaults, section), key), key

    def test_hash_stable_and_sensitive(self):
        c1, c2 = tiny_config(), tiny_config()
        assert c1.hash() == c2.hash()
        c2.seed = 99
        assert c1.hash() != c2.hash()

    def test_overrides(self):
        base = tiny_config()
        other = base.with_overrides({"graph": {"relations": ["pp"]}, "seed": 3})
        assert other.graph.relations == ("pp",)
        assert other.seed == 3
        assert base.graph.relations == ("aa", "ap", "pp")


class TestStages:
    def test_all_artifacts_exist(self, pipeline_run):
        _, out = pipeline_run
        for name in (
            "interactions.jsonl",
            "catalog.jsonl",
            "train.jsonl",
            "holdout.jsonl",
            "catalog.bin",
            "graph.bin",
            "hgnn_params.bin",
            "embeddings.bin",
            "tower_params.bin",
            "rec_index.bin",
            "evaluation.json",
            "evaluation.csv",
            "resolved_config.json",
        ):
            assert (out / name).exists(), name

    def test_manifests_carry_config_hash_and_io_hashes(self, pipeline_run):
        config, out = pipeline_run
        for stage in DAILY:
            manifest = io.read_json(out / "manifests" / f"{stage}.json")
            assert manifest["config_hash"] == config.hash()
            assert manifest["seed"] == config.seed
            for name, digest in manifest["outputs"].items():
                assert io.sha256_file(out / name) == digest

    def test_manifest_records_the_blas_thread_variables(self, pipeline_run, tmp_path, monkeypatch):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        run_stage("split", config, run)
        manifest = io.read_json(run / "manifests" / "split.json")
        expected = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": None}
        assert manifest["blas_threads"] == expected
        # outside the hashes that decide whether an input is current
        before = io.read_json(out / "manifests" / "split.json")
        assert {k: v for k, v in manifest.items() if k != "blas_threads"} == {
            k: v for k, v in before.items() if k != "blas_threads"
        }

    def test_evaluate_manifest_lists_every_input(self, pipeline_run):
        _, out = pipeline_run
        manifest = io.read_json(out / "manifests" / "evaluate.json")
        assert set(manifest["inputs"]) == {
            "catalog.bin",
            "train.bin",
            "holdout.bin",
            "split_meta.json",
            "embeddings.bin",
            "tower_params.bin",
            "user_features.bin",
            "rec_index.bin",
        }
        for name, digest in manifest["inputs"].items():
            assert io.sha256_file(out / name) == digest

    def test_missing_dependency_names_stage(self, tmp_path):
        config = tiny_config()
        with pytest.raises(PipelineError, match="split"):
            run_stage("build-graph", config, tmp_path)

    def test_only_a_stage_that_wrote_its_outputs_trims_the_heap(self, pipeline_run, tmp_path, monkeypatch):
        config, out = pipeline_run
        calls = []
        monkeypatch.setattr(pipeline, "_malloc_trim", calls.append)
        run_stage("synth", config, tmp_path)
        assert calls == [0]
        with pytest.raises(PipelineError, match="split"):
            run_stage("build-graph", config, tmp_path)
        run_stage("recommend", config, out, user="u0000", k=5)  # a query writes nothing
        assert calls == [0]

    def test_heap_tuning_sets_both_thresholds_and_returns_the_trim(self):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 0  # refused: neither the other threshold nor the trim hook changes

        def malloc_trim(pad):
            return 1

        assert pipeline._tune_heap(SimpleNamespace(mallopt=mallopt, malloc_trim=malloc_trim)) is malloc_trim
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_c_library_without_heap_functions_runs_stages_untrimmed(self, tmp_path, monkeypatch):
        assert pipeline._tune_heap(object()) is None
        monkeypatch.setattr(pipeline, "_malloc_trim", None)
        run_stage("synth", tiny_config(), tmp_path)
        assert (tmp_path / "manifests" / "synth.json").exists()

    def test_synth_requires_seed(self, tmp_path):
        config = tiny_config()
        config.seed = None
        with pytest.raises(PipelineError, match="seed"):
            run_stage("synth", config, tmp_path)

    @pytest.mark.parametrize("stage", ["train-hgnn", "train-2t", "probe"])
    def test_seeded_stages_require_seed(self, pipeline_run, tmp_path, stage):
        _, out = pipeline_run
        config = tiny_config()
        config.seed = None
        with pytest.raises(PipelineError, match=f"^{stage} requires a seed"):
            run_stage(stage, config, shutil.copytree(out, tmp_path / "run"))

    def test_evaluation_report_shape(self, pipeline_run):
        _, out = pipeline_run
        report = io.read_json(out / "evaluation.json")
        assert set(report["models"]) == {
            "two_tower_hgnn",
            "popularity",
            "content_knn",
            "hgnn_knn",
        }
        warm = report["models"]["two_tower_hgnn"]["warm"]
        assert warm["n_users"] > 0
        for metric in ("hr_at_k", "mrr", "coverage"):
            assert 0.0 <= warm[metric] <= 1.0

    @pytest.mark.parametrize("stage", ["train-2t", "evaluate"])
    def test_stage_cuts_the_feature_window_once(self, pipeline_run, tmp_path, monkeypatch, stage):
        # every model, the training pairs and the histories share one window;
        # the baselines share one popularity ranking
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(data.Interactions, "window", counted("window", data.Interactions.window))
        monkeypatch.setattr(
            pipeline, "PopularityRecommender", counted("popularity", PopularityRecommender)
        )
        run_stage(stage, config, run)
        assert calls == ({"window": 1} if stage == "train-2t" else {"window": 1, "popularity": 1})
        for name in ("evaluation.json", "tower_params.bin", "user_features.bin"):
            assert (run / name).read_bytes() == (out / name).read_bytes()

    @pytest.mark.parametrize("overrides", [{}, {"graph": {"relations": ["pp"]}}], ids=["default", "pp-only"])
    def test_checked_catalog_is_what_parse_catalog_returns(self, synth_run, tmp_path, overrides):
        config, synth_dir = synth_run
        config = config.with_overrides(overrides)
        run = shutil.copytree(synth_dir, tmp_path / "run")
        for stage in ("split", "build-graph"):
            run_stage(stage, config, run)
        parsed = parse_catalog(run / "catalog.jsonl")
        loaded = data.load_checked_catalog(run / "catalog.bin")
        assert list(loaded) == list(parsed)
        for a, b in zip(loaded.values(), parsed.values()):
            assert (a.item_id, a.item_type, a.language, a.genre) == (b.item_id, b.item_type, b.language, b.genre)
            assert a.content_vector.dtype == b.content_vector.dtype
            assert np.array_equal(a.content_vector, b.content_vector)
        assert "catalog.bin" in io.read_json(run / "manifests" / "build-graph.json")["outputs"]

    def test_pipeline_parses_the_catalog_once(self, tmp_path, monkeypatch):
        # build-graph checks catalog.jsonl; every later stage loads its checked copy
        calls = []

        def counted(path):
            calls.append(pathlib.Path(path).name)
            return parse_catalog(path)

        monkeypatch.setattr(data, "parse_catalog", counted)
        monkeypatch.setattr(pipeline, "parse_catalog", counted)
        run_pipeline(tiny_config(), tmp_path)
        assert calls == ["catalog.jsonl"]
        run_stage("probe", tiny_config(), tmp_path)
        assert calls == ["catalog.jsonl"]

    def test_pipeline_parses_interactions_once(self, tmp_path, monkeypatch):
        # split checks interactions.jsonl; every later stage loads the columns it wrote
        calls = []

        def counted(path):
            calls.append(pathlib.Path(path).name)
            return parse_interactions(path)

        monkeypatch.setattr(data, "parse_interactions", counted)
        monkeypatch.setattr(pipeline, "parse_interactions", counted)
        run_pipeline(tiny_config(), tmp_path)
        assert calls == ["interactions.jsonl"]

    def test_later_stages_run_without_train_and_holdout_jsonl(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        for name in ("train.jsonl", "holdout.jsonl"):
            (run / name).unlink()
        written = ("graph.bin", "catalog.bin", "embeddings.bin", "user_features.bin", "tower_params.bin",
                   "rec_index.bin", "evaluation.json", "evaluation.csv")
        for name in written:
            (run / name).unlink()
        for stage in DAILY[2:]:
            run_stage(stage, config, run)
        for name in written:
            assert (run / name).read_bytes() == (out / name).read_bytes(), name

    def test_columns_hold_the_records_split_wrote(self, pipeline_run):
        _, out = pipeline_run
        for name in ("train", "holdout"):
            records = parse_interactions(out / f"{name}.jsonl").records
            assert oracles.records_of(data.Interactions.load(out / f"{name}.bin")) == records

    def test_user_features_rows_equal_the_record_walk(self, pipeline_run):
        config, out = pipeline_run
        train = parse_interactions(out / "train.jsonl").records
        split_time = io.read_json(out / "split_meta.json")["split_time"]
        window = oracles.window_by_user(train, config.two_tower.window_days, split_time)
        table = NodeEmbeddingTable.load(out / "embeddings.bin")
        want = oracles.user_histories_loop({r.user_id for r in train}, window, table, config.two_tower)
        stored = UserHistoryTable.load(out / "user_features.bin")
        assert stored.user_ids == want.user_ids
        for name in HISTORY_ARRAYS:
            assert np.array_equal(getattr(stored, name), getattr(want, name)), name
            assert getattr(stored, name).tobytes() == getattr(want, name).tobytes(), name

    def test_records_constructor_serves_what_the_table_serves(self, pipeline_run):
        _, out = pipeline_run
        train = parse_interactions(out / "train.jsonl").records
        split_time = io.read_json(out / "split_meta.json")["split_time"]
        params = TowerParams.load(out / "tower_params.bin", towers=("user",))
        index = load_index(out / "rec_index.bin")
        table = NodeEmbeddingTable.load(out / "embeddings.bin")
        from_records = TwoTowerRecommender(params, index, train, table, as_of=split_time)
        from_table = TwoTowerRecommender.from_table(params, index, UserHistoryTable.load(out / "user_features.bin"))
        users = sorted({r.user_id for r in train})
        assert users == from_table.histories.user_ids
        for user in users:
            assert from_records.recommend_scored(user, 10) == from_table.recommend_scored(user, 10)

    def test_later_stages_run_without_catalog_jsonl(self, pipeline_run, tmp_path):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        (run / "catalog.jsonl").unlink()
        written = ("embeddings.bin", "tower_params.bin", "rec_index.bin", "evaluation.json")
        for name in written:
            (run / name).unlink()
        for stage in ("embed", "train-2t", "build-index", "evaluate"):
            run_stage(stage, config, run)
        for name in written:
            assert (run / name).read_bytes() == (out / name).read_bytes(), name

    def test_perfbench_traces_the_evaluation_targets(self, pipeline_run, tmp_path):
        # perfbench names what it times by `module:qualname`; these four must
        # resolve and be what `evaluate` calls
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        spans = load_script(ROOT / "perfbench" / "spans.py")
        workloads = load_script(ROOT / "perfbench" / "workloads.py")
        wanted = {
            "recommenders:PopularityRecommender.recommend",
            "recommenders:_ProfileKnnRecommender.recommend",
            "evaluate:filtered_recommendations",
            "evaluate:evaluate",
        }
        targets = [t for t in workloads.TRACE_TARGETS if t[0] in wanted]
        assert {t[0] for t in targets} == wanted
        recorder = spans.Recorder()
        try:
            for target, name, hook in targets:
                assert recorder.install(target, name, hook), target
            report = run_stage("evaluate", config, run)
        finally:
            recorder.uninstall()
        models = config.eval.models
        calls = Counter(recorder.names[i] for i in recorder.name_id)
        assert calls["evaluate.filtered_recommendations"] == calls["evaluate.evaluate"] == len(models)
        n_users = report["models"]["popularity"]["all"]["n_users"]
        for model in ("popularity", "content_knn", "hgnn_knn"):
            assert recorder.counters[f"evaluate.recommend_calls.{model}"] == n_users
        assert recorder.absent == []

    def test_evaluate_ranks_each_two_tower_user_once(self, pipeline_run, tmp_path, monkeypatch):
        # the segment metrics and the popularity tiers score the same rankings
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        calls = Counter()
        recommend = TwoTowerRecommender.recommend

        def counted(self, user_id, k=None):
            calls[user_id] += 1
            return recommend(self, user_id, k)

        monkeypatch.setattr(TwoTowerRecommender, "recommend", counted)
        report = run_stage("evaluate", config, run)
        assert report["models"]["two_tower_hgnn"]["tiers"] is not None
        assert len(calls) == report["models"]["two_tower_hgnn"]["all"]["n_users"]
        assert set(calls.values()) == {1}
        assert (run / "evaluation.json").read_bytes() == (out / "evaluation.json").read_bytes()

    @pytest.mark.parametrize("model", sorted(pipeline.MODELS))
    def test_holdout_rankings_equal_whole_rankings_filtered(self, pipeline_run, model):
        # evaluate asks each model for only the part of its ranking it can keep
        config, out = pipeline_run
        files = {key: out / name for key, name in pipeline.ARTIFACTS.items()}
        split = oracles.DatasetSplit(
            parse_interactions(files["train"]).records,
            parse_interactions(files["holdout"]).records,
            io.read_json(files["split_meta"])["split_time"],
        )
        catalog = parse_catalog(files["catalog"])
        table = NodeEmbeddingTable.load(files["embeddings"])
        target = config.two_tower.target_type
        window = data.Interactions.from_records(split.train).window(config.two_tower.window_days, split.split_time)
        rec = pipeline.MODELS[model](
            files, catalog, table, window, PopularityRecommender(window, catalog, target)
        )
        users = sorted(oracles.streamed_items(split.holdout, target))
        consumed = oracles.streamed_items(split.train, target)
        # below, near and above the 24-audiobook catalog
        for max_rank in (1, 5, 20, config.eval.max_rank):
            limited = config.with_overrides(
                {"eval": {"models": [model], "max_rank": max_rank, "k": min(config.eval.k, max_rank)}}
            )
            got_split, catalog_ids, rankings = pipeline.model_rankings(limited, files)
            assert rankings == {model: filtered_recommendations_full(rec, users, consumed, max_rank)}
        assert [oracles.records_of(got_split.train), oracles.records_of(got_split.holdout)] == [split.train, split.holdout]
        assert got_split.split_time == split.split_time
        assert catalog_ids == {i for i, item in catalog.items() if item.item_type == target}

    def test_user_vector_is_the_tower_output_on_first_and_repeat_calls(self, pipeline_run):
        _, out = pipeline_run
        train = parse_interactions(out / "train.jsonl").records
        params = TowerParams.load(out / "tower_params.bin", towers=("user",))
        table = NodeEmbeddingTable.load(out / "embeddings.bin")
        split_time = io.read_json(out / "split_meta.json")["split_time"]
        histories = UserHistoryTable.load(out / "user_features.bin")
        rec = TwoTowerRecommender.from_table(params, load_index(out / "rec_index.bin"), histories)
        users = sorted({r.user_id for r in train}) + ["unseen-0", "unseen-1"]
        want = {}
        for u in users:
            scanned = scan_user_inputs(params, u, train, table, as_of=split_time)
            want[u] = user_tower_output(params, scanned).tobytes()
        for _ in range(2):  # the second pass runs the tower on each user's kept input
            assert {u: rec.user_vector(u).tobytes() for u in users} == want

    def test_records_constructor_refuses_an_empty_log(self, pipeline_run):
        # a table needs one row to know its width
        _, out = pipeline_run
        params = TowerParams.load(out / "tower_params.bin", towers=("user",))
        table = NodeEmbeddingTable.load(out / "embeddings.bin")
        with pytest.raises(ValueError, match="non-empty training log"):
            TwoTowerRecommender(params, load_index(out / "rec_index.bin"), [], table)

    def test_recommend_known_and_unknown_user(self, pipeline_run):
        config, out = pipeline_run
        res = run_stage("recommend", config, out, user="u0000", k=5)
        assert len(res) == 5
        assert all(isinstance(i, str) and isinstance(s, float) for i, s in res)
        cold = run_stage("recommend", config, out, user="nobody-at-all", k=3)
        assert len(cold) == 3

    @pytest.mark.parametrize(
        "tower",
        [{}, {"use_weak_signals": False}, {"use_hgnn_features": False}, {"target_type": "podcast"}],
        ids=["default", "no-weak-signals", "no-hgnn-features", "podcast-target"],
    )
    def test_recommend_matches_full_history_recommender(self, pipeline_run, tmp_path, monkeypatch, tower):
        config, out = pipeline_run
        if tower:  # these settings are first read by train-2t, so its inputs stay current
            config = config.with_overrides({"two_tower": tower})
            out = shutil.copytree(out, tmp_path / "run")
            for stage in ("train-2t", "build-index"):
                run_stage(stage, config, out)
        train = parse_interactions(out / "train.jsonl").records
        params = TowerParams.load(out / "tower_params.bin")
        assert params.config == config.two_tower
        table = NodeEmbeddingTable.load(out / "embeddings.bin")
        split_time = io.read_json(out / "split_meta.json")["split_time"]
        index = load_index(out / "rec_index.bin")
        catalog = parse_catalog(out / "catalog.jsonl")
        full = TwoTowerRecommender(params, index, train, table, as_of=split_time)
        train_users = sorted({r.user_id for r in train})
        # the records constructor builds the table train-2t wrote, array for array
        stored = UserHistoryTable.load(out / "user_features.bin")
        assert full.histories.user_ids == stored.user_ids == train_users
        for name in HISTORY_ARRAYS:
            built, loaded = getattr(full.histories, name), getattr(stored, name)
            assert built.dtype == loaded.dtype and np.array_equal(built, loaded)
        # unseen ids sort before, between and after the train users'
        users = train_users + ["a", "u0000x", "zzz", 'odd "id" \u00e9']
        # one packing of every id gives each id the row it gets alone
        cat, dense = user_inputs(params, stored, users)
        assert cat.dtype == np.int64 and cat.shape == (len(users), 2) and dense.shape[0] == len(users)
        for row, user in enumerate(users):
            assert run_stage("recommend", config, out, user=user, k=5) == full.recommend_scored(user, 5)
            alone = user_inputs(params, stored, [user])
            assert alone[0].tobytes() == cat[row].tobytes() and alone[1].tobytes() == dense[row].tobytes()
            # the served row holds what a scan of every record reads
            scanned = scan_user_inputs(params, user, train, table, as_of=split_time)
            assert scanned[0].tobytes() == alone[0].tobytes() and scanned[1].tobytes() == alone[1].tobytes()
            assert np.array_equal(full.user_vector(user), user_tower_output(params, scanned))

        # index export feeds the item tower the rows item_inputs packs: the
        # target catalog in id order, its metadata, content vector and graph embedding
        ids, i_cat, i_dense = item_inputs(params, catalog, table)
        fed = []
        forward = two_tower._tower_forward
        monkeypatch.setattr(two_tower, "_tower_forward", lambda *args: fed.append(args) or forward(*args))
        vectors = export_item_vectors(params, catalog, table)
        ((_, tower, fed_cat, fed_dense),) = fed
        assert tower == "item" and list(vectors) == ids
        assert fed_cat.tobytes() == i_cat.tobytes() and fed_dense.tobytes() == i_dense.tobytes()
        assert ids == sorted(i for i, it in catalog.items() if it.item_type == params.config.target_type)
        language, genre = params.vocabs["language"], params.vocabs["genre"]
        for row, item_id in enumerate(ids):
            item = catalog[item_id]
            assert list(i_cat[row]) == [language.lookup(item.language), genre.lookup(item.genre)]
            graph = table.get(item_id) if params.config.use_hgnn_features else None
            graph = np.zeros(table.dim) if graph is None else graph
            assert np.array_equal(i_dense[row], np.concatenate([item.content_vector, graph]))

        # without graph features both towers see exactly 0.0 in every embedding column
        off = dataclasses.replace(params.config, use_hgnn_features=False)
        off_params = TowerParams(off, params.vocabs, params.dims, params.weights)
        zeroed = user_histories(data.Interactions.from_records(train).window(off.window_days, split_time), table, off)
        _, u_dense = user_inputs(off_params, zeroed, users)
        _, _, i_dense = item_inputs(off_params, catalog, table)
        music, d_c, d = off.music_dim, params.dims["d_c"], table.dim
        assert np.all(u_dense[:, music : music + 2 * d] == 0.0)
        assert np.all(i_dense[:, d_c:] == 0.0) and i_dense.shape[1] == d_c + d
        assert np.any(u_dense[:, music + 2 * d :] != 0.0)  # the signal counts stay

    def test_split_surfaces_malformed_lines(self, tmp_path):
        config = tiny_config()
        run_stage("synth", config, tmp_path)
        # an edited file enters through paths.*; edited in place, split would refuse it as stale
        edited = tmp_path / "edited.jsonl"
        shutil.copyfile(tmp_path / "interactions.jsonl", edited)
        with open(edited, "a", encoding="utf-8") as fh:
            fh.write('{"user_id": "ux", "signal": "purchase"}\n')
        config.paths.interactions = str(edited)
        with pytest.warns(UserWarning, match="malformed"):
            run_stage("split", config, tmp_path)
        meta = io.read_json(tmp_path / "split_meta.json")
        assert meta["n_malformed"] == 1

    def test_split_skips_a_line_nested_too_deeply(self, tmp_path, capsys):
        # was a RecursionError that ended the whole read
        config = tiny_config()
        run_stage("synth", config, tmp_path)
        first, *rest = (tmp_path / "interactions.jsonl").read_text().splitlines(keepends=True)
        edited = tmp_path / "edited.jsonl"
        edited.write_text(first + "[" * 100_000 + "\n" + "".join(rest))
        config.paths.interactions = str(edited)
        argv = stage_argv("split", config, tmp_path, tmp_path)
        with pytest.warns(UserWarning, match="skipped 1 malformed lines .first: line 2: invalid JSON"):
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        meta = io.read_json(tmp_path / "split_meta.json")
        assert meta["n_malformed"] == 1
        assert meta["n_train"] + meta["n_holdout"] == len(rest) + 1

    def test_weak_signals_warns_about_skipped_lines(self, tmp_path, capsys):
        # the skipped lines were dropped without a word
        config = tiny_config()
        run_stage("synth", config, tmp_path)
        want = run_stage("weak-signals", config, tmp_path)
        first, *rest = (tmp_path / "interactions.jsonl").read_text().splitlines(keepends=True)
        edited = tmp_path / "edited.jsonl"
        edited.write_text(first + '{"user_id": "ux", "signal": "purchase"}\n' + "".join(rest))
        config.paths.interactions = str(edited)
        run = tmp_path / "run"
        argv = stage_argv("weak-signals", config, run, tmp_path)
        with pytest.warns(UserWarning, match="skipped 1 malformed lines .first: line 2: missing key 'item_id'"):
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert io.read_json(run / "weak_signals.json") == want

    def test_podcast_target_mode(self, tmp_path):
        config = tiny_config()
        config.two_tower.target_type = "podcast"
        config.eval.tiers = False
        for stage in DAILY:
            run_stage(stage, config, tmp_path)
        report = io.read_json(tmp_path / "evaluation.json")
        assert report["target_type"] == "podcast"
        assert report["models"]["two_tower_hgnn"]["all"]["n_users"] > 0
        res = run_stage("recommend", config, tmp_path, user="u0000", k=3)
        assert all(i.startswith("p") for i, _ in res)

    def test_music_and_demographics_files(self, tmp_path):
        config = tiny_config()
        run_stage("synth", config, tmp_path)
        io.write_jsonl(
            [{"user_id": "u0000", "vector": [0.5] * config.two_tower.music_dim}],
            tmp_path / "music.jsonl",
        )
        io.write_jsonl(
            [{"user_id": "u0000", "country": "SE", "age_bucket": "25-34"}],
            tmp_path / "demo.jsonl",
        )
        config.paths.music_vectors = str(tmp_path / "music.jsonl")
        config.paths.demographics = str(tmp_path / "demo.jsonl")
        for stage in DAILY[1:]:
            run_stage(stage, config, tmp_path)
        res = run_stage("recommend", config, tmp_path, user="u0000", k=3)
        assert len(res) == 3

    def test_weak_signals_stage(self, pipeline_run):
        config, out = pipeline_run
        report = run_stage("weak-signals", config, out)
        n = len(report["signals"])
        for i in range(n):
            assert report["cooccurrence"][i][i] == 1.0

    def test_probe_stage(self, pipeline_run):
        config, out = pipeline_run
        report = run_stage("probe", config, out)
        assert "content" in report["results"] and "hgnn" in report["results"]
        got = report["results"]["content"]["co-listened"]
        assert "mean" in got


BINARY_ARTIFACTS = {
    "catalog.bin": data.load_checked_catalog,
    "train.bin": data.Interactions.load,
    "holdout.bin": data.Interactions.load,
    "embeddings.bin": NodeEmbeddingTable.load,
    "graph.bin": load_graph,
    "rec_index.bin": load_index,
    "hgnn_params.bin": HgnnParams.load,
    "tower_params.bin": TowerParams.load,
    "user_features.bin": UserHistoryTable.load,
}


# the arrays of `user_features.bin` besides its id column
HISTORY_ARRAYS = ("mean_audiobook_embedding", "mean_podcast_embedding", "interaction_counts")


def _nbytes(entry: dict) -> int:
    return math.prod(entry["shape"]) * np.dtype(entry["dtype"]).itemsize


def _drop_last_id(value):
    """`value` with the last entry of each list of strings in it dropped, at
    the top or as an object's values."""
    if isinstance(value, dict):
        return {key: _drop_last_id(v) for key, v in value.items()}
    if isinstance(value, list) and value and all(isinstance(v, str) for v in value):
        return value[:-1]
    return value


def meta_lists(value) -> list[list]:
    """Every list in a container meta value: the value itself, or one
    nested in its objects."""
    if isinstance(value, dict):
        return [found for v in value.values() for found in meta_lists(v)]
    return [value] if isinstance(value, list) else []


def id_columns(header: dict) -> list[str]:
    """The names of a container's `io.id_column` arrays: its 2-D uint32 ones."""
    return [e["name"] for e in header["arrays"] if e["dtype"] == "uint32" and len(e["shape"]) == 2]


def edit_id_column(header: dict, payload: bytes, name: str, edit) -> bytes:
    """`payload` with the id column `name` replaced by `edit(column)`, a 2-D
    uint32 array; its header entry takes the new shape."""
    entry = array_entry(header, name)
    start, end = array_spans(header)[name]
    column = np.frombuffer(payload[start:end], np.uint32).reshape(entry["shape"])
    column = np.ascontiguousarray(edit(column))
    entry["shape"] = list(column.shape)
    return payload[:start] + column.astype(np.uint32).tobytes() + payload[end:]


def damaged_header(data: bytes, how: str, column: str | None = None) -> tuple[bytes, str]:
    """A `write_pack` container damaged in its header, and the text the
    refusal must hold after the file name. `missing-array` and
    `missing-first-array` drop the last or the first array's entry and its
    payload, and `extra-array` adds an entry and its payload, so the file is
    otherwise whole; `misshaped-array` gives the first array its shape
    flattened, which holds the same bytes. `short-id-list` drops the last
    entry of each list of names in the meta and the last id of every id
    column; `repeated-id` repeats an id in the id column `column`, by default
    the container's first."""
    header, payload = split_container(data)
    entries, first, meta = header["arrays"], header["arrays"][0], header["meta"]
    if how == "missing-array":
        last = entries.pop()
        payload = payload[: len(payload) - _nbytes(last)]
        expected = f"missing array {last['name']!r}"
    elif how == "missing-first-array":
        payload = payload[_nbytes(entries.pop(0)) :]
        expected = f"missing array {first['name']!r}"
    elif how == "extra-array":
        entries.append({"name": "zz.extra", "shape": [2], "dtype": "float64"})
        payload += bytes(16)
        expected = "unexpected array 'zz.extra'"
    elif how == "misshaped-array":
        first["shape"] = [math.prod(first["shape"])]
        expected = f"array {first['name']!r} has shape"
    elif how == "missing-meta-key":
        header["meta"] = {"kind": meta["kind"]}
        expected = "missing meta key"
    elif how in ("meta-number", "meta-list"):  # every meta value but the kind
        wrong = 7 if how == "meta-number" else [1]
        header["meta"] = {key: value if key == "kind" else wrong for key, value in meta.items()}
        expected = "must be"
    elif how == "short-id-list":
        header["meta"] = _drop_last_id(meta)
        for name in id_columns(header):
            payload = edit_id_column(header, payload, name, lambda column: column[:-1])
        # a checkpoint's vocabularies and names fix its weights, a table's ids its rows
        expected = {"hgnn_params": "unexpected array", "tower_params": "has shape"}.get(
            meta["kind"], "entries for"
        )
    elif how == "listed-twice":
        entries.append(dict(first))
        expected = f"array {first['name']!r} listed twice"
    elif how == "repeated-id":  # the column's second id set to its first
        column = column or id_columns(header)[0]
        payload = edit_id_column(header, payload, column, lambda c: c[[0, 0, *range(2, len(c))]])
        expected = f"{column} lists {read_id_column(header, payload, column)[0]!r} twice"
    else:
        key, value = {
            "negative-shape": ("shape", [-2, -4]),
            "float-shape": ("shape", [1.7]),
            "bool-shape": ("shape", [True]),
            "object-dtype": ("dtype", "object"),
            "void-dtype": ("dtype", "V0"),
        }[how]
        first[key] = value
        expected = f"array {first['name']!r} has {key}"
    return join_container(header, payload), expected


def array_entry(header: dict, name: str) -> dict:
    """The header entry of the array `name`."""
    return next(e for e in header["arrays"] if e["name"] == name)


def read_id_column(header: dict, payload: bytes, name: str) -> list[str]:
    """The ids of the id column `name`, decoded without `io`."""
    entry = array_entry(header, name)
    start, end = array_spans(header)[name]
    rows = np.frombuffer(payload[start:end], np.uint32).reshape(entry["shape"])
    return ["".join(map(chr, row)).rstrip("\0") for row in rows.tolist()]


HEADER_DAMAGE = [
    "missing-array",
    "missing-meta-key",
    "listed-twice",
    "negative-shape",
    "float-shape",
    "bool-shape",
    "object-dtype",
    "void-dtype",
    "meta-number",
    "meta-list",
    "short-id-list",
]

# damage to the meta values besides the kind, which the meta of an index or an
# embedding table holds alone
META_DAMAGE = {"missing-meta-key", "meta-number", "meta-list"}
KIND_ONLY = {"embeddings.bin", "rec_index.bin"}


def header_damage_cases(names) -> list:
    """`(name, how)` for each container of `names` and each `HEADER_DAMAGE`
    that applies to it, with the ids `how-name`."""
    return [
        pytest.param(name, how, id=f"{how}-{name}")
        for how in HEADER_DAMAGE
        for name in names
        if not (how in META_DAMAGE and name in KIND_ONLY)
    ]


# a checkpoint holds exactly the weights its config, vocabularies and dims declare
CHECKPOINT_DAMAGE = ["missing-first-array", "extra-array", "misshaped-array"]


def header_length(data: bytes) -> int:
    """The bytes of a `write_pack` container before its first array."""
    (hlen,) = struct.unpack_from("<I", data, len(io.PACK_MAGIC))
    return len(io.PACK_MAGIC) + 4 + hlen


def cut_or_overwritten(whole: bytes, data, header_only: bool) -> bytes:
    """`whole` cut at a drawn length, or with one drawn byte overwritten: in
    the header, or (unless `header_only`) as often in the payload."""
    if data.draw(st.booleans(), label="cut"):
        return whole[: data.draw(st.integers(0, len(whole) - 1), label="length")]
    head = header_length(whole)
    if header_only or head == len(whole) or data.draw(st.booleans(), label="in header"):
        at = data.draw(st.integers(0, head - 1), label="header byte")
    else:
        at = data.draw(st.integers(head, len(whole) - 1), label="payload byte")
    byte = data.draw(st.integers(0, 255), label="value")
    return whole[:at] + bytes([byte]) + whole[at + 1 :]


def array_spans(header: dict) -> dict[str, tuple[int, int]]:
    """Each array's (start, end) within a container's payload, by name."""
    spans, start = {}, 0
    for entry in header["arrays"]:
        spans[entry["name"]] = (start, start + _nbytes(entry))
        start += _nbytes(entry)
    return spans


def load_outcome(load, path) -> str | None:
    """The refusal text of `load(path)`, or None if it loads."""
    try:
        load(path)
    except ValueError as exc:
        return str(exc)
    return None


RECOMMEND_CONTAINERS = sorted(
    name
    for name in map(pipeline.ARTIFACTS.get, pipeline.STAGES["recommend"].inputs)
    if name in BINARY_ARTIFACTS
)


def middle_id_repeated(ids: np.ndarray) -> np.ndarray:
    """An id column with its middle id, a bisection's first probe, also a
    quarter in, the second probe of a search below the middle."""
    n = len(ids)
    return ids[[*range(n // 4), n // 2, *range(n // 4 + 1, n)]]


class TestDamagedArtifacts:
    def test_every_container_is_damage_tested(self):
        containers = {name for name in pipeline.ARTIFACTS.values() if name.endswith(".bin")}
        assert containers == set(BINARY_ARTIFACTS)
        spec = pipeline.STAGES["recommend"]
        served = {pipeline.ARTIFACTS.get(key, "") for key in spec.inputs + spec.optional}
        assert {name for name in served if name.endswith(".bin")} == set(RECOMMEND_CONTAINERS)

    @pytest.mark.parametrize("name", sorted(BINARY_ARTIFACTS))
    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda b: b[:8], id="header-cut"),
            pytest.param(lambda b: b[:-1], id="payload-cut"),
            pytest.param(lambda b: b + b"\0", id="extended"),
        ],
    )
    def test_rejected_naming_the_file(self, pipeline_run, tmp_path, name, damage):
        _, out = pipeline_run
        path = tmp_path / name
        path.write_bytes(damage((out / name).read_bytes()))
        with pytest.raises(ValueError, match=name):
            BINARY_ARTIFACTS[name](path)

    @pytest.mark.parametrize("name, how", header_damage_cases(sorted(BINARY_ARTIFACTS)))
    def test_damaged_header_rejected_naming_the_file(self, pipeline_run, tmp_path, name, how):
        _, out = pipeline_run
        path = tmp_path / name
        data, expected = damaged_header((out / name).read_bytes(), how)
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"{name}: .*{re.escape(expected)}"):
            BINARY_ARTIFACTS[name](path)

    @pytest.mark.parametrize("name, how", header_damage_cases(RECOMMEND_CONTAINERS))
    def test_damaged_recommend_input_is_one_json_line(
        self, pipeline_run, tmp_path, capsys, name, how
    ):
        # `recommend` loads its containers without hashing them first
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        (run / name).write_bytes(damaged_header((out / name).read_bytes(), how)[0])
        assert name in cli_error(stage_argv("recommend", config, run, tmp_path), capsys)

    @pytest.mark.parametrize(
        "name", ["embeddings.bin", "graph.bin", "rec_index.bin", "user_features.bin"]
    )
    def test_id_list_that_repeats_an_id_rejected_naming_the_file(self, pipeline_run, tmp_path, name):
        # a repeated index id would be served twice by one query; a full load
        # checks every pair of adjacent ids, in each of the container's id columns
        _, out = pipeline_run
        path = tmp_path / name
        whole = (out / name).read_bytes()
        columns = id_columns(split_container(whole)[0])
        assert columns
        for column in columns:
            data, expected = damaged_header(whole, "repeated-id", column)
            path.write_bytes(data)
            with pytest.raises(ValueError, match=f"{name}: {re.escape(expected)}"):
                BINARY_ARTIFACTS[name](path)

    def test_index_that_repeats_an_id_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        data, expected = damaged_header((out / "rec_index.bin").read_bytes(), "repeated-id")
        (run / "rec_index.bin").write_bytes(data)
        error = cli_error(stage_argv("recommend", config, run, tmp_path), capsys)
        assert error == f"{run / 'rec_index.bin'}: {expected}"

    @pytest.mark.parametrize("how", ["repeated-id", "swapped-ids", "id-of-two-types"])
    def test_graph_off_its_node_id_order_is_one_json_line(self, pipeline_run, tmp_path, capsys, how):
        # a node's row is its rank in id order: `_edges_from_adj` lists edges by
        # it, and `node_ref` finds an id under one type only
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        whole = (out / "graph.bin").read_bytes()
        if how == "repeated-id":
            data, expected = damaged_header(whole, how)
        else:
            header, payload = split_container(whole)
            if how == "swapped-ids":
                payload = edit_id_column(
                    header, payload, "nodes.audiobook", lambda c: c[[1, 0, *range(2, len(c))]]
                )
                expected = "nodes.audiobook do not rise strictly"
            else:  # an audiobook id sorts before every podcast id
                first = read_id_column(header, payload, "nodes.audiobook")[0]
                podcasts = read_id_column(header, payload, "nodes.podcast")
                payload = edit_id_column(
                    header, payload, "nodes.podcast", lambda c: io.id_column([first, *podcasts[1:]])
                )
                expected = f"nodes lists {first!r} twice"
            data = join_container(header, payload)
        (run / "graph.bin").write_bytes(data)
        rerecord(run, "graph.bin")  # train-hgnn hashes its inputs
        error = cli_error(stage_argv("train-hgnn", config, run, tmp_path), capsys)
        assert error == f"{run / 'graph.bin'}: {expected}"

    @pytest.mark.parametrize(
        "relations, expected",
        [
            ([], "relations lists none of ('aa', 'ap', 'pp')"),  # was a StopIteration traceback
            (["aa", "aa", "pp"], "relations lists 'aa' twice"),  # trained 'aa' twice
        ],
        ids=["empty", "repeated"],
    )
    def test_graph_relations_empty_or_repeated_is_one_json_line(
        self, pipeline_run, tmp_path, capsys, relations, expected
    ):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        header, payload = split_container((out / "graph.bin").read_bytes())
        header["meta"]["relations"] = relations
        (run / "graph.bin").write_bytes(join_container(header, payload))
        rerecord(run, "graph.bin")  # train-hgnn hashes its inputs
        error = cli_error(stage_argv("train-hgnn", config, run, tmp_path), capsys)
        assert error == f"{run / 'graph.bin'}: {expected}"

    @pytest.mark.parametrize("name", sorted(set(BINARY_ARTIFACTS) - {"catalog.bin"}))
    def test_meta_holds_no_list_with_one_entry_per_row(self, pipeline_run, name):
        # per-row ids live in id columns; a header holds what the config sizes.
        # `catalog.bin` keeps its item lists in the header: it is read whole,
        # by batch stages only, never by `recommend`
        _, out = pipeline_run
        header, _ = split_container((out / name).read_bytes())
        rows = {entry["shape"][0] for entry in header["arrays"] if entry["shape"]}
        assert not [values for values in meta_lists(header["meta"]) if len(values) in rows]

    @pytest.mark.parametrize(
        "name, stage", [("hgnn_params.bin", "embed"), ("tower_params.bin", "recommend")]
    )
    @pytest.mark.parametrize("how", CHECKPOINT_DAMAGE)
    def test_checkpoint_off_its_layout_is_one_json_line(
        self, pipeline_run, tmp_path, capsys, name, stage, how
    ):
        # `recommend` reads only the user tower, yet refuses a damaged item tower;
        # `embed` hashes its inputs, so the damaged file is recorded as current
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        data, expected = damaged_header((out / name).read_bytes(), how)
        (run / name).write_bytes(data)
        if pipeline.STAGES[stage].outputs:
            rerecord(run, name)
        error = cli_error(stage_argv(stage, config, run, tmp_path), capsys)
        assert re.search(f"{name}: .*{re.escape(expected)}", error), error

    @pytest.mark.parametrize("name", RECOMMEND_CONTAINERS)
    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_cut_or_overwritten_recommend_input_never_raises(
        self, pipeline_run, tmp_path, capsys, name, data
    ):
        config, out = pipeline_run
        run = tmp_path / "run"
        if not run.exists():
            shutil.copytree(out, run)
        (run / name).write_bytes(cut_or_overwritten((out / name).read_bytes(), data, header_only=True))
        code = main(stage_argv("recommend", config, run, tmp_path))
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == ""
            rows = [json.loads(line) for line in captured.out.splitlines()]
            assert len(rows) <= 10
            assert all(isinstance(r["item_id"], str) and isinstance(r["score"], float) for r in rows)
        else:
            assert code == 1 and captured.out == ""
            (line,) = captured.err.strip().splitlines()
            assert json.loads(line)["stage"] == "recommend"
            assert name in json.loads(line)["error"]

    @pytest.mark.parametrize("name", sorted(BINARY_ARTIFACTS))
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_cut_or_overwritten_container_is_loaded_or_refused(self, pipeline_run, tmp_path, name, data):
        _, out = pipeline_run
        path = tmp_path / name
        path.write_bytes(cut_or_overwritten((out / name).read_bytes(), data, header_only=False))
        try:
            BINARY_ARTIFACTS[name](path)
        except ValueError as exc:
            assert name in str(exc)

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda header: header["meta"]["vocabs"].pop("country"), "missing vocab 'country'"),
            (lambda header: header["meta"]["dims"].pop("d_c"), "missing dims key 'd_c'"),
            (lambda header: header["meta"]["dims"].update(user_in=1), "meta 'dims'"),
            (lambda header: header["meta"]["config"].update(music_dim=3), "meta 'dims'"),
            (lambda header: header["meta"]["vocabs"].update(genre=["g0", 1]), "meta 'vocabs' must be"),
        ],
        ids=[
            "vocab-missing",
            "dims-key-missing",
            "dims-off",
            "dims-off-the-config",
            "vocab-entry-not-a-string",
        ],
    )
    def test_tower_meta_that_does_not_fit_its_weights(
        self, pipeline_run, tmp_path, capsys, edit, expected
    ):
        config, out = pipeline_run
        header, payload = split_container((out / "tower_params.bin").read_bytes())
        edit(header)
        path = tmp_path / "tower_params.bin"
        path.write_bytes(join_container(header, payload))
        with pytest.raises(ValueError, match=f"tower_params.bin: .*{re.escape(expected)}"):
            TowerParams.load(path)
        run = shutil.copytree(out, tmp_path / "run")
        shutil.copyfile(path, run / "tower_params.bin")
        rerecord(run, "tower_params.bin")
        error = cli_error(stage_argv("build-index", config, run, tmp_path), capsys)
        assert re.search(f"tower_params.bin: .*{re.escape(expected)}", error), error

    @pytest.mark.parametrize(
        "damage, expected",
        [
            (lambda ids: ids[::-1], "user_ids do not rise strictly"),
            (middle_id_repeated, "user_ids do not rise strictly"),
            ("signals-reordered", "is not the signal order"),
            ("signal-added", "is not the signal order"),
            (lambda ids: ids[:-1], "user_ids has"),
            (
                lambda ids: np.vstack([ids, np.array(["zzz"], f"U{ids.shape[1]}").view(np.uint32)]),
                "user_ids has",
            ),
        ],
        ids=["ids-falling", "id-repeated", "signals-reordered", "signal-added", "id-missing", "id-added"],
    )
    def test_user_features_header_that_does_not_fit_its_rows(
        self, pipeline_run, tmp_path, capsys, damage, expected
    ):
        config, out = pipeline_run
        header, payload = split_container((out / "user_features.bin").read_bytes())
        if damage == "signals-reordered":
            header["meta"]["signals"].reverse()
        elif damage == "signal-added":
            header["meta"]["signals"].append("share")
        else:
            payload = edit_id_column(header, payload, "user_ids", damage)
        path = tmp_path / "user_features.bin"
        path.write_bytes(join_container(header, payload))
        for user in (None, "u0001", "nobody"):
            with pytest.raises(ValueError, match=f"user_features.bin: .*{re.escape(expected)}"):
                UserHistoryTable.load(path, user=user)
        run = shutil.copytree(out, tmp_path / "run")
        shutil.copyfile(path, run / "user_features.bin")
        error = cli_error(stage_argv("recommend", config, run, tmp_path), capsys)
        assert re.search(f"user_features.bin: .*{re.escape(expected)}", error), error

    def test_embeddings_loader_refuses_another_kind(self, pipeline_run, tmp_path):
        _, out = pipeline_run
        path = tmp_path / "embeddings.bin"
        shutil.copyfile(out / "rec_index.bin", path)
        with pytest.raises(ValueError, match="embeddings.bin: container kind is 'index', expected 'embeddings'"):
            NodeEmbeddingTable.load(path)


class TestSelectiveReads:
    @pytest.mark.parametrize("name", sorted(BINARY_ARTIFACTS))
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_selection_changes_only_which_bytes_are_read(self, pipeline_run, name, data):
        _, out = pipeline_run
        path = out / name
        kind = split_container(path.read_bytes())[0]["meta"]["kind"]
        meta, full = io.read_pack(path, kind)
        picks = {}
        for array, value in full.items():
            how = data.draw(st.sampled_from(["whole", "skip", "rows"]), label=array)
            if how == "skip":
                picks[array] = None
            elif how == "rows" and value.ndim and len(value):
                picks[array] = data.draw(st.lists(st.integers(0, len(value) - 1), max_size=8), label="rows")
        seen, read_by_hook = [], {}

        def select(m, shapes, read_rows):
            seen.append((dict(m), dict(shapes)))
            for array, rows in picks.items():
                if rows is not None:
                    read_by_hook[array] = read_rows(array, rows)
            return picks

        picked_meta, picked = io.read_pack(path, kind, select)
        assert seen == [(meta, {a: v.shape for a, v in full.items()})]
        assert picked_meta == meta and picked.shapes == full.shapes
        assert set(picked) == {a for a in full if picks.get(a, ...) is not None}
        assert set(read_by_hook) == {a for a, rows in picks.items() if rows is not None}
        for array, value in [*picked.items(), *read_by_hook.items()]:
            expected = full[array] if array not in picks else full[array][picks[array]]
            assert value.dtype == expected.dtype and value.shape == expected.shape
            assert np.array_equal(value, expected)
        for value in [*full.values(), *picked.values()]:
            assert value.flags.owndata and value.flags.writeable

    @pytest.mark.parametrize(
        "name, select",
        [
            ("tower_params.bin", lambda path: TowerParams.load(path, towers=("user",))),
            ("user_features.bin", lambda path: UserHistoryTable.load(path, user="u0001")),
            ("user_features.bin", lambda path: UserHistoryTable.load(path, user="nobody")),
        ],
        ids=["user-tower", "user-row", "no-user-row"],
    )
    @pytest.mark.parametrize(
        "how", [*HEADER_DAMAGE, *CHECKPOINT_DAMAGE, "header-cut", "payload-cut", "extended"]
    )
    def test_selective_load_refuses_what_a_full_load_refuses(
        self, pipeline_run, tmp_path, name, select, how
    ):
        _, out = pipeline_run
        whole = (out / name).read_bytes()
        path = tmp_path / name
        damaged = {"header-cut": whole[:8], "payload-cut": whole[:-1], "extended": whole + b"\0"}
        path.write_bytes(damaged[how] if how in damaged else damaged_header(whole, how)[0])
        refused = load_outcome(BINARY_ARTIFACTS[name], path)
        assert load_outcome(select, path) == refused
        if how not in CHECKPOINT_DAMAGE:
            assert refused is not None and name in refused

    def test_selected_user_row_is_that_of_the_full_table(self, pipeline_run):
        _, out = pipeline_run
        params = TowerParams.load(out / "tower_params.bin", towers=("user",))
        full = UserHistoryTable.load(out / "user_features.bin")
        for row in (0, 3, len(full.user_ids) - 1):
            user = full.user_ids[row]
            table = UserHistoryTable.load(out / "user_features.bin", user=user)
            assert table.user_ids == [user]
            for name in HISTORY_ARRAYS:
                assert np.array_equal(getattr(table, name), getattr(full, name)[[row]])
        # ids before the first, between two and after the last
        for user in ("", full.user_ids[0] + "x", "zzz"):
            table = UserHistoryTable.load(out / "user_features.bin", user=user)
            assert table.user_ids == [] and table.dim == full.dim
            for source in (table, full):
                # the packed history part: both means and log1p of every count
                _, dense = user_inputs(params, source, [user])
                history = dense[:, params.config.music_dim :]
                assert np.array_equal(history, np.zeros((1, 2 * full.dim + len(data.SIGNALS))))

    @pytest.mark.parametrize(
        "prefix, value, expected",
        [
            ("indptr.", 1 << 40, "does not rise from 0"),
            ("indices.", -1, "names a node outside"),
        ],
    )
    def test_graph_adjacency_off_its_node_lists_refused(self, pipeline_run, tmp_path, prefix, value, expected):
        _, out = pipeline_run
        header, payload = split_container((out / "graph.bin").read_bytes())
        array = next(e["name"] for e in header["arrays"] if e["name"].startswith(prefix))
        start, _ = array_spans(header)[array]
        payload = payload[:start] + struct.pack("<q", value) + payload[start + 8 :]
        path = tmp_path / "graph.bin"
        path.write_bytes(join_container(header, payload))
        with pytest.raises(ValueError, match=f"graph.bin: {re.escape(array)} {expected}"):
            load_graph(path)


def bisection_probes(ids: list[str], user: str) -> list[int]:
    """The rows whose ids a bisection for `user` in the sorted `ids` compares
    with, in order: the id rows a single-user load of `user_features.bin`
    reads."""
    lo, hi, probes = 0, len(ids), []
    while lo < hi:
        mid = (lo + hi) // 2
        probes.append(mid)
        lo, hi = (mid + 1, hi) if ids[mid] < user else (lo, mid)
    return probes


@contextlib.contextmanager
def bytes_read():
    """Count, by file name, the bytes each binary file opened for reading
    within the block hands out."""
    delivered = Counter()
    real_open = builtins.open

    class Counted:
        """A binary file that counts the bytes it hands out."""

        def __init__(self, fh, name):
            self.fh, self.name = fh, name

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, attr):
            return getattr(self.fh, attr)

        def read(self, *args):
            data = self.fh.read(*args)
            delivered[self.name] += len(data)
            return data

        def readinto(self, buffer):
            n = self.fh.readinto(buffer)
            delivered[self.name] += n
            return n

    def spy_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return Counted(fh, pathlib.Path(file).name) if "b" in mode and "r" in mode else fh

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "open", spy_open)
        yield delivered


class TestServedBytes:
    """`rec recommend` reads the user tower, the id rows of
    `user_features.bin` its bisection probes and the user's row of each other
    array, and no other payload byte of either file."""

    @staticmethod
    def _nan_outside(run, name: str, keep) -> None:
        """Overwrite with float64 NaN bit patterns, in `run/name`, each row of
        each array that `keep(entry)`, given the array's header entry, does
        not list among the rows it keeps. In an id column such a row holds
        values above U+10FFFF."""
        header, payload = split_container((run / name).read_bytes())
        payload = bytearray(payload)
        for entry in header["arrays"]:
            start, end = array_spans(header)[entry["name"]]
            row = (end - start) // entry["shape"][0]
            nan = (np.full(row // 8 + 1, np.nan).tobytes())[:row]
            for r in set(range(entry["shape"][0])) - set(keep(entry)):
                payload[start + r * row : start + (r + 1) * row] = nan
        (run / name).write_bytes(join_container(header, bytes(payload)))

    @pytest.mark.parametrize("user", ["u0001", "u9999", 'unseen "id" \u00e9'])
    def test_recommend_output_ignores_every_unserved_byte(self, pipeline_run, tmp_path, capsys, user):
        config, out = pipeline_run
        cfg_path = tmp_path / "config.json"
        io.write_json(config.to_dict(), cfg_path)
        argv = ["recommend", "--config", str(cfg_path), "--user", user, "--out"]
        assert main([*argv, str(out)]) == 0
        served = capsys.readouterr().out
        run = shutil.copytree(out, tmp_path / "run")
        ids = UserHistoryTable.load(out / "user_features.bin").user_ids
        assert (user in ids) == (user == "u0001")

        def user_tower(entry):
            return range(entry["shape"][0]) if entry["name"].startswith("user.") else ()

        def user_rows(entry):
            if entry["name"] == "user_ids":
                return bisection_probes(ids, user)
            return [ids.index(user)] if user in ids else []

        self._nan_outside(run, "tower_params.bin", user_tower)
        self._nan_outside(run, "user_features.bin", user_rows)
        for name in ("train.jsonl", "holdout.jsonl", "split_meta.json", "embeddings.bin"):
            (run / name).unlink()
        assert main([*argv, str(run)]) == 0
        assert capsys.readouterr().out == served

    def test_recommend_reads_the_tower_header_and_the_user_tower_only(
        self, pipeline_run, tmp_path, capsys
    ):
        config, out = pipeline_run
        cfg_path = tmp_path / "config.json"
        io.write_json(config.to_dict(), cfg_path)
        with bytes_read() as delivered:
            code = main(["recommend", "--config", str(cfg_path), "--out", str(out), "--user", "u0001"])
        assert code == 0, capsys.readouterr().err
        assert set(delivered) == set(RECOMMEND_CONTAINERS)
        whole = (out / "tower_params.bin").read_bytes()
        header = split_container(whole)[0]
        user_tower = sum(_nbytes(e) for e in header["arrays"] if e["name"].startswith("user."))
        assert 0 < delivered["tower_params.bin"] <= header_length(whole) + user_tower < len(whole)
        # the header, the id rows the bisection probes, and the user's row of each other array
        whole = (out / "user_features.bin").read_bytes()
        header = split_container(whole)[0]
        rows = {e["name"]: _nbytes(e) // e["shape"][0] for e in header["arrays"]}
        probes = bisection_probes(UserHistoryTable.load(out / "user_features.bin").user_ids, "u0001")
        served = len(probes) * rows["user_ids"] + sum(rows[name] for name in HISTORY_ARRAYS)
        assert delivered["user_features.bin"] == header_length(whole) + served

    def test_single_user_load_reads_a_logarithmic_number_of_id_rows(self, tmp_path):
        # built with the table's writer; the cost is counted in bytes, not timed
        n, dim = 100_000, 2
        rng = np.random.default_rng(0)
        table = UserHistoryTable(
            [f"u{i:06d}" for i in range(n)],
            rng.normal(size=(n, dim)),
            rng.normal(size=(n, dim)),
            rng.integers(0, 5, size=(n, len(data.SIGNALS))),
        )
        path = tmp_path / "user_features.bin"
        table.save(path)
        whole = path.read_bytes()
        rows = {e["name"]: _nbytes(e) // n for e in split_container(whole)[0]["arrays"]}
        probed = header_length(whole) + (math.ceil(math.log2(n)) + 1) * rows["user_ids"]
        # an id that is present, one below the first id and one above the last
        for user, row in [("u031415", 31415), ("u", None), ("v", None)]:
            with bytes_read() as delivered:
                loaded = UserHistoryTable.load(path, user=user)
            kept = [] if row is None else [row]
            served = sum(rows[name] for name in HISTORY_ARRAYS) * len(kept)
            assert 0 < delivered[path.name] <= probed + served
            assert loaded.user_ids == [user] * len(kept)
            for name in HISTORY_ARRAYS:
                assert np.array_equal(getattr(loaded, name), getattr(table, name)[kept])

    # (damage, the id row the bisection probes, the user it looks up); a row
    # that `column_ids` refuses is the first one probed, an id it accepts is
    # the row the lookup ends on
    PROBED_IDS = [
        ("above-U+10FFFF", 500, "u000123"),
        ("NUL-inside", 500, "u000123"),
        ("lone-surrogate", 999, "\ud800"),
        ("all-NUL", 0, ""),
    ]

    @pytest.mark.parametrize("damage, row, user", PROBED_IDS, ids=[d for d, _, _ in PROBED_IDS])
    def test_single_user_load_decodes_a_probed_id_as_column_ids_does(self, tmp_path, damage, row, user):
        n, dim = 1000, 2
        rng = np.random.default_rng(0)
        ids = [f"u{i:06d}" for i in range(n)]
        if damage in ("lone-surrogate", "all-NUL"):
            ids[row] = user  # still rising: a surrogate sorts above 'u', the empty id below all
        table = UserHistoryTable(
            ids,
            rng.normal(size=(n, dim)),
            rng.normal(size=(n, dim)),
            rng.integers(0, 5, size=(n, len(data.SIGNALS))),
        )
        path = tmp_path / "user_features.bin"
        table.save(path)
        header, payload = split_container(path.read_bytes())
        code_points = {"above-U+10FFFF": [0x110000, 0x75], "NUL-inside": [0x75, 0, 0x78]}
        if damage in code_points:

            def overwrite(column):
                column = column.copy()
                column[row, : len(code_points[damage])] = code_points[damage]
                return column

            payload = edit_id_column(header, payload, "user_ids", overwrite)
            path.write_bytes(join_container(header, payload))
        whole = path.read_bytes()
        rows = {e["name"]: _nbytes(e) // n for e in split_container(whole)[0]["arrays"]}
        probed = header_length(whole) + (math.ceil(math.log2(n)) + 1) * rows["user_ids"]
        start = header_length(whole) + array_spans(header)["user_ids"][0] + row * rows["user_ids"]
        probed_row = np.frombuffer(whole[start : start + rows["user_ids"]], np.uint32).reshape(1, -1)
        try:
            want = io.column_ids(path, "user_ids", probed_row).item()
        except ValueError as exc:
            assert damage in code_points
            with bytes_read() as delivered, pytest.raises(ValueError) as refused:
                UserHistoryTable.load(path, user=user)
            assert str(refused.value) == str(exc)
            kept = []
        else:
            assert want == user and damage not in code_points
            with bytes_read() as delivered:
                loaded = UserHistoryTable.load(path, user=user)
            kept = [row]
            assert loaded.user_ids == [user]
            for name in HISTORY_ARRAYS:
                assert np.array_equal(getattr(loaded, name), getattr(table, name)[kept])
        served = sum(rows[name] for name in HISTORY_ARRAYS) * len(kept)
        assert 0 < delivered[path.name] <= probed + served


class TestDeterminism:
    def test_two_runs_byte_identical_reports(self, tmp_path):
        digests = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_pipeline(tiny_config(), out)
            digests.append(io.sha256_file(out / "evaluation.json"))
        assert digests[0] == digests[1]

    def test_stage_isolation(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        for stage in DAILY:
            run_stage(stage, config, out)
        before = {
            name: io.sha256_file(out / name)
            for name in ("embeddings.bin", "tower_params.bin", "rec_index.bin", "evaluation.json")
        }
        # delete downstream artifacts, rerun only downstream stages
        for name in before:
            (out / name).unlink()
        for stage in ("embed", "train-2t", "build-index", "evaluate"):
            run_stage(stage, config, out)
        after = {name: io.sha256_file(out / name) for name in before}
        assert before == after


# every (stage, upstream artifact) pair the table declares for a stage that writes a manifest
STAGE_INPUTS = [
    (stage, key)
    for stage, spec in pipeline.STAGES.items()
    if spec.outputs
    for key in spec.inputs + spec.optional
    if key in pipeline.ARTIFACTS
]


CATALOG_ROW = {"item_id": "x", "item_type": "audiobook", "content_vector": [0.0], "language": "en", "genre": "g"}
DEMO_ROW = {"user_id": "u1", "country": "SE", "age_bucket": "25-34"}


def rerecord(run, name):
    """Record the current bytes of `name` in its producer's manifest, so a
    stage that hashes its inputs takes the file as current."""
    for path in (run / "manifests").glob("*.json"):
        manifest = io.read_json(path)
        if name in manifest["outputs"]:
            manifest["outputs"][name] = io.sha256_file(run / name)
            io.write_json(manifest, path)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_SECTIONS = [f for f in dataclasses.fields(PipelineConfig) if f.name != "seed"]
# arbitrary JSON, and objects whose keys are mostly the config's own section
# and field names, so that drawn values reach the per-field checks
CONFIG_VALUES = JSON_VALUES | st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]) | st.text(max_size=8),
    JSON_VALUES
    | st.dictionaries(
        st.sampled_from(
            sorted({f.name for s in _SECTIONS for f in dataclasses.fields(s.default_factory)})
        ),
        JSON_VALUES,
        max_size=3,
    ),
    max_size=4,
)


def sizes_within(value, bound: float) -> bool:
    """Whether every number in a drawn config, its seed aside, lies within
    `bound` of zero: a size or epoch count up to it trains at the fixture's
    scale, where a drawn 10**7 would allocate gigabytes or train for hours."""
    if isinstance(value, dict):
        return all(sizes_within(v, bound) for k, v in value.items() if k != "seed")
    if isinstance(value, list):
        return all(sizes_within(v, bound) for v in value)
    return isinstance(value, bool) or not isinstance(value, (int, float)) or abs(value) <= bound


def damaged_jsonl(whole: bytes, data) -> bytes:
    """A JSON-lines file cut at a drawn length, with one drawn byte
    overwritten, or with one field of one line set to a value of another JSON
    type or deleted."""
    how = data.draw(st.sampled_from(["cut", "byte", "retyped", "deleted"]), label="damage")
    if how == "cut":
        return whole[: data.draw(st.integers(0, len(whole) - 1), label="length")]
    if how == "byte":
        at = data.draw(st.integers(0, len(whole) - 1), label="at")
        return whole[:at] + bytes([data.draw(st.integers(0, 255), label="value")]) + whole[at + 1 :]
    lines = whole.decode("utf-8").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    row = json.loads(lines[at])
    key = data.draw(st.sampled_from(sorted(row)), label="field")
    if how == "retyped":
        row[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(row[key])), label="value")
    else:
        del row[key]
    lines[at] = json.dumps(row)
    return "\n".join(lines).encode("utf-8") + b"\n"


def run_or_one_json_line(argv, capsys) -> int:
    """Run the CLI in process; it must exit 0, or exit 1 with one JSON error
    line naming the stage on stderr."""
    code = main(argv)
    captured = capsys.readouterr()
    if code != 0:
        assert code == 1 and captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert json.loads(line)["stage"] == argv[0]
    return code


def tree_bytes(root: pathlib.Path) -> dict:
    """Every file under `root`, by relative path, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def cli_error(argv, capsys) -> str:
    """Run the CLI expecting exit 1 and one JSON error line; return the error."""
    assert main(argv) == 1
    err_lines = capsys.readouterr().err.strip().splitlines()
    assert len(err_lines) == 1
    payload = json.loads(err_lines[0])
    assert payload["stage"] == argv[0]
    return payload["error"]


def stage_argv(stage, config, run, tmp_path):
    cfg_path = tmp_path / "config.json"
    io.write_json(config.to_dict(), cfg_path)
    argv = [stage, "--config", str(cfg_path), "--out", str(run)]
    return argv + (["--user", "u0001"] if stage == "recommend" else [])


class TestStaleInputs:
    @pytest.mark.parametrize("stage, key", STAGE_INPUTS, ids=[f"{s}-{k}" for s, k in STAGE_INPUTS])
    def test_changed_upstream_file_refused(self, pipeline_run, tmp_path, capsys, stage, key):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        name = pipeline.ARTIFACTS[key]
        (run / name).write_bytes((run / name).read_bytes() + b"\n")
        before = {p.name: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        error = cli_error(stage_argv(stage, config, run, tmp_path), capsys)
        assert f"stale input {name!r}" in error
        assert f"rerun the {pipeline._PRODUCER[key]!r} stage" in error
        assert {p.name: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_rewritten_catalog_bin_stales_embed(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        catalog = data.load_checked_catalog(run / "catalog.bin")
        data.save_checked_catalog(dict(list(catalog.items())[1:]), run / "catalog.bin")
        error = cli_error(stage_argv("embed", config, run, tmp_path), capsys)
        assert error == (
            "stale input 'catalog.bin': it changed after the 'build-graph' stage wrote it; "
            "rerun the 'build-graph' stage"
        )
        assert (run / "embeddings.bin").read_bytes() == (out / "embeddings.bin").read_bytes()

    def test_damaged_catalog_bin_recorded_as_current_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        header, payload = split_container((run / "catalog.bin").read_bytes())
        header["meta"]["item_id"][1] = header["meta"]["item_id"][0]
        (run / "catalog.bin").write_bytes(join_container(header, payload))
        rerecord(run, "catalog.bin")  # embed hashes its inputs
        error = cli_error(stage_argv("embed", config, run, tmp_path), capsys)
        assert error == f"{run / 'catalog.bin'}: item_id lists {header['meta']['item_id'][0]!r} twice"

    @pytest.mark.parametrize("name, stage", [("train.bin", "build-graph"), ("holdout.bin", "evaluate")])
    def test_damaged_columns_recorded_as_current_are_one_json_line(self, pipeline_run, tmp_path, capsys, name, stage):
        # a weak signal on a podcast, which split never writes
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        log = data.Interactions.load(run / name)
        at = int(np.flatnonzero(log.item_type == data.PODCAST)[0])
        signal = log.signal.copy()
        signal[at] = data.SIGNALS.index("follow")
        dataclasses.replace(log, signal=signal).save(run / name)
        rerecord(run, name)  # the stage hashes its inputs
        error = cli_error(stage_argv(stage, config, run, tmp_path), capsys)
        assert error == (
            f"{run / name}: record {at} gives signal 'follow' to a 'podcast'; it is only valid for audiobooks"
        )

    def test_user_features_rewritten_after_train_2t_stales_evaluate(self, pipeline_run, tmp_path, capsys):
        # evaluate scores the rows recommend serves, as train-2t wrote them
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        table = UserHistoryTable.load(run / "user_features.bin")
        table.interaction_counts = table.interaction_counts + 1
        table.save(run / "user_features.bin")
        error = cli_error(stage_argv("evaluate", config, run, tmp_path), capsys)
        assert error == (
            "stale input 'user_features.bin': it changed after the 'train-2t' stage wrote it; "
            "rerun the 'train-2t' stage"
        )
        assert (run / "evaluation.json").read_bytes() == (out / "evaluation.json").read_bytes()

    def test_retrained_tower_stales_the_index(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        report = (run / "evaluation.json").read_bytes()
        run_stage("train-2t", tiny_config(seed=12), run)
        assert (run / "tower_params.bin").read_bytes() != (out / "tower_params.bin").read_bytes()
        for stage in ("evaluate", "recommend"):
            error = cli_error(stage_argv(stage, config, run, tmp_path), capsys)
            assert "stale input 'rec_index.bin'" in error and "rerun the 'build-index' stage" in error
        assert (run / "evaluation.json").read_bytes() == report
        run_stage("build-index", config, run)
        assert run_stage("evaluate", config, run)["models"]["two_tower_hgnn"]["all"]["n_users"] > 0
        assert len(run_stage("recommend", config, run, user="u0001", k=3)) == 3

    def test_retrained_hgnn_stales_the_embeddings(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        run_stage("train-hgnn", tiny_config(seed=12), run)
        error = cli_error(stage_argv("train-2t", config, run, tmp_path), capsys)
        assert "stale input 'embeddings.bin'" in error and "rerun the 'embed' stage" in error
        run_stage("embed", config, run)
        run_stage("train-2t", config, run)

    def test_synth_rerun(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        run_stage("synth", config, run)  # same seed, same bytes: everything stays current
        run_stage("evaluate", config, run)
        run_stage("recommend", config, run, user="u0001", k=3)
        run_stage("synth", tiny_config(seed=12), run)
        error = cli_error(stage_argv("build-graph", config, run, tmp_path), capsys)
        assert "stale input 'train.bin'" in error and "rerun the 'split' stage" in error

    def test_quality_sweep_layout(self, tmp_path, monkeypatch):
        # data stages run once, then each seed reruns the model stages in a copy
        sweep = load_script(ROOT / "scripts" / "quality_sweep.py")
        monkeypatch.setattr(sweep, "SEEDS", (12, 13))
        result = sweep.sweep(tiny_config(), tmp_path)
        assert set(result["seeds"]) == {"12", "13"}
        assert io.read_json(tmp_path / "hgnn-13" / "manifests" / "train-hgnn.json")["seed"] == 13

    def test_quality_sweep_intervals(self, tmp_path, monkeypatch, capsys):
        # paired over (data seed, HGNN seed) runs; values in 1/64 steps keep a shift exact
        sweep = load_script(ROOT / "scripts" / "quality_sweep.py")
        rng = np.random.default_rng(3)

        def sweeps(values):
            return {"data_seeds": {
                str(d): {"seeds": {
                    str(s): {"two_tower_hgnn": dict(zip(sweep.METRICS, values[d, s])), "popularity": None}
                    for s in range(3)
                }}
                for d in range(2)
            }}

        base = rng.integers(0, 64, (2, 3, 2)) / 64
        other = rng.integers(0, 64, (2, 3, 2)) / 64
        want = sweeps(base)
        for got, shift in ((sweeps(base), 0.0), (sweeps(base + 0.25), 0.25)):
            result = sweep.intervals(got, want)
            assert set(result) == {("two_tower_hgnn", m) for m in sweep.METRICS}
            assert all(r == (6, shift, shift, shift) for r in result.values())
        result = sweep.intervals(sweeps(other), want)
        assert result == sweep.intervals(sweeps(other), want)
        assert all(low < mean < high for _, mean, low, high in result.values())

        # runs on one split share its noise: a data seed whose runs all moved
        # +d beside one whose runs all moved -d gives an interval of [-d, +d]
        d = 0.125

        def split_sweeps(shift):
            return {"data_seeds": {
                str(data): {"seeds": {
                    str(s): {"two_tower_hgnn": dict.fromkeys(sweep.METRICS, 0.5 + shift * sign)}
                    for s in range(8)
                }}
                for data, sign in ((3, 1), (7, -1))
            }}

        result = sweep.intervals(split_sweeps(d), split_sweeps(0.0))
        assert all(r == (16, 0.0, -d, d) for r in result.values())

        # `--from A --against B` compares two saved sweeps and runs nothing
        saved = {}
        for name, shift in (("a", d), ("b", 0.0)):
            result = split_sweeps(shift)
            for entry in result["data_seeds"].values():
                entry["config_hash"] = "h"
            saved[name] = tmp_path / f"{name}.json"
            saved[name].write_text(json.dumps(result))
        monkeypatch.setattr(sweep, "sweep", None)
        sweep.main(["--from", str(saved["a"]), "--against", str(saved["b"])])
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            f"32 warm-segment values differ from {saved['b']}",
            "two_tower_hgnn hr_at_k: +0.0000 [-0.1250, +0.1250] over 16 paired runs",
            "two_tower_hgnn mrr: +0.0000 [-0.1250, +0.1250] over 16 paired runs",
        ]


    def test_query_scaling_runs(self, pipeline_run, capsys):
        # the script writes its tables through the UserHistoryTable constructor
        scaling = load_script(ROOT / "scripts" / "query_scaling.py")
        scaling.table_scaling([64], 1, 0)
        header, row = capsys.readouterr().out.splitlines()
        assert header.split()[0] == "users" and row.split()[0] == "64"
        _, out = pipeline_run
        scaling.query_parts(out, "u0001", 1)
        parts = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert parts == ["run_stage", "_current_inputs", "TowerParams.load", "UserHistoryTable.load",
                         "load_index", "recommend_scored"]

    def test_artifact_hashes_runs_and_leaves_the_environment(self, tmp_path, monkeypatch):
        # `run_stage` records the BLAS thread variables in every manifest, so
        # importing the script must not set them; only running it does
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        before = dict(os.environ)
        hashes = load_script(ROOT / "scripts" / "artifact_hashes.py")
        assert dict(os.environ) == before
        digests = hashes.artifact_hashes(tiny_config().to_dict(), tmp_path)
        wanted = {"tower_params.bin", "rec_index.bin", "manifests/train-2t.json", "recommend@10", "rankings"}
        assert wanted <= set(digests)
        assert "hgnn_train_log.jsonl" not in digests

    def test_stage_memory_runs_and_unwraps_the_phases(self, tmp_path):
        # one line per daily stage, then one per phase it entered; the
        # wrapped hgnn functions and tracemalloc are left as they were
        memory = load_script(ROOT / "scripts" / "stage_memory.py")
        originals = {name: getattr(hgnn, name) for name in memory.PHASES.values()}
        lines = [line.split() for line in memory.measure(tiny_config(), tmp_path)]
        assert [line[0] for line in lines if line[1] == "peak"] == list(DAILY)
        for line in lines:
            if line[1] == "peak":
                assert line[3:] == ["wall", line[4], "maxrss", line[6]]
                assert float(line[2]) > 0 and float(line[4]) > 0 and float(line[6]) > 0
        hgnn_lines = {line[1]: line for line in lines if line[0] == "train-hgnn"}
        assert set(hgnn_lines) == {"peak", *memory.PHASES, "first-forward"}
        phase_peaks = [float(hgnn_lines[phase][3]) for phase in memory.PHASES]
        assert max(phase_peaks) <= float(hgnn_lines["peak"][2])
        assert 0 < float(hgnn_lines["first-forward"][2]) < min(phase_peaks)
        assert {line[1] for line in lines if line[0] == "embed"} == {"peak", "forward", "first-forward"}
        assert {name: getattr(hgnn, name) for name in originals} == originals
        assert not tracemalloc.is_tracing()

    def test_scale_curve_runs_at_scale_one(self, tmp_path):
        # one row of the fixed-activity scale curve on the tiny config; the
        # timed and traced functions are left as they were
        curve = load_script(ROOT / "scripts" / "scale_curve.py")
        originals = {name: getattr(hgnn, name) for name in (*curve.PHASES.values(), "batch_loss_and_grads")}
        stream_counts = synth._stream_counts
        config = tiny_config()
        twice = curve.scaled(config, 2)
        assert (twice.synth.n_users, twice.synth.n_audiobooks) == (2 * config.synth.n_users, 2 * config.synth.n_audiobooks)
        assert twice.synth.podcast_stream_rate == config.synth.podcast_stream_rate / 2
        assert twice.hgnn.max_epochs == 1
        row = curve.measure(config, 1, tmp_path)
        graph = load_graph(tmp_path / pipeline.ARTIFACTS["graph"])
        assert row["nodes"] == sum(len(ids) for ids in graph.nodes.values()) > 0
        assert set(row["edges"]) == set(graph.relations)
        assert row["synth_s"] > row["dense_s"] > 0
        assert row["epoch_s"] > 0 and row["batches"] >= 1
        assert set(row["phase_mib"]) == set(curve.PHASES) and min(row["phase_mib"].values()) > 0
        fields = curve.format_row(row).split()
        assert len(fields) == len(curve.HEADER.split()) and fields[:2] == ["1", str(row["nodes"])]
        assert {name: getattr(hgnn, name) for name in originals} == originals
        assert synth._stream_counts is stream_counts
        assert not tracemalloc.is_tracing()

# chains the manifest walk must judge as its oracle does: (damage, what it hits)
CHAIN_CASES = [
    ("intact", None),
    *(("rerun", stage) for stage in DAILY),
    *(("rewrite", key) for key in sorted({key for _, key in STAGE_INPUTS})),
    *(("no-manifest", stage) for stage in DAILY),
    ("not-utf8", "train-2t"),
    ("not-json", "split"),
    ("configured", "catalog"),
    ("configured-missing", "music_vectors"),
]


def damage_chain(run, tmp_path, damage: str, what) -> PipelineConfig:
    """Apply one `CHAIN_CASES` damage to the run copy `run`; return the config to walk it with."""
    config = tiny_config()
    manifest = run / "manifests" / f"{what}.json"
    if damage == "rerun":
        run_stage(what, tiny_config(seed=12), run)
    elif damage == "rewrite":
        name = pipeline.ARTIFACTS[what]
        (run / name).write_bytes((run / name).read_bytes() + b"\n")
    elif damage == "no-manifest":
        manifest.unlink()
    elif damage == "not-utf8":
        manifest.write_bytes(b'{"outputs": "\xff"}')
    elif damage == "not-json":
        manifest.write_text("{")
    elif damage == "configured":  # a catalog other than the chain's, which build-graph reads
        catalog = tmp_path / "catalog.jsonl"
        catalog.write_bytes((run / "catalog.jsonl").read_bytes() + b"\n")
        for path in (run / "manifests").glob("*.json"):
            recorded = io.read_json(path)
            if "catalog.jsonl" in recorded["inputs"]:
                recorded["inputs"]["catalog.jsonl"] = io.sha256_file(catalog)
                io.write_json(recorded, path)
        io.write_jsonl([{"user_id": "u0001", "vector": [0.5] * 8}], tmp_path / "music.jsonl")
        io.write_jsonl([DEMO_ROW], tmp_path / "demo.jsonl")
        io.write_json({"full": {}}, tmp_path / "variants.json")
        config.paths.catalog = str(catalog)
        config.paths.music_vectors = str(tmp_path / "music.jsonl")
        config.paths.demographics = str(tmp_path / "demo.jsonl")
        config.eval.ablation_manifest = str(tmp_path / "variants.json")
    elif damage == "configured-missing":
        setattr(config.paths, what, str(tmp_path / "missing.jsonl"))
    return config


def walk_outcome(walk, spec, config, run):
    """What a chain walk gives: its files and digests, or the text of its refusal."""
    try:
        return walk(spec, config, run)
    except (PipelineError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestChainWalk:
    @pytest.mark.parametrize("damage, what", CHAIN_CASES, ids=[f"{d}-{w}" for d, w in CHAIN_CASES])
    def test_walk_matches_its_oracle(self, pipeline_run, tmp_path, damage, what):
        _, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        config = damage_chain(run, tmp_path, damage, what)
        outcomes = {}
        for stage, spec in pipeline.STAGES.items():
            want = walk_outcome(current_inputs, spec, config, run)
            assert walk_outcome(pipeline._current_inputs, spec, config, run) == want, stage
            outcomes[stage] = want
        refused = {stage for stage, outcome in outcomes.items() if isinstance(outcome, str)}
        if damage == "rerun":  # a stage that draws nothing writes the same bytes under any seed
            outputs = [io.read_json(r / "manifests" / f"{what}.json")["outputs"] for r in (out, run)]
            stale = outputs[0] != outputs[1]
        else:
            stale = damage not in ("intact", "configured")
        # no stage reads what `evaluate` writes, its manifest included
        assert bool(refused) == (stale and what != "evaluate"), refused


class TestAblate:
    def test_seven_variants(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        run_stage("synth", config, out)
        report = run_stage("ablate", config, out)
        assert set(report["variants"]) == set(ABLATION_VARIANTS)
        assert len(report["variants"]) == 7
        assert (out / "ablation_report.json").exists()
        manifest = io.read_json(out / "manifests" / "ablate.json")
        assert set(manifest["inputs"]) == {"interactions.jsonl", "catalog.jsonl"}
        csv_text = (out / "ablation_report.csv").read_text()
        assert csv_text.splitlines()[0].startswith("variant,segment")
        # homogeneous variants restrict the graph
        pp_graph = load_graph(out / "ablations" / "pp-only-inductive" / "graph.bin")
        assert set(pp_graph.nodes) == {"podcast"}
        aa_graph = load_graph(out / "ablations" / "aa-only" / "graph.bin")
        assert set(aa_graph.nodes) == {"audiobook"}
        # every variant still evaluates the full model
        for entry in report["variants"].values():
            assert entry["all"]["n_users"] > 0

    def test_custom_manifest_file(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        run_stage("synth", config, out)
        manifest_path = tmp_path / "variants.json"
        io.write_json(
            {"full": {}, "pp-only": {"graph": {"relations": ["pp"]}}}, manifest_path
        )
        config.eval.ablation_manifest = str(manifest_path)
        report = run_stage("ablate", config, out)
        assert set(report["variants"]) == {"full", "pp-only"}

    def test_variant_file_is_a_manifest_input(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        run_stage("synth", config, out)
        config.eval.ablation_manifest = str(tmp_path / "absent.json")
        with pytest.raises(PipelineError, match="configured eval.ablation_manifest does not exist"):
            run_stage("ablate", config, out)
        inputs = {}
        for name, variants in (
            ("a", {"full": {}}),
            ("b", {"no-weak-signals": {"two_tower": {"use_weak_signals": False}}}),
        ):
            path = tmp_path / name / "variants.json"
            path.parent.mkdir()
            io.write_json(variants, path)
            config.eval.ablation_manifest = str(path)
            run_stage("ablate", config, out)
            inputs[name] = io.read_json(out / "manifests" / "ablate.json")["inputs"]
            assert inputs[name]["variants.json"] == io.sha256_file(path)
        assert inputs["a"] != inputs["b"]


    @pytest.mark.parametrize(
        "variants, settings, expected",
        [
            # was an AttributeError traceback
            ({"full": {}, "x": 5}, {}, "ablation variant 'x' must be an object of overrides, got number"),
            # was a KeyError traceback, after the first variant had run
            (
                {"full": {}, "no-tower": {"eval": {"models": ["popularity"]}}},
                {},
                "ablation variant 'no-tower': eval.models must include 'two_tower_hgnn'",
            ),
            (None, {"models": ["popularity"]}, "ablation variant 'full': eval.models must include"),
            ({"full": {}, "typo": {"grpah": {}}}, {}, "bad override section 'grpah'"),
            # ".." ran split through evaluate in the run itself, over its artifacts
            ({"full": {}, "..": {"hgnn": {"max_epochs": 1}}}, {}, "ablation variant '..' must be a plain"),
            ({"full": {}, ".": {}}, {}, "ablation variant '.' must be a plain directory name"),
            ({"full": {}, "": {}}, {}, "ablation variant '' must be a plain directory name"),
            ({"full": {}, "a/b": {}}, {}, "ablation variant 'a/b' must be a plain directory name"),
            ({"full": {}, "a\0b": {}}, {}, "ablation variant 'a\\x00b' must be a plain directory name"),
            # an absolute name wrote outside the run altogether
            ("absolute", {}, "outside' must be a plain directory name"),
        ],
    )
    def test_bad_variant_refused_before_any_runs(self, tmp_path, capsys, variants, settings, expected):
        config = tiny_config()
        out = tmp_path / "run"
        run_stage("synth", config, out)
        cfg = config.to_dict()
        cfg["eval"].update(settings)
        if variants == "absolute":
            variants = {"full": {}, str(tmp_path / "outside"): {}}
        if variants is not None:
            manifest_path = tmp_path / "variants.json"
            io.write_json(variants, manifest_path)
            cfg["eval"]["ablation_manifest"] = str(manifest_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        before = tree_bytes(tmp_path)
        error = cli_error(["ablate", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert expected in error
        assert tree_bytes(tmp_path) == before
        assert not (out / "ablations").exists()

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(manifest=JSON_VALUES | st.dictionaries(st.text(max_size=8), CONFIG_VALUES, max_size=3))
    def test_any_json_manifest_refused_is_one_json_line(self, synth_run, tmp_path, capsys, manifest):
        # an object gets one entry whose name is always refused, so every
        # example is refused, and must be before any variant runs
        config, out = synth_run
        if isinstance(manifest, dict):
            manifest[".."] = {"hgnn": {"max_epochs": 1}}
        manifest_path = tmp_path / "variants.json"
        manifest_path.write_text(json.dumps(manifest))
        cfg = config.to_dict()
        cfg["eval"]["ablation_manifest"] = str(manifest_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        before = tree_bytes(out)
        cli_error(["ablate", "--config", str(cfg_path), "--out", str(out)], capsys)
        assert tree_bytes(out) == before
        assert not (out / "ablations").exists()


class TestCli:
    def test_full_cycle_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        io.write_json(tiny_config().to_dict(), cfg_path)
        out = str(tmp_path / "out")
        for stage in DAILY:
            assert main([stage, "--config", str(cfg_path), "--out", out]) == 0

        assert main(["recommend", "--config", str(cfg_path), "--out", out, "--user", "u0001", "--k", "4"]) == 0
        lines = [l for l in capsys.readouterr().out.strip().splitlines() if l]
        assert len(lines) == 4
        parsed = json.loads(lines[0])
        assert set(parsed) == {"item_id", "score"}

    def test_error_is_single_line_json_and_nonzero(self, tmp_path, capsys):
        code = main(["evaluate", "--out", str(tmp_path / "empty")])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert "error" in payload and payload["stage"] == "evaluate"

    def _run_on_records(self, synth_run, tmp_path, records) -> tuple[str, str]:
        """A config reading `records` as its interaction log, and a run directory."""
        config, synth_dir = synth_run
        data.save_interactions(data.Interactions.from_records(records), tmp_path / "interactions.jsonl")
        cfg = config.to_dict()
        cfg["paths"]["interactions"] = str(tmp_path / "interactions.jsonl")
        cfg["paths"]["catalog"] = str(synth_dir / "catalog.jsonl")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        return str(cfg_path), str(tmp_path / "run")

    def test_holdout_item_absent_from_the_catalog_is_one_json_line(self, synth_run, tmp_path, capsys):
        # a relevant item no model can rank used to lower every model's hit rate
        _, synth_dir = synth_run
        records = parse_interactions(synth_dir / "interactions.jsonl").records
        last = max(r.timestamp for r in records)
        records.append(data.InteractionRecord("u0001", "a9999", "audiobook", "stream", last))
        cfg, out = self._run_on_records(synth_run, tmp_path, records)
        for stage in DAILY[1:-1]:
            assert main([stage, "--config", cfg, "--out", out]) == 0
        error = cli_error(["evaluate", "--config", cfg, "--out", out], capsys)
        assert error == f"holdout interaction references item 'a9999' absent from the catalog (user 'u0001', t={last})"
        assert not (pathlib.Path(out) / "evaluation.json").exists()

    def test_train_record_of_another_type_than_the_catalogs_is_one_json_line(self, synth_run, tmp_path, capsys):
        # a podcast relabelled as an audiobook follow used to enter the user's audiobook mean
        _, synth_dir = synth_run
        records = parse_interactions(synth_dir / "interactions.jsonl").records
        at = next(i for i, r in enumerate(records) if r.item_type == "podcast")
        podcast = records[at]
        records[at] = dataclasses.replace(podcast, item_type="audiobook", signal="follow")
        cfg, out = self._run_on_records(synth_run, tmp_path, records)
        assert main(["split", "--config", cfg, "--out", out]) == 0
        error = cli_error(["build-graph", "--config", cfg, "--out", out], capsys)
        assert error == (
            f"interaction gives item {podcast.item_id!r} type 'audiobook', but the catalog lists it as "
            f"'podcast' (user {podcast.user_id!r}, t={podcast.timestamp})"
        )

    def test_a_window_after_every_train_record(self, synth_run, tmp_path, capsys):
        # an empty feature window is not an empty log: train-2t has no pairs
        # to train on, but evaluate still scores every baseline
        config, synth_dir = synth_run
        records = parse_interactions(synth_dir / "interactions.jsonl").records
        split_time = max(r.timestamp for r in records) - 14 * data.DAY_SECONDS
        gap = 30 * data.DAY_SECONDS  # the holdout moves 30 days on, past a 20-day window
        moved = [
            r if r.timestamp < split_time else dataclasses.replace(r, timestamp=r.timestamp + gap)
            for r in records
        ]
        data.save_interactions(data.Interactions.from_records(moved), tmp_path / "interactions.jsonl")

        def config_path(window_days: int) -> str:
            cfg = config.to_dict()
            cfg["paths"]["interactions"] = str(tmp_path / "interactions.jsonl")
            cfg["paths"]["catalog"] = str(synth_dir / "catalog.jsonl")
            cfg["split"]["split_time"] = split_time + gap
            cfg["two_tower"]["window_days"] = window_days
            path = tmp_path / f"window-{window_days}.json"
            path.write_text(json.dumps(cfg))
            return str(path)

        narrow, wide = config_path(20), config_path(90)
        out = str(tmp_path / "run")
        for stage in ("split", "build-graph", "train-hgnn", "embed"):
            assert main([stage, "--config", narrow, "--out", out]) == 0
        error = cli_error(["train-2t", "--config", narrow, "--out", out], capsys)
        assert error == "no training pairs: no target-type streams in the train window"
        for stage in ("train-2t", "build-index"):
            assert main([stage, "--config", wide, "--out", out]) == 0
        assert main(["evaluate", "--config", narrow, "--out", out]) == 0

        files = {key: pathlib.Path(out) / name for key, name in pipeline.ARTIFACTS.items()}
        split, catalog_ids, rankings = pipeline.model_rankings(PipelineConfig.load(narrow), files)
        assert len(split.train) and (split.train.timestamp < split_time).all()
        target = config.two_tower.target_type
        users = sorted(streamed_items(split.holdout, target))
        by_id = SimpleNamespace(recommend=lambda user, k=None: sorted(catalog_ids)[:k])
        in_id_order = filtered_recommendations_full(
            by_id, users, streamed_items(split.train, target), config.eval.max_rank
        )
        for model in ("popularity", "content_knn", "hgnn_knn"):
            assert rankings[model] == in_id_order
        report = io.read_json(files["evaluation"])["models"]
        assert report["popularity"] == report["content_knn"] == report["hgnn_knn"]
        assert report["popularity"]["all"]["n_users"] == len(users) > 0

    def test_missing_seed_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        _, out = pipeline_run
        cfg = tiny_config().to_dict()
        cfg["seed"] = None
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        assert main(["train-hgnn", "--config", str(cfg_path), "--out", str(run)]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert [json.loads(line) for line in err_lines] == [
            {"error": "train-hgnn requires a seed (config.seed or --seed)", "stage": "train-hgnn"}
        ]

    @pytest.mark.parametrize(
        "field, settings",
        [
            ("n_negatives", {"n_negatives": 0}),  # was a ZeroDivisionError traceback
            ("batch_size", {"batch_size": 0}),  # was "range() arg 3 must not be zero"
            ("max_epochs", {"max_epochs": 0}),  # was exit 0 with the untrained weights saved
            ("patience", {"patience": 0}),
            ("hidden_dim", {"hidden_dim": 0}),
            ("out_dim", {"out_dim": 0}),
            ("learning_rate", {"learning_rate": 0.0}),
            ("val_fraction", {"val_fraction": 1.0}),
            ("val_fraction", {"val_fraction": -0.1}),
            ("fanouts", {"fanouts": []}),  # no layer
            ("fanouts", {"fanouts": [0, 10]}),  # was exit 0, layer 1 blind to the graph
            ("full_neighborhood_cap", {"full_neighborhood_cap": 0}),
        ],
    )
    def test_bad_hgnn_setting_is_one_json_line(
        self, pipeline_run, tmp_path, capsys, field, settings
    ):
        config, out = pipeline_run
        cfg = config.to_dict()
        cfg["hgnn"].update(settings)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        params_before = (run / "hgnn_params.bin").read_bytes()
        assert main(["train-hgnn", "--config", str(cfg_path), "--out", str(run)]) == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["stage"] == "train-hgnn"
        assert f"hgnn.{field} must be" in payload["error"]
        assert (run / "hgnn_params.bin").read_bytes() == params_before

    @pytest.mark.parametrize("fanouts", [[4], [4, 4, 4]])
    def test_one_layer_per_fanout(self, pipeline_run, tmp_path, fanouts):
        config, out = pipeline_run
        cfg = config.to_dict()
        cfg["hgnn"]["fanouts"] = fanouts
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        for stage in ("train-hgnn", "embed"):
            assert main([stage, "--config", str(cfg_path), "--out", str(run)]) == 0
        params = HgnnParams.load(run / "hgnn_params.bin")
        assert params.config.layers == len(fanouts)
        assert {int(name.split(".")[2]) for name in params.weights} == set(range(1, len(fanouts) + 1))
        table = NodeEmbeddingTable.load(run / "embeddings.bin")
        assert set(table.item_ids) == set(parse_catalog(run / "catalog.jsonl"))

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("hgnn", "layers", 2),
            ("hgnn", "inference_seed", 0),
            ("graph", "edges_from_all_signals", False),
            ("split", "history_days", 30),
        ],
    )
    def test_removed_config_key_is_one_json_line(self, tmp_path, capsys, section, key, value):
        cfg = PipelineConfig(seed=7).to_dict()
        cfg[section][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        error = cli_error(["synth", "--config", str(cfg_path), "--out", str(run)], capsys)
        assert f"unknown {section} config keys: ['{key}']" in error
        assert not run.exists()

    def test_checkpoint_that_sets_layers_and_inference_seed_refused(
        self, pipeline_run, tmp_path, capsys
    ):
        # the config a checkpoint stored before `layers` was derived from `fanouts`
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        header, payload = split_container((run / "hgnn_params.bin").read_bytes())
        header["meta"]["config"].update(layers=2, inference_seed=0)
        (run / "hgnn_params.bin").write_bytes(join_container(header, payload))
        rerecord(run, "hgnn_params.bin")
        before = tree_bytes(run)
        error = cli_error(stage_argv("embed", config, run, tmp_path), capsys)
        assert "hgnn_params.bin: unknown hgnn config keys: ['inference_seed', 'layers']" in error
        assert tree_bytes(run) == before

    def write_checkpoint(self, run, cast) -> HgnnParams:
        """Rewrite `run`'s checkpoint with the weights `cast` returns and
        record it as current; return the params as rewritten."""
        params = HgnnParams.load(run / "hgnn_params.bin")
        meta, _ = io.read_pack(run / "hgnn_params.bin", "hgnn_params")
        params.weights = cast(params.weights)
        io.write_pack(run / "hgnn_params.bin", dict(meta), params.weights)
        rerecord(run, "hgnn_params.bin")
        return params

    def test_float64_checkpoint_embeds_in_float64(self, pipeline_run, tmp_path):
        # `train-hgnn` writes float32 weights; a float64 checkpoint, as one
        # written before it trained in float32, embeds in float64
        config, out = pipeline_run
        assert HgnnParams.load(out / "hgnn_params.bin").dtype == np.float32
        run = shutil.copytree(out, tmp_path / "run")
        params = self.write_checkpoint(run, lambda w: {k: v.astype(np.float64) for k, v in w.items()})
        assert main(stage_argv("embed", config, run, tmp_path)) == 0
        got = NodeEmbeddingTable.load(run / "embeddings.bin")
        want = hgnn.embed_catalog(load_graph(run / "graph.bin"), params, parse_catalog(run / "catalog.jsonl"))
        assert got.item_ids == want.item_ids
        assert got.matrix.tobytes() == want.matrix.tobytes()

    def test_checkpoint_with_a_weight_in_another_dtype_is_one_json_line(
        self, pipeline_run, tmp_path, capsys
    ):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        self.write_checkpoint(
            run, lambda w: {k: v.astype(np.float64) if k == "upd.W.2.podcast" else v for k, v in w.items()}
        )
        before = tree_bytes(run)
        error = cli_error(stage_argv("embed", config, run, tmp_path), capsys)
        assert error == (
            f"{run / 'hgnn_params.bin'}: array 'upd.W.2.podcast' is float64; the weights must be "
            "all float32 or all float64"
        )
        assert tree_bytes(run) == before

    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 1),  # was exit 0: every batch skipped, the tower never trained
            ("batch_size", 0),  # was "range() arg 3 must not be zero"
            ("hidden", [0, 4, 2]),  # was exit 0 with a dead layer
            ("hidden", [8, 4]),
            ("epochs", 0),  # was exit 0 with the initial weights saved
            ("learning_rate", -1),  # was exit 0, trained uphill
            ("window_days", 0),
            ("cat_embed_dim", 0),
            ("music_dim", -1),
            ("target_type", "audiobooks"),  # was "no target-type streams"
        ],
    )
    def test_bad_two_tower_setting_is_one_json_line(
        self, pipeline_run, tmp_path, capsys, field, value
    ):
        config, out = pipeline_run
        cfg = config.to_dict()
        cfg["two_tower"][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        params_before = (run / "tower_params.bin").read_bytes()
        error = cli_error(["train-2t", "--config", str(cfg_path), "--out", str(run)], capsys)
        assert f"two_tower.{field} must be" in error
        assert (run / "tower_params.bin").read_bytes() == params_before

    def test_tower_that_cannot_be_allocated_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        # was a MemoryError traceback out of init_weights; numpy refuses the
        # size before it touches memory
        config, out = pipeline_run
        cfg = config.to_dict()
        cfg["two_tower"]["hidden"] = [10**12, 1, 1]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        before = tree_bytes(run)
        error = cli_error(["train-2t", "--config", str(cfg_path), "--out", str(run)], capsys)
        assert "Unable to allocate" in error
        assert tree_bytes(run) == before

    @pytest.mark.parametrize(
        "stage, section, field, value",
        [
            ("evaluate", "eval", "k", -1),  # was exit 0, warm HR@k 0.947 from `[:-1]`
            ("evaluate", "eval", "k", 0),  # was exit 0, HR@k 0.0
            ("evaluate", "eval", "max_rank", 0),  # was exit 0, HR, MRR and coverage 0
            ("evaluate", "eval", "max_rank", 5),
            ("probe", "eval", "probe_pairs", 0),  # was a traceback: a NaN mean is not JSON
            ("train-hgnn", "eval", "models", ["two_tower_hgnn", "popular"]),  # was refused by evaluate only
            ("evaluate", "eval", "models", []),
            ("synth", "synth", "n_users", 0),
            ("synth", "synth", "n_podcasts", 0),
            ("synth", "synth", "n_audiobooks", 0),
            ("synth", "synth", "n_clusters", 0),  # was numpy's "high <= 0", no field named
            ("synth", "synth", "n_clusters", 81),
            ("synth", "synth", "d_c", 0),
            ("synth", "synth", "days", 0),  # was numpy's "high <= 0", no field named
            ("synth", "synth", "n_cold_items", -1),  # was quietly no cold items
            ("synth", "synth", "n_cold_items", 81),
            ("synth", "synth", "podcast_stream_rate", -0.1),
            ("synth", "synth", "audiobook_stream_rate", -0.1),
            ("synth", "synth", "cluster_affinity", -1.0),
            ("synth", "synth", "content_noise", -0.5),
            ("synth", "synth", "weak_extra_count", -1.0),
            ("synth", "synth", "abandoned_rate", -1.0),
            ("synth", "synth", "abandoned_extra_count", -1.0),
            ("synth", "synth", "weak_signal_prob", 2.0),  # was quietly taken as 1
            ("synth", "synth", "weak_signal_prob", -0.1),
            ("synth", "synth", "languages", []),
            ("synth", "synth", "genres", []),
            ("split", "split", "holdout_days", -1),  # was an empty holdout, then "no evaluable users"
            ("split", "split", "split_time", -1),  # was an empty train side, then "empty training log"
        ],
    )
    def test_out_of_range_setting_is_one_json_line(
        self, tmp_path, capsys, stage, section, field, value
    ):
        cfg = PipelineConfig().to_dict()
        cfg["seed"] = 7
        cfg[section][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        error = cli_error([stage, "--config", str(cfg_path), "--out", str(run)], capsys)
        assert f"{section}.{field} must be" in error
        assert not run.exists()

    def test_empty_graph_relations_refused_before_any_write(self, pipeline_run, tmp_path, capsys):
        # was an empty graph from build-graph, then a StopIteration traceback in train-hgnn
        config, out = pipeline_run
        cfg = config.to_dict()
        cfg["graph"]["relations"] = []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        before = tree_bytes(run)
        error = cli_error(["build-graph", "--config", str(cfg_path), "--out", str(run)], capsys)
        assert "relations must name one or more of ['aa', 'ap', 'pp']" in error
        assert tree_bytes(run) == before

    def test_repeated_graph_relation_refused_before_any_write(self, pipeline_run, tmp_path, capsys):
        # was a checkpoint listing the relation twice, its weights drawn twice
        config, out = pipeline_run
        cfg = config.to_dict()
        cfg["graph"]["relations"] = ["aa", "aa", "pp"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = shutil.copytree(out, tmp_path / "run")
        before = tree_bytes(run)
        error = cli_error(["build-graph", "--config", str(cfg_path), "--out", str(run)], capsys)
        assert "relation 'aa' is listed twice" in error
        assert tree_bytes(run) == before

    def test_shipped_configs_pass_the_config_rules(self):
        from audiorec.benchmark import ORDERING_SETTINGS, TOWER_VARIANTS
        from test_acceptance import TINY_CONFIG

        PipelineConfig.from_dict({})
        PipelineConfig.from_dict(TINY_CONFIG)
        PipelineConfig.from_dict({"hgnn": {"margin": 1}})  # an integer fills a float field
        ordering = PipelineConfig().with_overrides(ORDERING_SETTINGS)
        for variant in TOWER_VARIANTS.values():
            ordering.with_overrides(variant)
        for variant in ABLATION_VARIANTS.values():
            tiny_config().with_overrides(variant)
        workloads = load_script(ROOT / "perfbench" / "workloads.py")
        for workload in workloads.WORKLOADS.values():
            PipelineConfig().with_overrides(workload.overrides)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("two_tower", "use_hgnn_features", "false"),  # was loaded, and truthy
            ("hgnn", "balanced_sampler", "no"),  # was loaded, and truthy
            ("hgnn", "max_epochs", 2.5),  # was a TypeError traceback in train-hgnn
            ("hgnn", "patience", True),  # a bool is not an int
            ("hgnn", "margin", "0.4"),
            ("hgnn", "fanouts", [15, 1.5]),
            ("graph", "relations", "pp"),
            ("synth", "languages", ["en", 3]),
            ("paths", "catalog", 5),
            ("eval", "tiers", 1),
            (None, "seed", "7"),
            (None, "seed", -1),  # was numpy's error, after the stage's first write
        ],
    )
    def test_mistyped_config_value_is_one_json_line(self, tmp_path, capsys, section, field, value):
        cfg = PipelineConfig().to_dict()
        if section is None:
            cfg[field] = value
        else:
            cfg[section][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        error = cli_error(["train-hgnn", "--config", str(cfg_path), "--out", str(run)], capsys)
        name = field if section is None else f"{section}.{field}"
        assert f"{name} must be" in error
        assert not run.exists()

    @pytest.mark.parametrize(
        "field, line, expected",
        [
            ("catalog", "5", "record is not an object"),
            ("catalog", '{"item_id": ', "invalid JSON"),
            # was the interpreter's recursion error, naming no file
            ("catalog", "[" * 100_000, "invalid JSON: nested too deeply"),
            ("catalog", json.dumps({**CATALOG_ROW, "item_id": ["x"]}), "item_id must be a non-empty"),
            ("catalog", json.dumps({**CATALOG_ROW, "content_vector": ["a"]}), "could not convert"),
            # was loaded as the genre "['x', 'y']"
            (
                "catalog",
                json.dumps({**CATALOG_ROW, "content_vector": [0.0] * 8, "genre": ["x", "y"]}),
                "genre must be a non-empty",
            ),
            ("demographics", json.dumps({**DEMO_ROW, "user_id": ["u1"]}), "user_id must be"),
            ("demographics", json.dumps({**DEMO_ROW, "country": ["SE"]}), "country must be"),
            ("music_vectors", json.dumps({"user_id": ["u1"], "vector": [0.5]}), "user_id must be"),
            # was loaded: a NaN scored every item NaN, a nested vector failed without a line
            ("music_vectors", '{"user_id": "u1", "vector": [NaN, 0.5]}', "not a flat array of finite"),
            ("music_vectors", json.dumps({"user_id": "u1", "vector": [[0.5]]}), "not a flat array"),
            # were loaded as [0.5, 1000.0, ...], [1.0, 0.5, ...] and a 0-d vector
            *(
                (field, json.dumps({**row, key: vector}), f"{name} is not a float array: {fault}")
                for field, row, key, name in (
                    ("catalog", CATALOG_ROW, "content_vector", "content_vector"),
                    ("music_vectors", {"user_id": "u1"}, "vector", "vector of user 'u1'"),
                )
                for vector, fault in (
                    (["0.5", "1e3"] + [0.0] * 6, "could not convert '0.5' to a number"),
                    ([True] + [0.5] * 7, "could not convert True to a number"),
                    ([], "got []"),
                )
            ),
            # was loaded, the last line winning
            (
                "music_vectors",
                "\n".join(json.dumps({"user_id": "u1", "vector": [v]}) for v in (0.5, 0.2)),
                "duplicate user_id 'u1' (lines 1 and 2)",
            ),
            (
                "demographics",
                "\n".join([json.dumps(DEMO_ROW)] * 2),
                "duplicate user_id 'u1' (lines 1 and 2)",
            ),
        ],
    )
    def test_bad_input_line_is_one_json_line_naming_it(
        self, pipeline_run, tmp_path, capsys, field, line, expected
    ):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        source = run / "catalog.jsonl" if field == "catalog" else None
        path = tmp_path / f"{field}.jsonl"
        good = source.read_text() if source else ""
        path.write_text(good + line + "\n")
        n_line = (good + line).count("\n") + 1
        cfg = config.to_dict()
        cfg["paths"][field] = str(path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        # modification times, so that a rewrite with the same bytes shows too
        mtimes = {p: p.stat().st_mtime_ns for p in run.rglob("*")}
        for stage in ["build-graph"] if field == "catalog" else ["train-2t", "evaluate"]:
            error = cli_error([stage, "--config", str(cfg_path), "--out", str(run)], capsys)
            assert error.startswith(f"{path}:{n_line}: ") and expected in error
            assert {p: p.stat().st_mtime_ns for p in run.rglob("*")} == mtimes

    @pytest.mark.parametrize(
        "text, expected",
        [
            (b'{"seed": ', "invalid JSON: Expecting value: line 1 column 10 (char 9)"),
            (b'{"seed": 7,\n "graph": {"min_co_users": \xff}}', "2: not UTF-8 text"),
            (b"[" * 100_000, "invalid JSON: nested too deeply"),
        ],
    )
    def test_unreadable_config_is_one_json_line_naming_it(self, tmp_path, capsys, text, expected):
        # was the bare decoder message, without the file
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        argv = ["split", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
        error = cli_error(argv, capsys)
        assert error.startswith(f"{cfg_path}:") and expected in error

    @pytest.mark.parametrize("field", ["interactions", "music_vectors"])
    def test_non_utf8_input_is_one_json_line_naming_it(
        self, pipeline_run, tmp_path, capsys, field
    ):
        # was "'utf-8' codec can't decode byte 0xff in position ...", without the file
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        good = (out / "interactions.jsonl").read_bytes() if field == "interactions" else b""
        path = tmp_path / f"{field}.jsonl"
        path.write_bytes(good + b'{"user_id": "u\xff"}\n')
        cfg = config.to_dict()
        cfg["paths"][field] = str(path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        stage = "split" if field == "interactions" else "train-2t"
        error = cli_error([stage, "--config", str(cfg_path), "--out", str(run)], capsys)
        n_line = good.count(b"\n") + 1
        assert error.startswith(f"{path}:{n_line}: not UTF-8 text")

    def test_recommend_on_truncated_index_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        damaged = tmp_path / "out"
        shutil.copytree(out, damaged)
        index = damaged / "rec_index.bin"
        index.write_bytes(index.read_bytes()[:8])
        cfg_path = tmp_path / "config.json"
        io.write_json(config.to_dict(), cfg_path)
        code = main(["recommend", "--config", str(cfg_path), "--out", str(damaged), "--user", "u0001"])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert "rec_index.bin" in payload["error"] and payload["stage"] == "recommend"

    @staticmethod
    def _recommend_error(config, out, tmp_path, capsys) -> str:
        cfg_path = tmp_path / "config.json"
        io.write_json(config.to_dict(), cfg_path)
        code = main(["recommend", "--config", str(cfg_path), "--out", str(out), "--user", "u0001"])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == 1
        payload = json.loads(err_lines[0])
        assert payload["stage"] == "recommend"
        return payload["error"]

    def test_reformatted_train_file_changes_no_served_byte_and_stales_its_readers(
        self, pipeline_run, tmp_path, capsys
    ):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "out")
        argv = stage_argv("recommend", config, run, tmp_path)
        assert main(argv) == 0
        served = capsys.readouterr().out
        assert served
        rows = io.read_jsonl(run / "train.jsonl")
        # the same records with ", " / ": " separators
        (run / "train.jsonl").write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8"
        )
        assert main(argv) == 0  # recommend does not read train.jsonl
        assert capsys.readouterr().out == served
        # nor does any later stage: they read the columns of train.bin
        for stage in ("build-graph", "train-2t", "evaluate"):
            assert main(stage_argv(stage, config, run, tmp_path)) == 0
        # rewritten columns stale every stage that reads them
        log = data.Interactions.load(run / "train.bin")
        dataclasses.replace(log, timestamp=log.timestamp + 1).save(run / "train.bin")
        for stage in ("build-graph", "train-2t", "evaluate"):
            error = cli_error(stage_argv(stage, config, run, tmp_path), capsys)
            assert "stale input 'train.bin'" in error and "rerun the 'split' stage" in error

    def test_recommend_on_user_features_of_another_width_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "out")
        table = UserHistoryTable.load(run / "user_features.bin")
        table.mean_audiobook_embedding = table.mean_audiobook_embedding[:, 1:]
        table.mean_podcast_embedding = table.mean_podcast_embedding[:, 1:]
        table.save(run / "user_features.bin")
        error = self._recommend_error(config, run, tmp_path, capsys)
        assert "user_features.bin: rows of 11 embedding entries for a user tower that reads 12" in error
        # evaluate hashes its inputs, so the rewritten table is recorded as current
        rerecord(run, "user_features.bin")
        assert cli_error(stage_argv("evaluate", config, run, tmp_path), capsys) == error

    def test_recommend_on_a_missing_directory_creates_nothing(self, tmp_path, capsys):
        # the query used to create its --out directory before refusing
        out = tmp_path / "nodir" / "typo"
        error = cli_error(["recommend", "--out", str(out), "--user", "u1", "--seed", "7"], capsys)
        assert error == "missing artifact 'user_features.bin': run the 'train-2t' stage first"
        assert not (tmp_path / "nodir").exists()

    def test_recommend_without_split_manifest_is_one_json_line(self, pipeline_run, tmp_path, capsys):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "out")
        (run / "manifests" / "split.json").unlink()
        assert "split.json" in self._recommend_error(config, run, tmp_path, capsys)

    @pytest.mark.parametrize(
        "field, rows, expected",
        [
            pytest.param(
                "music_vectors",
                [{"user_id": "u0000", "vector": [0.5] * 8}, {"user": "u0001", "vector": [0.5] * 8}],
                "music.jsonl:2: missing key 'user_id'",
                id="music-without-user_id",
            ),
            pytest.param(
                "music_vectors",
                [{"user_id": "u0001"}],
                "music.jsonl:1: missing key 'vector'",
                id="music-without-vector",
            ),
            pytest.param(
                "music_vectors",
                [{"user_id": "u0001", "vector": {"x": 1}}],
                "music.jsonl:1: vector of user 'u0001' is not a float array",
                id="music-vector-not-an-array",
            ),
            pytest.param(
                "demographics",
                [{"user_id": "u0000", "country": "SE", "age_bucket": "25-34"}, {"user_id": "u0001", "country": "SE"}],
                "demo.jsonl:2: missing key 'age_bucket'",
                id="demographics-without-age_bucket",
            ),
            pytest.param(
                "demographics",
                [{"user_id": "u0001", "age_bucket": "25-34"}],
                "demo.jsonl:1: missing key 'country'",
                id="demographics-without-country",
            ),
            pytest.param(
                "demographics",
                [{"user_id": "u0000", "country": "SE", "age_bucket": "25-34"}, ["u0001", "SE", "25-34"]],
                "demo.jsonl:2: record is not an object",
                id="demographics-row-not-an-object",
            ),
            pytest.param(  # was served: three NaN scores, in id order
                "music_vectors",
                '{"user_id": "zz-new-user", "vector": [NaN, 0, 0, 0, 0, 0, 0, 0]}\n',
                "music.jsonl:1: vector of user 'zz-new-user' is not a flat array of finite numbers",
                id="music-vector-with-nan",
            ),
            pytest.param(
                "music_vectors",
                [{"user_id": "u0001", "vector": [[0.5] * 8]}],
                "music.jsonl:1: vector of user 'u0001' is not a flat array",
                id="music-vector-nested",
            ),
            pytest.param(
                "music_vectors",
                [{"user_id": "u0001", "vector": [0.5] * 8}, {"user_id": "u0001", "vector": [0.1] * 8}],
                "music.jsonl:2: duplicate user_id 'u0001' (lines 1 and 2)",
                id="music-user-listed-twice",
            ),
            pytest.param(
                "demographics",
                [{"user_id": "u0001", "country": "SE", "age_bucket": "25-34"}] * 2,
                "demo.jsonl:2: duplicate user_id 'u0001' (lines 1 and 2)",
                id="demographics-user-listed-twice",
            ),
        ],
    )
    def test_recommend_on_malformed_user_file_names_the_line(
        self, pipeline_run, tmp_path, capsys, field, rows, expected
    ):
        config, out = pipeline_run
        path = tmp_path / ("music.jsonl" if field == "music_vectors" else "demo.jsonl")
        if isinstance(rows, str):  # raw text: `io.write_jsonl` refuses NaN
            path.write_text(rows)
        else:
            io.write_jsonl(rows, path)
        config = tiny_config()
        setattr(config.paths, field, str(path))
        assert expected in self._recommend_error(config, out, tmp_path, capsys)

    def test_recommend_opens_its_containers_and_manifests_only(self, pipeline_run, tmp_path, capsys, monkeypatch):
        config, out = pipeline_run
        argv = stage_argv("recommend", config, out, tmp_path)
        opened = []
        real_open, real_path_open = builtins.open, pathlib.Path.open

        def spy_open(file, *args, **kwargs):
            opened.append(pathlib.Path(file).name)
            return real_open(file, *args, **kwargs)

        def spy_path_open(self, *args, **kwargs):
            opened.append(self.name)
            return real_path_open(self, *args, **kwargs)

        def no_hash(*args):
            raise AssertionError("recommend hashed a file")

        monkeypatch.setattr(builtins, "open", spy_open)
        monkeypatch.setattr(pathlib.Path, "open", spy_path_open)
        monkeypatch.setattr(io.hashlib, "sha256", no_hash)
        code = main(argv)
        monkeypatch.undo()
        assert code == 0, capsys.readouterr().err
        manifests = {f"{stage}.json" for stage in pipeline.STAGES}
        # no train.jsonl, holdout.jsonl, split_meta.json or embeddings.bin
        assert set(opened) - manifests == {"config.json", *RECOMMEND_CONTAINERS}

    @pytest.mark.parametrize("stage", [s for s, spec in pipeline.STAGES.items() if spec.outputs])
    def test_manifest_lists_every_file_the_stage_reads(self, pipeline_run, tmp_path, monkeypatch, stage):
        config, out = pipeline_run
        run = shutil.copytree(out, tmp_path / "run")
        config = tiny_config()
        io.write_jsonl([{"user_id": "u0000", "vector": [0.5] * 8}], run / "music.jsonl")
        io.write_jsonl([{"user_id": "u0000", "country": "SE", "age_bucket": "25-34"}], run / "demo.jsonl")
        config.paths.music_vectors = str(run / "music.jsonl")
        config.paths.demographics = str(run / "demo.jsonl")
        variants = tmp_path / "variants.json"
        io.write_json({"full": {}}, variants)
        config.eval.ablation_manifest = str(variants)
        read = set()
        real_open, real_path_open = builtins.open, pathlib.Path.open

        def note(file, mode):
            if pathlib.Path(file).parent == run and not set(mode) & set("wax+"):
                read.add(pathlib.Path(file).name)

        def spy_open(file, mode="r", *args, **kwargs):
            note(file, mode)
            return real_open(file, mode, *args, **kwargs)

        def spy_path_open(self, mode="r", *args, **kwargs):
            note(self, mode)
            return real_path_open(self, mode, *args, **kwargs)

        spec = pipeline.STAGES[stage]

        def spied(*args, **kwargs):  # only the stage's own reads, not the hashing around it
            with monkeypatch.context() as m:
                m.setattr(builtins, "open", spy_open)
                m.setattr(pathlib.Path, "open", spy_path_open)
                return spec.run(*args, **kwargs)

        monkeypatch.setitem(pipeline.STAGES, stage, dataclasses.replace(spec, run=spied))
        run_stage(stage, config, run)
        monkeypatch.undo()
        assert read <= set(io.read_json(run / "manifests" / f"{stage}.json")["inputs"])
        if stage in ("train-2t", "evaluate"):
            assert {"music.jsonl", "demo.jsonl"} <= read

    @pytest.mark.parametrize(
        "text, kind",
        [("5", "number"), ("null", "null"), ("true", "boolean"), ('"abc"', "string"), ("[1]", "array")],
    )
    def test_config_that_is_not_an_object_is_one_json_line(self, tmp_path, capsys, text, kind):
        # 5, null and true were a TypeError traceback; "abc" was
        # "unknown config sections: ['a', 'b', 'c']"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        error = cli_error(["split", "--config", str(cfg_path), "--out", str(tmp_path / "o")], capsys)
        assert error == f"config must be a JSON object, got {kind}"

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(value=CONFIG_VALUES)
    def test_any_json_config_runs_or_is_one_json_line(self, pipeline_run, tmp_path, capsys, value):
        _, out = pipeline_run
        run = tmp_path / "run"
        if not run.exists():
            shutil.copytree(out, run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(value))
        # recommend writes nothing, so it may read the shared run
        recommend = ["recommend", "--config", str(cfg_path), "--out", str(out), "--user", "u0001"]
        run_or_one_json_line(recommend, capsys)
        run_or_one_json_line(["split", "--config", str(cfg_path), "--out", str(run)], capsys)
        if not sizes_within(value, 16):
            return
        # each later daily stage on its own copy of the fixture run, so that
        # none reads what another wrote; `--seed` lets a config without one
        # reach the training stages, which refuse to run unseeded
        for stage in DAILY[DAILY.index("build-graph") :]:
            own = tmp_path / stage
            shutil.rmtree(own, ignore_errors=True)
            shutil.copytree(out, own)
            argv = [stage, "--config", str(cfg_path), "--seed", "11", "--out", str(own)]
            run_or_one_json_line(argv, capsys)

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(value=CONFIG_VALUES)
    def test_any_json_config_probe_and_weak_signals_run_or_are_one_json_line(
        self, pipeline_run, tmp_path, capsys, value
    ):
        # both write only their own report, so every example may share one copy
        _, out = pipeline_run
        run = tmp_path / "run"
        if not run.exists():
            shutil.copytree(out, run)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(value))
        for stage in ("weak-signals", "probe"):
            run_or_one_json_line([stage, "--config", str(cfg_path), "--out", str(run)], capsys)
        if sizes_within(value, 16):
            argv = ["probe", "--config", str(cfg_path), "--seed", "11", "--out", str(run)]
            run_or_one_json_line(argv, capsys)

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_damaged_interactions_split_or_one_json_line(self, pipeline_run, tmp_path, capsys, data):
        config, out = pipeline_run
        path = tmp_path / "interactions.jsonl"
        path.write_bytes(damaged_jsonl((out / "interactions.jsonl").read_bytes(), data))
        cfg = config.to_dict()
        cfg["paths"]["interactions"] = str(path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run_or_one_json_line(["split", "--config", str(cfg_path), "--out", str(tmp_path / "run")], capsys)

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(data=st.data())
    def test_damaged_interactions_every_stage_or_one_json_line(self, pipeline_run, tmp_path, capsys, data):
        # every stage after split reads what split kept of a damaged or thinned log
        config, out = pipeline_run
        whole = (out / "interactions.jsonl").read_bytes()
        if data.draw(st.booleans(), label="thinned"):
            lines = whole.splitlines(keepends=True)
            share = data.draw(st.floats(0.0, 1.0), label="share")
            kept = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed")).random(len(lines))
            whole = b"".join(line for line, draw in zip(lines, kept) if draw < share)
        else:
            whole = damaged_jsonl(whole, data)
        path = tmp_path / "interactions.jsonl"
        path.write_bytes(whole)
        cfg = config.to_dict()
        cfg["paths"].update(interactions=str(path), catalog=str(out / "catalog.jsonl"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        run = tmp_path / "run"
        shutil.rmtree(run, ignore_errors=True)
        for stage in DAILY[DAILY.index("split") :]:
            run_or_one_json_line([stage, "--config", str(cfg_path), "--out", str(run)], capsys)
        argv = ["recommend", "--config", str(cfg_path), "--out", str(run), "--user", "u0001"]
        run_or_one_json_line(argv, capsys)

    def test_negative_seed_flag_refused_before_any_write(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert "seed must be >= 0, got -1" in cli_error(["synth", "--seed", "-1", "--out", str(out)], capsys)
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
        manifest = io.read_json(out / "manifests" / "synth.json")
        assert manifest["seed"] == 5
