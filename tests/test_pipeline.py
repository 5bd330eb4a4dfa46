import json
import shutil

import pytest

from audiorec import io
from audiorec.cli import main
from audiorec.graph import load_graph
from audiorec.hgnn import HgnnParams
from audiorec.index import load_index
from audiorec.pipeline import (
    ABLATION_VARIANTS,
    PipelineConfig,
    PipelineError,
    run_pipeline,
    run_stage,
)
from audiorec.two_tower import TowerParams

MODEL_STAGES = (
    "synth",
    "split",
    "build-graph",
    "train-hgnn",
    "embed",
    "train-2t",
    "build-index",
    "evaluate",
)


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
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    config = tiny_config()
    for stage in MODEL_STAGES:
        run_stage(stage, config, out)
    return config, out


class TestConfig:
    def test_defaults_load(self):
        config = PipelineConfig()
        assert config.hgnn.layers == 2
        assert config.two_tower.hidden == (512, 256, 128)
        assert config.seed is None

    def test_unknown_section_fatal(self):
        with pytest.raises(PipelineError, match="sections"):
            PipelineConfig.from_dict({"nonsense": {}})

    def test_unknown_key_fatal(self):
        with pytest.raises(PipelineError):
            PipelineConfig.from_dict({"hgnn": {"not_a_knob": 3}})

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
            "graph.bin",
            "hgnn_params.bin",
            "embeddings.jsonl",
            "tower_params.bin",
            "rec_index.bin",
            "evaluation.json",
            "evaluation.csv",
            "resolved_config.json",
        ):
            assert (out / name).exists(), name

    def test_manifests_carry_config_hash_and_io_hashes(self, pipeline_run):
        config, out = pipeline_run
        for stage in MODEL_STAGES:
            manifest = io.read_json(out / "manifests" / f"{stage}.json")
            assert manifest["config_hash"] == config.hash()
            assert manifest["seed"] == config.seed
            for name, digest in manifest["outputs"].items():
                assert io.sha256_file(out / name) == digest

    def test_missing_dependency_names_stage(self, tmp_path):
        config = tiny_config()
        with pytest.raises(PipelineError, match="split"):
            run_stage("build-graph", config, tmp_path)

    def test_synth_requires_seed(self, tmp_path):
        config = tiny_config()
        config.seed = None
        with pytest.raises(PipelineError, match="seed"):
            run_stage("synth", config, tmp_path)

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

    def test_recommend_known_and_unknown_user(self, pipeline_run):
        config, out = pipeline_run
        res = run_stage("recommend", config, out, user="u0000", k=5)
        assert len(res) == 5
        assert all(isinstance(i, str) and isinstance(s, float) for i, s in res)
        cold = run_stage("recommend", config, out, user="nobody-at-all", k=3)
        assert len(cold) == 3

    def test_split_surfaces_malformed_lines(self, tmp_path):
        config = tiny_config()
        run_stage("synth", config, tmp_path)
        with open(tmp_path / "interactions.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"user_id": "ux", "signal": "purchase"}\n')
        with pytest.warns(UserWarning, match="malformed"):
            run_stage("split", config, tmp_path)
        meta = io.read_json(tmp_path / "split_meta.json")
        assert meta["n_malformed"] == 1

    def test_history_days_truncation(self, tmp_path):
        config = tiny_config()
        config.split.history_days = 30
        run_stage("synth", config, tmp_path)
        run_stage("split", config, tmp_path)
        from audiorec.data import DAY_SECONDS, parse_interactions

        train = parse_interactions(tmp_path / "train.jsonl").records
        holdout = parse_interactions(tmp_path / "holdout.jsonl").records
        span = max(r.timestamp for r in holdout) - min(r.timestamp for r in train)
        assert span <= 30 * DAY_SECONDS

    def test_podcast_target_mode(self, tmp_path):
        config = tiny_config()
        config.two_tower.target_type = "podcast"
        config.eval.tiers = False
        for stage in MODEL_STAGES:
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
        for stage in MODEL_STAGES[1:]:
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
    "graph.bin": load_graph,
    "rec_index.bin": load_index,
    "hgnn_params.bin": HgnnParams.load,
    "tower_params.bin": TowerParams.load,
}


class TestDamagedArtifacts:
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
        for stage in MODEL_STAGES:
            run_stage(stage, config, out)
        before = {
            name: io.sha256_file(out / name)
            for name in ("embeddings.jsonl", "tower_params.bin", "rec_index.bin", "evaluation.json")
        }
        # delete downstream artifacts, rerun only downstream stages
        for name in before:
            (out / name).unlink()
        for stage in ("embed", "train-2t", "build-index", "evaluate"):
            run_stage(stage, config, out)
        after = {name: io.sha256_file(out / name) for name in before}
        assert before == after


class TestAblate:
    def test_seven_variants(self, tmp_path):
        config = tiny_config()
        out = tmp_path / "run"
        run_stage("synth", config, out)
        report = run_stage("ablate", config, out)
        assert set(report["variants"]) == set(ABLATION_VARIANTS)
        assert len(report["variants"]) == 7
        assert (out / "ablation_report.json").exists()
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


class TestCli:
    def test_full_cycle_exit_codes(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        io.write_json(tiny_config().to_dict(), cfg_path)
        out = str(tmp_path / "out")
        for stage in MODEL_STAGES:
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

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "o"
        assert main(["synth", "--seed", "5", "--out", str(out)]) == 0
        manifest = io.read_json(out / "manifests" / "synth.json")
        assert manifest["seed"] == 5
