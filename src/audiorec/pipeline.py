"""Stage-based pipeline: every stage reads its inputs from disk, writes
versioned artifacts plus a manifest of content hashes, and is reproducible
from (config, seed)."""

from __future__ import annotations

import csv
import ctypes
import os
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from . import io
from .analysis import PAIRINGS, pair_similarity_probe, weak_signal_analysis
from .data import (
    Interactions,
    LogSplit,
    check_catalog,
    load_checked_catalog,
    parse_catalog,
    parse_interactions,
    save_catalog,
    save_checked_catalog,
    save_interactions,
    text_field,
    timeline_split,
    user_segments,
)
from .evaluate import evaluate, filtered_recommendations, streamed_items, tiered_metrics
from .graph import REL_KEYS, build_colisten_graph, graph_stats, load_graph, save_graph
from .hgnn import (
    HgnnConfig,
    HgnnParams,
    NodeEmbeddingTable,
    embed_catalog,
    train_hgnn,
)
from .index import build_index, load_index, save_index
from .recommenders import (
    PopularityRecommender,
    TwoTowerRecommender,
    content_knn_baseline,
    hgnn_knn_baseline,
)
from .synth import SynthConfig, synth_generate
from .two_tower import (
    TowerParams,
    TwoTowerConfig,
    UserHistoryTable,
    build_training_pairs,
    export_item_vectors,
    train_two_tower,
    user_histories,
)


class PipelineError(Exception):
    """Raised for config validation failures and missing or stale stage inputs."""


@dataclass
class PathsConfig:
    interactions: str | None = None
    catalog: str | None = None
    music_vectors: str | None = None
    demographics: str | None = None


@dataclass
class SplitSettings:
    holdout_days: int = 14
    split_time: int | None = None


@dataclass
class GraphSettings:
    min_co_users: int = 1
    relations: tuple[str, ...] = REL_KEYS


@dataclass
class EvalSettings:
    k: int = 10
    max_rank: int = 100
    models: tuple[str, ...] = (
        "two_tower_hgnn",
        "popularity",
        "content_knn",
        "hgnn_knn",
    )
    tiers: bool = True
    probe_pairs: int = 2000
    ablation_manifest: str | None = None

    def __post_init__(self):
        rules = (
            ("k", ">= 1", self.k >= 1),
            ("max_rank", f">= k ({self.k})", self.max_rank >= self.k),
            (
                "models",
                f"one or more of {list(MODELS)}",
                len(self.models) >= 1 and set(self.models) <= set(MODELS),
            ),
            ("probe_pairs", ">= 1", self.probe_pairs >= 1),
        )
        io.check_rules("eval", self, rules)


# what `json.loads` returns for each JSON type but objects
_JSON_TYPES = {
    list: "array", str: "string", int: "number", float: "number", bool: "boolean", type(None): "null"
}


def _json_kind(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    split: SplitSettings = field(default_factory=SplitSettings)
    graph: GraphSettings = field(default_factory=GraphSettings)
    hgnn: HgnnConfig = field(default_factory=HgnnConfig)
    two_tower: TwoTowerConfig = field(default_factory=TwoTowerConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)
    seed: int | None = None

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        if not isinstance(obj, dict):
            raise PipelineError(f"config must be a JSON object, got {_json_kind(obj)}")
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise PipelineError(f"unknown config sections: {sorted(unknown)}")
        try:
            # every field but the seed is a section whose default factory is its class
            sections = {
                f.name: io.dataclass_from_dict(f.default_factory, obj.get(f.name, {}), f.name)
                for f in fields(cls)
                if f.name != "seed"
            }
            seed = obj.get("seed")
            io.check_json_type("seed", seed, int | None)
            if seed is not None and seed < 0:
                raise ValueError(f"seed must be >= 0, got {seed!r}")
            return cls(**sections, seed=seed)
        except (ValueError, TypeError) as exc:
            raise PipelineError(f"config validation failed: {exc}") from exc

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        return cls.from_dict(io.read_json(path))

    def to_dict(self) -> dict:
        return asdict(self)  # tuples serialize as JSON arrays, so hashes match list-valued files

    def hash(self) -> str:
        return io.config_hash(self.to_dict())

    def with_overrides(self, overrides: dict) -> "PipelineConfig":
        merged = self.to_dict()
        for section, values in overrides.items():
            if section == "seed":
                merged["seed"] = values
                continue
            if section not in merged or not isinstance(values, dict):
                raise PipelineError(f"bad override section {section!r}")
            merged[section].update(values)
        return PipelineConfig.from_dict(merged)


# The bytes of a large matrix product can depend on how many BLAS threads
# computed it, so each manifest records these as the stage's process saw them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ARTIFACTS = {
    "interactions": "interactions.jsonl",
    "catalog": "catalog.jsonl",
    "checked_catalog": "catalog.bin",
    "train": "train.jsonl",
    "holdout": "holdout.jsonl",
    "train_columns": "train.bin",
    "holdout_columns": "holdout.bin",
    "split_meta": "split_meta.json",
    "graph": "graph.bin",
    "graph_stats": "graph_stats.json",
    "hgnn_params": "hgnn_params.bin",
    "hgnn_log": "hgnn_train_log.jsonl",
    "embeddings": "embeddings.bin",
    "tower_params": "tower_params.bin",
    "user_features": "user_features.bin",
    "tower_log": "two_tower_train_log.jsonl",
    "index": "rec_index.bin",
    "evaluation": "evaluation.json",
    "evaluation_csv": "evaluation.csv",
    "ablation": "ablation_report.json",
    "ablation_csv": "ablation_report.csv",
    "weak_signals": "weak_signals.json",
    "probe": "probe.json",
}

ABLATION_VARIANTS = {
    "full": {},
    "no-balanced-sampler": {"hgnn": {"balanced_sampler": False}},
    "no-weak-signals": {"two_tower": {"use_weak_signals": False}},
    "no-pp-edges": {"graph": {"relations": ["aa", "ap"]}},
    "no-aa-edges": {"graph": {"relations": ["ap", "pp"]}},
    "aa-only": {"graph": {"relations": ["aa"]}},
    "pp-only-inductive": {"graph": {"relations": ["pp"]}},
}


Files = dict[str, Path]  # a stage's files by ARTIFACTS key or config field


def _seed_of(config: PipelineConfig, stage: str) -> int:
    if config.seed is None:
        raise PipelineError(f"{stage} requires a seed (config.seed or --seed)")
    return int(config.seed)


def _read_user_file(path: Path, keys: tuple[str, ...], value: Callable) -> dict:
    """`{user_id: value(row, user_id)}` over the lines of a `paths.*` user
    file. A user listed twice is refused naming both lines."""
    first_line: dict[str, int] = {}

    def parse(row: dict, line_no: int) -> tuple:
        user = text_field(row, "user_id")
        if user in first_line:
            raise ValueError(f"duplicate user_id {user!r} (lines {first_line[user]} and {line_no})")
        first_line[user] = line_no
        return user, value(row, user)

    return dict(io.read_jsonl(path, ("user_id", *keys), parse))


def _load_music_vectors(path: Path | None) -> dict[str, np.ndarray]:
    if path is None:
        return {}

    return _read_user_file(
        path, ("vector",), lambda row, user: io.number_vector(f"vector of user {user!r}", row["vector"])
    )


def _load_demographics(path: Path | None) -> dict[str, tuple[str, str]]:
    if path is None:
        return {}
    return _read_user_file(
        path,
        ("country", "age_bucket"),
        lambda row, user: (text_field(row, "country"), text_field(row, "age_bucket")),
    )


def _split_time(files: Files) -> int:
    return io.read_json(files["split_meta"])["split_time"]


def _load_split(files: Files) -> LogSplit:
    train = Interactions.load(files["train_columns"])
    holdout = Interactions.load(files["holdout_columns"])
    return LogSplit(train=train, holdout=holdout, split_time=_split_time(files))


_CSV_METRICS = ("k", "n_users", "hr_at_k", "mrr", "coverage")


def _write_segment_csv(path: Path, first_column: str, entries: dict[str, dict]) -> None:
    """One row per entry and segment (warm, cold, all) that has a report."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([first_column, "segment", *_CSV_METRICS])
        for name, entry in entries.items():
            for seg in ("warm", "cold", "all"):
                rep = entry.get(seg)
                if rep:
                    writer.writerow([name, seg, *(rep[m] for m in _CSV_METRICS)])


# ---------------------------------------------------------------------------
# Stages. Each reads and writes only the files `run_stage` resolved for it.
# ---------------------------------------------------------------------------


def stage_synth(config: PipelineConfig, files: Files) -> None:
    records, catalog = synth_generate(config.synth, _seed_of(config, "synth"))
    save_interactions(records, files["interactions"])
    save_catalog(catalog, files["catalog"])


def stage_split(config: PipelineConfig, files: Files) -> None:
    src = files["interactions"]
    parsed = parse_interactions(src)
    if parsed.diagnostics:
        first = parsed.diagnostics[0]
        warnings.warn(
            f"{src}: skipped {len(parsed.diagnostics)} malformed lines "
            f"(first: line {first.line_no}: {first.message})",
            stacklevel=2,
        )
    split = timeline_split(
        parsed.records,
        split_time=config.split.split_time,
        holdout_days=config.split.holdout_days,
    )
    # the checked records as columns, which every later stage reads
    columns = Interactions.from_records(split.train), Interactions.from_records(split.holdout)
    save_interactions(split.train, files["train"])
    save_interactions(split.holdout, files["holdout"])
    columns[0].save(files["train_columns"])
    columns[1].save(files["holdout_columns"])
    io.write_json(
        {
            "split_time": split.split_time,
            "n_train": len(split.train),
            "n_holdout": len(split.holdout),
            "n_malformed": len(parsed.diagnostics),
        },
        files["split_meta"],
    )


def stage_build_graph(config: PipelineConfig, files: Files) -> None:
    train = Interactions.load(files["train_columns"])
    catalog = parse_catalog(files["catalog"])
    graph = build_colisten_graph(
        train,
        catalog,
        min_co_users=config.graph.min_co_users,
        relations=config.graph.relations,
    )
    save_graph(graph, files["graph"])
    save_checked_catalog(catalog, files["checked_catalog"])
    stats = graph_stats(graph)
    io.write_json(
        {
            "node_counts": stats.node_counts,
            "edge_counts": stats.edge_counts,
            "degree_summary": stats.degree_summary,
        },
        files["graph_stats"],
    )


def stage_train_hgnn(config: PipelineConfig, files: Files) -> None:
    graph = load_graph(files["graph"])
    feature_dim = next(iter(graph.features.values())).shape[1]
    seed = _seed_of(config, "train-hgnn")
    params = HgnnParams.init(
        config.hgnn, int(feature_dim), graph.node_types, graph.relations, seed=seed
    )
    result = train_hgnn(graph, params, seed=seed)
    result.params.save(files["hgnn_params"])
    io.write_jsonl((asdict(e) for e in result.log), files["hgnn_log"])


def stage_embed(config: PipelineConfig, files: Files) -> None:
    graph = load_graph(files["graph"])
    params = HgnnParams.load(files["hgnn_params"])
    catalog = load_checked_catalog(files["checked_catalog"])
    embed_catalog(graph, params, catalog).save(files["embeddings"])


def stage_train_2t(config: PipelineConfig, files: Files) -> None:
    # the user files are read first, so one that is refused leaves nothing written
    music_vectors = _load_music_vectors(files.get("music_vectors"))
    demographics = _load_demographics(files.get("demographics"))
    train = Interactions.load(files["train_columns"])
    split_time = _split_time(files)
    catalog = load_checked_catalog(files["checked_catalog"])
    table = NodeEmbeddingTable.load(files["embeddings"])
    cfg = config.two_tower
    # build-graph checked the log against the catalog, and the manifest
    # chain holds this stage to the log it checked
    window = train.window(cfg.window_days, split_time)
    pairs = build_training_pairs(window, cfg.target_type)
    if not pairs:
        raise PipelineError("no training pairs: no target-type streams in the train window")
    # every train user's history, for serving; the pairs' users train on theirs
    histories = user_histories(window, table, cfg)
    del train, window  # training reads only the pairs and the histories
    histories.save(files["user_features"])
    params, log = train_two_tower(
        pairs,
        histories,
        catalog,
        table,
        cfg,
        seed=_seed_of(config, "train-2t"),
        music_vectors=music_vectors,
        demographics=demographics,
    )
    params.save(files["tower_params"])
    io.write_jsonl(log, files["tower_log"])


def stage_build_index(config: PipelineConfig, files: Files) -> None:
    params = TowerParams.load(files["tower_params"])
    catalog = load_checked_catalog(files["checked_catalog"])
    table = NodeEmbeddingTable.load(files["embeddings"])
    save_index(build_index(export_item_vectors(params, catalog, table)), files["index"])


def _two_tower_recommender(files: Files, user: str | None = None) -> TwoTowerRecommender:
    """The served model over `user_features.bin`, which `train-2t` built with
    the builder training used: every row for `evaluate`, only `user`'s for
    `recommend`. Serving runs the user tower alone, so the item tower's
    weights are not read; the profile part of the tower input comes from the
    `paths.*` files. No interaction file is read."""
    params = TowerParams.load(files["tower_params"], towers=("user",))
    histories = UserHistoryTable.load(files["user_features"], user=user)
    if histories.dim != params.dims["d_embed"]:
        raise ValueError(
            f"{files['user_features']}: rows of {histories.dim} embedding entries "
            f"for a user tower that reads {params.dims['d_embed']}"
        )
    music_vectors = _load_music_vectors(files.get("music_vectors"))
    demographics = _load_demographics(files.get("demographics"))
    return TwoTowerRecommender.from_table(
        params, load_index(files["index"]), histories, music_vectors, demographics
    )


def stage_recommend(
    config: PipelineConfig, files: Files, user: str, k: int = 10
) -> list[tuple[str, float]]:
    """Serve one user as `evaluate` scores every holdout user."""
    return _two_tower_recommender(files, user).recommend_scored(user, k)


# Each `eval.models` name, with how `model_rankings` builds its recommender
# from the run's files, catalog, embedding table, feature window and
# popularity baseline over that window.
MODELS: dict[str, Callable] = {
    "two_tower_hgnn": lambda files, catalog, table, window, popular: _two_tower_recommender(files),
    "popularity": lambda files, catalog, table, window, popular: popular,
    "content_knn": lambda files, catalog, table, window, popular: content_knn_baseline(
        window, catalog, popular
    ),
    "hgnn_knn": lambda files, catalog, table, window, popular: hgnn_knn_baseline(
        window, table, popular
    ),
}


def model_rankings(
    config: PipelineConfig, files: Files
) -> tuple[LogSplit, set[str], dict[str, dict[str, list[str]]]]:
    """What `evaluate` scores: the split, the target-type catalog ids, and
    each `eval.models` model's filtered ranking of every user with
    target-type holdout streams. A holdout record whose item the catalog
    lacks or gives another type is refused. The feature window (as of the
    split time), the popularity baseline over it, the users and their
    consumed items are each built once and shared by every model."""
    catalog = load_checked_catalog(files["checked_catalog"])
    split = _load_split(files)
    check_catalog(split.holdout, catalog, "holdout interaction")
    if not len(split.train):
        raise ValueError("popularity baseline needs a non-empty training log")
    tower = config.two_tower
    window = split.train.window(tower.window_days, split.split_time)
    popular = PopularityRecommender(window, catalog, tower.target_type)
    table = NodeEmbeddingTable.load(files["embeddings"])
    users = sorted(streamed_items(split.holdout, tower.target_type))
    consumed = streamed_items(split.train, tower.target_type)
    rankings = {
        model: filtered_recommendations(
            MODELS[model](files, catalog, table, window, popular), users, consumed, config.eval.max_rank
        )
        for model in config.eval.models
    }
    return split, set(popular.item_ids), rankings


def stage_evaluate(config: PipelineConfig, files: Files) -> dict:
    split, catalog_ids, rankings = model_rankings(config, files)
    segments = user_segments(split)
    target = config.two_tower.target_type
    report = {
        "config_hash": config.hash(),
        "seed": config.seed,
        "k": config.eval.k,
        "target_type": target,
        "models": {},
    }
    for model, ranked in rankings.items():
        reports = evaluate(
            ranked, split, segments, target, catalog_ids, config.eval.k, config.eval.max_rank
        )
        entry = {seg: rep.to_dict() for seg, rep in reports.items()}
        for seg in ("warm", "cold", "all"):
            if seg not in entry:
                entry[seg] = None  # no evaluable users in this segment
        if config.eval.tiers and model == "two_tower_hgnn":
            try:
                tiers = tiered_metrics(
                    ranked, split, target, catalog_ids, config.eval.k, config.eval.max_rank
                )
                entry["tiers"] = {name: rep.to_dict() for name, rep in tiers.items()}
            except ValueError:
                entry["tiers"] = None
        report["models"][model] = entry

    io.write_json(report, files["evaluation"])
    _write_segment_csv(files["evaluation_csv"], "model", report["models"])
    return report


def stage_weak_signals(config: PipelineConfig, files: Files) -> dict:
    records = parse_interactions(files["interactions"]).records
    report = weak_signal_analysis(records).to_dict()
    io.write_json(report, files["weak_signals"])
    return report


def stage_probe(config: PipelineConfig, files: Files) -> dict:
    catalog = load_checked_catalog(files["checked_catalog"])
    graph = load_graph(files["graph"])
    target = config.two_tower.target_type
    content = {
        i: it.content_vector for i, it in catalog.items() if it.item_type == target
    }
    sources = {"content": content}
    if "embeddings" in files:
        table = NodeEmbeddingTable.load(files["embeddings"])
        sources["hgnn"] = {
            i: v
            for i, v in ((i, table.get(i)) for i in content)
            if v is not None
        }
    seed = _seed_of(config, "probe")
    report: dict = {"n_pairs": config.eval.probe_pairs, "target_type": target, "results": {}}
    for source_name, vectors in sources.items():
        report["results"][source_name] = {}
        for pairing in PAIRINGS:
            try:
                summary = pair_similarity_probe(
                    vectors, pairing, config.eval.probe_pairs, seed, graph, target
                )
                report["results"][source_name][pairing] = summary.to_dict()
            except ValueError as exc:
                report["results"][source_name][pairing] = {"error": str(exc)}
    io.write_json(report, files["probe"])
    return report


def _ablation_variants(config: PipelineConfig, manifest) -> dict[str, PipelineConfig]:
    """Each variant's config, refusing the whole manifest before any variant
    runs if one entry's name is not a plain directory name under
    `ablations/`, or its entry is not an object of overrides or leaves out
    the model the report reads."""
    if not isinstance(manifest, dict):
        raise PipelineError("ablation manifest must map variant names to overrides")
    variants = {}
    for name, overrides in manifest.items():
        if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep, "\0")):
            raise PipelineError(f"ablation variant {name!r} must be a plain directory name")
        if not isinstance(overrides, dict):
            raise PipelineError(
                f"ablation variant {name!r} must be an object of overrides, got {_json_kind(overrides)}"
            )
        variant = config.with_overrides(overrides)
        if "two_tower_hgnn" not in variant.eval.models:
            raise PipelineError(
                f"ablation variant {name!r}: eval.models must include 'two_tower_hgnn', "
                "the model the ablation report compares"
            )
        variants[name] = variant
    return variants


def stage_ablate(config: PipelineConfig, files: Files) -> dict:
    if "ablation_manifest" in files:
        manifest = io.read_json(files["ablation_manifest"])
    else:
        manifest = ABLATION_VARIANTS
    variants = _ablation_variants(config, manifest)
    report: dict = {"config_hash": config.hash(), "seed": config.seed, "variants": {}}
    for name, variant_config in variants.items():
        variant_config.paths.interactions = str(files["interactions"])
        variant_config.paths.catalog = str(files["catalog"])
        variant_dir = files["ablation"].parent / "ablations" / name
        for stage in DAILY[1:]:  # split through evaluate, on this run's synth files
            result = run_stage(stage, variant_config, variant_dir)
        report["variants"][name] = result["models"]["two_tower_hgnn"]
    io.write_json(report, files["ablation"])
    _write_segment_csv(files["ablation_csv"], "variant", report["variants"])
    return report


@dataclass(frozen=True)
class Stage:
    """A stage function and its files, by `ARTIFACTS` key or, for a file only
    a config supplies, the name of its config field (a `PathsConfig` field or
    `ablation_manifest`). `optional` inputs are read when present. `logs` are
    listed in the manifest but not hashed. A stage without outputs is a query
    and writes no manifest."""

    run: Callable
    inputs: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    logs: tuple[str, ...] = ()


_USER_FILES = ("music_vectors", "demographics")

# In daily-pipeline order: `run_pipeline` runs synth through evaluate.
STAGES = {
    "synth": Stage(stage_synth, outputs=("interactions", "catalog")),
    "split": Stage(
        stage_split,
        ("interactions",),
        outputs=("train", "holdout", "train_columns", "holdout_columns", "split_meta"),
    ),
    "build-graph": Stage(
        stage_build_graph,
        ("train_columns", "catalog"),
        outputs=("graph", "checked_catalog", "graph_stats"),
    ),
    "train-hgnn": Stage(
        stage_train_hgnn, ("graph",), outputs=("hgnn_params",), logs=("hgnn_log",)
    ),
    "embed": Stage(stage_embed, ("graph", "hgnn_params", "checked_catalog"), outputs=("embeddings",)),
    "train-2t": Stage(
        stage_train_2t,
        ("train_columns", "split_meta", "checked_catalog", "embeddings"),
        _USER_FILES,
        outputs=("tower_params", "user_features"),
        logs=("tower_log",),
    ),
    "build-index": Stage(
        stage_build_index, ("tower_params", "checked_catalog", "embeddings"), outputs=("index",)
    ),
    "evaluate": Stage(
        stage_evaluate,
        (
            "checked_catalog", "train_columns", "holdout_columns", "split_meta",
            "embeddings", "tower_params", "user_features", "index",
        ),
        _USER_FILES,
        outputs=("evaluation", "evaluation_csv"),
    ),
    "recommend": Stage(stage_recommend, ("user_features", "tower_params", "index"), _USER_FILES),
    "ablate": Stage(
        stage_ablate,
        ("interactions", "catalog"),
        (*_USER_FILES, "ablation_manifest"),
        outputs=("ablation", "ablation_csv"),
    ),
    "weak-signals": Stage(stage_weak_signals, ("interactions",), outputs=("weak_signals",)),
    "probe": Stage(stage_probe, ("checked_catalog", "graph"), ("embeddings",), outputs=("probe",)),
}

DAILY = tuple(STAGES)[: list(STAGES).index("evaluate") + 1]
_PRODUCER = {key: name for name, stage in STAGES.items() for key in stage.outputs}
# the config fields that may name an input from outside the chain, as (section, key)
_CONFIG_FIELDS = (*(("paths", f.name) for f in fields(PathsConfig)), ("eval", "ablation_manifest"))


def _configured(config: PipelineConfig) -> dict[str, tuple[str, str]]:
    """The inputs `config` names from outside the chain, by key: the config
    field that names each and the path it gives."""
    named = ((section, key, getattr(getattr(config, section), key)) for section, key in _CONFIG_FIELDS)
    return {key: (f"{section}.{key}", value) for section, key, value in named if value}


def _stale(name: str, stage: str, why: str) -> PipelineError:
    return PipelineError(f"stale input {name!r}: {why}; rerun the {stage!r} stage")


def _current_inputs(spec: Stage, config: PipelineConfig, out_dir: Path) -> tuple[Files, dict]:
    """Resolve a stage's inputs and refuse any that is missing or stale.

    A file a config names (`paths.*`, `eval.ablation_manifest`) sits outside
    the chain: it is only hashed. Any other input must hash to the `outputs`
    entry of its producer's manifest, and every input that manifest records
    must equal the `outputs` entry of its own producer's manifest, and so on
    up the chain; that part compares manifests only, each read once. A query
    (no outputs) hashes nothing: its containers are checked from their
    headers as they load. Returns the files by key and each input's sha256
    by file name.
    """
    hashed = bool(spec.outputs)
    configured = _configured(config)
    # each file written in this directory's chain, by name: the stage that writes it
    chained = {ARTIFACTS[key]: stage for key, stage in _PRODUCER.items() if key not in configured}
    manifest_dir = out_dir / "manifests"
    manifests: dict[str, dict] = {}
    current: set[str] = set()

    def manifest(stage: str, name: str) -> dict:
        if stage not in manifests:
            try:
                manifests[stage] = io.read_json(f"{manifest_dir}/{stage}.json")
            except FileNotFoundError:
                raise PipelineError(
                    f"missing manifest '{stage}.json' for {name!r}: run the {stage!r} stage first"
                ) from None
        return manifests[stage]

    def check_upstream(stage: str, name: str) -> None:
        """Refuse `name` if `stage` or a stage above it read a file that the
        file's producer has rewritten since."""
        if stage in current:
            return
        for read, digest in manifest(stage, name).get("inputs", {}).items():
            source = chained.get(read)
            if source is None:
                continue  # not written in this directory's chain
            if manifest(source, read).get("outputs", {}).get(read) != digest:
                raise _stale(
                    name, stage, f"the {stage!r} stage read a {read!r} that {source!r} has rewritten since"
                )
            check_upstream(source, name)
        current.add(stage)

    files: Files = {}
    digests: dict[str, str] = {}
    for key in spec.inputs + spec.optional:
        if key in configured:
            field_name, value = configured[key]
            path = Path(value)
            if not path.exists():
                raise PipelineError(f"configured {field_name} does not exist: {path}")
            files[key] = path
            if hashed:
                digests[path.name] = io.sha256_file(path)
            continue
        if key not in _PRODUCER:
            continue  # a file only a config supplies, and this one does not
        name, source = ARTIFACTS[key], _PRODUCER[key]
        path = out_dir / name
        if not path.exists():
            if key in spec.optional:
                continue
            raise PipelineError(f"missing artifact {name!r}: run the {source!r} stage first")
        recorded = manifest(source, name).get("outputs", {}).get(name)
        digest = io.sha256_file(path) if hashed else recorded
        if recorded is None or digest != recorded:
            raise _stale(name, source, f"it changed after the {source!r} stage wrote it")
        check_upstream(source, name)
        files[key] = path
        digests[name] = digest
    return files, digests


# glibc's heap thresholds, fixed once per process. By default glibc raises its
# mmap threshold (and twice that, its trim threshold) to the size of the
# largest block it has freed, so a stage's per-batch scratch of a few MB is
# mapped and unmapped on every batch, or reused from the heap, depending on
# what ran earlier in the process. Fixing only the mmap threshold switches
# that adjustment off and leaves the trim threshold at 128 KiB, which unmaps
# the scratch just the same; so both are set.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _tune_heap(libc):
    """Fix the C library's mmap and trim thresholds where it has `mallopt`,
    and return its `malloc_trim`, or None where it has none. A threshold
    `mallopt` refuses (returns 0) stays as it was; nothing else changes."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    malloc_trim = getattr(libc, "malloc_trim", None)
    if malloc_trim is not None:
        malloc_trim.argtypes, malloc_trim.restype = (ctypes.c_size_t,), ctypes.c_int
    return malloc_trim


# glibc keeps freed heap memory for reuse and trims it only from the top of
# the heap, so how much of a stage's numpy scratch stays resident after it
# depends on the order of earlier allocations; the next stage's peak would
# sit on top of that. `run_stage` trims after each stage that writes.
try:
    _malloc_trim = _tune_heap(ctypes.CDLL(None))
except (OSError, TypeError):
    _malloc_trim = None


def run_stage(stage: str, config: PipelineConfig, out_dir, **kwargs):
    """Run one stage on current inputs and, once it has succeeded, echo the
    resolved config for provenance, record the stage's input and output
    hashes in `manifests/<stage>.json`, and hand the memory the stage freed
    back to the operating system."""
    spec = STAGES.get(stage)
    if spec is None:
        raise PipelineError(f"unknown stage {stage!r}")
    out_dir = Path(out_dir)
    if not spec.outputs:  # a query: it creates nothing, not even `out_dir`
        return spec.run(config, _current_inputs(spec, config, out_dir)[0], **kwargs)
    out_dir.mkdir(parents=True, exist_ok=True)
    files, digests = _current_inputs(spec, config, out_dir)
    files.update((key, out_dir / ARTIFACTS[key]) for key in spec.outputs + spec.logs)
    result = spec.run(config, files)
    io.write_json(config.to_dict(), out_dir / "resolved_config.json")
    manifest = {
        "stage": stage,
        "config_hash": config.hash(),
        "seed": config.seed,
        "inputs": digests,
        "outputs": {files[key].name: io.sha256_file(files[key]) for key in spec.outputs},
        "logs": sorted(files[key].name for key in spec.logs),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }
    (out_dir / "manifests").mkdir(exist_ok=True)
    io.write_json(manifest, out_dir / "manifests" / f"{stage}.json")
    if _malloc_trim is not None:
        _malloc_trim(0)
    return result


def run_pipeline(config: PipelineConfig, out_dir):
    """Run the daily pipeline end to end (synth through evaluate)."""
    result = None
    for stage in DAILY:
        result = run_stage(stage, config, out_dir)
    return result
