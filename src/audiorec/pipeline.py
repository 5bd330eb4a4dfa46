"""Stage-based pipeline: every stage reads its inputs from disk, writes
versioned artifacts plus a manifest of content hashes, and is reproducible
from (config, seed)."""

from __future__ import annotations

import csv
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import io
from .analysis import PAIRINGS, pair_similarity_probe, weak_signal_analysis
from .data import (
    DatasetSplit,
    parse_catalog,
    parse_interactions,
    save_catalog,
    save_interactions,
    timeline_split,
    truncate_history,
    user_segments,
)
from .evaluate import evaluate, tiered_metrics
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
    build_feature_set,
    build_training_pairs,
    export_item_vectors,
    train_two_tower,
)


class PipelineError(Exception):
    """Raised for config validation failures and missing stage dependencies."""


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
    history_days: int | None = None


@dataclass
class GraphSettings:
    min_co_users: int = 1
    relations: tuple[str, ...] = REL_KEYS
    edges_from_all_signals: bool = False

    def __post_init__(self):
        self.relations = tuple(self.relations)


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
        self.models = tuple(self.models)


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
            return cls(**sections, seed=obj.get("seed"))
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


ARTIFACTS = {
    "interactions": "interactions.jsonl",
    "catalog": "catalog.jsonl",
    "train": "train.jsonl",
    "holdout": "holdout.jsonl",
    "split_meta": "split_meta.json",
    "graph": "graph.bin",
    "graph_stats": "graph_stats.json",
    "hgnn_params": "hgnn_params.bin",
    "hgnn_log": "hgnn_train_log.jsonl",
    "embeddings": "embeddings.jsonl",
    "tower_params": "tower_params.bin",
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


def _artifact(out_dir: Path, name: str) -> Path:
    return out_dir / ARTIFACTS[name]


def _require(out_dir: Path, name: str, produced_by: str) -> Path:
    path = _artifact(out_dir, name)
    if not path.exists():
        raise PipelineError(
            f"missing artifact {path.name!r}: run the {produced_by!r} stage first"
        )
    return path


def _input_path(config: PipelineConfig, out_dir: Path, name: str, producer: str) -> Path:
    configured = getattr(config.paths, name, None)
    if configured:
        p = Path(configured)
        if not p.exists():
            raise PipelineError(f"configured paths.{name} does not exist: {p}")
        return p
    return _require(out_dir, name, producer)


def _write_manifest(
    out_dir: Path,
    stage: str,
    config: PipelineConfig,
    inputs: list[Path],
    outputs: list[Path],
    logs: list[Path] | None = None,
) -> None:
    manifest_dir = out_dir / "manifests"
    manifest_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "stage": stage,
        "config_hash": config.hash(),
        "seed": config.seed,
        "inputs": {p.name: io.sha256_file(p) for p in sorted(inputs)},
        "outputs": {p.name: io.sha256_file(p) for p in sorted(outputs)},
        "logs": [p.name for p in sorted(logs or [])],
    }
    io.write_json(manifest, manifest_dir / f"{stage}.json")


def _seed_of(config: PipelineConfig) -> int:
    return 0 if config.seed is None else int(config.seed)


def _load_music_vectors(config: PipelineConfig) -> dict[str, np.ndarray]:
    if not config.paths.music_vectors:
        return {}
    rows = io.read_jsonl(config.paths.music_vectors)
    return {r["user_id"]: np.asarray(r["vector"], dtype=np.float64) for r in rows}


def _load_demographics(config: PipelineConfig) -> dict[str, tuple[str, str]]:
    if not config.paths.demographics:
        return {}
    rows = io.read_jsonl(config.paths.demographics)
    return {r["user_id"]: (r["country"], r["age_bucket"]) for r in rows}


def _load_split(out_dir: Path) -> DatasetSplit:
    train = parse_interactions(_require(out_dir, "train", "split")).records
    holdout = parse_interactions(_require(out_dir, "holdout", "split")).records
    meta = io.read_json(_require(out_dir, "split_meta", "split"))
    return DatasetSplit(train=train, holdout=holdout, split_time=meta["split_time"])


# ---------------------------------------------------------------------------
# Stages.
# ---------------------------------------------------------------------------


def stage_synth(config: PipelineConfig, out_dir: Path) -> None:
    if config.seed is None:
        raise PipelineError("synth requires a seed (config.seed or --seed)")
    records, catalog = synth_generate(config.synth, config.seed)
    interactions_path = _artifact(out_dir, "interactions")
    catalog_path = _artifact(out_dir, "catalog")
    save_interactions(records, interactions_path)
    save_catalog(catalog, catalog_path)
    _write_manifest(out_dir, "synth", config, [], [interactions_path, catalog_path])


def stage_split(config: PipelineConfig, out_dir: Path) -> None:
    src = _input_path(config, out_dir, "interactions", "synth")
    parsed = parse_interactions(src)
    if parsed.diagnostics:
        first = parsed.diagnostics[0]
        warnings.warn(
            f"{src}: skipped {len(parsed.diagnostics)} malformed lines "
            f"(first: line {first.line_no}: {first.message})",
            stacklevel=2,
        )
    records = parsed.records
    if config.split.history_days is not None:
        records = truncate_history(records, config.split.history_days)
    split = timeline_split(
        records,
        split_time=config.split.split_time,
        holdout_days=config.split.holdout_days,
    )
    train_path = _artifact(out_dir, "train")
    holdout_path = _artifact(out_dir, "holdout")
    meta_path = _artifact(out_dir, "split_meta")
    save_interactions(split.train, train_path)
    save_interactions(split.holdout, holdout_path)
    io.write_json(
        {
            "split_time": split.split_time,
            "n_train": len(split.train),
            "n_holdout": len(split.holdout),
            "n_malformed": len(parsed.diagnostics),
        },
        meta_path,
    )
    _write_manifest(out_dir, "split", config, [src], [train_path, holdout_path, meta_path])


def stage_build_graph(config: PipelineConfig, out_dir: Path) -> None:
    train_path = _require(out_dir, "train", "split")
    catalog_path = _input_path(config, out_dir, "catalog", "synth")
    train = parse_interactions(train_path).records
    catalog = parse_catalog(catalog_path)
    graph = build_colisten_graph(
        train,
        catalog,
        min_co_users=config.graph.min_co_users,
        relations=config.graph.relations,
        include_all_signals=config.graph.edges_from_all_signals,
    )
    graph_path = _artifact(out_dir, "graph")
    stats_path = _artifact(out_dir, "graph_stats")
    save_graph(graph, graph_path)
    stats = graph_stats(graph)
    io.write_json(
        {
            "node_counts": stats.node_counts,
            "edge_counts": stats.edge_counts,
            "degree_summary": stats.degree_summary,
        },
        stats_path,
    )
    _write_manifest(
        out_dir, "build-graph", config, [train_path, catalog_path], [graph_path, stats_path]
    )


def stage_train_hgnn(config: PipelineConfig, out_dir: Path) -> None:
    graph_path = _require(out_dir, "graph", "build-graph")
    graph = load_graph(graph_path)
    feature_dim = next(iter(graph.features.values())).shape[1]
    params = HgnnParams.init(
        config.hgnn,
        int(feature_dim),
        graph.node_types,
        graph.relations,
        seed=_seed_of(config),
    )
    result = train_hgnn(graph, params, seed=_seed_of(config))
    params_path = _artifact(out_dir, "hgnn_params")
    log_path = _artifact(out_dir, "hgnn_log")
    result.params.save(params_path)
    io.write_jsonl(
        (
            {
                "epoch": e.epoch,
                "train_loss": e.train_loss,
                "val_loss": e.val_loss,
                "wall_time": e.wall_time,
                "sampled_edges": e.sampled_edges,
            }
            for e in result.log
        ),
        log_path,
    )
    _write_manifest(
        out_dir, "train-hgnn", config, [graph_path], [params_path], logs=[log_path]
    )


def stage_embed(config: PipelineConfig, out_dir: Path) -> None:
    graph_path = _require(out_dir, "graph", "build-graph")
    params_path = _require(out_dir, "hgnn_params", "train-hgnn")
    catalog_path = _input_path(config, out_dir, "catalog", "synth")
    graph = load_graph(graph_path)
    params = HgnnParams.load(params_path)
    catalog = parse_catalog(catalog_path)
    table = embed_catalog(graph, params, catalog)
    emb_path = _artifact(out_dir, "embeddings")
    table.save(emb_path)
    _write_manifest(
        out_dir, "embed", config, [graph_path, params_path, catalog_path], [emb_path]
    )


def stage_train_2t(config: PipelineConfig, out_dir: Path) -> None:
    train_path = _require(out_dir, "train", "split")
    catalog_path = _input_path(config, out_dir, "catalog", "synth")
    emb_path = _require(out_dir, "embeddings", "embed")
    split = _load_split(out_dir)
    catalog = parse_catalog(catalog_path)
    table = NodeEmbeddingTable.load(emb_path)
    cfg = config.two_tower
    pairs = build_training_pairs(
        split.train, cfg.target_type, cfg.window_days, as_of=split.split_time
    )
    if not pairs:
        raise PipelineError("no training pairs: no target-type streams in the train window")
    features = build_feature_set(
        {u for u, _ in pairs},
        split.train,
        catalog,
        table,
        cfg,
        as_of=split.split_time,
        music_vectors=_load_music_vectors(config),
        demographics=_load_demographics(config),
    )
    params, log = train_two_tower(pairs, features, cfg, seed=_seed_of(config))
    params_path = _artifact(out_dir, "tower_params")
    log_path = _artifact(out_dir, "tower_log")
    params.save(params_path)
    io.write_jsonl(log, log_path)
    _write_manifest(
        out_dir,
        "train-2t",
        config,
        [train_path, catalog_path, emb_path],
        [params_path],
        logs=[log_path],
    )


def stage_build_index(config: PipelineConfig, out_dir: Path) -> None:
    params_path = _require(out_dir, "tower_params", "train-2t")
    catalog_path = _input_path(config, out_dir, "catalog", "synth")
    emb_path = _require(out_dir, "embeddings", "embed")
    params = TowerParams.load(params_path)
    catalog = parse_catalog(catalog_path)
    table = NodeEmbeddingTable.load(emb_path)
    vectors = export_item_vectors(params, catalog, table)
    index = build_index(vectors)
    index_path = _artifact(out_dir, "index")
    save_index(index, index_path)
    _write_manifest(
        out_dir,
        "build-index",
        config,
        [params_path, catalog_path, emb_path],
        [index_path],
    )


def _two_tower_recommender(
    config: PipelineConfig, out_dir: Path, name: str = "two_tower_hgnn"
) -> TwoTowerRecommender:
    params = TowerParams.load(_require(out_dir, "tower_params", "train-2t"))
    index = load_index(_require(out_dir, "index", "build-index"))
    table = NodeEmbeddingTable.load(_require(out_dir, "embeddings", "embed"))
    split = _load_split(out_dir)
    return TwoTowerRecommender(
        params,
        index,
        split.train,
        table,
        as_of=split.split_time,
        music_vectors=_load_music_vectors(config),
        demographics=_load_demographics(config),
        name=name,
    )


def stage_recommend(
    config: PipelineConfig, out_dir: Path, user: str, k: int = 10
) -> list[tuple[str, float]]:
    recommender = _two_tower_recommender(config, out_dir)
    return recommender.recommend_scored(user, k)


def stage_evaluate(config: PipelineConfig, out_dir: Path) -> dict:
    catalog_path = _input_path(config, out_dir, "catalog", "synth")
    catalog = parse_catalog(catalog_path)
    split = _load_split(out_dir)
    segments = user_segments(split)
    target = config.two_tower.target_type
    catalog_ids = {i for i, it in catalog.items() if it.item_type == target}
    table = NodeEmbeddingTable.load(_require(out_dir, "embeddings", "embed"))

    recommenders = {}
    for model in config.eval.models:
        if model == "two_tower_hgnn":
            recommenders[model] = _two_tower_recommender(config, out_dir)
        elif model == "popularity":
            recommenders[model] = PopularityRecommender(
                split.train, catalog, target, config.two_tower.window_days, split.split_time
            )
        elif model == "content_knn":
            recommenders[model] = content_knn_baseline(
                split.train, catalog, target, config.two_tower.window_days, split.split_time
            )
        elif model == "hgnn_knn":
            recommenders[model] = hgnn_knn_baseline(
                split.train, catalog, table, target, config.two_tower.window_days, split.split_time
            )
        else:
            raise PipelineError(f"unknown model {model!r} in eval.models")

    report = {
        "config_hash": config.hash(),
        "seed": config.seed,
        "k": config.eval.k,
        "target_type": target,
        "models": {},
    }
    rows = []
    for model, rec in recommenders.items():
        reports = evaluate(
            rec, split, segments, target, catalog_ids, config.eval.k, config.eval.max_rank
        )
        entry = {seg: rep.to_dict() for seg, rep in reports.items()}
        for seg in ("warm", "cold", "all"):
            if seg not in entry:
                entry[seg] = None  # no evaluable users in this segment
        if config.eval.tiers and model == "two_tower_hgnn":
            try:
                tiers = tiered_metrics(
                    rec, split, segments, target, catalog_ids,
                    config.eval.k, config.eval.max_rank,
                )
                entry["tiers"] = {name: rep.to_dict() for name, rep in tiers.items()}
            except ValueError:
                entry["tiers"] = None
        report["models"][model] = entry
        for seg in ("warm", "cold", "all"):
            rep = entry.get(seg)
            if rep:
                rows.append(
                    [model, seg, rep["k"], rep["n_users"], rep["hr_at_k"], rep["mrr"], rep["coverage"]]
                )

    eval_path = _artifact(out_dir, "evaluation")
    csv_path = _artifact(out_dir, "evaluation_csv")
    io.write_json(report, eval_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "segment", "k", "n_users", "hr_at_k", "mrr", "coverage"])
        writer.writerows(rows)
    _write_manifest(
        out_dir, "evaluate", config, [catalog_path], [eval_path, csv_path]
    )
    return report


def stage_weak_signals(config: PipelineConfig, out_dir: Path) -> dict:
    src = _input_path(config, out_dir, "interactions", "synth")
    records = parse_interactions(src).records
    report = weak_signal_analysis(records).to_dict()
    path = _artifact(out_dir, "weak_signals")
    io.write_json(report, path)
    _write_manifest(out_dir, "weak-signals", config, [src], [path])
    return report


def stage_probe(config: PipelineConfig, out_dir: Path) -> dict:
    catalog_path = _input_path(config, out_dir, "catalog", "synth")
    graph_path = _require(out_dir, "graph", "build-graph")
    catalog = parse_catalog(catalog_path)
    graph = load_graph(graph_path)
    target = config.two_tower.target_type
    content = {
        i: it.content_vector for i, it in catalog.items() if it.item_type == target
    }
    sources = {"content": content}
    emb_path = _artifact(out_dir, "embeddings")
    if emb_path.exists():
        table = NodeEmbeddingTable.load(emb_path)
        sources["hgnn"] = {
            i: v
            for i, v in ((i, table.get(i)) for i in content)
            if v is not None
        }
    seed = _seed_of(config)
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
    path = _artifact(out_dir, "probe")
    io.write_json(report, path)
    _write_manifest(out_dir, "probe", config, [catalog_path, graph_path], [path])
    return report


_MODEL_STAGES = ("split", "build-graph", "train-hgnn", "embed", "train-2t", "build-index")


def stage_ablate(config: PipelineConfig, out_dir: Path) -> dict:
    interactions = _input_path(config, out_dir, "interactions", "synth")
    catalog = _input_path(config, out_dir, "catalog", "synth")
    if config.eval.ablation_manifest:
        manifest = io.read_json(config.eval.ablation_manifest)
        if not isinstance(manifest, dict):
            raise PipelineError("ablation manifest must map variant names to overrides")
    else:
        manifest = ABLATION_VARIANTS
    rows = []
    report: dict = {"config_hash": config.hash(), "seed": config.seed, "variants": {}}
    for name, overrides in manifest.items():
        variant_config = config.with_overrides(overrides)
        variant_config.paths.interactions = str(interactions)
        variant_config.paths.catalog = str(catalog)
        variant_dir = out_dir / "ablations" / name
        variant_dir.mkdir(parents=True, exist_ok=True)
        io.write_json(variant_config.to_dict(), variant_dir / "resolved_config.json")
        for stage in _MODEL_STAGES:
            STAGES[stage](variant_config, variant_dir)
        result = stage_evaluate(variant_config, variant_dir)
        entry = result["models"]["two_tower_hgnn"]
        report["variants"][name] = entry
        for seg in ("warm", "cold", "all"):
            rep = entry.get(seg)
            if rep:
                rows.append(
                    [name, seg, rep["k"], rep["n_users"], rep["hr_at_k"], rep["mrr"], rep["coverage"]]
                )
    path = _artifact(out_dir, "ablation")
    csv_path = _artifact(out_dir, "ablation_csv")
    io.write_json(report, path)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "segment", "k", "n_users", "hr_at_k", "mrr", "coverage"])
        writer.writerows(rows)
    _write_manifest(out_dir, "ablate", config, [interactions, catalog], [path, csv_path])
    return report


STAGES = {
    "synth": stage_synth,
    "split": stage_split,
    "build-graph": stage_build_graph,
    "train-hgnn": stage_train_hgnn,
    "embed": stage_embed,
    "train-2t": stage_train_2t,
    "build-index": stage_build_index,
    "evaluate": stage_evaluate,
    "ablate": stage_ablate,
    "weak-signals": stage_weak_signals,
    "probe": stage_probe,
}


def run_stage(stage: str, config: PipelineConfig, out_dir, **kwargs):
    """Run one pipeline stage, echoing the resolved config for provenance."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if stage == "recommend":  # a query, not an artifact producer
        return stage_recommend(config, out_dir, **kwargs)
    if stage not in STAGES:
        raise PipelineError(f"unknown stage {stage!r}")
    io.write_json(config.to_dict(), out_dir / "resolved_config.json")
    return STAGES[stage](config, out_dir)


def run_pipeline(config: PipelineConfig, out_dir, stages: tuple[str, ...] | None = None):
    """Run the daily pipeline end to end (synth through evaluate)."""
    ordered = stages or (
        "synth",
        "split",
        "build-graph",
        "train-hgnn",
        "embed",
        "train-2t",
        "build-index",
        "evaluate",
    )
    result = None
    for stage in ordered:
        result = run_stage(stage, config, out_dir)
    return result
