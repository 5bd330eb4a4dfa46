"""Workload definitions and the spans the traced run records.

Every workload runs the same steps in its own process: set-up (the seeded
`synth` stage, repeated), the timed daily pipeline from `split` through
`evaluate`, and a timed closed serving loop over the artifacts the pipeline
wrote. They differ in data size, HGNN epochs and how much of the run the
serving loop gets. Every workload reports every end-to-end metric, so the
serving loop over the wide catalog is part of `wide-catalog` rather than a
workload that would train the same artifacts again. The quality ordering
gates (acceptance criteria 8-9) live in `audiorec.benchmark`, a separate
harness this benchmark leaves alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

WIDE_SYNTH = {
    "n_users": 2000,
    "n_podcasts": 2000,
    "n_audiobooks": 1000,
    "podcast_stream_rate": 0.001,
    "audiobook_stream_rate": 0.0005,
    "n_cold_items": 50,
}

PIPELINE_STAGES = (
    "split",
    "build-graph",
    "train-hgnn",
    "embed",
    "train-2t",
    "build-index",
    "evaluate",
)

SETUP_REPEATS = 7
TOP_K = 10

# The serving loop draws, with replacement, from a seeded working set of
# known users plus ids with no history; the working set is served once,
# untimed, before the loop, so path (a) is timed with its per-user feature
# cache filled.
WORKING_SET_KNOWN = 248
WORKING_SET_UNSEEN = 8
# Each path runs until it has enough samples for its reported percentiles
# (p99 of path (a) needs 1000, the median of path (b) 20 to keep ten samples
# beyond it), but the loop stops SERVE_CAP_S after its window regardless.
MIN_INPROC_SAMPLES = 1000
MIN_CLI_SAMPLES = 20
SERVE_CAP_S = 60.0
# path (a)'s share of the loop's busy time, path (b) gets the rest
INPROC_SHARE = 0.3


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict = field(default_factory=dict)
    # share of --seconds the serving loop runs
    serve_share: float = 1.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("daily-default", serve_share=0.75),
        Workload("wide-catalog", {"synth": WIDE_SYNTH, "hgnn": {"max_epochs": 3}}),
    )
}


# --- counts taken at span boundaries --------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_pairs(rec, args, kwargs, result):
    rec.count("hgnn.batches")
    rec.count("hgnn.pairs", len(_arg(args, kwargs, 3, "pairs")))


def _count_plan_rows(rec, args, kwargs, result):
    plan = _arg(args, kwargs, 2, "plan")
    for layer in plan.layers:
        for csr in layer.values():
            rec.count("hgnn.forward.node_rows", len(csr.indptr) - 1)
            rec.count("hgnn.forward.edge_rows", len(csr.indices))


def _count_records(rec, args, kwargs, result):
    rec.count("data.parse_interactions.records", len(result.records))


def _set_index_rows(rec, args, kwargs, result):
    rec.counters["index.rows"] = len(result)


def _count_hashed_bytes(rec, args, kwargs, result):
    import os

    rec.count("io.sha256_file.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _count_recommend(rec, args, kwargs, result):
    rec.count(f"evaluate.recommend_calls.{args[0].name}")


def _count_2t_batch(rec, args, kwargs, result):
    rec.count("two_tower.batches")


# (target, span name, count hook); names match BENCHMARK.json's per_layer rows
TRACE_TARGETS = (
    ("data:parse_interactions", "data.parse_interactions", _count_records),
    ("data:parse_catalog", "data.parse_catalog", None),
    ("data:timeline_split", "data.timeline_split", None),
    ("graph:build_colisten_graph", "graph.build_colisten_graph", None),
    ("graph:save_graph", "graph.save_graph", None),
    ("graph:load_graph", "graph.load_graph", None),
    ("graph:HeteroGraph.all_neighbors", "graph.all_neighbors", None),
    ("hgnn:train_hgnn", "hgnn.train_hgnn", None),
    ("hgnn:_sample_negative_refs", "hgnn.sample_negatives", None),
    ("hgnn:margin_batch_loss", "hgnn.margin_batch_loss", None),
    ("hgnn:batch_loss_and_grads", "hgnn.batch_loss_and_grads", _count_pairs),
    ("hgnn:sample_plan", "hgnn.sample_plan", None),
    ("hgnn:full_plan", "hgnn.full_plan", None),
    ("hgnn:forward_states", "hgnn.forward_states", _count_plan_rows),
    ("hgnn:_segment_max", "hgnn.segment_max", None),
    ("hgnn:backward_states", "hgnn.backward_states", None),
    ("hgnn:balanced_edge_sample", "hgnn.balanced_edge_sample", None),
    ("hgnn:embed_catalog", "hgnn.embed_catalog", None),
    ("hgnn:embed_inductive", "hgnn.embed_inductive", None),
    ("hgnn:NodeEmbeddingTable.load", "hgnn.embedding_table.load", None),
    ("hgnn:NodeEmbeddingTable.save", "hgnn.embedding_table.save", None),
    ("optim:Adam.step", "optim.adam_step", None),
    ("two_tower:train_two_tower", "two_tower.train_two_tower", None),
    ("two_tower:build_feature_set", "two_tower.build_feature_set", None),
    ("two_tower:assemble_user_features", "two_tower.assemble_user_features", None),
    ("two_tower:_tower_forward", "two_tower.tower_forward", None),
    ("two_tower:_tower_backward", "two_tower.tower_backward", None),
    ("two_tower:_batch_loss_and_douts", "two_tower.batch_loss", _count_2t_batch),
    ("two_tower:export_item_vectors", "two_tower.export_item_vectors", None),
    ("two_tower:TowerParams.load", "two_tower.tower_params.load", None),
    ("index:build_index", "index.build_index", _set_index_rows),
    ("index:query_topk", "index.query_topk", None),
    ("index:save_index", "index.save_index", None),
    ("index:load_index", "index.load_index", _set_index_rows),
    ("recommenders:TwoTowerRecommender.user_vector", "recommenders.user_vector", None),
    ("recommenders:_ranked_by_dot", "recommenders.ranked_by_dot", None),
    ("recommenders:PopularityRecommender.recommend", "recommenders.recommend", _count_recommend),
    ("recommenders:_ProfileKnnRecommender.recommend", "recommenders.recommend", _count_recommend),
    ("recommenders:TwoTowerRecommender.recommend", "recommenders.recommend", _count_recommend),
    ("evaluate:evaluate", "evaluate.evaluate", None),
    ("evaluate:tiered_metrics", "evaluate.tiered_metrics", None),
    ("evaluate:filtered_recommendations", "evaluate.filtered_recommendations", None),
    ("io:read_pack", "io.read_pack", None),
    ("io:write_pack", "io.write_pack", None),
    ("io:read_json", "io.read_json", None),
    ("io:read_jsonl", "io.read_jsonl", None),
    ("io:write_jsonl", "io.write_jsonl", None),
    ("io:sha256_file", "io.sha256_file", _count_hashed_bytes),
)

# spans whose self time in the `rec recommend` path counts as artifact loading
LOADER_SPANS = frozenset(
    {
        "data.parse_interactions",
        "data.parse_catalog",
        "graph.load_graph",
        "hgnn.embedding_table.load",
        "two_tower.tower_params.load",
        "index.load_index",
        "io.read_pack",
        "io.read_json",
        "io.read_jsonl",
    }
)

# artifacts whose size is reported, by their key in pipeline.ARTIFACTS
ARTIFACT_KEYS = (
    "train",
    "holdout",
    "graph",
    "hgnn_params",
    "embeddings",
    "tower_params",
    "index",
)
