"""Reference implementations the tests compare the library against.

Each oracle computes per node or per pair, with plain loops, what the library
computes batched: the per-seed sampled forward pass against `forward_states`,
the single-node aggregate and update against its layers, the content-only
embedding against the isolated-node rows of `embed_catalog`, and the scalar
losses against the batched margin and in-batch losses. The per-node plan
sampler, the per-anchor negative sampler, the per-pair margin loss, the
`reduceat` segment max and the nonzero-entry routing of pooled gradients are
what the batched training step replaced; it must match them bit for bit,
random stream included; the per-node plan sampler draws each row by
`floyd_choice`, Floyd's algorithm step by step. So must the plain-expression
Adam step and the per-item `query_topk` result comprehension, which in-place
and bulk-converted code replaced, and the two-tower loop with a fresh
gradient dict per batch, which gradient buffers kept across batches
replaced. The comprehension sorts every row, where `query_topk`
sorts only those it may keep, and `filtered_recommendations_full` asks for
each user's whole ranking, where the harness asks for the part it can keep.
`scan_user_inputs` packs one user's tower input from a scan of every train
record on its own, where serving packs the user's row of `user_features.bin`
through `user_inputs`; the rows must match byte for byte, and the served
vector must equal the tower's output on the scanned row bit for bit.
`stream_counts_dense` draws synth's stream counts in one call over the whole
user x item array, where the generator draws them a block of users at a
time; the triples and the generator state must match exactly.
`synth_generate_loop` draws synth's records one at a time and sorts the
record objects, where the generator draws each kind of value in one array
call from the same random stream and sorts columns; `save_catalog_rows`
writes each catalog item's row dict through `canonical_json`, where the
library formats the line directly. Records, catalogs, meta and the written
bytes must match exactly. `mrr_walk` walks each user's ranking to the
first relevant item for every group it scores, where the library finds each
user's relevant items in their ranking once per scoring call; the means must
be equal.
`current_inputs` walks the manifest chain asking the config, for every input
every manifest records, whether a config field names it; the library works
that set out once per walk. Both must resolve the same files and digests, or
refuse with the same text.
`parse_interactions_lines`, `read_jsonl_lines` and `parse_catalog_lines`
decode and check one line at a time through `json.loads`, where the library
scans each line once and tests a record's fields in one expression;
`parse_catalog_lines` checks a content vector in plain Python, where the
library converts it with numpy.
`build_colisten_graph_loop` counts every item pair of every user in a dict,
where the library codes pairs as integers and counts them with `np.unique`. Both sides must give equal records and
diagnostics, equal catalogs or the same error, and byte-equal graphs.
`window_by_user`, `streamed_items`, `popularity_ranking`, `user_segments`,
`build_training_pairs` and `user_histories_loop` walk a list of records,
where the library computes the same from the columns of an `Interactions`
log; both must give equal windows, pairs, sets, segments, rankings and
history rows byte for byte.

The edge-first forward and its row-wise `np.add.at` backward run every
relation's dense layer on gathered edge rows, `h_src[indices] @ W.T + b`,
where the library transforms each source node once. The two orders round
differently, so the library matches them within a stated tolerance, and bit
for bit where every product and sum is exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from audiorec import io, synth
from audiorec.data import (
    DAY_SECONDS,
    ITEM_TYPES,
    SIGNALS,
    WEAK_SIGNALS,
    CatalogItem,
    DatasetSplit,
    InteractionRecord,
    Interactions,
    ParseDiagnostic,
    ParsedInteractions,
    UserSegments,
    _check_interaction,
)
from audiorec.graph import (
    REL_KEYS,
    Csr,
    HeteroGraph,
    _build_csr,
    _feature_dim,
    _types_for_relations,
    rel_key,
    rel_types,
)
from audiorec.hgnn import (
    ExclusionIndex,
    ForwardCache,
    HgnnParams,
    NeighborPlan,
    NodeEmbeddingTable,
    _sample_negative_refs,
    flat_offsets,
)
from audiorec.index import RecIndex, row_dots
from audiorec.optim import NORM_FLOOR, Adam
from audiorec.pipeline import _PRODUCER, ARTIFACTS, PipelineConfig, PipelineError, Stage, _stale
from audiorec.two_tower import (
    OOV_TOKEN,
    TowerParams,
    TwoTowerConfig,
    UserHistoryTable,
    Vocab,
    _batch_loss_and_douts,
    _tower_backward,
    _tower_forward,
    item_inputs,
    user_inputs,
)

NodeRef = tuple[str, int]


def all_neighbors(graph: HeteroGraph, node_type: str, idx: int) -> set[NodeRef]:
    out: set[NodeRef] = set()
    for (dst, src), csr in graph.adj.items():
        if dst == node_type:
            out.update((src, int(j)) for j in csr.neighbors(idx))
    return out


def flat_node_list(graph: HeteroGraph) -> list[NodeRef]:
    return [(t, i) for t in graph.node_types for i in range(len(graph.nodes[t]))]


# ---------------------------------------------------------------------------
# Loops the batched training step replaced.
# ---------------------------------------------------------------------------


def floyd_choice(rng: np.random.Generator, pop: int, size: int) -> np.ndarray:
    """`size` distinct values below `pop` by Floyd's algorithm, one
    `rng.integers` draw per step, then shuffled by Fisher-Yates as numpy's
    `rng.choice(pop, size, replace=False)` shuffles them: the same values in
    the same order, and the same final state, wherever that call runs Floyd
    (`pop <= 10000` or `size <= pop // 50`)."""
    picks: list[int] = []
    taken: set[int] = set()
    for j in range(pop - size, pop):
        v = int(rng.integers(0, j + 1))
        picks.append(j if v in taken else v)
        taken.add(picks[-1])
    for i in range(size - 1, 0, -1):
        k = int(rng.integers(0, i + 1))
        picks[i], picks[k] = picks[k], picks[i]
    return np.array(picks, dtype=np.int64)


def sample_neighbors(csr: Csr, idx: int, fanout: int, rng: np.random.Generator) -> np.ndarray:
    neigh = csr.neighbors(idx)
    if len(neigh) <= fanout:
        return neigh.copy()
    return np.sort(neigh[floyd_choice(rng, len(neigh), fanout)])


def sample_plan_loop(
    graph: HeteroGraph, fanouts: tuple[int, ...], rng: np.random.Generator
) -> NeighborPlan:
    """Per-node `sample_plan`: one `sample_neighbors` call per node."""
    layers = []
    for fanout in fanouts:
        per_layer: dict[tuple[str, str], Csr] = {}
        for direction in graph.directions():
            csr = graph.adj[direction]
            n_dst = len(graph.nodes[direction[0]])
            if np.all(np.diff(csr.indptr) <= fanout):
                per_layer[direction] = csr
                continue
            chunks = []
            indptr = [0]
            for i in range(n_dst):
                chunks.append(sample_neighbors(csr, i, fanout, rng))
                indptr.append(indptr[-1] + len(chunks[-1]))
            indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            per_layer[direction] = Csr(np.array(indptr, dtype=np.int64), indices.astype(np.int64))
        layers.append(per_layer)
    return NeighborPlan(layers)


def sample_negative_refs_loop(
    graph: HeteroGraph, anchor_ref: NodeRef, n_neg: int, rng: np.random.Generator
) -> list[NodeRef]:
    """Per-anchor negative sampler: chunks of max(n_neg, 32) draws over the
    flat node list until n_neg survivors, at most 1000 * n_neg draws."""
    excluded = all_neighbors(graph, *anchor_ref)
    excluded.add(anchor_ref)
    flat = flat_node_list(graph)
    if len(flat) - len(excluded) < 1:
        raise RuntimeError(f"no negative candidates for anchor {anchor_ref}: graph too dense")
    out: list[NodeRef] = []
    draws = 0
    limit = 1000 * n_neg
    while len(out) < n_neg:
        budget = min(limit - draws, max(n_neg, 32))
        if budget <= 0:
            raise RuntimeError(f"negative sampling for anchor {anchor_ref} exceeded {limit} draws")
        for c in rng.integers(0, len(flat), size=budget):
            draws += 1
            ref = flat[int(c)]
            if ref not in excluded:
                out.append(ref)
                if len(out) == n_neg:
                    break
    return out


def sample_negatives_loop(graph: HeteroGraph):
    """`_sample_negative_refs` with the library's signature, one anchor at a
    time through `sample_negative_refs_loop`."""
    flat = flat_node_list(graph)
    offsets = flat_offsets(graph)

    def sample(index, anchors, n_neg, rng):
        rows = [sample_negative_refs_loop(graph, flat[int(a)], n_neg, rng) for a in anchors]
        return np.array(
            [[offsets[t] + i for t, i in row] for row in rows], dtype=np.int64
        ).reshape(len(rows), n_neg)

    return sample


def sample_negatives(
    graph: HeteroGraph, anchor: str, n_neg: int, rng: np.random.Generator
) -> list[str]:
    """The library sampler for one anchor, by item id."""
    t, i = graph.node_ref(anchor)
    flat = flat_node_list(graph)
    anchors = np.array([flat_offsets(graph)[t] + i])
    refs = _sample_negative_refs(ExclusionIndex.build(graph), anchors, n_neg, rng)[0]
    return [graph.nodes[flat[r][0]][flat[r][1]] for r in refs]


def margin_batch_loss_loop(
    cache: ForwardCache, pairs: np.ndarray, negatives: np.ndarray, margin: float
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Per-pair margin loss over flat ids, one negative at a time."""
    refs = [(t, i) for t, r in cache.rows.items() for i in range(r.stop - r.start)]
    z = cache.z
    dz = {t: np.zeros_like(z[r]) for t, r in cache.rows.items()}
    n_pairs = len(pairs)
    active = np.zeros(negatives.shape, dtype=bool)
    total = 0.0
    for row, ((a, p), negs) in enumerate(zip(pairs, negatives)):
        a_ref, p_ref = refs[a], refs[p]
        za, zp = z[a], z[p]
        s_pos = za @ zp
        coef = 1.0 / (n_pairs * len(negs))
        d_za = np.zeros_like(za)
        d_sum = 0.0
        for j, n in enumerate(negs):
            n_ref = refs[n]
            zn = z[n]
            term = zn @ za - s_pos + margin
            if term > 0.0:
                active[row, j] = True
                total += term / len(negs)
                d_za += coef * (zn - zp)
                dz[n_ref[0]][n_ref[1]] += coef * za
                d_sum += coef
        dz[a_ref[0]][a_ref[1]] += d_za
        dz[p_ref[0]][p_ref[1]] += -d_sum * za if d_sum else 0.0
    return float(total / n_pairs), dz, active


def segment_max_reduceat(values: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_segment_max` through `np.maximum.reduceat`, argfirst as the smallest
    row index equal to the pooled value."""
    n = len(indptr) - 1
    d = values.shape[1]
    pooled = np.zeros((n, d))
    argfirst = np.full((n, d), -1, dtype=np.int64)
    seg_len = np.diff(indptr)
    nz = np.flatnonzero(seg_len > 0)
    if values.shape[0] == 0 or len(nz) == 0:
        return pooled, argfirst
    starts = indptr[nz]
    pooled[nz] = np.maximum.reduceat(values, starts, axis=0)
    seg_of_row = np.repeat(np.arange(n), seg_len)
    candidates = np.where(
        values == pooled[seg_of_row], np.arange(values.shape[0])[:, None], values.shape[0]
    )
    argfirst[nz] = np.minimum.reduceat(candidates, starts, axis=0)
    return pooled, argfirst


def route_pooled_nonzero(
    p: np.ndarray,
    pooled: np.ndarray,
    argfirst: np.ndarray,
    indices: np.ndarray,
    grad: np.ndarray,
) -> np.ndarray:
    """`hgnn._route_pooled` over the `np.nonzero` list of (segment, column)
    entries that have a maximizing neighbor: each looks up its source's
    pre-activation in `p` and, where that is positive, adds its gradient to
    the source's row, in row-major entry order. `pooled` is not read."""
    seg, col = np.nonzero(argfirst >= 0)
    src = indices[argfirst[seg, col]]
    live = p[src, col] > 0.0
    return np.bincount(
        src[live] * p.shape[1] + col[live],
        weights=grad[seg[live], col[live]],
        minlength=p.size,
    ).reshape(p.shape)


def argfirst_of(indptr: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """The edge positions `indptr[i] + slot` of `_segment_max`'s winner
    slots, -1 for an empty segment, as `segment_max_reduceat` gives them."""
    indptr = np.asarray(indptr)
    empty = (np.diff(indptr) == 0)[:, None]
    return np.where(empty, -1, indptr[:-1, None] + slots.astype(np.int64))


def route_pooled_by_slots(
    indptr: np.ndarray,
    indices: np.ndarray,
    slots: np.ndarray,
    live: np.ndarray,
    grad: np.ndarray,
    n_src: int,
) -> np.ndarray:
    """`route_pooled_nonzero` behind `hgnn._route_pooled`'s arguments. An
    entry's liveness is its winner's pre-activation sign in that column, so
    a stand-in `p` holding 1.0 at each live entry's (winner, column) and 0.0
    elsewhere gives the oracle the same liveness."""
    argfirst = argfirst_of(indptr, slots)
    p = np.zeros((n_src, grad.shape[1]))
    seg, col = np.nonzero(live)
    p[indices[argfirst[seg, col]], col] = 1.0
    return route_pooled_nonzero(p, None, argfirst, indices, grad)


@dataclass
class EdgeFirstCache:
    """The cache of `forward_states_edge_first`: the states `h`, and the flat
    `rows`, `z`, `norms` and `fallback`, as in `ForwardCache`; per (layer,
    direction) the pre-activations `edge_pre`, one row per edge, the pooled
    values and argfirst; per layer the node update's pre-activations
    `upd_pre`."""

    h: list[dict[str, np.ndarray]]
    edge_pre: list[dict[tuple[str, str], np.ndarray]]
    pooled: list[dict[tuple[str, str], np.ndarray]]
    argfirst: list[dict[tuple[str, str], np.ndarray]]
    upd_pre: list[dict[str, np.ndarray]]
    rows: dict[str, slice]
    norms: np.ndarray
    z: np.ndarray
    fallback: np.ndarray


def forward_states_edge_first(
    graph: HeteroGraph, params: HgnnParams, plan: NeighborPlan, *, keep_winners: bool = True
) -> EdgeFirstCache:
    """`forward_states` with every relation transform applied to gathered
    edge rows and pooled by `segment_max_reduceat`. `keep_winners` is
    accepted so the oracle can stand in for `forward_states`, and ignored:
    the cache always holds argfirst."""
    n_layers = params.config.layers
    h = [{t: graph.features[t] for t in graph.node_types}]
    edge_pre, pooled_all, argfirst_all, upd_pre_all = [], [], [], []
    for k in range(1, n_layers + 1):
        layer_pre, layer_pooled, layer_argfirst = {}, {}, {}
        pool_sum: dict[str, np.ndarray] = {}
        for direction in graph.directions():
            dst_type, src_type = direction
            rel = rel_key(dst_type, src_type)
            csr = plan.layers[k - 1][direction]
            m = h[k - 1][src_type][csr.indices] @ params.agg_w(k, rel).T + params.agg_b(k, rel)
            pooled, argfirst = segment_max_reduceat(np.maximum(m, 0.0), csr.indptr)
            layer_pre[direction], layer_pooled[direction] = m, pooled
            layer_argfirst[direction] = argfirst
            pool_sum[dst_type] = pool_sum[dst_type] + pooled if dst_type in pool_sum else pooled
        layer_h, layer_upd_pre = {}, {}
        for t in graph.node_types:
            pre = h[k - 1][t] @ params.upd_w(k, t).T
            if t in pool_sum:
                pre = pre + pool_sum[t]
            layer_upd_pre[t] = pre
            layer_h[t] = np.maximum(pre, 0.0)
        h.append(layer_h)
        edge_pre.append(layer_pre)
        pooled_all.append(layer_pooled)
        argfirst_all.append(layer_argfirst)
        upd_pre_all.append(layer_upd_pre)
    # the library's normalization, one type at a time, then in flat-id order
    norms = {t: np.linalg.norm(h[n_layers][t], axis=1) for t in graph.node_types}
    fallback = {t: norms[t] < NORM_FLOOR for t in graph.node_types}
    z = {}
    for t in graph.node_types:
        z[t] = h[n_layers][t] / np.where(fallback[t], 1.0, norms[t])[:, None]
        z[t][fallback[t]] = np.eye(1, z[t].shape[1])
    sizes = np.cumsum([0] + [len(z[t]) for t in graph.node_types]).tolist()
    rows = {t: slice(lo, hi) for t, lo, hi in zip(graph.node_types, sizes, sizes[1:])}
    return EdgeFirstCache(
        h, edge_pre, pooled_all, argfirst_all, upd_pre_all, rows,
        *(np.concatenate([part[t] for t in graph.node_types]) for part in (norms, z, fallback)),
    )


def backward_states_add_at(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    cache: EdgeFirstCache,
    dz: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """`backward_states` over the edge rows of `forward_states_edge_first`,
    both scatters as row-wise `np.add.at`."""
    n_layers = params.config.layers
    grads = {key: np.zeros_like(val) for key, val in params.weights.items()}
    d_h = {t: np.zeros_like(cache.h[n_layers][t]) for t in graph.node_types}
    for t in graph.node_types:
        r = cache.rows[t]
        ok = ~cache.fallback[r]
        if np.any(ok):
            zt, g = cache.z[r], dz[t]
            inner = np.sum(zt[ok] * g[ok], axis=1, keepdims=True)
            d_h[t][ok] = (g[ok] - zt[ok] * inner) / cache.norms[r][ok][:, None]
    for k in range(n_layers, 0, -1):
        d_prev = {t: np.zeros_like(cache.h[k - 1][t]) for t in graph.node_types}
        d_pool: dict[str, np.ndarray] = {}
        for t in graph.node_types:
            r = d_h[t] * (cache.upd_pre[k - 1][t] > 0.0)
            grads[f"upd.W.{k}.{t}"] += r.T @ cache.h[k - 1][t]
            d_prev[t] += r @ params.upd_w(k, t)
            d_pool[t] = r
        for direction in graph.directions():
            dst_type, src_type = direction
            rel = rel_key(dst_type, src_type)
            csr = plan.layers[k - 1][direction]
            m = cache.edge_pre[k - 1][direction]
            argfirst = cache.argfirst[k - 1][direction]
            d_a = np.zeros_like(m)
            mask = argfirst >= 0
            if np.any(mask):
                np.add.at(d_a, (argfirst[mask], np.nonzero(mask)[1]), d_pool[dst_type][mask])
            d_m = d_a * (m > 0.0)
            grads[f"agg.W.{k}.{rel}"] += d_m.T @ cache.h[k - 1][src_type][csr.indices]
            grads[f"agg.b.{k}.{rel}"] += d_m.sum(axis=0)
            np.add.at(d_prev[src_type], csr.indices, d_m @ params.agg_w(k, rel))
        d_h = d_prev
    return grads


class AdamExpression:
    """`optim.Adam` as the plain array expressions its in-place step replaced."""

    def __init__(self, learning_rate=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key in sorted(params):
            g = grads[key]
            m = self._m.setdefault(key, np.zeros_like(params[key]))
            v = self._v.setdefault(key, np.zeros_like(params[key]))
            m += (1.0 - b1) * (g - m)
            v += (1.0 - b2) * (g * g - v)
            m_hat = m / (1.0 - b1**self.t)
            v_hat = v / (1.0 - b2**self.t)
            params[key] -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def query_topk_comprehension(
    index: RecIndex, query: np.ndarray, k: int, exclude=frozenset()
) -> list[tuple[str, float]]:
    """`index.query_topk` building its result one item at a time."""
    query = np.asarray(query, dtype=np.float64)
    scores = row_dots(index.vectors, np.broadcast_to(query, index.vectors.shape))
    ids = index.ids
    if exclude:
        keep = ~np.isin(ids, list(exclude))
        scores, ids = scores[keep], ids[keep]
    order = np.lexsort((ids, -scores))[:k]
    return [(str(ids[i]), float(scores[i])) for i in order]


def filtered_recommendations_full(
    recommender, users: list[str], consumed: dict[str, set[str]], max_rank: int
) -> dict[str, list[str]]:
    """`evaluate.filtered_recommendations` filtering each user's whole ranking."""
    out: dict[str, list[str]] = {}
    for u in users:
        drop = consumed.get(u, set())
        out[u] = [i for i in recommender.recommend(u) if i not in drop][:max_rank]
    return out


def scan_user_inputs(
    params: TowerParams,
    user_id: str,
    records: list[InteractionRecord],
    embeddings: NodeEmbeddingTable,
    *,
    as_of: int | None = None,
    music_vector: np.ndarray | None = None,
    demographics: dict[str, tuple[str, str]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One user's packed user-tower input `(cat, dense)`, one row each, from
    a scan of every record in `records`, where the library packs the user's
    row of the table `train-2t` built for every train user at once.

    A record counts when it is the user's, inside the `window_days` before
    `as_of` (one second after the last record by default), and not a weak
    signal while weak signals are off. The dense row is the music vector
    (zeros without one), the mean graph embedding of the counted audiobooks
    and of the streamed podcasts that have a table row, in id order (zeros
    without graph features), and `log1p` of the per-signal counts. The
    categorical row looks up the user's country and age bucket, the
    out-of-vocabulary token for both without demographics."""
    config = params.config
    if as_of is None:
        as_of = max((r.timestamp for r in records), default=0) + 1
    start = as_of - config.window_days * DAY_SECONDS
    counts = {s: 0 for s in SIGNALS}
    listened = {"audiobook": set(), "podcast": set()}
    for r in records:
        if r.user_id != user_id or r.timestamp < start or r.timestamp >= as_of:
            continue
        if r.signal in WEAK_SIGNALS and not config.use_weak_signals:
            continue
        counts[r.signal] += 1
        if r.item_type == "audiobook" or r.signal == "stream":
            listened[r.item_type].add(r.item_id)
    means = []
    for item_type in ("audiobook", "podcast"):
        ids = [i for i in sorted(listened[item_type]) if i in embeddings.index]
        if ids and config.use_hgnn_features:
            means.append(np.mean([embeddings.matrix[embeddings.index[i]] for i in ids], axis=0))
        else:
            means.append(np.zeros(embeddings.dim))
    music = np.zeros(config.music_dim) if music_vector is None else np.asarray(music_vector, float)
    country, age_bucket = (demographics or {}).get(user_id, (OOV_TOKEN, OOV_TOKEN))
    cat = [params.vocabs["country"].lookup(country), params.vocabs["age_bucket"].lookup(age_bucket)]
    dense = np.concatenate([music, *means, np.log1p([counts[s] for s in SIGNALS])])
    return np.array([cat], dtype=np.int64), dense[None, :]


def stream_counts_dense(
    rng: np.random.Generator,
    user_cluster: np.ndarray,
    item_cluster: np.ndarray,
    base_rate: float,
    affinity: float,
    n_zero: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`synth._stream_counts` as one Poisson draw over the whole user x item
    rate array, its last `n_zero` items zeroed, returned as the nonzero
    `(user, item, count)` triples."""
    match = user_cluster[:, None] == item_cluster[None, :]
    counts = rng.poisson(np.where(match, base_rate * affinity, base_rate))
    counts[:, len(item_cluster) - n_zero :] = 0
    users, items = np.nonzero(counts)
    return users, items, counts[users, items]


def draw_signal(rng: np.random.Generator, mix: dict[str, float]) -> str:
    """One signal name of `mix`, drawn by `Generator.choice` with its
    probabilities."""
    names = sorted(mix)
    probs = np.array([mix[n] for n in names])
    return names[rng.choice(len(names), p=probs / probs.sum())]


def synth_generate_loop(
    config: synth.SynthConfig, seed: int
) -> tuple[list[InteractionRecord], dict[str, CatalogItem], dict]:
    """`synth.synth_generate_with_meta` drawing one record at a time: a
    `choice` per language and genre, an `integers` call per streamed
    (user, item) and per weak signal, `choice(p=...)` per signal type, and
    one keyed sort of the record objects."""
    rng = np.random.default_rng(seed)
    horizon = config.days * DAY_SECONDS

    user_cluster = rng.integers(0, config.n_clusters, size=config.n_users)
    pod_cluster = rng.integers(0, config.n_clusters, size=config.n_podcasts)
    ab_cluster = rng.integers(0, config.n_clusters, size=config.n_audiobooks)

    centroids = rng.normal(size=(config.n_clusters, config.d_c))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    def content_for(clusters: np.ndarray) -> np.ndarray:
        return centroids[clusters] + config.content_noise * rng.normal(
            size=(len(clusters), config.d_c)
        )

    pod_content = content_for(pod_cluster)
    ab_content = content_for(ab_cluster)

    pod_ids = [f"p{i:04d}" for i in range(config.n_podcasts)]
    ab_ids = [f"a{i:04d}" for i in range(config.n_audiobooks)]

    catalog: dict[str, CatalogItem] = {}
    for ids, content, item_type in (
        (ab_ids, ab_content, "audiobook"),
        (pod_ids, pod_content, "podcast"),
    ):
        for i, item_id in enumerate(ids):
            catalog[item_id] = CatalogItem(
                item_id=item_id,
                item_type=item_type,
                content_vector=content[i],
                language=str(rng.choice(list(config.languages))),
                genre=str(rng.choice(list(config.genres))),
            )

    affinity = config.cluster_affinity
    pod_streams = synth._stream_counts(rng, user_cluster, pod_cluster, config.podcast_stream_rate, affinity, 0)
    # Designated audiobooks never get streamed, so they stay out of any
    # co-listening graph and exercise the content-only embedding path.
    ab_streams = synth._stream_counts(
        rng, user_cluster, ab_cluster, config.audiobook_stream_rate, affinity, config.n_cold_items
    )
    streamed = np.zeros((config.n_users, config.n_audiobooks), dtype=bool)
    streamed[ab_streams[0], ab_streams[1]] = True

    records: list[InteractionRecord] = []

    def emit_streams(streams: tuple, ids: list[str], item_type: str) -> dict:
        first_stream: dict[tuple[int, int], int] = {}
        for u, i, count in zip(*(a.tolist() for a in streams)):
            times = rng.integers(0, horizon, size=count)
            first_stream[(u, i)] = int(times.min())
            for t in times:
                records.append(
                    InteractionRecord(
                        user_id=f"u{u:04d}",
                        item_id=ids[i],
                        item_type=item_type,
                        signal="stream",
                        timestamp=int(t),
                    )
                )
        return first_stream

    emit_streams(pod_streams, pod_ids, "podcast")
    ab_first_stream = emit_streams(ab_streams, ab_ids, "audiobook")

    # Pre-stream weak signals: a share of first audiobook streams is preceded,
    # 1-14 days earlier, by one or more weak signals of a single type.
    for (u, i), t0 in sorted(ab_first_stream.items()):
        if rng.random() >= config.weak_signal_prob:
            continue
        signal = draw_signal(rng, synth._PRE_STREAM_SIGNAL_P)
        n_events = 1 + rng.poisson(config.weak_extra_count)
        for _ in range(n_events):
            gap = int(rng.integers(3600, 14 * DAY_SECONDS))
            records.append(
                InteractionRecord(
                    user_id=f"u{u:04d}",
                    item_id=ab_ids[i],
                    item_type="audiobook",
                    signal=signal,
                    timestamp=max(0, t0 - gap),
                )
            )

    # Abandoned weak signals on audiobooks the user never streams. Users
    # browse within their taste, so picks are cluster-affine too.
    for u in range(config.n_users):
        n_abandoned = rng.poisson(config.abandoned_rate)
        if n_abandoned == 0:
            continue
        unstreamed = np.flatnonzero(~streamed[u])
        if len(unstreamed) == 0:
            continue
        weights = np.where(
            ab_cluster[unstreamed] == user_cluster[u], config.cluster_affinity, 1.0
        )
        n_pick = min(n_abandoned, len(unstreamed))
        picks = rng.choice(
            unstreamed, size=n_pick, replace=False, p=weights / weights.sum()
        )
        for i in sorted(int(p) for p in picks):
            signal = draw_signal(rng, synth._ABANDONED_SIGNAL_P)
            n_events = 1 + rng.poisson(config.abandoned_extra_count)
            for _ in range(n_events):
                records.append(
                    InteractionRecord(
                        user_id=f"u{u:04d}",
                        item_id=ab_ids[i],
                        item_type="audiobook",
                        signal=signal,
                        timestamp=int(rng.integers(0, horizon)),
                    )
                )

    records.sort(key=lambda r: (r.timestamp, r.user_id, r.item_id, r.signal))
    meta = {
        "user_cluster": {f"u{u:04d}": int(c) for u, c in enumerate(user_cluster)},
        "item_cluster": {
            **{ab_ids[i]: int(c) for i, c in enumerate(ab_cluster)},
            **{pod_ids[i]: int(c) for i, c in enumerate(pod_cluster)},
        },
    }
    return records, catalog, meta


def save_catalog_rows(catalog: dict[str, CatalogItem], path) -> None:
    """`data.save_catalog`, one `io.canonical_json` row dict per item."""
    rows = [
        {
            "item_id": item.item_id,
            "item_type": item.item_type,
            "content_vector": [float(x) for x in item.content_vector],
            "language": item.language,
            "genre": item.genre,
        }
        for item in catalog.values()
    ]
    io.write_jsonl(rows, path)


def mrr_walk(
    recommendations: dict[str, list[str]], relevant: dict[str, set[str]], max_rank: int
) -> float:
    """`evaluate.mrr`, walking each user's top `max_rank` to their first
    relevant item."""
    users = sorted(recommendations)
    if not users:
        raise ValueError("no users to evaluate")
    values = []
    for u in users:
        rr = 0.0
        for rank, item in enumerate(recommendations[u][:max_rank], start=1):
            if item in relevant[u]:
                rr = 1.0 / rank
                break
        values.append(rr)
    return float(np.mean(values))


def train_two_tower_serial(
    pairs: list[tuple[str, str]],
    table: UserHistoryTable,
    catalog: dict,
    embeddings: NodeEmbeddingTable,
    config: TwoTowerConfig,
    seed: int,
    music_vectors: dict[str, np.ndarray] | None = None,
    demographics: dict[str, tuple[str, str]] | None = None,
) -> tuple[TowerParams, list[dict]]:
    """`two_tower.train_two_tower` with a fresh gradient dict per batch
    where the library zeroes the embedding tables' buffers of one dict kept
    across batches and writes over the dense layers'. Both step one Adam
    over both towers' weights in name order."""
    if not pairs:
        raise ValueError("no training pairs")
    item_counts: dict[str, int] = {}
    for _, item_id in pairs:
        item_counts[item_id] = item_counts.get(item_id, 0) + 1

    users = sorted({u for u, _ in pairs})
    profiles = [(demographics or {}).get(u, (OOV_TOKEN, OOV_TOKEN)) for u in users]
    items = [catalog[i] for i in sorted(catalog) if catalog[i].item_type == config.target_type]
    vocabs = {
        "country": Vocab(p[0] for p in profiles),
        "age_bucket": Vocab(p[1] for p in profiles),
        "language": Vocab(item.language for item in items),
        "genre": Vocab(item.genre for item in items),
    }
    d_c = int(items[0].content_vector.shape[0])
    params = TowerParams.init(config, vocabs, d_c, embeddings.dim, seed)
    adam = Adam(learning_rate=config.learning_rate)
    rng = np.random.default_rng(seed)

    u_cat, u_dense = user_inputs(params, table, users, music_vectors, demographics)
    item_ids, i_cat, i_dense = item_inputs(params, catalog, embeddings)
    user_row = {u: r for r, u in enumerate(users)}
    item_row = {i: r for r, i in enumerate(item_ids)}
    pair_user = np.array([user_row[u] for u, _ in pairs], dtype=np.int64)
    pair_item = np.array([item_row[i] for _, i in pairs], dtype=np.int64)
    pair_inv_freq = np.array([1.0 / item_counts[i] for _, i in pairs])
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        n_seen = 0
        skipped = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            if len(batch) < 2:
                skipped += 1
                continue
            users, items = pair_user[batch], pair_item[batch]
            w_raw = pair_inv_freq[batch]
            if np.all(w_raw == w_raw[0]):
                weights = np.ones_like(w_raw)
            else:
                weights = w_raw / w_raw.mean()

            u_cache = _tower_forward(params, "user", u_cat[users], u_dense[users])
            i_cache = _tower_forward(params, "item", i_cat[items], i_dense[items])
            loss, d_u, d_a = _batch_loss_and_douts(u_cache.out, i_cache.out, items, weights)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss in epoch {epoch}, batch {start // config.batch_size}"
                )
            grads = {k: np.zeros_like(v) for k, v in params.weights.items()}
            _tower_backward(params, "user", u_cache, d_u, grads)
            _tower_backward(params, "item", i_cache, d_a, grads)
            adam.step(params.weights, grads)
            epoch_loss += loss * len(batch)
            n_seen += len(batch)
        log.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / max(1, n_seen),
                "skipped_batches": skipped,
            }
        )
    return params, log


# ---------------------------------------------------------------------------
# Per-seed forward pass and its layers.
# ---------------------------------------------------------------------------


def incident_relations(params: HgnnParams, node_type: str) -> list[str]:
    """The relations of `params` with `node_type` at either end."""
    code = {"audiobook": "a", "podcast": "p"}[node_type]
    return [r for r in params.relations if code in r]


def src_types_for(graph: HeteroGraph, node_type: str) -> list[str]:
    return sorted(src for dst, src in graph.adj if dst == node_type)


def aggregate_relation(
    layer: int, relation: str, params: HgnnParams, neighbor_states: list[np.ndarray]
) -> np.ndarray:
    """Elementwise max over relu(W_r h + b) for each neighbor state h.

    An empty neighborhood yields the zero vector of the layer's output width.
    """
    w = params.agg_w(layer, relation)
    b = params.agg_b(layer, relation)
    if not neighbor_states:
        return np.zeros(w.shape[0])
    states = np.stack(neighbor_states)
    if states.shape[1] != w.shape[1]:
        raise ValueError(
            f"neighbor state dimension {states.shape[1]} does not match "
            f"layer {layer} input dimension {w.shape[1]}"
        )
    return np.maximum(states @ w.T + b, 0.0).max(axis=0)


def update_node(
    layer: int,
    node_type: str,
    params: HgnnParams,
    h_prev: np.ndarray,
    pooled: dict[str, np.ndarray],
) -> np.ndarray:
    """relu(W_type h_prev + sum of per-relation pooled vectors)."""
    w = params.upd_w(layer, node_type)
    total = w @ h_prev
    for rel in incident_relations(params, node_type):
        if rel not in pooled:
            raise ValueError(f"pooled vectors missing relation {rel!r} for {node_type}")
        total = total + pooled[rel]
    return np.maximum(total, 0.0)


def _normalize(h: np.ndarray) -> tuple[np.ndarray, bool]:
    norm = float(np.linalg.norm(h))
    if norm < NORM_FLOOR:
        z = np.zeros_like(h)
        z[0] = 1.0
        return z, True
    return h / norm, False


def embed_inductive(
    params: HgnnParams, node_type: str, content_vector: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Content-only embedding: every layer's update with all pools zero.

    For homogeneous parameter sets, items of the missing type are embedded
    with the single trained type's weights.
    """
    if node_type not in params.node_types:
        if len(params.node_types) == 1:
            node_type = params.node_types[0]
        else:
            raise ValueError(f"no trained weights for node type {node_type!r}")
    h = np.asarray(content_vector, dtype=np.float64)
    for k in range(1, params.config.layers + 1):
        pooled = {
            rel: np.zeros(params.agg_w(k, rel).shape[0])
            for rel in incident_relations(params, node_type)
        }
        h = update_node(k, node_type, params, h, pooled)
    return _normalize(h)


def hinge_loss(
    z_a: np.ndarray, z_p: np.ndarray, z_negs: list[np.ndarray], margin: float
) -> float:
    """Mean over negatives of max(0, z_a.z_n - z_a.z_p + margin)."""
    if len(z_negs) == 0:
        raise ValueError("hinge loss needs at least one negative")
    s_pos = float(z_a @ z_p)
    terms = [max(0.0, float(z_a @ z_n) - s_pos + margin) for z_n in z_negs]
    return float(np.mean(terms))


def in_batch_loss(
    o_u: np.ndarray,
    o_a: np.ndarray,
    batch_items: list[tuple[np.ndarray, float]],
) -> float:
    """Weighted mean over in-batch negatives of (o_u.o_n - o_u.o_a).

    Callers normalize the weights to mean one over the batch.
    """
    if not batch_items:
        raise ValueError("in-batch loss needs at least one negative")
    s_pos = float(o_u @ o_a)
    terms = [w * (float(o_u @ o_n) - s_pos) for o_n, w in batch_items]
    return float(np.mean(terms))


@dataclass
class SampledNeighborhood:
    """Per layer, the sampled neighbor lists for every node whose state at that
    layer feeds the seed's output."""

    seed: str
    seed_ref: NodeRef
    layers: list[dict[NodeRef, dict[str, np.ndarray]]]


def sample_neighborhood(
    graph: HeteroGraph,
    node: str,
    fanouts: tuple[int, ...],
    rng: np.random.Generator,
) -> SampledNeighborhood:
    """Uniform without-replacement neighbor sample rooted at `node`, one list
    per (layer, relation), at most fanout[k] neighbors each."""
    if any(f <= 0 for f in fanouts):
        raise ValueError("fanouts must be positive")
    seed_ref = graph.node_ref(node)
    n_layers = len(fanouts)
    layers: list[dict[NodeRef, dict[str, np.ndarray]]] = [dict() for _ in range(n_layers)]
    need: set[NodeRef] = {seed_ref}
    for k in range(n_layers, 0, -1):
        layer_map: dict[NodeRef, dict[str, np.ndarray]] = {}
        next_need: set[NodeRef] = set(need)
        for ref in sorted(need):
            node_type, idx = ref
            per_src: dict[str, np.ndarray] = {}
            for src in src_types_for(graph, node_type):
                sample = sample_neighbors(graph.adj[(node_type, src)], idx, fanouts[k - 1], rng)
                per_src[src] = sample
                next_need.update((src, int(j)) for j in sample)
            layer_map[ref] = per_src
        layers[k - 1] = layer_map
        need = next_need
    return SampledNeighborhood(seed=node, seed_ref=seed_ref, layers=layers)


def forward(
    graph: HeteroGraph,
    params: HgnnParams,
    neighborhoods: list[SampledNeighborhood],
) -> dict[str, np.ndarray]:
    """Sampled forward pass for each seed; returns unit-norm output vectors
    keyed by item id. Near-zero final states fall back to the first basis
    vector."""
    out: dict[str, np.ndarray] = {}
    for nb in neighborhoods:
        memo: dict[tuple[NodeRef, int], np.ndarray] = {}

        def h_of(ref: NodeRef, k: int) -> np.ndarray:
            if k == 0:
                node_type, idx = ref
                return graph.features[node_type][idx]
            cached = memo.get((ref, k))
            if cached is not None:
                return cached
            node_type, idx = ref
            pooled: dict[str, np.ndarray] = {}
            samples = nb.layers[k - 1].get(ref, {})
            for rel in incident_relations(params, node_type):
                other = [t for t in rel_types(rel) if t != node_type] or [node_type]
                src = other[0]
                neigh = samples.get(src, np.zeros(0, dtype=np.int64))
                states = [h_of((src, int(j)), k - 1) for j in neigh]
                pooled[rel] = aggregate_relation(k, rel, params, states)
            h = update_node(k, node_type, params, h_of(ref, k - 1), pooled)
            memo[(ref, k)] = h
            return h

        out[nb.seed] = _normalize(h_of(nb.seed_ref, params.config.layers))[0]
    return out


_KEY_OF_FILE = {file: key for key, file in ARTIFACTS.items()}


def _configured(config: PipelineConfig, key: str) -> tuple[str, str | None]:
    """The config field that may name input `key` from outside the chain, and its value."""
    section = "eval" if key == "ablation_manifest" else "paths"
    return f"{section}.{key}", getattr(getattr(config, section), key, None)


def current_inputs(spec: Stage, config: PipelineConfig, out_dir: Path) -> tuple[dict, dict]:
    """`pipeline._current_inputs`, asking `_configured` about every input of
    every manifest it reads."""
    hashed = bool(spec.outputs)
    manifest_dir = out_dir / "manifests"
    manifests: dict[str, dict] = {}
    current: set[str] = set()

    def manifest(stage: str, name: str) -> dict:
        if stage not in manifests:
            try:
                manifests[stage] = io.read_json(manifest_dir / f"{stage}.json")
            except FileNotFoundError:
                raise PipelineError(
                    f"missing manifest '{stage}.json' for {name!r}: run the {stage!r} stage first"
                ) from None
        return manifests[stage]

    def check_upstream(stage: str, name: str) -> None:
        if stage in current:
            return
        for read, digest in manifest(stage, name).get("inputs", {}).items():
            key = _KEY_OF_FILE.get(read)
            if key not in _PRODUCER or _configured(config, key)[1]:
                continue
            source = _PRODUCER[key]
            if manifest(source, read).get("outputs", {}).get(read) != digest:
                raise _stale(
                    name, stage, f"the {stage!r} stage read a {read!r} that {source!r} has rewritten since"
                )
            check_upstream(source, name)
        current.add(stage)

    files: dict[str, Path] = {}
    digests: dict[str, str] = {}
    for key in spec.inputs + spec.optional:
        field_name, configured = _configured(config, key)
        if configured:
            path = Path(configured)
            if not path.exists():
                raise PipelineError(f"configured {field_name} does not exist: {path}")
            files[key] = path
            if hashed:
                digests[path.name] = io.sha256_file(path)
            continue
        if key not in _PRODUCER:
            continue
        path = out_dir / ARTIFACTS[key]
        source = _PRODUCER[key]
        if not path.exists():
            if key in spec.optional:
                continue
            raise PipelineError(f"missing artifact {path.name!r}: run the {source!r} stage first")
        recorded = manifest(source, path.name).get("outputs", {}).get(path.name)
        digest = io.sha256_file(path) if hashed else recorded
        if recorded is None or digest != recorded:
            raise _stale(path.name, source, f"it changed after the {source!r} stage wrote it")
        check_upstream(source, path.name)
        files[key] = path
        digests[path.name] = digest
    return files, digests


def parse_line(line: str) -> InteractionRecord | str:
    """One stripped, non-blank line: the record, or why it is skipped."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON: {exc.msg}"
    except RecursionError:
        return io.TOO_DEEP
    if not isinstance(obj, dict):
        return "record is not an object"
    problem = _check_interaction(obj)
    if problem is not None:
        return problem
    return InteractionRecord(
        user_id=obj["user_id"],
        item_id=obj["item_id"],
        item_type=obj["item_type"],
        signal=obj["signal"],
        timestamp=int(obj["timestamp"]),
    )


def parse_interactions_lines(path) -> ParsedInteractions:
    """`data.parse_interactions`, one `json.loads` and one check per line."""
    records: list[InteractionRecord] = []
    diagnostics: list[ParseDiagnostic] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parsed = parse_line(line)
                if isinstance(parsed, str):
                    diagnostics.append(ParseDiagnostic(line_no, parsed))
                else:
                    records.append(parsed)
    except UnicodeDecodeError as exc:
        raise io.not_utf8(path) from exc
    return ParsedInteractions(records, diagnostics)


def read_jsonl_lines(path, required: tuple[str, ...] = (), parse: Callable | None = None) -> list:
    """`io.read_jsonl`, one `json.loads` per line."""
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                    if not isinstance(obj, dict):
                        raise ValueError("record is not an object")
                    for key in required:
                        if key not in obj:
                            raise ValueError(f"missing key {key!r}")
                    out.append(obj if parse is None else parse(obj, line_no))
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from exc
                except RecursionError as exc:
                    raise ValueError(f"{path}:{line_no}: {io.TOO_DEEP}") from exc
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise io.not_utf8(path) from exc
    return out


def catalog_text(obj: dict, key: str) -> str:
    value = obj[key]
    if type(value) is not str or value == "":
        raise ValueError(f"{key} must be a non-empty string, got {value!r}")
    return value


def catalog_vector(value) -> np.ndarray:
    """A content vector checked element by element: a flat, non-empty list
    of ints and floats (not bools), each finite as a float."""
    if type(value) is not list or len(value) == 0:
        raise ValueError(f"content_vector is not a float array: got {value!r}")
    for x in value:
        if type(x) is list:
            raise ValueError("content_vector is not a flat array")
    for x in value:
        if type(x) is not int and type(x) is not float:
            raise ValueError(f"content_vector is not a float array: could not convert {x!r} to a number")
    floats = []
    for x in value:
        try:
            f = float(x)
        except OverflowError:
            f = math.inf
        if not math.isfinite(f):
            raise ValueError("content_vector is not a flat array of finite numbers")
        floats.append(f)
    return np.array(floats, dtype=np.float64)


def parse_catalog_lines(path) -> dict[str, CatalogItem]:
    """`data.parse_catalog`, one `json.loads` per line and each field
    checked in plain Python."""
    items: dict[str, CatalogItem] = {}
    line_of: dict[str, int] = {}
    dim = None

    def parse(obj: dict, line_no: int) -> CatalogItem:
        nonlocal dim
        item_id = catalog_text(obj, "item_id")
        if "\x00" in item_id:
            raise ValueError(f"item_id {item_id!r} holds a NUL character")
        if item_id in line_of:
            raise ValueError(f"duplicate item_id {item_id!r} (lines {line_of[item_id]} and {line_no})")
        if obj["item_type"] not in ("audiobook", "podcast"):
            raise ValueError(f"unknown item_type {obj['item_type']!r}")
        vector = catalog_vector(obj["content_vector"])
        if dim is None:
            dim = len(vector)
        if len(vector) != dim:
            raise ValueError(f"content_vector dimension {len(vector)} does not match earlier dimension {dim}")
        line_of[item_id] = line_no
        return CatalogItem(
            item_id, obj["item_type"], vector, catalog_text(obj, "language"), catalog_text(obj, "genre")
        )

    for item in read_jsonl_lines(path, ("item_id", "item_type", "content_vector", "language", "genre"), parse):
        items[item.item_id] = item
    return items


def build_colisten_graph_loop(
    train: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    min_co_users: int = 1,
    relations: tuple[str, ...] = REL_KEYS,
) -> HeteroGraph:
    """`graph.build_colisten_graph`, counting each user's item pairs in a
    dict. It checks no argument the library refuses."""
    relations = tuple(sorted(relations))
    included_types = _types_for_relations(relations)

    user_items: dict[str, set[str]] = {}
    for rec in train:
        if rec.item_id not in catalog:
            raise ValueError(
                f"interaction references item {rec.item_id!r} absent from the catalog "
                f"(user {rec.user_id!r}, t={rec.timestamp})"
            )
        if rec.signal != "stream":
            continue
        if catalog[rec.item_id].item_type not in included_types:
            continue
        user_items.setdefault(rec.user_id, set()).add(rec.item_id)

    node_ids: dict[str, list[str]] = {t: [] for t in included_types}
    seen: set[str] = set()
    for items in user_items.values():
        seen.update(items)
    for item_id in sorted(seen):
        node_ids[catalog[item_id].item_type].append(item_id)

    node_index = {
        t: {item_id: i for i, item_id in enumerate(ids)} for t, ids in node_ids.items()
    }

    # Distinct supporting users per unordered item pair.
    support: dict[tuple[str, str, str], int] = {}
    for items in user_items.values():
        ordered = sorted(items)
        for i, id1 in enumerate(ordered):
            t1 = catalog[id1].item_type
            for id2 in ordered[i + 1 :]:
                t2 = catalog[id2].item_type
                rel = rel_key(t1, t2)
                if rel not in relations:
                    continue
                if t1 == t2:
                    key = (rel, id1, id2)
                else:
                    a_id, p_id = (id1, id2) if t1 == "audiobook" else (id2, id1)
                    key = (rel, a_id, p_id)
                support[key] = support.get(key, 0) + 1

    edges: dict[str, list[tuple[int, int]]] = {rel: [] for rel in relations}
    for (rel, id1, id2), n_users in sorted(support.items()):
        if n_users < min_co_users:
            continue
        t1, t2 = rel_types(rel)
        edges[rel].append((node_index[t1][id1], node_index[t2][id2]))

    edge_arrays = {
        rel: np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
        for rel, pairs in edges.items()
    }

    adj: dict[tuple[str, str], Csr] = {}
    for rel in relations:
        t1, t2 = rel_types(rel)
        pairs = edge_arrays[rel]
        if t1 == t2:
            dst = np.concatenate([pairs[:, 0], pairs[:, 1]])
            src = np.concatenate([pairs[:, 1], pairs[:, 0]])
            adj[(t1, t1)] = _build_csr(len(node_ids[t1]), dst, src)
        else:
            adj[(t1, t2)] = _build_csr(len(node_ids[t1]), pairs[:, 0], pairs[:, 1])
            adj[(t2, t1)] = _build_csr(len(node_ids[t2]), pairs[:, 1], pairs[:, 0])

    features = {
        t: (
            np.stack([catalog[i].content_vector for i in ids])
            if ids
            else np.zeros((0, _feature_dim(catalog)))
        )
        for t, ids in node_ids.items()
    }
    return HeteroGraph(
        nodes=node_ids,
        features={t: f.astype(np.float64) for t, f in features.items()},
        adj=adj,
        edges=edge_arrays,
        relations=relations,
    )


def records_of(log: Interactions) -> list[InteractionRecord]:
    """The records whose columns `log` holds, in log order."""
    return [
        InteractionRecord(user, item, ITEM_TYPES[t], SIGNALS[s], ts)
        for user, item, t, s, ts in zip(
            log.user_ids[log.user].tolist(),
            log.item_ids[log.item].tolist(),
            log.item_type.tolist(),
            log.signal.tolist(),
            log.timestamp.tolist(),
        )
    ]


def by_user(records: list[InteractionRecord]) -> dict[str, list[InteractionRecord]]:
    """Each user's records, in log order, users in order of first record."""
    out: dict[str, list[InteractionRecord]] = {}
    for r in records:
        out.setdefault(r.user_id, []).append(r)
    return out


def window_by_user(
    records: list[InteractionRecord], window_days: int, as_of: int | None = None
) -> dict[str, list[InteractionRecord]]:
    """`Interactions.window`, as each user's records with
    `as_of - window_days days <= timestamp < as_of`, in log order. `as_of`
    defaults to one second after the last record."""
    if as_of is None:
        as_of = max((r.timestamp for r in records), default=0) + 1
    start = as_of - window_days * DAY_SECONDS
    window: dict[str, list[InteractionRecord]] = {}
    for r in records:
        if start <= r.timestamp < as_of:
            window.setdefault(r.user_id, []).append(r)
    return window


def popularity_ranking(records, item_ids, target_type: str) -> list[str]:
    """`data.popularity_ranking`: `item_ids` by their count of target-type
    streams in `records`, descending, ties by id."""
    counts = dict.fromkeys(item_ids, 0)
    for r in records:
        if r.signal == "stream" and r.item_type == target_type and r.item_id in counts:
            counts[r.item_id] += 1
    return sorted(counts, key=lambda i: (-counts[i], i))


def user_segments(split: DatasetSplit) -> UserSegments:
    """`data.user_segments` over a split of records."""
    holdout_users = {r.user_id for r in split.holdout}
    warm_pool = {r.user_id for r in split.train if r.item_type == "audiobook"}
    warm = holdout_users & warm_pool
    return UserSegments(warm=warm, cold=holdout_users - warm)


def streamed_items(records: list[InteractionRecord], target_type: str) -> dict[str, set[str]]:
    """`evaluate.streamed_items`: each user's streamed target-type items."""
    streamed: dict[str, set[str]] = {}
    for r in records:
        if r.signal == "stream" and r.item_type == target_type:
            streamed.setdefault(r.user_id, set()).add(r.item_id)
    return streamed


def build_training_pairs(
    window: dict[str, list[InteractionRecord]], target_type: str = "audiobook"
) -> list[tuple[str, str]]:
    """`two_tower.build_training_pairs`: the distinct (user, streamed target
    item) pairs of a `window_by_user` window, sorted."""
    pairs = {
        (user, r.item_id)
        for user, records in window.items()
        for r in records
        if r.signal == "stream" and r.item_type == target_type
    }
    return sorted(pairs)


def _mean_embedding(item_ids: set[str], embeddings: NodeEmbeddingTable) -> np.ndarray:
    rows = [embeddings.get(i) for i in sorted(item_ids)]
    rows = [r for r in rows if r is not None]
    if not rows:
        return np.zeros(embeddings.dim)
    return np.mean(rows, axis=0)


def user_histories_loop(
    user_ids,
    window: dict[str, list[InteractionRecord]],
    embeddings: NodeEmbeddingTable,
    config: TwoTowerConfig,
) -> UserHistoryTable:
    """`two_tower.user_histories`, one row per distinct id of `user_ids`,
    each built by a walk over that user's records in a `window_by_user`
    window."""
    ids = sorted(set(user_ids))
    table = UserHistoryTable(
        ids,
        np.zeros((len(ids), embeddings.dim)),
        np.zeros((len(ids), embeddings.dim)),
        np.zeros((len(ids), len(SIGNALS)), np.int64),
    )
    for row, user in enumerate(ids):
        ab_items: set[str] = set()
        pod_items: set[str] = set()
        counts = dict.fromkeys(SIGNALS, 0)
        for r in window.get(user, ()):
            if not config.use_weak_signals and r.signal in WEAK_SIGNALS:
                continue
            counts[r.signal] += 1
            if r.item_type == "audiobook":
                ab_items.add(r.item_id)
            elif r.item_type == "podcast" and r.signal == "stream":
                pod_items.add(r.item_id)
        table.interaction_counts[row] = list(counts.values())
        if config.use_hgnn_features:
            table.mean_audiobook_embedding[row] = _mean_embedding(ab_items, embeddings)
            table.mean_podcast_embedding[row] = _mean_embedding(pod_items, embeddings)
    return table
