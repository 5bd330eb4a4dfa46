"""Two-layer heterogeneous max-pool graph encoder trained with a margin
ranking loss.

Per layer, each relation transforms sampled neighbor states through its own
dense layer and pools them with an elementwise max; the node update adds the
summed relation pools to a type-specific transform of the node's own state,
and the final state is L2-normalized. Training walks relation-balanced edge
batches with uniformly resampled neighborhoods. All gradients are computed in
closed form (reverse mode) and checked against finite differences in the test
suite.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import Csr, HeteroGraph, rel_key, rel_types
from .io import dataclass_from_dict, read_pack, write_pack
from .optim import Adam

NodeRef = tuple[str, int]

_NORM_FLOOR = 1e-12


@dataclass
class HgnnConfig:
    layers: int = 2
    hidden_dim: int = 64
    out_dim: int = 64
    margin: float = 0.4
    fanouts: tuple[int, ...] = (15, 10)
    n_negatives: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 256
    max_epochs: int = 50
    patience: int = 10
    val_fraction: float = 0.1
    full_neighborhood_cap: int = 500
    balanced_sampler: bool = True
    inference_seed: int = 0

    def __post_init__(self):
        self.fanouts = tuple(self.fanouts)
        if len(self.fanouts) != self.layers:
            raise ValueError(
                f"fanouts {self.fanouts} must list one value per layer ({self.layers})"
            )
        if self.margin < 0:
            raise ValueError("margin must be >= 0")

    def layer_dims(self, feature_dim: int) -> list[int]:
        return [feature_dim] + [self.hidden_dim] * (self.layers - 1) + [self.out_dim]


def _glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_out, fan_in))


class HgnnParams:
    """Trainable state: per (layer, relation) aggregation weights and bias,
    per (layer, node type) update weights."""

    def __init__(
        self,
        config: HgnnConfig,
        feature_dim: int,
        node_types: tuple[str, ...],
        relations: tuple[str, ...],
        weights: dict[str, np.ndarray],
    ):
        self.config = config
        self.feature_dim = feature_dim
        self.node_types = tuple(sorted(node_types))
        self.relations = tuple(sorted(relations))
        self.weights = weights

    @classmethod
    def init(
        cls,
        config: HgnnConfig,
        feature_dim: int,
        node_types: tuple[str, ...],
        relations: tuple[str, ...],
        seed: int,
    ) -> "HgnnParams":
        rng = np.random.default_rng(seed)
        dims = config.layer_dims(feature_dim)
        weights: dict[str, np.ndarray] = {}
        for k in range(1, config.layers + 1):
            d_in, d_out = dims[k - 1], dims[k]
            for rel in sorted(relations):
                weights[f"agg.W.{k}.{rel}"] = _glorot(rng, d_out, d_in)
                weights[f"agg.b.{k}.{rel}"] = np.zeros(d_out)
            for t in sorted(node_types):
                weights[f"upd.W.{k}.{t}"] = _glorot(rng, d_out, d_in)
        return cls(config, feature_dim, tuple(node_types), tuple(relations), weights)

    def agg_w(self, layer: int, rel: str) -> np.ndarray:
        return self.weights[f"agg.W.{layer}.{rel}"]

    def agg_b(self, layer: int, rel: str) -> np.ndarray:
        return self.weights[f"agg.b.{layer}.{rel}"]

    def upd_w(self, layer: int, node_type: str) -> np.ndarray:
        return self.weights[f"upd.W.{layer}.{node_type}"]

    def incident_relations(self, node_type: str) -> list[str]:
        code = {"audiobook": "a", "podcast": "p"}[node_type]
        return [r for r in self.relations if code in r]

    def copy(self) -> "HgnnParams":
        return HgnnParams(
            self.config,
            self.feature_dim,
            self.node_types,
            self.relations,
            {k: v.copy() for k, v in self.weights.items()},
        )

    def checksum(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.weights):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.weights[key]).tobytes())
        return h.hexdigest()

    def save(self, path) -> None:
        meta = {
            "kind": "hgnn_params",
            "feature_dim": self.feature_dim,
            "node_types": list(self.node_types),
            "relations": list(self.relations),
            "config": asdict(self.config),
        }
        write_pack(path, meta, self.weights)

    @classmethod
    def load(cls, path) -> "HgnnParams":
        meta, arrays = read_pack(path)
        if meta.get("kind") != "hgnn_params":
            raise ValueError(f"{path}: not an hgnn parameter checkpoint")
        config = dataclass_from_dict(HgnnConfig, meta["config"], "hgnn")
        return cls(
            config,
            int(meta["feature_dim"]),
            tuple(meta["node_types"]),
            tuple(meta["relations"]),
            arrays,
        )


# ---------------------------------------------------------------------------
# Neighbor sampling.
# ---------------------------------------------------------------------------


def _sample_neighbors(
    csr: Csr, idx: int, fanout: int, rng: np.random.Generator
) -> np.ndarray:
    neigh = csr.neighbors(idx)
    if len(neigh) <= fanout:
        return neigh.copy()
    pick = rng.choice(len(neigh), size=fanout, replace=False)
    return np.sort(neigh[pick])


@dataclass
class NeighborPlan:
    """Per layer, per (dst_type, src_type): CSR of the neighbors used."""

    layers: list[dict[tuple[str, str], Csr]]


def sample_plan(
    graph: HeteroGraph, fanouts: tuple[int, ...], rng: np.random.Generator
) -> NeighborPlan:
    """Fresh uniform neighbor sample for every node, per layer and relation."""
    layers = []
    for fanout in fanouts:
        per_layer: dict[tuple[str, str], Csr] = {}
        for direction in graph.directions():
            csr = graph.adj[direction]
            dst_type, _ = direction
            n_dst = len(graph.nodes[dst_type])
            degrees = np.diff(csr.indptr)
            if np.all(degrees <= fanout):
                per_layer[direction] = csr
                continue
            chunks = []
            indptr = [0]
            for i in range(n_dst):
                chunks.append(_sample_neighbors(csr, i, fanout, rng))
                indptr.append(indptr[-1] + len(chunks[-1]))
            indices = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            per_layer[direction] = Csr(np.array(indptr, dtype=np.int64), indices.astype(np.int64))
        layers.append(per_layer)
    return NeighborPlan(layers)


def _inference_plan(graph: HeteroGraph, cfg: HgnnConfig) -> NeighborPlan:
    """Full neighborhoods, deterministically subsampled past the cap; every
    layer shares the one draw."""
    rng = np.random.default_rng(cfg.inference_seed)
    layer = sample_plan(graph, (cfg.full_neighborhood_cap,), rng).layers[0]
    return NeighborPlan([layer] * cfg.layers)


# ---------------------------------------------------------------------------
# Batched forward/backward over a shared per-iteration neighbor plan.
# ---------------------------------------------------------------------------


def _segment_max(values: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment elementwise max with the first achieving row index.

    Empty segments pool to zero and get argfirst -1.
    """
    n = len(indptr) - 1
    d = values.shape[1]
    pooled = np.zeros((n, d))
    argfirst = np.full((n, d), -1, dtype=np.int64)
    if values.shape[0] == 0:
        return pooled, argfirst
    seg_len = np.diff(indptr)
    nz = np.flatnonzero(seg_len > 0)
    if len(nz) == 0:
        return pooled, argfirst
    starts = indptr[nz]
    pooled[nz] = np.maximum.reduceat(values, starts, axis=0)
    seg_of_row = np.repeat(np.arange(n), seg_len)
    sentinel = values.shape[0]
    candidates = np.where(
        values == pooled[seg_of_row],
        np.arange(values.shape[0])[:, None],
        sentinel,
    )
    argfirst[nz] = np.minimum.reduceat(candidates, starts, axis=0)
    return pooled, argfirst


@dataclass
class ForwardCache:
    h: list[dict[str, np.ndarray]]
    edge_pre: list[dict[tuple[str, str], np.ndarray]]
    pooled: list[dict[tuple[str, str], np.ndarray]]
    argfirst: list[dict[tuple[str, str], np.ndarray]]
    upd_pre: list[dict[str, np.ndarray]]
    norms: dict[str, np.ndarray]
    z: dict[str, np.ndarray]
    fallback: dict[str, np.ndarray]


def forward_states(graph: HeteroGraph, params: HgnnParams, plan: NeighborPlan) -> ForwardCache:
    """Compute all node states through every layer of the plan."""
    n_layers = params.config.layers
    h: list[dict[str, np.ndarray]] = [
        {t: graph.features[t] for t in graph.node_types}
    ]
    edge_pre: list[dict] = []
    pooled_all: list[dict] = []
    argfirst_all: list[dict] = []
    upd_pre_all: list[dict] = []
    for k in range(1, n_layers + 1):
        layer_edges: dict[tuple[str, str], np.ndarray] = {}
        layer_pooled: dict[tuple[str, str], np.ndarray] = {}
        layer_argfirst: dict[tuple[str, str], np.ndarray] = {}
        pool_sum: dict[str, np.ndarray] = {}
        for direction in graph.directions():
            dst_type, src_type = direction
            rel = rel_key(dst_type, src_type)
            csr = plan.layers[k - 1][direction]
            w = params.agg_w(k, rel)
            b = params.agg_b(k, rel)
            m = h[k - 1][src_type][csr.indices] @ w.T + b
            a = np.maximum(m, 0.0)
            pooled, argfirst = _segment_max(a, csr.indptr)
            layer_edges[direction] = m
            layer_pooled[direction] = pooled
            layer_argfirst[direction] = argfirst
            if dst_type in pool_sum:
                pool_sum[dst_type] = pool_sum[dst_type] + pooled
            else:
                pool_sum[dst_type] = pooled
        layer_h: dict[str, np.ndarray] = {}
        layer_upd_pre: dict[str, np.ndarray] = {}
        for t in graph.node_types:
            w = params.upd_w(k, t)
            pre = h[k - 1][t] @ w.T
            if t in pool_sum:
                pre = pre + pool_sum[t]
            layer_upd_pre[t] = pre
            layer_h[t] = np.maximum(pre, 0.0)
        h.append(layer_h)
        edge_pre.append(layer_edges)
        pooled_all.append(layer_pooled)
        argfirst_all.append(layer_argfirst)
        upd_pre_all.append(layer_upd_pre)

    norms: dict[str, np.ndarray] = {}
    z: dict[str, np.ndarray] = {}
    fallback: dict[str, np.ndarray] = {}
    for t in graph.node_types:
        hf = h[n_layers][t]
        n = np.linalg.norm(hf, axis=1)
        bad = n < _NORM_FLOOR
        safe = np.where(bad, 1.0, n)
        zt = hf / safe[:, None]
        if np.any(bad):
            zt[bad] = 0.0
            zt[bad, 0] = 1.0
        norms[t] = n
        z[t] = zt
        fallback[t] = bad
    return ForwardCache(h, edge_pre, pooled_all, argfirst_all, upd_pre_all, norms, z, fallback)


def margin_batch_loss(
    cache: ForwardCache,
    pairs: list[tuple[NodeRef, NodeRef]],
    negatives: list[list[NodeRef]],
    margin: float,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean over (anchor, positive) pairs of the per-pair hinge loss, plus the
    gradient with respect to every node's output vector."""
    z = cache.z
    dz = {t: np.zeros_like(mat) for t, mat in z.items()}
    n_pairs = len(pairs)
    total = 0.0
    for (a_ref, p_ref), negs in zip(pairs, negatives):
        za = z[a_ref[0]][a_ref[1]]
        zp = z[p_ref[0]][p_ref[1]]
        s_pos = za @ zp
        coef = 1.0 / (n_pairs * len(negs))
        d_za = np.zeros_like(za)
        d_sum = 0.0
        for n_ref in negs:
            zn = z[n_ref[0]][n_ref[1]]
            term = zn @ za - s_pos + margin
            if term > 0.0:
                total += term / len(negs)
                d_za += coef * (zn - zp)
                dz[n_ref[0]][n_ref[1]] += coef * za
                d_sum += coef
        dz[a_ref[0]][a_ref[1]] += d_za
        dz[p_ref[0]][p_ref[1]] += -d_sum * za if d_sum else 0.0
    return total / n_pairs, dz


def backward_states(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    cache: ForwardCache,
    dz: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss given d(loss)/d(z)."""
    n_layers = params.config.layers
    grads = {key: np.zeros_like(val) for key, val in params.weights.items()}

    d_h = {t: np.zeros_like(cache.h[n_layers][t]) for t in graph.node_types}
    for t in graph.node_types:
        hf = cache.h[n_layers][t]
        n = cache.norms[t]
        zt = cache.z[t]
        g = dz[t]
        ok = ~cache.fallback[t]
        if np.any(ok):
            inner = np.sum(zt[ok] * g[ok], axis=1, keepdims=True)
            d_h[t][ok] = (g[ok] - zt[ok] * inner) / n[ok][:, None]

    for k in range(n_layers, 0, -1):
        d_prev = {t: np.zeros_like(cache.h[k - 1][t]) for t in graph.node_types}
        d_pool: dict[str, np.ndarray] = {}
        for t in graph.node_types:
            r = d_h[t] * (cache.upd_pre[k - 1][t] > 0.0)
            w = params.upd_w(k, t)
            grads[f"upd.W.{k}.{t}"] += r.T @ cache.h[k - 1][t]
            d_prev[t] += r @ w
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
                rows = argfirst[mask]
                cols = np.nonzero(mask)[1]
                np.add.at(d_a, (rows, cols), d_pool[dst_type][mask])
            d_m = d_a * (m > 0.0)
            w = params.agg_w(k, rel)
            grads[f"agg.W.{k}.{rel}"] += d_m.T @ cache.h[k - 1][src_type][csr.indices]
            grads[f"agg.b.{k}.{rel}"] += d_m.sum(axis=0)
            np.add.at(d_prev[src_type], csr.indices, d_m @ w)
        d_h = d_prev
    return grads


def batch_loss(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    pairs: list[tuple[NodeRef, NodeRef]],
    negatives: list[list[NodeRef]],
) -> float:
    cache = forward_states(graph, params, plan)
    loss, _ = margin_batch_loss(cache, pairs, negatives, params.config.margin)
    return loss


def batch_loss_and_grads(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    pairs: list[tuple[NodeRef, NodeRef]],
    negatives: list[list[NodeRef]],
) -> tuple[float, dict[str, np.ndarray]]:
    cache = forward_states(graph, params, plan)
    loss, dz = margin_batch_loss(cache, pairs, negatives, params.config.margin)
    grads = backward_states(graph, params, plan, cache, dz)
    return loss, grads


# ---------------------------------------------------------------------------
# Edge and negative samplers.
# ---------------------------------------------------------------------------


def balanced_edge_sample(
    graph: HeteroGraph,
    rng: np.random.Generator,
    edge_pool: dict[str, np.ndarray] | None = None,
) -> list[tuple[str, int, int]]:
    """Undersample every nonzero relation down to the smallest nonzero count.

    Returns (relation, i, j) triples; the sample is uniform without
    replacement within each relation and fresh per call.
    """
    pool = graph.edges if edge_pool is None else edge_pool
    counts = {rel: len(pairs) for rel, pairs in pool.items()}
    nonzero = {rel: c for rel, c in counts.items() if c > 0}
    if not nonzero:
        raise ValueError("graph has no edges to sample")
    n = min(nonzero.values())
    out: list[tuple[str, int, int]] = []
    for rel in sorted(nonzero):
        pairs = pool[rel]
        pick = rng.choice(len(pairs), size=n, replace=False)
        for e in sorted(int(x) for x in pick):
            out.append((rel, int(pairs[e, 0]), int(pairs[e, 1])))
    return out


def sample_negatives(
    graph: HeteroGraph,
    anchor: str | NodeRef,
    n_neg: int,
    rng: np.random.Generator,
) -> list[str]:
    """Uniform draws (with replacement) over all nodes, rejecting the anchor
    and its direct neighbors."""
    refs = _sample_negative_refs(graph, anchor, n_neg, rng)
    return [graph.nodes[t][i] for t, i in refs]


def _flat_node_list(graph: HeteroGraph) -> list[NodeRef]:
    cached = getattr(graph, "_flat_node_refs", None)
    if cached is None:
        cached = [
            (t, i) for t in graph.node_types for i in range(len(graph.nodes[t]))
        ]
        graph._flat_node_refs = cached
    return cached


def _sample_negative_refs(
    graph: HeteroGraph,
    anchor: str | NodeRef,
    n_neg: int,
    rng: np.random.Generator,
) -> list[NodeRef]:
    anchor_ref = graph.node_ref(anchor) if isinstance(anchor, str) else anchor
    excluded = graph.all_neighbors(*anchor_ref)
    excluded.add(anchor_ref)
    flat = _flat_node_list(graph)
    if len(flat) - len(excluded) < 1:
        raise RuntimeError(
            f"no negative candidates for anchor {anchor_ref}: graph too dense"
        )
    out: list[NodeRef] = []
    draws = 0
    limit = 1000 * n_neg
    while len(out) < n_neg:
        budget = min(limit - draws, max(n_neg, 32))
        if budget <= 0:
            raise RuntimeError(
                f"negative sampling for anchor {anchor_ref} exceeded {limit} draws"
            )
        for c in rng.integers(0, len(flat), size=budget):
            draws += 1
            ref = flat[int(c)]
            if ref not in excluded:
                out.append(ref)
                if len(out) == n_neg:
                    break
    return out


# ---------------------------------------------------------------------------
# Embedding tables and training.
# ---------------------------------------------------------------------------


@dataclass
class NodeEmbeddingTable:
    item_ids: list[str]
    node_types: list[str]
    matrix: np.ndarray
    inductive: np.ndarray
    fallback: np.ndarray
    index: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.index = {item_id: i for i, item_id in enumerate(self.item_ids)}

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def get(self, item_id: str) -> np.ndarray | None:
        i = self.index.get(item_id)
        return None if i is None else self.matrix[i]

    def save(self, path) -> None:
        from .io import write_jsonl

        rows = [
            {
                "item_id": self.item_ids[i],
                "node_type": self.node_types[i],
                "vector": [float(x) for x in self.matrix[i]],
                "inductive": bool(self.inductive[i]),
                "fallback": bool(self.fallback[i]),
            }
            for i in range(len(self.item_ids))
        ]
        write_jsonl(rows, path)

    @classmethod
    def load(cls, path) -> "NodeEmbeddingTable":
        from .io import read_jsonl

        rows = read_jsonl(path)
        if not rows:
            raise ValueError(f"{path}: empty embedding table")
        return cls(
            item_ids=[r["item_id"] for r in rows],
            node_types=[r["node_type"] for r in rows],
            matrix=np.array([r["vector"] for r in rows], dtype=np.float64),
            inductive=np.array([r["inductive"] for r in rows], dtype=bool),
            fallback=np.array([r["fallback"] for r in rows], dtype=bool),
        )


def embed_all(graph: HeteroGraph, params: HgnnParams) -> NodeEmbeddingTable:
    """Embed every graph node: full neighborhoods up to the configured cap,
    deterministically subsampled past it."""
    cache = forward_states(graph, params, _inference_plan(graph, params.config))
    ids: list[str] = []
    types: list[str] = []
    mats: list[np.ndarray] = []
    flags: list[np.ndarray] = []
    for t in graph.node_types:
        ids.extend(graph.nodes[t])
        types.extend([t] * len(graph.nodes[t]))
        mats.append(cache.z[t])
        flags.append(cache.fallback[t])
    return NodeEmbeddingTable(
        item_ids=ids,
        node_types=types,
        matrix=np.concatenate(mats) if mats else np.zeros((0, params.config.out_dim)),
        inductive=np.zeros(len(ids), dtype=bool),
        fallback=np.concatenate(flags) if flags else np.zeros(0, dtype=bool),
    )


def embed_catalog(
    graph: HeteroGraph, params: HgnnParams, catalog: dict
) -> NodeEmbeddingTable:
    """Graph-node embeddings plus content-only embeddings for catalog items
    absent from the graph.

    The content-only rows come from one forward pass over the missing items as
    isolated nodes, so each is the node update applied to its content vector
    alone. Items are typed by the update weights they use: with homogeneous
    parameters, items of the missing type use the single trained type's
    weights (the feature space is shared).
    """
    table = embed_all(graph, params)
    homogeneous = len(params.node_types) == 1
    weight_type = {
        item_id: params.node_types[0] if homogeneous else item.item_type
        for item_id, item in sorted(catalog.items())
        if item_id not in table.index and (homogeneous or item.item_type in params.node_types)
    }
    if not weight_type:
        return table
    nodes = {
        t: [i for i, wt in weight_type.items() if wt == t]
        for t in sorted(set(weight_type.values()))
    }
    isolated = HeteroGraph(
        nodes=nodes,
        features={
            t: np.array([catalog[i].content_vector for i in ids], dtype=np.float64)
            for t, ids in nodes.items()
        },
        adj={},
        edges={},
        relations=(),
    )
    cache = forward_states(isolated, params, NeighborPlan([{}] * params.config.layers))
    refs = [isolated.node_ref(i) for i in weight_type]
    return NodeEmbeddingTable(
        item_ids=table.item_ids + list(weight_type),
        node_types=table.node_types + [catalog[i].item_type for i in weight_type],
        matrix=np.concatenate([table.matrix, np.stack([cache.z[t][j] for t, j in refs])]),
        inductive=np.concatenate([table.inductive, np.ones(len(refs), dtype=bool)]),
        fallback=np.concatenate([table.fallback, [cache.fallback[t][j] for t, j in refs]]),
    )


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    wall_time: float
    sampled_edges: dict[str, int]


@dataclass
class HgnnTrainResult:
    params: HgnnParams
    log: list[EpochLog]


def _edge_pairs(rel: str, i: int, j: int, graph: HeteroGraph) -> tuple[NodeRef, NodeRef]:
    t1, t2 = rel_types(rel)
    return (t1, i), (t2, j)


def _split_validation_edges(
    graph: HeteroGraph, val_fraction: float, rng: np.random.Generator
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    train_pool: dict[str, np.ndarray] = {}
    val_pool: dict[str, np.ndarray] = {}
    for rel in sorted(graph.edges):
        pairs = graph.edges[rel]
        n = len(pairs)
        n_val = int(np.floor(val_fraction * n))
        perm = rng.permutation(n)
        val_pool[rel] = pairs[np.sort(perm[:n_val])]
        train_pool[rel] = pairs[np.sort(perm[n_val:])]
    return train_pool, val_pool


def train_hgnn(graph: HeteroGraph, params: HgnnParams, seed: int) -> HgnnTrainResult:
    """Optimize the margin ranking loss over relation-balanced edge batches.

    Each epoch redraws the balanced edge sample and every batch redraws its
    neighbor plan and negatives. The best parameters by validation loss are
    kept; training stops after `patience` epochs without improvement.
    """
    cfg = params.config
    rng = np.random.default_rng(seed)
    train_pool, val_pool = _split_validation_edges(graph, cfg.val_fraction, rng)
    if all(len(p) == 0 for p in train_pool.values()):
        raise ValueError("no training edges after validation split")

    # Fixed balanced validation set with fixed negatives, comparable across epochs.
    val_counts = {rel: len(p) for rel, p in val_pool.items() if len(p) > 0}
    val_pairs: list[tuple[NodeRef, NodeRef]] = []
    val_negs: list[list[NodeRef]] = []
    if val_counts:
        for rel, i, j in balanced_edge_sample(graph, rng, edge_pool=val_pool):
            a, b = _edge_pairs(rel, i, j, graph)
            for anchor, pos in ((a, b), (b, a)):
                val_pairs.append((anchor, pos))
                val_negs.append(_sample_negative_refs(graph, anchor, cfg.n_negatives, rng))
    val_plan = _inference_plan(graph, cfg)

    adam = Adam(learning_rate=cfg.learning_rate)
    best = params.copy()
    best_val = np.inf
    epochs_since_best = 0
    log: list[EpochLog] = []

    for epoch in range(1, cfg.max_epochs + 1):
        t_start = time.perf_counter()
        if cfg.balanced_sampler:
            epoch_edges = balanced_edge_sample(graph, rng, edge_pool=train_pool)
        else:
            epoch_edges = [
                (rel, int(p[0]), int(p[1]))
                for rel in sorted(train_pool)
                for p in train_pool[rel]
            ]
        sampled_counts: dict[str, int] = {}
        for rel, _, _ in epoch_edges:
            sampled_counts[rel] = sampled_counts.get(rel, 0) + 1
        order = rng.permutation(len(epoch_edges))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [epoch_edges[int(e)] for e in order[start : start + cfg.batch_size]]
            pairs: list[tuple[NodeRef, NodeRef]] = []
            negs: list[list[NodeRef]] = []
            for rel, i, j in batch:
                a, b = _edge_pairs(rel, i, j, graph)
                for anchor, pos in ((a, b), (b, a)):
                    pairs.append((anchor, pos))
                    negs.append(_sample_negative_refs(graph, anchor, cfg.n_negatives, rng))
            plan = sample_plan(graph, cfg.fanouts, rng)
            loss, grads = batch_loss_and_grads(graph, params, plan, pairs, negs)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss in epoch {epoch}, batch {n_batches}"
                )
            adam.step(params.weights, grads)
            epoch_loss += loss * len(pairs)
            n_batches += 1
        epoch_loss /= max(1, 2 * len(epoch_edges))

        if val_pairs:
            val_loss = batch_loss(graph, params, val_plan, val_pairs, val_negs)
        else:
            val_loss = epoch_loss
        log.append(
            EpochLog(
                epoch=epoch,
                train_loss=float(epoch_loss),
                val_loss=float(val_loss),
                wall_time=time.perf_counter() - t_start,
                sampled_edges=sampled_counts,
            )
        )
        if val_loss < best_val:
            best_val = val_loss
            best = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= cfg.patience:
                break

    return HgnnTrainResult(params=best, log=log)
