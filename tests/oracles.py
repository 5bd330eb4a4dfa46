"""Reference implementations the tests compare the library against.

Each oracle computes per node or per pair, with plain loops, what the library
computes batched: the per-seed sampled forward pass against `forward_states`,
the single-node aggregate and update against its layers, the content-only
embedding against the isolated-node rows of `embed_catalog`, and the scalar
losses against the batched margin and in-batch losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from audiorec.graph import HeteroGraph, rel_types
from audiorec.hgnn import _NORM_FLOOR, HgnnParams, NodeRef, _sample_neighbors


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
    for rel in params.incident_relations(node_type):
        if rel not in pooled:
            raise ValueError(f"pooled vectors missing relation {rel!r} for {node_type}")
        total = total + pooled[rel]
    return np.maximum(total, 0.0)


def _normalize(h: np.ndarray) -> tuple[np.ndarray, bool]:
    norm = float(np.linalg.norm(h))
    if norm < _NORM_FLOOR:
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
            for rel in params.incident_relations(node_type)
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
                sample = _sample_neighbors(graph.adj[(node_type, src)], idx, fanouts[k - 1], rng)
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
            for rel in params.incident_relations(node_type):
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
