"""Typed co-listening graph over catalog items with per-relation CSR adjacency.

Two items are joined by an undirected edge when at least `min_co_users`
distinct users streamed both of them inside the training window. Relations are
typed by the endpoints: audiobook-audiobook ("aa"), audiobook-podcast ("ap"),
podcast-podcast ("pp").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CatalogItem, InteractionRecord
from .io import read_pack, write_pack

REL_KEYS = ("aa", "ap", "pp")
TYPE_CODE = {"audiobook": "a", "podcast": "p"}
CODE_TYPE = {"a": "audiobook", "p": "podcast"}


def rel_key(type_a: str, type_b: str) -> str:
    return "".join(sorted(TYPE_CODE[type_a] + TYPE_CODE[type_b]))


def rel_types(rel: str) -> tuple[str, str]:
    return CODE_TYPE[rel[0]], CODE_TYPE[rel[1]]


@dataclass
class Csr:
    indptr: np.ndarray
    indices: np.ndarray

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


@dataclass
class HeteroGraph:
    nodes: dict[str, list[str]]
    features: dict[str, np.ndarray]
    adj: dict[tuple[str, str], Csr]  # (dst_type, src_type) -> neighbors of dst
    edges: dict[str, np.ndarray]  # rel -> (E, 2) undirected index pairs
    relations: tuple[str, ...]

    def __post_init__(self):
        self.node_index = {
            t: {item_id: i for i, item_id in enumerate(ids)}
            for t, ids in self.nodes.items()
        }

    @property
    def node_types(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    def node_ref(self, item_id: str) -> tuple[str, int]:
        for t in self.node_types:
            if item_id in self.node_index[t]:
                return t, self.node_index[t][item_id]
        raise KeyError(f"{item_id!r} is not a graph node")

    def directions(self) -> list[tuple[str, str]]:
        """All (dst_type, src_type) adjacency directions, in a fixed order."""
        return sorted(self.adj)

    def all_neighbors(self, node_type: str, idx: int) -> set[tuple[str, int]]:
        out: set[tuple[str, int]] = set()
        for (dst, src), csr in self.adj.items():
            if dst == node_type:
                out.update((src, int(j)) for j in csr.neighbors(idx))
        return out


@dataclass
class GraphStats:
    node_counts: dict[str, int]
    edge_counts: dict[str, int]
    degree_summary: dict[str, dict[str, float]]


def _build_csr(n_dst: int, dst_idx: np.ndarray, src_idx: np.ndarray) -> Csr:
    if len(dst_idx) == 0:
        return Csr(np.zeros(n_dst + 1, dtype=np.int64), np.zeros(0, dtype=np.int64))
    order = np.lexsort((src_idx, dst_idx))
    dst_sorted = dst_idx[order]
    src_sorted = src_idx[order]
    counts = np.bincount(dst_sorted, minlength=n_dst)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return Csr(indptr.astype(np.int64), src_sorted.astype(np.int64))


def _types_for_relations(relations: tuple[str, ...]) -> tuple[str, ...]:
    codes = set("".join(relations))
    return tuple(sorted(CODE_TYPE[c] for c in codes))


def build_colisten_graph(
    train: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    min_co_users: int = 1,
    relations: tuple[str, ...] = REL_KEYS,
    include_all_signals: bool = False,
) -> HeteroGraph:
    """Build the co-listening graph from training interactions.

    Only stream signals create nodes and edges unless `include_all_signals`
    is set. Edges supported by fewer than `min_co_users` distinct users are
    dropped. Node ordering is lexicographic by item_id within each type.
    """
    if not train:
        raise ValueError("cannot build a graph from an empty training log")
    if min_co_users < 1:
        raise ValueError("min_co_users must be >= 1")
    relations = tuple(sorted(relations))
    for rel in relations:
        if rel not in REL_KEYS:
            raise ValueError(f"unknown relation {rel!r}")
    included_types = _types_for_relations(relations)

    user_items: dict[str, set[str]] = {}
    for rec in train:
        if rec.item_id not in catalog:
            raise ValueError(
                f"interaction references item {rec.item_id!r} absent from the catalog "
                f"(user {rec.user_id!r}, t={rec.timestamp})"
            )
        if rec.signal != "stream" and not include_all_signals:
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


def _feature_dim(catalog: dict[str, CatalogItem]) -> int:
    for item in catalog.values():
        return int(item.content_vector.shape[0])
    return 0


def graph_stats(graph: HeteroGraph) -> GraphStats:
    node_counts = {t: len(ids) for t, ids in graph.nodes.items()}
    edge_counts = {rel: int(len(pairs)) for rel, pairs in graph.edges.items()}
    degree_summary: dict[str, dict[str, float]] = {}
    for rel in graph.relations:
        t1, t2 = rel_types(rel)
        if t1 == t2:
            csr = graph.adj[(t1, t1)]
            degrees = np.diff(csr.indptr)
        else:
            degrees = np.concatenate(
                [np.diff(graph.adj[(t1, t2)].indptr), np.diff(graph.adj[(t2, t1)].indptr)]
            )
        if len(degrees) == 0:
            degree_summary[rel] = {"min": 0.0, "mean": 0.0, "max": 0.0}
        else:
            degree_summary[rel] = {
                "min": float(degrees.min()),
                "mean": float(degrees.mean()),
                "max": float(degrees.max()),
            }
    return GraphStats(node_counts, edge_counts, degree_summary)


def save_graph(graph: HeteroGraph, path) -> None:
    """Packed container: node ids and relations in the header; features,
    adjacency and edge lists as arrays."""
    arrays = {f"features.{t}": mat for t, mat in graph.features.items()}
    arrays.update({f"edges.{rel}": pairs for rel, pairs in graph.edges.items()})
    for (dst, src), csr in graph.adj.items():
        arrays[f"indptr.{dst}.{src}"] = csr.indptr
        arrays[f"indices.{dst}.{src}"] = csr.indices
    meta = {"kind": "graph", "relations": list(graph.relations), "nodes": graph.nodes}
    write_pack(path, meta, arrays)


def load_graph(path) -> HeteroGraph:
    meta, arrays = read_pack(path)
    if meta.get("kind") != "graph":
        raise ValueError(f"{path}: not a graph container")

    def group(prefix: str) -> dict[str, np.ndarray]:
        return {n[len(prefix) :]: a for n, a in arrays.items() if n.startswith(prefix)}

    indptr, indices = group("indptr."), group("indices.")
    return HeteroGraph(
        nodes={t: list(ids) for t, ids in meta["nodes"].items()},
        features=group("features."),
        adj={tuple(key.split(".")): Csr(indptr[key], indices[key]) for key in indptr},
        edges=group("edges."),
        relations=tuple(meta["relations"]),
    )
