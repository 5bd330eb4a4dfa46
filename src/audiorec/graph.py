"""Typed co-listening graph over catalog items with per-relation CSR adjacency.

Two items are joined by an undirected edge when at least `min_co_users`
distinct users streamed both of them inside the training window. Relations are
typed by the endpoints: audiobook-audiobook ("aa"), audiobook-podcast ("ap"),
podcast-podcast ("pp").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ITEM_TYPES, PODCAST, STREAM, CatalogItem, Interactions, check_catalog
from .io import check_rising, check_rows, column_ids, id_column, meta_values, read_pack, write_pack

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
        # values derived from the adjacency, memoized by the code that
        # builds them (the HGNN's neighbor-plan layouts)
        self.memo: dict = {}

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
    train: Interactions,
    catalog: dict[str, CatalogItem],
    min_co_users: int = 1,
    relations: tuple[str, ...] = REL_KEYS,
) -> HeteroGraph:
    """Build the co-listening graph from training interactions.

    Only stream signals create nodes and edges. Edges supported by fewer
    than `min_co_users` distinct users are dropped. Node ordering is
    lexicographic by item_id within each type. A record whose item the
    catalog lacks, or gives another type, is refused (`data.check_catalog`).
    """
    if not len(train):
        raise ValueError("cannot build a graph from an empty training log")
    if min_co_users < 1:
        raise ValueError("min_co_users must be >= 1")
    relations = tuple(sorted(relations))
    if not relations:
        raise ValueError(f"relations must name one or more of {list(REL_KEYS)}, got none")
    for rel in relations:
        if rel not in REL_KEYS:
            raise ValueError(f"unknown relation {rel!r}")
        if relations.count(rel) > 1:
            raise ValueError(f"relation {rel!r} is listed twice")
    included_types = _types_for_relations(relations)

    types = check_catalog(train, catalog)
    included = np.array([t in included_types for t in ITEM_TYPES])
    streams = (train.signal == STREAM) & included[train.item_type]
    # the streamed items, in id order: a node's code is its position here
    codes = np.unique(train.item[streams])
    item_ids = train.item_ids[codes].tolist()
    node_types = types[codes]
    node_ids: dict[str, list[str]] = {t: [] for t in included_types}
    for item_id, code in zip(item_ids, node_types.tolist()):
        node_ids[ITEM_TYPES[code]].append(item_id)

    edge_arrays = _colisten_edges(
        train.user[streams],
        np.searchsorted(codes, train.item[streams]),
        node_types == PODCAST,
        min_co_users,
        relations,
    )
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


def _colisten_edges(
    users: np.ndarray,
    items: np.ndarray,
    is_podcast: np.ndarray,
    min_co_users: int,
    relations: tuple[str, ...],
) -> dict[str, np.ndarray]:
    """Each relation's `(E, 2)` node-index edges between the streamed items
    (by code in id order, `is_podcast` flagging each) that at least
    `min_co_users` distinct users stream both of, from the streams' user and
    item codes `users` and `items`, ordered by the first endpoint, then the
    second: audiobook first in `ap`.

    The distinct (user, item) stream pairs are sorted by user, then item
    code, so each user's items are one run in id order. Every pair of
    positions within one run is a co-listen; `np.unique` counts the users
    behind each oriented (relation, item, item) key."""
    n = len(is_podcast)
    # an item's index among the nodes of its type, which follow id order too
    local = np.where(is_podcast, np.cumsum(is_podcast), np.cumsum(~is_podcast)) - 1
    keys = np.unique(users.astype(np.int64) * n + items)
    user, item = np.divmod(keys, n)
    # each position pairs with every later position of its user's run
    starts = np.flatnonzero(np.r_[True, user[1:] != user[:-1]])
    ends = np.append(starts[1:], len(keys))
    partners = np.repeat(ends, ends - starts) - np.arange(len(keys)) - 1
    first = np.repeat(np.arange(len(keys)), partners)
    second = np.arange(len(first)) - np.repeat(np.cumsum(partners) - partners, partners) + first + 1
    a, b = item[first], item[second]  # a < b: id order within a run
    # orient `ap` audiobook first; rel codes 0, 1, 2 are "aa", "ap", "pp"
    pod_a, pod_b = is_podcast[a], is_podcast[b]
    swap = pod_a & ~pod_b
    a, b = np.where(swap, b, a), np.where(swap, a, b)
    rel = pod_a.astype(np.int64) + pod_b
    pair_keys, support = np.unique((rel * n + a) * n + b, return_counts=True)
    pair_keys = pair_keys[support >= min_co_users]
    rel, rest = np.divmod(pair_keys, n * n)
    a, b = np.divmod(rest, n)
    edges = {}
    for r in relations:
        at = rel == REL_KEYS.index(r)
        edges[r] = np.stack([local[a[at]], local[b[at]]], axis=1)
    return edges


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


def _edges_from_adj(
    adj: dict[tuple[str, str], Csr], relations: tuple[str, ...]
) -> dict[str, np.ndarray]:
    """Each relation's undirected edge list, read off the adjacency in row
    order: the upper triangle of a same-type CSR, the audiobook rows of `ap`.
    Node indices follow item-id order, so this is the sorted (id1, id2) order
    `build_colisten_graph` lists edges in."""
    edges = {}
    for rel in relations:
        t1, t2 = rel_types(rel)
        csr = adj[(t1, t2)]
        rows = np.repeat(np.arange(len(csr.indptr) - 1, dtype=np.int64), np.diff(csr.indptr))
        pairs = np.stack([rows, csr.indices], axis=1)
        edges[rel] = pairs[pairs[:, 0] < pairs[:, 1]] if t1 == t2 else pairs
    return edges


def save_graph(graph: HeteroGraph, path) -> None:
    """Packed container: the relations in the header; each node type's ids
    as an `io.id_column`, its features and the adjacency as arrays. Edge
    lists are not stored: `load_graph` derives them from the adjacency."""
    arrays = {f"features.{t}": mat for t, mat in graph.features.items()}
    arrays.update({f"nodes.{t}": id_column(ids) for t, ids in graph.nodes.items()})
    for (dst, src), csr in graph.adj.items():
        arrays[f"indptr.{dst}.{src}"] = csr.indptr
        arrays[f"indices.{dst}.{src}"] = csr.indices
    write_pack(path, {"kind": "graph", "relations": list(graph.relations)}, arrays)


def _check_csr(path, dst: str, src: str, csr: Csr, n_dst: int, n_src: int) -> None:
    """Refuse a loaded adjacency unless its row pointers rise from 0 to its
    entry count, one per `dst` node and one more, and each entry is a `src`
    node, with a ValueError naming the file."""
    indptr, indices = csr.indptr, csr.indices
    name = f"{dst}.{src}"
    if indptr.dtype.kind not in "iu" or indptr.shape != (n_dst + 1,):
        raise ValueError(f"{path}: indptr.{name} is {indptr.dtype} {list(indptr.shape)}, not {n_dst + 1} integers")
    if indices.dtype.kind not in "iu" or indices.ndim != 1:
        raise ValueError(f"{path}: indices.{name} is {indices.dtype} {list(indices.shape)}, not integers")
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(f"{path}: indptr.{name} does not rise from 0 to {len(indices)}")
    if len(indices) and not (indices.min() >= 0 and indices.max() < n_src):
        raise ValueError(f"{path}: indices.{name} names a node outside the {n_src} {src} nodes")


def load_graph(path) -> HeteroGraph:
    """The graph `save_graph` wrote, over the node types its relations name:
    each type's ids, features and each relation direction's adjacency are
    read by name, so a missing array raises ValueError naming the file; so
    does a relation list that is empty or repeats a relation, an adjacency
    that is not a CSR over the node lists, and a node list whose ids do not
    rise strictly (the id order `_edges_from_adj` lists edges in) or that
    repeats an id of another type (`node_ref` would find only one)."""
    meta, arrays = read_pack(path, "graph")
    (relations,) = meta_values(path, meta, relations=tuple[str, ...])
    relations = tuple(relations)
    unknown = sorted(set(relations) - set(REL_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown relation {unknown[0]!r}; expected one of {REL_KEYS}")
    if not relations:
        raise ValueError(f"{path}: relations lists none of {REL_KEYS}")
    check_rising(path, "relations", np.sort(relations))
    nodes = {}
    for t in _types_for_relations(relations):
        name = f"nodes.{t}"
        nodes[t] = column_ids(path, name, arrays[name])
        check_rows(path, arrays.shapes[f"features.{t}"], **{name: nodes[t]})
        check_rising(path, name, nodes[t])
    # each node list already rises, and numpy's stable sort merges sorted runs
    check_rising(path, "nodes", np.sort(np.concatenate(list(nodes.values())), kind="stable"))
    directions = sorted({d for rel in relations for d in (rel_types(rel), rel_types(rel)[::-1])})
    adj = {
        (dst, src): Csr(arrays[f"indptr.{dst}.{src}"], arrays[f"indices.{dst}.{src}"])
        for dst, src in directions
    }
    for (dst, src), csr in adj.items():
        _check_csr(path, dst, src, csr, len(nodes[dst]), len(nodes[src]))
    return HeteroGraph(
        nodes={t: ids.tolist() for t, ids in nodes.items()},
        features={t: arrays[f"features.{t}"] for t in nodes},
        adj=adj,
        edges=_edges_from_adj(adj, relations),
        relations=relations,
    )
