"""Exhaustive top-k dot-product retrieval over unit-norm item vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import read_pack, write_pack


@dataclass
class RecIndex:
    ids: list[str]
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def build_index(vectors) -> RecIndex:
    """Build an index from an id -> vector mapping (or iterable of pairs).

    Ids are stored in lexicographic order. Rows must be unit norm within 1e-6
    and share one dimension; duplicate ids are fatal.
    """
    pairs = list(vectors.items()) if hasattr(vectors, "items") else list(vectors)
    if not pairs:
        raise ValueError("cannot build an empty index")
    seen: set[str] = set()
    for item_id, _ in pairs:
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id!r}")
        seen.add(item_id)
    pairs.sort(key=lambda p: p[0])
    ids = [p[0] for p in pairs]
    rows = [np.asarray(p[1], dtype=np.float64) for p in pairs]
    dim = rows[0].shape[0]
    for item_id, row in zip(ids, rows):
        if row.shape != (dim,):
            raise ValueError(
                f"vector for {item_id!r} has shape {row.shape}, expected ({dim},)"
            )
    mat = np.stack(rows)
    norms = np.linalg.norm(mat, axis=1)
    off = np.flatnonzero(np.abs(norms - 1.0) > 1e-6)
    if len(off) > 0:
        raise ValueError(
            f"vector for {ids[int(off[0])]!r} is not unit norm (|v|={norms[int(off[0])]:.8f})"
        )
    return RecIndex(ids=ids, vectors=mat)


def query_topk(
    index: RecIndex,
    query: np.ndarray,
    k: int,
    exclude: set[str] | frozenset[str] = frozenset(),
) -> list[tuple[str, float]]:
    """The k highest dot products among non-excluded items, descending; ties
    break by ascending item id. Returns fewer than k when the index is small."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64)
    # per-row dot keeps scores a pure function of row content; a whole-matrix
    # gemv can differ by an ulp between byte-identical rows (alignment-
    # dependent kernels), which would break exact tie behavior
    scores = np.array([float(np.dot(row, query)) for row in index.vectors])
    ids_arr = np.array(index.ids)
    if exclude:
        keep = np.array([i not in exclude for i in index.ids])
        scores = scores[keep]
        ids_arr = ids_arr[keep]
    order = np.lexsort((ids_arr, -scores))[:k]
    return [(str(ids_arr[i]), float(scores[i])) for i in order]


def save_index(index: RecIndex, path) -> None:
    """Packed container: ids in the header, row-major float64 vectors."""
    vectors = np.asarray(index.vectors, dtype=np.float64)
    write_pack(path, {"kind": "index", "ids": index.ids}, {"vectors": vectors})


def load_index(path) -> RecIndex:
    meta, arrays = read_pack(path)
    if meta.get("kind") != "index":
        raise ValueError(f"{path}: not an index file")
    return RecIndex(ids=list(meta["ids"]), vectors=arrays["vectors"])
