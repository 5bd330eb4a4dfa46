"""Exhaustive top-k dot-product retrieval: the one ranker of every model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .io import check_rising, check_rows, column_ids, id_column, read_pack, write_pack


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] @ y[i] for every row, through the same dot kernel as the 1-D
    product, so each value is bit-identical to it: a pure function of the two
    rows (einsum sums in another order; a gemv can differ by an ulp between
    byte-identical rows, by alignment)."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


@dataclass
class RecIndex:
    """Item ids and their unit vectors, row by row. The ids are one
    fixed-width numpy string array, which `query_topk` ranks with."""

    ids: np.ndarray
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


def build_index(vectors) -> RecIndex:
    """Build an index from an id -> vector mapping (or iterable of pairs).

    Ids are stored in lexicographic order. Rows must be unit norm within 1e-6
    and share one dimension; duplicate ids, and ids holding a NUL character
    (a fixed-width string array drops trailing NULs), are fatal.
    """
    pairs = list(vectors.items()) if hasattr(vectors, "items") else list(vectors)
    if not pairs:
        raise ValueError("cannot build an empty index")
    seen: set[str] = set()
    for item_id, _ in pairs:
        if item_id in seen:
            raise ValueError(f"duplicate item id {item_id!r}")
        if "\x00" in item_id:
            raise ValueError(f"item id {item_id!r} holds a NUL character")
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
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-6))  # a NaN norm is off too
    if len(off) > 0:
        raise ValueError(
            f"vector for {ids[int(off[0])]!r} is not unit norm (|v|={norms[int(off[0])]:.8f})"
        )
    return RecIndex(ids=np.array(ids), vectors=mat)


def query_topk(
    index: RecIndex,
    query: np.ndarray,
    k: int,
    exclude: set[str] | frozenset[str] = frozenset(),
) -> list[tuple[str, float]]:
    """The k highest dot products among non-excluded items, descending; ties
    break by ascending item id. Returns fewer than k when the index is small.
    Scores are `row_dots` values, so byte-identical rows tie exactly.

    Below the whole index, only the rows whose sort key `-score` is not above
    the k-th smallest key are sorted: every tie at that key stays, and so does
    every NaN row, which the sort puts last. The result is the first k of the
    full sort."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=np.float64)
    scores = row_dots(index.vectors, np.broadcast_to(query, index.vectors.shape))
    ids = index.ids
    if exclude:
        keep = ~np.isin(ids, list(exclude))
        scores, ids = scores[keep], ids[keep]
    key = -scores
    if k < len(key):
        near = np.flatnonzero(~(key > np.partition(key, k - 1)[k - 1]))
        key, scores, ids = key[near], scores[near], ids[near]
    order = np.lexsort((ids, key))[:k]
    return list(zip(ids[order].tolist(), scores[order].tolist()))


def save_index(index: RecIndex, path) -> None:
    """Packed container: the ids as an `io.id_column`, row-major float64
    vectors."""
    vectors = np.asarray(index.vectors, dtype=np.float64)
    write_pack(path, {"kind": "index"}, {"ids": id_column(index.ids), "vectors": vectors})


def load_index(path) -> RecIndex:
    """The index `save_index` wrote. Its ids must rise strictly, as
    `build_index` orders them, one per vector row."""
    _, arrays = read_pack(path, "index")
    ids = column_ids(path, "ids", arrays["ids"])
    check_rows(path, arrays.shapes["vectors"], ids=ids)
    check_rising(path, "ids", ids)
    return RecIndex(ids=ids, vectors=arrays["vectors"])
