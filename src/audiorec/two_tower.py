"""User and item towers: their packed inputs, forward passes, the in-batch
negative loss with inverse-frequency weighting, training, and vector export.

Each tower concatenates learned categorical embeddings with dense features and
runs three fully connected layers (ReLU on the hidden layers, linear output),
then L2-normalizes. Gradients are closed-form reverse mode.
"""

from __future__ import annotations

import bisect
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable

import numpy as np

from .data import (
    AUDIOBOOK,
    ITEM_TYPES,
    PODCAST,
    SIGNALS,
    STREAM,
    CatalogItem,
    Interactions,
    profile_means,
    rows_of,
)
from .hgnn import NodeEmbeddingTable
from .io import (
    PackEntries,
    check_rising,
    check_rows,
    check_rules,
    column_ids,
    config_from_meta,
    id_column,
    meta_values,
    read_pack,
    write_pack,
)
from .optim import (
    Adam,
    Layout,
    check_layout,
    checksum,
    glorot,
    init_weights,
    l2_normalize,
    l2_normalize_grad,
    zeros,
)

OOV_TOKEN = "<oov>"

_USER_CATS = ("country", "age_bucket")
_ITEM_CATS = ("language", "genre")


@dataclass
class TwoTowerConfig:
    hidden: tuple[int, ...] = (256, 128, 64)
    cat_embed_dim: int = 8
    learning_rate: float = 1e-3
    batch_size: int = 128
    epochs: int = 10
    window_days: int = 90
    music_dim: int = 8
    use_weak_signals: bool = True
    use_hgnn_features: bool = True
    target_type: str = "audiobook"

    def __post_init__(self):
        rules = (
            ("hidden", "three values >= 1", len(self.hidden) == 3 and min(self.hidden) >= 1),
            ("batch_size", ">= 2", self.batch_size >= 2),  # a batch needs an in-batch negative
            ("epochs", ">= 1", self.epochs >= 1),
            ("learning_rate", "> 0", self.learning_rate > 0),
            ("window_days", ">= 1", self.window_days >= 1),
            ("cat_embed_dim", ">= 1", self.cat_embed_dim >= 1),
            ("music_dim", ">= 0", self.music_dim >= 0),
            ("target_type", f"one of {list(ITEM_TYPES)}", self.target_type in ITEM_TYPES),
        )
        check_rules("two_tower", self, rules)


class Vocab:
    """Categorical value table; unseen values map to the reserved slot 0."""

    def __init__(self, values):
        self._index = {v: i + 1 for i, v in enumerate(sorted(set(values)))}

    @property
    def size(self) -> int:
        return len(self._index) + 1

    def lookup(self, value: str) -> int:
        return self._index.get(value, 0)

    def to_list(self) -> list[str]:
        return sorted(self._index)


def user_histories(
    window: Interactions, embeddings: NodeEmbeddingTable, config: TwoTowerConfig
) -> "UserHistoryTable":
    """The part of the user-tower input that interaction history fixes, for
    training and serving alike: one row for every user of the log that the
    feature window (`Interactions.window` over `config.window_days`) was cut
    from, whether or not they have records in the window.

    Mean audiobook embeddings cover every signal type inside the window (or
    streams only without `config.use_weak_signals`, which also leaves weak
    signals out of the counts); podcast means cover streams. Users with no
    qualifying history, and every user without `config.use_hgnn_features`,
    get zero mean vectors."""
    n, n_signals = len(window.user_ids), len(SIGNALS)
    counted = np.ones(len(window), dtype=bool) if config.use_weak_signals else window.signal == STREAM
    user, signal = window.user[counted].astype(np.int64), window.signal[counted]
    counts = np.bincount(user * n_signals + signal, minlength=n * n_signals).reshape(n, n_signals)
    table = UserHistoryTable(
        window.user_ids.tolist(),
        np.zeros((n, embeddings.dim)),
        np.zeros((n, embeddings.dim)),
        counts.astype(np.int64),
    )
    if config.use_hgnn_features:
        row_of = rows_of(window.item_ids, embeddings.index)
        audiobooks = counted & (window.item_type == AUDIOBOOK)
        podcasts = counted & (window.item_type == PODCAST) & (window.signal == STREAM)
        for mask, means in (
            (audiobooks, table.mean_audiobook_embedding),
            (podcasts, table.mean_podcast_embedding),
        ):
            users, rows = profile_means(window, mask, row_of, embeddings.matrix)
            means[users] = rows
    return table


_HISTORY_ARRAYS = ("mean_audiobook_embedding", "mean_podcast_embedding", "interaction_counts")


def _find_user(path, n: int, id_at: Callable[[int], str], user: str) -> int | None:
    """The row of `user` among `n` ids that should rise strictly, or None, by
    bisection that reads the id of each probed row through `id_at`. A probed
    id must lie strictly between the nearest ids probed below and above it:
    otherwise ValueError names the file."""
    lo, hi, below, above = 0, n, None, None
    while lo < hi:
        mid = (lo + hi) // 2
        probe = id_at(mid)
        if (below is not None and probe <= below) or (above is not None and probe >= above):
            raise ValueError(f"{path}: user_ids do not rise strictly")
        if probe < user:
            lo, below = mid + 1, probe
        else:
            hi, above = mid, probe
    return lo if lo < n and above == user else None


@dataclass
class UserHistoryTable:
    """The history part of the user-tower input, one row per user, ids
    rising strictly and counts in `SIGNALS` order: what `train-2t` writes to
    `user_features.bin` for every user in `train.bin`, so that serving
    builds no history. `user_inputs` packs its rows."""

    user_ids: list[str]
    mean_audiobook_embedding: np.ndarray
    mean_podcast_embedding: np.ndarray
    interaction_counts: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.mean_audiobook_embedding.shape[1])

    def save(self, path) -> None:
        """Packed container: the signal order in the header; the ids as an
        `io.id_column`, the float64 means and int64 counts as arrays."""
        arrays = {name: getattr(self, name) for name in _HISTORY_ARRAYS}
        arrays["user_ids"] = id_column(self.user_ids)
        write_pack(path, {"kind": "user_features", "signals": list(SIGNALS)}, arrays)

    @classmethod
    def load(cls, path, user: str | None = None) -> "UserHistoryTable":
        """The table `save` wrote. Either way the header is checked: every
        array holds one row per id, and the signal order is `SIGNALS`.

        With `user`, the table holds only that user's row, or none for an id
        the file lacks. The row is found by bisecting the id column, reading
        one id row per probe and decoding it from its bytes (a row that
        `column_ids` refuses is refused with its message), and each probed
        id must rise consistently with the ids probed before it (bisection
        would silently pick a wrong row otherwise); then that row of each
        array is read and no other. A full load reads every id and checks
        that they all rise strictly."""
        found = None

        def check(meta, shapes, read_rows) -> dict:
            nonlocal found
            (signals,) = meta_values(path, meta, signals=tuple[str, ...])
            means = shapes["mean_audiobook_embedding"]
            n = shapes["user_ids"][0] if shapes["user_ids"] else 0  # `column_ids` refuses a 0-D one
            check_rows(path, means, user_ids=range(n))
            counts = (means[0], len(SIGNALS))
            for name, shape in (("mean_podcast_embedding", means), ("interaction_counts", counts)):
                if shapes[name] != shape:
                    raise ValueError(f"{path}: {name} has shape {list(shapes[name])}, not {list(shape)}")
            if signals != list(SIGNALS):
                raise ValueError(
                    f"{path}: meta 'signals' {signals} is not the signal order {list(SIGNALS)}"
                )
            if user is None:
                return {}

            found = _find_user(path, n, partial(read_rows.id_at, "user_ids"), user)
            rows = [] if found is None else [found]
            return {"user_ids": None, **dict.fromkeys(_HISTORY_ARRAYS, rows)}

        _, arrays = read_pack(path, "user_features", check)
        if user is not None:
            user_ids = [] if found is None else [user]
        else:
            ids = column_ids(path, "user_ids", arrays["user_ids"])
            check_rising(path, "user_ids", ids)
            user_ids = ids.tolist()
        return cls(user_ids, *(arrays[name] for name in _HISTORY_ARRAYS))


def _tower_dims(config: TwoTowerConfig, d_c: int, d_embed: int) -> dict[str, int]:
    """Each tower's input width, given the content and graph embedding widths."""
    e = config.cat_embed_dim
    user_in = 2 * e + config.music_dim + 2 * d_embed + len(SIGNALS)
    return {"user_in": user_in, "item_in": 2 * e + d_c + d_embed, "d_c": d_c, "d_embed": d_embed}


def _table_init(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    return 0.05 * rng.normal(size=shape)


class TowerParams:
    """Dense-layer weights plus categorical embedding tables for both towers."""

    def __init__(
        self,
        config: TwoTowerConfig,
        vocabs: dict[str, Vocab],
        dims: dict[str, int],
        weights: dict[str, np.ndarray],
    ):
        self.config = config
        self.vocabs = vocabs
        self.dims = dims
        self.weights = weights

    @classmethod
    def init(
        cls,
        config: TwoTowerConfig,
        vocabs: dict[str, Vocab],
        d_c: int,
        d_embed: int,
        seed: int,
    ) -> "TowerParams":
        params = cls(config, vocabs, _tower_dims(config, d_c, d_embed), {})
        params.weights = init_weights(params.layout(), np.random.default_rng(seed))
        return params

    def layout(self) -> Layout:
        """The categorical tables of the user tower, then of the item tower;
        then each tower's dense layers."""
        e = self.config.cat_embed_dim
        layout: Layout = [
            (f"{tower}.emb.{name}", (self.vocabs[name].size, e), _table_init)
            for tower, names in (("user", _USER_CATS), ("item", _ITEM_CATS))
            for name in names
        ]
        for tower in ("user", "item"):
            prev = self.dims[f"{tower}_in"]
            for li, width in enumerate(self.config.hidden, start=1):
                layout.append((f"{tower}.W{li}", (width, prev), glorot))
                layout.append((f"{tower}.b{li}", (width,), zeros))
                prev = width
        return layout

    def checksum(self) -> str:
        return checksum(self.weights)

    def save(self, path) -> None:
        """Packed container: config, dims and vocabularies in the header; the
        weights as arrays."""
        meta = {
            "kind": "tower_params",
            "dims": self.dims,
            "vocabs": {name: v.to_list() for name, v in self.vocabs.items()},
            "config": asdict(self.config),
        }
        write_pack(path, meta, self.weights)

    @classmethod
    def load(cls, path, towers: tuple[str, ...] = ("user", "item")) -> "TowerParams":
        """The checkpoint `save` wrote, holding the weights of `towers` only;
        the others are never read, yet the layout check covers every weight
        by the header's shapes."""
        meta, arrays = read_pack(
            path,
            "tower_params",
            lambda meta, shapes, read_rows: {n: None for n in shapes if n.split(".")[0] not in towers},
        )
        vocabs, dims = meta_values(path, meta, vocabs=dict[str, tuple[str, ...]], dims=dict[str, int])
        config = config_from_meta(TwoTowerConfig, path, meta, "two_tower")
        sizes = PackEntries(path, "dims key", dims)
        if dims != _tower_dims(config, sizes["d_c"], sizes["d_embed"]):
            raise ValueError(f"{path}: meta 'dims' {dims} does not fit the tower config")
        vocabs = PackEntries(path, "vocab", {name: Vocab(vals) for name, vals in vocabs.items()})
        params = cls(config, vocabs, dims, arrays)
        check_layout(path, params.layout(), arrays.shapes)
        return params


def user_inputs(
    params: TowerParams,
    table: UserHistoryTable,
    user_ids: list[str],
    music_vectors: dict[str, np.ndarray] | None = None,
    demographics: dict[str, tuple[str, str]] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The user tower's packed input `(cat, dense)` for `user_ids`, one row
    each, in order: the user's `table` row, or the zero history of a user
    without window records for an id the table lacks, plus the profile
    part. A user without demographics gets the out-of-vocabulary token for
    both, and one without a music vector a zero vector; a music vector must
    have `config.music_dim` entries."""
    config, vocabs = params.config, params.vocabs
    music_vectors, demographics = music_vectors or {}, demographics or {}
    cat = np.zeros((len(user_ids), len(_USER_CATS)), np.int64)
    music = np.zeros((len(user_ids), config.music_dim))
    found, rows = [], []
    for i, user in enumerate(user_ids):
        country, age_bucket = demographics.get(user, (OOV_TOKEN, OOV_TOKEN))
        cat[i] = vocabs["country"].lookup(country), vocabs["age_bucket"].lookup(age_bucket)
        vector = music_vectors.get(user)
        if vector is not None:
            vector = np.asarray(vector, dtype=np.float64)
            if vector.shape != (config.music_dim,):
                raise ValueError(
                    f"music vector for {user!r} has shape {vector.shape}, "
                    f"expected ({config.music_dim},)"
                )
            music[i] = vector
        row = bisect.bisect_left(table.user_ids, user)
        if row < len(table.user_ids) and table.user_ids[row] == user:
            found.append(i)
            rows.append(row)
    history = []
    for name in _HISTORY_ARRAYS:
        array = getattr(table, name)
        part = np.zeros((len(user_ids), array.shape[1]), array.dtype)
        part[found] = array[rows]
        history.append(part)
    ab, pod, counts = history
    return cat, np.hstack([music, ab, pod, np.log1p(counts)])


def _target_items(catalog: dict[str, CatalogItem], config: TwoTowerConfig) -> list[str]:
    return sorted(i for i, item in catalog.items() if item.item_type == config.target_type)


def item_inputs(
    params: TowerParams, catalog: dict[str, CatalogItem], embeddings: NodeEmbeddingTable
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The ids of every `config.target_type` catalog item, in id order, and
    the item tower's packed input `(cat, dense)` for them, one row each, for
    training and index export alike. An item without a table row, and every
    item without `config.use_hgnn_features`, gets a zero embedding input."""
    config, vocabs = params.config, params.vocabs
    ids = _target_items(catalog, config)
    cat = np.zeros((len(ids), len(_ITEM_CATS)), np.int64)
    rows = []
    for i, item_id in enumerate(ids):
        item = catalog[item_id]
        cat[i] = vocabs["language"].lookup(item.language), vocabs["genre"].lookup(item.genre)
        vec = embeddings.get(item_id) if config.use_hgnn_features else None
        rows.append(np.concatenate([item.content_vector, np.zeros(embeddings.dim) if vec is None else vec]))
    return ids, cat, np.stack(rows)


@dataclass
class _TowerCache:
    x: np.ndarray
    cat: np.ndarray
    pre: list[np.ndarray]
    act: list[np.ndarray]
    out: np.ndarray
    norms: np.ndarray
    fallback: np.ndarray


def _tower_forward(params: TowerParams, tower: str, cat: np.ndarray, dense: np.ndarray) -> _TowerCache:
    cat_names = _USER_CATS if tower == "user" else _ITEM_CATS
    emb = [params.weights[f"{tower}.emb.{name}"][cat[:, i]] for i, name in enumerate(cat_names)]
    x = np.concatenate(emb + [dense], axis=1)
    pre: list[np.ndarray] = []
    act: list[np.ndarray] = []
    h = x
    for li in range(1, 4):
        w = params.weights[f"{tower}.W{li}"]
        b = params.weights[f"{tower}.b{li}"]
        p = h @ w.T + b
        pre.append(p)
        h = np.maximum(p, 0.0) if li < 3 else p
        act.append(h)
    return _TowerCache(x, cat, pre, act, *l2_normalize(act[-1]))


def _tower_backward(
    params: TowerParams,
    tower: str,
    cache: _TowerCache,
    d_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Put one tower's gradients in `grads`: each dense layer's weight and
    bias gradient is written over its buffer, and each embedding table's is
    added to its buffer, which the caller zeroes."""
    d_h = l2_normalize_grad(cache.out, cache.norms, cache.fallback, d_out)
    for li in range(3, 0, -1):
        if li < 3:
            d_h = d_h * (cache.pre[li - 1] > 0.0)
        w = params.weights[f"{tower}.W{li}"]
        h_in = cache.x if li == 1 else cache.act[li - 2]
        np.matmul(d_h.T, h_in, out=grads[f"{tower}.W{li}"])
        np.sum(d_h, axis=0, out=grads[f"{tower}.b{li}"])
        d_h = d_h @ w
    # d_h is now the gradient of the concatenated input
    e = params.config.cat_embed_dim
    cat_names = _USER_CATS if tower == "user" else _ITEM_CATS
    for i, name in enumerate(cat_names):
        seg = d_h[:, i * e : (i + 1) * e]
        np.add.at(grads[f"{tower}.emb.{name}"], cache.cat[:, i], seg)


def user_tower_output(params: TowerParams, inputs: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The user tower's unit vector for one packed input."""
    return _tower_forward(params, "user", *inputs).out[0]


def _batch_loss_and_douts(
    out_u: np.ndarray,
    out_a: np.ndarray,
    items,
    weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss over one batch of (user, positive) rows with in-batch negatives.

    `items` names each row's positive item (by id or by packed row). Row j
    serves as a negative for row i when the items differ; duplicates of the
    positive are excluded. Returns d(loss)/d(out_u) and d(loss)/d(out_a).
    """
    n = out_u.shape[0]
    scores = out_u @ out_a.T
    ids = np.asarray(items)
    neg_mask = ids[None, :] != ids[:, None]
    n_negs = neg_mask.sum(axis=1)
    if np.any(n_negs == 0):
        bad = int(np.flatnonzero(n_negs == 0)[0])
        raise RuntimeError(
            f"pair {bad} has no in-batch negatives (all batch items identical)"
        )
    d_s = np.where(neg_mask, weights[None, :], 0.0) / n_negs[:, None] / n
    per_pair = (d_s * scores).sum(axis=1) * n - (d_s.sum(axis=1) * np.diag(scores)) * n
    loss = float(per_pair.mean())
    d_s_total = d_s.copy()
    diag = d_s.sum(axis=1)
    d_s_total[np.arange(n), np.arange(n)] -= diag
    d_u = d_s_total @ out_a
    d_a = d_s_total.T @ out_u
    return loss, d_u, d_a


def build_training_pairs(window: Interactions, target_type: str = "audiobook") -> list[tuple[str, str]]:
    """Distinct (user, streamed target item) pairs of the feature window, in
    id order."""
    users, items = window.user_items(window.streams(target_type))
    return list(zip(window.user_ids[users].tolist(), window.item_ids[items].tolist()))


def train_two_tower(
    pairs: list[tuple[str, str]],
    table: UserHistoryTable,
    catalog: dict[str, CatalogItem],
    embeddings: NodeEmbeddingTable,
    config: TwoTowerConfig,
    seed: int,
    music_vectors: dict[str, np.ndarray] | None = None,
    demographics: dict[str, tuple[str, str]] | None = None,
) -> tuple[TowerParams, list[dict]]:
    """Fit both towers with Adam on in-batch-negative batches.

    The user tower trains on the `user_inputs` rows of the pairs' users, the
    item tower on the `item_inputs` rows of the target-type catalog. Every
    row is packed once; a batch indexes its pairs' rows. The vocabularies
    hold the pairs' users' demographics and the target items' metadata.
    Item weights are proportional to inverse training frequency,
    renormalized to mean one within each batch.

    Each batch runs both towers' forward passes, the loss, both backward
    passes into one set of gradient buffers, then one Adam step over both
    towers' weights. The buffers are allocated once: a backward pass writes
    over the dense layers' and adds into the embedding tables', which are
    zeroed before it.
    """
    if not pairs:
        raise ValueError("no training pairs")
    item_counts: dict[str, int] = {}
    for _, item_id in pairs:
        item_counts[item_id] = item_counts.get(item_id, 0) + 1

    items = [catalog[i] for i in _target_items(catalog, config)]
    unknown = sorted(item_counts.keys() - {item.item_id for item in items})
    if unknown:  # a record that gives an item another type than the catalog does
        raise ValueError(f"training pair item {unknown[0]!r} has no catalog entry of type {config.target_type!r}")
    users = sorted({u for u, _ in pairs})
    profiles = [(demographics or {}).get(u, (OOV_TOKEN, OOV_TOKEN)) for u in users]
    vocabs = {
        "country": Vocab(country for country, _ in profiles),
        "age_bucket": Vocab(age_bucket for _, age_bucket in profiles),
        "language": Vocab(item.language for item in items),
        "genre": Vocab(item.genre for item in items),
    }
    d_c = int(items[0].content_vector.shape[0])
    params = TowerParams.init(config, vocabs, d_c, embeddings.dim, seed)
    rng = np.random.default_rng(seed)

    u_cat, u_dense = user_inputs(params, table, users, music_vectors, demographics)
    item_ids, i_cat, i_dense = item_inputs(params, catalog, embeddings)
    user_row = {u: r for r, u in enumerate(users)}
    item_row = {i: r for r, i in enumerate(item_ids)}
    pair_user = np.array([user_row[u] for u, _ in pairs], dtype=np.int64)
    pair_item = np.array([item_row[i] for _, i in pairs], dtype=np.int64)
    pair_inv_freq = np.array([1.0 / item_counts[i] for _, i in pairs])
    adam = Adam(learning_rate=config.learning_rate)
    grads = {k: np.zeros_like(w) for k, w in params.weights.items()}
    tables = [g for k, g in grads.items() if ".emb." in k]
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        n_seen = 0
        skipped = 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            if len(batch) < 2:  # a lone pair has no in-batch negative
                skipped += 1
                continue
            users, items = pair_user[batch], pair_item[batch]
            w_raw = pair_inv_freq[batch]
            if np.all(w_raw == w_raw[0]):
                weights = np.ones_like(w_raw)  # exact neutrality for uniform items
            else:
                weights = w_raw / w_raw.mean()

            u_cache = _tower_forward(params, "user", u_cat[users], u_dense[users])
            i_cache = _tower_forward(params, "item", i_cat[items], i_dense[items])
            loss, d_u, d_a = _batch_loss_and_douts(u_cache.out, i_cache.out, items, weights)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite loss in epoch {epoch}, batch {start // config.batch_size}"
                )
            for g in tables:
                g.fill(0.0)
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


def export_item_vectors(
    params: TowerParams,
    catalog: dict[str, CatalogItem],
    embeddings: NodeEmbeddingTable,
) -> dict[str, np.ndarray]:
    """One output vector per target-type catalog item, including items that
    never appeared in the training graph."""
    ids, cat, dense = item_inputs(params, catalog, embeddings)
    return dict(zip(ids, _tower_forward(params, "item", cat, dense).out))
