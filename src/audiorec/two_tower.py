"""User and item towers: feature assembly, forward passes, the in-batch
negative loss with inverse-frequency weighting, training, and vector export.

Each tower concatenates learned categorical embeddings with dense features and
runs three fully connected layers (ReLU on the hidden layers, linear output),
then L2-normalizes. Gradients are closed-form reverse mode.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .data import DAY_SECONDS, SIGNALS, WEAK_SIGNALS, CatalogItem, InteractionRecord
from .hgnn import NodeEmbeddingTable
from .io import dataclass_from_dict, read_pack, write_pack
from .optim import Adam

OOV_TOKEN = "<oov>"

_NORM_FLOOR = 1e-12

_USER_CATS = ("country", "age_bucket")
_ITEM_CATS = ("language", "genre")


@dataclass
class TwoTowerConfig:
    hidden: tuple[int, ...] = (512, 256, 128)
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
        self.hidden = tuple(self.hidden)
        if len(self.hidden) != 3:
            raise ValueError("towers use exactly three dense layers")


@dataclass
class UserFeatures:
    country: str
    age_bucket: str
    music_vector: np.ndarray
    mean_audiobook_embedding: np.ndarray
    mean_podcast_embedding: np.ndarray
    interaction_counts: dict[str, int]


@dataclass
class ItemFeatures:
    item_id: str
    language: str
    genre: str
    content_vector: np.ndarray
    hgnn_embedding: np.ndarray
    inductive: bool


@dataclass
class FeatureSet:
    users: dict[str, UserFeatures]
    items: dict[str, ItemFeatures]


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

    @classmethod
    def from_list(cls, values: list[str]) -> "Vocab":
        return cls(values)


def assemble_user_features(
    user_id: str,
    train_records: list[InteractionRecord],
    embeddings: NodeEmbeddingTable,
    music_vector: np.ndarray | None = None,
    window_days: int = 90,
    as_of: int | None = None,
    use_weak_signals: bool = True,
    demographics: dict[str, tuple[str, str]] | None = None,
    music_dim: int = 8,
) -> UserFeatures:
    """Build one user's tower input from their interaction history.

    Mean audiobook embeddings cover every signal type inside the window (or
    streams only when weak signals are disabled); podcast means cover streams.
    Users with no qualifying history get zero mean vectors.
    """
    if as_of is None:
        as_of = max((r.timestamp for r in train_records), default=0) + 1
    window_start = as_of - window_days * DAY_SECONDS
    ab_signals = set(SIGNALS) if use_weak_signals else {"stream"}

    ab_items: set[str] = set()
    pod_items: set[str] = set()
    counts = {s: 0 for s in SIGNALS}
    for r in train_records:
        if r.user_id != user_id or not (window_start <= r.timestamp < as_of):
            continue
        if not use_weak_signals and r.signal in WEAK_SIGNALS:
            continue
        counts[r.signal] += 1
        if r.item_type == "audiobook" and r.signal in ab_signals:
            ab_items.add(r.item_id)
        elif r.item_type == "podcast" and r.signal == "stream":
            pod_items.add(r.item_id)

    d = embeddings.dim
    country, age_bucket = (demographics or {}).get(user_id, (OOV_TOKEN, OOV_TOKEN))
    if music_vector is not None:
        music_vector = np.asarray(music_vector, dtype=np.float64)
        if music_vector.shape != (music_dim,):
            raise ValueError(
                f"music vector for {user_id!r} has shape {music_vector.shape}, "
                f"expected ({music_dim},)"
            )
    return UserFeatures(
        country=country,
        age_bucket=age_bucket,
        music_vector=np.zeros(music_dim) if music_vector is None else music_vector,
        mean_audiobook_embedding=_mean_embedding(ab_items, embeddings, d),
        mean_podcast_embedding=_mean_embedding(pod_items, embeddings, d),
        interaction_counts=counts,
    )


def _mean_embedding(item_ids: set[str], embeddings: NodeEmbeddingTable, d: int) -> np.ndarray:
    rows = [embeddings.get(i) for i in sorted(item_ids)]
    rows = [r for r in rows if r is not None]
    if not rows:
        return np.zeros(d)
    return np.mean(rows, axis=0)


def assemble_all_user_features(
    user_ids,
    train_records: list[InteractionRecord],
    embeddings: NodeEmbeddingTable,
    config: TwoTowerConfig,
    as_of: int | None = None,
    music_vectors: dict[str, np.ndarray] | None = None,
    demographics: dict[str, tuple[str, str]] | None = None,
) -> dict[str, UserFeatures]:
    """Single-pass feature assembly for many users."""
    if as_of is None:
        as_of = max((r.timestamp for r in train_records), default=0) + 1
    window_start = as_of - config.window_days * DAY_SECONDS
    wanted = set(user_ids)
    per_user: dict[str, list[InteractionRecord]] = {u: [] for u in wanted}
    for r in train_records:
        if r.user_id in wanted and window_start <= r.timestamp < as_of:
            per_user[r.user_id].append(r)
    out = {}
    for u in sorted(wanted):
        out[u] = assemble_user_features(
            u,
            per_user[u],
            embeddings,
            music_vector=(music_vectors or {}).get(u),
            window_days=config.window_days,
            as_of=as_of,
            use_weak_signals=config.use_weak_signals,
            demographics=demographics,
            music_dim=config.music_dim,
        )
    return out


def assemble_item_features(
    item: CatalogItem,
    embeddings: NodeEmbeddingTable,
    use_hgnn_features: bool = True,
) -> ItemFeatures:
    d = embeddings.dim
    vec = embeddings.get(item.item_id) if use_hgnn_features else None
    inductive = False
    if vec is None:
        vec = np.zeros(d)
        inductive = use_hgnn_features
    else:
        i = embeddings.index[item.item_id]
        inductive = bool(embeddings.inductive[i])
    return ItemFeatures(
        item_id=item.item_id,
        language=item.language,
        genre=item.genre,
        content_vector=item.content_vector,
        hgnn_embedding=vec,
        inductive=inductive,
    )


class TowerParams:
    """Dense-layer weights plus categorical embedding tables for both towers,
    and the item frequency table used for loss weighting."""

    def __init__(
        self,
        config: TwoTowerConfig,
        vocabs: dict[str, Vocab],
        dims: dict[str, int],
        weights: dict[str, np.ndarray],
        item_freq: dict[str, int],
    ):
        self.config = config
        self.vocabs = vocabs
        self.dims = dims
        self.weights = weights
        self.item_freq = item_freq

    @classmethod
    def init(
        cls,
        config: TwoTowerConfig,
        vocabs: dict[str, Vocab],
        d_c: int,
        d_embed: int,
        item_freq: dict[str, int],
        seed: int,
    ) -> "TowerParams":
        rng = np.random.default_rng(seed)
        e = config.cat_embed_dim
        user_in = 2 * e + config.music_dim + 2 * d_embed + len(SIGNALS)
        item_in = 2 * e + d_c + d_embed
        dims = {"user_in": user_in, "item_in": item_in, "d_c": d_c, "d_embed": d_embed}
        weights: dict[str, np.ndarray] = {}
        for name in _USER_CATS:
            weights[f"user.emb.{name}"] = 0.05 * rng.normal(size=(vocabs[name].size, e))
        for name in _ITEM_CATS:
            weights[f"item.emb.{name}"] = 0.05 * rng.normal(size=(vocabs[name].size, e))
        for tower, d_in in (("user", user_in), ("item", item_in)):
            prev = d_in
            for li, width in enumerate(config.hidden, start=1):
                bound = np.sqrt(6.0 / (prev + width))
                weights[f"{tower}.W{li}"] = rng.uniform(-bound, bound, size=(width, prev))
                weights[f"{tower}.b{li}"] = np.zeros(width)
                prev = width
        return cls(config, vocabs, dims, weights, dict(item_freq))

    def copy(self) -> "TowerParams":
        return TowerParams(
            self.config,
            self.vocabs,
            dict(self.dims),
            {k: v.copy() for k, v in self.weights.items()},
            dict(self.item_freq),
        )

    def checksum(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.weights):
            h.update(key.encode())
            h.update(np.ascontiguousarray(self.weights[key]).tobytes())
        return h.hexdigest()

    def save(self, path) -> None:
        meta = {
            "kind": "tower_params",
            "dims": self.dims,
            "vocabs": {name: v.to_list() for name, v in self.vocabs.items()},
            "item_freq": self.item_freq,
            "config": asdict(self.config),
        }
        write_pack(path, meta, self.weights)

    @classmethod
    def load(cls, path) -> "TowerParams":
        meta, arrays = read_pack(path)
        if meta.get("kind") != "tower_params":
            raise ValueError(f"{path}: not a tower parameter checkpoint")
        config = dataclass_from_dict(TwoTowerConfig, meta["config"], "two_tower")
        vocabs = {name: Vocab.from_list(vals) for name, vals in meta["vocabs"].items()}
        return cls(config, vocabs, dict(meta["dims"]), arrays, dict(meta["item_freq"]))


def _user_inputs(params: TowerParams, feats: list[UserFeatures]) -> tuple[np.ndarray, np.ndarray]:
    cat = np.array(
        [
            [params.vocabs["country"].lookup(f.country), params.vocabs["age_bucket"].lookup(f.age_bucket)]
            for f in feats
        ],
        dtype=np.int64,
    ).reshape(len(feats), 2)
    dense = np.stack(
        [
            np.concatenate(
                [
                    f.music_vector,
                    f.mean_audiobook_embedding,
                    f.mean_podcast_embedding,
                    np.log1p([f.interaction_counts[s] for s in SIGNALS]),
                ]
            )
            for f in feats
        ]
    )
    return cat, dense


def _item_inputs(params: TowerParams, feats: list[ItemFeatures]) -> tuple[np.ndarray, np.ndarray]:
    cat = np.array(
        [
            [params.vocabs["language"].lookup(f.language), params.vocabs["genre"].lookup(f.genre)]
            for f in feats
        ],
        dtype=np.int64,
    ).reshape(len(feats), 2)
    dense = np.stack(
        [np.concatenate([f.content_vector, f.hgnn_embedding]) for f in feats]
    )
    return cat, dense


@dataclass
class _TowerCache:
    x: np.ndarray
    cat: np.ndarray
    pre: list[np.ndarray]
    act: list[np.ndarray]
    y: np.ndarray
    norms: np.ndarray
    out: np.ndarray
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
    y = act[-1]
    norms = np.linalg.norm(y, axis=1)
    bad = norms < _NORM_FLOOR
    safe = np.where(bad, 1.0, norms)
    out = y / safe[:, None]
    if np.any(bad):
        out[bad] = 0.0
        out[bad, 0] = 1.0
    return _TowerCache(x, cat, pre, act, y, norms, out, bad)


def _tower_backward(
    params: TowerParams,
    tower: str,
    cache: _TowerCache,
    d_out: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    ok = ~cache.fallback
    d_y = np.zeros_like(cache.y)
    if np.any(ok):
        o = cache.out[ok]
        inner = np.sum(o * d_out[ok], axis=1, keepdims=True)
        d_y[ok] = (d_out[ok] - o * inner) / cache.norms[ok][:, None]
    d_h = d_y
    for li in range(3, 0, -1):
        if li < 3:
            d_h = d_h * (cache.pre[li - 1] > 0.0)
        w = params.weights[f"{tower}.W{li}"]
        h_in = cache.x if li == 1 else cache.act[li - 2]
        grads[f"{tower}.W{li}"] += d_h.T @ h_in
        grads[f"{tower}.b{li}"] += d_h.sum(axis=0)
        d_h = d_h @ w
    # d_h is now the gradient of the concatenated input
    e = params.config.cat_embed_dim
    cat_names = _USER_CATS if tower == "user" else _ITEM_CATS
    for i, name in enumerate(cat_names):
        seg = d_h[:, i * e : (i + 1) * e]
        np.add.at(grads[f"{tower}.emb.{name}"], cache.cat[:, i], seg)


def user_tower_forward(params: TowerParams, features: UserFeatures) -> np.ndarray:
    cat, dense = _user_inputs(params, [features])
    return _tower_forward(params, "user", cat, dense).out[0]


def item_tower_forward(params: TowerParams, features: ItemFeatures) -> np.ndarray:
    cat, dense = _item_inputs(params, [features])
    return _tower_forward(params, "item", cat, dense).out[0]


def _batch_loss_and_douts(
    out_u: np.ndarray,
    out_a: np.ndarray,
    item_ids: list[str],
    weights: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss over one batch of (user, positive) rows with in-batch negatives.

    Row j serves as a negative for row i when the items differ; duplicates of
    the positive are excluded. Returns d(loss)/d(out_u) and d(loss)/d(out_a).
    """
    n = out_u.shape[0]
    scores = out_u @ out_a.T
    ids = np.array(item_ids)
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


def _zeroed_table(embeddings: NodeEmbeddingTable) -> NodeEmbeddingTable:
    return NodeEmbeddingTable(
        item_ids=list(embeddings.item_ids),
        node_types=list(embeddings.node_types),
        matrix=np.zeros_like(embeddings.matrix),
        inductive=embeddings.inductive.copy(),
        fallback=embeddings.fallback.copy(),
    )


def build_feature_set(
    user_ids,
    train_records: list[InteractionRecord],
    catalog: dict[str, CatalogItem],
    embeddings: NodeEmbeddingTable,
    config: TwoTowerConfig,
    as_of: int | None = None,
    music_vectors: dict[str, np.ndarray] | None = None,
    demographics: dict[str, tuple[str, str]] | None = None,
) -> FeatureSet:
    """Assemble user and target-item features for training or serving.

    With graph features disabled, embedding-derived inputs are zeroed on both
    towers.
    """
    table = embeddings if config.use_hgnn_features else _zeroed_table(embeddings)
    users = assemble_all_user_features(
        user_ids,
        train_records,
        table,
        config,
        as_of=as_of,
        music_vectors=music_vectors,
        demographics=demographics,
    )
    items = {
        item_id: assemble_item_features(catalog[item_id], table, config.use_hgnn_features)
        for item_id in sorted(catalog)
        if catalog[item_id].item_type == config.target_type
    }
    return FeatureSet(users=users, items=items)


def build_training_pairs(
    train_records: list[InteractionRecord],
    target_type: str = "audiobook",
    window_days: int = 90,
    as_of: int | None = None,
) -> list[tuple[str, str]]:
    """Distinct (user, streamed target item) pairs inside the feature window."""
    if as_of is None:
        as_of = max((r.timestamp for r in train_records), default=0) + 1
    window_start = as_of - window_days * DAY_SECONDS
    pairs = {
        (r.user_id, r.item_id)
        for r in train_records
        if r.signal == "stream"
        and r.item_type == target_type
        and window_start <= r.timestamp < as_of
    }
    return sorted(pairs)


def train_two_tower(
    pairs: list[tuple[str, str]],
    features: FeatureSet,
    config: TwoTowerConfig,
    seed: int,
) -> tuple[TowerParams, list[dict]]:
    """Fit both towers with Adam on in-batch-negative batches.

    Item weights are proportional to inverse training frequency, renormalized
    to mean one within each batch.
    """
    if not pairs:
        raise ValueError("no training pairs")
    item_freq: dict[str, int] = {}
    for _, item_id in pairs:
        item_freq[item_id] = item_freq.get(item_id, 0) + 1

    vocabs = {
        "country": Vocab(f.country for f in features.users.values()),
        "age_bucket": Vocab(f.age_bucket for f in features.users.values()),
        "language": Vocab(f.language for f in features.items.values()),
        "genre": Vocab(f.genre for f in features.items.values()),
    }
    some_item = next(iter(features.items.values()))
    d_c = int(some_item.content_vector.shape[0])
    d_embed = int(some_item.hgnn_embedding.shape[0])
    params = TowerParams.init(config, vocabs, d_c, d_embed, item_freq, seed)
    adam = Adam(learning_rate=config.learning_rate)
    rng = np.random.default_rng(seed)

    inv_freq = {i: 1.0 / c for i, c in item_freq.items()}
    log: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        n_seen = 0
        for start in range(0, len(order), config.batch_size):
            batch = [pairs[int(i)] for i in order[start : start + config.batch_size]]
            if len(batch) < 2:
                continue
            user_feats = [features.users[u] for u, _ in batch]
            item_feats = [features.items[i] for _, i in batch]
            item_ids = [i for _, i in batch]
            w_raw = np.array([inv_freq[i] for i in item_ids])
            if np.all(w_raw == w_raw[0]):
                weights = np.ones_like(w_raw)  # exact neutrality for uniform items
            else:
                weights = w_raw / w_raw.mean()

            u_cat, u_dense = _user_inputs(params, user_feats)
            i_cat, i_dense = _item_inputs(params, item_feats)
            u_cache = _tower_forward(params, "user", u_cat, u_dense)
            i_cache = _tower_forward(params, "item", i_cat, i_dense)
            loss, d_u, d_a = _batch_loss_and_douts(
                u_cache.out, i_cache.out, item_ids, weights
            )
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
        log.append({"epoch": epoch, "train_loss": epoch_loss / max(1, n_seen)})
    return params, log


def export_item_vectors(
    params: TowerParams,
    catalog: dict[str, CatalogItem],
    embeddings: NodeEmbeddingTable,
) -> dict[str, np.ndarray]:
    """One output vector per target-type catalog item, including items that
    never appeared in the training graph."""
    target = params.config.target_type
    items = [catalog[i] for i in sorted(catalog) if catalog[i].item_type == target]
    feats = [
        assemble_item_features(it, embeddings, params.config.use_hgnn_features)
        for it in items
    ]
    cat, dense = _item_inputs(params, feats)
    out = _tower_forward(params, "item", cat, dense).out
    return {it.item_id: out[i] for i, it in enumerate(items)}
