"""Finite-difference gradient checking helpers shared by the module tests and
the acceptance suite.

Instances sitting on documented non-differentiable points (ReLU kinks within
reach of the probe step, active hinge boundaries, zero-norm fallback rows) are
screened out before comparison; the screen never looks at the comparison
outcome.
"""

import numpy as np

from audiorec.data import SIGNALS, CatalogItem, InteractionRecord, Interactions
from audiorec.graph import build_colisten_graph, rel_types
from audiorec.hgnn import (
    ExclusionIndex,
    HgnnConfig,
    HgnnParams,
    NodeEmbeddingTable,
    _sample_negative_refs,
    batch_loss_and_grads,
    flat_offsets,
    forward_states,
    margin_batch_loss,
    sample_plan,
)
from audiorec.two_tower import (
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

from oracles import forward_states_edge_first

EPS = 1e-4
# A 1e-4 parameter step can move pre-activations, pool gaps, and hinge terms
# by roughly eps * |h|; with |h| up to ~30 on these instances, anything closer
# than 5e-3 to a kink or tie is within reach of the probe and gets screened.
KINK_TOL = 5e-3


def max_rel_error(loss_fn, params_weights, analytic, eps=EPS):
    """Central finite differences over every entry of every parameter block."""
    worst = 0.0
    for key in sorted(params_weights):
        w = params_weights[key]
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            lp = loss_fn()
            w[idx] = orig - eps
            lm = loss_fn()
            w[idx] = orig
            fd = (lp - lm) / (2 * eps)
            an = analytic[key][idx]
            worst = max(worst, abs(fd - an) / max(1e-6, abs(fd), abs(an)))
    return worst


# ---------------------------------------------------------------------------
# Heterogeneous encoder instances.
# ---------------------------------------------------------------------------


def random_hgnn_instance(seed, n_nodes_max=20, d_c=5, hidden=6, out=4, dtype="float64"):
    """A small random graph, float64-drawn weights cast to `dtype`, a plan,
    and some pairs with their negatives. The finite-difference checks run in
    float64, the dtype their step and tolerances are set for."""
    rng = np.random.default_rng(seed)
    n_ab = int(rng.integers(3, max(4, n_nodes_max // 2)))
    n_pod = int(rng.integers(3, max(4, n_nodes_max - n_ab)))
    catalog = {}
    for i in range(n_ab):
        catalog[f"a{i:02d}"] = CatalogItem(f"a{i:02d}", "audiobook", rng.normal(size=d_c), "en", "g")
    for i in range(n_pod):
        catalog[f"p{i:02d}"] = CatalogItem(f"p{i:02d}", "podcast", rng.normal(size=d_c), "en", "g")
    records = []
    ids = list(catalog)
    for u in range(int(rng.integers(6, 16))):
        k = int(rng.integers(2, min(6, len(ids)) + 1))
        for item in rng.choice(ids, size=k, replace=False):
            records.append(
                InteractionRecord(f"u{u}", str(item), catalog[str(item)].item_type, "stream", 0)
            )
    graph = build_colisten_graph(Interactions.from_records(records), catalog)
    config = HgnnConfig(
        hidden_dim=hidden, out_dim=out, fanouts=(3, 2), margin=0.4, n_negatives=3
    )
    params = HgnnParams.init(config, d_c, graph.node_types, graph.relations, seed=seed + 1).astype(dtype)
    plan_rng = np.random.default_rng(seed + 2)
    plan = sample_plan(graph, config.fanouts, plan_rng)
    offsets = flat_offsets(graph)
    pairs = []
    for rel in sorted(graph.edges):
        t1, t2 = rel_types(rel)
        pairs.extend((offsets[t1] + i, offsets[t2] + j) for i, j in graph.edges[rel][:3])
    pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    try:
        negs = _sample_negative_refs(ExclusionIndex.build(graph), pairs[:, 0], 3, plan_rng)
    except RuntimeError:  # anchor adjacent to everything: degenerate instance
        return graph, params, plan, pairs[:0], np.zeros((0, 3), dtype=np.int64)
    return graph, params, plan, pairs, negs


def batch_loss(graph, params, plan, pairs, negs):
    cache = forward_states(graph, params, plan)
    return margin_batch_loss(cache, pairs, negs, params.config.margin)[0]


def hgnn_instance_is_smooth(graph, params, plan, pairs, negs):
    """Reject instances on kinks: near-zero pre-activations, near-ties in the
    max pool, near-boundary hinge terms, or zero-norm fallback rows."""
    cache = forward_states(graph, params, plan)
    # the library keeps no pre-activations; the edge-first oracle keeps them
    # all, differing from the library's only in rounding, far below KINK_TOL
    edge_first = forward_states_edge_first(graph, params, plan)
    for layer in edge_first.upd_pre:
        for pre in layer.values():
            if pre.size and np.min(np.abs(pre)) < KINK_TOL:
                return False
    for k, layer in enumerate(edge_first.edge_pre):
        for direction, pre in layer.items():  # one row per sampled edge
            csr = plan.layers[k][direction]
            if pre.size and np.min(np.abs(pre)) < KINK_TOL:
                return False
            act = np.maximum(pre, 0.0)
            for i in range(len(csr.indptr) - 1):
                seg = act[csr.indptr[i] : csr.indptr[i + 1]]
                if seg.shape[0] < 2:
                    continue
                top2 = np.sort(seg, axis=0)[-2:]
                close = (top2[1] - top2[0] < KINK_TOL) & (top2[1] > 0)
                if np.any(close):
                    return False
    if np.any(cache.fallback):
        return False
    margin = params.config.margin
    z = cache.z
    for (a, p), neg in zip(pairs, negs):
        for n in neg:
            if abs(z[n] @ z[a] - z[p] @ z[a] + margin) < KINK_TOL:
                return False
    return True


def check_hgnn_gradients(seed):
    """Returns (screened_ok, max_rel_error_or_None), in float64."""
    graph, params, plan, pairs, negs = random_hgnn_instance(seed, dtype="float64")
    if not len(pairs) or not hgnn_instance_is_smooth(graph, params, plan, pairs, negs):
        return False, None
    _, grads, _ = batch_loss_and_grads(graph, params, plan, pairs, negs)
    err = max_rel_error(
        lambda: batch_loss(graph, params, plan, pairs, negs), params.weights, grads
    )
    return True, err


# ---------------------------------------------------------------------------
# Two-tower instances.
# ---------------------------------------------------------------------------


def random_tower_instance(seed, n_pairs=4, d_c=3, d_embed=4, country=None, age_bucket=None):
    """Tower params plus `n_pairs` random users and items, as the packed
    `(cat, dense)` inputs `user_inputs` and `item_inputs` build for them, the
    item ids and the batch weights. Some users' drawn country is out of
    vocabulary. A given `country` or `age_bucket` replaces every user's drawn
    one; the draws still happen, so the rest of the instance stays the same."""
    rng = np.random.default_rng(seed)
    config = TwoTowerConfig(hidden=(8, 4, 2), cat_embed_dim=3, music_dim=2)
    vocabs = {
        "country": Vocab(["US", "SE"]),
        "age_bucket": Vocab(["18-24", "25-34"]),
        "language": Vocab(["en", "es"]),
        "genre": Vocab(["g0", "g1"]),
    }
    users = [f"u{i}" for i in range(n_pairs)]
    ids = [f"i{i}" for i in range(n_pairs)]
    demographics, music, histories, catalog, embeddings = {}, {}, [], {}, []
    for user, item in zip(users, ids):
        drawn = (str(rng.choice(["US", "SE", "XX"])), str(rng.choice(["18-24", "25-34"])))
        demographics[user] = (
            drawn[0] if country is None else country,
            drawn[1] if age_bucket is None else age_bucket,
        )
        music[user] = rng.normal(size=2)
        ab, pod = rng.normal(size=d_embed), rng.normal(size=d_embed)
        counts = {s: int(rng.integers(0, 5)) for s in ("stream", "follow", "preview", "intent_to_pay")}
        histories.append((ab, pod, [counts[s] for s in SIGNALS]))
        language, genre = str(rng.choice(["en", "es"])), str(rng.choice(["g0", "g1"]))
        catalog[item] = CatalogItem(item, "audiobook", rng.normal(size=d_c), language, genre)
        embeddings.append(rng.normal(size=d_embed))
    freq = {f"i{i}": int(rng.integers(1, 4)) for i in range(n_pairs)}
    params = TowerParams.init(config, vocabs, d_c, d_embed, seed)
    ab, pod, counts = (np.array(column) for column in zip(*histories))
    table = UserHistoryTable(users, ab, pod, counts)
    item_table = NodeEmbeddingTable(ids, np.array(embeddings))
    w_raw = np.array([1.0 / freq[i] for i in ids])
    weights = w_raw / w_raw.mean()
    user_in = user_inputs(params, table, users, music, demographics)
    return params, user_in, item_inputs(params, catalog, item_table)[1:], ids, weights


def tower_loss_and_caches(params, user_in, item_in, ids, weights):
    u_cache = _tower_forward(params, "user", *user_in)
    i_cache = _tower_forward(params, "item", *item_in)
    loss, d_u, d_a = _batch_loss_and_douts(u_cache.out, i_cache.out, ids, weights)
    return loss, u_cache, i_cache, d_u, d_a


def tower_instance_is_smooth(u_cache, i_cache):
    for cache in (u_cache, i_cache):
        if np.any(cache.fallback):
            return False
        if np.min(cache.norms) < 1e-3:
            return False
        for pre in cache.pre[:2]:  # hidden layers carry the ReLU kinks
            if np.min(np.abs(pre)) < KINK_TOL:
                return False
    return True


def check_tower_gradients(seed):
    params, user_in, item_in, ids, weights = random_tower_instance(seed)
    loss, u_cache, i_cache, d_u, d_a = tower_loss_and_caches(params, user_in, item_in, ids, weights)
    if not tower_instance_is_smooth(u_cache, i_cache):
        return False, None
    grads = {k: np.zeros_like(v) for k, v in params.weights.items()}
    _tower_backward(params, "user", u_cache, d_u, grads)
    _tower_backward(params, "item", i_cache, d_a, grads)

    def loss_only():
        return tower_loss_and_caches(params, user_in, item_in, ids, weights)[0]

    return True, max_rel_error(loss_only, params.weights, grads)
