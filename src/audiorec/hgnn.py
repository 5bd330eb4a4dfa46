"""Two-layer heterogeneous max-pool graph encoder trained with a margin
ranking loss.

Per layer, each relation transforms every source node's state once through
its own dense layer (node-level pre-activations) and each node max-pools the
rectified rows of its sampled neighbors; the node update adds the summed
relation pools to a type-specific transform of the node's own state, and the
final state is L2-normalized. Training walks relation-balanced edge batches
with uniformly resampled neighborhoods. All gradients are computed in closed
form (reverse mode) and checked against finite differences in the test suite.

The model runs in the dtype of its weights, float32 or float64:
`train-hgnn` casts its float64 draw to float32 (`TRAIN_DTYPE`) once. The
content features are cast once per graph, and the states, pools, loss,
gradients and Adam's moments all stay in the weights' dtype; only the
pooled-gradient bincount sums in float64, then rounds once. A checkpoint's
dtype is its arrays', `embed` runs in it, and the embedding table is
written in float64 whatever it is.

The gradient scatters are byte-exact against per-pair and per-entry loops.
The loss adds its gradient to the output rows in rounds, one term to every
row that has one left, so each row sums its terms in loop order. Backward,
each pooled gradient goes to the neighbor that achieved the max where the
pooled value is positive: one bincount over every (segment, column), in which
a dead entry adds +0.0.

The training forward keeps only what backward reads: each layer's states,
whose positive entries are the node update's ReLU mask, and per pooled
(segment, column) the winner's slot within its segment and whether the pool
is positive, one byte each. The relation transforms are rectified in place
and dropped once pooled. Each layer's states are one array in flat-id order,
so the output `z` is normalized without a copy, and the loss, validation
and the embedding table read it as it is. `backward_states` consumes the
cache: each array goes once it has been read for the last time. The
neighbor-plan layouts, which live as long as their graph, hold the
adjacency once and their positions as int32.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .graph import Csr, HeteroGraph, rel_key, rel_types
from .index import row_dots
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


# the dtype `train-hgnn` trains in, chosen by the quality sweep (README)
TRAIN_DTYPE = np.float32


@dataclass
class HgnnConfig:
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

    def __post_init__(self):
        rules = (
            ("fanouts", "one or more values >= 1", min(self.fanouts, default=0) >= 1),
            ("full_neighborhood_cap", ">= 1", self.full_neighborhood_cap >= 1),
            ("hidden_dim", ">= 1", self.hidden_dim >= 1),
            ("out_dim", ">= 1", self.out_dim >= 1),
            ("margin", ">= 0", self.margin >= 0),
            ("n_negatives", ">= 1", self.n_negatives >= 1),
            ("learning_rate", "> 0", self.learning_rate > 0),
            ("batch_size", ">= 1", self.batch_size >= 1),
            ("max_epochs", ">= 1", self.max_epochs >= 1),
            ("patience", ">= 1", self.patience >= 1),
            ("val_fraction", "in [0, 1)", 0 <= self.val_fraction < 1),
        )
        check_rules("hgnn", self, rules)

    @property
    def layers(self) -> int:
        """One layer per `fanouts` entry."""
        return len(self.fanouts)

    def layer_dims(self, feature_dim: int) -> list[int]:
        return [feature_dim] + [self.hidden_dim] * (self.layers - 1) + [self.out_dim]


class HgnnParams:
    """Trainable state: per (layer, relation) aggregation weights and bias,
    per (layer, node type) update weights, every array in one dtype."""

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
        """Weights drawn in float64; `astype` casts them."""
        params = cls(config, feature_dim, node_types, relations, {})
        params.weights = init_weights(params.layout(), np.random.default_rng(seed))
        return params

    @property
    def dtype(self) -> np.dtype:
        """The weights' dtype, which every pass runs in."""
        return next(iter(self.weights.values())).dtype

    def astype(self, dtype) -> "HgnnParams":
        """A copy with every weight cast to `dtype` once, so float32 weights
        cast from a float64 draw are that draw, rounded."""
        weights = {k: v.astype(dtype) for k, v in self.weights.items()}
        return HgnnParams(self.config, self.feature_dim, self.node_types, self.relations, weights)

    def layout(self) -> Layout:
        """Per layer: each relation's aggregation weights and bias, then each
        node type's update weights."""
        dims = self.config.layer_dims(self.feature_dim)
        layout: Layout = []
        for k in range(1, self.config.layers + 1):
            d_in, d_out = dims[k - 1], dims[k]
            for rel in self.relations:
                layout.append((f"agg.W.{k}.{rel}", (d_out, d_in), glorot))
                layout.append((f"agg.b.{k}.{rel}", (d_out,), zeros))
            layout += [(f"upd.W.{k}.{t}", (d_out, d_in), glorot) for t in self.node_types]
        return layout

    def agg_w(self, layer: int, rel: str) -> np.ndarray:
        return self.weights[f"agg.W.{layer}.{rel}"]

    def agg_b(self, layer: int, rel: str) -> np.ndarray:
        return self.weights[f"agg.b.{layer}.{rel}"]

    def upd_w(self, layer: int, node_type: str) -> np.ndarray:
        return self.weights[f"upd.W.{layer}.{node_type}"]

    def copy(self) -> "HgnnParams":
        return HgnnParams(
            self.config,
            self.feature_dim,
            self.node_types,
            self.relations,
            {k: v.copy() for k, v in self.weights.items()},
        )

    def checksum(self) -> str:
        return checksum(self.weights)

    def check(self, source) -> None:
        """Refuse weights that `config` does not describe or that no pass
        runs in: a missing, extra or misshaped weight, or one not in the
        first weight's dtype, or weights neither float32 nor float64, raises
        ValueError naming `source` and the array, as `load` refuses a
        container."""
        shapes = PackEntries(source, "array", {name: w.shape for name, w in self.weights.items()})
        check_layout(source, self.layout(), shapes)
        dtype = self.dtype
        for name, w in self.weights.items():
            if w.dtype != dtype or dtype not in (np.float32, np.float64):
                raise ValueError(
                    f"{source}: array {name!r} is {w.dtype}; the weights must be all "
                    "float32 or all float64"
                )

    def save(self, path) -> None:
        self.check(path)  # a config that does not describe the weights is not written
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
        meta, arrays = read_pack(path, "hgnn_params")
        feature_dim, node_types, relations = meta_values(
            path, meta, feature_dim=int, node_types=tuple[str, ...], relations=tuple[str, ...]
        )
        config = config_from_meta(HgnnConfig, path, meta, "hgnn")
        params = cls(config, feature_dim, node_types, relations, arrays)
        params.check(path)
        return params


# ---------------------------------------------------------------------------
# Neighbor sampling.
# ---------------------------------------------------------------------------


def _index_type(n: int) -> type:
    """int32 for values below `n` when they fit in it, else int64. numpy
    casts an int32 index array to its own index type on use."""
    return np.int32 if n <= np.iinfo(np.int32).max else np.int64


@dataclass
class PoolOrder:
    """How `_segment_max` walks the segments of one CSR, which depends only
    on its row lengths: the nonempty segments `order`, longest first
    (stable); per slot s, the `bounds` (lo, hi) of its rows in `positions`,
    which holds every edge position slot-major, slot s of each segment
    longer than s in `order` (int32 where the edges fit). Segments longer
    than s form a prefix of `order`, so slot s covers the first hi - lo of
    them, and slot 0 holds where each segment starts."""

    indptr: np.ndarray  # the row pointers it was derived from
    order: np.ndarray
    positions: np.ndarray
    bounds: list[tuple[int, int]]

    @classmethod
    def of(cls, indptr: np.ndarray) -> "PoolOrder":
        seg_len = np.diff(indptr)
        order = np.argsort(-seg_len, kind="stable")
        lens = seg_len[order]
        order = order[lens > 0]
        starts = indptr[order].astype(_index_type(int(indptr[-1])))
        longest = int(lens[0]) if len(order) else 0
        counts = np.searchsorted(-lens, -np.arange(longest), side="left").tolist()
        ends = np.cumsum(counts).tolist()
        return cls(
            indptr=indptr,
            order=order,
            positions=np.concatenate(
                [starts[:0]] + [starts[:k] + s for s, k in enumerate(counts)]
            ),
            bounds=[(hi - k, hi) for k, hi in zip(counts, ends)],
        )


@dataclass
class NeighborPlan:
    """Per layer, per (dst_type, src_type): CSR of the neighbors used. A plan
    drawn from a `_PlanLayout` also carries the layout's `PoolOrder` of each
    CSR in `orders`; a plan built any other way derives them on use."""

    layers: list[dict[tuple[str, str], Csr]]
    orders: list[dict[tuple[str, str], PoolOrder]] | None = None

    def pool_order(self, layer: int, direction: tuple[str, str]) -> PoolOrder:
        """The `PoolOrder` of `layers[layer][direction]`: the carried one
        while that CSR still has the row pointers it was derived from."""
        indptr = self.layers[layer][direction].indptr
        order = self.orders[layer][direction] if self.orders else None
        if order is None or order.indptr is not indptr:
            order = PoolOrder.of(indptr)
        return order


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """`starts[i] + arange(lengths[i])` for each i, concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(ends[-1] if len(ends) else 0)


@dataclass
class _FloydDraws:
    """The draw arrays of a `_PlanLayout` that has rows above their fanout:
    one entry per draw, per Floyd step or per sampled slot, each position or
    bound int32 where it fits.

    Stream contract: each oversized row of population `pop` (its degree)
    takes 2f - 1 draws from one `rng.integers(0, bounds)` call, in row order.
    Floyd's step k (k < f) draws v_k below pop - f + k + 1 and keeps it, or
    j_k = pop - f + k when v_k is already taken. After its f picks the row
    draws f - 1 values, bounds f .. 2, that no pick uses: numpy's
    `choice(pop, f, replace=False)` spends them on shuffling its picks. So
    each row uses the same numbers, and `rng` ends in the same state, as that
    call wherever numpy runs Floyd (`pop <= 10000` or `f <= pop // 50`).
    """

    stacked: np.ndarray  # every direction's adjacency indices, once
    bounds: np.ndarray  # per draw: its exclusive upper bound
    floyd_at: np.ndarray  # which draws are Floyd steps
    step: np.ndarray  # per Floyd step: k
    base: np.ndarray  # per Floyd step: pop - f of its row
    row_start: np.ndarray  # per Floyd step: where its row starts in `stacked`
    j_at: np.ndarray  # per Floyd step: where j_k sits in `stacked`
    row_key: np.ndarray  # per oversized row: the sum of the populations before it
    pos_bits: int  # bits of a Floyd step's position in the sort keys
    template: np.ndarray  # the sampled indices, kept-whole rows filled in
    slots: np.ndarray  # the positions in `template` that oversized rows fill
    slot_row: np.ndarray  # per slot, and per Floyd step: the number of its oversized row

    @classmethod
    def build(
        cls, stacked: np.ndarray, degrees: np.ndarray, row_at: np.ndarray, fanout: np.ndarray
    ) -> "_FloydDraws":
        """The draws of the rows with these `degrees`, starting at `row_at`
        in `stacked`, each keeping at most its `fanout` neighbors."""
        big = degrees > fanout
        kept = np.where(big, fanout, degrees)
        sizes, pops = kept[big], degrees[big]
        n_draws = 2 * sizes - 1
        pos = np.arange(int(n_draws.sum())) - np.repeat(np.cumsum(n_draws) - n_draws, n_draws)
        f, base = np.repeat(sizes, n_draws), np.repeat(pops - sizes, n_draws)
        floyd = pos < f
        position = _index_type(len(stacked))  # degrees and bounds are below it too
        bounds = np.where(floyd, base + pos + 1, 2 * f - pos).astype(position)
        floyd_at = np.flatnonzero(floyd)
        row_start = np.repeat(row_at[big], n_draws)[floyd_at]
        pos, base = pos[floyd_at], base[floyd_at]
        slot_in_big = np.repeat(big, kept)
        template = np.empty(len(slot_in_big), dtype=np.int64)
        template[~slot_in_big] = stacked[_ranges(row_at[~big], degrees[~big])]
        return cls(
            stacked=stacked,
            bounds=bounds,
            floyd_at=floyd_at.astype(_index_type(len(floyd))),
            step=pos.astype(position),
            base=base.astype(position),
            row_start=row_start.astype(position),
            j_at=(row_start + base + pos).astype(position),
            row_key=np.cumsum(pops) - pops,
            pos_bits=len(floyd_at).bit_length(),
            template=template,
            slots=np.flatnonzero(slot_in_big).astype(_index_type(len(template))),
            slot_row=np.repeat(np.arange(len(sizes), dtype=_index_type(len(sizes))), sizes),
        )

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One draw of every oversized row: the template with its slots
        filled, each row's picks sorted by neighbor id."""
        v = rng.integers(0, self.bounds)[self.floyd_at]
        # Step k yields v_k, or j_k when v_k is already taken: when it
        # repeats an earlier draw of the row, or equals j_t for an earlier
        # t whose own draw was taken. Repeats show up as equal neighbors in
        # sorted (row key + v, step position) keys. A row's key is its own
        # (the layers share `stacked`); a row's f steps are its f slots.
        key = np.sort((self.row_key[self.slot_row] + v) << self.pos_bits | np.arange(len(v)))
        neighbor = key >> self.pos_bits
        repeats = key[1:][neighbor[1:] == neighbor[:-1]]
        seen = np.zeros(len(v), dtype=bool)
        seen[repeats & ((1 << self.pos_bits) - 1)] = True
        t = v - self.base
        linked = np.flatnonzero((t >= 0) & (t < self.step))
        target = linked - self.step[linked] + t[linked]
        taken, seen_linked = seen.copy(), seen[linked]
        while True:  # each pass settles one more link of every chain
            again = seen_linked | taken[target]
            if np.array_equal(again, taken[linked]):
                break
            taken[linked] = again
        # node ids are below 2**32, so one sort orders by row, then id
        key = np.left_shift(self.slot_row, 32, dtype=np.int64)
        key |= self.stacked[np.where(taken, self.j_at, v + self.row_start)]
        key.sort()
        key &= 0xFFFFFFFF
        indices = self.template.copy()
        indices[self.slots] = key
        return indices


@dataclass
class _PlanLayout:
    """What a `sample_plan` draw needs that depends only on the graph and the
    fanouts, computed once per (graph, fanouts) by `_plan_layout`.

    `parts` holds per (layer, direction) the graph's adjacency, the same
    objects in every layer. Rows longer than their layer's fanout f keep f
    neighbors, drawn uniformly without replacement and sorted by neighbor
    id; shorter rows are kept whole. A part with no oversized row comes back
    from a draw as its adjacency; the others are drawn by `draws` (see
    `_FloydDraws` for the stream) into one index array, part i at
    `sampled[i]` = (its row pointers, lo, hi). A layout with no oversized row
    holds only its parts and their `PoolOrder`s: `draws` is None. Each
    direction kept whole shares one `PoolOrder` across the layers.
    """

    parts: list[Csr]
    directions: list[tuple[str, str]]
    draws: _FloydDraws | None
    sampled: list[tuple[np.ndarray, int, int] | None]  # per part: (indptr, lo, hi)
    orders: list[dict[tuple[str, str], PoolOrder]]  # per layer: each part's PoolOrder

    @classmethod
    def build(cls, graph: HeteroGraph, fanouts: tuple[int, ...]) -> "_PlanLayout":
        directions = graph.directions()
        adjacency = [graph.adj[d] for d in directions]
        degrees = [np.diff(csr.indptr) for csr in adjacency]
        # where each direction's indices start in the stacked adjacency
        offsets = np.cumsum([0] + [len(csr.indices) for csr in adjacency]).tolist()
        whole: dict[tuple[str, str], PoolOrder] = {}
        drawn = []  # per drawn part: (degrees, row starts in the stack, fanout)
        sampled, orders, lo = [], [], 0
        for f in fanouts:
            layer_orders = {}
            for direction, csr, deg, offset in zip(directions, adjacency, degrees, offsets):
                if deg.max(initial=0) <= f:
                    sampled.append(None)
                    if direction not in whole:
                        whole[direction] = PoolOrder.of(csr.indptr)
                    layer_orders[direction] = whole[direction]
                    continue
                part_ptr = np.concatenate(([0], np.cumsum(np.minimum(deg, f))))
                part_ptr.setflags(write=False)  # every plan shares it
                hi = lo + int(part_ptr[-1])
                sampled.append((part_ptr, lo, hi))
                layer_orders[direction] = PoolOrder.of(part_ptr)
                drawn.append((deg, offset + csr.indptr[:-1], np.full(len(deg), f)))
                lo = hi
            orders.append(layer_orders)
        draws = None
        if drawn:
            n_nodes = sum(len(ids) for ids in graph.nodes.values())
            stacked = np.concatenate([csr.indices for csr in adjacency]).astype(_index_type(n_nodes))
            draws = _FloydDraws.build(stacked, *(np.concatenate(a) for a in zip(*drawn)))
        return cls(
            parts=adjacency * len(fanouts),
            directions=directions,
            draws=draws,
            sampled=sampled,
            orders=orders,
        )

    def draw(self, rng: np.random.Generator) -> NeighborPlan:
        """One plan: a part with no oversized row comes back as the same
        adjacency object, and a layout with none draws nothing."""
        indices = None if self.draws is None else self.draws.draw(rng)
        csrs = [
            part if entry is None else Csr(entry[0], indices[entry[1] : entry[2]])
            for part, entry in zip(self.parts, self.sampled)
        ]
        n = len(self.directions)
        return NeighborPlan(
            [dict(zip(self.directions, csrs[i : i + n])) for i in range(0, len(csrs), n)],
            self.orders,
        )


def _plan_layout(graph: HeteroGraph, fanouts: tuple[int, ...]) -> _PlanLayout:
    """`sample_plan`'s layout for these fanouts, memoized on the graph. The
    key holds the adjacency objects' ids, which stay unique while the layout
    keeps those objects alive, so a graph whose adjacency is replaced gets a
    new layout."""
    fanouts = tuple(int(f) for f in fanouts)
    key = ("plan_layout", fanouts, tuple(id(graph.adj[d]) for d in graph.directions()))
    if key not in graph.memo:
        graph.memo[key] = _PlanLayout.build(graph, fanouts)
    return graph.memo[key]


def sample_plan(
    graph: HeteroGraph, fanouts: tuple[int, ...], rng: np.random.Generator
) -> NeighborPlan:
    """Fresh uniform neighbor sample for every node, per layer and relation.

    The whole plan is one draw over a layout built on the first call for
    this graph and these fanouts (`_PlanLayout`); an adjacency with no row
    above its fanout comes back as the same object."""
    return _plan_layout(graph, fanouts).draw(rng)


def _inference_plan(graph: HeteroGraph, cfg: HgnnConfig) -> NeighborPlan:
    """Full neighborhoods, deterministically subsampled past the cap; every
    layer shares the one draw."""
    plan = sample_plan(graph, (cfg.full_neighborhood_cap,), np.random.default_rng(0))
    return NeighborPlan(plan.layers * cfg.layers, plan.orders and plan.orders * cfg.layers)


# ---------------------------------------------------------------------------
# Batched forward/backward over a shared per-iteration neighbor plan.
# ---------------------------------------------------------------------------


def _segment_max(
    values: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    keep_winners: bool = True,
    order: PoolOrder | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-segment elementwise max, and the slot of the first achieving row.

    Segment i pools rows `indptr[i]:indptr[i+1]` of `values[indices]` without
    building that gathered matrix; a winner's slot counts rows within its
    segment, so its edge position in a CSR is `indptr[i] + slot`. Empty
    segments pool to zero and get slot 0. The segments are walked slot by
    slot in the `PoolOrder` of `indptr` (derived here when `order` is None):
    slot s folds the s-th row of every segment longer than s into the
    running max with the same `np.maximum` a sequential reduction applies.
    Where the s-th row is strictly greater than the running max, slot s sets
    a one-byte flag. After the walk each (segment, column) takes the last
    slot that rose, which is the first maximizing row; a tie keeps the
    earlier row. The slots come in the smallest unsigned type that holds
    them: one byte below 256 slots. With `keep_winners` false the slot loop
    is only the gather and the max, and the slots are None.
    """
    if order is None:
        order = PoolOrder.of(indptr)
    n = len(indptr) - 1
    d = values.shape[1]
    pooled = np.zeros((n, d), dtype=values.dtype)
    slots = order.bounds[1:]
    rank_type = np.min_scalar_type(len(slots))
    winners = np.zeros((n, d), dtype=rank_type) if keep_winners else None
    if not order.bounds:
        return pooled, winners
    neighbors = indices[order.positions]
    best = values[neighbors[: len(order.order)]]
    if keep_winners:
        rose = np.zeros((len(slots), *best.shape), dtype=bool)
    for s, (lo, hi) in enumerate(slots):
        v = values[neighbors[lo:hi]]
        head = best[: hi - lo]
        if keep_winners:
            np.greater(v, head, out=rose[s, : hi - lo])
        np.maximum(head, v, out=head)
    pooled[order.order] = best
    if keep_winners:
        # each flag times its slot number
        rank = rose.view(np.uint8) if rank_type == np.uint8 else rose.astype(rank_type)
        rank *= np.arange(1, len(slots) + 1, dtype=rank.dtype)[:, None, None]
        winners[order.order] = rank.max(axis=0, initial=0)
    return pooled, winners


def _features(graph: HeteroGraph, dtype: np.dtype) -> dict[str, np.ndarray]:
    """The graph's content features by node type, in `node_types` order and
    in `dtype`: the arrays themselves when they are in it, else a cast made
    once and memoized on the graph while it holds the same feature arrays."""
    features = {t: graph.features[t] for t in graph.node_types}
    if all(x.dtype == dtype for x in features.values()):
        return features
    key = ("features", np.dtype(dtype).str)
    held = graph.memo.get(key)
    if held is None or any(held[0].get(t) is not x for t, x in features.items()):
        held = graph.memo[key] = (features, {t: x.astype(dtype) for t, x in features.items()})
    return held[1]


@dataclass
class ForwardCache:
    """What `backward_states` reads of a forward pass. Per layer k: the
    states `h[k]` (`h[0]` is the content features; from layer 1 on, each
    type's rows of one array in flat-id order), whose positive entries are
    where the node update's ReLU passed a gradient. In a training forward,
    per layer k (list position k-1) and direction, `winners` holds two
    (segment, column) arrays in segment order: the slot of the first
    maximizing neighbor within its segment, as `_segment_max` finds it, and
    `live`, where the pooled value is positive, which is exactly where the
    winner's rectified transform passes a gradient. That is one byte each
    per entry below 256 slots; the relation transforms, the pooled values
    and the node update's pre-activations are not kept. `winners` is an
    empty list when the forward pass did not keep it: only training reads
    it, so validation and embedding forwards skip it.

    The output is flat: `z` holds every node's normalized output, one
    (nodes, out_dim) array in flat-id order (see `flat_offsets`), with
    `norms` and `fallback` (see `optim.l2_normalize`) per row; `rows` gives
    each node type's rows of them, so `z[rows[t]]` is a view of type t's.
    `backward_states` consumes the cache: it sets `z`, `norms`, `fallback`,
    each dropped state and each routed layer's winners to None."""

    h: list[dict[str, np.ndarray] | None]
    winners: list[dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] | None]
    rows: dict[str, slice]
    z: np.ndarray | None = None
    norms: np.ndarray | None = None
    fallback: np.ndarray | None = None


def forward_states(
    graph: HeteroGraph, params: HgnnParams, plan: NeighborPlan, *, keep_winners: bool = True
) -> ForwardCache:
    """Compute all node states through every layer of the plan; keep the
    max-pool winners that `backward_states` reads only when `keep_winners`.
    Each layer's states are written into one flat array, so the last one is
    normalized without a copy."""
    features = _features(graph, params.dtype)
    sizes = np.cumsum([0] + [len(x) for x in features.values()]).tolist()
    rows = {t: slice(lo, hi) for t, lo, hi in zip(features, sizes, sizes[1:])}
    widths = params.config.layer_dims(params.feature_dim)
    cache = ForwardCache([features], [], rows)
    for k in range(1, params.config.layers + 1):
        h = cache.h[-1]
        winners = {}
        pool_sum: dict[str, np.ndarray] = {}
        for direction in graph.directions():
            dst_type, src_type = direction
            rel = rel_key(dst_type, src_type)
            csr = plan.layers[k - 1][direction]
            p = h[src_type] @ params.agg_w(k, rel).T
            p += params.agg_b(k, rel)
            pooled, slots = _segment_max(
                np.maximum(p, 0.0, out=p),
                csr.indptr,
                csr.indices,
                keep_winners,
                plan.pool_order(k - 1, direction),
            )
            if keep_winners:
                winners[direction] = (slots, pooled > 0.0)
            if dst_type in pool_sum:
                pool_sum[dst_type] += pooled
            else:
                pool_sum[dst_type] = pooled
        width = next((params.upd_w(k, t).shape[0] for t in rows), widths[k])
        update = np.empty((sizes[-1], width), dtype=params.dtype)
        for t, r in rows.items():
            np.matmul(h[t], params.upd_w(k, t).T, out=update[r])
            if t in pool_sum:
                update[r] += pool_sum.pop(t)
        np.maximum(update, 0.0, out=update)
        cache.h.append({t: update[r] for t, r in rows.items()})
        if keep_winners:
            cache.winners.append(winners)

    cache.z, cache.norms, cache.fallback = l2_normalize(update)
    return cache


def _slot_terms(
    z: np.ndarray, za: np.ndarray, zp: np.ndarray, negatives: np.ndarray, margin: float
):
    """Per negative slot j, in order: a fresh copy of the rows of `z` its
    negatives index (P, d), and its hinge terms `margin + s(a, n) - s(a, p)`
    (P,), given the anchor rows `za` and positive rows `zp`."""
    s_pos = row_dots(za, zp)
    for j in range(negatives.shape[1]):
        zn = z[negatives[:, j]]
        yield zn, row_dots(zn, za) - s_pos + margin


def _hinge_loss(terms: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over (anchor, positive) pairs of the summed active hinge terms
    (P, n_neg), and the mask of active terms. The loss adds the active terms
    in pair-major order."""
    n_pairs, n_neg = terms.shape
    active = terms > 0.0
    total = np.cumsum(terms[active] / n_neg)[-1] if active.any() else 0.0
    return float(total / n_pairs), active


def margin_batch_loss(
    cache: ForwardCache,
    pairs: np.ndarray,
    negatives: np.ndarray,
    margin: float,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Mean over (anchor, positive) pairs of the per-pair hinge loss, the
    gradient with respect to every node's output vector, and the mask of
    active hinge terms.

    `pairs` holds (P, 2) flat (anchor, positive) ids and `negatives` (P, n_neg)
    flat ids (see `flat_offsets`). Every sum adds its terms in the order of a
    loop over pairs and, within a pair, over its negatives.
    """
    z = cache.z
    za, zp = z[pairs[:, 0]], z[pairs[:, 1]]
    n_pairs, n_neg = negatives.shape
    coef = z.dtype.type(1.0 / (n_pairs * n_neg))
    # The scatter's row sources, stacked: coef * za, d_za, -d_sum * za.
    sources = np.empty((3, n_pairs, z.shape[1]), dtype=z.dtype)
    np.multiply(za, coef, out=sources[0])
    d_za = sources[1]
    d_za.fill(0.0)
    d_sum = np.zeros(n_pairs, dtype=z.dtype)
    terms = np.empty((n_pairs, n_neg), dtype=z.dtype)
    # One negative slot at a time, so d_za and d_sum add coef once per active
    # term (k * coef is not coef added k times). Skipping an inactive term, or
    # adding +0.0 for it, changes nothing: a sum from +0.0 never becomes -0.0.
    for j, (zn, slot_terms) in enumerate(_slot_terms(z, za, zp, negatives, margin)):
        terms[:, j] = slot_terms
        act = slot_terms > 0.0
        zn -= zp  # in place: each slot's negative rows are gathered once
        zn *= coef
        np.add(d_za, zn, out=d_za, where=act[:, None])
        d_sum += np.where(act, coef, 0.0)
    loss, active = _hinge_loss(terms)
    np.multiply(-d_sum[:, None], za, out=sources[2])
    sources = sources.reshape(3 * n_pairs, -1)

    # Terms in loop order: each pair's active negatives, its anchor, its
    # positive. Term (target row, source row) of `sources`: pair i's negative
    # terms add row i, its anchor term row P + i, its positive row 2P + i.
    pair = np.arange(n_pairs)
    targets = np.column_stack([negatives, pairs])
    source_ids = np.column_stack(
        [np.tile(pair[:, None], n_neg), pair + n_pairs, pair + 2 * n_pairs]
    )
    kept = np.column_stack([active, np.ones((n_pairs, 2), dtype=bool)])
    rows, src = targets[kept], source_ids[kept]
    # Round r adds every row's r-th term, so a row's terms still add one at a
    # time in loop order, from +0.0; the rows within one round are distinct.
    # Both sorts take their keys in the smallest unsigned type that holds
    # them (node ids below len(z), ranks below the term count), where
    # numpy's stable sort is a radix sort and gives the same permutation.
    by_row = np.argsort(rows.astype(np.min_scalar_type(len(z))), kind="stable")
    rows, src = rows[by_row], src[by_row]
    pos = np.arange(len(rows))
    first = np.concatenate(([True], rows[1:] != rows[:-1]))
    rank = pos - np.maximum.accumulate(np.where(first, pos, 0))
    by_round = np.argsort(rank.astype(np.min_scalar_type(len(rank))), kind="stable")
    rows, src = rows[by_round], src[by_round]
    dz = np.zeros_like(z)
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        dz[rows[lo:hi]] += sources[src[lo:hi]]
        lo = hi
    return loss, {t: dz[r] for t, r in cache.rows.items()}, active


def _route_pooled(
    indptr: np.ndarray,
    indices: np.ndarray,
    slots: np.ndarray,
    live: np.ndarray,
    grad: np.ndarray,
    n_src: int,
) -> np.ndarray:
    """d(loss)/d(p) of one direction's `n_src` source pre-activations `p`,
    given d(loss)/d(pooled) in `grad`: each (segment, column) gradient goes
    to its first maximizing source node, at edge position `indptr[i] + slot`,
    where the pooled value is positive (`live`), since relu'(p) there is that
    of the winner's pre-activation.

    One bincount over every (segment, column), in row-major order: a dead
    entry (an empty segment, or a winner at or below 0) adds +0.0, which
    changes no bin, as a bin starts at +0.0 and so never holds -0.0. An empty
    segment's position is clipped to the last edge: it may start past it.
    The positions, their source ids and the bins are one int64 buffer.

    `np.bincount` sums every bin in float64, whatever the dtype of `grad`;
    the result is cast to that dtype once, so a float32 bin sums in float64,
    then rounds once.
    """
    d = grad.shape[1]
    if not len(indices):
        return np.zeros((n_src, d), dtype=grad.dtype)
    flat = np.add(np.minimum(indptr[:-1], len(indices) - 1)[:, None], slots, dtype=np.int64)
    # every position is an edge, so clipping changes none; unlike "raise",
    # "clip" writes `out` directly, reading each position before its id
    np.take(indices, flat, out=flat, mode="clip")
    flat *= d
    flat += np.arange(d)
    weights = np.where(live, grad, 0.0)
    pooled = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=n_src * d)
    return pooled.reshape(n_src, d).astype(grad.dtype, copy=False)


def backward_states(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    cache: ForwardCache,
    dz: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss given d(loss)/d(z) per node
    type, in the weights' dtype.

    Consumes `cache`, as `Adam.step` consumes its gradients, so the step
    holds only what is still to be read: `z`, `norms` and `fallback` go once
    the output gradient is formed; each layer's ReLU mask is applied in
    place on its state gradient, and its states `h[k]` go once that mask is
    read; its `winners` go once the layer is routed. The content features
    `h[0]` stay. A consumed cache is refused: run `forward_states` again."""
    n_layers = params.config.layers
    if cache.z is None:
        raise ValueError(
            "forward cache was consumed by an earlier backward_states; run forward_states again"
        )
    if not cache.winners:
        raise ValueError(
            "forward cache holds no max-pool winners; build it with keep_winners=True"
        )
    grads = {key: np.zeros_like(val) for key, val in params.weights.items()}

    z, norms, fallback = cache.z, cache.norms, cache.fallback
    cache.z = cache.norms = cache.fallback = None
    d_h = {
        t: l2_normalize_grad(z[r], norms[r], fallback[r], dz[t]) for t, r in cache.rows.items()
    }
    del z, norms, fallback

    for k in range(n_layers, 0, -1):
        # layer 1's input is the fixed content features: no gradient flows on
        inner = k > 1
        h_in = cache.h[k - 1]
        d_prev = {t: np.zeros_like(h_in[t]) for t in graph.node_types} if inner else {}
        for t in graph.node_types:
            r = d_h[t]
            np.multiply(r, cache.h[k][t] > 0.0, out=r)
            grads[f"upd.W.{k}.{t}"] += r.T @ h_in[t]
            if inner:
                d_prev[t] += r @ params.upd_w(k, t)
        cache.h[k] = None
        for direction in graph.directions():
            dst_type, src_type = direction
            rel = rel_key(dst_type, src_type)
            csr = plan.layers[k - 1][direction]
            d_p = _route_pooled(
                csr.indptr,
                csr.indices,
                *cache.winners[k - 1][direction],
                d_h[dst_type],
                len(h_in[src_type]),
            )
            grads[f"agg.W.{k}.{rel}"] += d_p.T @ h_in[src_type]
            grads[f"agg.b.{k}.{rel}"] += d_p.sum(axis=0)
            if inner:
                d_prev[src_type] += d_p @ params.agg_w(k, rel)
        cache.winners[k - 1] = None
        d_h = d_prev
    return grads


def batch_loss_and_grads(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    pairs: np.ndarray,
    negatives: np.ndarray,
) -> tuple[float, dict[str, np.ndarray], np.ndarray]:
    """Loss, parameter gradients and the active-hinge mask of one batch."""
    cache = forward_states(graph, params, plan, keep_winners=True)
    loss, dz, active = margin_batch_loss(cache, pairs, negatives, params.config.margin)
    grads = backward_states(graph, params, plan, cache, dz)
    return loss, grads, active


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
    picked = {
        rel: pool[rel][np.sort(rng.choice(c, size=n, replace=False))]
        for rel, c in sorted(nonzero.items())
    }
    return _triples(picked)


def _triples(pairs_by_rel: dict[str, np.ndarray]) -> list[tuple[str, int, int]]:
    """(rel, i, j) for each row (i, j) of each relation's pairs, relations
    in sorted order."""
    out: list[tuple[str, int, int]] = []
    for rel in sorted(pairs_by_rel):
        pairs = pairs_by_rel[rel]
        out += zip([rel] * len(pairs), *pairs.T.tolist())
    return out


def flat_offsets(graph: HeteroGraph) -> dict[str, int]:
    """Where each node type starts in the flat node numbering, which lists
    the types in `node_types` order."""
    sizes = [len(graph.nodes[t]) for t in graph.node_types]
    return dict(zip(graph.node_types, np.cumsum([0] + sizes[:-1]).tolist()))


_BYTE_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


@dataclass
class ExclusionIndex:
    """The flat ids a negative for each anchor may not take (the anchor and
    its direct neighbors), as one bit row per anchor: bit `id % 8` of byte
    `id // 8` in row `anchor` is set when `id` is excluded. The rows take
    n_nodes * ceil(n_nodes / 8) bytes: 9.7 KB on the default graph's 277
    nodes, 0.97 MB on the wide-catalog graph's 2,791."""

    n_nodes: int
    bits: np.ndarray  # (n_nodes, ceil(n_nodes / 8)) uint8
    n_candidates: np.ndarray  # per anchor: n_nodes minus its excluded ids

    @classmethod
    def build(cls, graph: HeteroGraph) -> "ExclusionIndex":
        offsets = flat_offsets(graph)
        n = sum(len(ids) for ids in graph.nodes.values())
        anchors, excluded = [np.arange(n, dtype=np.int64)], [np.arange(n, dtype=np.int64)]
        for (dst, src), csr in graph.adj.items():
            rows = np.repeat(np.arange(len(csr.indptr) - 1), np.diff(csr.indptr))
            anchors.append(rows + offsets[dst])
            excluded.append(csr.indices + offsets[src])
        anchor, ids = np.concatenate(anchors), np.concatenate(excluded)
        bits = np.zeros((n, (n + 7) // 8), dtype=np.uint8)
        np.bitwise_or.at(bits, (anchor, ids >> 3), (1 << (ids & 7)).astype(np.uint8))
        return cls(n, bits, n - _BYTE_POPCOUNT[bits].sum(axis=1, dtype=np.int64))

    def allowed(self, anchors: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Mask of `candidates[i, :]` that are valid negatives for `anchors[i]`;
        a single anchor stands for every row."""
        byte = self.bits.ravel().take(anchors[:, None] * self.bits.shape[1] + (candidates >> 3))
        return (byte >> (candidates & 7).astype(np.uint8)) & 1 == 0


def _sample_negative_refs(
    index: ExclusionIndex,
    anchors: np.ndarray,
    n_neg: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per anchor, `n_neg` uniform draws (with replacement) over all nodes,
    rejecting the anchor and its direct neighbors; flat ids in and out.

    Each anchor in turn draws chunks of max(n_neg, 32) candidates until it
    has n_neg survivors, and fails after 1000 * n_neg draws. Consecutive
    `integers` calls with one bound yield the same numbers as one call, so
    the chunks are drawn in blocks, one chunk per remaining anchor, and kept
    in `pending` in stream order until handed out. A short anchor takes
    further chunks from `pending` before drawing more; the anchors after it
    continue with the rest, and only the shortfall is drawn. A block holds
    at most 1000 * n_neg draws, so an anchor that reaches the limit has used
    every pending chunk, and the stream matches the per-anchor loop up to
    either error.

    Most anchors are settled in windows: one test of the next pending
    chunks, each against the anchor it goes to if no anchor before it is
    short. The window doubles while no anchor is short; after a short one it
    shrinks to the run of anchors before it. The short anchor, and each
    anchor while the window holds at most one, is tested alone, one chunk
    at a time. So a chunk is tested against an anchor it does not go to only
    in a window that found a short anchor, and the tests stay linear in the
    draws however many anchors are short.
    """
    anchors = np.asarray(anchors, dtype=np.int64)
    out = np.empty((len(anchors), n_neg), dtype=np.int64)
    dense = np.flatnonzero(index.n_candidates[anchors] < 1)
    stop = int(dense[0]) if len(dense) else len(anchors)
    chunk, limit = max(n_neg, 32), 1000 * n_neg
    pending = np.zeros((0, chunk), dtype=np.int64)
    row, window = 0, stop
    while n_neg and row < stop:
        if not len(pending):
            pending = rng.integers(0, index.n_nodes, size=(min(stop - row, limit // chunk), chunk))
        found, n_drawn = np.zeros(0, dtype=np.int64), 0
        if window > 1:
            # one pending chunk per anchor from `row` on; there are never more
            window = min(window, len(pending))
            ok = index.allowed(anchors[row : row + window], pending[:window])
            short = np.flatnonzero(ok.sum(axis=1) < n_neg)
            done = int(short[0]) if len(short) else window
            first = ok[:done] & (np.cumsum(ok[:done], axis=1) <= n_neg)
            out[row : row + done] = pending[:done][first].reshape(done, n_neg)
            row += done
            pending = pending[done:]
            if not len(short):
                window *= 2
                continue
            window = done
            found, pending, n_drawn = pending[0][ok[done]], pending[1:], chunk
        anchor = anchors[row : row + 1]
        while len(found) < n_neg:
            budget = min(limit - n_drawn, chunk)
            if budget <= 0:
                raise RuntimeError(
                    f"negative sampling for anchor {anchor[0]} exceeded {limit} draws"
                )
            if len(pending):  # a full chunk: the block fits within the limit
                more, pending = pending[0], pending[1:]
            else:
                more = rng.integers(0, index.n_nodes, size=budget)
            n_drawn += budget
            found = np.concatenate([found, more[index.allowed(anchor, more[None])[0]]])
        out[row] = found[:n_neg]
        row += 1
        if n_drawn == chunk:  # one chunk was enough: try a window again
            window = max(2 * window, 2)
    if stop < len(anchors):
        raise RuntimeError(
            f"no negative candidates for anchor {anchors[stop]}: graph too dense"
        )
    return out


# ---------------------------------------------------------------------------
# Embedding tables and training.
# ---------------------------------------------------------------------------


@dataclass
class NodeEmbeddingTable:
    item_ids: list[str]
    matrix: np.ndarray
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
        """Packed container: the ids as an `io.id_column` and the float64
        matrix."""
        write_pack(
            path,
            {"kind": "embeddings"},
            {
                "item_ids": id_column(self.item_ids),
                "matrix": np.asarray(self.matrix, dtype=np.float64),
            },
        )

    @classmethod
    def load(cls, path) -> "NodeEmbeddingTable":
        """The table `save` wrote: one or more distinct ids, in the table's
        row order, one per matrix row."""
        _, arrays = read_pack(path, "embeddings")
        item_ids = column_ids(path, "item_ids", arrays["item_ids"])
        if not len(item_ids):
            raise ValueError(f"{path}: empty embedding table")
        check_rows(path, arrays.shapes["matrix"], item_ids=item_ids)
        # ids rise within each node type and among the inductive rows, and
        # numpy's stable sort merges sorted runs
        check_rising(path, "item_ids", np.sort(item_ids, kind="stable"))
        return cls(item_ids.tolist(), arrays["matrix"])


def embed_all(graph: HeteroGraph, params: HgnnParams) -> NodeEmbeddingTable:
    """Embed every graph node: full neighborhoods up to the configured cap,
    deterministically subsampled past it."""
    cache = forward_states(
        graph, params, _inference_plan(graph, params.config), keep_winners=False
    )
    # `z` lists the nodes in flat-id order: each type's ids in turn
    return NodeEmbeddingTable(
        item_ids=[item_id for t in graph.node_types for item_id in graph.nodes[t]],
        matrix=cache.z,
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
    cache = forward_states(
        isolated, params, NeighborPlan([{}] * params.config.layers), keep_winners=False
    )
    offsets = flat_offsets(isolated)
    flat = [offsets[t] + j for t, j in map(isolated.node_ref, weight_type)]
    return NodeEmbeddingTable(
        item_ids=table.item_ids + list(weight_type),
        matrix=np.concatenate([table.matrix, cache.z[flat]]),
    )


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    val_loss: float
    wall_time: float
    sampled_edges: dict[str, int]
    hinge_active_share: float  # active hinge terms over all terms of the epoch's batches
    fallback_nodes: int | None  # zero-norm rows in the validation forward pass


@dataclass
class HgnnTrainResult:
    params: HgnnParams
    log: list[EpochLog]


def _directed_pairs(
    edges: list[tuple[str, int, int]], offsets: dict[str, int]
) -> tuple[np.ndarray, dict[str, int]]:
    """(2E, 2) flat (anchor, positive) ids: each edge (i, j) as (i, j), then
    (j, i); and the number of edges per relation, relations in sorted order."""
    rels, i, j = zip(*edges) if edges else ((), (), ())
    names, rel_at, counts = np.unique(
        np.array(rels, dtype=str), return_inverse=True, return_counts=True
    )
    starts = np.array([[offsets[t] for t in rel_types(str(r))] for r in names], dtype=np.int64)
    flat = np.array([i, j], dtype=np.int64).T + starts.reshape(-1, 2)[rel_at]
    counted = {str(r): int(c) for r, c in zip(names, counts)}
    return np.stack([flat, flat[:, ::-1]], axis=1).reshape(-1, 2), counted


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


def _validate(
    graph: HeteroGraph,
    params: HgnnParams,
    plan: NeighborPlan,
    pairs: np.ndarray,
    negatives: np.ndarray,
) -> tuple[float, int]:
    """Validation loss and the number of zero-norm (fallback) output rows.
    The loss reads only the output, so the forward's states are dropped
    before it."""
    cache = forward_states(graph, params, plan, keep_winners=False)
    z, n_fallback = cache.z, int(cache.fallback.sum())
    del cache
    za, zp = z[pairs[:, 0]], z[pairs[:, 1]]
    slots = _slot_terms(z, za, zp, negatives, params.config.margin)
    loss, _ = _hinge_loss(np.column_stack([slot_terms for _, slot_terms in slots]))
    return loss, n_fallback


def train_hgnn(graph: HeteroGraph, params: HgnnParams, seed: int) -> HgnnTrainResult:
    """Optimize the margin ranking loss over relation-balanced edge batches.

    Each epoch redraws the balanced edge sample and every batch redraws its
    negatives, then its neighbor plan. The best parameters by validation loss
    are kept; training stops after `patience` epochs without improvement.
    """
    params.check("hgnn params")
    cfg = params.config
    rng = np.random.default_rng(seed)
    train_pool, val_pool = _split_validation_edges(graph, cfg.val_fraction, rng)
    if all(len(p) == 0 for p in train_pool.values()):
        raise ValueError("no training edges after validation split")
    offsets = flat_offsets(graph)
    exclusion = ExclusionIndex.build(graph)

    # Fixed balanced validation set with fixed negatives, comparable across epochs.
    val_pairs = np.zeros((0, 2), dtype=np.int64)
    if any(len(p) > 0 for p in val_pool.values()):
        val_pairs, _ = _directed_pairs(balanced_edge_sample(graph, rng, edge_pool=val_pool), offsets)
        val_negs = _sample_negative_refs(exclusion, val_pairs[:, 0], cfg.n_negatives, rng)
    val_plan = _inference_plan(graph, cfg)

    adam = Adam(learning_rate=cfg.learning_rate)
    best = params.copy()
    best_val = np.inf
    epochs_since_best = 0
    log: list[EpochLog] = []

    for epoch in range(1, cfg.max_epochs + 1):
        t_start = time.perf_counter()
        # the (rel, i, j) triples are dropped once they are pairs
        edge_pairs, sampled_counts = _directed_pairs(
            balanced_edge_sample(graph, rng, edge_pool=train_pool)
            if cfg.balanced_sampler
            else _triples(train_pool),
            offsets,
        )
        edge_pairs = edge_pairs.reshape(-1, 2, 2)  # per edge: both directions
        order = rng.permutation(len(edge_pairs))
        epoch_loss = 0.0
        n_active = n_terms = 0
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            pairs = edge_pairs[order[start : start + cfg.batch_size]].reshape(-1, 2)
            negs = _sample_negative_refs(exclusion, pairs[:, 0], cfg.n_negatives, rng)
            plan = sample_plan(graph, cfg.fanouts, rng)
            loss, grads, active = batch_loss_and_grads(graph, params, plan, pairs, negs)
            if not np.isfinite(loss):
                raise RuntimeError(
                    f"non-finite training loss in epoch {epoch}, batch {n_batches}"
                )
            adam.step(params.weights, grads)
            epoch_loss += loss * len(pairs)
            n_active += int(active.sum())
            n_terms += active.size
            n_batches += 1
        epoch_loss /= max(1, 2 * len(edge_pairs))

        if len(val_pairs):
            val_loss, fallback_nodes = _validate(graph, params, val_plan, val_pairs, val_negs)
        else:
            val_loss, fallback_nodes = epoch_loss, None
        log.append(
            EpochLog(
                epoch=epoch,
                train_loss=float(epoch_loss),
                val_loss=float(val_loss),
                wall_time=time.perf_counter() - t_start,
                sampled_edges=sampled_counts,
                hinge_active_share=n_active / max(1, n_terms),
                fallback_nodes=fallback_nodes,
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
