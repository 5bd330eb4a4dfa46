"""The batched HGNN training step against the loops it replaced: equal
arrays, equal losses and the same random stream, checked through the
generator's state after each call."""

import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec import hgnn
from audiorec.graph import Csr, HeteroGraph, load_graph
from audiorec.hgnn import (
    ExclusionIndex,
    ForwardCache,
    HgnnConfig,
    HgnnParams,
    NeighborPlan,
    NodeEmbeddingTable,
    PoolOrder,
    _directed_pairs,
    _inference_plan,
    _plan_layout,
    _route_pooled,
    _sample_negative_refs,
    _segment_max,
    backward_states,
    balanced_edge_sample,
    embed_catalog,
    flat_offsets,
    forward_states,
    margin_batch_loss,
    sample_plan,
    train_hgnn,
)
from audiorec.io import read_pack
from audiorec.optim import Adam
from audiorec.pipeline import PipelineConfig, run_stage

from helpers_gradcheck import random_hgnn_instance
from oracles import (
    all_neighbors,
    argfirst_of,
    backward_states_add_at,
    flat_node_list,
    floyd_choice,
    forward_states_edge_first,
    margin_batch_loss_loop,
    route_pooled_by_slots,
    route_pooled_nonzero,
    sample_negative_refs_loop,
    sample_negatives_loop,
    sample_plan_loop,
    segment_max_reduceat,
)


@pytest.fixture(params=["float64", "float32"])
def dtype(request) -> np.dtype:
    """Each dtype the HGNN runs in: the byte-exact contracts hold in both."""
    return np.dtype(request.param)


def same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    def plain(state):  # MT19937 keeps its key as an array
        return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist() for k, v in state.items()}

    return plain(a.bit_generator.state) == plain(b.bit_generator.state)


def assert_plans_equal(got, want):
    assert len(got.layers) == len(want.layers)
    for g_layer, w_layer in zip(got.layers, want.layers):
        assert g_layer.keys() == w_layer.keys()
        for direction in g_layer:
            assert np.array_equal(g_layer[direction].indptr, w_layer[direction].indptr)
            assert np.array_equal(g_layer[direction].indices, w_layer[direction].indices)
            assert g_layer[direction].indices.dtype == np.int64


def star_graph(n_leaves: int, hub_degree: int) -> HeteroGraph:
    """Podcast 0 joined to podcasts 1..hub_degree; podcasts up to n_leaves
    exist, the ones past hub_degree isolated."""
    n = n_leaves + 1
    leaves = np.arange(1, hub_degree + 1)
    dst = np.concatenate([np.zeros(hub_degree, dtype=np.int64), leaves])
    src = np.concatenate([leaves, np.zeros(hub_degree, dtype=np.int64)])
    order = np.lexsort((src, dst))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n)))).astype(np.int64)
    return HeteroGraph(
        nodes={"podcast": [f"p{i:05d}" for i in range(n)]},
        features={"podcast": np.zeros((n, 2))},
        adj={("podcast", "podcast"): Csr(indptr, src[order].astype(np.int64))},
        edges={"pp": np.stack([np.zeros(hub_degree, dtype=np.int64), leaves], axis=1)},
        relations=("pp",),
    )


def dense_graph(n: int, density: float, seed: int) -> HeteroGraph:
    """Podcasts 0..n-1, each pair joined with probability `density`."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1)
    dst, src = np.nonzero(upper | upper.T)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n)))).astype(np.int64)
    return HeteroGraph(
        nodes={"podcast": [f"p{i:03d}" for i in range(n)]},
        features={"podcast": np.zeros((n, 2))},
        adj={("podcast", "podcast"): Csr(indptr, src.astype(np.int64))},
        edges={"pp": np.argwhere(upper)},
        relations=("pp",),
    )


class TestPlans:
    @pytest.mark.parametrize("fanouts", [(1, 2), (3, 3), (8, 8), (50, 50)])
    def test_matches_per_node_loop(self, small_graph, fanouts):
        degrees = np.concatenate([np.diff(c.indptr) for c in small_graph.adj.values()])
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert_plans_equal(
            sample_plan(small_graph, fanouts, rng), sample_plan_loop(small_graph, fanouts, ref)
        )
        assert same_state(rng, ref)
        if fanouts == (3, 3):  # rows below, at and above the fanout
            assert {-1, 0, 1} <= set(np.sign(degrees - 3).tolist())

    def test_no_row_above_fanout_keeps_the_adjacency(self):
        g = star_graph(4, 4)  # hub degree 4, leaves 1
        rng = np.random.default_rng(0)
        plan = sample_plan(g, (4,), rng)
        assert plan.layers[0][("podcast", "podcast")] is g.adj[("podcast", "podcast")]
        assert same_state(rng, np.random.default_rng(0))

    def test_twenty_consecutive_plans_over_one_layout(self):
        # fanout 1 is below every nonzero degree, 9 at the largest, 10 above
        # every degree, so its layer keeps both adjacencies
        g = degree_graph([0, 1, 2, 5, 9], [3, 9, 1, 4])
        fanouts = (1, 4, 9, 10)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = [sample_plan(g, fanouts, rng) for _ in range(20)]
        want = [sample_plan_loop(g, fanouts, ref) for _ in range(20)]
        for plan, want_plan in zip(got, want):  # earlier plans are not overwritten
            assert_plans_equal(plan, want_plan)
            for direction, csr in plan.layers[3].items():
                assert csr is g.adj[direction]
        assert same_state(rng, ref)
        assert _plan_layout(g, fanouts) is _plan_layout(g, fanouts)

    def test_fanout_tuples_do_not_share_a_layout(self):
        g = degree_graph([0, 1, 2, 5, 9], [3, 9, 1, 4])
        assert _plan_layout(g, (2, 4)) is not _plan_layout(g, (4, 2))
        rng, ref = np.random.default_rng(8), np.random.default_rng(8)
        for fanouts in [(2, 4), (4, 2), (2, 4), (3,), (4, 2)]:
            assert_plans_equal(sample_plan(g, fanouts, rng), sample_plan_loop(g, fanouts, ref))
        assert same_state(rng, ref)
        # a replaced adjacency gets a layout of its own
        g.adj[("podcast", "podcast")] = degree_graph([1], [2, 2, 2, 2]).adj[("podcast", "podcast")]
        assert_plans_equal(sample_plan(g, (1,), rng), sample_plan_loop(g, (1,), ref))
        assert same_state(rng, ref)

    def test_capped_inference_plan(self, small_graph, small_hgnn_config):
        cfg = HgnnConfig(**{**vars(small_hgnn_config), "full_neighborhood_cap": 2})
        assert max(np.diff(c.indptr).max() for c in small_graph.adj.values()) > 2
        want = sample_plan_loop(small_graph, (2,), np.random.default_rng(0))
        got = _inference_plan(small_graph, cfg)
        assert_plans_equal(got, type(got)(want.layers * cfg.layers))


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def generator(bit_generator, buffered: bool) -> np.random.Generator:
    """A fresh generator; `buffered` first draws one 32-bit value, which
    leaves a 64-bit generator holding the other half-word of its output."""
    rng = np.random.Generator(bit_generator)
    if buffered:
        rng.integers(2**32, dtype=np.uint32)
    return rng


def degree_graph(audiobook_degrees: list[int], podcast_degrees: list[int]) -> HeteroGraph:
    """Two adjacency directions whose rows have the given lengths; the
    neighbor ids are arbitrary, since only the sampler reads them."""

    def csr(degrees, n_src):
        indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        return Csr(indptr, np.arange(indptr[-1], dtype=np.int64) % n_src)

    n_a, n_p = len(audiobook_degrees), len(podcast_degrees)
    return HeteroGraph(
        nodes={"audiobook": [f"a{i}" for i in range(n_a)], "podcast": [f"p{i}" for i in range(n_p)]},
        features={"audiobook": np.zeros((n_a, 2)), "podcast": np.zeros((n_p, 2))},
        adj={
            ("audiobook", "podcast"): csr(audiobook_degrees, n_p),
            ("podcast", "podcast"): csr(podcast_degrees, n_p),
        },
        edges={},
        relations=("ap", "pp"),
    )


# default_rng(2869) rejects one of the 127 Lemire draws of
# choice(9999, 64, replace=False), found by a search over seeds
REJECTING_SEED, REJECTING_POP, REJECTING_FANOUT = 2869, 9999, 64

# numpy's choice(pop, f, replace=False) runs Floyd's algorithm for pop <= 10000
# or f <= pop // 50; for a row of 12,000 that is f <= 240
WIDE_POP, WIDE_FLOYD_MAX = 12_000, 240


class TestBulkChoice:
    """`sample_plan` draws every oversized row's neighbors by Floyd's
    algorithm in one `rng.integers` call; it must match `floyd_choice` row by
    row, state included, and so `rng.choice` wherever numpy runs Floyd."""

    def check(self, graph, fanouts, make_rng):
        rng, ref = make_rng(), make_rng()
        assert_plans_equal(sample_plan(graph, fanouts, rng), sample_plan_loop(graph, fanouts, ref))
        assert same_state(rng, ref)

    @settings(max_examples=60, deadline=None)
    @given(
        audiobook_degrees=st.lists(st.integers(0, 400), min_size=1, max_size=12),
        podcast_degrees=st.lists(st.integers(0, 400), min_size=1, max_size=12),
        huge_row=st.booleans(),
        fanouts=st.lists(st.integers(1, 64), min_size=1, max_size=3),
        seed=st.integers(0, 2**32 - 1),
        bit_generator=st.sampled_from(BIT_GENERATORS),
        buffered=st.booleans(),
    )
    def test_matches_per_row_choice(
        self, audiobook_degrees, podcast_degrees, huge_row, fanouts, seed, bit_generator, buffered
    ):
        if huge_row:  # a population past 10,000, still inside Floyd's range
            podcast_degrees = podcast_degrees + [10_001 + seed % 50]
        graph = degree_graph(audiobook_degrees, podcast_degrees)
        self.check(graph, tuple(fanouts), lambda: generator(bit_generator(seed), buffered))

    @pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered"])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_matches_floyd_oracle(self, bit_generator, buffered):
        # rows past 10,000 on both sides of f = pop // 50, beside short ones
        graph = degree_graph([700, 3, 0], [WIDE_POP, 40, WIDE_POP, 9])
        for fanouts in ((WIDE_FLOYD_MAX, 5), (WIDE_FLOYD_MAX + 1, 2)):
            self.check(graph, fanouts, lambda: generator(bit_generator(11), buffered))

    def test_rejected_lemire_draw(self):
        # the premise: the row takes 2f - 1 = 127 bounded draws, and one
        # rejection costs a 128th 32-bit value
        rng, raw = np.random.default_rng(REJECTING_SEED), np.random.default_rng(REJECTING_SEED)
        rng.choice(REJECTING_POP, REJECTING_FANOUT, replace=False)
        raw.integers(2**32, size=2 * REJECTING_FANOUT - 1, dtype=np.uint32)
        assert not same_state(rng, raw)
        raw.integers(2**32, dtype=np.uint32)
        assert same_state(rng, raw)
        graph = star_graph(REJECTING_POP, REJECTING_POP)
        self.check(graph, (REJECTING_FANOUT,), lambda: np.random.default_rng(REJECTING_SEED))

    @pytest.mark.parametrize("buffered", [False, True], ids=["aligned", "buffered"])
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    def test_floyd_oracle_is_choice_where_numpy_runs_floyd(self, bit_generator, buffered):
        cases = [(2, 1), (40, 5), (REJECTING_POP, REJECTING_FANOUT), (10_000, 9_999)]
        cases += [(WIDE_POP, WIDE_FLOYD_MAX), (50_000, 3)]
        for seed in (REJECTING_SEED, 3):
            for pop, f in cases:
                rng = generator(bit_generator(seed), buffered)
                ref = generator(bit_generator(seed), buffered)
                assert np.array_equal(floyd_choice(rng, pop, f), ref.choice(pop, f, replace=False))
                assert same_state(rng, ref)
        # past both limits numpy shuffles a tail instead: another stream
        rng, ref = generator(bit_generator(3), buffered), generator(bit_generator(3), buffered)
        floyd_choice(rng, WIDE_POP, WIDE_FLOYD_MAX + 1)
        ref.choice(WIDE_POP, WIDE_FLOYD_MAX + 1, replace=False)
        assert not same_state(rng, ref)

    def test_consecutive_plans_on_the_default_graph(self, tmp_path):
        config = PipelineConfig(seed=7)
        for stage in ("synth", "split", "build-graph"):
            run_stage(stage, config, tmp_path)
        graph = load_graph(tmp_path / "graph.bin")
        fanouts = config.hgnn.fanouts
        assert max(np.diff(c.indptr).max() for c in graph.adj.values()) > max(fanouts)
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(5):  # consecutive plans continue one stream
            assert_plans_equal(sample_plan(graph, fanouts, rng), sample_plan_loop(graph, fanouts, ref))
        assert same_state(rng, ref)


def test_library_draws_only_through_the_generator_api():
    # the streams above are numpy's documented Generator methods; raw words
    # and saved states tie the library to one bit generator's internals
    package = Path(hgnn.__file__).parent
    for path in sorted(package.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in ("bit_generator", "random_raw"):
            assert name not in text, f"{path.relative_to(package)} mentions {name}"


class CountingGenerator:
    """Forwards `integers` to a generator and counts the values drawn."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.drawn = rng, 0

    def integers(self, *args, **kwargs):
        out = self.rng.integers(*args, **kwargs)
        self.drawn += out.size
        return out


class TestExclusionIndex:
    @pytest.mark.parametrize(
        "graph",
        [
            star_graph(0, 0),  # one isolated node
            star_graph(6, 4),  # 7 nodes, 2 isolated
            star_graph(7, 7),  # 8 nodes: one full byte per row
            star_graph(8, 5),  # 9 nodes: a second byte with one bit
            dense_graph(120, 0.3, seed=4),
            star_graph(119, 119),  # a hub joined to every other node
        ],
        ids=["n1", "n7", "n8", "n9", "n120", "n120-hub"],
    )
    def test_every_pair_matches_the_neighbor_sets(self, graph):
        self.check(graph)

    def test_two_node_types(self, small_graph):
        self.check(small_graph)

    def check(self, graph):
        index = ExclusionIndex.build(graph)
        flat = flat_node_list(graph)
        n = len(flat)
        assert index.n_nodes == n
        ids = np.arange(n)
        allowed = index.allowed(ids, np.tile(ids, (n, 1)))
        for a, ref in enumerate(flat):
            excluded = all_neighbors(graph, *ref) | {ref}
            want = [r not in excluded for r in flat]
            assert allowed[a].tolist() == want
            # a single anchor stands for every row
            assert index.allowed(ids[a : a + 1], np.tile(ids, (2, 1))).tolist() == [want, want]
            assert index.n_candidates[a] == n - len(excluded)


class TestNegatives:
    def check(self, graph, anchors, n_neg, seed):
        """Batched draw against the per-anchor loop; returns the batched rows."""
        flat = flat_node_list(graph)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _sample_negative_refs(ExclusionIndex.build(graph), np.array(anchors), n_neg, rng)
        want = [sample_negative_refs_loop(graph, flat[a], n_neg, ref) for a in anchors]
        assert [[flat[r] for r in row] for row in got.tolist()] == want
        assert same_state(rng, ref)
        return got

    def test_batch_matches_per_anchor_loop(self, small_graph):
        n = len(flat_node_list(small_graph))
        anchors = np.random.default_rng(1).integers(0, n, size=300).tolist()
        for n_neg in (1, 4, 10, 40):
            self.check(small_graph, anchors, n_neg, seed=n_neg)

    def test_mostly_short_batch_matches_per_anchor_loop(self):
        # each anchor excludes about 93% of the nodes: about 2 survivors per
        # chunk of 32, so most anchors top up and the chunks after them move
        g = dense_graph(120, 0.93, seed=5)
        index = ExclusionIndex.build(g)
        anchors = np.random.default_rng(2).integers(0, 120, size=300)
        for n_neg in (3, 10):
            # most anchors expect fewer than n_neg survivors in a chunk
            short = index.n_candidates[anchors] * max(n_neg, 32) < n_neg * index.n_nodes
            assert short.mean() > 0.8
            self.check(g, anchors.tolist(), n_neg, seed=n_neg)

    def test_dense_batch_of_1000_anchors(self):
        # each anchor excludes about 80% of the 277 nodes, so most anchors
        # are short in their first chunk of 32 draws
        g = dense_graph(277, 0.8, seed=3)
        anchors = np.random.default_rng(6).integers(0, 277, size=1000)
        self.check(g, anchors.tolist(), n_neg=10, seed=9)

    def test_tests_stay_linear_in_the_draws(self, monkeypatch):
        g = dense_graph(277, 0.8, seed=3)
        index = ExclusionIndex.build(g)
        anchors = np.random.default_rng(6).integers(0, 277, size=1000)
        assert (index.n_candidates[anchors] * 32 < 10 * 277).mean() > 0.8
        tested = 0
        allowed = index.allowed

        def counted(a, candidates):
            nonlocal tested
            tested += candidates.size
            return allowed(a, candidates)

        monkeypatch.setattr(index, "allowed", counted)
        rng = CountingGenerator(np.random.default_rng(9))
        _sample_negative_refs(index, anchors, 10, rng)
        assert rng.drawn <= tested <= 2 * rng.drawn

    def test_anchor_succeeding_in_the_partial_last_chunk(self):
        # with n_neg 1 the limit of 1,000 draws is 31 chunks of 32, then 8;
        # at seed 195 the hub's one candidate comes at its 997th draw
        g = star_graph(2999, 2998)
        stream = np.random.default_rng(195).integers(0, 3000, size=32 + 1000)
        assert np.flatnonzero(stream[32:] == 2999)[0] == 996
        got = self.check(g, [1, 0, 2], n_neg=1, seed=195)
        assert got[1, 0] == 2999

    def test_anchor_needing_several_chunks(self):
        # the hub excludes 97 of 100 nodes: about 1 survivor per 32 draws
        g = star_graph(99, 96)
        got = self.check(g, [5, 0, 7, 0, 0, 3], n_neg=6, seed=2)
        assert set(got[1].tolist()) <= {97, 98, 99}

    def test_too_dense_raises_after_earlier_anchors(self):
        g = star_graph(3, 3)  # the hub is adjacent to every other node
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        with pytest.raises(RuntimeError, match="too dense"):
            _sample_negative_refs(ExclusionIndex.build(g), np.array([1, 2, 0, 3]), 2, rng)
        sample_negative_refs_loop(g, ("podcast", 1), 2, ref)
        sample_negative_refs_loop(g, ("podcast", 2), 2, ref)
        with pytest.raises(RuntimeError, match="too dense"):
            sample_negative_refs_loop(g, ("podcast", 0), 2, ref)
        assert same_state(rng, ref)

    def test_draw_limit_raises_with_the_same_stream(self):
        # one candidate among 3,000 nodes, 1,000 draws allowed for n_neg=1
        g = star_graph(2999, 2998)
        index = ExclusionIndex.build(g)
        raised = 0
        # the second batch draws more than 1,000 values ahead without a limit
        # on its blocks
        for anchors in ([1, 0, 2], [0] + [1] * 40):
            for seed in range(6):
                rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                try:
                    got = _sample_negative_refs(index, np.array(anchors), 1, rng)
                except RuntimeError as exc:
                    assert "exceeded 1000 draws" in str(exc)
                    with pytest.raises(RuntimeError, match="exceeded 1000 draws"):
                        for a in anchors:
                            sample_negative_refs_loop(g, ("podcast", a), 1, ref)
                    raised += 1
                else:
                    want = [sample_negative_refs_loop(g, ("podcast", a), 1, ref) for a in anchors]
                    assert [[("podcast", r)] for r in got[:, 0].tolist()] == want
                assert same_state(rng, ref)
        assert 0 < raised < 12


class TestSegmentMax:
    @pytest.fixture(autouse=True)
    def in_dtype(self, dtype):
        self.dtype = dtype

    def check(self, values, indptr, indices=None):
        """`_segment_max` over `values[indices]` (every row in order when
        `indices` is None), cast to the test's dtype, against
        `segment_max_reduceat` on the gathered rows, its winner slots through
        `indptr + slot`; returns the pooled values and those edge positions."""
        values = values.astype(self.dtype)
        indptr = np.asarray(indptr)
        indices = np.arange(indptr[-1]) if indices is None else np.asarray(indices)
        pooled, slots = _segment_max(values, indptr, indices)
        want = segment_max_reduceat(values[indices], indptr)
        argfirst = argfirst_of(indptr, slots)
        assert pooled.dtype == want[0].dtype == self.dtype
        assert pooled.tobytes() == want[0].tobytes()
        assert np.array_equal(pooled, want[0])
        assert np.array_equal(argfirst, want[1])
        assert not slots[np.diff(indptr) == 0].any()  # an empty segment's slot is 0
        longest = int(np.diff(indptr).max(initial=0))
        assert slots.dtype == np.min_scalar_type(max(longest - 1, 0))
        # the forward pass that skips the winners pools the same bytes
        skipped, no_slots = _segment_max(values, indptr, indices, keep_winners=False)
        assert skipped.tobytes() == pooled.tobytes() and no_slots is None
        return pooled, argfirst

    def test_ties_between_positive_values(self):
        values = np.array([[2.0, 1.0], [2.0, 3.0], [1.0, 3.0], [5.0, 5.0], [5.0, 4.0], [0.0, 5.0]])
        pooled, argfirst = self.check(values, [0, 3, 6])
        assert argfirst.tolist() == [[0, 1], [3, 3]]

    def test_empty_segments(self):
        values = np.array([[1.0, 0.0], [0.0, 0.0], [3.0, -1.0]])
        for indptr in ([0, 0, 2, 2, 3, 3], [0, 3], [0, 0, 0, 3]):
            self.check(values, indptr)
        self.check(np.zeros((0, 2)), [0, 0, 0])
        pooled, argfirst = self.check(np.zeros((0, 2)), [0, 0])
        assert pooled.tolist() == [[0.0, 0.0]] and argfirst.tolist() == [[-1, -1]]

    def test_rows_gathered_through_indices(self):
        # node rows pooled per CSR segment; argfirst counts edge positions
        values = np.array([[2.0, 0.0], [1.0, 4.0], [2.0, 4.0]])
        pooled, argfirst = self.check(values, [0, 3, 3, 5], [1, 2, 0, 0, 2])
        assert pooled.tolist() == [[2.0, 4.0], [0.0, 0.0], [2.0, 4.0]]
        assert argfirst.tolist() == [[1, 0], [-1, -1], [3, 4]]
        rng = np.random.default_rng(1)
        for _ in range(50):
            nodes = np.maximum(rng.integers(-2, 4, size=(int(rng.integers(1, 9)), 3)), 0)
            lens = rng.integers(0, 7, size=int(rng.integers(1, 30)))
            indptr = np.concatenate(([0], np.cumsum(lens)))
            self.check(nodes.astype(float), indptr, rng.integers(0, len(nodes), size=indptr[-1]))

    def test_random_segments_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            lens = rng.integers(0, 7, size=int(rng.integers(1, 30)))
            indptr = np.concatenate(([0], np.cumsum(lens)))
            values = np.maximum(rng.integers(-2, 4, size=(indptr[-1], 3)), 0).astype(float)
            self.check(values, indptr)

    def test_winner_at_the_last_slot_and_ties_after_the_winner(self):
        # segment 0, the longest, rises strictly at its last slot in column 0;
        # in column 1 its max comes at slot 1 and equal values follow, as in
        # segment 1's column 1 (slot 2, then a tie at slot 3)
        values = np.array(
            [[1.0, 0.0], [1.0, 3.0], [1.0, 3.0], [1.0, 3.0], [2.0, 3.0]]  # segment 0
            + [[2.0, 1.0], [2.0, 0.0], [2.0, 5.0], [2.0, 5.0]]  # segment 1
            + [[0.0, 4.0], [0.0, 4.0]]  # segment 2
        )
        pooled, argfirst = self.check(values, [0, 5, 9, 11])
        assert pooled.tolist() == [[2.0, 3.0], [2.0, 5.0], [0.0, 4.0]]
        assert argfirst.tolist() == [[4, 1], [5, 7], [9, 9]]

    def test_segment_longer_than_300_rows(self):
        rng = np.random.default_rng(4)
        lens = np.array([3, 333, 0, 301, 17])
        indptr = np.concatenate(([0], np.cumsum(lens)))
        values = np.maximum(rng.integers(-2, 4, size=(indptr[-1], 4)), 0).astype(float)
        values[3 + 310, 0] = 9.0  # a winner at slot 310 of the 333-row segment
        values[3 + 320, 0] = 9.0  # and a later tie that must not move it
        values[336 + 300, 1] = 7.0  # the last row of the 301-row segment
        pooled, argfirst = self.check(values, indptr)
        assert argfirst[1, 0] == 3 + 310 and argfirst[3, 1] == 336 + 300

    @pytest.mark.parametrize("n_rows", [255, 256, 257])
    def test_flag_type_at_256_slots(self, n_rows):
        # slots after the first number n_rows - 1: one byte holds them up to
        # 256 rows, two bytes from 257 on; column 0 rises at the last slot,
        # column 1 at slot 100 with a tie at the last slot
        rng = np.random.default_rng(n_rows)
        values = np.maximum(rng.integers(-2, 4, size=(n_rows + 4, 3)), 0).astype(float)
        values[n_rows - 1, 0] = 9.0
        values[100, 1] = values[n_rows - 1, 1] = 8.0
        for indptr in ([0, n_rows], [0, n_rows, n_rows + 4]):
            pooled, argfirst = self.check(values, indptr)
            assert argfirst[0].tolist()[:2] == [n_rows - 1, 100]
        # beside a longer segment the walk has more slots than this one
        values = np.concatenate([values[:n_rows], np.ones((300, 3))])
        pooled, argfirst = self.check(values, [0, n_rows, n_rows + 300])
        assert argfirst[0].tolist()[:2] == [n_rows - 1, 100]

    def test_forward_without_winners_is_the_same_forward(self):
        for seed in range(8):
            graph, params, plan, _, _ = random_hgnn_instance(seed, dtype=self.dtype)
            got = forward_states(graph, params, plan, keep_winners=False)
            want = forward_states(graph, params, plan)
            assert got.winners == [] and len(want.winners) == params.config.layers
            assert_states_equal(got, want)

    def test_backward_refuses_a_cache_without_winners(self):
        graph, params, plan, pairs, negs = random_hgnn_instance(0, dtype=self.dtype)
        cache = forward_states(graph, params, plan, keep_winners=False)
        _, dz, _ = margin_batch_loss(cache, pairs, negs, params.config.margin)
        with pytest.raises(ValueError, match="keep_winners"):
            backward_states(graph, params, plan, cache, dz)

    def test_backward_consumes_the_cache(self):
        # backward drops the output, every state but the features and every
        # layer's winners; a second backward over the same cache is refused
        # with a ValueError naming the cause
        graph, params, plan, pairs, negs = random_hgnn_instance(0, dtype=self.dtype)
        cache = forward_states(graph, params, plan)
        features = cache.h[0]
        _, dz, _ = margin_batch_loss(cache, pairs, negs, params.config.margin)
        backward_states(graph, params, plan, cache, dz)
        assert (cache.z, cache.norms, cache.fallback) == (None, None, None)
        assert cache.h[0] is features and cache.h[1:] == [None] * params.config.layers
        assert cache.winners == [None] * params.config.layers
        with pytest.raises(ValueError, match="consumed by an earlier backward_states"):
            backward_states(graph, params, plan, cache, dz)


def arrays_in(obj):
    """Every array reachable from `obj` through dataclass fields, lists,
    tuples and dict values."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from arrays_in(item)


@pytest.fixture(scope="module")
def default_graph(tmp_path_factory):
    """The seed-7 default config and the graph its pipeline builds."""
    config, out = PipelineConfig(seed=7), tmp_path_factory.mktemp("default")
    for stage in ("synth", "split", "build-graph"):
        run_stage(stage, config, out)
    return config, load_graph(out / "graph.bin")


def test_training_cache_holds_states_and_one_byte_winners(default_graph):
    # Memory contract on the seed-7 default graph and config: beside the
    # states, the training forward keeps at most 2 bytes per pooled
    # (layer, direction, segment, column) and no per-direction float64 array
    config, graph = default_graph
    feature_dim = int(next(iter(graph.features.values())).shape[1])
    params = HgnnParams.init(config.hgnn, feature_dim, graph.node_types, graph.relations, seed=7)
    plan = sample_plan(graph, config.hgnn.fanouts, np.random.default_rng(7))
    dims = config.hgnn.layer_dims(feature_dim)

    cache = forward_states(graph, params, plan)
    # the output is one flat array, counted once; each type's rows are views
    n_nodes = sum(len(ids) for ids in graph.nodes.values())
    assert cache.z.shape == (n_nodes, dims[-1]) and cache.norms.shape == (n_nodes,)
    assert list(cache.rows) == list(graph.node_types)
    for t, rows in cache.rows.items():
        assert len(cache.z[rows]) == len(graph.nodes[t])
    states = sum(a.nbytes for a in arrays_in([cache.h, cache.z, cache.norms, cache.fallback]))
    entries = 0
    assert len(cache.winners) == config.hgnn.layers
    for k, layer in enumerate(cache.winners):
        assert layer.keys() == set(graph.directions())
        for (dst_type, _), kept in layer.items():
            shape = (len(graph.nodes[dst_type]), dims[k + 1])
            entries += shape[0] * shape[1]
            for a in arrays_in(kept):
                assert a.shape == shape and a.dtype != np.float64
    assert entries > 0
    assert sum(a.nbytes for a in arrays_in(cache)) <= states + 2 * entries

    # `backward_states` refuses such a cache (TestSegmentMax)
    bare = forward_states(graph, params, plan, keep_winners=False)
    assert bare.winners == []
    assert sum(a.nbytes for a in arrays_in(bare)) == states


def layout_arrays(layout) -> list[np.ndarray]:
    """The arrays a `_PlanLayout` holds beside its parts, which are the
    graph's own adjacency."""
    return list(arrays_in([layout.draws, layout.sampled, layout.orders]))


def test_layout_without_an_oversized_row_holds_only_pool_orders(default_graph):
    # Memory contract: the validation and embedding layout (cap 500, largest
    # degree 69) draws nothing, so it keeps no stacked adjacency, template or
    # draw arrays: per direction one PoolOrder, its segment order (int64,
    # one entry per nonempty row) and its edge positions (int32)
    config, graph = default_graph
    degrees = {d: np.diff(csr.indptr) for d, csr in graph.adj.items()}
    cap = config.hgnn.full_neighborhood_cap
    assert max(int(deg.max()) for deg in degrees.values()) <= cap
    layout = _plan_layout(graph, (cap,))
    assert layout.draws is None and layout.sampled == [None] * len(degrees)
    assert layout.parts == [graph.adj[d] for d in graph.directions()]
    orders = layout.orders[0]
    for d, csr in graph.adj.items():
        assert orders[d].indptr is csr.indptr
        assert orders[d].positions.dtype == np.int32
    want = sum(8 * int((deg > 0).sum()) + 4 * int(deg.sum()) for deg in degrees.values())
    arrays = [a for a in layout_arrays(layout) if not any(a is csr.indptr for csr in graph.adj.values())]
    assert sum(a.nbytes for a in arrays) == want


def test_training_layout_holds_the_adjacency_once_with_int32_positions(default_graph):
    # Memory contract: every layer's parts are the graph's adjacency objects,
    # the stacked indices hold each adjacency entry once (int32 node ids), and
    # every position, bound and per-step array is int32, so the draw arrays
    # come to these bytes exactly
    config, graph = default_graph
    fanouts = config.hgnn.fanouts
    layout = _plan_layout(graph, fanouts)
    directions = graph.directions()
    assert layout.parts == [graph.adj[d] for _ in fanouts for d in directions]
    draws = layout.draws
    adjacency = np.concatenate([graph.adj[d].indices for d in directions])
    assert draws.stacked.dtype == np.int32 and np.array_equal(draws.stacked, adjacency)
    int32 = ("bounds", "floyd_at", "step", "base", "row_start", "j_at", "slots", "slot_row")
    for name in int32:
        assert getattr(draws, name).dtype == np.int32, name
    for layer in layout.orders:
        for order in layer.values():
            assert order.positions.dtype == np.int32

    n_draws = n_steps = n_rows = template = 0
    for f in fanouts:
        for d in directions:
            deg = np.diff(graph.adj[d].indptr)
            big = deg > f
            if big.any():
                n_draws += int(big.sum()) * (2 * f - 1)
                n_steps += int(big.sum()) * f
                n_rows += int(big.sum())
                template += int(np.minimum(deg, f).sum())
    assert n_rows > 0
    want = 4 * len(adjacency) + 4 * n_draws + 4 * n_steps * (len(int32) - 1) + 8 * n_rows + 8 * template
    assert sum(a.nbytes for a in arrays_in(draws)) == want


class TestPoolOrder:
    """The `PoolOrder` a layout hands its plans against the one derived from
    each CSR alone, and the forward over either."""

    @staticmethod
    def assert_orders_equal(got: PoolOrder, want: PoolOrder):
        for name in ("order", "positions"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert got.bounds == want.bounds

    @staticmethod
    def plain(plan: NeighborPlan) -> NeighborPlan:
        """The plan rebuilt from copies of its CSRs, as `sample_plan_loop`
        returns them: no orders."""
        return NeighborPlan(
            [
                {d: Csr(csr.indptr.copy(), csr.indices.copy()) for d, csr in layer.items()}
                for layer in plan.layers
            ]
        )

    def plans(self, seed):
        graph, params, plan, _, _ = random_hgnn_instance(seed)
        rng = np.random.default_rng(seed)
        yield graph, params, plan
        for fanouts in ((1, 2), (4, 4)):
            yield graph, params, sample_plan(graph, fanouts, rng)
        yield graph, params, _inference_plan(graph, HgnnConfig(full_neighborhood_cap=3))
        yield graph, params, _inference_plan(graph, params.config)

    def test_layout_orders_are_the_orders_of_the_csrs(self):
        kept = sampled = 0
        for seed in range(8):
            for graph, _, plan in self.plans(seed):
                assert len(plan.orders) == len(plan.layers)
                for k, layer in enumerate(plan.layers):
                    for direction, csr in layer.items():
                        got = plan.orders[k][direction]
                        assert got.indptr is csr.indptr
                        assert plan.pool_order(k, direction) is got
                        self.assert_orders_equal(got, PoolOrder.of(csr.indptr.copy()))
                        if csr is graph.adj[direction]:
                            kept += 1
                        else:
                            sampled += 1
        assert kept > 0 and sampled > 0

    def test_plain_plans_derive_the_same_order(self):
        graph, _, plan, _, _ = random_hgnn_instance(1)
        plain = self.plain(plan)
        assert plain.orders is None
        for k, layer in enumerate(plan.layers):
            for direction in layer:
                self.assert_orders_equal(
                    plain.pool_order(k, direction), plan.pool_order(k, direction)
                )
        # a CSR replaced after the draw gets the order of its own rows
        direction = graph.directions()[0]
        csr = plan.layers[0][direction]
        lens = np.diff(csr.indptr)[::-1]
        replaced = Csr(np.concatenate(([0], np.cumsum(lens))), csr.indices)
        plan.layers[0][direction] = replaced
        self.assert_orders_equal(plan.pool_order(0, direction), PoolOrder.of(replaced.indptr))

    def test_forward_over_plain_plans_is_byte_equal(self):
        for seed in range(8):
            for graph, params, plan in self.plans(seed):
                for keep in (True, False):
                    got = forward_states(graph, params, plan, keep_winners=keep)
                    want = forward_states(graph, params, self.plain(plan), keep_winners=keep)
                    assert_states_equal(got, want)
                    assert len(got.winners) == len(want.winners)
                    for got_layer, want_layer in zip(got.winners, want.winners):
                        assert got_layer.keys() == want_layer.keys()
                        for d, (slots, live) in want_layer.items():
                            assert got_layer[d][0].tobytes() == slots.tobytes()
                            assert got_layer[d][1].tobytes() == live.tobytes()


class TestMarginLoss:
    @pytest.fixture(autouse=True)
    def in_dtype(self, dtype):
        self.dtype = dtype

    def test_loss_dz_and_mask_match_per_pair_loop(self):
        rng = np.random.default_rng(5)
        z = {}
        for t, n in (("audiobook", 7), ("podcast", 9)):
            m = rng.normal(size=(n, 6))
            z[t] = (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(self.dtype)
        cache = output_cache(z)
        pairs = rng.integers(0, 16, size=(40, 2))  # nodes recur as anchors, positives, negatives
        negs = rng.integers(0, 16, size=(40, 5))
        shares = []
        for margin in (0.0, 0.4, 3.0):
            loss, dz, active = margin_batch_loss(cache, pairs, negs, margin)
            want_loss, want_dz, want_active = margin_batch_loss_loop(cache, pairs, negs, margin)
            assert loss == want_loss
            assert np.array_equal(active, want_active)
            for t in z:
                assert dz[t].dtype == self.dtype
                assert np.array_equal(dz[t], want_dz[t])
            shares.append(active.mean())
        assert 0 < shares[0] < shares[1] < shares[2] == 1.0

    def test_sort_keys_past_one_byte(self):
        # 300 nodes, and node 0 takes 300 terms: both sorts' keys need two
        # bytes; node 299 is only the last pair's positive
        rng = np.random.default_rng(6)
        z = {}
        for t, n in (("audiobook", 140), ("podcast", 160)):
            m = rng.normal(size=(n, 6))
            z[t] = (m / np.linalg.norm(m, axis=1, keepdims=True)).astype(self.dtype)
        cache = output_cache(z)
        pairs = rng.integers(1, 299, size=(150, 2))
        pairs[-1, 1] = 299
        negs = rng.integers(1, 299, size=(150, 4))
        negs[:, :2] = 0
        for margin in (0.4, 3.0):
            loss, dz, active = margin_batch_loss(cache, pairs, negs, margin)
            want_loss, want_dz, want_active = margin_batch_loss_loop(cache, pairs, negs, margin)
            assert loss == want_loss
            assert np.array_equal(active, want_active)
            for t in z:
                assert dz[t].tobytes() == want_dz[t].tobytes()
        assert active.all()  # margin 3: node 0 has all 300 of its terms


    def test_validation_loss_is_the_batch_loss(self):
        # `_validate` takes the loss without building the gradient
        for seed in range(4):
            graph, params, plan, pairs, negs = random_hgnn_instance(seed, dtype=self.dtype)
            if not len(pairs):
                continue
            cache = forward_states(graph, params, plan)
            want, _, _ = margin_batch_loss(cache, pairs, negs, params.config.margin)
            n_fallback = int(cache.fallback.sum())
            assert hgnn._validate(graph, params, plan, pairs, negs) == (want, n_fallback)


def output_cache(z: dict[str, np.ndarray]) -> ForwardCache:
    """A cache holding only an output: the rows of `z`'s types, in order."""
    sizes = np.cumsum([0] + [len(m) for m in z.values()]).tolist()
    rows = {t: slice(lo, hi) for t, lo, hi in zip(z, sizes, sizes[1:])}
    return ForwardCache([], [], rows, np.concatenate(list(z.values())))


def assert_states_equal(got: ForwardCache, want: ForwardCache) -> None:
    """The same states in every layer, and the same output, in bytes."""
    assert len(got.h) == len(want.h)
    for got_layer, want_layer in zip(got.h, want.h):
        assert got_layer.keys() == want_layer.keys()
        for t, state in want_layer.items():
            assert got_layer[t].tobytes() == state.tobytes()
    assert got.rows == want.rows
    for field in ("z", "norms", "fallback"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes()


def wide_range_cache(rng: np.random.Generator, dtype=np.float64) -> ForwardCache:
    """Rows of z spanning 1e-8..1e8 in `dtype`, with signed-zero columns: any
    other summation order or any other starting value shows in the bytes."""
    z = {}
    for t, n in (("audiobook", 11), ("podcast", 13)):
        m = rng.normal(size=(n, 7)) * 10.0 ** rng.integers(-8, 9, size=(n, 1))
        m[:, ::3] = -0.0
        z[t] = m.astype(dtype)
    return output_cache(z)


def assert_scatter_matches_loop(cache, pairs, negs, margin) -> np.ndarray:
    _, dz, active = margin_batch_loss(cache, pairs, negs, margin)
    _, want, want_active = margin_batch_loss_loop(cache, pairs, negs, margin)
    assert np.array_equal(active, want_active)
    for t in cache.rows:
        assert dz[t].dtype == want[t].dtype == cache.z.dtype
        assert dz[t].tobytes() == want[t].tobytes()  # signed zeros included
    return active


def edit_instance(params: HgnnParams, plan, variant: str) -> None:
    """Make a `random_hgnn_instance` exercise one edge case of the backward
    routing: the first direction of every layer without edges, every other
    segment emptied, or column 0 of every relation at or below 0."""
    for layer in plan.layers:
        for i, (direction, csr) in enumerate(sorted(layer.items())):
            n_seg = len(csr.indptr) - 1
            if variant == "no edges" and i == 0:
                layer[direction] = Csr(np.zeros(n_seg + 1, dtype=np.int64), csr.indices[:0])
            elif variant == "empty segments":
                lens = np.diff(csr.indptr) * (np.arange(n_seg) % 2)
                keep = np.repeat(np.arange(n_seg) % 2 == 1, np.diff(csr.indptr))
                indptr = np.concatenate(([0], np.cumsum(lens))).astype(np.int64)
                layer[direction] = Csr(indptr, csr.indices[keep])
    if variant == "dead column":
        for key, w in params.weights.items():
            if key.startswith("agg.b."):
                w[0] = -1e3


class TestRoutePooled:
    """`_route_pooled` against the `np.nonzero` routing it replaced, in bytes:
    in float32 each bin sums in float64, then rounds once."""

    @pytest.fixture(autouse=True)
    def in_dtype(self, dtype):
        self.dtype = dtype

    def check(self, p, indptr, indices, grad):
        p, grad = p.astype(self.dtype), grad.astype(self.dtype)
        indptr = np.asarray(indptr)
        pooled, slots = _segment_max(np.maximum(p, 0.0), indptr, indices)
        got = _route_pooled(indptr, indices, slots, pooled > 0.0, grad, len(p))
        want = route_pooled_nonzero(p, pooled, argfirst_of(indptr, slots), indices, grad)
        assert got.dtype == want.dtype == self.dtype
        assert got.tobytes() == want.tobytes()
        assert not np.any(np.signbit(got) & (got == 0.0))  # no bin ends at -0.0
        return got

    def test_random_segments_with_ties_and_signed_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = rng.integers(-2, 3, size=(int(rng.integers(1, 9)), 3)).astype(float)
            p[rng.random(p.shape) < 0.2] = -0.0
            lens = rng.integers(0, 6, size=int(rng.integers(1, 20)))
            indptr = np.concatenate(([0], np.cumsum(lens)))
            indices = rng.integers(0, len(p), size=indptr[-1])
            grad = rng.normal(size=(len(lens), 3))
            grad[rng.random(grad.shape) < 0.3] = -0.0
            self.check(p, indptr, indices, grad)

    def test_empty_segments(self):
        p = np.array([[1.0, 2.0], [3.0, -1.0]])
        got = self.check(p, [0, 0, 2, 2, 3, 3], np.array([0, 1, 1]), np.arange(10.0).reshape(5, 2))
        assert got.tolist() == [[0.0, 3.0], [2.0 + 6.0, 0.0]]

    def test_column_at_or_below_zero(self):
        # the winner of a column that pools to zero is still a valid edge,
        # but its gradient is dead
        p = np.array([[1.0, -1.0], [2.0, 0.0], [0.5, -0.0]])
        got = self.check(p, [0, 2, 3], np.array([0, 1, 2]), np.ones((2, 2)))
        assert got.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]

    def test_direction_with_no_edges(self):
        for n_src in (0, 3):
            no_edges = np.zeros(0, dtype=np.int64)
            got = self.check(np.ones((n_src, 2)), [0, 0, 0], no_edges, np.ones((2, 2)))
            assert got.shape == (n_src, 2) and not got.any()

    def test_signed_zero_gradients(self):
        # live -0.0 gradients, alone in their bin or beside +0.0 and nonzero ones
        p = np.array([[1.0, 1.0], [2.0, 3.0]])
        grad = np.array([[-0.0, -0.0], [-0.0, 0.0], [-0.0, 5.0]])
        got = self.check(p, [0, 1, 2, 3], np.array([0, 1, 1]), grad)
        assert got.tolist() == [[0.0, 0.0], [0.0, 5.0]]


class TestBackward:
    def test_scatter_matches_row_wise_add_at(self, dtype):
        # `margin_batch_loss` scatters dz in rounds, one term per row per
        # round; the loop oracle adds row by row in loop order.
        rng = np.random.default_rng(2)
        cache = wide_range_cache(rng, dtype)
        pairs = rng.integers(0, 24, size=(200, 2))
        negs = rng.integers(0, 24, size=(200, 4))
        active = assert_scatter_matches_loop(cache, pairs, negs, 0.5)
        assert 0 < active.mean() < 1

    def test_scatter_with_a_row_of_many_terms_and_a_row_of_one(self, dtype):
        # node 0 is the first two negatives of every pair, so it takes over a
        # hundred rounds; node 23 is only the last pair's positive
        rng = np.random.default_rng(3)
        cache = wide_range_cache(rng, dtype)
        pairs = rng.integers(1, 23, size=(150, 2))
        pairs[-1, 1] = 23
        negs = rng.integers(1, 23, size=(150, 4))
        negs[:, :2] = 0
        active = assert_scatter_matches_loop(cache, pairs, negs, 0.5)
        terms = np.bincount(negs[active], minlength=24) + np.bincount(pairs.ravel(), minlength=24)
        assert terms[0] > 100 and terms[23] == 1
        assert 0 < active.mean() < 1

    def test_gradients_match_nonzero_routing(self, monkeypatch, dtype):
        # every gradient byte-equal to routing through the old `np.nonzero`
        # entry list, on random instances and on each with an edgeless
        # direction, emptied segments, or a column dead in every relation
        for seed in range(8):
            for variant in ("as drawn", "no edges", "empty segments", "dead column"):
                graph, params, plan, pairs, negs = random_hgnn_instance(seed, dtype=dtype)
                if not len(pairs):
                    continue
                edit_instance(params, plan, variant)
                cache = forward_states(graph, params, plan)
                _, dz, _ = margin_batch_loss(cache, pairs, negs, params.config.margin)
                got = backward_states(graph, params, plan, cache, dz)
                # backward consumed that cache: the same forward again
                cache = forward_states(graph, params, plan)
                with monkeypatch.context() as patch:
                    patch.setattr(hgnn, "_route_pooled", route_pooled_by_slots)
                    want = backward_states(graph, params, plan, cache, dz)
                for key in want:
                    assert got[key].dtype == want[key].dtype == dtype, key
                    assert got[key].tobytes() == want[key].tobytes(), (seed, variant, key)

    def test_gradients_match_add_at_backward(self):
        # Tolerance contract: the node-first layers round differently from
        # the edge-first oracle; every gradient entry stays within 1e-15 + 1e-12 * |want|.
        for seed in range(8):
            graph, params, plan, pairs, negs = random_hgnn_instance(seed)
            if not len(pairs):
                continue
            cache = forward_states(graph, params, plan)
            _, dz, _ = margin_batch_loss(cache, pairs, negs, params.config.margin)
            got = backward_states(graph, params, plan, cache, dz)
            edge_cache = forward_states_edge_first(graph, params, plan)
            want = backward_states_add_at(graph, params, plan, edge_cache, dz)
            for key in want:
                np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-15, err_msg=key)

    def test_node_first_forward_is_exact_on_dyadic_values(self):
        # integers / 8 in features and weights keep every product and sum
        # exact, so transforming nodes before the gather changes no bit
        for seed in range(8):
            graph, params, plan, _, _ = random_hgnn_instance(seed)
            rng = np.random.default_rng(seed)
            for t in graph.features:
                graph.features[t] = rng.integers(-8, 9, size=graph.features[t].shape) / 8.0
            for key, w in params.weights.items():
                params.weights[key] = rng.integers(-4, 5, size=w.shape) / 8.0
            got = forward_states(graph, params, plan)
            want = forward_states_edge_first(graph, params, plan)
            for k in range(params.config.layers):
                for t in got.h[k + 1]:
                    assert np.array_equal(got.h[k + 1][t], want.h[k + 1][t])
                for direction, csr in plan.layers[k].items():
                    slots, live = got.winners[k][direction]
                    argfirst = argfirst_of(csr.indptr, slots)
                    assert np.array_equal(argfirst, want.argfirst[k][direction])
                    assert np.array_equal(live, want.pooled[k][direction] > 0.0)
            assert got.rows == want.rows
            assert np.array_equal(got.z, want.z)
            assert np.array_equal(got.fallback, want.fallback)


def test_training_draws_through_the_module_samplers(small_graph, monkeypatch):
    # oracle substitution and the benchmark's spans replace these module
    # names, so training must call them once per batch
    calls = Counter()

    def counted(name):
        real = getattr(hgnn, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in ("sample_plan", "_sample_negative_refs"):
        monkeypatch.setattr(hgnn, name, counted(name))
    config = HgnnConfig(
        hidden_dim=8, out_dim=8, fanouts=(4, 3), n_negatives=3, batch_size=64, max_epochs=2
    )
    params = HgnnParams.init(config, 8, small_graph.node_types, small_graph.relations, seed=7)
    log = train_hgnn(small_graph, params, seed=7).log
    batches = sum(-(-sum(e.sampled_edges.values()) // 64) for e in log)
    assert batches > len(log)
    # plus the validation set's negatives and its plan
    assert calls == {"sample_plan": batches + 1, "_sample_negative_refs": batches + 1}


def test_training_matches_loop_oracles(small_graph, monkeypatch):
    # Tolerance contract: the random stream matches exactly, so both runs see
    # the same batches, negatives and plans; the edge-first layers round
    # differently, so the weights agree within 1e-12 and the losses within a
    # relative 1e-12, while the hinge and fallback counts agree exactly.
    config = HgnnConfig(
        hidden_dim=8, out_dim=8, fanouts=(4, 3), n_negatives=3, batch_size=64, max_epochs=2
    )

    def run():
        params = HgnnParams.init(config, 8, small_graph.node_types, small_graph.relations, seed=7)
        return train_hgnn(small_graph, params, seed=7)

    batched = run()
    monkeypatch.setattr(hgnn, "sample_plan", sample_plan_loop)
    monkeypatch.setattr(hgnn, "_sample_negative_refs", sample_negatives_loop(small_graph))
    monkeypatch.setattr(hgnn, "margin_batch_loss", margin_batch_loss_loop)
    monkeypatch.setattr(hgnn, "forward_states", forward_states_edge_first)
    monkeypatch.setattr(hgnn, "backward_states", backward_states_add_at)
    looped = run()
    assert batched.params.weights.keys() == looped.params.weights.keys()
    for key, w in looped.params.weights.items():
        np.testing.assert_allclose(batched.params.weights[key], w, rtol=0, atol=1e-12, err_msg=key)
    assert len(batched.log) == len(looped.log)
    for a, b in zip(batched.log, looped.log):
        assert (a.hinge_active_share, a.fallback_nodes) == (b.hinge_active_share, b.fallback_nodes)
        np.testing.assert_allclose(
            [a.train_loss, a.val_loss], [b.train_loss, b.val_loss], rtol=1e-12
        )


# ---------------------------------------------------------------------------
# The HGNN in float32, as `train-hgnn` runs it.
# ---------------------------------------------------------------------------


def params_in(dtype, config: HgnnConfig, graph: HeteroGraph, seed: int) -> HgnnParams:
    feature_dim = int(next(iter(graph.features.values())).shape[1])
    params = HgnnParams.init(config, feature_dim, graph.node_types, graph.relations, seed=seed)
    return params.astype(dtype)


def test_float32_step_agrees_with_float64(default_graph):
    # Tolerance contract: on the seed-7 default graph and config, the
    # float64-drawn weights and the same weights cast to float32 run one
    # forward, loss and backward over the same batch, plan and negatives.
    # `z` agrees within rtol 1e-4 (atol 1e-6), the loss within a relative
    # 1e-4, and every gradient within 1e-3 of its largest float64 entry.
    config, graph = default_graph
    p64 = params_in("float64", config.hgnn, graph, seed=7)
    p32 = params_in("float32", config.hgnn, graph, seed=7)
    for key, w in p64.weights.items():  # one draw, cast once
        assert p32.weights[key].tobytes() == w.astype(np.float32).tobytes(), key
    rng = np.random.default_rng(7)
    pairs, _ = _directed_pairs(balanced_edge_sample(graph, rng), flat_offsets(graph))
    pairs = pairs[: config.hgnn.batch_size]
    negs = _sample_negative_refs(ExclusionIndex.build(graph), pairs[:, 0], config.hgnn.n_negatives, rng)
    plan = sample_plan(graph, config.hgnn.fanouts, rng)
    got = {}
    for params in (p64, p32):
        cache = forward_states(graph, params, plan)
        z = cache.z.copy()
        loss, dz, active = margin_batch_loss(cache, pairs, negs, config.hgnn.margin)
        grads = backward_states(graph, params, plan, cache, dz)
        got[params.dtype.name] = z, loss, active, grads
    (z64, loss64, active64, g64), (z32, loss32, active32, g32) = got["float64"], got["float32"]
    assert z32.dtype == np.float32 and z64.dtype == np.float64
    np.testing.assert_allclose(z32, z64, rtol=1e-4, atol=1e-6)
    assert abs(loss32 - loss64) <= 1e-4 * abs(loss64)
    assert np.array_equal(active32, active64)  # at init every hinge term is active
    assert g32.keys() == g64.keys()
    for key, want in g64.items():
        assert g32[key].dtype == np.float32, key
        scale = np.abs(want).max()
        assert scale > 0, key
        assert np.abs(g32[key] - want).max() <= 1e-3 * scale, key


def float_dtypes(obj) -> set:
    """The dtypes of every floating array reachable from `obj`."""
    return {a.dtype for a in arrays_in(obj) if np.issubdtype(a.dtype, np.floating)}


def test_float32_training_keeps_float32(small_graph, small_synth, tmp_path, monkeypatch):
    # No silent upcast: in a float32 `train_hgnn` epoch, every forward's
    # features, states and output, the output gradient, every pool and
    # routed gradient, every weight gradient, both Adam moments and the
    # saved checkpoint stay float32; the embedding table is written float64.
    seen = Counter()

    def watch(name, of=lambda out: out):
        real = getattr(hgnn, name)

        def call(*args, **kwargs):
            out = real(*args, **kwargs)
            for dt in float_dtypes(of(out)):
                seen[name, str(dt)] += 1
            return out

        monkeypatch.setattr(hgnn, name, call)

    watch("forward_states", lambda cache: [cache.h, cache.z, cache.norms])
    watch("margin_batch_loss", lambda out: out[1])
    watch("backward_states")
    watch("_segment_max", lambda out: out[0])
    watch("_route_pooled")
    moments = []

    class WatchedAdam(Adam):
        def step(self, params, grads):
            for dt in float_dtypes(grads):
                seen["grads", str(dt)] += 1
            super().step(params, grads)
            moments.append(float_dtypes([self._m, self._v, self._scratch, params]))

    monkeypatch.setattr(hgnn, "Adam", WatchedAdam)
    config = HgnnConfig(
        hidden_dim=8, out_dim=8, fanouts=(4, 3), n_negatives=3, batch_size=64, max_epochs=1
    )
    params = params_in("float32", config, small_graph, seed=7)
    result = train_hgnn(small_graph, params, seed=7)
    names = {"forward_states", "margin_batch_loss", "backward_states", "_segment_max", "_route_pooled", "grads"}
    assert {name for name, _ in seen} == names
    assert {dt for _, dt in seen} == {"float32"}, seen
    assert len(moments) > 1 and all(m == {np.dtype(np.float32)} for m in moments)

    path = tmp_path / "hgnn_params.bin"
    result.params.save(path)
    _, arrays = read_pack(path, "hgnn_params")
    assert {arrays[name].dtype for name in arrays} == {np.dtype(np.float32)}
    loaded = HgnnParams.load(path)
    assert loaded.dtype == np.float32 and loaded.checksum() == result.params.checksum()
    _, catalog = small_synth
    table = embed_catalog(small_graph, loaded, catalog)
    table.save(tmp_path / "embeddings.bin")
    assert NodeEmbeddingTable.load(tmp_path / "embeddings.bin").matrix.dtype == np.float64


class TestCheckpointDtype:
    def test_astype_casts_the_float64_draw(self, small_graph):
        p64 = params_in(np.float64, HgnnConfig(hidden_dim=8, out_dim=8), small_graph, seed=3)
        p32 = p64.astype(np.float32)
        assert p64.dtype == np.float64 and p32.dtype == np.float32
        for key, w in p64.weights.items():
            assert w.dtype == np.float64
            assert p32.weights[key].tobytes() == w.astype(np.float32).tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_checkpoint_loads_in_its_arrays_dtype(self, small_graph, tmp_path, dtype):
        params = params_in(dtype, HgnnConfig(hidden_dim=8, out_dim=8), small_graph, seed=3)
        params.save(tmp_path / "hgnn_params.bin")
        loaded = HgnnParams.load(tmp_path / "hgnn_params.bin")
        assert loaded.dtype == dtype and loaded.checksum() == params.checksum()

    @pytest.mark.parametrize(
        "dtype, other", [(np.float64, np.float32), (np.float32, np.float64), (np.float16, np.float16)]
    )
    def test_weights_in_another_dtype_are_refused(self, small_graph, tmp_path, dtype, other):
        # one weight off the others' dtype, or every weight in a dtype no
        # pass runs in, is refused at save and by `train_hgnn`
        params = params_in(dtype, HgnnConfig(hidden_dim=8, out_dim=8), small_graph, seed=3)
        odd = "upd.W.2.podcast" if dtype != other else next(iter(params.weights))
        params.weights[odd] = params.weights[odd].astype(other)
        expected = f"array {odd!r} is {np.dtype(other)}; the weights must be all float32 or all float64"
        with pytest.raises(ValueError, match=f"^{tmp_path / 'other.bin'}: {expected}$"):
            params.save(tmp_path / "other.bin")
        assert not (tmp_path / "other.bin").exists()
        with pytest.raises(ValueError, match=f"^hgnn params: {expected}$"):
            train_hgnn(small_graph, params, seed=3)
