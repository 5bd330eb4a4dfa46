import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audiorec import analysis, io
from audiorec.analysis import (
    logistic_fit,
    pair_similarity_probe,
    weak_signal_analysis,
)
from audiorec.data import SIGNALS, InteractionRecord, Interactions
from audiorec.synth import SynthConfig, synth_generate

import oracles
from conftest import make_catalog, stream


def ev(user, item, signal, t):
    return InteractionRecord(user, item, "audiobook", signal, t)


def analyse(records):
    return weak_signal_analysis(Interactions.from_records(records))


class TestCooccurrence:
    def test_diagonal_is_one(self, small_synth):
        log, _ = small_synth
        report = weak_signal_analysis(log)
        for i in range(len(SIGNALS)):
            assert report.cooccurrence[i, i] == 1.0

    def test_rows_are_fractions(self, small_synth):
        log, _ = small_synth
        report = weak_signal_analysis(log)
        assert np.all(report.cooccurrence >= 0.0)
        assert np.all(report.cooccurrence <= 1.0)

    def test_hand_computed_fractions(self):
        records = [
            ev("u1", "a1", "follow", 0),
            ev("u1", "a1", "stream", 10),
            ev("u2", "a2", "stream", 5),
            ev("u3", "a3", "preview", 1),
        ]
        report = analyse(records)
        s = {name: i for i, name in enumerate(report.signals)}
        # two stream pairs, one of which also has a follow
        assert report.cooccurrence[s["stream"], s["follow"]] == 0.5
        assert report.cooccurrence[s["follow"], s["stream"]] == 1.0
        assert report.cooccurrence[s["preview"], s["stream"]] == 0.0
        # intent_to_pay never occurs: diagonal 1 by convention, rest zero
        assert report.cooccurrence[s["intent_to_pay"], s["intent_to_pay"]] == 1.0
        assert report.cooccurrence[s["intent_to_pay"], s["stream"]] == 0.0

    def test_single_signal_type_fatal(self):
        with pytest.raises(ValueError):
            analyse([ev("u1", "a1", "stream", 0)])


def report_or_error(analyse_log, log):
    try:
        report = analyse_log(log)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return io.canonical_json(report.to_dict()), report.cooccurrence.tobytes(), report.fits


class TestMatchesTheRecordAnalysis:
    """The column analysis against `oracles.weak_signal_analysis_records`,
    which groups each pair's times by signal in a dict of lists: the same
    report, bit for bit, or the same error."""

    @given(st.lists(
        st.one_of(
            st.builds(
                InteractionRecord,
                user_id=st.sampled_from(["u1", "u2", "u10", "ué"]),
                item_id=st.sampled_from(["a1", "a2", "a\U0001f4da"]),
                item_type=st.just("audiobook"),
                signal=st.sampled_from(SIGNALS),
                timestamp=st.integers(0, 6),  # a few seconds: weak signals share a first stream's
            ),
            st.builds(
                InteractionRecord,
                user_id=st.sampled_from(["u1", "u3"]),
                item_id=st.sampled_from(["p1", "p2"]),
                item_type=st.just("podcast"),
                signal=st.just("stream"),
                timestamp=st.integers(0, 6),
            ),
        ),
        max_size=40,
    ))
    @settings(max_examples=300, deadline=None)
    def test_random_logs(self, records):
        got = report_or_error(weak_signal_analysis, Interactions.from_records(records))
        assert got == report_or_error(oracles.weak_signal_analysis_records, records)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synth_logs(self, seed):
        # thousands of pairs: the order of Newton's sums shows in the last bits
        log, _ = synth_generate(SynthConfig(), seed)
        got = report_or_error(weak_signal_analysis, log)
        assert got == report_or_error(oracles.weak_signal_analysis_records, oracles.records_of(log))

    def test_a_weak_signal_in_the_first_streams_second_is_not_counted(self):
        records = [
            ev("u1", "a1", "follow", 5), ev("u1", "a1", "stream", 5), ev("u1", "a1", "follow", 4),
            ev("u2", "a1", "follow", 3),  # a pair with no stream: every follow counts
            ev("u3", "a2", "preview", 1), ev("u3", "a2", "stream", 9), ev("u3", "a2", "stream", 2),
        ]
        got = report_or_error(weak_signal_analysis, Interactions.from_records(records))
        assert got == report_or_error(oracles.weak_signal_analysis_records, records)
        fit = analyse(records).fits["follow"]
        assert (fit.n_examples, fit.n_positive) == (3, 2)

    @pytest.mark.parametrize("signal", SIGNALS)
    def test_one_signal_type_raises_the_same_error(self, signal):
        records = [ev("u1", "a1", signal, 0), ev("u2", "a2", signal, 3)]
        got = report_or_error(weak_signal_analysis, Interactions.from_records(records))
        assert got == report_or_error(oracles.weak_signal_analysis_records, records)
        assert got == "ValueError: weak-signal analysis needs at least two signal types"


class TestLogisticFit:
    def test_matches_grid_scan_oracle(self):
        # 6-point toy with mixed labels at both ends: finite optimum
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])

        def nll(b0, b1):
            z = b0 + b1 * x
            return float(np.mean(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0) - y * z))

        # independent oracle: exhaustive nested scan, coarse-to-fine per axis
        lo0, hi0, lo1, hi1 = -8.0, 8.0, -8.0, 8.0
        best = (0.0, 0.0)
        for _ in range(6):
            grid0 = np.linspace(lo0, hi0, 41)
            grid1 = np.linspace(lo1, hi1, 41)
            scores = [(nll(b0, b1), b0, b1) for b0 in grid0 for b1 in grid1]
            _, b0, b1 = min(scores)
            span0 = (hi0 - lo0) / 8
            span1 = (hi1 - lo1) / 8
            lo0, hi0 = b0 - span0, b0 + span0
            lo1, hi1 = b1 - span1, b1 + span1
            best = (b0, b1)
        fit = logistic_fit("s", x, y)
        assert fit.converged and fit.skipped_reason is None
        assert abs(fit.coefficient - best[1]) < 1e-3
        assert abs(fit.intercept - best[0]) < 1e-3
        assert fit.odds_ratio == np.exp(fit.coefficient)
        assert (fit.n_examples, fit.n_positive) == (6, 4)

    @pytest.mark.parametrize(
        "x, y, direction",
        [
            ([0, 0, 1, 2, 3, 4], [1, 1, 0, 0, 0, 0], "negative"),
            # quasi-separation: the classes share only the boundary value 1
            ([0, 1, 1, 1, 2, 3], [0, 0, 1, 0, 1, 1], "positive"),
            ([0, 1, 1, 1, 2, 3], [1, 1, 0, 1, 0, 0], "negative"),
        ],
    )
    def test_separated_data_skipped_naming_the_direction(self, x, y, direction):
        # no finite slope maximizes the likelihood, so none is reported
        fit = logistic_fit("s", np.array(x, dtype=float), np.array(y, dtype=float))
        assert fit.skipped_reason.startswith(f"{direction} separation")
        assert (fit.coefficient, fit.intercept, fit.odds_ratio) == (0.0, 0.0, 1.0)
        assert not fit.converged
        assert (fit.n_examples, fit.n_positive) == (6, sum(y))

    def test_separable_data_skipped_as_positive_separation(self):
        x = np.array([0.0, 0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        fit = logistic_fit("s", x, y)
        assert fit.skipped_reason.startswith("positive separation")
        assert fit.coefficient == 0.0
        assert not fit.converged  # no finite optimum to converge to

    def test_constant_nonzero_predictor_skipped(self):
        # the Hessian is singular: the intercept alone explains the labels
        fit = logistic_fit("s", np.full(4, 2.0), np.array([0.0, 1.0, 1.0, 0.0]))
        assert fit.skipped_reason.startswith("constant predictor")
        assert (fit.coefficient, fit.odds_ratio, fit.converged) == (0.0, 1.0, False)

    @pytest.mark.parametrize(
        "x, y, reason",
        [
            ([0, 0, 0], [0, 1, 1], "no pre-stream occurrences"),
            ([0, 1, 2], [1, 1, 1], "degenerate labels"),
            ([0, 1, 2], [0, 0, 0], "degenerate labels"),
        ],
    )
    def test_degenerate_inputs_skipped(self, x, y, reason):
        fit = logistic_fit("s", np.array(x, dtype=float), np.array(y, dtype=float))
        assert fit.skipped_reason.startswith(reason)
        assert (fit.coefficient, fit.odds_ratio, fit.converged) == (0.0, 1.0, False)

    def test_step_cap_skips_rather_than_reports_a_slope(self, monkeypatch):
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        monkeypatch.setattr(analysis, "_NEWTON_STEPS", 1)
        fit = logistic_fit("s", x, y)
        assert fit.skipped_reason == "no convergence in 1 Newton steps"
        assert (fit.coefficient, fit.odds_ratio, fit.converged) == (0.0, 1.0, False)

    def test_balanced_coin_has_zero_slope(self):
        x = np.array([0.0, 1.0, 0.0, 1.0])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        fit = logistic_fit("s", x, y)
        assert fit.converged
        assert abs(fit.coefficient) < 1e-6
        assert abs(fit.intercept) < 1e-6


class TestWeakSignalFits:
    def test_forced_positive_follow_direction(self):
        # every follow precedes a stream; abandoned previews supply negatives
        records = []
        for j in range(8):
            records.append(ev(f"u{j}", f"a{j}", "follow", 0))
            records.append(ev(f"u{j}", f"a{j}", "stream", 10))
        for j in range(8):
            records.append(ev(f"v{j}", f"a{j}", "preview", 0))
        for j in range(4):
            records.append(ev(f"w{j}", f"b{j}", "stream", 5))
        report = analyse(records)
        fit = report.fits["follow"]
        # only streamed pairs have follows: the direction is positive, but
        # the data are separated, so there is no finite slope to report
        assert fit.skipped_reason.startswith("positive separation")
        assert (fit.coefficient, fit.odds_ratio) == (0.0, 1.0)
        # one abandoned follow makes the classes overlap: a finite fit
        records.append(ev("v0", "a0", "follow", 0))
        fit = analyse(records).fits["follow"]
        assert fit.skipped_reason is None and fit.converged
        assert fit.coefficient > 0
        assert fit.odds_ratio > 1

    def test_degenerate_labels_skipped(self):
        # all pairs stream: labels all positive
        records = []
        for j in range(4):
            records.append(ev(f"u{j}", f"a{j}", "follow", 0))
            records.append(ev(f"u{j}", f"a{j}", "stream", 10))
        report = analyse(records)
        assert report.fits["follow"].skipped_reason is not None

    def test_absent_signal_skipped(self):
        records = [
            ev("u1", "a1", "preview", 0),
            ev("u1", "a1", "stream", 5),
            ev("u2", "a2", "stream", 5),
            ev("u3", "a3", "intent_to_pay", 0),
        ]
        report = analyse(records)
        assert report.fits["follow"].skipped_reason.startswith("no pre-stream occurrences")
        # preview: u1 (x=1, y=1), u2 (x=0, y=1), u3 (x=0, y=0) is quasi-separated
        assert report.fits["preview"].skipped_reason.startswith("positive separation")

    def test_only_pre_stream_events_counted(self):
        # follows after the first stream do not count toward the predictor
        records = [
            ev("u1", "a1", "stream", 0),
            ev("u1", "a1", "follow", 10),
            ev("u2", "a2", "follow", 0),
            ev("u2", "a2", "stream", 10),
            ev("u3", "a3", "preview", 0),
        ]
        report = analyse(records)
        fit = report.fits["follow"]
        # pairs: u1 (x=0,y=1), u2 (x=1,y=1), u3 (x=0,y=0)
        assert fit.n_examples == 3
        assert fit.n_positive == 2
        # had u1's late follow counted, the classes would overlap at x=1
        assert fit.skipped_reason.startswith("positive separation")


class TestProbe:
    def test_random_orthonormal_mean_near_zero(self):
        vectors = {f"i{j}": np.eye(8)[j] for j in range(8)}
        s = pair_similarity_probe(vectors, "random", 500, seed=0)
        assert s.mean == 0.0
        assert s.n_pairs == 500

    def test_synthetic_content_ordering(self, small_synth, small_graph):
        _, catalog = small_synth
        content = {
            i: it.content_vector for i, it in catalog.items() if it.item_type == "audiobook"
        }
        co = pair_similarity_probe(content, "co-listened", 1500, 3, small_graph)
        rand = pair_similarity_probe(content, "random", 1500, 3, small_graph)
        assert co.mean > rand.mean

    def test_shared_podcast_ordering_default_scale(self):
        # excluding direct edges biases shared-podcast pairs cross-cluster on
        # tiny dense graphs, so this clause is checked at the default scale
        from audiorec.data import timeline_split
        from audiorec.graph import build_colisten_graph

        log, catalog = synth_generate(SynthConfig(), seed=0)
        graph = build_colisten_graph(timeline_split(log).train, catalog, min_co_users=2)
        content = {
            i: it.content_vector for i, it in catalog.items() if it.item_type == "audiobook"
        }
        co = pair_similarity_probe(content, "co-listened", 2000, 1, graph)
        shared = pair_similarity_probe(content, "shared-podcast-only", 2000, 1, graph)
        rand = pair_similarity_probe(content, "random", 2000, 1, graph)
        assert co.mean > shared.mean > rand.mean

    def test_embedding_space_ordering(self, small_synth, small_graph, small_embeddings):
        _, catalog = small_synth
        vectors = {
            i: small_embeddings.get(i)
            for i in catalog
            if catalog[i].item_type == "audiobook" and small_embeddings.get(i) is not None
        }
        co = pair_similarity_probe(vectors, "co-listened", 1500, 3, small_graph)
        rand = pair_similarity_probe(vectors, "random", 1500, 3, small_graph)
        assert co.mean > rand.mean

    def test_graph_required_for_structured_pairings(self):
        vectors = {f"i{j}": np.eye(4)[j % 4] for j in range(4)}
        with pytest.raises(ValueError, match="graph"):
            pair_similarity_probe(vectors, "co-listened", 10, 0, graph=None)

    def test_no_eligible_pairs_fatal(self):
        catalog = make_catalog(n_audiobooks=2, n_podcasts=2)
        records = [stream("u1", "a0", catalog), stream("u1", "p0", catalog)]
        from audiorec.graph import build_colisten_graph

        g = build_colisten_graph(Interactions.from_records(records), catalog)
        vectors = {i: catalog[i].content_vector for i in ("a0", "a1")}
        with pytest.raises(ValueError, match="no eligible"):
            pair_similarity_probe(vectors, "co-listened", 10, 0, g)

    def test_unknown_pairing_fatal(self):
        vectors = {"a": np.array([1.0]), "b": np.array([1.0])}
        with pytest.raises(ValueError, match="unknown pairing"):
            pair_similarity_probe(vectors, "sideways", 10, 0)

    def test_deterministic(self, small_synth, small_graph):
        _, catalog = small_synth
        content = {
            i: it.content_vector for i, it in catalog.items() if it.item_type == "audiobook"
        }
        s1 = pair_similarity_probe(content, "random", 300, 9, small_graph)
        s2 = pair_similarity_probe(content, "random", 300, 9, small_graph)
        assert (s1.mean, s1.std) == (s2.mean, s2.std)
