import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperemb import (
    ConfigError,
    DataError,
    EvalReport,
    ForwardInputs,
    HypergraphWarning,
    ModelParams,
    VariantKind,
    auc,
    baseline_rankers,
    build_hypergraph,
    build_operators,
    forward,
    multiclass_auc,
    rank_positions,
    split_hyperedges,
    split_links,
)
from hyperemb.cli import _ranking_metrics
from hyperemb.evaluation import truth_ranks
from oracles import brute_auc, per_class_auc, recommend


def _metric(name, ranked, truth, k):
    """One query's HR@k or nDCG@k: the truth's rank in the ranking, then the CLI's metric."""
    return _ranking_metrics(rank_positions(ranked, [truth]), [k])[f"{name}@{k}"]


class TestAuc:
    def test_perfect_separation(self):
        assert auc([3.0, 1.0, 2.0, 0.0], [1, 0, 1, 0]) == 1.0

    def test_tie_gets_half_credit(self):
        assert auc([3.0, 2.0, 2.0, 0.0], [1, 0, 1, 0]) == 0.875

    def test_reversed_scores_score_zero(self):
        assert auc([0.0, 1.0], [1, 0]) == 0.0

    def test_random_cases_match_pair_count_oracle_exactly(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 50))
            # coarse grid forces plenty of ties
            scores = rng.integers(0, 5, size=n).astype(float)
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == brute_auc(scores, labels)

    def test_monotone_transform_invariant(self, rng):
        scores = rng.standard_normal(30)
        labels = (rng.random(30) < 0.4).astype(int)
        labels[:2] = [0, 1]
        assert_allclose(auc(scores, labels), auc(np.exp(scores), labels), atol=1e-12)

    def test_nan_score_gives_nan(self):
        # a NaN has no rank, whichever side it is on; infinities still rank
        assert math.isnan(auc([np.nan, 1.0, 0.5, 0.0], [1, 0, 1, 0]))
        assert math.isnan(auc([np.nan, 1.0, 0.5, 0.0], [0, 1, 1, 0]))
        assert auc([np.inf, 1.0, -np.inf, 0.0], [1, 0, 1, 0]) == brute_auc([np.inf, 1.0, -np.inf, 0.0], [1, 0, 1, 0])

    def test_validation(self):
        with pytest.raises(DataError, match="0/1"):
            auc([1.0, 2.0], [0, 2])
        with pytest.raises(DataError, match="at least one"):
            auc([1.0, 2.0], [1, 1])
        with pytest.raises(DataError, match="matching"):
            auc([1.0], [1, 0])


class TestMulticlassAuc:
    def test_perfect_probabilities(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3], [0.1, 0.9]])
        labels = np.array([0, 1, 0, 1])
        mask = np.ones(4, dtype=bool)
        assert multiclass_auc(probs, labels, mask) == 1.0

    def test_matches_one_vs_rest_by_hand(self):
        probs = np.array(
            [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4], [0.5, 0.25, 0.25]]
        )
        labels = np.array([0, 1, 2, 1])
        mask = np.ones(4, dtype=bool)
        expected = np.mean(
            [
                brute_auc(probs[:, 0], (labels == 0).astype(int)),
                brute_auc(probs[:, 1], (labels == 1).astype(int)),
                brute_auc(probs[:, 2], (labels == 2).astype(int)),
            ]
        )
        assert_allclose(multiclass_auc(probs, labels, mask), expected, atol=1e-12)

    def test_mask_restricts_rows(self):
        probs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.4, 0.6]])
        labels = np.array([0, 1, 1, 0])  # rows 2/3 are mislabeled on purpose
        assert multiclass_auc(probs, labels, np.array([True, True, False, False])) == 1.0
        assert multiclass_auc(probs, labels, np.array([False, False, True, True])) == 0.0

    def test_absent_class_skipped_with_warning(self):
        probs = np.array([[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.6, 0.3, 0.1]])
        labels = np.array([0, 1, 0])
        with pytest.warns(HypergraphWarning, match="class 2"):
            value = multiclass_auc(probs, labels, np.ones(3, dtype=bool))
        assert value == 1.0

    def test_equals_per_class_rankdata_loop(self, rng):
        for trial in range(40):
            n, c = int(rng.integers(3, 200)), int(rng.integers(2, 7))
            # coarse probabilities force ties within and across classes
            probs = rng.integers(0, 4, size=(n, c)).astype(float) + 1.0
            probs /= probs.sum(axis=1, keepdims=True)
            labels = rng.integers(0, c + 1, size=n)  # class c never appears: skipped
            mask = rng.random(n) < 0.7
            mask[:2] = True
            labels[:2] = [0, 1]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HypergraphWarning)
                assert multiclass_auc(probs, labels, mask) == per_class_auc(probs, labels, mask)

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(DataError, match="sum to 1"):
            multiclass_auc(np.array([[0.9, 0.9]]), np.array([0]), np.array([True]))

    def test_single_class_mask_rejected(self):
        probs = np.array([[0.5, 0.5], [0.6, 0.4]])
        with pytest.raises(DataError, match="no class"):
            with pytest.warns(HypergraphWarning):
                multiclass_auc(probs, np.array([0, 0]), np.array([True, True]))


class TestRankingMetrics:
    def test_hit_rate_basics(self):
        ranked = [7, 3, 9, 1]
        assert _metric("hr", ranked, 7, 1) == 1
        assert _metric("hr", ranked, 9, 2) == 0
        assert _metric("hr", ranked, 9, 3) == 1

    def test_hit_rate_monotone_in_k(self):
        ranked = list(range(20))
        truth = 11
        hits = [_metric("hr", ranked, truth, k) for k in range(1, 21)]
        assert hits == sorted(hits)
        assert hits[-1] == 1

    def test_ndcg_rank_three_closed_form(self):
        ranked = [5, 6, 7, 8]
        for k in (3, 4, 10):
            assert _metric("ndcg", ranked, 7, k) == 0.5  # 1/log2(4)

    def test_ndcg_rank_one_is_unity(self):
        assert _metric("ndcg", [4, 2], 4, 1) == 1.0

    def test_ndcg_outside_k_is_zero(self):
        assert _metric("ndcg", [4, 2, 9], 9, 2) == 0.0

    def test_ndcg_decreases_with_rank(self):
        ranked = list(range(10))
        values = [_metric("ndcg", ranked, t, 10) for t in range(10)]
        assert values == sorted(values, reverse=True)
        assert all(0 < v <= 1 for v in values)

    def test_missing_truth_rejected(self):
        with pytest.raises(DataError, match="not among"):
            rank_positions([1, 2], [5])

    def test_bad_k_rejected(self):
        g, state, _ = TestRecommend().embedded_graph()
        with pytest.raises(ConfigError, match="k must be"):
            recommend(g, state, 0, "style", 0)

    def test_metrics_average_over_queries(self):
        got = _ranking_metrics(np.array([1, 3, 12]), [1, 10])
        assert got["hr@1"] == pytest.approx(1 / 3) and got["hr@10"] == pytest.approx(2 / 3)
        assert got["ndcg@10"] == pytest.approx((1.0 + 0.5) / 3)

    def test_rank_positions_match_list_index(self, rng):
        for _ in range(20):
            ranked = rng.permutation(int(rng.integers(1, 40))).tolist()
            truths = rng.choice(ranked, size=int(rng.integers(1, 10))).tolist()
            assert rank_positions(ranked, truths).tolist() == [ranked.index(t) + 1 for t in truths]

    def test_rank_positions_first_occurrence_and_missing(self):
        assert rank_positions([4, 9, 4, -2], [4, -2]).tolist() == [1, 4]
        with pytest.raises(DataError, match="truth item 5 not among the 2"):
            rank_positions([1, 2], [2, 5])
        with pytest.raises(DataError, match="not among the 0"):
            rank_positions([], [3])


class TestSplitHyperedges:
    def ten_edge_graph(self):
        edges = [tuple(range(i, i + 3)) for i in range(10)]
        return build_hypergraph(edges, 12, node_type=list("ab") * 6)

    def test_eighty_twenty_counts(self):
        g = self.ten_edge_graph()
        train_g, held = split_hyperedges(g, 0.8, rng=0)
        assert train_g.num_hyperedges == 8 and len(held) == 2

    def test_half_up_rounding(self):
        g = build_hypergraph([(0, 1), (1, 2), (2, 3)], 5)
        train_g, held = split_hyperedges(g, 0.5, rng=1)  # 1.5 rounds to 2
        assert train_g.num_hyperedges == 2 and len(held) == 1

    def test_partition_is_exact(self, rng):
        g = self.ten_edge_graph()
        original = sorted(g.edges.tuples())
        for seed in range(5):
            train_g, held = split_hyperedges(g, 0.7, rng=seed)
            recombined = sorted(train_g.edges.tuples() + list(held))
            assert recombined == original

    def test_node_universe_preserved(self):
        # node 11 appears only in the last hyperedge; held out, it must stay
        g = self.ten_edge_graph()
        for seed in range(10):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", HypergraphWarning)
                train_g, _ = split_hyperedges(g, 0.8, rng=seed)
            assert train_g.num_nodes == g.num_nodes
            assert train_g.node_type == g.node_type

    def test_uncovered_node_warns_once_during_the_split(self):
        g = build_hypergraph([(0, 1), (1, 2), (2, 3)], 4)
        with pytest.warns(HypergraphWarning, match="isolated") as caught:
            train_g, held = split_hyperedges(g, 0.5, rng=1)
        assert held == [(2, 3)]  # node 3 is in no train hyperedge
        assert [str(w.message) for w in caught] == ["1 isolated node(s): inverse degree taken as 0"]
        with warnings.catch_warnings(record=True) as later:
            warnings.simplefilter("always")
            train_g.pack
        assert later == []

    def test_deterministic_per_seed(self):
        g = self.ten_edge_graph()
        a = split_hyperedges(g, 0.8, rng=7)
        b = split_hyperedges(g, 0.8, rng=7)
        assert a[0].edges.tuples() == b[0].edges.tuples() and a[1] == b[1]

    def test_every_edge_held_out_sometimes(self):
        # over many seeds each hyperedge should land on both sides
        g = self.ten_edge_graph()
        held_counts = np.zeros(10)
        originals = [frozenset(e) for e in g.edges.tuples()]
        for seed in range(200):
            _, held = split_hyperedges(g, 0.8, rng=seed)
            for e in held:
                held_counts[originals.index(frozenset(e))] += 1
        # each edge expected 40 times; 3-sigma band for Binomial(200, 0.2)
        sigma = math.sqrt(200 * 0.2 * 0.8)
        assert np.all(np.abs(held_counts - 40) < 3 * sigma + 1)

    def test_degenerate_splits_rejected(self):
        g = build_hypergraph([(0, 1), (1, 2)], 3)
        with pytest.raises(ConfigError):
            split_hyperedges(g, 1.0)
        with pytest.raises(DataError, match="empty side"):
            split_hyperedges(g, 0.01)
        with pytest.raises(DataError, match="at least 2"):
            split_hyperedges(build_hypergraph([(0, 1)], 2), 0.5)


class TestSplitLinks:
    def typed_graph(self):
        # nodes 0-2 are fragments, 3-5 are styles
        types = ["frag", "frag", "frag", "style", "style", "style"]
        edges = [(0, 3), (1, 4), (2, 5), (0, 1, 3, 4), (2, 3, 5)]
        return build_hypergraph(edges, 6, node_type=types)

    def test_pairs_reference_removed_links(self):
        g = self.typed_graph()
        train_g, pairs = split_links(g, 0.4, "style", rng=0)
        # style incidences: (0,3),(1,4),(2,5),(3,3),(3,4),(4,3),(4,5) -> 7 of them, 3 held
        assert len(pairs) == 3
        for query, truth in pairs:
            assert g.node_type[query] == "frag"
            assert g.node_type[truth] == "style"
        assert train_g.num_incidences == g.num_incidences - 3
        assert train_g.num_nodes == g.num_nodes and train_g.node_type == g.node_type

    def test_query_is_lowest_index_member(self):
        types = ["frag", "frag", "style"]
        g = build_hypergraph([(0, 1, 2)], 3, node_type=types)
        _, pairs = split_links(g, 0.5, "style", rng=0)
        assert pairs == [(0, 2)]

    def test_explicit_query_type(self):
        types = ["a", "b", "style"]
        g = build_hypergraph([(0, 1, 2)], 3, node_type=types)
        _, pairs = split_links(g, 0.5, "style", rng=0, query_type="b")
        assert pairs == [(1, 2)]

    def test_emptied_hyperedges_dropped(self):
        # fraction 0.9 of 3 style links rounds to all 3: the all-style
        # hyperedge empties out and its links have no query node
        types = ["frag", "style", "style"]
        g = build_hypergraph([(1, 2), (0, 1)], 3, node_type=types)
        with pytest.warns(HypergraphWarning) as caught:
            train_g, pairs = split_links(g, 0.9, "style", rng=0)
        assert [str(w.message) for w in caught] == [
            "held-out link (0, 1) has no query node; skipped",
            "held-out link (0, 2) has no query node; skipped",
            "2 isolated node(s): inverse degree taken as 0",
        ]
        assert pairs == [(0, 1)]
        assert train_g.edges.tuples() == [(0,)]

    def test_deterministic_per_seed(self):
        g = self.typed_graph()
        a = split_links(g, 0.4, "style", rng=11)
        b = split_links(g, 0.4, "style", rng=11)
        assert a[1] == b[1] and a[0].edges.tuples() == b[0].edges.tuples()

    def test_needs_types_and_candidates(self):
        untyped = build_hypergraph([(0, 1)], 2)
        with pytest.raises(DataError, match="node types"):
            split_links(untyped, 0.5, "style")
        typed = build_hypergraph([(0, 1)], 2, node_type=["a", "a"])
        with pytest.raises(DataError, match="candidate type"):
            split_links(typed, 0.5, "style")


class TestRecommend:
    def embedded_graph(self):
        types = ["frag", "style", "style", "style"]
        g = build_hypergraph([(0, 1), (0, 2), (0, 3)], 4, node_type=types)
        v = VariantKind(tag="wt")
        params = ModelParams(w=[np.eye(2)], w_e=[], psi=np.zeros((4, 2)))
        ops = build_operators(g, v)
        state = forward(ops, params, ForwardInputs(ops, np.zeros((4, 2))), v)
        return g, state, v

    def _with_embeddings(self, z):
        g, state, _ = self.embedded_graph()
        state.z[-1][:] = z
        return g, state

    def test_self_similarity_ranks_first(self):
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        g, state = self._with_embeddings(z)
        out = recommend(g, state, 0, "style", 3)
        assert out[0] == (1, 1.0)

    def test_cosine_ordering(self):
        theta = [0.1, 1.2, 0.7]
        z = np.array(
            [[1.0, 0.0]] + [[math.cos(t), math.sin(t)] for t in theta]
        )
        g, state = self._with_embeddings(z)
        out = recommend(g, state, 0, "style", 3)
        assert [i for i, _ in out] == [1, 3, 2]
        assert_allclose([s for _, s in out], np.cos(theta)[[0, 2, 1]], atol=1e-12)

    def test_scale_invariance(self):
        z = np.array([[2.0, 1.0], [4.0, 2.0], [1.0, 3.0], [0.1, 0.05]])
        g, state = self._with_embeddings(z)
        out = recommend(g, state, 0, "style", 3)
        assert {i for i, _ in out if abs(out[0][1] - dict(out)[i]) < 1e-12} >= {1, 3}

    def test_tie_breaks_by_index(self):
        z = np.array([[1.0, 0.0], [3.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
        g, state = self._with_embeddings(z)
        out = recommend(g, state, 0, "style", 3)
        assert [i for i, _ in out] == [1, 2, 3]

    def test_k_truncates(self):
        z = np.array([[1.0, 0.0], [1.0, 0.1], [1.0, 0.2], [1.0, 0.3]])
        g, state = self._with_embeddings(z)
        assert len(recommend(g, state, 0, "style", 2)) == 2

    def test_no_candidates_warns_and_returns_empty(self):
        g, state = self._with_embeddings(np.ones((4, 2)))
        with pytest.warns(HypergraphWarning, match="no candidates"):
            assert recommend(g, state, 0, "button", 5) == []

    def test_zero_vector_scores_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [-1.0, 0.0]])
        g, state = self._with_embeddings(z)
        out = dict(recommend(g, state, 0, "style", 3))
        assert out[1] == 0.0


class TestTruthRanks:
    @pytest.mark.parametrize("seed", range(5))
    def test_ranks_equal_recommend_then_rank_positions(self, seed):
        # few distinct values, so scores tie often, and zero rows among queries and candidates
        rng = np.random.default_rng(seed)
        n = 40
        types = rng.choice(["frag", "style"], size=n).tolist()
        g = build_hypergraph([(i, (i + 1) % n) for i in range(n)], n, node_type=types)
        v = VariantKind(tag="wt")
        params = ModelParams(w=[np.eye(3)], w_e=[], psi=np.zeros((6, 3)))
        ops = build_operators(g, v)
        state = forward(ops, params, ForwardInputs(ops, np.zeros((n, 3))), v)
        z = rng.integers(-1, 2, size=(n, 3)).astype(np.float64) * rng.choice([1.0, 2.0, 0.5], size=(n, 1))
        z[rng.choice(n, size=6, replace=False)] = 0.0
        state.z[-1][:] = z
        styles = g.nodes_of_type("style")
        pairs = [(int(q), int(t)) for q, t in zip(rng.integers(0, n, 30), rng.choice(styles, 30))]
        want = [rank_positions([c for c, _ in recommend(g, state, q, "style", len(styles))], [t])[0]
                for q, t in pairs]
        assert truth_ranks(g, state, pairs, "style").tolist() == want

    def test_truth_outside_the_candidates_rejected(self):
        g, state = TestRecommend()._with_embeddings(np.ones((4, 2)))
        with pytest.raises(DataError, match="truth item 0 not among the 3 candidates"):
            truth_ranks(g, state, [(1, 0)], "style")


class TestBaselineRankers:
    def degree_graph(self):
        types = ["style", "frag", "style", "style"]
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]
        return build_hypergraph(edges, 4, node_type=types)

    def test_popularity_sorts_by_hyperedge_degree(self):
        g = self.degree_graph()  # degrees: 0 -> 3, 2 -> 3, 3 -> 2
        ranked = baseline_rankers(g, "style", rng=0)["popularity"]
        assert ranked == [0, 2, 3]  # tie 0/2 broken by index

    def test_random_is_seeded_permutation(self):
        g = self.degree_graph()
        a = baseline_rankers(g, "style", rng=5)["random"]
        b = baseline_rankers(g, "style", rng=5)["random"]
        assert a == b and sorted(a) == [0, 2, 3]

    def test_random_varies_across_seeds(self):
        g = self.degree_graph()
        orders = {tuple(baseline_rankers(g, "style", rng=s)["random"]) for s in range(20)}
        assert len(orders) > 1

    def test_no_candidates_rejected(self):
        with pytest.raises(DataError, match="no candidates"):
            baseline_rankers(self.degree_graph(), "button")


class TestEvalReport:
    def test_summary_mean_std(self):
        r = EvalReport(
            task="hyperedge-pred",
            seeds=[0, 1, 2, 3],
            per_trial={"auc": [0.9, 0.8, 1.0, 0.9]},
        )
        assert r.trials == 4
        assert_allclose(r.mean("auc"), 0.9)
        assert_allclose(r.std("auc"), np.std([0.9, 0.8, 1.0, 0.9]))
        assert set(r.summary()) == {"auc"}

    def test_json_round_trip(self):
        r = EvalReport(
            task="recommend",
            seeds=[3, 7],
            per_trial={"hr@1": [1.0, 0.0], "ndcg@10": [0.5, 0.75]},
        )
        back = EvalReport.from_json(r.to_json())
        assert back.task == r.task and back.seeds == r.seeds
        assert back.per_trial == {"hr@1": [1.0, 0.0], "ndcg@10": [0.5, 0.75]}

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="2 values for 1 trials"):
            EvalReport(task="x", seeds=[0], per_trial={"auc": [0.5, 0.5]})

    def test_out_of_range_metric_rejected(self):
        with pytest.raises(DataError, match="outside"):
            EvalReport(task="x", seeds=[0], per_trial={"auc": [1.5]})

    def test_no_trials_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            EvalReport(task="x", seeds=[])
