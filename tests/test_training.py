import copy
import gc
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import softmax

from hyperemb import (
    ConfigError,
    DataError,
    ForwardInputs,
    HypergraphWarning,
    NumericError,
    TrainConfig,
    VariantKind,
    build_hypergraph,
    build_labeled_set,
    build_operators,
    default_dims,
    forward,
    hyperedge_bce_loss,
    init_params,
    node_ce_loss,
    sample_negatives,
    score_sets,
    train,
)
from hyperemb import cli, model, training
from hyperemb.data import Dataset
from hyperemb.model import ACTIVATION_TAGS, RRELU_RANGE, VARIANT_TAGS
from hyperemb.training import (
    TASKS,
    LabeledHyperedgeSet,
    _distribute_score_grads,
    _score_examples,
    backward,
    init_optimizer,
    input_features,
    optimizer_step,
    row_softmax,
)
from conftest import RAGGED_EDGES, graph_of
from oracles import (
    brute_maxmin,
    brute_mean_pairwise,
    brute_sample_negatives,
    brute_score_grad,
    dense_forward,
    finite_diff,
    full_backward,
    rel_err,
    ringed_hypergraph,
    score_maxmin,
    score_maxmin_grad,
    score_mean_pairwise,
    score_mean_pairwise_grad,
)


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.variant.tag == "base" and cfg.optimizer == "adam"

    @pytest.mark.parametrize(
        "kw",
        [
            {"split_fraction": 0.0},
            {"split_fraction": 1.0},
            {"alpha": 1.5},
            {"lr": 0.0},
            {"layers": 0},
            {"epochs": -1},
            {"optimizer": "rmsprop"},
            {"score_fn": "median"},
            {"score_mode": "weird"},
            {"feature_rank": 0},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


class TestMeanPairwiseScore:
    def test_identical_vectors_score_one(self):
        embs = np.tile([3.0, 4.0], (4, 1))
        assert_allclose(score_mean_pairwise(embs), 1.0, atol=1e-12)

    def test_orthogonal_vectors_score_zero(self):
        assert_allclose(score_mean_pairwise(np.eye(3)), 0.0, atol=1e-12)

    def test_three_vector_example(self):
        embs = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        assert_allclose(score_mean_pairwise(embs), math.sqrt(2) / 3, atol=1e-12)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            embs = rng.standard_normal((int(rng.integers(2, 7)), 4))
            assert_allclose(
                score_mean_pairwise(embs), brute_mean_pairwise(embs, True), atol=1e-10
            )
            assert_allclose(
                score_mean_pairwise(embs, normalize=False),
                brute_mean_pairwise(embs, False),
                atol=1e-10,
            )

    def test_scale_invariant_when_normalized(self, rng):
        embs = rng.standard_normal((5, 3))
        scaled = embs * rng.uniform(0.1, 10.0, size=(5, 1))
        assert_allclose(
            score_mean_pairwise(embs), score_mean_pairwise(scaled), atol=1e-10
        )

    def test_raw_dot_mode_scales(self):
        embs = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert_allclose(score_mean_pairwise(2 * embs, normalize=False), 4.0)

    def test_singleton_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            score_mean_pairwise(np.ones((1, 3)))

    def test_zero_vector_warns_and_stays_finite(self):
        embs = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(HypergraphWarning, match="zero embedding"):
            s = score_mean_pairwise(embs)
        assert np.isfinite(s) and s == 0.0

    def test_grad_matches_finite_difference(self, rng):
        for normalize in (True, False):
            embs = rng.standard_normal((4, 3)) + 0.1
            _, grad = score_mean_pairwise_grad(embs, normalize=normalize)
            numeric = finite_diff(
                lambda: score_mean_pairwise(embs, normalize=normalize), embs
            )
            assert rel_err(grad, numeric) < 1e-6


class TestMaxMinScore:
    def test_identical_vectors_score_zero(self):
        assert score_maxmin(np.tile([1.0, -2.0], (3, 1))) == 0.0

    def test_two_point_example(self):
        assert_allclose(score_maxmin(np.array([[0.0, 0.0], [2.0, 4.0]])), -3.0)

    def test_single_vector_scores_zero(self):
        assert score_maxmin(np.array([[5.0, -1.0, 2.0]])) == 0.0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            embs = rng.standard_normal((int(rng.integers(1, 6)), 3))
            assert_allclose(score_maxmin(embs), brute_maxmin(embs), atol=1e-12)

    def test_grad_matches_finite_difference(self, rng):
        # strict max/min per dimension, so the subgradient is the gradient
        embs = rng.standard_normal((4, 3))
        _, grad = score_maxmin_grad(embs)
        numeric = finite_diff(lambda: score_maxmin(embs), embs)
        assert rel_err(grad, numeric) < 1e-6


class TestNegativeSampling:
    def test_retained_count_exact(self, rng):
        # one source hyperedge makes the retained overlap directly observable
        for size, alpha in [(4, 0.5), (4, 0.25), (5, 0.6), (3, 1.0), (4, 0.0)]:
            g = build_hypergraph([tuple(range(size))], size + 6)
            expected = min(math.ceil(alpha * size), size - 1)
            for neg in sample_negatives(g, 40, alpha, rng):
                assert len(neg) == size
                assert len(set(neg) & set(range(size))) == expected

    def test_alpha_half_size_four_keeps_two(self, rng):
        g = build_hypergraph([(0, 1, 2, 3)], 10)
        for neg in sample_negatives(g, 60, 0.5, rng):
            assert len(set(neg) & {0, 1, 2, 3}) == 2

    def test_no_duplicate_members(self, rng):
        g = build_hypergraph([(0, 1, 2), (2, 3, 4, 5)], 9)
        for neg in sample_negatives(g, 50, 0.5, rng):
            assert len(set(neg)) == len(neg)
            assert all(0 <= v < 9 for v in neg)

    def test_observed_hyperedges_forbidden(self, rng):
        g = build_hypergraph([(0, 1), (1, 2), (2, 3)], 5)
        observed = {frozenset(e) for e in g.edges.tuples()}
        for neg in sample_negatives(g, 80, 0.5, rng):
            assert frozenset(neg) not in observed

    def test_forbid_argument_respected(self, rng):
        g = build_hypergraph([(0, 1, 2)], 6)
        extra = [(0, 1, 3), (0, 1, 4)]
        negs = sample_negatives(g, 60, 0.7, rng, forbid=extra)
        banned = {frozenset(e) for e in extra}
        assert all(frozenset(n) not in banned for n in negs)

    def test_exhausted_space_raises_after_100_failures(self):
        # all 10 pairs on 5 nodes observed: every candidate pair collides
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        g = build_hypergraph(edges, 5)
        with pytest.raises(DataError, match="100 times"):
            sample_negatives(g, 1, 0.5, rng=0)

    def test_too_few_nodes_rejected(self):
        g = build_hypergraph([(0, 1, 2)], 3)
        with pytest.raises(DataError, match="largest source"):
            sample_negatives(g, 1, 0.5, rng=0)

    def test_seeded_determinism(self):
        g = build_hypergraph([(0, 1, 2), (3, 4)], 8)
        a = sample_negatives(g, 20, 0.5, rng=42)
        b = sample_negatives(g, 20, 0.5, rng=42)
        assert a == b

    def test_zero_count_empty(self):
        g = build_hypergraph([(0, 1)], 4)
        assert sample_negatives(g, 0, 0.5, rng=0) == []


def _random_sets(rng, num_nodes, count, sizes=(2, 9)):
    return [
        tuple(rng.choice(num_nodes, size=int(rng.integers(sizes[0], sizes[1] + 1)), replace=False).tolist())
        for _ in range(count)
    ]


class TestSamplerMatchesSetdiffOracle:
    """The binary-search sampler must consume the stream exactly as the O(N) one."""

    def _assert_same(self, g, count, alpha, seed, **kw):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_negatives(g, count, alpha, a, **kw)
        want = brute_sample_negatives(g.edges.tuples(), g.num_nodes, count, alpha, b, **kw)
        assert got == want
        assert a.random() == b.random()  # same number of draws consumed

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("with_forbid", [False, True])
    def test_identical_lists(self, alpha, with_forbid):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            g = build_hypergraph(set(_random_sets(rng, 40, 30)), 40)
            forbid = _random_sets(rng, 40, 200, sizes=(2, 3)) if with_forbid else None
            self._assert_same(g, 60, alpha, 1000 + seed, forbid=forbid)

    def test_source_edges_with_repeated_id(self):
        g = build_hypergraph([(0, 1, 2), (3, 4, 5)], 12)
        sources = [(1, 4), (0, 2, 7, 9), (5, 6)]
        for seed in range(5):
            for alpha in (0.0, 0.5, 1.0):
                self._assert_same(g, 40, alpha, seed, source_edges=sources)
        with pytest.raises(DataError, match=r"vertex set \(1, 1, 4\) lists a node more than once"):
            sample_negatives(g, 40, 0.5, 0, source_edges=[(1, 4), (1, 1, 4), (0, 2, 7, 7, 9)])
        with pytest.raises(DataError, match=r"vertex set \(0, 2, 7, 7, 9\)"):
            build_labeled_set(g, 0.5, 0, positives=[(5, 6), (9, 7, 2, 7, 0)])

    def test_identical_on_a_large_graph(self):
        rng = np.random.default_rng(8)
        g = build_hypergraph(set(_random_sets(rng, 20_000, 300)), 20_000)
        self._assert_same(g, 50, 0.5, 3)


SCORE_CASES = [
    (fn, mode, norm)
    for fn in ("mean-pairwise", "max-min")
    for mode in ("plain", "dependent")
    for norm in (True, False)
]


@pytest.mark.filterwarnings("ignore::hyperemb.errors.HypergraphWarning")
class TestBatchedScoringAgainstOracles:
    """Whole-batch scores and gradients vs one-set brute force and finite differences,
    on 200 sets of sizes 2-9 over 30 nodes, three of them zero rows."""

    ZERO_ROWS = [3, 17, 22]

    def _setup(self, score_fn, score_mode, normalize):
        rng = np.random.default_rng(99)
        z = rng.standard_normal((30, 4))
        z[self.ZERO_ROWS] = 0.0
        sets = _random_sets(rng, 30, 200)
        variant = VariantKind(sigma_v="tanh", sigma_e="tanh")
        cfg = TrainConfig(variant=variant, score_fn=score_fn, score_mode=score_mode, normalize=normalize)
        params = init_params(default_dims(4, 1), variant, rng=np.random.default_rng(5))
        return z, sets, cfg, params, variant

    @staticmethod
    def _rows(z, members, cfg, params):
        rows = z[list(members)]
        if cfg.score_mode == "dependent":
            mean = np.tile(rows.mean(axis=0), (len(members), 1))
            rows = np.tanh(np.concatenate([rows, mean], axis=1) @ params.psi)
        return rows

    @pytest.mark.parametrize("score_fn,score_mode,normalize", SCORE_CASES)
    def test_scores_match_brute_force(self, score_fn, score_mode, normalize):
        z, sets, cfg, params, variant = self._setup(score_fn, score_mode, normalize)
        scores = score_sets(z, sets, cfg, params, variant)
        assert scores.shape == (len(sets),)
        for t, members in enumerate(sets):
            rows = self._rows(z, members, cfg, params)
            if score_fn == "mean-pairwise":
                assert_allclose(scores[t], brute_mean_pairwise(rows, normalize), atol=1e-10)
            else:
                assert_allclose(scores[t], brute_maxmin(rows), atol=1e-12)

    @pytest.mark.parametrize("score_fn,score_mode,normalize", SCORE_CASES)
    def test_grads_match_oracles(self, score_fn, score_mode, normalize):
        z, sets, cfg, params, variant = self._setup(score_fn, score_mode, normalize)
        weights = np.random.default_rng(4).standard_normal(len(sets))

        def loss_value():
            scores, _ = _score_examples(z, sets, cfg, params, variant, None, training=True)
            return float(weights @ scores)

        _, cache = _score_examples(z, sets, cfg, params, variant, None, training=True)
        d_z, d_psi = _distribute_score_grads(cache, weights, z.shape, cfg, params)
        numeric = finite_diff(loss_value, z)
        # zero rows sit on kinks: of x/|x|, and of max-min where two zero members
        # of one set tie; there only the one-set loop gradient below checks them
        live = np.ones(len(z), dtype=bool)
        if score_fn == "max-min" or (score_mode == "plain" and normalize):
            live[self.ZERO_ROWS] = False
        if score_mode == "dependent":
            assert rel_err(d_z[live], numeric[live]) < 1e-4
            assert rel_err(d_psi, finite_diff(loss_value, params.psi)) < 1e-4
            return
        assert d_psi is None
        assert rel_err(d_z[live], numeric[live]) < 1e-6
        expected = np.zeros_like(z)
        for t, members in enumerate(sets):
            expected[list(members)] += weights[t] * brute_score_grad(z[list(members)], score_fn, normalize)
        assert_allclose(d_z, expected, atol=1e-10)

    def test_rrelu_slopes_drawn_in_example_order(self):
        z, sets, _, params, _ = self._setup("mean-pairwise", "dependent", True)
        variant = VariantKind(sigma_v="rrelu", sigma_e="rrelu")
        cfg = TrainConfig(variant=variant, score_mode="dependent")
        scores, _ = _score_examples(z, sets, cfg, params, variant, np.random.default_rng(6), training=True)
        draws = np.random.default_rng(6)
        lo, hi = RRELU_RANGE
        for t, members in enumerate(sets):
            rows = z[list(members)]
            pre = np.concatenate([rows, np.tile(rows.mean(axis=0), (len(members), 1))], axis=1) @ params.psi
            slope = draws.uniform(lo, hi, size=pre.shape)
            assert_allclose(scores[t], brute_mean_pairwise(np.where(pre >= 0, pre, slope * pre)), atol=1e-10)

    def test_one_zero_norm_warning_per_call_with_count(self):
        z, sets, cfg, params, variant = self._setup("mean-pairwise", "plain", True)
        zero_members = sum(m in self.ZERO_ROWS for e in sets for m in e)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            score_sets(z, sets, cfg, params, variant)
        messages = [str(w.message) for w in caught if issubclass(w.category, HypergraphWarning)]
        assert messages == [f"{zero_members} zero embedding vector(s) left unnormalized in pairwise score"]

    def test_member_outside_graph_rejected(self):
        z, _, cfg, params, variant = self._setup("mean-pairwise", "plain", True)
        with pytest.raises(DataError, match="outside"):
            score_sets(z, [(0, 30)], cfg, params, variant)


class TestLabeledSets:
    def test_balanced_and_disjoint(self, rng):
        g = build_hypergraph([(0, 1, 2), (2, 3), (1, 3, 4)], 8)
        ls = build_labeled_set(g, 0.5, rng)
        assert len(ls.negatives) == len(ls.positives) == 3
        assert ls.labels.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        assert len(ls.examples) == 6

    def test_singletons_dropped_with_warning(self, rng):
        g = build_hypergraph([(0,), (1, 2), (3, 4, 5)], 9)
        with pytest.warns(HypergraphWarning, match="smaller than"):
            ls = build_labeled_set(g, 0.5, rng)
        assert sorted(len(e) for e in ls.positives) == [2, 3]

    def test_negative_duplicating_positive_rejected(self):
        with pytest.raises(DataError, match="duplicates"):
            LabeledHyperedgeSet(positives=[(0, 1)], negatives=[(1, 0)])


class TestBceLoss:
    def test_zero_score_positive_label(self):
        loss, _ = hyperedge_bce_loss([0.0], [1.0])
        assert_allclose(loss, math.log(2.0), atol=1e-12)

    def test_confident_correct_is_tiny(self):
        loss, _ = hyperedge_bce_loss([20.0], [1.0])
        assert_allclose(loss, 2.0611536181902037e-09, rtol=1e-6)

    def test_extreme_scores_stay_finite(self):
        loss, grad = hyperedge_bce_loss([1000.0, -1000.0], [0.0, 1.0])
        assert np.isfinite(loss) and np.isfinite(grad).all()
        assert_allclose(loss, 1000.0)

    def test_grad_at_zero(self):
        _, grad = hyperedge_bce_loss([0.0], [1.0])
        assert_allclose(grad, [-0.5])

    def test_grad_matches_finite_difference(self, rng):
        scores = rng.standard_normal(12) * 3
        labels = (rng.random(12) < 0.5).astype(float)
        _, grad = hyperedge_bce_loss(scores, labels)
        numeric = finite_diff(lambda: hyperedge_bce_loss(scores, labels)[0], scores)
        assert rel_err(grad, numeric) < 1e-7

    def test_validation(self):
        with pytest.raises(DataError, match="empty"):
            hyperedge_bce_loss([], [])
        with pytest.raises(DataError, match="0/1"):
            hyperedge_bce_loss([0.0], [0.5])
        with pytest.raises(DataError, match="mismatch"):
            hyperedge_bce_loss([0.0, 1.0], [1.0])


class TestCeLoss:
    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((4, 5))
        labels = np.array([0, 1, 2, 3])
        mask = np.ones(4, dtype=bool)
        loss, _ = node_ce_loss(logits, labels, mask)
        assert_allclose(loss, math.log(5.0), atol=1e-12)

    def test_two_class_example(self):
        loss, _ = node_ce_loss(np.array([[1.0, 0.0]]), np.array([0]), np.array([True]))
        assert_allclose(loss, math.log(1.0 + math.exp(-1.0)), atol=1e-12)

    def test_masked_rows_get_zero_grad(self, rng):
        logits = rng.standard_normal((5, 3))
        labels = np.array([0, 1, 2, 0, 1])
        mask = np.array([True, False, True, False, True])
        _, grad = node_ce_loss(logits, labels, mask)
        assert_allclose(grad[~mask], 0.0)
        assert np.abs(grad[mask]).max() > 0

    def test_grad_rows_sum_to_zero(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = np.array([5, 0, 3, 2])
        mask = np.ones(4, dtype=bool)
        _, grad = node_ce_loss(logits, labels, mask)
        assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_grad_matches_finite_difference(self, rng):
        logits = rng.standard_normal((6, 4))
        labels = np.array([0, 3, 1, 2, 0, 1])
        mask = np.array([True, True, False, True, True, False])
        _, grad = node_ce_loss(logits, labels, mask)
        numeric = finite_diff(lambda: node_ce_loss(logits, labels, mask)[0], logits)
        assert rel_err(grad, numeric) < 1e-6

    def test_validation(self):
        with pytest.raises(DataError, match="no labeled"):
            node_ce_loss(np.zeros((3, 2)), np.zeros(3, dtype=int), np.zeros(3, dtype=bool))
        with pytest.raises(DataError, match="labels must be in"):
            node_ce_loss(np.zeros((2, 2)), np.array([0, 2]), np.array([True, True]))


class TestRowSoftmax:
    """``row_softmax`` gives scipy's row softmax bit for bit, computed column-major."""

    @pytest.mark.parametrize("classes", [*range(1, 19), 127, 128, 129, 300])
    def test_equals_scipy_bitwise(self, rng, classes):
        logits = rng.standard_normal((257, classes)) * 4.0
        logits[::3, -1] = logits[::3, 0]  # ties, the maximum among them on every ninth row
        logits[::9] = np.maximum(logits[::9], 0.0)
        logits[1::10] = 700.0 * np.sign(logits[1::10])
        logits[2::10] = -700.0 * np.abs(logits[2::10])
        logits[3::10] = 1e300 * logits[3::10]
        logits[4::10] = 0.0
        got = row_softmax(logits)
        assert got.shape == logits.shape
        assert np.array_equal(got, softmax(logits, axis=1))

    def test_rejects_a_vector(self):
        with pytest.raises(DataError, match="2-d"):
            row_softmax(np.zeros(3))

    def test_loss_reads_the_given_probabilities(self, rng):
        logits = rng.standard_normal((40, 6))
        labels, mask = np.arange(40) % 6, np.arange(40) % 3 > 0
        want = node_ce_loss(logits, labels, mask)
        got = node_ce_loss(logits, labels, mask, row_softmax(logits))
        assert got[0] == want[0] and np.array_equal(got[1], want[1])
        with pytest.raises(DataError, match="probs shaped"):
            node_ce_loss(logits, labels, mask, row_softmax(logits[:5]))

    def test_one_softmax_per_node_class_epoch(self, monkeypatch):
        calls = []
        run = training.row_softmax
        monkeypatch.setattr(training, "row_softmax", lambda x: calls.append(x.shape) or run(x))
        n = toy_clustered_graph().num_nodes
        train(toy_clustered_graph(), TrainConfig(epochs=3, feature_rank=4), task="node-class",
              data=_toy_data("node-class"))
        assert calls == [(n, 2)] * 3


GRAD_EDGES = [(0, 1, 2), (1, 2, 3), (0, 3), (2, 4), (0, 1, 4)]
GRAD_NODES = 5
BCE_EXAMPLES = [(0, 1, 2), (1, 3), (0, 3, 4), (2, 4)]
BCE_LABELS = np.array([1.0, 0.0, 1.0, 0.0])


# the gradient checks' graph, the ragged one on the same five nodes, and the
# gradient graph's edges with two more nodes that are in no hyperedge
GRAD_GRAPHS = {
    "grad": (GRAD_EDGES, GRAD_NODES),
    "ragged": (RAGGED_EDGES, GRAD_NODES),
    "isolated": (GRAD_EDGES, GRAD_NODES + 2),
}
# node-class labels and loss mask of the first five nodes, repeated over any others
CE_LABELS = np.array([0, 1, 2, 1, 0])
CE_MASK = np.array([True, True, False, True, True])


def _grad_setup(tag, act, seed=202, n_classes=None, layers=2, graph="grad"):
    edges, n = GRAD_GRAPHS[graph]
    g = graph_of(edges, n)
    variant = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
    ops = build_operators(g, variant)
    params = init_params(default_dims(3, layers), variant, rng=np.random.default_rng(seed), n_classes=n_classes)
    feat_rng = np.random.default_rng(seed + 1)
    z0 = feat_rng.standard_normal((n, 3))
    y0 = feat_rng.standard_normal((len(edges), 3))
    return variant, ops, params, z0, y0


def _training_forward(ops, params, z0, y0, variant):
    # fresh identically-seeded generator per call: rrelu redraws the same
    # slopes, so finite differences see a fixed piecewise-linear function
    inputs = ForwardInputs(ops, z0, y0)
    return forward(ops, params, inputs, variant, rng=np.random.default_rng(777), training=True)


class TestBackwardAgainstFiniteDifferences:
    """Analytic gradients of the whole parameter set vs central differences."""

    GRAPH = "grad"

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("act", ACTIVATION_TAGS)
    def test_bce_loss_all_weights(self, tag, act):
        variant, ops, params, z0, y0 = _grad_setup(tag, act, graph=self.GRAPH)
        cfg = TrainConfig(variant=variant)

        def loss_value():
            st = _training_forward(ops, params, z0, y0, variant)
            scores, _ = _score_examples(
                st.z_final, BCE_EXAMPLES, cfg, params, variant, None, training=True
            )
            return hyperedge_bce_loss(scores, BCE_LABELS)[0]

        st = _training_forward(ops, params, z0, y0, variant)
        scores, caches = _score_examples(
            st.z_final, BCE_EXAMPLES, cfg, params, variant, None, training=True
        )
        _, d_scores = hyperedge_bce_loss(scores, BCE_LABELS)
        d_z, d_psi = _distribute_score_grads(
            caches, d_scores, st.z_final.shape, cfg, params
        )
        grads = dict(
            backward(st, ops, params, d_z, d_psi=d_psi).named_arrays()
        )
        for name, arr in params.named_arrays():
            numeric = finite_diff(loss_value, arr)
            assert rel_err(grads[name], numeric) < 1e-4, (tag, act, name)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("act", ACTIVATION_TAGS)
    def test_ce_loss_all_weights(self, tag, act):
        variant, ops, params, z0, y0 = _grad_setup(tag, act, n_classes=3, graph=self.GRAPH)
        labels, mask = np.resize(CE_LABELS, len(z0)), np.resize(CE_MASK, len(z0))

        def loss_value():
            st = _training_forward(ops, params, z0, y0, variant)
            return node_ce_loss(st.z_final @ params.head, labels, mask)[0]

        st = _training_forward(ops, params, z0, y0, variant)
        _, d_logits = node_ce_loss(st.z_final @ params.head, labels, mask)
        grads = dict(
            backward(
                st,
                ops,
                params,
                d_logits @ params.head.T,
                d_head=st.z_final.T @ d_logits,
            ).named_arrays()
        )
        for name, arr in params.named_arrays():
            numeric = finite_diff(loss_value, arr)
            assert rel_err(grads[name], numeric) < 1e-4, (tag, act, name)

    @pytest.mark.parametrize("score_fn", ["mean-pairwise", "max-min"])
    def test_dependent_scoring_trains_psi(self, score_fn):
        variant, ops, params, z0, y0 = _grad_setup("base", "tanh", seed=11, graph=self.GRAPH)
        cfg = TrainConfig(variant=variant, score_fn=score_fn, score_mode="dependent")

        def loss_value():
            st = _training_forward(ops, params, z0, y0, variant)
            scores, _ = _score_examples(
                st.z_final, BCE_EXAMPLES, cfg, params, variant, None, training=True
            )
            return hyperedge_bce_loss(scores, BCE_LABELS)[0]

        st = _training_forward(ops, params, z0, y0, variant)
        scores, caches = _score_examples(
            st.z_final, BCE_EXAMPLES, cfg, params, variant, None, training=True
        )
        _, d_scores = hyperedge_bce_loss(scores, BCE_LABELS)
        d_z, d_psi = _distribute_score_grads(
            caches, d_scores, st.z_final.shape, cfg, params
        )
        assert d_psi is not None and np.abs(d_psi).max() > 0
        grads = dict(
            backward(st, ops, params, d_z, d_psi=d_psi).named_arrays()
        )
        for name, arr in params.named_arrays():
            numeric = finite_diff(loss_value, arr)
            assert rel_err(grads[name], numeric) < 1e-4, (score_fn, name)

    @pytest.mark.parametrize("act", ["tanh", "gelu", "rrelu"])
    def test_base_y_stream_gradients_at_three_layers(self, act):
        # Y(k) reaches Z(L) through B_v Y(k) for k < L, so W_e(k) matters for k < L-1 alone
        variant, ops, params, z0, y0 = _grad_setup("base", act, seed=5, layers=3, graph=self.GRAPH)
        c_z = np.random.default_rng(30).standard_normal(z0.shape)

        def loss_value():
            return float((_training_forward(ops, params, z0, y0, variant).z_final * c_z).sum())

        st = _training_forward(ops, params, z0, y0, variant)
        grads = backward(st, ops, params, c_z)
        # Y stops at Y(L-1), so base holds no top-layer W_e
        assert len(params.w_e) == len(grads.w_e) == 2
        for k, arr in enumerate(params.w_e):
            assert np.abs(grads.w_e[k]).max() > 0, k
            assert rel_err(grads.w_e[k], finite_diff(loss_value, arr)) < 1e-4, k
        for k, arr in enumerate(params.w):
            assert rel_err(grads.w[k], finite_diff(loss_value, arr)) < 1e-4, k

    def test_zero_upstream_gives_zero_grads(self):
        variant, ops, params, z0, y0 = _grad_setup("base", "tanh", graph=self.GRAPH)
        st = forward(ops, params, ForwardInputs(ops, z0, y0), variant)
        grads = backward(st, ops, params, np.zeros_like(z0))
        for _, arr in grads.named_arrays():
            assert_allclose(arr, 0.0)


@pytest.mark.usefixtures("row_blocks_forced")
class TestBackwardRowBlocked(TestBackwardAgainstFiniteDifferences):
    """The gradient checks again, with every activation cut into several row blocks."""


class TestBackwardOnRaggedGraph(TestBackwardAgainstFiniteDifferences):
    """The gradient checks again, through singleton, repeated and all-node hyperedges."""

    GRAPH = "ragged"


class TestBackwardWithIsolatedNodes(TestBackwardAgainstFiniteDifferences):
    """The gradient checks again, with nodes whose operator rows and columns are zero."""

    GRAPH = "isolated"


class TestBackwardScalarChain:
    def test_scalar_chain_closed_form(self):
        # one node, one hyperedge, one-dimensional weights, decoupled variant
        g = build_hypergraph([(0,)], 1)
        variant = VariantKind(tag="wt", sigma_v="tanh", sigma_e="tanh")
        ops = build_operators(g, variant)
        w = np.array([[0.7]])
        from hyperemb import ModelParams

        params = ModelParams(w=[w.copy()], w_e=[], psi=np.zeros((2, 1)))
        z0 = np.array([[0.9]])
        y0 = np.array([[0.4]])
        st = forward(ops, params, ForwardInputs(ops, z0, y0), variant)
        s_v = float(ops.s_v.toarray()[0, 0])
        pre = s_v * 0.9 * 0.7
        grads = backward(st, ops, params, np.ones((1, 1)))
        assert_allclose(grads.w[0], [[(1 - math.tanh(pre) ** 2) * s_v * 0.9]], atol=1e-12)
        assert grads.w_e == []  # decoupled: no Y stream, so no W_e


# the pruned backward's operator applications for 1, 2 and 3 layers
PRUNED_APPLICATIONS = {
    "decoupled": [{}, {"s_v": 1}, {"s_v": 2}],
    "base": [{}, {"s_v": 1, "b_v": 1, "b_e": 1}, {"s_v": 2, "b_v": 2, "b_e": 2, "s_e": 1}],
}


class TestBackwardPrunesUnreadAdjoints:
    """``backward`` forms only adjoints that reach a weight; ``full_backward``, which
    forms them all, pins every gradient float."""

    GRAPH = "grad"

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("act", ["tanh", "rrelu"])
    def test_grads_equal_the_full_reverse_pass(self, tag, layers, act):
        variant, ops, params, z0, y0 = _grad_setup(tag, act, n_classes=3, layers=layers, graph=self.GRAPH)
        st = _training_forward(ops, params, z0, y0, variant)
        up = np.random.default_rng(layers)
        d_z = up.standard_normal(z0.shape)
        d_psi, d_head = up.standard_normal(params.psi.shape), up.standard_normal(params.head.shape)
        grads = backward(st, ops, params, d_z, d_psi=d_psi, d_head=d_head)
        full_w, full_we = full_backward(st, ops, params, d_z)
        for k in range(layers):
            assert np.array_equal(grads.w[k], full_w[k]), k
        # Y stops at Y(L-1), so no top-layer W_e is held, and a decoupled variant holds none
        assert len(grads.w_e) == len(full_we) == len(params.w_e) == (layers - 1 if variant.coupled else 0)
        for k in range(len(params.w_e)):
            assert np.array_equal(grads.w_e[k], full_we[k]), k
        assert np.array_equal(grads.psi, d_psi) and np.array_equal(grads.head, d_head)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_spmm_calls_per_backward(self, monkeypatch, sparse_products, tag, layers):
        variant, ops, params, z0, y0 = _grad_setup(tag, "tanh", layers=layers, graph=self.GRAPH)
        st = _training_forward(ops, params, z0, y0, variant)
        tally = _counting(monkeypatch, sparse_products)
        pruned = PRUNED_APPLICATIONS["base" if variant.coupled else "decoupled"][layers - 1]
        assert tally(lambda: backward(st, ops, params, np.ones_like(z0))) == pruned
        # the full pass undoes every update of all L layers, layer 0's products included
        assert tally(lambda: full_backward(st, ops, params, np.ones_like(z0))) == _layer_applications(
            variant, layers)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_spmm_calls_per_forward(self, monkeypatch, sparse_products, tag, layers):
        variant, ops, params, z0, y0 = _grad_setup(tag, "tanh", layers=layers, graph=self.GRAPH)
        tally = _counting(monkeypatch, sparse_products)
        inputs = ForwardInputs(ops, z0, y0)
        # the first forward on the inputs forms layer 0's products, once
        assert tally(lambda: forward(ops, params, inputs, variant)) == _layer_applications(variant, layers)
        # base at L = 1 runs no Y update, so it never forms S_e Y(0)
        assert ("s_e_y0" in vars(inputs)) == (variant.coupled and layers > 1)
        for training in (False, True):
            states = []
            counts = tally(lambda: states.append(
                forward(ops, params, inputs, variant, rng=np.random.default_rng(0), training=training)))
            assert counts == _forward_applications(variant, layers), training
            st = states[0]
            assert len(st.z) == layers + 1 and len(st.agg_z) == len(st.deriv_z) == layers
            n_y = layers if variant.coupled else 0
            assert len(st.y) == n_y and len(st.agg_y) == len(st.deriv_y) == max(n_y - 1, 0)


class TestSharedIntermediates:
    """Each aggregate and adjoint forms an intermediate that two terms share once."""

    def test_p2_training_step_makes_eight_sparse_products(self, sparse_products):
        variant, ops, params, z0, y0 = _grad_setup("p2", "tanh", layers=2)
        inputs = ForwardInputs(ops, z0, y0)
        inputs.agg_z0  # layer 0's products, formed once per trial
        sparse_products.clear()
        st = forward(ops, params, inputs, variant, rng=np.random.default_rng(0), training=True)
        backward(st, ops, params, np.ones_like(z0))
        # S_v Z(1) and S_v^T du in 4 products each; summed term by term they took 8 each
        assert len(sparse_products) == 8

    def test_each_base_aggregate_makes_four_sparse_products(self, sparse_products):
        _, ops, _, z0, y0 = _grad_setup("base", "tanh")
        for run in (lambda: ops.node_aggregate(z0, y0), lambda: ops.edge_aggregate(y0, z0),
                    lambda: ops.node_adjoint(z0), lambda: ops.edge_adjoint(y0)):
            sparse_products.clear()
            run()
            assert len(sparse_products) == 4


@pytest.mark.usefixtures("row_blocks_forced")
class TestBackwardPrunesUnreadAdjointsRowBlocked(TestBackwardPrunesUnreadAdjoints):
    """The same with every activation cut into several row blocks."""


class TestBackwardPrunesUnreadAdjointsOnRaggedGraph(TestBackwardPrunesUnreadAdjoints):
    """The same through singleton, repeated and all-node hyperedges."""

    GRAPH = "ragged"


class TestBackwardPrunesUnreadAdjointsWithIsolatedNodes(TestBackwardPrunesUnreadAdjoints):
    """The same with nodes whose operator rows and columns are zero."""

    GRAPH = "isolated"


def _input_applications(variant, layers):
    """Operator applications of one ``ForwardInputs``: S_v Z(0) (+ B_v Y(0)), and
    base's S_e Y(0) when a Y update reads it."""
    counts = Counter(s_v=1)
    if variant.coupled:
        counts.update(b_v=1, s_e=int(layers > 1))
    return +counts


def _forward_applications(variant, layers):
    """Operator applications of one forward past layer 0's products: the Z updates
    of layers 1..L-1 and, for base, the B_e Z(k+1) of its L - 1 Y updates and the
    S_e Y(k) of all but the first."""
    counts = Counter(s_v=layers - 1)
    if variant.coupled:
        counts.update(b_v=layers - 1, s_e=layers - 2, b_e=layers - 1)
    return +counts


def _layer_applications(variant, layers):
    """Operator applications of all L layers: one inputs object plus one forward."""
    return _input_applications(variant, layers) + _forward_applications(variant, layers)


def _counting(monkeypatch, products, adjoints=True):
    """A tally of the operators that the aggregate (and, with ``adjoints``, the
    adjoint) calls of a run apply, by name.  Each call must make as many sparse
    products as its operators' ``factors`` list: S's alone when B shares them."""
    applied = []

    def log(ops, names, run):
        before = len(products)
        out = run()
        assert len(products) - before == len(getattr(ops, names[0]).factors), names
        applied.extend(names)
        return out

    def aggregate(method, s, b):
        run = getattr(model.PropagationOperators, method)

        def counted(ops, x, other=None):
            names = [name for name, operand in ((s, x), (b, other)) if operand is not None]
            return log(ops, names, lambda: run(ops, x, other))
        monkeypatch.setattr(model.PropagationOperators, method, counted)

    def adjoint(method, s, b):
        run = getattr(model.PropagationOperators, method)

        def counted(ops, x, with_s=True):
            names = [s] * with_s + [b] * (getattr(ops, b) is not None)
            return log(ops, names, lambda: run(ops, x, with_s=with_s))
        monkeypatch.setattr(model.PropagationOperators, method, counted)

    aggregate("node_aggregate", "s_v", "b_v")
    aggregate("edge_aggregate", "s_e", "b_e")
    if adjoints:
        adjoint("node_adjoint", "s_v", "b_v")
        adjoint("edge_adjoint", "s_e", "b_e")

    def tally(run):
        applied.clear()
        run()
        return Counter(applied)

    return tally


class TestOptimizers:
    def _params(self, seed=0):
        return init_params([2, 2], VariantKind(), rng=np.random.default_rng(seed))

    def _grads(self, params, scale=1.0):
        g = copy.deepcopy(params)
        rng = np.random.default_rng(99)
        for _, arr in g.named_arrays():
            arr[...] = scale * rng.standard_normal(arr.shape)
        return g

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_zero_lr_is_bitwise_noop(self, kind):
        params = self._params()
        before = {n: a.tobytes() for n, a in params.named_arrays()}
        opt = init_optimizer(kind, params)
        for _ in range(3):
            optimizer_step(opt, params, self._grads(params), lr=0.0)
        after = {n: a.tobytes() for n, a in params.named_arrays()}
        assert before == after

    def test_sgd_step_exact(self):
        params = self._params()
        grads = self._grads(params)
        expected = {n: a - 0.1 * g for (n, a), (_, g) in
                    zip([(n, a.copy()) for n, a in params.named_arrays()], grads.named_arrays())}
        opt = init_optimizer("sgd", params)
        optimizer_step(opt, params, grads, lr=0.1)
        for name, arr in params.named_arrays():
            assert_allclose(arr, expected[name], atol=1e-15)

    def test_adam_first_step_matches_hand_formula(self):
        # with zero moments, one bias-corrected step is -lr * g / (|g| + eps)
        params = self._params()
        grads = self._grads(params)
        snapshot = {n: a.copy() for n, a in params.named_arrays()}
        opt = init_optimizer("adam", params)
        optimizer_step(opt, params, grads, lr=0.05)
        named_g = dict(grads.named_arrays())
        for name, arr in params.named_arrays():
            g = named_g[name]
            expected = snapshot[name] - 0.05 * g / (np.abs(g) + 1e-8)
            assert_allclose(arr, expected, atol=1e-12)

    def test_adam_two_steps_match_hand_recursion(self):
        params = self._params()
        g1, g2 = self._grads(params, 1.0), self._grads(params, 0.5)
        snapshot = {n: a.copy() for n, a in params.named_arrays()}
        opt = init_optimizer("adam", params)
        optimizer_step(opt, params, g1, lr=0.01)
        optimizer_step(opt, params, g2, lr=0.01)
        n1, n2 = dict(g1.named_arrays()), dict(g2.named_arrays())
        for name, arr in params.named_arrays():
            a = snapshot[name].copy()
            m = np.zeros_like(a)
            v = np.zeros_like(a)
            for t, g in ((1, n1[name]), (2, n2[name])):
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                a -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
            assert_allclose(arr, a, atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="optimizer"):
            init_optimizer("adagrad", self._params())


def toy_clustered_graph():
    """Two dense clusters: within-cluster hyperedges are easy positives."""
    edges = [
        (0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3),
        (4, 5, 6), (4, 5, 7), (5, 6, 7), (4, 6, 7),
    ]
    return build_hypergraph(edges, 8)


class TestTrain:
    def test_zero_epochs_empty_log(self):
        g = toy_clustered_graph()
        cfg = TrainConfig(epochs=0, feature_rank=4)
        state = train(g, cfg)
        assert state.log == [] and state.epoch == 0
        assert state.final is not None
        assert state.final.z_final.shape == (8, 4)

    def test_fixed_seed_bitwise_reproducible(self):
        g = toy_clustered_graph()
        cfg = TrainConfig(epochs=5, feature_rank=4, seed=3)
        a = train(g, cfg)
        b = train(g, cfg)
        assert a.log == b.log
        for (n1, p1), (n2, p2) in zip(
            a.params.named_arrays(), b.params.named_arrays()
        ):
            assert n1 == n2 and p1.tobytes() == p2.tobytes()

    def test_loss_decreases_on_separable_toy(self):
        g = toy_clustered_graph()
        cfg = TrainConfig(epochs=60, feature_rank=4, lr=0.02, seed=1)
        state = train(g, cfg)
        losses = [l for l, _ in state.log]
        aucs = [m for _, m in state.log]
        assert losses[-1] < losses[0]
        assert aucs[-1] == 1.0  # clusters are perfectly separable

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_all_variants_train(self, tag):
        g = toy_clustered_graph()
        cfg = TrainConfig(
            variant=VariantKind(tag=tag), epochs=8, feature_rank=4, seed=2
        )
        state = train(g, cfg)
        assert len(state.log) == 8
        assert all(np.isfinite(l) for l, _ in state.log)

    def test_divergence_raises_numeric_error_with_epoch(self):
        g = toy_clustered_graph()
        cfg = TrainConfig(
            variant=VariantKind(tag="h2", sigma_v="leaky-relu", sigma_e="leaky-relu"),
            epochs=50,
            lr=1e6,
            optimizer="sgd",
            normalize=False,
            feature_rank=4,
            seed=0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as exc_info:
                train(g, cfg)
        err = exc_info.value
        assert 0 <= err.epoch < 50
        assert err.state.params is not None
        assert len(err.state.log) == err.epoch

    def test_eval_data_drives_logged_metric(self):
        # eval positives straddle the clusters, so they score low while the
        # training metric saturates: the logged columns must disagree
        g = toy_clustered_graph()
        eval_set = LabeledHyperedgeSet(
            positives=[(0, 4, 6), (1, 5, 7), (2, 4, 7)],
            negatives=[(0, 1, 3), (5, 6, 7), (1, 2, 3)],
        )
        cfg = TrainConfig(epochs=6, feature_rank=4, seed=5)
        with_eval = train(g, cfg, eval_data=eval_set)
        without = train(g, cfg)
        assert [l for l, _ in with_eval.log] == [l for l, _ in without.log]
        assert [m for _, m in with_eval.log] != [m for _, m in without.log]
        assert with_eval.log[-1][1] < without.log[-1][1]

    def test_score_sets_eval_mode(self):
        g = toy_clustered_graph()
        cfg = TrainConfig(epochs=10, feature_rank=4, seed=7)
        state = train(g, cfg)
        within = score_sets(state.final.z_final, [(0, 1, 2)], cfg, state.params, cfg.variant)
        across = score_sets(state.final.z_final, [(0, 4, 7)], cfg, state.params, cfg.variant)
        assert within.shape == (1,) and across.shape == (1,)
        assert within[0] > across[0]

    def test_node_classification_toy(self):
        g = toy_clustered_graph()
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        mask = np.array([True, False, True, False, True, False, True, False])
        cfg = TrainConfig(epochs=40, feature_rank=4, lr=0.05, seed=0)
        state = train(g, cfg, task="node-class", data=(labels, mask))
        assert state.params.head is not None
        losses = [l for l, _ in state.log]
        assert losses[-1] < losses[0]
        from scipy.special import softmax

        logits = state.final.z_final @ state.params.head
        preds = softmax(logits, axis=1).argmax(axis=1)
        assert (preds[~mask] == labels[~mask]).mean() == 1.0

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigError, match="task"):
            train(toy_clustered_graph(), TrainConfig(epochs=1), task="regression")

    def test_node_class_requires_labels(self):
        with pytest.raises(DataError, match="labels"):
            train(toy_clustered_graph(), TrainConfig(epochs=1), task="node-class")



def _toy_data(task):
    """(labels, mask) of the toy graph's two clusters for node classification, else None."""
    return (np.arange(8) // 4, np.arange(8) % 2 == 0) if task == "node-class" else None


class TestTrainSharesLayerZero:
    """``train`` forms layer 0's products once per trial, and every forward reads them."""

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_operator_applications_per_trial(self, monkeypatch, sparse_products, layers, tag, task):
        epochs = 3
        tally = _counting(monkeypatch, sparse_products, adjoints=False)
        cfg = TrainConfig(variant=VariantKind(tag=tag), layers=layers, epochs=epochs, feature_rank=4, seed=1)
        counts = tally(lambda: train(toy_clustered_graph(), cfg, task=task, data=_toy_data(task)))
        # E training forwards and the final eval forward share one inputs object
        assert counts["s_v"] == 1 + (epochs + 1) * (layers - 1)
        per_forward = _forward_applications(cfg.variant, layers)
        assert counts == _input_applications(cfg.variant, layers) + Counter(
            {name: (epochs + 1) * n for name, n in per_forward.items()})

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_every_forward_reads_one_set_of_products(self, monkeypatch, tag, task):
        states = []
        run_forward = training.forward
        monkeypatch.setattr(training, "forward", lambda *a, **kw: states.append(run_forward(*a, **kw)) or states[-1])
        g = toy_clustered_graph()
        cfg = TrainConfig(variant=VariantKind(tag=tag, sigma_v="rrelu", sigma_e="rrelu"),
                          epochs=4, feature_rank=4, seed=6)
        state = train(g, cfg, task=task, data=_toy_data(task))
        assert len(states) == cfg.epochs + 1 and states[-1] is state.final
        agg_z0 = states[0].agg_z[0]
        assert all(st.agg_z[0] is agg_z0 and st.z[0] is states[0].z[0] for st in states)
        with pytest.raises(ValueError, match="read-only"):
            agg_z0[0, 0] = 0.0
        # the final state equals a fresh forward on freshly built inputs, bit for bit
        z0, y0 = input_features(g, cfg.variant, cfg.feature_rank, np.random.default_rng(cfg.seed))
        ops = build_operators(g, cfg.variant)
        fresh = forward(ops, state.params, ForwardInputs(ops, z0, y0), cfg.variant)
        final = state.final
        for name in ("z", "y", "agg_z", "agg_y", "deriv_z", "deriv_y"):
            got, want = getattr(final, name), getattr(fresh, name)
            assert len(got) == len(want), name
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), name


class TestOperatorLifetime:
    """A trial's operators are built by ``train`` and go with its graph."""

    def test_hedge_trial_frees_its_split_graph_before_the_next(self, monkeypatch):
        # the next trial splits and samples its negatives with the last one's graph gone
        graphs = []
        trial_data = cli._trial_data

        def trial_data_checking_earlier_graphs(*args):
            gc.collect()
            assert all(ref() is None for ref in graphs)
            out = trial_data(*args)
            graphs.append(weakref.ref(out[0]))
            return out

        monkeypatch.setattr(cli, "_trial_data", trial_data_checking_earlier_graphs)
        g = build_hypergraph(*ringed_hypergraph(1))
        cli.run_trials(Dataset(graph=g), TrainConfig(epochs=1, feature_rank=4), "hyperedge-pred", 3)
        gc.collect()
        assert len(graphs) == 3 and all(ref() is None for ref in graphs)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_operator_arrays_refuse_writes(self, tag):
        ops = build_operators(toy_clustered_graph(), VariantKind(tag=tag))
        arrays = [a for op in (ops.s_v, ops.s_e, ops.b_v, ops.b_e) if op is not None
                  for f in op.factors + op.T.factors for a in (f.data, f.indices, f.indptr)]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[0]

    @pytest.mark.parametrize("task", TASKS)
    def test_training_starts_no_thread(self, task):
        g = build_hypergraph(*ringed_hypergraph(3))
        data = (np.arange(g.num_nodes) % 3, np.arange(g.num_nodes) % 2 == 0)
        cfg = TrainConfig(variant=VariantKind(tag="p2"), epochs=2, feature_rank=4, seed=5)
        before = threading.active_count()
        train(g, cfg, task=task, data=data if task == "node-class" else None)
        assert threading.active_count() == before
        cli.run_trials(Dataset(graph=g, labels=data[0]), cfg, task, 2)
        assert threading.active_count() == before


DECOUPLED_TAGS = [tag for tag in VARIANT_TAGS if not VariantKind(tag=tag).coupled]


class TestDecoupledTrainingSkipsY:
    """A decoupled variant has no Y stream: Y never reaches Z, and no loss or output reads it."""

    @pytest.mark.parametrize("tag", DECOUPLED_TAGS)
    @pytest.mark.parametrize("act", [a for a in ACTIVATION_TAGS if a != "rrelu"])
    def test_z_and_grads_match_the_full_y_stream(self, tag, act):
        # the dense oracle runs the Y stream in full, as the layer equations write it, with
        # W_e drawn here: the decoupled variant holds none, and any W_e gives the same Z
        variant, ops, params, z0, y0 = _grad_setup(tag, act, n_classes=3)
        w_e = [np.random.default_rng(9).uniform(-1.0, 1.0, a.shape) for a in params.w]
        cfg = TrainConfig(variant=variant, score_mode="dependent")
        labels, mask = np.array([0, 1, 2, 1, 0]), np.ones(GRAD_NODES, dtype=bool)

        def loss(z):
            # dependent scoring gives psi a gradient and the classifier gives head one
            scores, caches = _score_examples(z, BCE_EXAMPLES, cfg, params, variant, None, training=True)
            bce, d_scores = hyperedge_bce_loss(scores, BCE_LABELS)
            ce, d_logits = node_ce_loss(z @ params.head, labels, mask)
            return bce + ce, caches, d_scores, d_logits

        def oracle_z():
            return dense_forward(GRAD_EDGES, GRAD_NODES, params.w, w_e, z0, y0, tag, act, act, full_y_stream=True)[0]

        inputs = ForwardInputs(ops, z0)
        st = forward(ops, params, inputs, variant, training=True)
        assert st.y == st.agg_y == st.deriv_y == []
        assert np.array_equal(st.z_final, forward(ops, params, inputs, variant).z_final)
        assert_allclose(st.z_final, oracle_z(), atol=1e-10)
        _, caches, d_scores, d_logits = loss(st.z_final)
        d_z, d_psi = _distribute_score_grads(caches, d_scores, z0.shape, cfg, params)
        grads = backward(st, ops, params, d_z + d_logits @ params.head.T,
                         d_psi=d_psi, d_head=st.z_final.T @ d_logits)
        for (name, arr), (_, grad) in zip(params.named_arrays(), grads.named_arrays()):
            numeric = finite_diff(lambda: loss(oracle_z())[0], arr)
            assert rel_err(grad, numeric) < 1e-4, name
        assert params.w_e == grads.w_e == []
        assert np.abs(grads.psi).max() > 0 and np.abs(grads.head).max() > 0

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("tag", DECOUPLED_TAGS)
    def test_sigma_e_changes_no_trained_float(self, tag, task):
        # sigma_v = rrelu draws slopes after every Z update, so a Y activation that
        # drew its own (sigma_e = rrelu) would shift every later Z
        g = toy_clustered_graph()
        data = _toy_data(task)
        runs = {
            act: train(g, TrainConfig(variant=VariantKind(tag=tag, sigma_v="rrelu", sigma_e=act),
                                      epochs=3, feature_rank=4, seed=2), task=task, data=data)
            for act in ACTIVATION_TAGS
        }
        first = runs[ACTIVATION_TAGS[0]]
        for act, run in runs.items():
            assert run.log == first.log, act
            assert np.array_equal(run.final.z_final, first.final.z_final), act
            for (name, a), (_, b) in zip(run.params.named_arrays(), first.params.named_arrays()):
                assert np.array_equal(a, b), (act, name)


class TestWeightInventory:
    """Every variant holds, updates and saves only the weights a forward reads:
    W(0..L-1), base's W_e(0..L-2), psi, and the head for node classification."""

    @pytest.mark.parametrize("task, score_mode", [
        ("hyperedge-pred", "plain"), ("hyperedge-pred", "dependent"), ("node-class", "plain")])
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_held_updated_and_saved_weights(self, tmp_path, monkeypatch, layers, tag, task, score_mode):
        variant = VariantKind(tag=tag)
        names = [f"w_{k}" for k in range(layers)]
        names += [f"we_{k}" for k in range(layers - 1 if variant.coupled else 0)]
        names += ["psi"] + (["head"] if task == "node-class" else [])
        steps = []
        monkeypatch.setattr(training, "backward", lambda *a, **kw: steps.append(backward(*a, **kw)) or steps[-1])
        moments = []
        monkeypatch.setattr(training, "init_optimizer", lambda *a: moments.append(init_optimizer(*a)) or moments[-1])
        cfg = TrainConfig(variant=variant, layers=layers, epochs=1, feature_rank=4, seed=3, score_mode=score_mode)
        params = train(toy_clustered_graph(), cfg, task=task, data=_toy_data(task)).params

        assert [name for name, _ in params.named_arrays()] == names
        [opt] = moments
        assert list(opt.m) == list(opt.v) == names
        [grads] = steps
        assert [name for name, _ in grads.named_arrays()] == names
        for name, grad in grads.named_arrays():
            if name != "psi" or score_mode == "dependent":
                assert np.abs(grad).max() > 0, name
        model.save_checkpoint(tmp_path / "m.npz", params, {"variant": tag})
        with np.load(tmp_path / "m.npz") as blob:
            assert sorted(blob.files) == sorted(names + ["format_version", "layer_count", "meta_json"])
        loaded, _ = model.load_checkpoint(tmp_path / "m.npz")
        assert [name for name, _ in loaded.named_arrays()] == names


class TestTrainFootprint:
    """What ``train`` loads and holds."""

    def test_train_never_imports_csgraph(self):
        # scipy.sparse.csgraph costs about 7 MB of RSS, and no graph size may load it; nor
        # may the SVD bootstrap or the CLI load scipy.linalg, whose second OpenBLAS costs
        # about 8 MB.  The large graph runs node classification only, to keep the test short
        script = textwrap.dedent("""
            import sys
            import numpy as np
            import hyperemb.cli
            from hyperemb import TrainConfig, VariantKind, build_hypergraph, model, train
            n = int(sys.argv[1])
            rng = np.random.default_rng(0)
            g = build_hypergraph([tuple(rng.choice(n, size=3, replace=False)) for _ in range(n)], n)
            labels = (np.arange(n) % 3, np.arange(n) % 2 == 0)
            for tag in model.VARIANT_TAGS:
                train(g, TrainConfig(variant=VariantKind(tag=tag), epochs=1, feature_rank=4),
                      task="node-class", data=labels)
            if n < 100:
                for tag in model.VARIANT_TAGS:
                    train(g, TrainConfig(variant=VariantKind(tag=tag), epochs=1, feature_rank=4))
            print("scipy.sparse.csgraph" in sys.modules, "scipy.linalg" in sys.modules)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(training.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for n in (60, 16_384):
            run = subprocess.run([sys.executable, "-c", script, str(n)], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            assert run.stdout.split()[-2:] == ["False", "False"], n

    @pytest.mark.parametrize("task, act", [("node-class", "tanh"), ("node-class", "gelu"),
                                           ("hyperedge-pred", "tanh")],
                             ids=["node-class-tanh", "node-class-gelu", "hyperedge-pred-tanh"])
    def test_row_blocks_hold_no_more_than_whole_arrays(self, monkeypatch, task, act):
        # an activation in row blocks keeps only block-sized temporaries, so the epoch
        # peaks no higher than one that runs each row-wise pass on the whole array
        n, width = 3000, 16
        g = build_hypergraph(*ringed_hypergraph(0, n=n, m=n))
        g.pack.adjacency  # derived once, outside the traced runs
        data = (np.arange(n) % 3, np.arange(n) % 2 == 0) if task == "node-class" else None
        cfg = TrainConfig(variant=VariantKind(tag="p2", sigma_v=act), epochs=1, feature_rank=width, seed=1)
        run_forward = training.forward
        peaks = []

        def forward_marking_the_epoch(*args, **kw):
            if kw.get("training"):
                tracemalloc.reset_peak()
            else:
                peaks.append(tracemalloc.get_traced_memory()[1])
            return run_forward(*args, **kw)

        monkeypatch.setattr(training, "forward", forward_marking_the_epoch)
        # a warm-up run, then one block per array, then blocks of 100 rows
        for block in (n * width, n * width, 100 * width):
            monkeypatch.setattr(model, "ROW_BLOCK", block)
            gc.collect()
            gc.disable()
            tracemalloc.start()
            try:
                train(g, cfg, task=task, data=data)
            finally:
                tracemalloc.stop()
                gc.enable()
        _, whole, blocked = peaks
        # the interpreter's own allocations move the peak by a few hundred bytes between
        # runs; one more node array would be n * width * 8 = 384,000
        assert blocked <= whole + 4096, (whole, blocked)


class TestOneCpuRun:
    """A process pinned to one CPU gives the training floats of one free to use them all."""

    SCRIPT = textwrap.dedent("""
        import os, sys
        if sys.argv[2] == "pinned":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        import numpy as np
        from hyperemb import TrainConfig, VariantKind, build_hypergraph, train
        n = 6000
        rng = np.random.default_rng(3)
        edges = [tuple(rng.choice(n, size=int(rng.integers(2, 9)), replace=False)) for _ in range(n)]
        g = build_hypergraph(edges + [(i, (i + 1) % n) for i in range(n)], n)
        labels, mask = np.arange(n) % 4, np.arange(n) % 3 > 0
        state = train(g, TrainConfig(variant=VariantKind(tag="p2"), epochs=3, seed=2),
                      task="node-class", data=(labels, mask), eval_data=~mask)
        arrays = dict(state.params.named_arrays(), log=np.asarray(state.log), z=state.final.z_final)
        np.savez(sys.argv[1], cpus=len(os.sched_getaffinity(0)), **arrays)
    """)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                        reason="needs an affinity mask of at least 2 CPUs")
    def test_pinned_run_is_bit_identical(self, tmp_path):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(training.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        runs = {}
        for mode in ("pinned", "free"):
            path = tmp_path / f"{mode}.npz"
            run = subprocess.run([sys.executable, "-c", self.SCRIPT, str(path), mode], env=env,
                                 capture_output=True, text=True, timeout=300)
            assert run.returncode == 0, run.stderr
            with np.load(path) as blob:
                runs[mode] = {name: blob[name] for name in blob.files}
        pinned, free = runs["pinned"], runs["free"]
        assert pinned["cpus"] == 1 and free["cpus"] >= 2
        for name in pinned:
            if name != "cpus":
                assert np.array_equal(pinned[name], free[name]), name
