"""Release gates, one test per gate.

Each test shows up as a single PASS/FAIL/SKIP line in the `acceptance`
section of the pytest summary (hook in conftest.py).  Gates 1-4 need the
public benchmark corpora and skip with instructions when HYPEREMB_DATA
is not set; gates 5 and 6 are self-contained and always run.
"""

import json
import math
import time

import numpy as np
from numpy.testing import assert_allclose

from hyperemb import (
    DataError,
    TrainConfig,
    VariantKind,
    auc,
    build_hypergraph,
    build_labeled_set,
    ForwardInputs,
    build_operators,
    default_dims,
    forward,
    hyperedge_bce_loss,
    init_params,
    load_dataset,
    node_ce_loss,
    rank_positions,
    sample_negatives,
    split_hyperedges,
    train,
    write_dataset,
)
from hyperemb.cli import _ranking_metrics, main, run_trials
from hyperemb.model import ACTIVATION_TAGS, VARIANT_TAGS
from hyperemb.training import _distribute_score_grads, _score_examples, backward, dependent_embeddings
from conftest import dataset_root, require_dataset
from oracles import (
    brute_auc,
    brute_node_adjacency,
    dense_operators,
    dense_transitions,
    finite_diff,
    random_hypergraph,
    rel_err,
    transition_matrices,
)

TRIALS = 10


def _timed_trials(ds, cfg, task, trials, **kw):
    start = time.perf_counter()
    report = run_trials(ds, cfg, task, trials, **kw)
    per_trial = (time.perf_counter() - start) / trials
    return report, per_trial


# --------------------------------------------------------------------------
# gate 1: hyperedge prediction AUC floors on the coauthorship benchmarks


def test_c1_hyperedge_prediction_auc_floor():
    floors = {"citeseer": 0.91, "cora-ca": 0.88}
    dirs = {name: require_dataset(name) for name in floors}
    for name, floor in floors.items():
        ds = load_dataset(dirs[name])
        cfg = TrainConfig(split_fraction=0.8, alpha=0.5, seed=0)
        report, per_trial = _timed_trials(
            ds, cfg, "hyperedge-pred", TRIALS, features_mode="svd"
        )
        mean = report.mean("auc")
        assert mean >= floor, f"{name}: mean AUC {mean:.4f} below {floor}"
        assert per_trial <= 300, f"{name}: {per_trial:.0f}s per trial exceeds 5 min"


# --------------------------------------------------------------------------
# gate 2: node classification AUC floors over the provided splits


def test_c2_node_classification_auc_floor():
    floors = {"citeseer": 0.82, "dblp": 0.93}
    dirs = {name: require_dataset(name) for name in floors}
    for name, floor in floors.items():
        ds = load_dataset(dirs[name])
        # run_trials falls back to generated seeded splits (and says so on
        # stderr) when the dataset ships none
        cfg = TrainConfig(seed=0, width=64)
        report, per_trial = _timed_trials(ds, cfg, "node-class", TRIALS)
        mean = report.mean("auc")
        assert mean >= floor, f"{name}: mean AUC {mean:.4f} below {floor}"
        assert per_trial <= 900, f"{name}: {per_trial:.0f}s per trial exceeds 15 min"


# --------------------------------------------------------------------------
# gate 3: the decoupled variants stay close to the base model


def test_c3_variant_parity():
    path = require_dataset("citeseer")
    ds = load_dataset(path)
    trials = 5
    means = {}
    for tag in ("base", "p2", "plusplus", "h2"):
        cfg = TrainConfig(
            variant=VariantKind(tag=tag), split_fraction=0.8, alpha=0.5, seed=0
        )
        report = run_trials(ds, cfg, "hyperedge-pred", trials, features_mode="svd")
        means[tag] = report.mean("auc")
    for tag in ("p2", "plusplus", "h2"):
        gap = abs(means[tag] - means["base"])
        assert gap <= 0.05, (
            f"{tag} AUC {means[tag]:.4f} is {gap:.4f} from base {means['base']:.4f}"
        )


# --------------------------------------------------------------------------
# gate 4: training efficiency — strong held-out AUC within 25 epochs


def test_c4_early_epoch_efficiency():
    path = require_dataset("dblp")
    ds = load_dataset(path)
    cfg = TrainConfig(epochs=25, seed=0)
    rng = np.random.default_rng(cfg.seed)
    train_g, held = split_hyperedges(ds.graph, cfg.split_fraction, rng)
    train_set = build_labeled_set(train_g, cfg.alpha, rng, forbid=held)
    eval_set = build_labeled_set(train_g, cfg.alpha, rng, positives=held, forbid=held)
    state = train(train_g, cfg, "hyperedge-pred", data=train_set, eval_data=eval_set)
    loss, metric = state.log[24]
    assert metric >= 0.90, f"epoch-25 held-out AUC {metric:.4f} below 0.90"
    assert loss <= 0.6, f"epoch-25 training loss {loss:.4f} above 0.6"


# --------------------------------------------------------------------------
# gate 5: the self-contained property battery


def _usable_instance(seed):
    """A random graph on which negative sampling is feasible, plus a
    labeled hyperedge batch built from it."""
    for bump in range(20):
        rng = np.random.default_rng(seed + 7919 * bump)
        edges, n = random_hypergraph(rng, max_nodes=10, max_edges=6)
        g = build_hypergraph(edges, n)
        try:
            negatives = sample_negatives(g, len(edges), 0.5, rng)
        except DataError:
            continue
        examples = g.edges.tuples() + negatives
        labels = [1] * len(edges) + [0] * len(negatives)
        return g, examples, labels
    raise AssertionError(f"no usable random instance from seed {seed}")


def _gradient_cell(tag, act, seed):
    """Analytic vs central-difference gradients of every weight matrix,
    for both losses, on one random instance."""
    g, examples, labels = _usable_instance(seed)
    variant = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
    ops = build_operators(g, variant)
    dims = default_dims(3, 2)
    feat_rng = np.random.default_rng(seed + 1)
    z0 = feat_rng.standard_normal((g.num_nodes, 3))
    y0 = feat_rng.standard_normal((g.num_hyperedges, 3))
    inputs = ForwardInputs(ops, z0, y0)
    cfg = TrainConfig(variant=variant)

    def fwd(params):
        # fresh identically-seeded generator per call: rrelu redraws the
        # same slopes, so finite differences see a fixed function
        return forward(
            ops, params, inputs, variant, rng=np.random.default_rng(777), training=True
        )

    # -- hyperedge BCE over the sampled batch
    params = init_params(dims, variant, rng=np.random.default_rng(seed))

    def bce_value():
        st = fwd(params)
        scores, _ = _score_examples(
            st.z_final, examples, cfg, params, variant, None, training=True
        )
        return hyperedge_bce_loss(scores, labels)[0]

    st = fwd(params)
    scores, caches = _score_examples(
        st.z_final, examples, cfg, params, variant, None, training=True
    )
    _, d_scores = hyperedge_bce_loss(scores, labels)
    d_z, d_psi = _distribute_score_grads(caches, d_scores, st.z_final.shape, cfg, params)
    grads = dict(backward(st, ops, params, d_z, d_psi=d_psi).named_arrays())
    for name, arr in params.named_arrays():
        err = rel_err(grads[name], finite_diff(bce_value, arr))
        assert err < 1e-4, f"bce d/d{name} rel err {err:.2e} ({tag}/{act})"

    # -- masked node cross-entropy through the classification head
    params = init_params(dims, variant, rng=np.random.default_rng(seed), n_classes=3)
    node_labels = feat_rng.integers(0, 3, g.num_nodes)
    mask = feat_rng.random(g.num_nodes) > 0.3
    mask[0] = True

    def ce_value():
        st = fwd(params)
        return node_ce_loss(st.z_final @ params.head, node_labels, mask)[0]

    st = fwd(params)
    _, d_logits = node_ce_loss(st.z_final @ params.head, node_labels, mask)
    grads = dict(
        backward(
            st, ops, params,
            d_logits @ params.head.T,
            d_head=st.z_final.T @ d_logits,
        ).named_arrays()
    )
    for name, arr in params.named_arrays():
        err = rel_err(grads[name], finite_diff(ce_value, arr))
        assert err < 1e-4, f"ce d/d{name} rel err {err:.2e} ({tag}/{act})"


def test_c5_property_battery():
    # 1. gradients match finite differences for every variant x activation
    for i, tag in enumerate(VARIANT_TAGS):
        for j, act in enumerate(ACTIVATION_TAGS):
            _gradient_cell(tag, act, seed=3000 + 101 * i + 13 * j)

    rng = np.random.default_rng(424242)
    for _ in range(20):
        edges, n = random_hypergraph(rng)
        g = build_hypergraph(edges, n)

        # 2. incidence algebra against dense brute force
        assert_allclose(
            g.pack.adjacency.toarray(), brute_node_adjacency(edges, n), atol=1e-10
        )
        p, p_e = transition_matrices(g)
        dense_p, dense_pe = dense_transitions(edges, n)
        assert_allclose(p.toarray(), dense_p, atol=1e-10)
        assert_allclose(p_e.toarray(), dense_pe, atol=1e-10)

        # 3. both walk operators are column-stochastic
        assert_allclose(p.toarray().sum(axis=0), np.ones(n), atol=1e-10)
        assert_allclose(p_e.toarray().sum(axis=0), np.ones(len(edges)), atol=1e-10)

        # 2b. every variant's propagation operators against literal chains
        #     (a decoupled variant has no Y stream, so only base builds S_e, B_v and B_e)
        for tag in VARIANT_TAGS:
            ops = build_operators(g, tag)
            dense = dict(zip(("s_v", "s_e", "b_v", "b_e"), dense_operators(edges, n, tag)))
            for name, want in dense.items():
                got = getattr(ops, name)
                if tag != "base" and name != "s_v":
                    assert got is None, (tag, name)
                else:
                    assert_allclose(got.toarray(), want, atol=1e-10, err_msg=f"{tag} {name}")

    # 4. rank-based AUC equals exhaustive pair counting, ties included
    for case in range(50):
        size = int(rng.integers(2, 51))
        scores = rng.integers(0, 4, size=size).astype(float)
        labels = rng.integers(0, 2, size=size)
        labels[0], labels[1] = 1, 0  # both classes present
        assert auc(scores, labels) == brute_auc(scores, labels), f"case {case}"

    # 5. an item ranked third scores exactly 1/log2(4) = 0.5 once k reaches it
    ranks = rank_positions([7, 4, 9, 2, 0], [9])
    for k in (3, 4, 10):
        assert _ranking_metrics(ranks, [k])[f"ndcg@{k}"] == 0.5
    assert _ranking_metrics(ranks, [2])["ndcg@2"] == 0.0

    # 6. corruption keeps exactly ceil(alpha * |e|) source members
    sampler_rng = np.random.default_rng(99)
    for size in (4, 5, 6):
        for alpha in (0.25, 0.5, 0.75):
            g = build_hypergraph([tuple(range(size))], size + 6)
            expected = math.ceil(alpha * size)
            for neg in sample_negatives(g, 30, alpha, sampler_rng):
                kept = len(set(neg) & set(range(size)))
                assert kept == expected, (size, alpha, neg)
                assert len(neg) == size

    # 7. one dependent embedding per incidence, act([z_i ; mean of e's Z rows] @ psi)
    edges, n = random_hypergraph(np.random.default_rng(7))
    g = build_hypergraph(edges, n)
    variant = VariantKind()
    ops = build_operators(g, variant)
    params = init_params(default_dims(3, 2), variant, rng=np.random.default_rng(1))
    feat_rng = np.random.default_rng(2)
    inputs = ForwardInputs(
        ops, feat_rng.standard_normal((n, 3)), feat_rng.standard_normal((len(edges), 3))
    )
    state = forward(ops, params, inputs, variant)
    rows, _, _ = dependent_embeddings(state.z_final, g.edges, params, variant, None, False)
    assert rows.shape[0] == g.num_incidences
    z = state.z_final
    for node in range(n):
        mine = rows[g.edges.idx == node]
        assert len(mine) == len(g.node_edges[node]), f"node {node}"
        for row, e in zip(mine, g.node_edges[node]):
            members = list(g.edges[e])
            want = np.tanh(np.concatenate([z[node], z[members].mean(axis=0)]) @ params.psi)
            assert_allclose(row, want, atol=1e-12, err_msg=f"node {node} edge {e}")


# --------------------------------------------------------------------------
# gate 6: held-out link ranking separates a planted catalog perfectly


def _planted_catalog(tmp_path):
    """Twelve disjoint clusters, each pairing one fragment with one style
    across six hyperedges; the right style is unambiguous per fragment."""
    edges, types = [], []
    for c in range(12):
        f, s, o1, o2 = 4 * c, 4 * c + 1, 4 * c + 2, 4 * c + 3
        types += ["frag", "style", "other", "other"]
        edges += [
            (f, s),
            (f, s, o1),
            (f, s, o2),
            (f, s, o1, o2),
            (f, s, o1),
            (f, s, o2),
        ]
    g = build_hypergraph(edges, 48, node_type=types)
    data_dir = tmp_path / "catalog"
    write_dataset(data_dir, g)
    return data_dir


def _recommend_report(data_dir, out_path, trials, holdout, epochs):
    code = main(
        [
            "recommend",
            "--data", str(data_dir),
            "--candidate-type", "style",
            "--query-type", "frag",
            "--holdout", str(holdout),
            "--trials", str(trials),
            "--out", str(out_path),
            "--epochs", str(epochs),
            "--feature-rank", "24",
            "--lr", "0.05",
        ]
    )
    assert code == 0
    return json.loads(out_path.read_text())


def test_c6_ranking_separable_toy(tmp_path, capsys):
    data_dir = _planted_catalog(tmp_path)
    payload = _recommend_report(
        data_dir, tmp_path / "rank.json", trials=10, holdout=0.1, epochs=100
    )
    capsys.readouterr()

    model = payload["model"]["metrics"]
    assert model["hr@1"]["mean"] == 1.0, f"model HR@1 {model['hr@1']['mean']:.3f}"
    assert model["ndcg@1"]["mean"] == 1.0, f"model nDCG@1 {model['ndcg@1']['mean']:.3f}"
    random = payload["random"]["metrics"]
    assert random["hr@1"]["mean"] <= 0.2, f"random HR@1 {random['hr@1']['mean']:.3f}"
    assert random["ndcg@1"]["mean"] <= 0.2

    # the corpus half of this gate runs only when a converted corpus exists
    root = dataset_root()
    corpus = None if root is None else root / "ui-fragments"
    if corpus is not None and corpus.is_dir():
        payload = _recommend_report(
            corpus, tmp_path / "corpus.json", trials=5, holdout=0.2, epochs=100
        )
        capsys.readouterr()
        hr10 = payload["model"]["metrics"]["hr@10"]["mean"]
        assert hr10 >= 0.35, f"corpus HR@10 {hr10:.3f} below 0.35"
