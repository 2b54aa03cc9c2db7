import argparse
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from hyperemb import (
    ConfigError,
    ForwardInputs,
    TrainConfig,
    VariantKind,
    build_hypergraph,
    build_operators,
    forward,
    init_hyperedge_features,
    init_node_features,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    split_links,
    write_dataset,
)
from hyperemb import cli, evaluation, model, training
from hyperemb.cli import build_parser, build_train_config, main
from hyperemb.features import SVD_BOOTSTRAP
from hyperemb.model import ACTIVATION_TAGS, VARIANT_TAGS
from hyperemb.training import OPTIMIZERS, SCORE_FNS, SCORE_MODES, TASKS
from test_data import write_pickle_dataset

CLUSTER_EDGES = [
    (0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3),
    (4, 5, 6), (4, 5, 7), (5, 6, 7), (4, 6, 7),
]


def make_dataset(root, with_labels=True):
    g = build_hypergraph(CLUSTER_EDGES, 8)
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1]) if with_labels else None
    write_dataset(root, g, labels=labels)
    return root


def make_typed_dataset(root, pairs=4):
    # fragment/style pairs plus a cross-membership noise edge each
    types = ["frag"] * pairs + ["style"] * pairs
    edges = []
    for i in range(pairs):
        edges.append((i, pairs + i))
        edges.append(tuple(sorted((i, (i + 1) % pairs, pairs + i))))
    g = build_hypergraph(edges, 2 * pairs, node_type=types)
    write_dataset(root, g)
    return root


def shrink_feature_rank(ckpt):
    """Rewrite a checkpoint so its svd features are one column narrower than W(0)."""
    params, meta = load_checkpoint(ckpt)
    save_checkpoint(ckpt, params, {**meta, "feature_rank": meta["feature_rank"] - 1})


FAST = ["--epochs", "5", "--feature-rank", "4", "--lr", "0.05"]

# the meta a checkpoint carried before eval replayed its trial
OLD_META = {"task": "hyperedge-pred", "variant": "base", "sigma_v": "tanh", "sigma_e": "tanh",
            "layers": 1, "seed": 0, "score_fn": "mean-pairwise", "score_mode": "plain",
            "normalize": True, "feature_rank": 4, "width": None, "feature_source": "svd"}


class TestTrainCommand:
    def test_end_to_end_artifacts(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--trials", "2", *FAST])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["task"] == "hyperedge-pred"
        assert report["trials"] == 2
        assert len(report["metrics"]["auc"]["values"]) == 2
        assert all(0.0 <= v <= 1.0 for v in report["metrics"]["auc"]["values"])
        assert (out / "trial_00.csv").exists() and (out / "trial_01.csv").exists()
        assert (out / "model.npz").exists()
        stdout = capsys.readouterr().out
        assert "auc mean" in stdout

    def test_epoch_log_columns(self, tmp_path):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), *FAST]) == 0
        lines = (out / "trial_00.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == ["epoch", "loss", "metric", "wall_ms"]
        assert len(lines) == 6  # header + 5 epochs

    def test_deterministic_given_seed(self, tmp_path):
        data = make_dataset(tmp_path / "ds")
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--seed", "9", "train", "--data", str(data),
                         "--out", str(out), "--trials", "2", *FAST]) == 0
            runs.append(json.loads((out / "report.json").read_text()))
        assert runs[0]["metrics"]["auc"]["values"] == runs[1]["metrics"]["auc"]["values"]

    def test_node_classification_path(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--task", "node-class", "--trials", "2", *FAST])
        assert code == 0
        err = capsys.readouterr().err
        assert "generated" in err  # no provided splits, seeded fallback
        report = json.loads((out / "report.json").read_text())
        assert report["task"] == "node-class"

    def test_unknown_variant_is_config_error(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        code = main(["train", "--data", str(data), "--out", str(tmp_path / "x"),
                     "--variant", "bogus"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x"), *FAST])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_existing_out_dir_not_overwritten(self, tmp_path):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), *FAST]) == 0
        first = (out / "report.json").read_bytes()
        assert main(["train", "--data", str(data), "--out", str(out), *FAST]) == 0
        assert (out / "report.json").read_bytes() == first  # untouched
        assert (tmp_path / "run-1" / "report.json").exists()

    def test_divergence_keeps_partial_log(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main([
                "train", "--data", str(data), "--out", str(out),
                "--variant", "h2", "--sigma-v", "leaky-relu", "--sigma-e", "leaky-relu",
                "--optimizer", "sgd", "--lr", "1e6", "--score-norm", "dot",
                "--epochs", "50", "--feature-rank", "4",
            ])
        assert code == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err
        assert (out / "trial_partial.csv").exists()


class TestConfigFile:
    def parse(self, cfg_file, extra=()):
        # --config is a global flag: it comes before the subcommand
        return build_parser().parse_args(
            ["--config", str(cfg_file), "train", "--data", "d", "--out", "o", *extra]
        )

    def test_file_overrides_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr = 0.5\nepochs=3  # short run\nvariant=p2\n")
        cfg = build_train_config(self.parse(cfg_file))
        assert cfg.lr == 0.5 and cfg.epochs == 3 and cfg.variant.tag == "p2"

    def test_cli_flag_beats_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("lr=0.5\n")
        args = self.parse(cfg_file, ["--lr", "0.125"])
        assert build_train_config(args).lr == 0.125

    def test_normalize_accepts_cosine_and_dot(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("normalize=dot\n")
        assert build_train_config(self.parse(cfg_file)).normalize is False

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("momentum=0.9\n")
        data = make_dataset(tmp_path / "ds")
        code = main(["--config", str(cfg_file), "train",
                     "--data", str(data), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "momentum" in capsys.readouterr().err

    def test_bad_value_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("epochs=plenty\n")
        code = main(["--config", str(cfg_file), "train",
                     "--data", "d", "--out", "o"])
        assert code == 1
        assert "epochs" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_order_and_table(self, tmp_path):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "sweep"
        code = main(["--threads", "2", "sweep", "--data", str(data),
                     "--out", str(out),
                     "--vary", "layers=1,2", "--vary", "lr=0.05,0.01", *FAST])
        assert code == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].split(",") == [
            "cell", "layers", "lr", "status", "auc_mean", "auc_std", "error"
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert [(r[1], r[2]) for r in rows] == [
            ("1", "0.05"), ("1", "0.01"), ("2", "0.05"), ("2", "0.01")
        ]
        assert all(r[3] == "ok" for r in rows)
        for k in range(4):
            assert (out / f"cell_{k:03d}" / "trial_00.csv").exists()
            assert (out / f"cell_{k:03d}" / "model.npz").exists()

    def test_failed_cell_recorded_not_fatal(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", str(data), "--out", str(out),
                     "--vary", "layers=1,0", *FAST])
        assert code == 0
        assert "1/2 cells ok" in capsys.readouterr().out
        rows = [line.split(",") for line in
                (out / "sweep.csv").read_text().strip().splitlines()[1:]]
        assert rows[0][2] == "ok"
        assert rows[1][2] == "failed" and "layers" in rows[1][5]

    def test_two_threads_write_the_one_thread_table(self, tmp_path):
        data = make_dataset(tmp_path / "ds")
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"sweep{threads}"
            assert main(["--threads", threads, "sweep", "--data", str(data), "--out", str(out),
                         "--vary", "variant=base,p2,h2", "--vary", "lr=0.05,0.01", *FAST]) == 0
            tables.append((out / "sweep.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_threads_default_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("HYPEREMB_THREADS", "7")
        args = build_parser().parse_args(["sweep", "--data", "d", "--out", "o", "--vary", "lr=0.1"])
        assert args.threads == 1

    def test_missing_vary_exits_one(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        code = main(["sweep", "--data", str(data), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--vary" in capsys.readouterr().err


class TestEmbedCommand:
    def trained(self, tmp_path, *flags):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), "--score-mode", "dependent",
                     *FAST, *flags]) == 0
        return data, out / "model.npz"

    def test_all_nodes_row_count_is_total_incidences(self, tmp_path, capsys):
        data, ckpt = self.trained(tmp_path)
        emb = tmp_path / "emb.tsv"
        code = main(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(emb)])
        assert code == 0
        lines = emb.read_text().strip().splitlines()
        assert lines[0].startswith("# node\thyperedge\tv0")
        g = build_hypergraph(CLUSTER_EDGES, 8)
        assert len(lines) - 1 == g.num_incidences
        assert f"wrote {g.num_incidences} embedding rows" in capsys.readouterr().out

    def test_node_subset(self, tmp_path):
        data, ckpt = self.trained(tmp_path)
        emb = tmp_path / "emb.tsv"
        assert main(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                     "--nodes", "0,4", "--out", str(emb)]) == 0
        rows = [l.split("\t") for l in emb.read_text().strip().splitlines()[1:]]
        assert {r[0] for r in rows} == {"0", "4"}
        assert len([r for r in rows if r[0] == "0"]) == 3  # node 0 sits in 3 edges

    @pytest.mark.parametrize("flags, message", [
        (("--score-mode", "plain"), "has score_mode 'plain'"),
        (("--task", "node-class"), "has task 'node-class'"),
    ], ids=["plain-scoring", "node-class"])
    def test_checkpoint_with_untrained_psi_exits_two(self, tmp_path, capsys, flags, message):
        data, ckpt = self.trained(tmp_path, *flags)
        capsys.readouterr()
        code = main(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "e.tsv")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "e.tsv").exists()

    def test_checkpoint_from_before_trial_replay_exits_two(self, tmp_path, capsys):
        data, ckpt = self.trained(tmp_path)
        params, _ = load_checkpoint(ckpt)
        save_checkpoint(ckpt, params, OLD_META)
        capsys.readouterr()
        code = main(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                     "--out", str(tmp_path / "e.tsv")])
        assert code == 2
        assert "has no 'trial' in its meta" in capsys.readouterr().err

    def test_bad_node_list_exits_one(self, tmp_path, capsys):
        data, ckpt = self.trained(tmp_path)
        code = main(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                     "--nodes", "0,x", "--out", str(tmp_path / "e.tsv")])
        assert code == 1
        assert "--nodes" in capsys.readouterr().err

    def test_out_of_range_node_exits_two_naming_it(self, tmp_path, capsys):
        data, ckpt = self.trained(tmp_path)
        capsys.readouterr()
        code = main(["embed", "--checkpoint", str(ckpt), "--data", str(data),
                     "--nodes", "0,8", "--out", str(tmp_path / "e.tsv")])
        assert code == 2
        assert "node 8 outside [0, 8)" in capsys.readouterr().err
        assert not (tmp_path / "e.tsv").exists()

    @pytest.mark.parametrize("variant", ["base", "p2"])
    def test_heldout_rows_are_the_activations_eval_scores(self, tmp_path, monkeypatch, variant):
        data, ckpt = self.trained(tmp_path, "--trials", "2", "--variant", variant)
        emb = tmp_path / "emb.tsv"
        assert main(["embed", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(emb)]) == 0
        written = {}
        for line in emb.read_text().splitlines()[1:]:
            node, edge, *values = line.split("\t")
            written[int(node), int(edge)] = [float(v) for v in values]

        scored = []  # (pack, embeddings) of every dependent_embeddings call eval makes
        original = training.dependent_embeddings

        def spy(z_final, pack, *args):
            out = original(z_final, pack, *args)
            scored.append((pack, out[0]))
            return out

        monkeypatch.setattr(training, "dependent_embeddings", spy)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
        [(pack, rows)] = scored
        # the held-out positives lead the eval pack; each is a hyperedge of the full graph
        _, meta = load_checkpoint(ckpt)
        held = cli._trial_data(load_dataset(data), cli.config_from(
            {key: meta[key] for key in cli.CONFIG_KEYS}), "hyperedge-pred", meta["trial"], None)[2]
        edge_ids = {e: j for j, e in enumerate(load_dataset(data).graph.edges.tuples())}
        assert held.positives
        for t, positive in enumerate(held.positives):
            for r in range(pack.indptr[t], pack.indptr[t + 1]):
                got = written[int(pack.idx[r]), edge_ids[positive]]
                assert np.array_equal(got, rows[r]), (positive, int(pack.idx[r]))


class TestRecommendCommand:
    def test_end_to_end_with_baselines(self, tmp_path, capsys):
        data = make_typed_dataset(tmp_path / "ds")
        out = tmp_path / "rec.json"
        code = main(["recommend", "--data", str(data), "--candidate-type", "style",
                     "--holdout", "0.25", "--trials", "2", "--out", str(out), *FAST])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"model", "random", "popularity"}
        for ranker in payload.values():
            assert ranker["trials"] == 2
            assert "hr@1" in ranker["metrics"] and "ndcg@1" in ranker["metrics"]
            for metric in ranker["metrics"].values():
                assert all(0.0 <= v <= 1.0 for v in metric["values"])
        stdout = capsys.readouterr().out
        assert "model:" in stdout and "popularity:" in stdout

    def test_checkpoint_ranks_match_forward_on_train_graph(self, tmp_path):
        data = make_typed_dataset(tmp_path / "ds", pairs=12)
        run = tmp_path / "run"
        assert main(["--seed", "0", "train", "--data", str(data), "--out", str(run), *FAST]) == 0
        out = tmp_path / "rec.json"
        assert main(["--seed", "3", "recommend", "--data", str(data), "--candidate-type", "style",
                     "--holdout", "0.25", "--checkpoint", str(run / "model.npz"),
                     "--out", str(out)]) == 0
        model = json.loads(out.read_text())["model"]["metrics"]

        # the trial's own split and seed, features and operators of its train graph
        params, meta = load_checkpoint(run / "model.npz")
        variant = VariantKind(meta["variant"], meta["sigma_v"], meta["sigma_e"])
        train_g, pairs = split_links(load_dataset(data).graph, 0.25, "style", np.random.default_rng(3))
        z0 = init_node_features(train_g, 4, rng=np.random.default_rng(3))
        y0 = init_hyperedge_features(train_g, z0)
        ops = build_operators(train_g, variant)
        z = forward(ops, params, ForwardInputs(ops, z0, y0), variant).z_final
        styles = np.array(train_g.nodes_of_type("style"))
        ranks = []
        for query, truth in pairs:
            norms = np.linalg.norm(z[styles], axis=1) * np.linalg.norm(z[query])
            cos = np.where(norms > 0, z[styles] @ z[query] / np.where(norms > 0, norms, 1), 0.0)
            mine = cos[styles == truth][0]
            ranks.append(1 + np.sum(cos > mine) + np.sum((cos == mine) & (styles < truth)))
        ranks = np.array(ranks)
        assert set(model) == {"hr@1", "hr@10", "ndcg@1", "ndcg@10"}
        for k in (1, 10):
            assert model[f"hr@{k}"]["values"] == [pytest.approx(np.mean(ranks <= k), abs=1e-12)]
            ndcg = np.where(ranks <= k, 1 / np.log2(ranks + 1.0), 0.0).mean()
            assert model[f"ndcg@{k}"]["values"] == [pytest.approx(ndcg, abs=1e-12)]

    def test_checkpoint_width_mismatch_exits_two(self, tmp_path, capsys):
        data = make_typed_dataset(tmp_path / "ds")
        run = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(run), *FAST]) == 0
        shrink_feature_rank(run / "model.npz")
        capsys.readouterr()
        code = main(["recommend", "--data", str(data), "--candidate-type", "style",
                     "--checkpoint", str(run / "model.npz"), "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "z0 width 3 does not match W(0) input dim 4" in capsys.readouterr().err

    def test_unknown_candidate_type_exits_two(self, tmp_path, capsys):
        data = make_typed_dataset(tmp_path / "ds")
        code = main(["recommend", "--data", str(data), "--candidate-type", "button",
                     "--out", str(tmp_path / "r.json"), *FAST])
        assert code == 2
        assert "button" in capsys.readouterr().err

    def test_untyped_dataset_exits_two(self, tmp_path):
        data = make_dataset(tmp_path / "ds")
        code = main(["recommend", "--data", str(data), "--candidate-type", "style",
                     "--out", str(tmp_path / "r.json"), *FAST])
        assert code == 2


class TestEvalCommand:
    def test_checkpoint_eval_prints_auc(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), *FAST]) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.npz"), "--data", str(data)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task"] == "hyperedge-pred"
        assert 0.0 <= payload["auc"] <= 1.0

    def test_width_mismatch_exits_two(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), *FAST]) == 0
        shrink_feature_rank(out / "model.npz")
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "model.npz"), "--data", str(data)])
        assert code == 2
        assert "z0 width 3 does not match W(0) input dim 4" in capsys.readouterr().err

    def test_missing_checkpoint_exits_two(self, tmp_path, capsys):
        data = make_dataset(tmp_path / "ds")
        code = main(["eval", "--checkpoint", str(tmp_path / "no.npz"),
                     "--data", str(data)])
        assert code == 2

    def test_meta_with_rrelu_range_still_loads(self, tmp_path, capsys):
        # checkpoints from when the rrelu slope range was a variant field carry it in their meta
        data = make_dataset(tmp_path / "ds")
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out), "--sigma-v", "rrelu", *FAST]) == 0
        ckpt = out / "model.npz"
        params, meta = load_checkpoint(ckpt)
        assert "rrelu_lo" not in meta and "rrelu_hi" not in meta
        argv = ["eval", "--checkpoint", str(ckpt), "--data", str(data)]
        capsys.readouterr()
        assert main(argv) == 0
        fresh = json.loads(capsys.readouterr().out)
        save_checkpoint(ckpt, params, {**meta, "rrelu_lo": 1 / 8, "rrelu_hi": 1 / 3})
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == fresh


def _without_bootstrap(ckpt) -> dict:
    """Rewrite a checkpoint's meta as written before it named the svd bootstrap."""
    params, meta = load_checkpoint(ckpt)
    meta.pop("svd_bootstrap", None)
    save_checkpoint(ckpt, params, meta)
    return meta


@pytest.mark.parametrize("command", [
    ["eval"],
    ["embed", "--out", "{tmp}/e.tsv"],
    ["recommend", "--candidate-type", "style", "--out", "{tmp}/r.json"],
], ids=["eval", "embed", "recommend"])
def test_svd_checkpoint_without_its_bootstrap_exits_two(tmp_path, capsys, command):
    # its svd features came from another bootstrap, so a replay would report another AUC
    data = make_typed_dataset(tmp_path / "ds")
    ckpt = tmp_path / "run" / "model.npz"
    assert main(["train", "--data", str(data), "--out", str(ckpt.parent), "--score-mode", "dependent",
                 *FAST]) == 0
    assert load_checkpoint(ckpt)[1]["svd_bootstrap"] == SVD_BOOTSTRAP
    _without_bootstrap(ckpt)
    capsys.readouterr()
    argv = [arg.format(tmp=tmp_path) for arg in command]
    assert main([*argv, "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    assert "needs 'svd_bootstrap'" in capsys.readouterr().err
    assert not (tmp_path / "e.tsv").exists() and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("width, source", [(None, "file"), (3, "file-compressed")])
def test_file_feature_checkpoint_needs_no_bootstrap(tmp_path, capsys, width, source):
    data = make_typed_dataset(tmp_path / "ds")
    rows = np.random.default_rng(0).standard_normal((8, 5))
    (data / "features.tsv").write_text("".join("\t".join(map(repr, row.tolist())) + "\n" for row in rows))
    run = tmp_path / "run"
    flags = [] if width is None else ["--width", str(width)]
    assert main(["train", "--data", str(data), "--out", str(run), "--features", "file", *flags, *FAST]) == 0
    assert _without_bootstrap(run / "model.npz")["feature_source"] == source
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "model.npz"), "--data", str(data)]) == 0
    report = json.loads((run / "report.json").read_text())
    assert json.loads(capsys.readouterr().out)["auc"] == report["metrics"]["auc"]["values"][-1]


def make_grouped_dataset(root, groups=4, size=10):
    """Seeded hyperedges mostly inside node groups, the group as label, two provided splits."""
    rng = np.random.default_rng(0)
    n = groups * size
    edges = [tuple(range(k, n, size)) for k in range(size)]  # one member of every group each
    for _ in range(6 * groups):
        group = int(rng.integers(groups))
        edges.append(tuple(group * size + rng.choice(size, size=int(rng.integers(2, 5)), replace=False)))
    g = build_hypergraph(edges, n)
    labels = np.arange(n) // size
    splits = []
    for _ in range(2):
        perm = rng.permutation(n)
        splits.append((np.sort(perm[: n // 2]), np.sort(perm[n // 2:])))
    write_dataset(root, g, labels=labels, splits=splits)
    return root


@pytest.mark.parametrize("task", ["hyperedge-pred", "node-class"])
@pytest.mark.parametrize("scorer", [[], ["--score-fn", "max-min"]], ids=["default", "max-min"])
def test_eval_prints_the_saved_trials_heldout_auc(tmp_path, capsys, task, scorer):
    data = make_grouped_dataset(tmp_path / "ds")
    run = tmp_path / "run"
    assert main(["--seed", "3", "train", "--data", str(data), "--out", str(run), "--task", task,
                 "--trials", "2", *FAST, *scorer]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run / "model.npz"), "--data", str(data)]) == 0
    printed = json.loads(capsys.readouterr().out)
    report = json.loads((run / "report.json").read_text())
    assert printed == {"task": task, "auc": report["metrics"]["auc"]["values"][-1]}


def test_heldout_auc_reads_scipys_softmax_bits():
    from scipy.special import softmax

    rng = np.random.default_rng(4)
    z, head = rng.standard_normal((300, 8)), rng.standard_normal((8, 5)) * 3.0
    params = model.ModelParams(w=[], w_e=[], psi=np.zeros((16, 8)), head=head)
    labels, held = np.arange(300) % 5, np.arange(300) % 4 == 0
    got = cli._heldout_auc("node-class", z, params, None, (labels, ~held), held)
    assert got == evaluation.multiclass_auc(softmax(z @ head, axis=1), labels, held)
    assert not hasattr(cli, "softmax")  # one row softmax in the package: training.row_softmax


def _rewrite_arrays(ckpt, **changes):
    """Rewrite a checkpoint's arrays with np.savez; ``changes`` sets or replaces them by key."""
    with np.load(ckpt) as blob:
        arrays = {key: blob[key] for key in blob.files}
    np.savez(ckpt, **{**arrays, **changes})
    return arrays


def _trained_checkpoint(tmp_path, *flags):
    """(dataset, checkpoint, reported held-out AUC) of a one-trial training run."""
    data = make_dataset(tmp_path / "ds")
    run = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(run), *FAST, *flags]) == 0
    report = json.loads((run / "report.json").read_text())
    return data, run / "model.npz", report["metrics"]["auc"]["values"][-1]


@pytest.mark.parametrize("task, changes, message", [
    ("hyperedge-pred", {"layer_count": np.asarray(0)}, "layer_count 0"),
    ("hyperedge-pred", {"w_1": np.zeros((3, 4))}, "does not chain"),
    ("hyperedge-pred", {"we_0": np.zeros((4, 3))}, "we_0 is shaped (4, 3)"),
    ("hyperedge-pred", {"psi": np.zeros((8, 3))}, "psi is shaped (8, 3)"),
    ("node-class", {"head": np.zeros((3, 2))}, "head is shaped (3, 2)"),
    ("hyperedge-pred", {"w_0": np.zeros((4, 3)), "we_0": np.zeros((4, 3)), "w_1": np.zeros((3, 3)),
                        "psi": np.zeros((6, 3))}, "one width throughout"),
], ids=["no-layers", "w-chain", "we-shape", "psi-shape", "head-rows", "base-width"])
def test_malformed_checkpoint_weights_exit_two(tmp_path, capsys, task, changes, message):
    data, ckpt, _ = _trained_checkpoint(tmp_path, "--task", task)
    _rewrite_arrays(ckpt, **changes)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    err = capsys.readouterr().err
    assert message in err and "model.npz" in err and "Traceback" not in err


@pytest.mark.parametrize("variant", ["base", "p2"])
def test_checkpoint_with_every_layers_w_e_still_loads(tmp_path, capsys, variant):
    # checkpoints stored one W_e per layer for every variant before the unread ones were dropped
    flags = ["--variant", variant, "--score-mode", "dependent", "--trials", "2"]
    data, ckpt, trained_auc = _trained_checkpoint(tmp_path, *flags)
    embed = ["embed", "--checkpoint", str(ckpt), "--data", str(data), "--out"]
    assert main([*embed, str(tmp_path / "now.tsv")]) == 0
    with np.load(ckpt) as blob:
        held = {key: blob[key] for key in blob.files if key.startswith("we_")}
    assert sorted(held) == (["we_0"] if variant == "base" else [])
    # the unread W_e of the old layout: all of p2's, base's top layer
    _rewrite_arrays(ckpt, **{f"we_{k}": np.full((4, 4), 0.5) for k in range(2) if f"we_{k}" not in held})
    params, _ = load_checkpoint(ckpt)
    assert len(params.w_e) == len(held) and all(np.array_equal(a, held[f"we_{k}"]) for k, a in enumerate(params.w_e))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["auc"] == trained_auc
    assert main([*embed, str(tmp_path / "old.tsv")]) == 0
    assert (tmp_path / "old.tsv").read_text() == (tmp_path / "now.tsv").read_text()


def _write_features(text):
    return lambda data: (data / "features.tsv").write_text(text)


def _write_split(index):
    def write(data):
        (data / "splits").mkdir()
        (data / "splits" / "split_00.json").write_text(json.dumps({"train": [0, index], "test": [1]}))
    return write


def _write_npy_as_npz(data):
    with (data / "other.npz").open("wb") as fh:
        np.save(fh, np.zeros(3))


def _write_checkpoint_meta(meta):
    params = model.init_params([4, 4], VariantKind(), rng=0)
    return lambda data: save_checkpoint(data / "other.npz", params, meta)


TRAIN_NODE_CLASS = ["train", "--task", "node-class", "--out", "{out}", *FAST]
EVAL = ["eval", "--checkpoint", "{ckpt}"]
EMBED = ["embed", "--checkpoint", "{ckpt}", "--out", "{out}"]
BAD_FILES = [
    pytest.param(_write_features("0.5\n" * 7 + "nan\n"), TRAIN_NODE_CLASS,
                 "features.tsv:8: non-finite feature value", id="nan-feature"),
    pytest.param(_write_features("inf\n" + "0.5\n" * 7), TRAIN_NODE_CLASS,
                 "features.tsv:1: non-finite feature value", id="inf-feature"),
    pytest.param(_write_split(9), TRAIN_NODE_CLASS,
                 "split_00.json: train index 9 outside [0, 8)", id="split-index-past-end"),
    pytest.param(_write_split(-1), TRAIN_NODE_CLASS,
                 "split_00.json: train index -1 outside [0, 8)", id="negative-split-index"),
    pytest.param(lambda data: np.savez(data / "other.npz", weights=np.zeros(3)),
                 EVAL, "other.npz is not a hyperemb checkpoint", id="foreign-npz"),
    pytest.param(_write_npy_as_npz, EVAL, "other.npz is a single array", id="npy-array"),
    pytest.param(_write_checkpoint_meta({}), EMBED, "other.npz has no 'task' in its meta",
                 id="empty-meta-embed"),
    pytest.param(_write_checkpoint_meta({}), EVAL, "other.npz has no 'task' in its meta",
                 id="empty-meta-eval"),
    pytest.param(_write_checkpoint_meta(OLD_META), EVAL, "other.npz has no 'trial' in its meta",
                 id="meta-without-trial"),
    pytest.param(_write_checkpoint_meta(cli._checkpoint_meta(TrainConfig(), "regression", 0, 1, {})),
                 EVAL, "other.npz has unknown task 'regression'", id="unknown-task-eval"),
]


@pytest.mark.parametrize("write, command, message", BAD_FILES)
def test_bad_input_file_exits_two_naming_it(tmp_path, capsys, write, command, message):
    data = make_dataset(tmp_path / "ds")
    write(data)
    argv = [arg.format(out=tmp_path / "run", ckpt=data / "other.npz") for arg in command]
    assert main([*argv, "--data", str(data)]) == 2
    assert message in capsys.readouterr().err


def test_run_trials_rejects_unknown_task_before_splitting(tmp_path, monkeypatch):
    ds = load_dataset(make_dataset(tmp_path / "ds"))
    monkeypatch.setattr(cli, "_trial_data", lambda *args: pytest.fail("split before the task check"))
    with pytest.raises(ConfigError, match="unknown task 'regression'"):
        cli.run_trials(ds, TrainConfig(epochs=1), "regression", 1)


class TestConvertCommand:
    def test_pickle_to_text_layout(self, tmp_path, capsys):
        src = tmp_path / "raw"
        write_pickle_dataset(
            src,
            {"a": [0, 1, 2], "b": [2, 3]},
            features=np.random.default_rng(0).standard_normal((4, 3)),
            labels=np.array([0, 0, 1, 1]),
        )
        out = tmp_path / "ds"
        code = main(["convert", "--input", str(src), "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["out"] == str(out)
        assert payload["num_nodes"] == 4 and payload["num_hyperedges"] == 2
        assert (out / "hyperedges.txt").exists()
        assert (out / "manifest.json").exists()

    def test_existing_out_suffixed(self, tmp_path, capsys):
        src = tmp_path / "raw"
        write_pickle_dataset(src, {"a": [0, 1]})
        (tmp_path / "ds").mkdir()
        code = main(["convert", "--input", str(src), "--out", str(tmp_path / "ds")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["out"] == str(tmp_path / "ds-1")

    def test_bad_source_exits_two(self, tmp_path, capsys):
        code = main(["convert", "--input", str(tmp_path / "raw"),
                     "--out", str(tmp_path / "ds")])
        assert code == 2


class TestParser:
    def test_readme_command_lines_parse(self):
        # a flag that is removed but still documented fails here
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        lines = [
            line.strip()
            for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip().startswith("hyperemb ")
        ]
        assert len(lines) >= 6
        parser = build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line)[1:])
            except ConfigError as exc:
                pytest.fail(f"README line {line!r} does not parse: {exc}")

    @pytest.mark.parametrize("command", ["train", "sweep", "recommend"])
    def test_choices_are_the_library_constants(self, command):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices[command]._actions if a.choices is not None}
        want = {"variant": VARIANT_TAGS, "sigma_v": ACTIVATION_TAGS, "sigma_e": ACTIVATION_TAGS,
                "optimizer": OPTIMIZERS, "score_fn": SCORE_FNS, "score_mode": SCORE_MODES}
        if command != "recommend":
            want["task"] = TASKS
        for dest, constant in want.items():
            assert tuple(choices[dest]) == constant, dest

    def test_no_command_is_config_error(self, capsys):
        assert main([]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag_is_config_error(self, tmp_path, capsys):
        assert main(["train", "--data", "d", "--out", "o", "--warp", "9"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_console_script_registered(self):
        # The declaration in pyproject.toml is the source of truth and holds
        # without an install; an installed distribution's metadata must match
        # it too, so a stale install fails.
        from importlib.metadata import (
            EntryPoint, PackageNotFoundError, distribution, entry_points)

        try:
            distribution("hyperemb")
        except PackageNotFoundError:
            installed = None
            tomllib = pytest.importorskip("tomllib")
        else:
            scripts = entry_points(group="console_scripts")
            installed = {ep.name: ep.value for ep in scripts}.get("hyperemb")
            assert installed == "hyperemb.cli:main"
            try:
                import tomllib
            except ModuleNotFoundError:  # Python 3.10
                tomllib = None

        value = installed
        if tomllib is not None:
            pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
            project = tomllib.loads(pyproject.read_text())["project"]
            value = project.get("scripts", {}).get("hyperemb")
            assert value == "hyperemb.cli:main"
            if installed is not None:
                assert installed == value
        ep = EntryPoint(name="hyperemb", value=value, group="console_scripts")
        assert ep.load() is main
