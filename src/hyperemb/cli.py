"""Command-line harness: convert, train, sweep, embed, recommend, eval.

Every command is deterministic given its flags and seed, and no output
path is ever silently overwritten — existing files get a numbered
sibling instead.  Exit codes: 0 success, 1 config error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import softmax

from .convert import convert_hypergcn, generate_node_splits
from .data import Dataset, load_dataset, unique_path
from .errors import ConfigError, DataError, NumericError
from .evaluation import (
    EvalReport,
    RANKING_KS,
    auc,
    baseline_rankers,
    multiclass_auc,
    rank_positions,
    recommend,
    split_hyperedges,
    split_links,
)
from .features import randomized_svd
from .model import (
    VariantKind,
    build_operators,
    export_embedding_set,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    build_labeled_set,
    input_features,
    score_sets,
    train,
)

GRID_KEYS = ("variant", "sigma", "layers", "lr", "alpha", "epochs")
CONFIG_KEYS = {
    "variant": str,
    "sigma_v": str,
    "sigma_e": str,
    "layers": int,
    "lr": float,
    "epochs": int,
    "optimizer": str,
    "split_fraction": float,
    "alpha": float,
    "score_fn": str,
    "seed": int,
    "normalize": bool,
    "score_mode": str,
    "feature_rank": int,
    "width": int,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as config errors instead of exiting."""

    def error(self, message):
        raise ConfigError(message)


def load_config_file(path) -> dict:
    """Flat key=value config file; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    out = {}
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{ln}: unknown config key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value):
    kind = CONFIG_KEYS[key]
    if kind is bool:
        if str(value).lower() in ("1", "true", "yes", "cosine"):
            return True
        if str(value).lower() in ("0", "false", "no", "dot"):
            return False
        raise ConfigError(f"cannot read boolean config value {key}={value!r}")
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"cannot read config value {key}={value!r} as {kind.__name__}")


def build_train_config(args) -> TrainConfig:
    """Merge defaults < config file < explicit CLI flags into a TrainConfig."""
    merged: dict = {}
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            merged[key] = _coerce(key, value)
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = _coerce(key, flag)
    variant = VariantKind(
        tag=merged.pop("variant", "base"),
        sigma_v=merged.pop("sigma_v", "tanh"),
        sigma_e=merged.pop("sigma_e", "tanh"),
    )
    return TrainConfig(variant=variant, **merged)


def _compress_features(x: np.ndarray, rank: int, seed: int) -> np.ndarray:
    u, s, _ = randomized_svd(x, rank, rng=np.random.default_rng(seed))
    return u * s[np.newaxis, :]


def _prepare_features(
    ds: Dataset, cfg: TrainConfig, mode: str
) -> tuple[Optional[np.ndarray], dict]:
    """Resolve the node feature source; returns (z0 or None, checkpoint metadata).

    'file' uses the dataset's features (compressed to the width override
    when one is set, keeping the base variant's width coupling intact);
    'svd' bootstraps structural features inside each trial.  'auto'
    picks 'file' when the dataset has features.
    """
    if mode == "auto":
        mode = "file" if ds.features is not None else "svd"
    if mode == "svd":
        return None, {"feature_source": "svd", "feature_rank": cfg.feature_rank}
    if ds.features is None:
        raise DataError("dataset has no features.tsv but --features file was requested")
    x = ds.features
    if cfg.width is not None and cfg.width < x.shape[1]:
        x = _compress_features(x, cfg.width, cfg.seed)
        return x, {
            "feature_source": "file-compressed",
            "width": cfg.width,
            "feature_seed": cfg.seed,
        }
    return x, {"feature_source": "file"}


def _write_epoch_log(path, log, wall_ms) -> Path:
    path = unique_path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "metric", "wall_ms"])
        for epoch, ((loss, metric), ms) in enumerate(zip(log, wall_ms)):
            writer.writerow([epoch, repr(loss), repr(metric), f"{ms:.3f}"])
    return path


def _checkpoint_meta(cfg: TrainConfig, task: str, seed: int, feat_meta: dict) -> dict:
    return {
        "task": task,
        "variant": cfg.variant.tag,
        "sigma_v": cfg.variant.sigma_v,
        "sigma_e": cfg.variant.sigma_e,
        "rrelu_lo": cfg.variant.rrelu_range[0],
        "rrelu_hi": cfg.variant.rrelu_range[1],
        "layers": cfg.layers,
        "seed": seed,
        "score_fn": cfg.score_fn,
        "score_mode": cfg.score_mode,
        "normalize": cfg.normalize,
        "feature_rank": cfg.feature_rank,
        "width": cfg.width,
        **feat_meta,
    }


def _variant_from_meta(meta: dict) -> VariantKind:
    return VariantKind(
        tag=meta["variant"],
        sigma_v=meta["sigma_v"],
        sigma_e=meta["sigma_e"],
        rrelu_range=(meta["rrelu_lo"], meta["rrelu_hi"]),
    )


def _checkpoint_state(g, features, params, meta: dict, seed: int):
    """Eval-mode (variant, embeddings) of ``g`` under checkpoint weights, with Z(0)
    from the checkpoint's feature source and ``seed`` seeding the SVD bootstrap."""
    variant = _variant_from_meta(meta)
    z0 = None
    source = meta.get("feature_source", "svd")
    if source in ("file", "file-compressed"):
        if features is None:
            raise DataError("checkpoint expects dataset features but none are present")
        z0 = features
        if source == "file-compressed":
            z0 = _compress_features(features, meta["width"], meta["feature_seed"])
    z0, y0 = input_features(g, int(meta.get("feature_rank", 32)), np.random.default_rng(seed), z0)
    return variant, forward(build_operators(g, variant), params, z0, y0, variant, training=False)


def run_trials(
    ds: Dataset,
    cfg: TrainConfig,
    task: str,
    trials: int,
    features_mode: str = "auto",
    out_dir: Optional[Path] = None,
    checkpoint_name: str = "model.npz",
) -> EvalReport:
    """The multi-trial protocol shared by train and sweep.

    Hyperedge prediction: per trial, split hyperedges, train on the
    train side, report AUC on held-out positives vs freshly sampled
    negatives.  Node classification: per trial, use the trial's
    provided split (cycled) and report masked test AUC.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    z0_shared, feat_meta = _prepare_features(ds, cfg, features_mode)
    g = ds.graph
    seeds = [cfg.seed + t for t in range(trials)]
    values: list[float] = []
    last_state = None
    last_seed = cfg.seed

    if task == "node-class":
        if ds.labels is None:
            raise DataError("node classification needs labels.tsv")
        splits = ds.splits
        if not splits:
            splits = generate_node_splits(ds.labels, count=trials, rng=cfg.seed)
            print(f"no provided splits; generated {len(splits)} seeded splits", file=sys.stderr)

    for t, seed in enumerate(seeds):
        cfg_t = replace(cfg, seed=seed)
        if task == "hyperedge-pred":
            rng = np.random.default_rng(seed)
            train_g, held = split_hyperedges(g, cfg.split_fraction, rng)
            train_set = build_labeled_set(train_g, cfg.alpha, rng, forbid=held)
            eval_set = build_labeled_set(
                train_g, cfg.alpha, rng, positives=held, forbid=held
            )
            state = train(
                train_g, cfg_t, task, data=train_set, eval_data=eval_set, z0=z0_shared
            )
            scores = score_sets(
                state.final.z_final, eval_set.pack, cfg_t, state.params, cfg.variant
            )
            values.append(auc(scores, eval_set.labels))
        else:
            train_idx, test_idx = splits[t % len(splits)]
            train_mask = np.zeros(g.num_nodes, dtype=bool)
            train_mask[train_idx] = True
            test_mask = np.zeros(g.num_nodes, dtype=bool)
            test_mask[test_idx] = True
            state = train(
                g, cfg_t, task, data=(ds.labels, train_mask), eval_data=test_mask,
                z0=z0_shared,
            )
            probs = softmax(state.final.z_final @ state.params.head, axis=1)
            values.append(multiclass_auc(probs, ds.labels, test_mask))
        last_state, last_seed = state, seed
        if out_dir is not None:
            _write_epoch_log(out_dir / f"trial_{t:02d}.csv", state.log, state.wall_ms)

    if out_dir is not None and last_state is not None:
        meta = _checkpoint_meta(cfg, task, last_seed, feat_meta)
        save_checkpoint(unique_path(out_dir / checkpoint_name), last_state.params, meta)
    return EvalReport(task=task, seeds=seeds, per_trial={"auc": values})


def cmd_convert(args) -> int:
    out_dir = unique_path(Path(args.out))
    manifest = convert_hypergcn(
        args.input, out_dir, name=args.name, rng=args.seed
    )
    print(json.dumps({"out": str(out_dir), **manifest}, indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    cfg = build_train_config(args)
    ds = load_dataset(args.data)
    out_dir = unique_path(Path(args.out))
    out_dir.mkdir(parents=True)
    try:
        report = run_trials(
            ds, cfg, args.task, args.trials, features_mode=args.features, out_dir=out_dir
        )
    except NumericError as err:
        state = getattr(err, "state", None)
        if state is not None:
            kept = _write_epoch_log(out_dir / "trial_partial.csv", state.log, state.wall_ms)
            print(f"diverged: partial log kept at {kept}", file=sys.stderr)
        raise
    report_path = unique_path(out_dir / "report.json")
    report_path.write_text(report.to_json())
    print(f"{args.task}: auc mean {report.mean('auc'):.4f} std {report.std('auc'):.4f} "
          f"over {report.trials} trial(s)")
    print(f"report: {report_path}")
    return 0


def _grid_cells(vary: list[str]) -> tuple[list[str], list[tuple]]:
    keys: list[str] = []
    value_lists: list[list] = []
    for spec_str in vary:
        if "=" not in spec_str:
            raise ConfigError(f"--vary expects key=v1,v2,..., got {spec_str!r}")
        key, _, values = spec_str.partition("=")
        key = key.strip()
        if key not in GRID_KEYS:
            raise ConfigError(f"unknown grid key {key!r}; expected one of {GRID_KEYS}")
        parsed = [v.strip() for v in values.split(",") if v.strip()]
        if not parsed:
            raise ConfigError(f"--vary {key} lists no values")
        keys.append(key)
        value_lists.append(parsed)
    if not keys:
        raise ConfigError("sweep needs at least one --vary key=v1,v2,...")
    return keys, list(itertools.product(*value_lists))


def _apply_cell(cfg: TrainConfig, keys: list[str], cell: tuple) -> TrainConfig:
    for key, value in zip(keys, cell):
        if key == "variant":
            cfg = replace(cfg, variant=replace(cfg.variant, tag=value))
        elif key == "sigma":
            cfg = replace(cfg, variant=replace(cfg.variant, sigma_v=value, sigma_e=value))
        elif key == "layers":
            cfg = replace(cfg, layers=_coerce("layers", value))
        elif key == "lr":
            cfg = replace(cfg, lr=_coerce("lr", value))
        elif key == "alpha":
            cfg = replace(cfg, alpha=_coerce("alpha", value))
        elif key == "epochs":
            cfg = replace(cfg, epochs=_coerce("epochs", value))
    return cfg


def cmd_sweep(args) -> int:
    base_cfg = build_train_config(args)
    ds = load_dataset(args.data)
    keys, cells = _grid_cells(args.vary)
    out_dir = unique_path(Path(args.out))
    out_dir.mkdir(parents=True)

    def run_cell(index_cell):
        index, cell = index_cell
        cell_dir = out_dir / f"cell_{index:03d}"
        cell_dir.mkdir()
        try:
            cfg = _apply_cell(base_cfg, keys, cell)
            report = run_trials(
                ds, cfg, args.task, args.trials,
                features_mode=args.features, out_dir=cell_dir,
            )
            return {"status": "ok", "mean": report.mean("auc"), "std": report.std("auc")}
        except Exception as exc:  # a failed cell must not sink the sweep
            return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}

    with ThreadPoolExecutor(max_workers=args.threads) as pool:
        results = list(pool.map(run_cell, enumerate(cells)))

    table_path = unique_path(out_dir / "sweep.csv")
    with table_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", *keys, "status", "auc_mean", "auc_std", "error"])
        for index, (cell, result) in enumerate(zip(cells, results)):
            writer.writerow([
                index, *cell, result["status"],
                "" if result["status"] != "ok" else repr(result["mean"]),
                "" if result["status"] != "ok" else repr(result["std"]),
                result.get("error", ""),
            ])
    failed = sum(1 for r in results if r["status"] != "ok")
    print(f"sweep: {len(cells) - failed}/{len(cells)} cells ok; table: {table_path}")
    return 0


def cmd_embed(args) -> int:
    ds = load_dataset(args.data)
    params, meta = load_checkpoint(args.checkpoint)
    variant, state = _checkpoint_state(ds.graph, ds.features, params, meta, meta["seed"])
    g = ds.graph
    if args.nodes.strip().lower() == "all":
        nodes = list(range(g.num_nodes))
    else:
        try:
            nodes = [int(tok) for tok in args.nodes.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--nodes expects comma-separated ids or 'all', got {args.nodes!r}")
    out_path = unique_path(Path(args.out))
    total = 0
    with out_path.open("w") as fh:
        fh.write("# node\thyperedge\t" + "\t".join(f"v{j}" for j in range(params.psi.shape[1])) + "\n")
        for node in nodes:
            mat = export_embedding_set(g, state, params, node, variant)
            for edge_id, row in zip(g.node_edges[node], mat):
                fh.write(f"{node}\t{edge_id}\t" + "\t".join(repr(float(v)) for v in row) + "\n")
                total += 1
    print(f"wrote {total} embedding rows for {len(nodes)} node(s) to {out_path}")
    return 0


def _ranking_metrics(ranks: np.ndarray, ks) -> dict[str, float]:
    """Mean HR@k and nDCG@k over queries, from each query's 1-based truth rank."""
    out = {}
    for k in ks:
        hit = ranks <= k
        out[f"hr@{k}"] = float(hit.mean())
        out[f"ndcg@{k}"] = float(np.where(hit, 1.0 / np.log2(ranks + 1.0), 0.0).mean())
    return out


def cmd_recommend(args) -> int:
    cfg = build_train_config(args)
    ds = load_dataset(args.data)
    g = ds.graph
    if g.node_type is None:
        raise DataError("recommendation needs node_types.tsv")
    if args.candidate_type not in set(g.node_type):
        raise DataError(f"candidate type {args.candidate_type!r} not present in node types")
    ks = [k for k in RANKING_KS if k <= len(g.nodes_of_type(args.candidate_type))] or [1]

    checkpoint_params = checkpoint_meta = None
    if args.checkpoint:
        checkpoint_params, checkpoint_meta = load_checkpoint(args.checkpoint)

    per_ranker: dict[str, dict[str, list[float]]] = {}
    seeds = [cfg.seed + t for t in range(args.trials)]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        train_g, pairs = split_links(
            g, args.holdout, args.candidate_type, rng, query_type=args.query_type
        )
        if checkpoint_params is None:
            final = train(train_g, replace(cfg, seed=seed), "hyperedge-pred").final
        else:
            _, final = _checkpoint_state(train_g, ds.features, checkpoint_params, checkpoint_meta, seed)

        n_candidates = len(train_g.nodes_of_type(args.candidate_type))
        model_ranks = []
        for query, truth in pairs:
            ranked = [c for c, _ in recommend(train_g, final, query, args.candidate_type, n_candidates)]
            model_ranks.append(rank_positions(ranked, [truth])[0])
        ranks = {"model": np.array(model_ranks)}
        # each baseline ranking serves every query through one rank-position map
        truths = [truth for _, truth in pairs]
        for ranker, ranked in baseline_rankers(train_g, args.candidate_type, rng).items():
            ranks[ranker] = rank_positions(ranked, truths)
        for ranker, ranker_ranks in ranks.items():
            for name, value in _ranking_metrics(ranker_ranks, ks).items():
                per_ranker.setdefault(ranker, {}).setdefault(name, []).append(value)

    reports = {
        ranker: EvalReport(task="recommendation", seeds=seeds, per_trial=metrics)
        for ranker, metrics in per_ranker.items()
    }
    payload = {ranker: json.loads(rep.to_json()) for ranker, rep in reports.items()}
    out_path = unique_path(Path(args.out))
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    for ranker in sorted(reports):
        rep = reports[ranker]
        line = " ".join(
            f"{name}={rep.mean(name):.3f}" for name in sorted(rep.per_trial)
        )
        print(f"{ranker}: {line}")
    print(f"report: {out_path}")
    return 0


def cmd_eval(args) -> int:
    cfg = build_train_config(args)
    ds = load_dataset(args.data)
    params, meta = load_checkpoint(args.checkpoint)
    variant, state = _checkpoint_state(ds.graph, ds.features, params, meta, meta["seed"])
    if args.task == "hyperedge-pred":
        labeled = build_labeled_set(ds.graph, cfg.alpha, np.random.default_rng(cfg.seed))
        scores = score_sets(state.z_final, labeled.pack, cfg, params, variant)
        value = auc(scores, labeled.labels)
    else:
        if ds.labels is None or params.head is None:
            raise DataError("node classification eval needs labels and a classifier head")
        if ds.splits:
            masks = []
            for _, test_idx in ds.splits:
                mask = np.zeros(ds.graph.num_nodes, dtype=bool)
                mask[test_idx] = True
                masks.append(mask)
        else:
            masks = [ds.labels >= 0]
        probs = softmax(state.z_final @ params.head, axis=1)
        value = float(np.mean([multiclass_auc(probs, ds.labels, m) for m in masks]))
    print(json.dumps({"task": args.task, "auc": value}))
    return 0


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=("base", "p2", "plusplus", "wt", "h2"))
    parser.add_argument("--sigma-v", dest="sigma_v",
                        choices=("tanh", "leaky-relu", "gelu", "selu", "rrelu"))
    parser.add_argument("--sigma-e", dest="sigma_e",
                        choices=("tanh", "leaky-relu", "gelu", "selu", "rrelu"))
    parser.add_argument("--layers", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--optimizer", choices=("adam", "sgd"))
    parser.add_argument("--split-fraction", dest="split_fraction", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--score-fn", dest="score_fn", choices=("mean-pairwise", "max-min"))
    parser.add_argument("--score-mode", dest="score_mode", choices=("plain", "dependent"))
    parser.add_argument("--score-norm", dest="normalize", choices=("cosine", "dot"))
    parser.add_argument("--feature-rank", dest="feature_rank", type=int)
    parser.add_argument("--width", type=int)
    parser.add_argument("--features", choices=("auto", "file", "svd"), default="auto")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hyperemb", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument(
        "--threads", type=int,
        default=int(os.environ.get("HYPEREMB_THREADS", "2")),
        help="worker pool size for sweeps (env HYPEREMB_THREADS)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a pickle-layout dataset to the text layout")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", help="dataset name for statistics cross-checks")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("train", help="multi-trial training with a held-out evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("hyperedge-pred", "node-class"), default="hyperedge-pred")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid sweep over config values")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("hyperedge-pred", "node-class"), default="hyperedge-pred")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--vary", action="append", default=[],
                   help="key=v1,v2,... with key in " + "/".join(GRID_KEYS))
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("embed", help="dump hyperedge-dependent embeddings from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--nodes", default="all", help="comma-separated node ids or 'all'")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("recommend", help="held-out-link ranking with baselines")
    p.add_argument("--data", required=True)
    p.add_argument("--candidate-type", dest="candidate_type", required=True)
    p.add_argument("--query-type", dest="query_type")
    p.add_argument("--holdout", type=float, default=0.2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--checkpoint", help="evaluate these weights instead of training")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("eval", help="metrics for an existing checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=("hyperedge-pred", "node-class"), default="hyperedge-pred")
    _add_train_flags(p)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
