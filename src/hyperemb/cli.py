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
    split_hyperedges,
    split_links,
    truth_ranks,
)
from .features import SVD_BOOTSTRAP, randomized_svd
from .model import (
    ACTIVATION_TAGS,
    VARIANT_TAGS,
    ForwardInputs,
    VariantKind,
    build_operators,
    forward,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    OPTIMIZERS,
    SCORE_FNS,
    SCORE_MODES,
    TASKS,
    TrainConfig,
    build_labeled_set,
    dependent_embeddings,
    input_features,
    row_softmax,
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
# the checkpoint meta that rebuilds a model's embeddings; every checkpoint version has it
MODEL_META = ("variant", "sigma_v", "sigma_e", "feature_rank")
# the checkpoint meta that replays the checkpoint's trial, for eval and embed
REPLAY_META = ("task", "trial", "trials", *CONFIG_KEYS)


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
    return config_from(merged)


def config_from(values: dict) -> TrainConfig:
    """The TrainConfig of typed CONFIG_KEYS values; absent keys keep their defaults."""
    values = dict(values)
    variant = VariantKind(
        tag=values.pop("variant", "base"),
        sigma_v=values.pop("sigma_v", "tanh"),
        sigma_e=values.pop("sigma_e", "tanh"),
    )
    return TrainConfig(variant=variant, **values)


def _feature_meta(features: Optional[np.ndarray], cfg: TrainConfig, mode: str) -> dict:
    """The checkpoint metadata naming a run's node feature source.

    'auto' picks 'file' when the dataset has features, else 'svd', which
    also names the bootstrap algorithm.  A file source wider than the width
    override becomes 'file-compressed', which keeps the base variant's width
    coupling intact.
    """
    if mode == "auto":
        mode = "file" if features is not None else "svd"
    if mode == "svd":
        return {"feature_source": "svd", "svd_bootstrap": SVD_BOOTSTRAP}
    if features is not None and cfg.width is not None and cfg.width < features.shape[1]:
        return {"feature_source": "file-compressed", "width": cfg.width, "feature_seed": cfg.seed}
    return {"feature_source": "file"}


def _given_features(features: Optional[np.ndarray], meta: dict) -> Optional[np.ndarray]:
    """The Z(0) a run's or a checkpoint's feature source takes from the dataset:
    the features, their seeded rank-``width`` SVD map, or None for the in-trial
    SVD bootstrap of 'svd', which the meta must name: a checkpoint written
    before it did would replay other features."""
    source = meta.get("feature_source", "svd")
    if source == "svd":
        if meta.get("svd_bootstrap") != SVD_BOOTSTRAP:
            raise DataError(f"feature source 'svd' needs 'svd_bootstrap' {SVD_BOOTSTRAP!r} in the "
                            "checkpoint meta; a checkpoint without it replays other features")
        return None
    if features is None:
        raise DataError(f"feature source {source!r} needs the dataset's features.tsv, which is missing")
    if source == "file":
        return features
    u, s, _ = randomized_svd(features, meta["width"], rng=np.random.default_rng(meta["feature_seed"]))
    return u * s[np.newaxis, :]


def _write_epoch_log(path, log, wall_ms) -> Path:
    path = unique_path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "metric", "wall_ms"])
        for epoch, ((loss, metric), ms) in enumerate(zip(log, wall_ms)):
            writer.writerow([epoch, repr(loss), repr(metric), f"{ms:.3f}"])
    return path


def _checkpoint_meta(cfg: TrainConfig, task: str, trial: int, trials: int, feat_meta: dict) -> dict:
    """The run's resolved config under its CONFIG_KEYS names, plus the task, the
    saved trial's index, the trial count and the feature source."""
    config = {"variant": cfg.variant.tag, "sigma_v": cfg.variant.sigma_v, "sigma_e": cfg.variant.sigma_e}
    config.update((key, getattr(cfg, key)) for key in CONFIG_KEYS if key not in config)
    return {**config, "task": task, "trial": trial, "trials": trials, **feat_meta}


def _load_checkpoint(path, keys=MODEL_META):
    """A checkpoint whose meta holds ``keys``; a missing one is a DataError naming it."""
    params, meta = load_checkpoint(path)
    missing = [key for key in keys if key not in meta]
    if missing:
        raise DataError(f"checkpoint {path} has no {missing[0]!r} in its meta")
    return params, meta


def _checkpoint_state(g, features, params, meta: dict, seed: int):
    """Eval-mode (variant, embeddings) of ``g`` under checkpoint weights, with Z(0)
    from the checkpoint's feature source and ``seed`` seeding the SVD bootstrap.
    Meta keys other checkpoint versions wrote, such as ``rrelu_lo``/``rrelu_hi``,
    are ignored."""
    cfg = config_from({key: meta[key] for key in MODEL_META})
    z0 = _given_features(features, meta)
    z0, y0 = input_features(g, cfg.variant, cfg.feature_rank, np.random.default_rng(seed), z0)
    ops = build_operators(g, cfg.variant)
    return cfg.variant, forward(ops, params, ForwardInputs(ops, z0, y0), cfg.variant, training=False)


def _node_splits(ds: Dataset, cfg: TrainConfig, trials: int) -> list:
    """The dataset's node splits, else ``trials`` seeded ones."""
    if ds.labels is None:
        raise DataError("node classification needs labels.tsv")
    if ds.splits:
        return ds.splits
    splits = generate_node_splits(ds.labels, count=trials, rng=cfg.seed)
    print(f"no provided splits; generated {len(splits)} seeded splits", file=sys.stderr)
    return splits


def _trial_data(ds: Dataset, cfg: TrainConfig, task: str, t: int, splits):
    """Trial ``t``'s (train graph, training data, held-out data).

    Hyperedge prediction splits the hyperedges and builds both labeled sets
    from one generator seeded ``cfg.seed + t``.  Node classification trains on
    the whole graph with the trial's node split, cycled, as masks.
    """
    if task == "hyperedge-pred":
        rng = np.random.default_rng(cfg.seed + t)
        train_g, held = split_hyperedges(ds.graph, cfg.split_fraction, rng)
        train_set = build_labeled_set(train_g, cfg.alpha, rng, forbid=held)
        eval_set = build_labeled_set(train_g, cfg.alpha, rng, positives=held, forbid=held)
        return train_g, train_set, eval_set
    nodes = np.arange(ds.graph.num_nodes)
    train_mask, test_mask = (np.isin(nodes, idx) for idx in splits[t % len(splits)])
    return ds.graph, (ds.labels, train_mask), test_mask


def _replay(ds: Dataset, params, meta: dict):
    """The checkpoint's own trial, replayed: (config, training data, held-out data,
    eval-mode embeddings of the trial's train graph seeded ``seed + trial``)."""
    task, trial = meta["task"], meta["trial"]
    cfg = config_from({key: meta[key] for key in CONFIG_KEYS})
    splits = _node_splits(ds, cfg, meta["trials"]) if task == "node-class" else None
    train_g, data, held = _trial_data(ds, cfg, task, trial, splits)
    _, state = _checkpoint_state(train_g, ds.features, params, meta, cfg.seed + trial)
    return cfg, data, held, state


def _heldout_auc(task: str, z_final, params, cfg: TrainConfig, data, held) -> float:
    """Held-out AUC of a trial's final embeddings on its ``_trial_data``."""
    if task == "hyperedge-pred":
        return auc(score_sets(z_final, held.pack, cfg, params, cfg.variant), held.labels)
    return multiclass_auc(row_softmax(z_final @ params.head), data[0], held)


def run_trials(
    ds: Dataset,
    cfg: TrainConfig,
    task: str,
    trials: int,
    features_mode: str = "auto",
    out_dir: Optional[Path] = None,
) -> EvalReport:
    """The multi-trial protocol shared by train and sweep; eval replays one trial.

    Hyperedge prediction: per trial, split hyperedges, train on the
    train side, report AUC on held-out positives vs freshly sampled
    negatives.  Node classification: per trial, use the trial's
    provided split (cycled) and report masked test AUC.
    """
    if task not in TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TASKS}")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    feat_meta = _feature_meta(ds.features, cfg, features_mode)
    z0_shared = _given_features(ds.features, feat_meta)
    splits = _node_splits(ds, cfg, trials) if task == "node-class" else None
    seeds = [cfg.seed + t for t in range(trials)]
    values: list[float] = []
    for t, seed in enumerate(seeds):
        cfg_t = replace(cfg, seed=seed)
        train_g, data, held = _trial_data(ds, cfg, task, t, splits)
        state = train(train_g, cfg_t, task, data=data, eval_data=held, z0=z0_shared)
        values.append(_heldout_auc(task, state.final.z_final, state.params, cfg_t, data, held))
        if out_dir is not None:
            _write_epoch_log(out_dir / f"trial_{t:02d}.csv", state.log, state.wall_ms)
            if t == trials - 1:
                meta = _checkpoint_meta(cfg, task, t, trials, feat_meta)
                save_checkpoint(unique_path(out_dir / "model.npz"), state.params, meta)
        del state  # its final embeddings hold Z(0) and every layer; free them before the next trial
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
        else:
            cfg = replace(cfg, **{key: _coerce(key, value)})
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
    """Write each listed node's hyperedge-dependent embeddings, one row per
    (node, hyperedge) and hyperedges ascending, from the checkpoint's replayed trial."""
    ds = load_dataset(args.data)
    params, meta = _load_checkpoint(args.checkpoint, REPLAY_META)
    # psi makes the embeddings, and only dependent hyperedge scoring trains it
    for key, trained in (("score_mode", "dependent"), ("task", "hyperedge-pred")):
        if meta[key] != trained:
            raise DataError(f"checkpoint {args.checkpoint} has {key} {meta[key]!r}, which leaves psi "
                            f"untrained; embed needs a {key} {trained!r} checkpoint")
    g = ds.graph
    if args.nodes.strip().lower() == "all":
        nodes = list(range(g.num_nodes))
    else:
        try:
            nodes = [int(tok) for tok in args.nodes.split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--nodes expects comma-separated ids or 'all', got {args.nodes!r}")
    for node in nodes:
        if not 0 <= node < g.num_nodes:
            raise DataError(f"node {node} outside [0, {g.num_nodes})")
    cfg, _, _, state = _replay(ds, params, meta)
    rows, _, _ = dependent_embeddings(state.z_final, g.edges, params, cfg.variant, None, training=False)
    owner = g.edges.owner
    by_node = np.lexsort((owner, g.edges.idx))  # flat rows by node, then hyperedge
    starts = np.searchsorted(g.edges.idx[by_node], np.arange(g.num_nodes + 1))
    out_path = unique_path(Path(args.out))
    total = 0
    with out_path.open("w") as fh:
        fh.write("# node\thyperedge\t" + "\t".join(f"v{j}" for j in range(params.psi.shape[1])) + "\n")
        for node in nodes:
            for r in by_node[starts[node]:starts[node + 1]]:
                fh.write(f"{node}\t{owner[r]}\t" + "\t".join(repr(float(v)) for v in rows[r]) + "\n")
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
        checkpoint_params, checkpoint_meta = _load_checkpoint(args.checkpoint)

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

        ranks = {"model": truth_ranks(train_g, final, pairs, args.candidate_type)}
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
    """Replay the checkpoint's own trial: its split and seed, its config, its held-out AUC."""
    ds = load_dataset(args.data)
    params, meta = _load_checkpoint(args.checkpoint, REPLAY_META)
    task = meta["task"]
    if task not in TASKS:
        raise DataError(f"checkpoint {args.checkpoint} has unknown task {task!r}; expected one of {TASKS}")
    cfg, data, held, state = _replay(ds, params, meta)
    print(json.dumps({"task": task, "auc": _heldout_auc(task, state.z_final, params, cfg, data, held)}))
    return 0


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", choices=VARIANT_TAGS)
    parser.add_argument("--sigma-v", dest="sigma_v", choices=ACTIVATION_TAGS)
    parser.add_argument("--sigma-e", dest="sigma_e", choices=ACTIVATION_TAGS)
    parser.add_argument("--layers", type=int)
    parser.add_argument("--lr", type=float)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--optimizer", choices=OPTIMIZERS)
    parser.add_argument("--split-fraction", dest="split_fraction", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--score-fn", dest="score_fn", choices=SCORE_FNS)
    parser.add_argument("--score-mode", dest="score_mode", choices=SCORE_MODES)
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
    p.add_argument("--task", choices=TASKS, default="hyperedge-pred")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="grid sweep over config values")
    p.add_argument("--data", required=True)
    p.add_argument("--task", choices=TASKS, default="hyperedge-pred")
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

    p = sub.add_parser("eval", help="replay a checkpoint's trial and print its held-out AUC")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
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
