"""What the traced run wraps, the counts it takes, and the per-layer metrics it reports.

Layers are hyperemb's modules.  Each metric names the end-to-end metric and
workload it should move (``moves``), written down before any optimization
so a later change can be checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from tracing import Wrap

# ------------------------------------------------------------------ count hooks


def _nnz(op) -> int:
    return 0 if op is None else int(op.nnz)


def _spmm_cost(op, width: int, transpose: bool = False) -> tuple[int, int]:
    """Flops and compulsory bytes of ``op @ X`` for a dense X of ``width`` columns:
    the sparse arrays once, X once and the output once (computed, not measured)."""
    if op is None:
        return 0, 0
    rows, cols = op.shape
    if transpose:
        rows, cols = cols, rows
    sparse_bytes = op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
    return 2 * op.nnz * width, sparse_bytes + (rows + cols) * width * 8


def _add_spmm(tracer, pairs) -> None:
    flops = nbytes = 0
    for op, width, transpose in pairs:
        f, b = _spmm_cost(op, width, transpose)
        flops += f
        nbytes += b
    tracer.count("model.spmm_flops", flops)
    tracer.count("model.spmm_bytes", nbytes)


def _operators_hook(tracer, args, ops) -> None:
    tracer.count("model.operator_nnz", sum(_nnz(getattr(ops, a)) for a in ("s_v", "s_e", "b_v", "b_e")))


def _forward_hook(tracer, args, state) -> None:
    if not args["training"]:
        return
    ops, params = args["ops"], args["params"]
    pairs = []
    for w, w_e in zip(params.w, params.w_e):
        pairs += [(ops.s_v, w.shape[0], False), (ops.b_v, w_e.shape[0], False),
                  (ops.s_e, w_e.shape[0], False), (ops.b_e, w.shape[1], False)]
    _add_spmm(tracer, pairs)
    tracer.count("model.training_forwards", 1)


def _backward_hook(tracer, args, grads) -> None:
    ops, params = args["ops"], args["params"]
    pairs = []
    for w, w_e in zip(params.w, params.w_e):
        pairs += [(ops.s_e, w_e.shape[0], True), (ops.b_e, w_e.shape[0], True),
                  (ops.s_v, w.shape[0], True), (ops.b_v, w.shape[0], True)]
    _add_spmm(tracer, pairs)


def _negatives_hook(tracer, args, negatives) -> None:
    tracer.count("training.negatives.count", len(negatives))


def _score_hook(tracer, args, result) -> None:
    tracer.count("training.examples_scored.count", len(args["examples"]))


SPMM = ("model.spmm_flops", "model.spmm_bytes")

WRAPS = (
    Wrap("hypergraph", "incidence_matrix", "hypergraph.incidence_matrix"),
    Wrap("hypergraph", "build_hypergraph", "hypergraph.build_hypergraph"),
    Wrap("features", "init_node_features", "features.init_node_features"),
    Wrap("features", "init_hyperedge_features", "features.init_hyperedge_features"),
    Wrap("model", "build_operators", "model.build_operators", hook=_operators_hook,
         counts=("model.operator_nnz",)),
    Wrap("model", "forward", "model.forward", hook=_forward_hook,
         counts=(*SPMM, "model.training_forwards")),
    Wrap("training", "train", "training.train"),
    Wrap("training", "sample_negatives", "training.sample_negatives", hook=_negatives_hook,
         counts=("training.negatives.count",)),
    Wrap("training", "_score_examples", "training.score", hook=_score_hook,
         counts=("training.examples_scored.count",)),
    Wrap("training", "_distribute_score_grads", "training.scatter"),
    Wrap("training", "backward", "training.backward", hook=_backward_hook, counts=SPMM),
    Wrap("training", "hyperedge_bce_loss", "training.loss"),
    Wrap("training", "node_ce_loss", "training.loss"),
    Wrap("training", "optimizer_step", "training.optimizer_step"),
    # the same metric functions are the per-epoch metric inside training and the
    # held-out score inside cli, so each namespace gets its own span name
    Wrap("evaluation", "auc", "training.epoch_metric", namespaces=("training",)),
    Wrap("evaluation", "multiclass_auc", "training.epoch_metric", namespaces=("training",)),
    Wrap("evaluation", "auc", "evaluation.heldout_score", namespaces=("cli",)),
    Wrap("evaluation", "multiclass_auc", "evaluation.heldout_score", namespaces=("cli",)),
    Wrap("training", "score_sets", "evaluation.heldout_score", namespaces=("cli",)),
    Wrap("evaluation", "split_hyperedges", "evaluation.split"),
    Wrap("evaluation", "split_links", "evaluation.split"),
    Wrap("evaluation", "recommend", "evaluation.recommend"),
    Wrap("evaluation", "hit_rate_at_k", "evaluation.rank_metrics"),
    Wrap("evaluation", "ndcg_at_k", "evaluation.rank_metrics"),
    Wrap("evaluation", "baseline_rankers", "evaluation.baseline_rankers"),
    Wrap("data", "write_dataset", "data.write_dataset"),
    Wrap("data", "load_dataset", "data.load_dataset"),
    Wrap("cli", "run_trials", "cli.run_trials"),
    Wrap("cli", "cmd_recommend", "cli.cmd_recommend"),
    Wrap("model", "save_checkpoint", "cli.save_checkpoint", namespaces=("cli",)),
    Wrap("cli", "_write_epoch_log", "cli.epoch_log"),
)

# ------------------------------------------------------------------ per-layer metrics


@dataclass(frozen=True)
class LayerMetric:
    """``source`` is (kind, key): span total 's', span 'self_s', span 'calls',
    a hook 'count', a hook count 'per_epoch', 'per_call_s' over the whole run,
    or 'run' for a value the runner derives from whole trials."""

    name: str
    unit: str
    source: tuple[str, str]
    moves: str
    better: str = "lower"
    only: Optional[str] = None  # the one workload that calls this layer; None = reported everywhere


HC, ND, RC = "hedge-citeseer", "nodeclass-dblp", "rank-catalog"

LAYER_METRICS = (
    LayerMetric("hypergraph.incidence_matrix.calls", "count", ("calls", "hypergraph.incidence_matrix"),
                f"trial_s on {ND} (H is rebuilt several times per trial); small elsewhere"),
    LayerMetric("hypergraph.incidence_matrix.s", "s", ("s", "hypergraph.incidence_matrix"),
                f"trial_s on {ND}; small elsewhere"),
    LayerMetric("hypergraph.build_hypergraph.s", "s", ("s", "hypergraph.build_hypergraph"),
                f"trial_s on {HC} and {RC} (the split rebuilds the train graph); zero in {ND} trials, "
                "where only set-up's load_dataset builds a graph"),
    LayerMetric("features.init_node_features.s", "s", ("s", "features.init_node_features"),
                f"trial_s on {ND}; about 0.1 s on {HC}"),
    LayerMetric("features.init_hyperedge_features.s", "s", ("s", "features.init_hyperedge_features"),
                f"trial_s on {ND}; about 0.1 s on {HC}"),
    LayerMetric("model.build_operators.s", "s", ("s", "model.build_operators"),
                f"trial_s on {ND} and {RC}"),
    LayerMetric("model.operator_nnz", "count", ("count", "model.operator_nnz"),
                f"peak_rss_mb on {ND}"),
    LayerMetric("model.forward.s", "s", ("s", "model.forward"), f"epoch_ms_p50 on {ND}"),
    LayerMetric("model.forward.calls", "count", ("calls", "model.forward"), f"epoch_ms_p50 on {ND}"),
    LayerMetric("model.spmm_flops_computed", "flop/epoch", ("per_epoch", "model.spmm_flops"),
                f"epoch_ms_p50 on {ND} (computed from nnz x width x applications)"),
    LayerMetric("model.spmm_bytes_computed", "B/epoch", ("per_epoch", "model.spmm_bytes"),
                f"epoch_ms_p50 on {ND} (computed compulsory traffic)"),
    LayerMetric("training.train.self_s", "s", ("self_s", "training.train"),
                "the epoch loop's own work outside the wrapped calls"),
    LayerMetric("training.sample_negatives.s", "s", ("s", "training.sample_negatives"),
                f"trial_s on {HC} and {RC}; zero on {ND}"),
    LayerMetric("training.negatives.count", "count", ("count", "training.negatives.count"),
                f"trial_s on {HC} and {RC}; zero on {ND}"),
    LayerMetric("training.score.s", "s", ("s", "training.score"), f"epoch_ms_p50 on {HC}; zero on {ND}"),
    LayerMetric("training.scatter.s", "s", ("s", "training.scatter"), f"epoch_ms_p50 on {HC}; zero on {ND}"),
    LayerMetric("training.examples_scored.count", "count", ("count", "training.examples_scored.count"),
                f"epoch_ms_p50 on {HC}; zero on {ND}"),
    LayerMetric("training.backward.s", "s", ("s", "training.backward"), f"epoch_ms_p50 on {ND}"),
    LayerMetric("training.epoch_metric.s", "s", ("s", "training.epoch_metric"), f"epoch_ms_p50 on {ND}"),
    LayerMetric("training.loss.s", "s", ("s", "training.loss"), "control: no planned change moves it"),
    LayerMetric("training.optimizer_step.s", "s", ("s", "training.optimizer_step"),
                "control: no planned change moves it"),
    LayerMetric("evaluation.split.s", "s", ("s", "evaluation.split"), f"trial_s on {HC} and {RC}"),
    LayerMetric("evaluation.heldout_score.s", "s", ("s", "evaluation.heldout_score"), f"trial_s on {HC}"),
    LayerMetric("evaluation.recommend.s", "s", ("s", "evaluation.recommend"),
                f"trial_s on {RC}; absent elsewhere", only=RC),
    LayerMetric("evaluation.recommend.calls", "count", ("calls", "evaluation.recommend"),
                f"trial_s on {RC}; absent elsewhere", only=RC),
    LayerMetric("evaluation.rank_metrics.s", "s", ("s", "evaluation.rank_metrics"),
                f"trial_s on {RC}; absent elsewhere", only=RC),
    LayerMetric("evaluation.rank_metrics.calls", "count", ("calls", "evaluation.rank_metrics"),
                f"trial_s on {RC}; absent elsewhere", only=RC),
    LayerMetric("evaluation.baseline_rankers.s", "s", ("s", "evaluation.baseline_rankers"),
                f"trial_s on {RC}", only=RC),
    LayerMetric("data.write_dataset.s", "s", ("per_call_s", "data.write_dataset"),
                "setup_s on all workloads (seconds per call)"),
    LayerMetric("data.load_dataset.s", "s", ("per_call_s", "data.load_dataset"),
                f"setup_s on all workloads and trial_s on {RC} (seconds per call)"),
    LayerMetric("data.dataset_bytes", "B", ("count", "data.dataset_bytes"), "setup_s on all workloads"),
    LayerMetric("cli.run_trials.self_s", "s", ("self_s", "cli.run_trials"), f"trial_s on {HC} and {ND} (glue)"),
    LayerMetric("cli.cmd_recommend.self_s", "s", ("self_s", "cli.cmd_recommend"),
                f"trial_s on {RC} (glue)", only=RC),
    LayerMetric("cli.save_checkpoint.s", "s", ("s", "cli.save_checkpoint"), f"trial_s on {HC} and {ND}"),
    LayerMetric("cli.epoch_log.s", "s", ("s", "cli.epoch_log"), f"trial_s on {HC} and {ND}"),
)

# metrics the runner derives from whole trials rather than from one layer
TRACE_METRICS = (
    LayerMetric("trace.trial_s", "s", ("run", "traced trial_s"), "traced trial_s, for trace.overhead_s"),
    LayerMetric("trace.overhead_s", "s", ("run", "traced - untraced trial_s"), "cost of tracing itself"),
    LayerMetric("trace.uncovered_s", "s", ("run", "trial_s - self times of the wrapped spans"),
                "time in a trial that no wrapped span covers; checked to stay under 1% of trial_s"),
    LayerMetric("multi_thread.trial_s", "s", ("run", "traced trial_s at min(2, nproc) BLAS threads"),
                "what a second BLAS thread buys against the single-threaded main runs"),
)


def source_names(metric: LayerMetric) -> tuple[str, ...]:
    """The span or count names a metric is read from."""
    kind, key = metric.source
    return (key, "model.training_forwards") if kind == "per_epoch" else (key,)


def multi_thread_name(metric: LayerMetric) -> Optional[str]:
    """Timed layer metrics are repeated from the multi-threaded pass under this name."""
    return f"multi_thread.{metric.name}" if metric.unit == "s" else None


def layer_metrics_for(workload: Optional[str]) -> tuple[LayerMetric, ...]:
    """Layer metrics a workload reports; ``None`` gives those every workload reports."""
    return tuple(m for m in LAYER_METRICS if m.only in (None, workload))


def all_layer_metrics(workload: Optional[str]) -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric of a workload, in report order."""
    mine = layer_metrics_for(workload)
    out = [(m.name, m.unit, m.better) for m in mine + TRACE_METRICS]
    out += [(multi_thread_name(m), m.unit, m.better) for m in mine if multi_thread_name(m)]
    return out
