"""The three workloads: set-up (planted graph -> dataset directory) and one trial each.

Trials go through the package's public entry points only:
``hyperemb.cli.run_trials`` for hyperedge prediction and node
classification, ``hyperemb.cli.main(["recommend", ...])`` for ranking.
Names are looked up on the module at call time so tracing wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import hyperemb
from hyperemb import cli, data, hypergraph

import planted
from tracing import package_modules, patch_everywhere, restore


class CheckFailed(Exception):
    """An output of the program failed one of the benchmark's checks."""


@dataclass
class Context:
    """What set-up hands to the trials."""

    data_dir: Path
    dataset: object
    dataset_bytes: int


@dataclass
class TrialResult:
    seconds: float
    ok: bool
    quality: float = 0.0  # held-out AUC, or model HR@10 for ranking
    epoch_ms: list[float] = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    error: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    quality_name: str
    setup: Callable[[Path, int], Context]
    # trial(ctx, seed, out_dir, timed): ``timed()`` is a context manager entered
    # around exactly the timed call, so a tracer can put its root span there
    trial: Callable[..., TrialResult]
    # parts of the host-speed reference kernel (hostclock.py), after what dominates the trial
    reference: tuple[str, ...] = ("python", "dense")


def warm_blas(n: int = 3327, k: int = 40) -> None:
    """First LAPACK/BLAS calls start OpenBLAS's threads (about 1 s at 2 threads);
    pay that here so it lands in set-up, not in the first trial."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, k))
    q, _ = np.linalg.qr(a)
    np.linalg.svd(q.T @ a, full_matrices=False)
    np.linalg.svd(a.T, full_matrices=False)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _check_counts(g, nodes: int, edges: int) -> None:
    if g.num_nodes != nodes or g.num_hyperedges != edges:
        raise RuntimeError(
            f"planted dataset has {g.num_nodes} nodes / {g.num_hyperedges} hyperedges, "
            f"expected {nodes} / {edges}"
        )


# ---------------------------------------------------------------- run_trials workloads

# The package's protocol trains 200 epochs (TrainConfig's default).  At 0.4-0.7 s
# per epoch such a trial alone would outrun a benchmark run, so the workloads train
# a few epochs and a run holds at least three whole trials.  The untraced run
# prints how trial_s splits into per-trial work and the epoch loop, and what a
# 200-epoch trial would take, so that a trial_s gain can be read against it.
HEDGE_EPOCHS = 5
NODECLASS_EPOCHS = 10
AUC_FLOOR = 0.6  # chance is 0.5 on both tasks; the planted graphs reach about 0.7


def _setup_communities(spec: planted.GraphSpec, with_labels: bool):
    def setup(work: Path, seed: int) -> Context:
        g = planted.planted_communities(spec, seed)
        hg = hypergraph.build_hypergraph(g.edges, g.num_nodes)
        labels = splits = None
        if with_labels:
            labels = g.labels
            perm = np.random.default_rng([seed, 1]).permutation(g.num_nodes)
            half = g.num_nodes // 2
            splits = [(np.sort(perm[:half]), np.sort(perm[half:]))]
        data_dir = work / "dataset"
        data.write_dataset(data_dir, hg, labels=labels, splits=splits)
        ds = data.load_dataset(data_dir)
        _check_counts(ds.graph, spec.num_nodes, spec.num_hyperedges)
        warm_blas()
        return Context(data_dir=data_dir, dataset=ds, dataset_bytes=_dir_bytes(data_dir))

    return setup


def _read_epoch_log(path: Path) -> tuple[list[float], list[float]]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["loss"]) for r in rows], [float(r["wall_ms"]) for r in rows]


def _run_trials(task: str, variant: str, epochs: int):
    def trial(ctx: Context, seed: int, out: Path, timed=contextlib.nullcontext) -> TrialResult:
        cfg = hyperemb.TrainConfig(
            variant=hyperemb.VariantKind(tag=variant), epochs=epochs, seed=seed
        )
        out.mkdir(parents=True)
        try:
            with timed():
                start = time.perf_counter()
                try:
                    report = cli.run_trials(
                        ctx.dataset, cfg, task, 1, features_mode="svd", out_dir=out
                    )
                finally:
                    seconds = time.perf_counter() - start
        except (hyperemb.DataError, hyperemb.NumericError) as exc:
            return TrialResult(seconds, False, error=f"{type(exc).__name__}: {exc}")
        result = TrialResult(seconds, True)
        try:
            losses, result.epoch_ms = _read_epoch_log(out / "trial_00.csv")
            if len(losses) != epochs:
                raise CheckFailed(f"epoch log has {len(losses)} rows, expected {epochs}")
            if not all(math.isfinite(v) for v in losses):
                raise CheckFailed("non-finite loss in the epoch log")
            if not (out / "model.npz").is_file():
                raise CheckFailed("no checkpoint written")
            result.quality = float(report.per_trial["auc"][0])
            if not result.quality >= AUC_FLOOR:
                raise CheckFailed(f"held-out AUC {result.quality:.4f} below floor {AUC_FLOOR}")
        except CheckFailed as exc:
            result.ok, result.error = False, f"check: {exc}"
        return result

    return trial


# ---------------------------------------------------------------- ranking workload

RANK_EPOCHS = 10
RANK_HOLDOUT = 0.2


def _setup_catalog(work: Path, seed: int) -> Context:
    spec = planted.CATALOG
    g = planted.planted_catalog(spec, seed)
    hg = hypergraph.build_hypergraph(g.edges, g.num_nodes, node_type=g.node_types)
    data_dir = work / "dataset"
    data.write_dataset(data_dir, hg)
    ds = data.load_dataset(data_dir)
    _check_counts(ds.graph, spec.num_nodes, spec.num_hyperedges)
    styles = ds.graph.nodes_of_type("style")
    style_links = sum(1 for i in styles for _ in ds.graph.node_edges[i])
    if len(styles) != spec.num_styles or style_links != spec.num_hyperedges:
        raise RuntimeError(
            f"catalog has {len(styles)} styles in {style_links} links, "
            f"expected {spec.num_styles} in {spec.num_hyperedges}"
        )
    warm_blas()
    return Context(data_dir=data_dir, dataset=ds, dataset_bytes=_dir_bytes(data_dir))


class EpochCapture:
    """Pass-through wrapper on cli's ``train`` that keeps each returned state's
    per-epoch wall times and losses (recommend writes no epoch log)."""

    def __init__(self):
        self.states: list = []
        original = hyperemb.training.train

        def capture(*args, **kwargs):
            state = original(*args, **kwargs)
            self.states.append(state)
            return state

        self._undo = patch_everywhere(package_modules(), original, capture, namespaces=("cli",))

    def close(self) -> None:
        restore(self._undo)


def _rank_trial(ctx: Context, seed: int, out: Path, timed=contextlib.nullcontext) -> TrialResult:
    out.mkdir(parents=True)
    report = out / "rank.json"
    argv = [
        "--seed", str(seed), "recommend",
        "--data", str(ctx.data_dir),
        "--candidate-type", "style", "--query-type", "frag",
        "--holdout", str(RANK_HOLDOUT), "--trials", "1",
        "--epochs", str(RANK_EPOCHS),
        "--out", str(report),
    ]
    capture = EpochCapture()
    printed = io.StringIO()
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), timed():
            start = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - start
    finally:
        capture.close()
    if code != 0:
        return TrialResult(seconds, False, error=f"exit code {code}: {printed.getvalue().strip()[-300:]}")
    result = TrialResult(seconds, True)
    try:
        if len(capture.states) != 1:
            raise CheckFailed(f"expected one training run, saw {len(capture.states)}")
        state = capture.states[0]
        result.epoch_ms = list(state.wall_ms)
        if len(state.log) != RANK_EPOCHS or not all(math.isfinite(l) for l, _ in state.log):
            raise CheckFailed("training log is short or has a non-finite loss")
        payload = json.loads(report.read_text())
        hr = {name: payload[name]["metrics"]["hr@10"]["mean"] for name in ("model", "random", "popularity")}
        result.quality = float(hr["model"])
        result.detail = {f"{name}_hr_at_10": v for name, v in hr.items()}
        if not (hr["model"] > hr["random"] and hr["model"] > hr["popularity"]):
            raise CheckFailed(f"model HR@10 does not beat both baselines: {hr}")
    except CheckFailed as exc:
        result.ok, result.error = False, f"check: {exc}"
    return result


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hedge-citeseer",
            "hyperedge prediction at citeseer size, 5 epochs (not the protocol's 200, so 3+ "
            "trials fit a run): per-example scoring, gradient scatter and negative sampling dominate",
            "heldout_auc",
            _setup_communities(planted.CITESEER, with_labels=False),
            _run_trials("hyperedge-pred", "base", HEDGE_EPOCHS),
        ),
        Workload(
            "nodeclass-dblp",
            "node classification at dblp size, 10 epochs (not the protocol's 200, so 3+ trials "
            "fit a run): operator build, SVD features and SpMM dominate; largest working set",
            "heldout_auc",
            _setup_communities(planted.DBLP, with_labels=True),
            _run_trials("node-class", "p2", NODECLASS_EPOCHS),
            reference=("spmm", "python"),
        ),
        Workload(
            "rank-catalog",
            "link-holdout ranking on a typed catalog: split_links, per-query ranking, "
            "HR/nDCG and baselines; short schedule, dataset loaded inside the trial",
            "hr_at_10",
            _setup_catalog,
            _rank_trial,
        ),
    )
}
