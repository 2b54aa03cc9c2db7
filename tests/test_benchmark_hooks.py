"""The benchmark's traced run can read every per-layer metric BENCHMARK.json lists.

``perfbench/`` wraps package functions from outside and its count hooks read
what they are handed, such as the operators' ``nnz``, ``shape`` and stored
arrays.  A hook that no longer fits marks its metrics missing, and the run
still exits 0 without them.  This test installs the benchmark's own tracer
around small runs of both tasks and checks that no listed metric went missing.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from hyperemb import TrainConfig, VariantKind, build_hypergraph, cli, data

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import layers
    import tracing

    return layers, tracing


def _listed_sources(layers) -> set[str]:
    """Span and count names that the listed per-layer metrics are read from."""
    listed = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    known = {m.name: m for m in layers.LAYER_METRICS + layers.TRACE_METRICS}
    sources = set()
    for name in listed:
        metric = known.get(name) or known[name.removeprefix("multi_thread.")]
        sources.update(layers.source_names(metric))
    return sources


def _small_dataset(path: Path):
    rng = np.random.default_rng(3)
    n = 30
    edges = [rng.choice(n, size=int(rng.integers(2, 5)), replace=False).tolist() for _ in range(40)]
    edges += [[i, (i + 1) % n] for i in range(n)]
    perm = rng.permutation(n)
    data.write_dataset(
        path,
        build_hypergraph(edges, n),
        labels=np.arange(n) % 3,
        splits=[(np.sort(perm[: n // 2]), np.sort(perm[n // 2:]))],
    )
    return data.load_dataset(path)


def test_traced_runs_report_every_listed_metric(perfbench, tmp_path):
    layers, tracing = perfbench
    tracer = tracing.Tracer()
    tracer.install(layers.WRAPS)
    try:
        ds = _small_dataset(tmp_path / "dataset")
        for task, tag in (("hyperedge-pred", "base"), ("node-class", "p2")):
            cfg = TrainConfig(variant=VariantKind(tag=tag), epochs=2, feature_rank=4, seed=1)
            (tmp_path / task).mkdir()
            cli.run_trials(ds, cfg, task, 1, features_mode="svd", out_dir=tmp_path / task)
    finally:
        tracer.uninstall()
    missing = {name: why for name, why in tracer.missing.items() if name in _listed_sources(layers)}
    assert missing == {}
    counts = tracer.counts[tracer.trial]
    for name in ("model.operator_nnz", "model.spmm_flops", "model.spmm_bytes", "training.negatives.count"):
        assert counts[name] > 0, name
