"""Seeded-output digests: small seeded graphs through every stage whose output a
refactor must keep.

Structural outputs are compared exactly: H, the hyperedge and link splits, the
forged negatives with the generator state after them, and each variant's
operator sparsity patterns, on a covered graph and on one with isolated nodes.
Float outputs are compared at rtol 1e-12: operator values, the SVD features, a
3-epoch log plus final Z for both tasks and Y(L-1) for ``base``, the same for ``base`` on the
isolated-node graph, and the per-trial AUC and saved weights of a 2-trial
``run_trials`` of each task.  The tolerance is there because OpenBLAS picks its
GEMM kernels per CPU, so the last bits of a product can differ between machines.

A change that alters seeded output on purpose regenerates the reference file
with the command below and lists every changed entry in CHANGES.md; the
command prints the names of the entries it removes, adds and changes before
it overwrites the file:

    PYTHONPATH=src python tests/test_digests.py
"""

import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperemb import (
    Dataset,
    TrainConfig,
    VariantKind,
    build_hypergraph,
    build_labeled_set,
    build_operators,
    init_hyperedge_features,
    init_node_features,
    load_checkpoint,
    split_hyperedges,
    split_links,
    train,
)
from hyperemb.cli import run_trials

REFERENCE = Path(__file__).with_name("digests.json")
VARIANTS = ("base", "p2", "plusplus", "wt", "h2")
RTOL = 1e-12


def _graph_edges(seed, n, m):
    """``m`` seeded hyperedges of 2 to 5 members over ``n`` nodes, every node covered."""
    rng = np.random.default_rng(seed)
    edges = [rng.choice(n, size=int(rng.integers(2, 6)), replace=False).tolist() for _ in range(m)]
    covered = set().union(*edges)
    edges += [[i, (i + 1) % n] for i in range(n) if i not in covered]
    return edges


def _csr(prefix, m, exact, floats):
    exact[f"{prefix}.indptr"] = m.indptr.tolist()
    exact[f"{prefix}.indices"] = m.indices.tolist()
    floats[f"{prefix}.data"] = m.data.tolist()


def _state(rng):
    s = rng.bit_generator.state["state"]
    return [s["state"], s["inc"]]


def collect():
    """Every digested output, as (exact, floats): name -> nested lists."""
    exact, floats = {}, {}
    g = build_hypergraph(_graph_edges(5, 16, 12), 16)
    _csr("graph.h", g.pack.h, exact, floats)

    rng = np.random.default_rng(7)
    train_g, held = split_hyperedges(g, 0.75, rng)
    _csr("split_hyperedges.train_h", train_g.pack.h, exact, floats)
    exact["split_hyperedges.held"] = [list(e) for e in held]
    train_set = build_labeled_set(train_g, 0.5, rng, forbid=held)
    exact["labeled.train_negatives"] = [list(e) for e in train_set.negatives]
    exact["labeled.rng_after_train"] = _state(rng)
    eval_set = build_labeled_set(train_g, 0.5, rng, positives=held, forbid=held)
    exact["labeled.eval_negatives"] = [list(e) for e in eval_set.negatives]
    exact["labeled.rng_after_eval"] = _state(rng)

    types = ["style"] * 4 + ["frag"] * 6 + ["other"] * 4
    typed = build_hypergraph(
        [e if k % 4 in e else e + [k % 4] for k, e in enumerate(_graph_edges(11, 14, 10))],
        14,
        node_type=types,
    )
    links_g, pairs = split_links(typed, 0.3, "style", rng=np.random.default_rng(3))
    _csr("split_links.train_h", links_g.pack.h, exact, floats)
    exact["split_links.pairs"] = [list(p) for p in pairs]

    for tag in VARIANTS:
        ops = build_operators(g, tag)
        for name in ("s_v", "s_e", "b_v", "b_e"):
            if getattr(ops, name) is not None:
                _csr(f"operators.{tag}.{name}", getattr(ops, name), exact, floats)

    z0 = init_node_features(g, 4, rng=np.random.default_rng(2))
    floats["features.node_svd"] = z0.tolist()
    floats["features.hyperedge_aggregate"] = init_hyperedge_features(g, z0).tolist()

    cfg = TrainConfig(variant=VariantKind(tag="base"), epochs=3, feature_rank=4, seed=1)
    state = train(train_g, cfg, "hyperedge-pred", data=train_set, eval_data=eval_set)
    floats["hyperedge_pred.log"] = [list(row) for row in state.log]
    floats["hyperedge_pred.z_final"] = state.final.z_final.tolist()
    floats["hyperedge_pred.y_last"] = state.final.y[-1].tolist()

    # nodes 12-15 are in no hyperedge: zero d_inv rows, zero walk-operator rows and columns
    isolated = build_hypergraph(_graph_edges(13, 12, 9), 16)
    for tag in VARIANTS:
        ops = build_operators(isolated, tag)
        for name in ("s_v", "s_e", "b_v", "b_e"):
            if getattr(ops, name) is not None:
                _csr(f"isolated.operators.{tag}.{name}", getattr(ops, name), exact, floats)
    iso_set = build_labeled_set(isolated, 0.5, np.random.default_rng(4))
    cfg = TrainConfig(variant=VariantKind(tag="base"), epochs=3, feature_rank=4, seed=1)
    state = train(isolated, cfg, "hyperedge-pred", data=iso_set)
    floats["isolated.hyperedge_pred.log"] = [list(row) for row in state.log]
    floats["isolated.hyperedge_pred.z_final"] = state.final.z_final.tolist()
    floats["isolated.hyperedge_pred.y_last"] = state.final.y[-1].tolist()

    labels = np.arange(g.num_nodes) % 3
    mask = np.arange(g.num_nodes) % 2 == 0
    cfg = TrainConfig(variant=VariantKind(tag="p2"), epochs=3, feature_rank=4, seed=1)
    state = train(g, cfg, "node-class", data=(labels, mask), eval_data=~mask)
    floats["node_class.log"] = [list(row) for row in state.log]
    floats["node_class.z_final"] = state.final.z_final.tolist()

    # the CLI protocol: per-trial splits and seeds, held-out scoring, the checkpoint write
    seeded_labels = np.random.default_rng(6).integers(0, 3, g.num_nodes)
    for task, tag, labels in (("hyperedge-pred", "base", None), ("node-class", "p2", seeded_labels)):
        prefix = f"run_trials.{task.replace('-', '_')}"
        cfg = TrainConfig(variant=VariantKind(tag=tag), epochs=3, feature_rank=4, seed=1)
        with tempfile.TemporaryDirectory() as tmp:
            report = run_trials(Dataset(graph=g, labels=labels), cfg, task, 2, out_dir=Path(tmp))
            params, _ = load_checkpoint(Path(tmp) / "model.npz")
        floats[f"{prefix}.auc"] = report.per_trial["auc"]
        for name, array in params.named_arrays():
            floats[f"{prefix}.{name}"] = array.tolist()
    return exact, floats


def _write_reference(path):
    """Rewrite the reference file, printing which entries it removes, adds and changes."""
    exact, floats = collect()
    entries = {f"exact:{k}": v for k, v in exact.items()}
    entries.update((f"float:{k}", v) for k, v in floats.items())
    old = json.loads(path.read_text()) if path.exists() else {}
    for word, names in (
        ("removed", sorted(old.keys() - entries.keys())),
        ("added", sorted(entries.keys() - old.keys())),
        ("changed", sorted(k for k in old.keys() & entries.keys() if old[k] != entries[k])),
    ):
        print(f"{word}: {len(names)}", *names, sep="\n  ")
    lines = [f"{json.dumps(k)}: {json.dumps(entries[k], allow_nan=False)}" for k in sorted(entries)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.fixture(scope="module")
def digests():
    reference = json.loads(REFERENCE.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exact, floats = collect()
    return reference, exact, floats


def test_reference_names_match(digests):
    reference, exact, floats = digests
    assert sorted(reference) == sorted(
        [f"exact:{k}" for k in exact] + [f"float:{k}" for k in floats]
    )


def test_structural_outputs_exact(digests):
    reference, exact, _ = digests
    changed = [k for k, v in exact.items() if reference[f"exact:{k}"] != v]
    assert changed == []


def test_float_outputs_within_rtol(digests):
    reference, _, floats = digests
    for k, v in floats.items():
        assert_allclose(
            np.asarray(v), np.asarray(reference[f"float:{k}"]), rtol=RTOL, atol=0, err_msg=k
        )


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _write_reference(REFERENCE)
    print(f"wrote {REFERENCE}", file=sys.stderr)
