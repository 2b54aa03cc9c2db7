"""Converters from public dataset layouts to the canonical text format.

The supported upstream layout is a directory of pickles:

    hypergraph.pickle   dict: hyperedge name -> iterable of node ids
    features.pickle     scipy sparse or dense N x F matrix
    labels.pickle       length-N class ids
    splits/*.pickle     optional dicts with 'train'/'test' node id lists

Conversion is all-or-nothing: the output directory is removed again if
anything fails after writing began.
"""

from __future__ import annotations

import pickle
import shutil
import warnings
from pathlib import Path
from typing import Optional

import numpy as np
from scipy import sparse

from .data import write_dataset
from .errors import DataError, HypergraphWarning
from .features import RngLike, as_rng
from .hypergraph import build_hypergraph

# Published corpus statistics, used to sanity-check conversions by name.
EXPECTED_STATS = {
    "cora-ca": {"num_classes": 7, "num_nodes": 2708, "num_hyperedges": 1072, "feature_dim": 1433},
    "dblp": {"num_classes": 6, "num_nodes": 43413, "num_hyperedges": 22535, "feature_dim": 1425},
    "citeseer": {"num_classes": 6, "num_nodes": 3327, "num_hyperedges": 4732, "feature_dim": 3703},
    "cora-cc": {"num_classes": 7, "num_nodes": 2708, "num_hyperedges": 1579, "feature_dim": 1433},
    "pubmed": {"num_classes": 3, "num_nodes": 19717, "num_hyperedges": 7963, "feature_dim": 500},
}


def _load_pickle(path: Path):
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except FileNotFoundError:
        raise DataError(f"{path}: missing")
    except Exception as exc:  # unpickling raises a zoo of types
        raise DataError(f"{path}: not a readable pickle ({exc})")


def _dense_features(obj, path: Path) -> np.ndarray:
    if sparse.issparse(obj):
        return np.asarray(obj.todense(), dtype=np.float64)
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim != 2:
        raise DataError(f"{path}: features must be 2-d, got shape {arr.shape}")
    return arr


def generate_node_splits(
    labels,
    count: int = 10,
    train_fraction: float = 0.5,
    rng: RngLike = 0,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded stratified train/test node splits over the labeled nodes.

    Per class, round(train_fraction * class size) nodes (at least one
    when the class has two or more members) go to train; the rest to
    test.  Nodes labeled -1 appear in neither side.
    """
    labels = np.asarray(labels)
    rng = as_rng(rng)
    classes = sorted(int(c) for c in np.unique(labels[labels >= 0]))
    if not classes:
        raise DataError("no labeled nodes to split")
    splits = []
    for _ in range(count):
        train, test = [], []
        for c in classes:
            ids = np.flatnonzero(labels == c)
            perm = rng.permutation(ids)
            n_train = int(np.floor(train_fraction * ids.size + 0.5))
            if ids.size >= 2:
                n_train = min(max(n_train, 1), ids.size - 1)
            train.extend(perm[:n_train])
            test.extend(perm[n_train:])
        splits.append(
            (np.sort(np.asarray(train, dtype=np.int64)),
             np.sort(np.asarray(test, dtype=np.int64)))
        )
    return splits


def convert_hypergcn(
    src_dir,
    out_dir,
    name: Optional[str] = None,
    rng: RngLike = 0,
) -> dict:
    """Convert a pickle-layout dataset directory; returns the manifest."""
    src_dir = Path(src_dir)
    out_dir = Path(out_dir)

    raw_edges = _load_pickle(src_dir / "hypergraph.pickle")
    if not isinstance(raw_edges, dict) or not raw_edges:
        raise DataError(f"{src_dir / 'hypergraph.pickle'}: expected a non-empty dict")

    features = None
    feat_path = src_dir / "features.pickle"
    if feat_path.exists():
        features = _dense_features(_load_pickle(feat_path), feat_path)

    labels = None
    label_path = src_dir / "labels.pickle"
    if label_path.exists():
        labels = np.asarray(_load_pickle(label_path)).reshape(-1).astype(np.int64)

    if features is not None:
        num_nodes = features.shape[0]
    elif labels is not None:
        num_nodes = labels.shape[0]
    else:
        num_nodes = max(max(m) for m in raw_edges.values() if len(m)) + 1
    if labels is not None and labels.shape[0] != num_nodes:
        raise DataError(
            f"{label_path}: {labels.shape[0]} labels for {num_nodes} nodes"
        )

    edges = []
    dropped_dups = 0
    for key in sorted(raw_edges, key=str):
        members = sorted(set(int(i) for i in raw_edges[key]))
        dropped_dups += len(raw_edges[key]) - len(members)
        if not members:
            raise DataError(f"{src_dir / 'hypergraph.pickle'}: hyperedge {key!r} is empty")
        bad = [i for i in members if not 0 <= i < num_nodes]
        if bad:
            raise DataError(
                f"{src_dir / 'hypergraph.pickle'}: hyperedge {key!r} node {bad[0]} "
                f"outside [0, {num_nodes})"
            )
        edges.append(tuple(members))
    if dropped_dups:
        warnings.warn(
            f"removed {dropped_dups} duplicate node listing(s) inside hyperedges",
            HypergraphWarning,
            stacklevel=2,
        )
    g = build_hypergraph(edges, num_nodes)

    splits = []
    splits_dir = src_dir / "splits"
    if splits_dir.is_dir():
        for p in sorted(splits_dir.glob("*.pickle")):
            payload = _load_pickle(p)
            if not isinstance(payload, dict) or "train" not in payload or "test" not in payload:
                raise DataError(f"{p}: expected a dict with 'train' and 'test'")
            splits.append(
                (np.asarray(sorted(payload["train"]), dtype=np.int64),
                 np.asarray(sorted(payload["test"]), dtype=np.int64))
            )
    if not splits and labels is not None:
        splits = generate_node_splits(labels, rng=rng)

    created = not out_dir.exists()
    try:
        manifest = write_dataset(
            out_dir,
            g,
            features=features,
            labels=labels,
            splits=splits,
            extra_manifest={"dataset_name": name} if name else None,
        )
    except BaseException:
        if created and out_dir.exists():
            shutil.rmtree(out_dir)
        raise

    if name and name.lower() in EXPECTED_STATS:
        expected = EXPECTED_STATS[name.lower()]
        mismatches = {
            key: (value, manifest.get(key))
            for key, value in expected.items()
            if manifest.get(key) is not None and manifest.get(key) != value
        }
        if mismatches:
            warnings.warn(
                f"converted {name!r} differs from published statistics: {mismatches}",
                HypergraphWarning,
                stacklevel=2,
            )
    return manifest
