"""Plain-text dataset layout: small diffable files plus a manifest.

Layout of a dataset directory:

    hyperedges.txt    '#nodes N' header, then one hyperedge per line
                      (space-separated node ids)
    features.tsv      optional; N rows of tab-separated reals
    labels.tsv        optional; N rows, one integer class id (-1 = unlabeled)
    node_types.tsv    optional; N rows, one type token
    splits/split_XX.json  optional node-classification splits
    manifest.json     counts for quick integrity checks

Parse errors always carry the file and line number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import DataError
from .hypergraph import Hypergraph, build_hypergraph

HYPEREDGES_FILE = "hyperedges.txt"
FEATURES_FILE = "features.tsv"
LABELS_FILE = "labels.tsv"
NODE_TYPES_FILE = "node_types.tsv"
SPLITS_DIR = "splits"
MANIFEST_FILE = "manifest.json"


def unique_path(path) -> Path:
    """The path itself if free, else the first 'name-K' sibling that is."""
    path = Path(path)
    if not path.exists():
        return path
    for k in range(1, 10_000):
        candidate = path.with_name(f"{path.stem}-{k}{path.suffix}")
        if not candidate.exists():
            return candidate
    raise DataError(f"no free variant of {path} below suffix 10000")


def write_hyperedges(path, g: Hypergraph) -> None:
    path = Path(path)
    lines = [f"#nodes {g.num_nodes}"]
    lines += [" ".join(map(str, e)) for e in g.edges.tuples()]
    path.write_text("\n".join(lines) + "\n")


def read_hyperedges(path) -> tuple[list[tuple[int, ...]], Optional[int]]:
    """Hyperedge list plus the '#nodes' header count (None if absent)."""
    path = Path(path)
    edges: list[tuple[int, ...]] = []
    num_nodes = None
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "nodes":
                try:
                    num_nodes = int(parts[1])
                except (IndexError, ValueError):
                    raise DataError(f"{path}:{ln}: malformed '#nodes' header: {raw!r}")
            continue
        try:
            members = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise DataError(f"{path}:{ln}: non-integer node id in {raw!r}")
        if not members:
            raise DataError(f"{path}:{ln}: empty hyperedge")
        edges.append(members)
    if not edges:
        raise DataError(f"{path}: no hyperedges")
    return edges, num_nodes


def write_tsv_matrix(path, x: np.ndarray) -> None:
    x = np.asarray(x, dtype=np.float64)
    with Path(path).open("w") as fh:
        for row in x:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")


def read_tsv_matrix(path) -> np.ndarray:
    path = Path(path)
    rows = []
    width = None
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            row = [float(tok) for tok in raw.split("\t")]
        except ValueError:
            raise DataError(f"{path}:{ln}: non-numeric feature value in {raw!r}")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(f"{path}:{ln}: expected {width} columns, got {len(row)}")
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no feature rows")
    return np.asarray(rows, dtype=np.float64)


def write_labels(path, labels) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    Path(path).write_text("\n".join(str(int(v)) for v in labels) + "\n")


def read_labels(path) -> np.ndarray:
    path = Path(path)
    out = []
    for ln, raw in enumerate(path.read_text().splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            out.append(int(raw.strip()))
        except ValueError:
            raise DataError(f"{path}:{ln}: non-integer label {raw!r}")
    if not out:
        raise DataError(f"{path}: no labels")
    return np.asarray(out, dtype=np.int64)


def write_node_types(path, types) -> None:
    Path(path).write_text("\n".join(str(t) for t in types) + "\n")


def read_node_types(path) -> list[str]:
    path = Path(path)
    out = [line.strip() for line in path.read_text().splitlines() if line.strip()]
    if not out:
        raise DataError(f"{path}: no node types")
    return out


def write_splits(dir_path, splits) -> None:
    """Each split is a (train_indices, test_indices) pair -> splits/split_XX.json."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    for k, (train, test) in enumerate(splits):
        payload = {
            "train": [int(i) for i in train],
            "test": [int(i) for i in test],
        }
        (dir_path / f"split_{k:02d}.json").write_text(json.dumps(payload))


def read_splits(dir_path) -> list[tuple[np.ndarray, np.ndarray]]:
    dir_path = Path(dir_path)
    out = []
    for p in sorted(dir_path.glob("split_*.json")):
        try:
            payload = json.loads(p.read_text())
            train = np.asarray(payload["train"], dtype=np.int64)
            test = np.asarray(payload["test"], dtype=np.int64)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{p}: malformed split file ({exc})")
        out.append((train, test))
    return out


@dataclass
class Dataset:
    """A loaded dataset directory."""

    graph: Hypergraph
    features: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    splits: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)
    manifest: dict = field(default_factory=dict)


def build_manifest(
    g: Hypergraph,
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    splits=None,
) -> dict:
    manifest = {
        "num_nodes": g.num_nodes,
        "num_hyperedges": g.num_hyperedges,
        "feature_dim": None if features is None else int(np.asarray(features).shape[1]),
        "num_classes": None,
        "num_splits": 0 if not splits else len(splits),
        "node_types": None
        if g.node_type is None
        else sorted(set(g.node_type)),
    }
    if labels is not None:
        labels = np.asarray(labels)
        valid = labels[labels >= 0]
        manifest["num_classes"] = int(valid.max()) + 1 if valid.size else 0
    return manifest


def write_dataset(
    dir_path,
    g: Hypergraph,
    features: Optional[np.ndarray] = None,
    labels: Optional[np.ndarray] = None,
    splits=None,
    extra_manifest: Optional[dict] = None,
) -> dict:
    """Write the full layout; returns the manifest that was written."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    write_hyperedges(dir_path / HYPEREDGES_FILE, g)
    if features is not None:
        if np.asarray(features).shape[0] != g.num_nodes:
            raise DataError(
                f"features have {np.asarray(features).shape[0]} rows for {g.num_nodes} nodes"
            )
        write_tsv_matrix(dir_path / FEATURES_FILE, features)
    if labels is not None:
        if len(labels) != g.num_nodes:
            raise DataError(f"labels have {len(labels)} rows for {g.num_nodes} nodes")
        write_labels(dir_path / LABELS_FILE, labels)
    if g.node_type is not None:
        write_node_types(dir_path / NODE_TYPES_FILE, g.node_type)
    if splits:
        write_splits(dir_path / SPLITS_DIR, splits)
    manifest = build_manifest(g, features, labels, splits)
    if extra_manifest:
        manifest.update(extra_manifest)
    (dir_path / MANIFEST_FILE).write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_dataset(dir_path) -> Dataset:
    """Read a dataset directory back; manifest counts are cross-checked."""
    dir_path = Path(dir_path)
    edge_path = dir_path / HYPEREDGES_FILE
    if not edge_path.exists():
        raise DataError(f"{edge_path}: missing hyperedge file")
    edges, num_nodes = read_hyperedges(edge_path)

    manifest = {}
    manifest_path = dir_path / MANIFEST_FILE
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise DataError(f"{manifest_path}: malformed JSON ({exc})")
    if num_nodes is None:
        num_nodes = manifest.get("num_nodes")
    if num_nodes is None:
        num_nodes = max(max(e) for e in edges) + 1

    node_type = None
    type_path = dir_path / NODE_TYPES_FILE
    if type_path.exists():
        node_type = read_node_types(type_path)
        if len(node_type) != num_nodes:
            raise DataError(
                f"{type_path}: {len(node_type)} types for {num_nodes} nodes"
            )
    g = build_hypergraph(edges, num_nodes, node_type=node_type)

    features = None
    feat_path = dir_path / FEATURES_FILE
    if feat_path.exists():
        features = read_tsv_matrix(feat_path)
        if features.shape[0] != g.num_nodes:
            raise DataError(
                f"{feat_path}: {features.shape[0]} rows for {g.num_nodes} nodes"
            )

    labels = None
    label_path = dir_path / LABELS_FILE
    if label_path.exists():
        labels = read_labels(label_path)
        if labels.shape[0] != g.num_nodes:
            raise DataError(
                f"{label_path}: {labels.shape[0]} labels for {g.num_nodes} nodes"
            )

    splits = []
    if (dir_path / SPLITS_DIR).is_dir():
        splits = read_splits(dir_path / SPLITS_DIR)

    for key, actual in (
        ("num_nodes", g.num_nodes),
        ("num_hyperedges", g.num_hyperedges),
        ("feature_dim", None if features is None else features.shape[1]),
    ):
        expected = manifest.get(key)
        if expected is not None and actual is not None and expected != actual:
            raise DataError(
                f"{manifest_path}: manifest says {key}={expected} but files have {actual}"
            )
    return Dataset(
        graph=g, features=features, labels=labels, splits=splits, manifest=manifest
    )
