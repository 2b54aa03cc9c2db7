"""Metrics, splits, and the ranking/recommendation path.

All metric functions are pure; multi-seed reports are reduced in seed
order so a report is deterministic no matter how its trials were
scheduled.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, HypergraphWarning
from .features import RngLike, as_rng
from .hypergraph import Hypergraph, replace_edges
from .model import EmbeddingState

RANKING_KS = (1, 10, 25, 50)


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties half-credit."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError(f"scores/labels must be matching 1-d arrays, got {scores.shape} and {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise DataError("labels must be 0/1")
    pos = labels == 1
    if pos.all() or not pos.any():
        raise DataError("need at least one positive and one negative")
    if np.isnan(scores).any():
        return float("nan")  # a NaN score has no rank
    return _mask_auc(scores, pos)


def _mask_auc(scores: np.ndarray, pos: np.ndarray) -> float:
    """AUC of the ``pos`` entries against the rest from the positives' average ranks.

    A value's average 1-based rank is (left + right + 1) / 2 with left/right its
    searchsorted bounds in the sorted scores (ties share it: half credit).  Ranks
    are half-integers, so their sum is exact and equals a rankdata-based sum.
    """
    ordered = np.sort(scores)
    x = np.sort(scores[pos])  # sorted needles keep the binary searches cache-local
    n_pos, n_neg = x.size, scores.size - x.size
    left, right = np.searchsorted(ordered, x, "left"), np.searchsorted(ordered, x, "right")
    rank_sum = float(left.sum() + right.sum() + n_pos) / 2.0
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def multiclass_auc(probabilities, labels, mask) -> float:
    """Macro one-vs-rest AUC over the classes present in the masked node set."""
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    mask = np.asarray(mask, dtype=bool)
    if probs.ndim != 2:
        raise DataError(f"probabilities must be 2-d, got shape {probs.shape}")
    if mask.shape != (probs.shape[0],) or labels.shape != (probs.shape[0],):
        raise DataError("labels/mask must be 1-d with one entry per row")
    if not mask.any():
        raise DataError("mask selects no nodes")
    sub_probs = probs[mask]
    if not np.allclose(sub_probs.sum(axis=1), 1.0, atol=1e-6):
        raise DataError("probability rows must sum to 1")
    sub_labels = labels[mask]
    per_class = []
    for c in range(probs.shape[1]):
        pos = sub_labels == c
        if pos.all() or not pos.any():
            warnings.warn(
                f"class {c} lacks both positives and negatives in the mask; skipped",
                HypergraphWarning,
                stacklevel=2,
            )
            continue
        per_class.append(_mask_auc(sub_probs[:, c], pos))
    if not per_class:
        raise DataError("no class had both positives and negatives under the mask")
    return float(np.mean(per_class))


def rank_positions(ranked: Sequence[int], truths: Sequence[int]) -> np.ndarray:
    """1-based rank of every truth item in one ranking (its first occurrence),
    looked up in one sorted rank-position map instead of a scan per truth."""
    ranked = np.asarray(ranked, dtype=np.int64)
    truths = np.asarray(truths, dtype=np.int64)
    ids, first = np.unique(ranked, return_index=True)
    at = np.minimum(np.searchsorted(ids, truths), max(ids.size - 1, 0))
    found = ids[at] == truths if ids.size else np.zeros(truths.shape, dtype=bool)
    if not found.all():
        raise DataError(f"truth item {int(truths[~found][0])} not among the {ranked.size} candidates")
    return first[at] + 1


def split_hyperedges(
    g: Hypergraph, p: float, rng: RngLike = 0
) -> tuple[Hypergraph, list[tuple[int, ...]]]:
    """Uniform hyperedge partition: train graph from round(p*M) edges, rest held out.

    Nodes appearing only in held-out hyperedges stay in the train graph
    as isolated nodes.
    """
    if not 0 < p < 1:
        raise ConfigError(f"split fraction must be in (0, 1), got {p}")
    m = g.num_hyperedges
    if m < 2:
        raise DataError(f"need at least 2 hyperedges to split, got {m}")
    n_train = int(np.floor(p * m + 0.5))  # deterministic half-up rounding
    if n_train == 0 or n_train == m:
        raise DataError(
            f"split fraction {p} leaves an empty side for {m} hyperedges"
        )
    perm = as_rng(rng).permutation(m)
    train_ids = np.sort(perm[:n_train])
    held_ids = np.sort(perm[n_train:])
    train_g = replace_edges(g, [g.edge_members[j] for j in train_ids])
    held = [g.edge_members[j] for j in held_ids]
    return train_g, held


def split_links(
    g: Hypergraph,
    fraction: float,
    candidate_type: str,
    rng: RngLike = 0,
    query_type: Optional[str] = None,
) -> tuple[Hypergraph, list[tuple[int, int]]]:
    """Hold out a fraction of (hyperedge, candidate-type node) incidences.

    Each sampled link deletes that candidate node from its hyperedge in
    the train graph and yields a query pair (query node, true candidate),
    where the query node is the lowest-index member of ``query_type``
    (or, when unspecified, the lowest-index non-candidate member).
    Hyperedges emptied by the removals are dropped from the train graph.
    """
    if not 0 < fraction < 1:
        raise ConfigError(f"holdout fraction must be in (0, 1), got {fraction}")
    if g.node_type is None:
        raise DataError("link holdout needs node types")
    links = [
        (j, i)
        for j, members in enumerate(g.edge_members)
        for i in members
        if g.node_type[i] == candidate_type
    ]
    if not links:
        raise DataError(f"no incidences with candidate type {candidate_type!r}")
    n_held = int(np.floor(fraction * len(links) + 0.5))
    if n_held == 0:
        raise DataError(
            f"holdout fraction {fraction} selects no links out of {len(links)}"
        )
    chosen = as_rng(rng).choice(len(links), size=n_held, replace=False)
    removals: dict[int, set[int]] = {}
    for idx in sorted(chosen):
        j, i = links[idx]
        removals.setdefault(j, set()).add(i)

    pairs = []
    train_edges = []
    for j, members in enumerate(g.edge_members):
        gone = removals.get(j, set())
        kept = [i for i in members if i not in gone]
        if kept:
            train_edges.append(kept)
        for i in sorted(gone):
            if query_type is None:
                queries = [q for q in members if g.node_type[q] != candidate_type]
            else:
                queries = [q for q in members if g.node_type[q] == query_type]
            queries = [q for q in queries if q not in gone]
            if not queries:
                warnings.warn(
                    f"held-out link ({j}, {i}) has no query node; skipped",
                    HypergraphWarning,
                    stacklevel=2,
                )
                continue
            pairs.append((min(queries), i))
    if not pairs:
        raise DataError("no usable query pairs after link holdout")
    return replace_edges(g, train_edges), pairs


def recommend(
    g: Hypergraph,
    state: EmbeddingState,
    fragment: int,
    candidate_type: str,
    k: int,
) -> list[tuple[int, float]]:
    """Top-k candidates of the given type by cosine similarity to the fragment node.

    Descending score, ascending candidate index on ties; zero vectors score 0.
    """
    if not 0 <= fragment < g.num_nodes:
        raise DataError(f"fragment {fragment} outside [0, {g.num_nodes})")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    candidates = g.nodes_of_type(candidate_type)
    if not candidates:
        warnings.warn(
            f"no candidates of type {candidate_type!r}",
            HypergraphWarning,
            stacklevel=2,
        )
        return []
    z = state.z_final
    rows = z[candidates]
    norms = np.linalg.norm(rows, axis=1) * np.linalg.norm(z[fragment])
    scores = np.divide(rows @ z[fragment], norms, out=np.zeros(len(candidates)), where=norms > 0)
    order = np.lexsort((np.asarray(candidates), -scores))
    return [(int(candidates[i]), float(scores[i])) for i in order[:k]]


def baseline_rankers(
    g: Hypergraph, candidate_type: str, rng: RngLike = 0
) -> dict[str, list[int]]:
    """Reference rankings: a seeded uniform shuffle and a hyperedge-degree sort."""
    candidates = g.nodes_of_type(candidate_type)
    if not candidates:
        raise DataError(f"no candidates of type {candidate_type!r}")
    shuffled = list(candidates)
    as_rng(rng).shuffle(shuffled)
    degree = {i: len(g.node_edges[i]) for i in candidates}
    popular = sorted(candidates, key=lambda i: (-degree[i], i))
    return {"random": shuffled, "popularity": popular}


@dataclass
class EvalReport:
    """Per-trial metric values with their seed list and mean/std summary."""

    task: str
    seeds: list[int]
    per_trial: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ConfigError("a report needs at least one trial")
        for name, values in self.per_trial.items():
            if len(values) != len(self.seeds):
                raise DataError(
                    f"metric {name!r} has {len(values)} values for {len(self.seeds)} trials"
                )
            arr = np.asarray(values, dtype=np.float64)
            if np.any(arr < -1e-9) or np.any(arr > 1 + 1e-9):
                raise DataError(f"metric {name!r} has values outside [0, 1]")

    @property
    def trials(self) -> int:
        return len(self.seeds)

    def mean(self, name: str) -> float:
        return float(np.mean(self.per_trial[name]))

    def std(self, name: str) -> float:
        return float(np.std(self.per_trial[name]))

    def summary(self) -> dict:
        return {
            name: {"mean": self.mean(name), "std": self.std(name)}
            for name in sorted(self.per_trial)
        }

    def to_json(self) -> str:
        payload = {
            "task": self.task,
            "trials": self.trials,
            "seeds": list(self.seeds),
            "metrics": {
                name: {
                    "values": [float(v) for v in self.per_trial[name]],
                    "mean": self.mean(name),
                    "std": self.std(name),
                }
                for name in sorted(self.per_trial)
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        payload = json.loads(text)
        return cls(
            task=payload["task"],
            seeds=list(payload["seeds"]),
            per_trial={k: v["values"] for k, v in payload["metrics"].items()},
        )
