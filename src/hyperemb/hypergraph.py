"""Sparse hypergraph structure and the matrix constructions derived from it.

A hypergraph is stored as the two directions of one incidence relation:
``edge_members[j]`` lists the nodes of hyperedge ``j`` and ``node_edges[i]``
lists the hyperedges of node ``i``.  Both are sorted tuples, so every
derived matrix is deterministic.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, HypergraphWarning


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Hypergraph:
    """Immutable incidence structure over ``num_nodes`` nodes and ``num_hyperedges`` hyperedges."""

    num_nodes: int
    num_hyperedges: int
    edge_members: tuple[tuple[int, ...], ...]
    node_edges: tuple[tuple[int, ...], ...]
    node_type: Optional[tuple[str, ...]] = None

    @property
    def num_incidences(self) -> int:
        return sum(len(e) for e in self.edge_members)

    def edge_sets(self) -> list[frozenset[int]]:
        return [frozenset(e) for e in self.edge_members]

    def nodes_of_type(self, tag: str) -> list[int]:
        if self.node_type is None:
            return []
        return [i for i, t in enumerate(self.node_type) if t == tag]


@dataclass(frozen=True, eq=False)
class FlatSets:
    """Vertex sets stored flat: set ``t`` is ``idx[indptr[t]:indptr[t + 1]]``.

    ``len()`` is the number of sets.  Hyperedge lists and labeled example
    batches are packed once into this form, so per-set work runs as
    whole-array numpy/scipy operations instead of a Python loop.
    """

    idx: np.ndarray  # int64 member ids, set after set
    indptr: np.ndarray  # int64 offsets, len(self) + 1 of them

    @classmethod
    def of(cls, sets) -> "FlatSets":
        """Pack an iterable of vertex sets; a FlatSets passes through unchanged."""
        if isinstance(sets, cls):
            return sets
        sets = list(sets)
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)), out=indptr[1:])
        idx = np.fromiter(itertools.chain.from_iterable(sets), dtype=np.int64, count=int(indptr[-1]))
        return cls(idx=idx, indptr=indptr)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def owner(self) -> np.ndarray:
        """Set number of every flat entry."""
        return np.repeat(np.arange(len(self)), self.sizes)

    def check_members(self, num_nodes: int) -> None:
        if self.idx.size and (self.idx.min() < 0 or self.idx.max() >= num_nodes):
            raise DataError(f"vertex set member outside [0, {num_nodes})")

    def set_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-set sums of per-entry rows, as one SpMM."""
        n = self.idx.size
        return sparse.csr_array((np.ones(n), np.arange(n), self.indptr), shape=(len(self), n)) @ values

    def node_sums(self, values: np.ndarray, num_nodes: int) -> np.ndarray:
        """Per-node sums of per-entry rows, keyed by member id, as one SpMM."""
        n = self.idx.size
        return sparse.csc_array((np.ones(n), self.idx, np.arange(n + 1)), shape=(num_nodes, n)) @ values


@dataclass(frozen=True)
class DegreeProfile:
    """Per-node hyperedge counts ``d``, hyperedge sizes ``d_e`` and neighbor-weighted node degrees ``d_v``."""

    d: np.ndarray
    d_e: np.ndarray
    d_v: np.ndarray


def build_hypergraph(
    hyperedge_list: Sequence[Iterable[int]],
    num_nodes: int,
    node_type: Optional[Sequence[str]] = None,
) -> Hypergraph:
    """Build a Hypergraph from per-hyperedge node collections.

    Duplicate node ids within one hyperedge are rejected; empty hyperedges
    and out-of-range indices are rejected with the offending position.
    """
    if num_nodes < 0:
        raise DataError(f"num_nodes must be >= 0, got {num_nodes}")
    edges = []
    incidence: list[list[int]] = [[] for _ in range(num_nodes)]
    for j, raw in enumerate(hyperedge_list):
        members = sorted(raw)
        if not members:
            raise DataError(f"hyperedge {j} is empty")
        if members[0] < 0 or members[-1] >= num_nodes:
            bad = members[0] if members[0] < 0 else members[-1]
            raise DataError(f"hyperedge {j} has node index {bad} outside [0, {num_nodes})")
        for a, b in zip(members, members[1:]):
            if a == b:
                raise DataError(f"hyperedge {j} lists node {a} more than once")
        edges.append(tuple(members))
        for i in members:
            incidence[i].append(j)
    if node_type is not None:
        if len(node_type) != num_nodes:
            raise DataError(
                f"node_type has {len(node_type)} entries for {num_nodes} nodes"
            )
        node_type = tuple(str(t) for t in node_type)
    return Hypergraph(
        num_nodes=num_nodes,
        num_hyperedges=len(edges),
        edge_members=tuple(edges),
        node_edges=tuple(tuple(js) for js in incidence),
        node_type=node_type,
    )


def replace_edges(g: Hypergraph, new_edges: Sequence[Iterable[int]]) -> Hypergraph:
    """New Hypergraph over the same node set (and types) with a different edge list."""
    return build_hypergraph(new_edges, g.num_nodes, node_type=g.node_type)


def canonical(m: sparse.sparray) -> sparse.csr_array:
    """Row-compressed form with summed duplicates, no explicit zeros, sorted indices."""
    m = sparse.csr_array(m)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    return m


def incidence_matrix(g: Hypergraph) -> sparse.csr_array:
    """N x M binary matrix: entry (i, k) is 1 iff node i belongs to hyperedge k."""
    edges = FlatSets.of(g.edge_members)
    h = sparse.csr_array(
        (np.ones(edges.idx.size), (edges.idx, edges.owner)), shape=(g.num_nodes, g.num_hyperedges)
    )
    return canonical(h)


def degrees(g: Hypergraph) -> DegreeProfile:
    """Degree vectors: d (hyperedges per node), d_e (hyperedge sizes), d_v (row sums of the node adjacency)."""
    d = np.array([len(js) for js in g.node_edges], dtype=np.int64)
    d_e = np.array([len(e) for e in g.edge_members], dtype=np.int64)
    a = node_adjacency(g)
    d_v = np.asarray(a.sum(axis=1)).reshape(-1).astype(np.int64)
    return DegreeProfile(_readonly(d), _readonly(d_e), _readonly(d_v))


def node_adjacency(g: Hypergraph) -> sparse.csr_array:
    """N x N co-membership counts: H H^T minus its diagonal (which equals d)."""
    h = incidence_matrix(g)
    d = np.asarray(h.sum(axis=1)).reshape(-1)
    a = h @ h.T - sparse.diags_array(d)
    return canonical(a)


def hyperedge_adjacency(g: Hypergraph) -> sparse.csr_array:
    """M x M pairwise intersection sizes: H^T H minus its diagonal (which equals d_e)."""
    h = incidence_matrix(g)
    d_e = np.asarray(h.sum(axis=0)).reshape(-1)
    a = h.T @ h - sparse.diags_array(d_e)
    return canonical(a)


def line_graph(
    g: Hypergraph, delta: float | Sequence[float]
) -> set[tuple[int, int]]:
    """Edge set over hyperedge-vertices: {j, k} present iff the intersection
    size exceeds the threshold of either endpoint.

    ``delta`` is a single positive threshold or one per hyperedge.
    """
    m = g.num_hyperedges
    if np.isscalar(delta):
        thresholds = np.full(m, float(delta))
    else:
        thresholds = np.asarray(delta, dtype=np.float64)
        if thresholds.shape != (m,):
            raise DataError(
                f"expected {m} thresholds, got shape {thresholds.shape}"
            )
    if np.any(thresholds <= 0):
        raise DataError("all intersection thresholds must be > 0")
    inter = hyperedge_adjacency(g).tocoo()
    edges = set()
    for j, k, v in zip(inter.row, inter.col, inter.data):
        if j < k and (v > thresholds[j] or v > thresholds[k]):
            edges.add((int(j), int(k)))
    return edges


def transition_matrices(g: Hypergraph) -> tuple[sparse.csr_array, sparse.csr_array]:
    """Column-stochastic random-walk operators over nodes (N x N) and hyperedges (M x M).

    Nodes with zero hyperedges get a zero inverse-degree entry (their P
    rows/columns stay zero) and a diagnostic warning is emitted.
    """
    h = incidence_matrix(g)
    d = np.asarray(h.sum(axis=1)).reshape(-1)
    d_e = np.asarray(h.sum(axis=0)).reshape(-1)
    isolated = int(np.count_nonzero(d == 0))
    if isolated:
        warnings.warn(
            f"{isolated} isolated node(s): inverse degree taken as 0",
            HypergraphWarning,
            stacklevel=2,
        )
    d_inv = np.divide(1.0, d, out=np.zeros_like(d, dtype=np.float64), where=d > 0)
    de_inv = 1.0 / d_e  # hyperedges are nonempty by construction
    h_de = canonical(h.multiply(de_inv[np.newaxis, :]))  # H De^-1
    ht_d = canonical(h.T.multiply(d_inv[np.newaxis, :]))  # (D^-1 H)^T
    p = canonical(h_de @ ht_d)
    p_e = canonical(ht_d @ h_de)
    return p, p_e
