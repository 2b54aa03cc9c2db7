"""Sparse hypergraph structure and the matrix constructions derived from it.

A hypergraph stores its incidence relation once, as the flat rows ``edges``:
row ``j`` lists the nodes of hyperedge ``j`` in ascending order.  Row ``i``
of ``node_edges`` lists the hyperedges of node ``i`` in ascending order; it
is a read-only view of the incidence pack H, which each graph derives on
first use.  Instances are immutable, safe to share across threads, and
compare by identity.
"""

from __future__ import annotations

import functools
import itertools
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy import sparse

from .errors import DataError, HypergraphWarning


def _reader_stacklevel() -> int:
    """``warnings`` stacklevel of the first frame outside this module and ``functools``.

    A warning raised while a cached property derives its value then names the
    code that read the property, also when one property reads another.
    """
    frame, level = sys._getframe(1), 1
    while frame.f_code.co_filename in (__file__, functools.__file__):
        frame, level = frame.f_back, level + 1
    return level


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Immutable incidence structure over ``num_nodes`` nodes, one ``edges`` row per hyperedge."""

    num_nodes: int
    edges: "FlatSets"
    node_type: Optional[tuple[str, ...]] = None

    @property
    def num_hyperedges(self) -> int:
        return len(self.edges)

    @property
    def num_incidences(self) -> int:
        return self.edges.idx.size

    @cached_property
    def node_edges(self) -> "FlatSets":
        """Hyperedges of each node, ascending: a read-only view of H's CSR arrays."""
        h = self.pack.h
        return FlatSets(idx=_readonly(h.indices.view()), indptr=_readonly(h.indptr.view()))

    def nodes_of_type(self, tag: str) -> list[int]:
        if self.node_type is None:
            return []
        return [i for i, t in enumerate(self.node_type) if t == tag]

    @cached_property
    def pack(self) -> "GraphPack":
        """H and its degree diagonals, derived on first use and kept with the graph."""
        h = incidence_matrix(self)
        d = np.asarray(h.sum(axis=1)).reshape(-1)
        d_e = np.asarray(h.sum(axis=0)).reshape(-1)
        isolated = int(np.count_nonzero(d == 0))
        if isolated:
            warnings.warn(
                f"{isolated} isolated node(s): inverse degree taken as 0",
                HypergraphWarning,
                stacklevel=_reader_stacklevel(),
            )
        d_inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
        return GraphPack(h, *(_readonly(a) for a in (d, d_e, d_inv, 1.0 / d_e)))


@dataclass(frozen=True, eq=False)
class GraphPack:
    """Incidence matrix H (CSR, N x M), node degrees ``d`` = H 1, hyperedge sizes
    ``d_e`` = H^T 1, and their inverses.  Every adjacency, walk operator, variant
    operator and hyperedge feature map reads these instead of rebuilding H.
    ``adjacency``, H H^T - D, is derived on first read and kept, so the SVD
    feature bootstrap and the node order of one graph share one copy.

    A node in no hyperedge gets ``d_inv`` 0 (its rows and columns of the walk
    operators stay zero) and one warning per graph; hyperedges are nonempty by
    construction, so ``de_inv`` needs no guard.  The pack is shared by every
    reader of the graph, so H must not be modified in place.
    """

    h: sparse.csr_array
    d: np.ndarray
    d_e: np.ndarray
    d_inv: np.ndarray
    de_inv: np.ndarray

    @cached_property
    def adjacency(self) -> sparse.csr_array:
        """N x N co-membership counts, H H^T minus its diagonal (which equals d), read-only."""
        a = canonical(self.h @ self.h.T - sparse.diags_array(self.d))
        for arr in (a.data, a.indices, a.indptr):
            _readonly(arr)
        return a


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

    def __getitem__(self, t: int) -> np.ndarray:
        """Members of set ``t``, as a read-only view of ``idx``."""
        t = range(len(self))[t]
        return _readonly(self.idx[self.indptr[t]:self.indptr[t + 1]])

    def __iter__(self):
        return (self[t] for t in range(len(self)))

    def tuples(self) -> list[tuple[int, ...]]:
        """Every set as a tuple of Python ints."""
        ids, ptr = self.idx.tolist(), self.indptr.tolist()
        return [tuple(ids[a:b]) for a, b in zip(ptr, ptr[1:])]

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


def build_hypergraph(
    hyperedge_list: Sequence[Iterable[int]],
    num_nodes: int,
    node_type: Optional[Sequence[str]] = None,
) -> Hypergraph:
    """Build a Hypergraph from per-hyperedge node collections.

    Members are stored sorted.  An empty hyperedge, a node index outside
    [0, num_nodes) and a node listed twice in one hyperedge are rejected;
    the error names the lowest offending hyperedge, and within it a bad
    index is reported before a repeat.
    """
    if num_nodes < 0:
        raise DataError(f"num_nodes must be >= 0, got {num_nodes}")
    raw = FlatSets.of(hyperedge_list)
    owner = raw.owner
    idx = raw.idx[np.lexsort((raw.idx, owner))]  # members ascending within each row
    bad = raw.sizes == 0
    bad[owner[(idx < 0) | (idx >= num_nodes)]] = True
    bad[owner[1:][(np.diff(idx) == 0) & (np.diff(owner) == 0)]] = True
    if bad.any():
        j = int(np.argmax(bad))
        members = idx[raw.indptr[j]:raw.indptr[j + 1]].tolist()
        if not members:
            raise DataError(f"hyperedge {j} is empty")
        if members[0] < 0 or members[-1] >= num_nodes:
            out = members[0] if members[0] < 0 else members[-1]
            raise DataError(f"hyperedge {j} has node index {out} outside [0, {num_nodes})")
        repeat = next(a for a, b in zip(members, members[1:]) if a == b)
        raise DataError(f"hyperedge {j} lists node {repeat} more than once")
    if node_type is not None:
        if len(node_type) != num_nodes:
            raise DataError(
                f"node_type has {len(node_type)} entries for {num_nodes} nodes"
            )
        node_type = tuple(str(t) for t in node_type)
    edges = FlatSets(_readonly(idx), _readonly(raw.indptr.copy()))  # a caller's FlatSets stays writable
    return Hypergraph(num_nodes=num_nodes, edges=edges, node_type=node_type)


def replace_edges(g: Hypergraph, new_edges: Sequence[Iterable[int]]) -> Hypergraph:
    """New Hypergraph over the same node set (and types) with a different edge list."""
    return build_hypergraph(new_edges, g.num_nodes, node_type=g.node_type)


def canonical(m: sparse.sparray) -> sparse.csr_array:
    """Row-compressed form with summed duplicates, no explicit zeros, sorted indices,
    whose arrays own exactly ``nnz`` slots."""
    m = sparse.csr_array(m)
    m.sum_duplicates()
    m.eliminate_zeros()
    m.sort_indices()
    # a sum or difference keeps views into scipy's buffer sized for both operands
    if m.data.base is not None or m.indices.base is not None:
        m.data, m.indices = m.data.copy(), m.indices.copy()
    return m


def incidence_matrix(g: Hypergraph) -> sparse.csr_array:
    """N x M binary matrix: entry (i, k) is 1 iff node i belongs to hyperedge k."""
    h = sparse.csr_array(
        (np.ones(g.num_incidences), (g.edges.idx, g.edges.owner)), shape=(g.num_nodes, g.num_hyperedges)
    )
    return canonical(h)


def node_adjacency(g: Hypergraph) -> sparse.csr_array:
    """N x N co-membership counts: H H^T minus its diagonal (which equals d).
    The graph's one read-only copy, ``GraphPack.adjacency``."""
    return g.pack.adjacency
