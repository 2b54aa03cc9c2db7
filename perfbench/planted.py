"""Seeded planted-community hypergraphs at the sizes of the paper's corpora.

Every generator takes the workload seed and returns plain Python/numpy data
(hyperedge lists, labels, node types); the program under test only ever
sees the dataset directory that ``hyperemb.data.write_dataset`` writes
from it.

Hyperedge sizes are heavy-tailed (``1 + Zipf``, capped) and members are
drawn by heavy-tailed node popularity, so hub nodes and hub hyperedges
exist as they do in coauthorship data.  Each hyperedge belongs to one
community and draws most members from it; labels are the communities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import zeta


@dataclass(frozen=True)
class GraphSpec:
    """Exact target counts plus the shape of the planted structure."""

    num_nodes: int
    num_hyperedges: int
    communities: int = 6
    p_in: float = 0.85  # share of members drawn from the hyperedge's community
    zipf_a: float = 2.6  # size tail: size = 1 + Zipf(a), capped
    max_size: int = 20
    popularity_a: float = 3.0  # Pareto shape of node popularity (smaller = heavier hubs)


# zipf_a is set so the mean hyperedge size lands near 3 once every node is covered
CITESEER = GraphSpec(num_nodes=3327, num_hyperedges=4732, zipf_a=2.4)
DBLP = GraphSpec(num_nodes=43413, num_hyperedges=22535)


@dataclass
class PlantedGraph:
    edges: list[tuple[int, ...]]
    num_nodes: int
    labels: np.ndarray
    node_types: Optional[list[str]] = None


def _stratified(ppf, n: int, rng) -> np.ndarray:
    """``n`` evenly spaced quantiles of a distribution, in seeded random order.

    Sizes and popularities come from fixed quantiles rather than free draws so
    that the total work of a graph (incidences, hub sizes) barely changes with
    the seed, while which node or hyperedge gets which value does.
    """
    values = ppf((np.arange(n) + 0.5) / n)
    rng.shuffle(values)
    return values


def _pareto_weights(a: float, n: int, rng) -> np.ndarray:
    """Heavy-tailed weights >= 1 (``1 + numpy's Pareto(a)``)."""
    return _stratified(lambda u: (1.0 - u) ** (-1.0 / a), n, rng)


def _capped_zipf_sizes(a: float, cap: int, n: int, rng) -> np.ndarray:
    """Hyperedge sizes ``min(1 + Zipf(a), cap)``."""
    cdf = np.cumsum(np.arange(1, cap) ** -a) / zeta(a)
    return _stratified(lambda u: np.minimum(2 + np.searchsorted(cdf, u), cap), n, rng)


def _weighted_draw(rng, cum: np.ndarray, size) -> np.ndarray:
    """Indices drawn with replacement in proportion to the weights behind ``cum``."""
    return np.searchsorted(cum, rng.random(size) * cum[-1], side="right")


def planted_communities(spec: GraphSpec, seed: int) -> PlantedGraph:
    """Exactly ``spec.num_nodes`` nodes (none isolated) and ``spec.num_hyperedges``
    distinct hyperedges, each with distinct members."""
    rng = np.random.default_rng([seed, spec.num_nodes, spec.num_hyperedges])
    n, m, k = spec.num_nodes, spec.num_hyperedges, spec.communities
    share = rng.dirichlet(np.full(k, 4.0))
    labels = rng.choice(k, size=n, p=share)
    popularity = _pareto_weights(spec.popularity_a, n, rng)
    members_of = [np.flatnonzero(labels == c) for c in range(k)]
    cum_of = [np.cumsum(popularity[idx]) for idx in members_of]
    cum_all = np.cumsum(popularity)
    comm_weight = np.array([c[-1] for c in cum_of])

    sizes = _capped_zipf_sizes(spec.zipf_a, spec.max_size, m, rng)
    edge_comm = rng.choice(k, size=m, p=comm_weight / comm_weight.sum())

    def draw_member(c: int) -> int:
        if rng.random() < spec.p_in:
            return int(members_of[c][_weighted_draw(rng, cum_of[c], None)])
        return int(_weighted_draw(rng, cum_all, None))

    seen: set[tuple[int, ...]] = set()
    edges: list[list[int]] = []
    for j in range(m):
        c, size = int(edge_comm[j]), int(sizes[j])
        while True:
            chosen: set[int] = set()
            while len(chosen) < size:
                chosen.add(draw_member(c))
            key = tuple(sorted(chosen))
            if key not in seen:
                break
        seen.add(key)
        edges.append(list(key))

    # every node joins at least one hyperedge of its own community
    degree = np.zeros(n, dtype=np.int64)
    for e in edges:
        degree[e] += 1
    edges_of_comm = [np.flatnonzero(edge_comm == c) for c in range(k)]
    for i in np.flatnonzero(degree == 0):
        pool = edges_of_comm[labels[i]]
        edges[int(pool[rng.integers(pool.size)])].append(int(i))
    out = [tuple(sorted(e)) for e in edges]
    if len(set(out)) != m:
        raise RuntimeError("planted generator produced duplicate hyperedges")
    return PlantedGraph(edges=out, num_nodes=n, labels=labels.astype(np.int64))


@dataclass(frozen=True)
class CatalogSpec:
    """A typed catalog: every hyperedge holds one fragment, one style and a few others."""

    num_styles: int = 450
    num_frags: int = 900
    num_others: int = 1350
    num_hyperedges: int = 2790
    noise: float = 0.15  # share of hyperedges whose style is not the fragment's own
    max_others: int = 4

    @property
    def num_nodes(self) -> int:
        return self.num_styles + self.num_frags + self.num_others


CATALOG = CatalogSpec()


def planted_catalog(spec: CatalogSpec, seed: int) -> PlantedGraph:
    """Fragments each prefer one style (heavy-tailed style popularity) and a
    small pool of 'other' nodes shared with that style's cluster."""
    rng = np.random.default_rng([seed, spec.num_nodes, spec.num_hyperedges])
    s, f, o = spec.num_styles, spec.num_frags, spec.num_others
    styles = np.arange(s)
    frags = s + np.arange(f)
    others = s + f + np.arange(o)
    style_pop = _pareto_weights(1.2, s, rng)
    cum_style = np.cumsum(style_pop)
    # each style owns a contiguous block of 'other' nodes
    other_block = np.sort(rng.integers(0, s, size=o))
    frag_style = np.concatenate([styles, _weighted_draw(rng, cum_style, f - s)])
    rng.shuffle(frag_style)
    frag_edges = np.concatenate([np.arange(f), rng.integers(0, f, size=spec.num_hyperedges - f)])
    labels = np.full(s + f + o, -1, dtype=np.int64)

    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    for j, fi in enumerate(frag_edges):
        true_style = int(frag_style[fi])
        while True:
            style = true_style
            if j >= f and rng.random() < spec.noise:  # a fragment's first hyperedge is clean
                style = int(_weighted_draw(rng, cum_style, None))
            pool = others[other_block == true_style]
            count = int(rng.integers(0, spec.max_others + 1))
            if pool.size and count:
                picked = rng.choice(pool, size=min(count, pool.size), replace=False)
            else:
                picked = np.empty(0, dtype=np.int64)
            if rng.random() < 0.3:
                picked = np.append(picked, others[rng.integers(o)])
            key = tuple(sorted({int(frags[fi]), style, *map(int, picked)}))
            if key not in seen:
                break
        seen.add(key)
        edges.append(key)
    # every style and fragment already appears (each fragment's first hyperedge holds its
    # own style); attach leftover 'other' nodes to a hyperedge of their block's style
    degree = np.zeros(s + f + o, dtype=np.int64)
    for e in edges:
        degree[list(e)] += 1
    by_style: dict[int, list[int]] = {}
    for j, e in enumerate(edges):
        by_style.setdefault(e[0], []).append(j)  # styles have the lowest ids
    for i in np.flatnonzero(degree == 0):
        block = int(other_block[i - s - f])
        pool = by_style.get(block) or list(range(len(edges)))
        j = pool[int(rng.integers(len(pool)))]
        edges[j] = tuple(sorted((*edges[j], int(i))))
    if len(set(edges)) != spec.num_hyperedges:
        raise RuntimeError("planted catalog produced duplicate hyperedges")
    types = ["style"] * s + ["frag"] * f + ["other"] * o
    return PlantedGraph(edges=edges, num_nodes=s + f + o, labels=labels, node_types=types)
