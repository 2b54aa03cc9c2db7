"""Bootstrap feature matrices for nodes and hyperedges.

When a dataset ships no features, node features are the rank-``f``
factorization of the co-membership matrix ``H H^T - D`` and hyperedge
features are a degree-normalized aggregation of member-node features.
"""

from __future__ import annotations

import warnings
from typing import Union

import numpy as np

from .errors import ConfigError, DataError, HypergraphWarning
from .hypergraph import Hypergraph, node_adjacency

RngLike = Union[np.random.Generator, int, None]
# randomized_svd's sketch: columns beyond the rank and power iterations of the
# randomized subspace iteration of Halko, Martinsson & Tropp (SIAM Review 2011)
SVD_OVERSAMPLE = 8
SVD_POWER_ITERS = 4


def as_rng(seed: RngLike) -> np.random.Generator:
    """Pass Generators through, build one from an int seed or from entropy."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def randomized_svd(m, rank: int, rng: RngLike = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``rank`` singular triplets (u, s, vt) by randomized subspace iteration.

    Works on dense arrays and scipy sparse matrices alike.  The sketch uses
    a seeded Gaussian test matrix with ``SVD_OVERSAMPLE`` extra columns and
    ``SVD_POWER_ITERS`` power iterations with QR re-orthonormalization.
    """
    n_rows, n_cols = m.shape
    if not 1 <= rank <= min(n_rows, n_cols):
        raise ConfigError(
            f"rank must be in [1, {min(n_rows, n_cols)}], got {rank}"
        )
    rng = as_rng(rng)
    k = min(rank + SVD_OVERSAMPLE, min(n_rows, n_cols))
    omega = rng.standard_normal((n_cols, k))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(SVD_POWER_ITERS):
        q, _ = np.linalg.qr(m.T @ q)
        q, _ = np.linalg.qr(m @ q)
    b = (m.T @ q).T  # k x n_cols, sparse-friendly
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = q @ ub
    return u[:, :rank], s[:rank], vt[:rank]


def svd_features(m, f: int, rng: RngLike = 0) -> np.ndarray:
    """Rank-``f`` feature map of a square symmetric matrix: U diag(sqrt(s)).

    Columns beyond the numerical rank are zeroed and a diagnostic warning
    is emitted, so requesting more dimensions than the matrix supports is
    safe but explicit.
    """
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise DataError(f"expected a square matrix, got shape {m.shape}")
    u, s, _ = randomized_svd(m, f, rng=rng)
    tol = max(m.shape) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    dead = s <= tol
    if np.any(dead):
        warnings.warn(
            f"rank {f} exceeds numerical rank {int(np.count_nonzero(~dead))}; "
            "trailing feature columns zero-filled",
            HypergraphWarning,
            stacklevel=2,
        )
    x = u * np.sqrt(np.where(dead, 0.0, s))[np.newaxis, :]
    x[:, dead] = 0.0
    return x


def _check_given(given, rows: int) -> np.ndarray:
    x = np.asarray(given, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != rows:
        raise DataError(f"node features must be 2-d with {rows} rows, got shape {x.shape}")
    if x.shape[1] < 1:
        raise DataError("node features need at least one column")
    if not np.all(np.isfinite(x)):
        raise DataError("node features contain NaN/Inf entries")
    return x


def init_node_features(
    g: Hypergraph,
    f: int,
    given=None,
    rng: RngLike = 0,
) -> np.ndarray:
    """Provided node features, checked and as float64, else the rank-``f`` map of H H^T - D."""
    if given is not None:
        return _check_given(given, g.num_nodes)
    return svd_features(node_adjacency(g), f, rng=rng)


def init_hyperedge_features(g: Hypergraph, z1: np.ndarray) -> np.ndarray:
    """Y = (D^-1 H)^T Z: each hyperedge sums its members' feature rows scaled by
    inverse node degree, so Y has Z's width."""
    z1 = np.asarray(z1, dtype=np.float64)
    if z1.ndim != 2 or z1.shape[0] != g.num_nodes:
        raise DataError(
            f"node features must be 2-d with {g.num_nodes} rows, got shape {z1.shape}"
        )
    return g.pack.h.T @ (g.pack.d_inv[:, np.newaxis] * z1)
