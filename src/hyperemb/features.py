"""Bootstrap feature matrices for nodes and hyperedges.

When a dataset ships no features, node features are the rank-``f``
factorization of the co-membership matrix ``H H^T - D`` and hyperedge
features are a degree-normalized aggregation of member-node features
(or, selectably, the analogous factorization of ``H^T H - D_e``).
"""

from __future__ import annotations

import warnings
from typing import Union

import numpy as np

from .errors import ConfigError, DataError, HypergraphWarning
from .hypergraph import Hypergraph, hyperedge_adjacency, node_adjacency

RngLike = Union[np.random.Generator, int, None]


def as_rng(seed: RngLike) -> np.random.Generator:
    """Pass Generators through, build one from an int seed or from entropy."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def randomized_svd(
    m,
    rank: int,
    rng: RngLike = 0,
    oversample: int = 8,
    n_iter: int = 4,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-``rank`` singular triplets (u, s, vt) by randomized subspace iteration.

    Works on dense arrays and scipy sparse matrices alike.  The sketch uses
    a seeded Gaussian test matrix with ``oversample`` extra columns and
    ``n_iter`` power iterations with QR re-orthonormalization.
    """
    n_rows, n_cols = m.shape
    if not 1 <= rank <= min(n_rows, n_cols):
        raise ConfigError(
            f"rank must be in [1, {min(n_rows, n_cols)}], got {rank}"
        )
    rng = as_rng(rng)
    k = min(rank + oversample, min(n_rows, n_cols))
    omega = rng.standard_normal((n_cols, k))
    q, _ = np.linalg.qr(m @ omega)
    for _ in range(n_iter):
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


def _check_given(given, rows: int, what: str) -> np.ndarray:
    x = np.asarray(given, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != rows:
        raise DataError(
            f"{what} features must be 2-d with {rows} rows, got shape {x.shape}"
        )
    if x.shape[1] < 1:
        raise DataError(f"{what} features need at least one column")
    if not np.all(np.isfinite(x)):
        raise DataError(f"{what} features contain NaN/Inf entries")
    return x


def init_node_features(
    g: Hypergraph,
    f: int,
    given=None,
    rng: RngLike = 0,
) -> np.ndarray:
    """Provided node features verbatim, else the rank-``f`` map of H H^T - D."""
    if given is not None:
        return _check_given(given, g.num_nodes, "node")
    return svd_features(node_adjacency(g), f, rng=rng)


def init_hyperedge_features(
    g: Hypergraph,
    z1: np.ndarray,
    f: int,
    given=None,
    mode: str = "aggregate",
    rng: RngLike = 0,
) -> np.ndarray:
    """Provided hyperedge features verbatim, else derived ones.

    mode "aggregate" (default): Y = (D^-1 H)^T Z, each hyperedge summing its
    members' feature rows scaled by inverse node degree.  mode "svd": the
    rank-``f`` map of H^T H - D_e, ignoring ``z1``'s values.
    """
    if given is not None:
        return _check_given(given, g.num_hyperedges, "hyperedge")
    z1 = np.asarray(z1, dtype=np.float64)
    if z1.ndim != 2 or z1.shape[0] != g.num_nodes:
        raise DataError(
            f"node features must be 2-d with {g.num_nodes} rows, got shape {z1.shape}"
        )
    if mode == "aggregate":
        return g.pack.h.T @ (g.pack.d_inv[:, np.newaxis] * z1)
    if mode == "svd":
        return svd_features(hyperedge_adjacency(g), f, rng=rng)
    raise ConfigError(f"unknown hyperedge feature mode {mode!r}")
