"""Bootstrap feature matrices for nodes and hyperedges.

When a dataset ships no features, node features are the rank-``f``
factorization of the co-membership matrix ``H H^T - D`` (``svd_features``:
randomized subspace iteration on the symmetric matrix, CholeskyQR between
its products and one Rayleigh-Ritz step, in numpy alone) and hyperedge
features are a degree-normalized aggregation of member-node features.
``randomized_svd`` is the general path, for dense or rectangular inputs
such as compressed file features.
"""

from __future__ import annotations

import warnings
from typing import Union

import numpy as np

from .errors import ConfigError, DataError, HypergraphWarning
from .hypergraph import Hypergraph

RngLike = Union[np.random.Generator, int, None]
# the sketch of randomized_svd and svd_features: columns beyond the rank and power
# iterations of the randomized subspace iteration of Halko, Martinsson & Tropp
# (SIAM Review 2011)
SVD_OVERSAMPLE = 8
SVD_POWER_ITERS = 4
_EPS = np.finfo(np.float64).eps
# names svd_features' algorithm in checkpoint meta; another algorithm gives another Z(0)
SVD_BOOTSTRAP = "cholesky-qr-rayleigh-ritz"


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


def _orthonormalize(x: np.ndarray, passes: int = 1) -> np.ndarray:
    """An orthonormal basis of ``x``'s columns by ``passes`` rounds of CholeskyQR.

    One round factors the Gram matrix x^T x = R^T R and returns x R^-1, two
    BLAS-3 passes over ``x`` (two rounds are CholeskyQR2 of Fukaya et al.,
    ScalA 2014).  A round whose Gram is not numerically positive definite,
    because Cholesky fails or R's diagonal puts cond(x)^2 within a factor
    of the row count of 1/eps, takes a Householder QR instead.
    """
    for _ in range(passes):
        try:
            r = np.linalg.cholesky(x.T @ x, upper=True)
        except np.linalg.LinAlgError:
            r = None
        if r is None or (d := np.diag(r)).min() <= d.max() * np.sqrt(x.shape[0] * _EPS):
            return np.linalg.qr(x)[0]
        x = x @ np.linalg.inv(r)
    return x


def svd_features(m, f: int, rng: RngLike = 0) -> np.ndarray:
    """Rank-``f`` feature map of a square symmetric matrix: U diag(sqrt(s)).

    The top-``f`` eigenpairs by |lambda| come from randomized subspace
    iteration (Halko, Martinsson & Tropp, SIAM Review 2011, sections 4.5
    and 5.3): one seeded Gaussian sketch with ``SVD_OVERSAMPLE`` extra
    columns, then 2 * ``SVD_POWER_ITERS`` further products with ``m``, each
    sketch orthonormalized by ``_orthonormalize`` (the last by two rounds),
    then Rayleigh-Ritz on that basis Q: the eigenpairs of Q^T (m Q), ranked
    by |lambda| with ties in eigh's order.  s = |lambda| and U = Q V, each
    column's sign set so that its largest-magnitude entry is positive.  It
    draws only the sketch from ``rng``.  ``m`` must be exactly symmetric;
    it is never transposed.

    Columns beyond the numerical rank are zeroed and a diagnostic warning
    is emitted, so requesting more dimensions than the matrix supports is
    safe but explicit.
    """
    n_rows, n_cols = m.shape
    if n_rows != n_cols:
        raise DataError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= f <= n_rows:
        raise ConfigError(f"rank must be in [1, {n_rows}], got {f}")
    rng = as_rng(rng)
    k = min(f + SVD_OVERSAMPLE, n_rows)
    x = m @ rng.standard_normal((n_rows, k))
    for _ in range(2 * SVD_POWER_ITERS):
        x = m @ _orthonormalize(x)
    q = _orthonormalize(x, passes=2)
    lam, v = np.linalg.eigh(q.T @ (m @ q))
    top = np.argsort(-np.abs(lam), kind="stable")[:f]
    s = np.abs(lam[top])
    u = q @ v[:, top]
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(f)] < 0
    u[:, flip] *= -1.0
    tol = n_rows * _EPS * s[0]
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
    return svd_features(g.pack.adjacency, f, rng=rng)


def init_hyperedge_features(g: Hypergraph, z1: np.ndarray) -> np.ndarray:
    """Y = (D^-1 H)^T Z: each hyperedge sums its members' feature rows scaled by
    inverse node degree, so Y has Z's width."""
    z1 = np.asarray(z1, dtype=np.float64)
    if z1.ndim != 2 or z1.shape[0] != g.num_nodes:
        raise DataError(
            f"node features must be 2-d with {g.num_nodes} rows, got shape {z1.shape}"
        )
    return g.pack.hd.T @ z1
