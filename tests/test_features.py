import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperemb import (
    ConfigError,
    DataError,
    HypergraphWarning,
    build_hypergraph,
    init_hyperedge_features,
    init_node_features,
    node_adjacency,
    randomized_svd,
    svd_features,
)
from conftest import TRIANGLE_EDGES
from oracles import random_hypergraph


def random_symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


class TestRandomizedSvd:
    def test_matches_exact_svd(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 12))
            m = rng.standard_normal((n, n))
            u, s, vt = randomized_svd(m, n, rng=rng)
            s_ref = np.linalg.svd(m, compute_uv=False)
            assert_allclose(s, s_ref, rtol=1e-8)
            assert_allclose(u @ np.diag(s) @ vt, m, atol=1e-8)

    def test_truncated_reconstruction_is_optimal(self, rng):
        m = random_symmetric(rng, 10)
        for f in (2, 5, 8):
            u, s, vt = randomized_svd(m, f, rng=rng)
            resid = np.linalg.norm(u @ np.diag(s) @ vt - m)
            s_all = np.linalg.svd(m, compute_uv=False)
            assert resid == pytest.approx(np.linalg.norm(s_all[f:]), rel=1e-6)

    def test_rectangular(self, rng):
        m = rng.standard_normal((8, 5))
        u, s, vt = randomized_svd(m, 3, rng=rng)
        assert u.shape == (8, 3) and s.shape == (3,) and vt.shape == (3, 5)
        s_ref = np.linalg.svd(m, compute_uv=False)
        assert_allclose(s, s_ref[:3], rtol=1e-8)

    def test_rank_bounds(self, rng):
        m = rng.standard_normal((4, 4))
        with pytest.raises(ConfigError):
            randomized_svd(m, 0)
        with pytest.raises(ConfigError):
            randomized_svd(m, 5)


class TestSvdFeatures:
    def test_dominant_direction(self):
        m = np.diag([4.0, 1.0, 0.0])
        x = svd_features(m, 1)
        assert x.shape == (3, 1)
        assert abs(x[0, 0]) == pytest.approx(2.0)  # sqrt(4), up to sign
        assert_allclose(x[1:, 0], 0.0, atol=1e-12)

    def test_zero_matrix(self):
        with pytest.warns(HypergraphWarning, match="numerical rank"):
            x = svd_features(np.zeros((4, 4)), 2)
        assert_allclose(x, 0.0)

    def test_full_rank_psd_reconstruction(self, rng):
        b = rng.standard_normal((6, 6))
        m = b @ b.T  # PSD, so U diag(s) U^T recovers it
        x = svd_features(m, 6)  # x = U sqrt(diag(s))
        assert np.linalg.norm(x @ x.T - m) / np.linalg.norm(m) < 1e-6

    def test_full_rank_indefinite_reconstruction(self, rng):
        m = random_symmetric(rng, 6)
        u, s, vt = randomized_svd(m, 6, rng=rng)
        assert np.linalg.norm(u @ np.diag(s) @ vt - m) / np.linalg.norm(m) < 1e-6

    def test_residual_non_increasing_in_rank(self, rng):
        m = random_symmetric(rng, 9)
        residuals = []
        for f in range(1, 10):
            u, s, vt = randomized_svd(m, f, rng=rng)
            residuals.append(np.linalg.norm(u @ np.diag(s) @ vt - m))
        assert all(a >= b - 1e-9 for a, b in zip(residuals, residuals[1:]))

    def test_seeded_repeatability(self, rng):
        m = random_symmetric(rng, 7)
        assert_allclose(svd_features(m, 3, rng=11), svd_features(m, 3, rng=11))

    def test_rank_deficient_zero_fill(self):
        m = np.diag([4.0, 1.0, 0.0, 0.0])
        with pytest.warns(HypergraphWarning, match="zero-filled"):
            x = svd_features(m, 4)
        assert_allclose(x[:, 2:], 0.0)
        assert np.all(np.isfinite(x))

    def test_non_square_rejected(self, rng):
        with pytest.raises(DataError, match="square"):
            svd_features(rng.standard_normal((3, 4)), 2)


class TestInitNodeFeatures:
    def test_passthrough_exact(self, triangle, rng):
        given = rng.standard_normal((3, 5))
        assert_allclose(init_node_features(triangle, 2, given=given), given)

    def test_triangle_matches_dense_oracle(self, triangle):
        x = svd_features(node_adjacency(triangle), 2, rng=5)
        a = np.asarray(node_adjacency(triangle).toarray())
        w, v = np.linalg.eigh(a)
        order = np.argsort(-np.abs(w))[:2]
        expected = v[:, order] * np.sqrt(np.abs(w[order]))
        got = init_node_features(triangle, 2, rng=5)
        assert_allclose(got, x)
        for col in range(2):  # columns agree up to sign
            assert min(
                np.linalg.norm(got[:, col] - expected[:, col]),
                np.linalg.norm(got[:, col] + expected[:, col]),
            ) < 1e-8

    def test_zero_rank_rejected(self, triangle):
        with pytest.raises(ConfigError):
            init_node_features(triangle, 0)

    def test_bad_given_rejected(self, triangle, rng):
        with pytest.raises(DataError, match="rows"):
            init_node_features(triangle, 2, given=rng.standard_normal((4, 2)))
        bad = rng.standard_normal((3, 2))
        bad[0, 0] = np.nan
        with pytest.raises(DataError, match="NaN"):
            init_node_features(triangle, 2, given=bad)


class TestInitHyperedgeFeatures:
    def test_aggregate_matches_dense_oracle(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            z = rng.standard_normal((n, 3))
            d = np.array([len(js) for js in g.node_edges], dtype=float)
            h = np.zeros((n, len(edges)))
            for j, members in enumerate(g.edges):
                h[list(members), j] = 1.0
            expected = (np.diag(1.0 / d) @ h).T @ z
            assert_allclose(init_hyperedge_features(g, z), expected, atol=1e-12)

    def test_disjoint_edges_sum_sizes(self):
        # every node in exactly one hyperedge and Z = 1 -> row j = |e_j|
        g = build_hypergraph([(0, 1), (2, 3, 4), (5,)], 6)
        y = init_hyperedge_features(g, np.ones((6, 1)))
        assert_allclose(y[:, 0], [2.0, 3.0, 1.0])

    def test_triangle_basis_oracle(self, triangle):
        z = np.eye(3)
        y = init_hyperedge_features(triangle, z)
        # row j, column i = 1/d_i if node i in hyperedge j
        expected = np.array([
            [1 / 2, 1 / 3, 0.0],
            [0.0, 1 / 3, 1 / 2],
            [1 / 2, 1 / 3, 1 / 2],
        ])
        assert_allclose(y, expected, atol=1e-12)

    def test_shape_mismatch_rejected(self, triangle):
        with pytest.raises(DataError):
            init_hyperedge_features(triangle, np.ones((4, 1)))
