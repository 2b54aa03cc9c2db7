import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from hyperemb import (
    ConfigError,
    DataError,
    HypergraphWarning,
    build_hypergraph,
    init_hyperedge_features,
    init_node_features,
    randomized_svd,
    svd_features,
)
from hyperemb import features
from conftest import TRIANGLE_EDGES
from oracles import frozen_randomized_svd, random_hypergraph, ringed_hypergraph


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


def dense_top(a, f):
    """(|lambda|, eigenvectors) of the dense symmetric ``a``, the top ``f`` by |lambda|."""
    w, v = np.linalg.eigh(a)
    order = np.argsort(-np.abs(w), kind="stable")[:f]
    return np.abs(w[order]), v[:, order]


def cliques(sizes, isolated=0):
    """Disjoint cliques, each one hyperedge, plus ``isolated`` nodes in none: A's
    spectrum is s - 1 once and -1 s - 1 times per clique, and 0 per isolated node."""
    edges, start = [], 0
    for size in sizes:
        edges.append(tuple(range(start, start + size)))
        start += size
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", HypergraphWarning)
        g = build_hypergraph(edges, start + isolated)
        return g.pack.adjacency


class TestSymmetricBootstrap:
    """svd_features' subspace iteration, CholeskyQR and Rayleigh-Ritz against dense eigh."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dense_eigh_on_random_hypergraphs(self, seed):
        # odd seeds leave nodes in no hyperedge, so A is rank-deficient and k > rank
        rng = np.random.default_rng(seed)
        edges, n = random_hypergraph(rng, max_nodes=14, max_edges=8, connected_degrees=seed % 2 == 0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", HypergraphWarning)
            a = build_hypergraph(edges, n).pack.adjacency
            lam, v = dense_top(a.toarray(), n)
            tol = n * np.finfo(np.float64).eps * lam[0]
            for f in range(1, n + 1):
                x = svd_features(a, f, rng=seed)
                want = np.where(lam[:f] <= tol, 0.0, lam[:f])
                assert_allclose((x ** 2).sum(axis=0), want, atol=1e-9 * lam[0])
                if f + features.SVD_OVERSAMPLE < n:
                    continue
                # the sketch spans every direction, so each cut between distinct |lambda|
                # spans the eigenvectors' subspace
                for j in range(1, f + 1):
                    if lam[j - 1] > tol and (j == n or lam[j - 1] > lam[j] * (1 + 1e-6)):
                        u = x[:, :j] / np.sqrt(lam[:j])
                        assert_allclose(u @ u.T, v[:, :j] @ v[:, :j].T, atol=1e-9)

    def test_sketch_narrower_than_the_matrix(self):
        # k = f + 8 = 12 < 113 nodes, and |lambda| falls 39, 29, 19, 14, then 1
        a = cliques([40, 30, 20, 15, 2, 2, 2, 2])
        lam, v = dense_top(a.toarray(), 4)
        x = svd_features(a, 4, rng=3)
        assert_allclose((x ** 2).sum(axis=0), lam, rtol=1e-12)
        assert_allclose(np.abs(x / np.sqrt(lam)), np.abs(v), atol=1e-10)

    def test_rank_below_the_sketch_width(self):
        # one triangle and 20 isolated nodes: rank 3 < k = 12, and |lambda| = 2, 1, 1
        a = cliques([3], isolated=20)
        with pytest.warns(HypergraphWarning, match="numerical rank 3"):
            x = svd_features(a, 4, rng=0)
        assert_allclose((x ** 2).sum(axis=0), [2.0, 1.0, 1.0, 0.0], atol=1e-12)
        assert_allclose(x[3:], 0.0, atol=1e-12)
        w, v = np.linalg.eigh(a.toarray())
        assert_allclose(x @ x.T, v @ np.diag(np.abs(w)) @ v.T, atol=1e-12)  # |A|, tie included

    def test_ill_conditioned_sketches_give_orthonormal_vectors(self, rng):
        # every sketch has a condition number of about 4e6, below the fallback's
        # threshold, so CholeskyQR orthonormalizes them all
        lam = np.concatenate([[3e6, -1.5e6], np.linspace(1.0, 0.5, 38)])
        basis, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        a = (basis * lam) @ basis.T
        a = (a + a.T) / 2.0
        x = svd_features(a, 10, rng=0)
        s = (x ** 2).sum(axis=0)
        assert_allclose(s[:2], np.abs(lam[:2]), rtol=1e-12)
        u = x / np.sqrt(s)
        assert_allclose(u.T @ u, np.eye(10), atol=1e-12)

    def test_cholesky_qr_orthonormalizes_without_householder(self, monkeypatch, rng):
        # cond(x) = 1e5 in mixed directions (CholeskyQR is exact on scaled orthonormal columns)
        left, _ = np.linalg.qr(rng.standard_normal((200, 12)))
        right, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        x = (left * np.logspace(0, 5, 12)) @ right
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: pytest.fail("Householder fallback taken"))
        for passes, atol in ((1, 1e-4), (2, 1e-14)):
            q = features._orthonormalize(x, passes=passes)
            assert_allclose(q.T @ q, np.eye(12), atol=atol)
            assert_allclose(q @ (q.T @ x), x, atol=1e-9 * np.abs(x).max())

    @pytest.mark.parametrize("case", ["zero", "dependent", "ill-conditioned"])
    def test_householder_fallback(self, monkeypatch, rng, case):
        x = rng.standard_normal((50, 6))
        if case == "zero":  # the Gram is zero: Cholesky fails
            x[:] = 0.0
        elif case == "dependent":  # two equal columns: the Gram is singular
            x[:, 5] = x[:, 0]
        else:  # cond(x) = 1e10: Cholesky succeeds, but R's diagonal gives it away
            x = x @ np.diag(np.logspace(0, -10, 6))
        taken = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: taken.append(a.shape) or qr(a, *args, **kw))
        q = features._orthonormalize(x, passes=2)
        assert taken == [(50, 6)]
        assert_allclose(q.T @ q, np.eye(6), atol=1e-12)
        if case == "ill-conditioned":
            assert_allclose(q @ (q.T @ x), x, atol=1e-12)

    def test_rank_deficient_inputs_take_the_fallback(self, monkeypatch):
        taken = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: taken.append(a.shape) or qr(a, *args, **kw))
        with pytest.warns(HypergraphWarning):
            svd_features(np.diag([4.0, 1.0, 0.0, 0.0]), 4)
        assert taken and all(shape == (4, 4) for shape in taken)

    def test_signs_pinned_by_the_largest_entry(self):
        # another seed draws another sketch, but the same eigenvectors come out signed the same way
        a = cliques([40, 30, 20, 15, 2, 2, 2, 2])
        xs = [svd_features(a, 4, rng=seed) for seed in (0, 1, 2)]
        for x in xs:
            peak = x[np.argmax(np.abs(x), axis=0), np.arange(4)]
            assert np.all(peak > 0)
            assert_allclose(x, xs[0], atol=1e-8)
        assert np.array_equal(svd_features(a, 4, rng=1), xs[1])

    @pytest.mark.parametrize("f", [1, 4, 9])
    def test_generator_state_after_one_gaussian_draw(self, f):
        g = build_hypergraph(*ringed_hypergraph(0))
        rng = np.random.default_rng(5)
        init_node_features(g, f, rng=rng)
        ref = np.random.default_rng(5)
        ref.standard_normal((g.num_nodes, f + features.SVD_OVERSAMPLE))
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRandomizedSvdUnchanged:
    """The general path, for file-compressed features, keeps its floats bit for bit."""

    @pytest.mark.parametrize("shape, rank", [((30, 12), 5), ((12, 30), 4), ((20, 20), 20)])
    def test_bit_identical_to_the_frozen_copy(self, shape, rank):
        m = np.random.default_rng(17).standard_normal(shape)
        for x in (m, sparse.csr_array(np.where(np.abs(m) > 1.0, m, 0.0))):
            got = randomized_svd(x, rank, rng=np.random.default_rng(3))
            want = frozen_randomized_svd(x, rank, np.random.default_rng(3))
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestInitNodeFeatures:
    def test_passthrough_exact(self, triangle, rng):
        given = rng.standard_normal((3, 5))
        assert_allclose(init_node_features(triangle, 2, given=given), given)

    def test_triangle_matches_dense_oracle(self, triangle):
        x = svd_features(triangle.pack.adjacency, 2, rng=5)
        a = np.asarray(triangle.pack.adjacency.toarray())
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
