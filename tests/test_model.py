import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

from hyperemb import (
    ConfigError,
    DataError,
    ModelParams,
    VariantKind,
    build_hypergraph,
    build_operators,
    default_dims,
    export_embedding_set,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hyperemb import model
from hyperemb.model import ACTIVATION_TAGS, VARIANT_TAGS, activate, dependent_embeddings, spmm
from conftest import TRIANGLE_EDGES
from oracles import (
    dense_forward,
    dense_operators,
    finite_diff,
    oracle_activation,
    random_hypergraph,
    rel_err,
)


class TestVariantKind:
    def test_tags_canonicalized(self):
        v = VariantKind(tag="Base", sigma_v="TANH", sigma_e="gelu")
        assert v.tag == "base" and v.sigma_v == "tanh" and v.coupled

    def test_bad_tag(self):
        with pytest.raises(ConfigError, match="variant"):
            VariantKind(tag="bogus")

    def test_bad_activation(self):
        with pytest.raises(ConfigError, match="activation"):
            VariantKind(sigma_v="relu6")


class TestActivations:
    def test_values_match_oracle(self, rng):
        x = rng.standard_normal((6, 5)) * 2.0
        for tag in ACTIVATION_TAGS:
            value, _ = activate(tag, x)  # eval mode
            assert_allclose(value, oracle_activation(tag, x), atol=1e-12)

    def test_derivative_matches_finite_difference(self, rng):
        x = rng.standard_normal(40) * 2.0
        eps = 1e-6
        for tag in ACTIVATION_TAGS:
            _, deriv = activate(tag, x)
            up, _ = activate(tag, x + eps)
            down, _ = activate(tag, x - eps)
            assert rel_err(deriv, (up - down) / (2 * eps), floor=1e-4) < 1e-5

    def test_rrelu_training_is_seed_deterministic(self, rng):
        x = rng.standard_normal((4, 3))
        v1, d1 = activate("rrelu", x, rng=np.random.default_rng(7), training=True)
        v2, d2 = activate("rrelu", x, rng=np.random.default_rng(7), training=True)
        assert_allclose(v1, v2)
        assert_allclose(d1, d2)
        lo, hi = 1 / 8, 1 / 3
        neg = x < 0
        slopes = v1[neg] / x[neg]
        assert np.all((slopes > lo) & (slopes < hi))

    def test_rrelu_eval_uses_midpoint(self):
        x = np.array([-2.0, -1.0, 3.0])
        value, deriv = activate("rrelu", x)
        mid = (1 / 8 + 1 / 3) / 2
        assert_allclose(value, [-2 * mid, -mid, 3.0])
        assert_allclose(deriv, [mid, mid, 1.0])

    def test_rrelu_training_needs_rng(self):
        with pytest.raises(ConfigError, match="generator"):
            activate("rrelu", np.zeros(3), training=True)


class TestBuildOperators:
    def test_matches_dense_oracle_on_triangle(self, triangle):
        for tag in VARIANT_TAGS:
            ops = build_operators(triangle, tag)
            s_v, s_e, b_v, b_e = dense_operators(TRIANGLE_EDGES, 3, tag)
            assert_allclose(ops.s_v.toarray(), s_v, atol=1e-12)
            assert_allclose(ops.s_e.toarray(), s_e, atol=1e-12)
            if tag == "base":
                assert_allclose(ops.b_v.toarray(), b_v, atol=1e-12)
                assert_allclose(ops.b_e.toarray(), b_e, atol=1e-12)
            else:
                assert ops.b_v is None and ops.b_e is None

    def test_matches_dense_oracle_on_random_graphs(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            for tag in VARIANT_TAGS:
                ops = build_operators(g, tag)
                s_v, s_e, _, _ = dense_operators(edges, n, tag)
                assert_allclose(ops.s_v.toarray(), s_v, atol=1e-10)
                assert_allclose(ops.s_e.toarray(), s_e, atol=1e-10)

    def test_single_full_hyperedge_symmetry(self):
        g = build_hypergraph([(0, 1, 2, 3)], 4)
        ops = build_operators(g, "base")
        dense = np.asarray(ops.s_v.toarray())
        assert_allclose(dense, dense.flat[0])  # every entry equal

    def test_p2_scalar_identity(self):
        g = build_hypergraph([(0,)], 1)
        ops = build_operators(g, "p2")
        assert_allclose(ops.s_v.toarray(), [[3.0]])
        assert_allclose(ops.s_e.toarray(), [[3.0]])


@pytest.mark.usefixtures("chains_forced")
class TestBuildOperatorsChained(TestBuildOperators):
    """The dense oracles again, with every product applied as a chain."""


def _star(n):
    """One hyperedge over ``n`` nodes."""
    return build_hypergraph([tuple(range(n))], n)


class TestOperator:
    @pytest.mark.usefixtures("chains_forced")
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_chains_apply_like_their_product(self, rng, tag):
        for _ in range(5):
            edges, n = random_hypergraph(rng)
            ops = build_operators(build_hypergraph(edges, n), tag)
            for name in ("s_v", "s_e", "b_v", "b_e"):
                op = getattr(ops, name)
                if op is None:
                    continue
                assert all(len(term) > 1 for term in op.terms) or name.startswith("b_")
                dense = op.toarray()
                x = rng.standard_normal((op.shape[1], 3))
                xt = rng.standard_normal((op.shape[0], 3))
                assert_allclose(op @ x, dense @ x, atol=1e-10, err_msg=f"{tag} {name}")
                assert_allclose(op.T @ xt, dense.T @ xt, atol=1e-10, err_msg=f"{tag} {name}")
                assert_allclose(op.T.toarray(), dense.T, atol=1e-10)

    def test_stored_arrays_cover_every_factor(self, rng, chains_forced):
        edges, n = random_hypergraph(rng)
        ops = build_operators(build_hypergraph(edges, n), "plusplus")
        for op in (ops.s_v, ops.s_e):
            assert op.nnz == sum(f.nnz for term in op.terms for f in term)
            for name in ("data", "indices", "indptr"):
                arrays = [getattr(f, name) for term in op.terms for f in term]
                assert getattr(op, name).nbytes == sum(a.nbytes for a in arrays)

    def test_materialized_operator_is_its_csr(self, triangle):
        ops = build_operators(triangle, "p2")
        [[csr]] = ops.s_v.terms
        assert isinstance(csr, sparse.csr_array) and ops.s_v.nnz == csr.nnz
        assert ops.s_v.shape == csr.shape
        for name in ("data", "indices", "indptr"):
            assert getattr(ops.s_v, name) is getattr(csr, name)
        x = np.random.default_rng(0).standard_normal((3, 2))
        assert np.array_equal(ops.s_v @ x, csr @ x)
        assert np.array_equal(ops.s_v.T @ x, csr.T @ x)

    def test_plan_counts_on_a_star(self):
        # one hyperedge of n nodes: every two-hop product is n x n and full
        for n in (3, 10, 96, 97):
            g = _star(n)
            h = g.pack.h
            assert model._plan_counts((h, h.T)) == (n * n, (n + n) + (n + 1))
            assert model._plan_counts((h.T, h)) == (1, (n + 1) + (n + n))
            assert model._plan_counts((h,)) == (n, 2 * n)

    def test_plan_counts_bound_the_product(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            h = build_hypergraph(edges, n).pack.h
            for chain in ((h, h.T), (h.T, h), (h, h.T, h, h.T), (h.T, h, h.T)):
                product = chain[0]
                for f in chain[1:]:
                    product = product @ f
                bound, work = model._plan_counts(chain)
                assert product.nnz <= bound <= product.shape[0] * product.shape[1]
                assert work == sum(f.nnz + f.shape[0] for f in chain)

    @pytest.mark.parametrize("n, chained", [(96, False), (97, True)])
    def test_base_chains_from_ratio_16(self, n, chained):
        # base's S_v = (D^-1 H)(D^-1 H)^T (H De^-1)(D^-1 H De^-1)^T on the star:
        # bound n^2 against work 6n + 2 (4n nonzeros, 2n + 2 rows), so it chains
        # from n = 97 on
        assert model.CHAIN_MIN_RATIO == 16
        ops = build_operators(_star(n), "base")
        assert [len(term) for term in ops.s_v.terms] == ([4] if chained else [1])
        assert [len(term) for term in ops.b_v.terms] == [1]
        assert ops.s_v.nnz == (4 * n if chained else n * n)
        assert_allclose(ops.s_v.toarray(), 1.0 / n, atol=1e-12)

    def test_mixed_sum_puts_the_summed_csr_first(self, monkeypatch):
        # plusplus S_v = (D^-1 H) P_e (D^-1 H De^-1)^T + P on the star: the first
        # term's ratio is n^2 / (6n + 2) = 6.6 and P's n^2 / (3n + 1) = 13.2
        monkeypatch.setattr(model, "CHAIN_MIN_RATIO", 10)
        ops = build_operators(_star(40), "plusplus")
        assert [len(term) for term in ops.s_v.terms] == [1, 2]
        assert_allclose(ops.s_v.toarray(), 2.0 / 40, atol=1e-12)


def _csr(rng, rows, cols, nnz):
    a = sparse.random_array((rows, cols), density=nnz / (rows * cols), format="csr", rng=rng)
    a.data = rng.standard_normal(a.nnz)  # rows and columns of mixed sign
    return a


class TestSpmm:
    @pytest.mark.parametrize("width", [1, 7, 32])
    @pytest.mark.parametrize("above", [False, True])
    def test_equals_plain_product_for_csr_and_csc(self, rng, monkeypatch, pool_calls, width, above):
        monkeypatch.setattr(model, "SPMM_PARTS", 2)
        nnz = model.SPMM_SPLIT_MIN // width + 1000 if above else 2000
        a = _csr(rng, 3000, 2000, nnz)
        assert (a.nnz * width >= model.SPMM_SPLIT_MIN) == above
        for op in (a, a.T):
            x = rng.standard_normal((op.shape[1], width))
            got = spmm(op, x)
            assert got.shape == (op.shape[0], width) and got.dtype == np.float64
            assert np.array_equal(got, op @ x)
        # two products of two blocks each; a single column cannot be split
        assert len(pool_calls) == (4 if above and width > 1 else 0)

    @pytest.mark.parametrize("parts", [3, 5])
    def test_uneven_column_blocks(self, rng, monkeypatch, pool_calls, parts):
        monkeypatch.setattr(model, "SPMM_PARTS", parts)
        monkeypatch.setattr(model, "SPMM_SPLIT_MIN", 0)
        a = _csr(rng, 300, 200, 4000)
        for width in (2, 7, 32):
            for op in (a, a.T):
                x = rng.standard_normal((op.shape[1], width))
                assert np.array_equal(spmm(op, x), op @ x)
        assert len(pool_calls) == sum(2 * min(parts, width) for width in (2, 7, 32))

    def test_fill_bound_products_stay_whole(self, rng, monkeypatch, pool_calls):
        monkeypatch.setattr(model, "SPMM_PARTS", 2)
        # 7 nonzeros per output row, nnz x width above SPMM_SPLIT_MIN
        a = _csr(rng, 10_000, 2000, 70_000)
        x = rng.standard_normal((2000, 32))
        assert a.nnz * 32 >= model.SPMM_SPLIT_MIN
        assert np.array_equal(spmm(a, x), a @ x) and not pool_calls

    def test_dblp_shaped_products(self, monkeypatch):
        monkeypatch.setattr(model, "SPMM_PARTS", 2)
        # p2's S_v and S_e at dblp size, and their transposes, split
        assert model._split_parts(1_603_395, 43_413, 32) == 2
        assert model._split_parts(680_209, 22_535, 32) == 2
        # base's B_v = D^-1 H and B_e = (H De^-1)^T there, and their transposes, do not
        assert model._split_parts(71_564, 43_413, 32) == 1
        assert model._split_parts(71_564, 22_535, 32) == 1
        # nor does a product under SPMM_SPLIT_MIN, however dense its rows
        assert model._split_parts(10_787, 100, 32) == 1

    def test_one_cpu_never_uses_the_pool(self, rng, monkeypatch, pool_calls):
        monkeypatch.setattr(model, "SPMM_PARTS", 1)
        monkeypatch.setattr(model, "SPMM_SPLIT_MIN", 0)
        a = _csr(rng, 300, 200, 4000)
        x = rng.standard_normal((200, 32))
        assert np.array_equal(spmm(a, x), a @ x) and not pool_calls

    def test_concurrent_callers_share_the_pool(self, rng, monkeypatch):
        # more callers and parts than cores, with frequent thread switches
        monkeypatch.setattr(model, "SPMM_PARTS", 4)
        monkeypatch.setattr(model, "SPMM_SPLIT_MIN", 0)
        a = _csr(rng, 500, 400, 20000)
        xs = [rng.standard_normal((400, 16)) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as callers:
                futures = [callers.submit(lambda x: [spmm(a, x) for _ in range(20)], x) for x in xs]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for x, outs in zip(xs, results):
            want = a @ x
            assert all(np.array_equal(out, want) for out in outs)


    def test_parts_follow_a_one_thread_blas(self):
        assert model._spmm_parts(2, {}) == 1
        assert model._spmm_parts(2, {"OMP_NUM_THREADS": "1"}) == 2
        assert model._spmm_parts(2, {"OPENBLAS_NUM_THREADS": " ", "OMP_NUM_THREADS": "1"}) == 2
        # OpenBLAS reads its own variable first
        assert model._spmm_parts(2, {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}) == 1
        assert model._spmm_parts(4, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}) == 4
        assert model._spmm_parts(1, {"OPENBLAS_NUM_THREADS": "1"}) == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits_after_the_parent_did(self, rng, monkeypatch):
        monkeypatch.setattr(model, "SPMM_PARTS", 2)
        monkeypatch.setattr(model, "SPMM_SPLIT_MIN", 0)
        a = _csr(rng, 300, 200, 4000)
        x = rng.standard_normal((200, 8))
        want = a @ x
        assert np.array_equal(spmm(a, x), want)  # the parent's pool now has threads
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if np.array_equal(spmm(a, x), want) else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("spmm in a forked child hung")
        assert os.waitstatus_to_exitcode(done[1]) == 0


def seeded_params(dims_z, dims_y, variant, seed=0, **kw):
    return init_params(dims_z, dims_y, variant, rng=np.random.default_rng(seed), **kw)


class TestForward:
    def test_identity_weights_reduce_to_operator_product(self, triangle):
        # leaky-relu is the identity on nonnegative inputs; operators are
        # nonnegative, so nonnegative features stay nonnegative pre-activation.
        v = VariantKind(tag="p2", sigma_v="leaky-relu", sigma_e="leaky-relu")
        ops = build_operators(triangle, v)
        params = ModelParams(
            w=[np.eye(2)], w_e=[np.eye(2)], psi=np.zeros((4, 2))
        )
        z0 = np.abs(np.random.default_rng(0).standard_normal((3, 2)))
        y0 = np.abs(np.random.default_rng(1).standard_normal((3, 2)))
        state = forward(ops, params, z0, y0, v)
        assert_allclose(state.z_final, np.asarray(ops.s_v.toarray()) @ z0, atol=1e-12)
        assert_allclose(state.y_final, np.asarray(ops.s_e.toarray()) @ y0, atol=1e-12)

    def test_zero_weights_give_zero_outputs(self, triangle):
        for tag in ("base", "wt"):
            for act in ACTIVATION_TAGS:
                v = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
                ops = build_operators(triangle, v)
                params = ModelParams(
                    w=[np.zeros((2, 2))], w_e=[np.zeros((2, 2))], psi=np.zeros((4, 2))
                )
                z0 = np.random.default_rng(2).standard_normal((3, 2))
                state = forward(ops, params, z0, z0.copy(), v)
                assert_allclose(state.z_final, 0.0)
                assert_allclose(state.y_final, 0.0)

    def test_matches_dense_oracle(self, rng):
        for tag in VARIANT_TAGS:
            for act in ("tanh", "gelu", "selu"):
                edges, n = random_hypergraph(rng)
                g = build_hypergraph(edges, n)
                v = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
                dims = default_dims(3, 3, 2)
                params = seeded_params(*dims, v, seed=4)
                z0 = rng.standard_normal((n, 3))
                y0 = rng.standard_normal((len(edges), 3))
                state = forward(build_operators(g, v), params, z0, y0, v)
                z_ref, y_ref = dense_forward(
                    edges, n, params.w, params.w_e, z0, y0, tag, act, act
                )
                assert_allclose(state.z_final, z_ref, atol=1e-10)
                assert_allclose(state.y_final, y_ref, atol=1e-10)

    def test_triangle_base_two_layers_dense_oracle(self, triangle, rng):
        v = VariantKind()
        dims = default_dims(2, 2, 2)
        params = seeded_params(*dims, v, seed=9)
        z0 = rng.standard_normal((3, 2))
        y0 = rng.standard_normal((3, 2))
        state = forward(build_operators(triangle, v), params, z0, y0, v)
        z_ref, y_ref = dense_forward(
            TRIANGLE_EDGES, 3, params.w, params.w_e, z0, y0, "base", "tanh", "tanh"
        )
        assert_allclose(state.z_final, z_ref, atol=1e-10)
        assert_allclose(state.y_final, y_ref, atol=1e-10)

    def test_cross_stream_coupling_only_in_base(self, rng):
        edges, n = random_hypergraph(rng)
        g = build_hypergraph(edges, n)
        z0 = rng.standard_normal((n, 3))
        y0 = rng.standard_normal((len(edges), 3))
        for tag in VARIANT_TAGS:
            v = VariantKind(tag=tag)
            ops = build_operators(g, v)
            params = seeded_params(*default_dims(3, 3, 2), v, seed=1)
            with_y = forward(ops, params, z0, y0, v).z_final
            without_y = forward(ops, params, z0, np.zeros_like(y0), v).z_final
            if tag == "base":
                assert not np.allclose(with_y, without_y)
            else:
                assert_allclose(with_y, without_y)

    def test_dimension_mismatches_rejected(self, triangle):
        v = VariantKind(tag="p2")
        ops = build_operators(triangle, v)
        params = seeded_params(*default_dims(2, 2, 1), v)
        with pytest.raises(DataError, match="z0"):
            forward(ops, params, np.zeros((4, 2)), np.zeros((3, 2)), v)
        with pytest.raises(DataError, match="y0"):
            forward(ops, params, np.zeros((3, 2)), np.zeros((2, 2)), v)
        with pytest.raises(DataError, match="width"):
            forward(ops, params, np.zeros((3, 5)), np.zeros((3, 2)), v)
        with pytest.raises(ConfigError, match="operators built"):
            forward(ops, params, np.zeros((3, 2)), np.zeros((3, 2)), VariantKind(tag="wt"))

    def test_state_caches_complete(self, triangle):
        v = VariantKind()
        params = seeded_params(*default_dims(2, 2, 3), v)
        state = forward(build_operators(triangle, v), params, np.ones((3, 2)), np.ones((3, 2)), v)
        assert state.layers == 3
        assert len(state.z) == len(state.y) == 4
        assert_allclose(state.z[0], 1.0)  # inputs preserved

    def test_base_width_coupling_enforced(self):
        with pytest.raises(ConfigError, match="matching widths"):
            init_params([2, 3, 3], [4, 3, 3], VariantKind())


@pytest.mark.usefixtures("chains_forced")
class TestForwardChained(TestForward):
    """The forward checks again, with every product applied as a chain."""


class TestDependentEmbedding:
    def test_identity_projection_recovers_concat(self):
        v = VariantKind(sigma_v="leaky-relu")
        params = ModelParams(w=[], w_e=[], psi=np.eye(5))
        z_i = np.array([0.5, 1.0, 0.0])
        y_e = np.array([2.0, 3.0])
        out = dependent_embeddings(z_i, y_e, params, v)
        assert_allclose(out, [[0.5, 1.0, 0.0, 2.0, 3.0]])

    def test_distinct_hyperedges_give_distinct_embeddings(self, rng):
        v = VariantKind(sigma_v="tanh")
        params = ModelParams(w=[], w_e=[], psi=rng.standard_normal((4, 3)))
        z_i = rng.standard_normal(2)
        y1, y2 = rng.standard_normal(2), rng.standard_normal(2)
        e1 = dependent_embeddings(z_i, y1, params, v)
        e2 = dependent_embeddings(z_i, y2, params, v)
        assert not np.allclose(e1, e2)

    def test_matches_dense_oracle(self, rng):
        v = VariantKind(sigma_v="gelu")
        psi = rng.standard_normal((6, 4))
        params = ModelParams(w=[], w_e=[], psi=psi)
        z_i = rng.standard_normal(4)
        y_e = rng.standard_normal(2)
        expected = oracle_activation("gelu", np.concatenate([z_i, y_e]) @ psi)
        got = dependent_embeddings(z_i, y_e, params, v)
        assert_allclose(got, expected[np.newaxis, :], atol=1e-12)

    def test_dim_mismatch_rejected(self, rng):
        params = ModelParams(w=[], w_e=[], psi=rng.standard_normal((5, 2)))
        with pytest.raises(DataError, match="psi"):
            dependent_embeddings(np.zeros(2), np.zeros(2), params, VariantKind())


class TestExportEmbeddingSet:
    @pytest.fixture
    def fitted(self, triangle):
        v = VariantKind()
        params = seeded_params(*default_dims(2, 2, 2), v, seed=3)
        state = forward(
            build_operators(triangle, v), params,
            np.random.default_rng(5).standard_normal((3, 2)),
            np.random.default_rng(6).standard_normal((3, 2)),
            v,
        )
        return triangle, state, params, v

    def test_rows_equal_hyperedge_degree(self, fitted):
        g, state, params, v = fitted
        for node in range(g.num_nodes):
            mat = export_embedding_set(g, state, params, node, v)
            assert mat.shape == (len(g.node_edges[node]), params.psi.shape[1])

    def test_total_rows_equal_incidences(self, fitted):
        g, state, params, v = fitted
        total = sum(
            export_embedding_set(g, state, params, node, v).shape[0]
            for node in range(g.num_nodes)
        )
        assert total == g.num_incidences

    def test_rows_match_per_call_oracle(self, fitted):
        g, state, params, v = fitted
        mat = export_embedding_set(g, state, params, 1, v)  # node 1 in all 3 edges
        assert mat.shape[0] == 3
        for row, edge in zip(mat, g.node_edges[1]):
            single = dependent_embeddings(
                state.z_final[1], state.y_final[edge], params, v
            )
            assert_allclose(row, single[0], atol=1e-12)

    def test_zero_edge_node_empty(self):
        g = build_hypergraph([(0, 1)], 3)
        v = VariantKind(tag="wt")
        params = seeded_params(*default_dims(2, 2, 1), v)
        state = forward(build_operators(g, v), params, np.ones((3, 2)), np.ones((1, 2)), v)
        mat = export_embedding_set(g, state, params, 2, v)
        assert mat.shape == (0, params.psi.shape[1])

    def test_bad_node_rejected(self, fitted):
        g, state, params, v = fitted
        with pytest.raises(DataError, match="outside"):
            export_embedding_set(g, state, params, 7, v)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        v = VariantKind()
        params = seeded_params(*default_dims(3, 3, 2), v, seed=8, n_classes=4)
        meta = {"variant": "base", "layers": 2, "note": "round-trip"}
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, meta)
        loaded, loaded_meta = load_checkpoint(path)
        assert loaded_meta == meta
        for (name_a, a), (name_b, b) in zip(params.named_arrays(), loaded.named_arrays()):
            assert name_a == name_b
            assert a.tobytes() == b.tobytes()  # bit-exact

    def test_headless_round_trip(self, tmp_path):
        v = VariantKind(tag="h2")
        params = seeded_params(*default_dims(2, 2, 1), v)
        path = tmp_path / "m.npz"
        save_checkpoint(path, params)
        loaded, meta = load_checkpoint(path)
        assert loaded.head is None
        assert meta == {}

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.asarray(9), layer_count=np.asarray(0),
                 psi=np.zeros((2, 2)), meta_json=np.frombuffer(b"{}", dtype=np.uint8))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
