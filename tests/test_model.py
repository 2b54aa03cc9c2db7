import dataclasses
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
    ForwardInputs,
    ModelParams,
    VariantKind,
    build_hypergraph,
    build_operators,
    default_dims,
    forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from hyperemb import model
from hyperemb.hypergraph import FlatSets
from hyperemb.model import ACTIVATION_TAGS, VARIANT_TAGS, activate, row_blocks, spmm
from hyperemb.training import backward, dependent_embeddings
from conftest import TRIANGLE_EDGES, stored
from oracles import (
    dense_forward,
    dense_operators,
    finite_diff,
    full_backward,
    oracle_activation,
    random_hypergraph,
    rel_err,
    ringed_hypergraph,
    whole_activation,
    whole_forward,
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

    def test_rrelu_slopes_follow_their_nodes(self, rng):
        x = rng.standard_normal((6, 3))
        order = np.array([4, 0, 5, 2, 1, 3])
        want = activate("rrelu", x, rng=np.random.default_rng(7), training=True)
        got = activate("rrelu", x[order], rng=np.random.default_rng(7), training=True, order=order)
        for a, b in zip(got, want):
            assert np.array_equal(a, b[order])

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
            if tag == "base":
                assert_allclose(ops.s_e.toarray(), s_e, atol=1e-12)
                assert_allclose(ops.b_v.toarray(), b_v, atol=1e-12)
                assert_allclose(ops.b_e.toarray(), b_e, atol=1e-12)
            else:  # a decoupled variant has no Y stream
                assert ops.s_e is None and ops.b_v is None and ops.b_e is None

    def test_matches_dense_oracle_on_random_graphs(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            for tag in VARIANT_TAGS:
                ops = build_operators(g, tag)
                s_v, s_e, _, _ = dense_operators(edges, n, tag)
                assert_allclose(ops.s_v.toarray(), s_v, atol=1e-10)
                if tag == "base":
                    assert_allclose(ops.s_e.toarray(), s_e, atol=1e-10)
                else:
                    assert ops.s_e is None

    def test_single_full_hyperedge_symmetry(self):
        g = build_hypergraph([(0, 1, 2, 3)], 4)
        ops = build_operators(g, "base")
        dense = np.asarray(ops.s_v.toarray())
        assert_allclose(dense, dense.flat[0])  # every entry equal

    def test_p2_scalar_identity(self):
        g = build_hypergraph([(0,)], 1)
        ops = build_operators(g, "p2")
        assert_allclose(ops.s_v.toarray(), [[3.0]])
        assert ops.s_e is None


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
        g = build_hypergraph(edges, n)
        for op in (build_operators(g, "plusplus").s_v, build_operators(g, "base").s_e):
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


def seeded_params(dims, variant, seed=0, **kw):
    return init_params(dims, variant, rng=np.random.default_rng(seed), **kw)


class TestForward:
    def test_identity_weights_reduce_to_operator_product(self, triangle):
        # leaky-relu is the identity on nonnegative inputs; operators are
        # nonnegative, so nonnegative features stay nonnegative pre-activation.
        v = VariantKind(tag="p2", sigma_v="leaky-relu", sigma_e="leaky-relu")
        ops = build_operators(triangle, v)
        params = ModelParams(
            w=[np.eye(2)], w_e=[], psi=np.zeros((4, 2))
        )
        z0 = np.abs(np.random.default_rng(0).standard_normal((3, 2)))
        state = forward(ops, params, ForwardInputs(ops, z0), v)
        want = np.asarray(ops.s_v.toarray()) @ stored(ops, z0)
        assert_allclose(stored(ops, state.z_final), want, atol=1e-12)
        assert state.y == []

    def test_zero_weights_give_zero_outputs(self, triangle):
        for tag in ("base", "wt"):
            for act in ACTIVATION_TAGS:
                v = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
                ops = build_operators(triangle, v)
                params = ModelParams(
                    w=[np.zeros((2, 2))] * 2, w_e=[np.zeros((2, 2))] * v.coupled, psi=np.zeros((4, 2))
                )
                z0 = np.random.default_rng(2).standard_normal((3, 2))
                state = forward(ops, params, ForwardInputs(ops, z0, z0.copy()), v)
                assert_allclose(state.z_final, 0.0)
                if v.coupled:
                    assert_allclose(state.y[-1], 0.0)
                else:
                    assert state.y == []

    def test_matches_dense_oracle(self, rng):
        for tag in VARIANT_TAGS:
            for act in ("tanh", "gelu", "selu"):
                edges, n = random_hypergraph(rng)
                g = build_hypergraph(edges, n)
                v = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
                dims = default_dims(3, 2)
                params = seeded_params(dims, v, seed=4)
                z0 = rng.standard_normal((n, 3))
                y0 = rng.standard_normal((len(edges), 3))
                ops = build_operators(g, v)
                state = forward(ops, params, ForwardInputs(ops, z0, y0), v)
                z_ref, y_ref = dense_forward(edges, n, params.w, params.w_e, z0, y0, tag, act, act)
                # only base has a Y stream, and it runs up to Y(L-1), the last Y its Z update reads
                assert_allclose(state.z_final, z_ref, atol=1e-10)
                if v.coupled:
                    assert_allclose(state.y[-1], y_ref, atol=1e-10)
                    assert len(state.y) == 2 and len(state.agg_y) == len(state.deriv_y) == 1
                else:
                    assert state.y == state.agg_y == state.deriv_y == []

    def test_triangle_base_two_layers_dense_oracle(self, triangle, rng):
        v = VariantKind()
        dims = default_dims(2, 2)
        params = seeded_params(dims, v, seed=9)
        z0 = rng.standard_normal((3, 2))
        y0 = rng.standard_normal((3, 2))
        ops = build_operators(triangle, v)
        state = forward(ops, params, ForwardInputs(ops, z0, y0), v)
        z_ref, y_ref = dense_forward(TRIANGLE_EDGES, 3, params.w, params.w_e, z0, y0, "base", "tanh", "tanh")
        assert_allclose(state.z_final, z_ref, atol=1e-10)
        assert_allclose(state.y[-1], y_ref, atol=1e-10)
        # the oracle takes W_e(0..L-2) alone, rather than stopping its layer loop at the shorter list
        for w_e in ([], params.w_e * 2):
            with pytest.raises(ValueError, match="W_e"):
                dense_forward(TRIANGLE_EDGES, 3, params.w, w_e, z0, y0, "base", "tanh", "tanh")

    def test_cross_stream_coupling_only_in_base(self, rng):
        edges, n = random_hypergraph(rng)
        g = build_hypergraph(edges, n)
        z0 = rng.standard_normal((n, 3))
        y0 = rng.standard_normal((len(edges), 3))
        for tag in VARIANT_TAGS:
            v = VariantKind(tag=tag)
            ops = build_operators(g, v)
            params = seeded_params(default_dims(3, 2), v, seed=1)
            with_y = forward(ops, params, ForwardInputs(ops, z0, y0), v).z_final
            without_y = forward(ops, params, ForwardInputs(ops, z0, np.zeros_like(y0)), v).z_final
            if tag == "base":
                assert not np.allclose(with_y, without_y)
            else:
                assert_allclose(with_y, without_y)

    def test_dimension_mismatches_rejected(self, triangle):
        # shapes of Z(0) and Y(0) alone are checked where the inputs are built,
        # their fit to the weights and the variant where forward reads them
        v = VariantKind()
        ops = build_operators(triangle, v)
        params = seeded_params(default_dims(2, 1), v)
        with pytest.raises(DataError, match="z0"):
            ForwardInputs(ops, np.zeros((4, 2)), np.zeros((3, 2)))
        with pytest.raises(DataError, match="y0"):
            ForwardInputs(ops, np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(DataError, match="width"):
            ForwardInputs(ops, np.zeros((3, 5)), np.zeros((3, 2)))
        with pytest.raises(DataError, match=r"W\(0\) input dim"):
            forward(ops, params, ForwardInputs(ops, np.zeros((3, 5)), np.zeros((3, 5))), v)
        with pytest.raises(DataError, match="y0 width"):
            ForwardInputs(ops, np.zeros((3, 2)), np.zeros((3, 5)))
        with pytest.raises(DataError, match="y0"):
            ForwardInputs(ops, np.zeros((3, 2)))  # base needs Y(0)
        inputs = ForwardInputs(ops, np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ConfigError, match="operators built"):
            forward(ops, params, inputs, VariantKind(tag="wt"))
        with pytest.raises(ConfigError, match="other operators"):
            forward(build_operators(triangle, v), params, inputs, v)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_only_read_w_e_accepted(self, triangle, tag):
        # base reads W_e(0..L-2) and a decoupled variant none; forward refuses any other count
        v = VariantKind(tag=tag)
        ops = build_operators(triangle, v)
        inputs = ForwardInputs(ops, np.ones((3, 2)), np.ones((3, 2)))
        params = seeded_params(default_dims(2, 2), v)
        assert len(params.w_e) == (1 if v.coupled else 0)
        for extra in ([np.eye(2)], [np.eye(2)] * 2):
            wrong = dataclasses.replace(params, w_e=params.w_e + extra)
            with pytest.raises(DataError, match="W_e"):
                forward(ops, wrong, inputs, v)
        if v.coupled:
            with pytest.raises(DataError, match="W_e"):
                forward(ops, dataclasses.replace(params, w_e=[]), inputs, v)

    def test_state_caches_complete(self, triangle):
        v = VariantKind()
        params = seeded_params(default_dims(2, 3), v)
        ops = build_operators(triangle, v)
        state = forward(ops, params, ForwardInputs(ops, np.ones((3, 2)), np.ones((3, 2))), v)
        assert state.layers == len(state.y) == 3
        assert len(state.z) == 4 and len(state.agg_y) == len(state.deriv_y) == 2
        assert_allclose(state.z[0], 1.0)  # inputs preserved

    def test_base_width_coupling_enforced(self):
        with pytest.raises(ConfigError, match="one width throughout"):
            init_params([2, 3, 3], VariantKind())


@pytest.mark.usefixtures("chains_forced")
class TestForwardChained(TestForward):
    """The forward checks again, with every product applied as a chain."""


@pytest.mark.usefixtures("reorder_forced")
class TestForwardReordered(TestForward):
    """The forward checks again, with nodes in reverse Cuthill-McKee order."""


class TestForwardInputs:
    """Z(0), Y(0) and the layer-0 products that every forward on them shares."""

    @staticmethod
    def built(tag, seed=3):
        edges, n = random_hypergraph(np.random.default_rng(seed))
        g = build_hypergraph(edges, n)
        v = VariantKind(tag=tag)
        ops = build_operators(g, v)
        feat_rng = np.random.default_rng(seed + 1)
        z0 = feat_rng.standard_normal((n, 3))
        y0 = feat_rng.standard_normal((len(edges), 3))
        return v, ops, z0, y0

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_products_equal_the_layer_zero_expressions(self, tag):
        v, ops, z0, y0 = self.built(tag)
        inputs = ForwardInputs(ops, z0, y0)
        z0 = stored(ops, z0)
        if v.coupled:
            assert np.array_equal(inputs.agg_z0, ops.s_v @ z0 + ops.b_v @ y0)
            assert np.array_equal(inputs.s_e_y0, ops.s_e @ y0)
            assert np.array_equal(inputs.y0, y0)
        else:
            assert np.array_equal(inputs.agg_z0, ops.s_v @ z0)
            assert inputs.y0 is None  # no Y stream to feed
        assert np.array_equal(inputs.z0, z0)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_writing_to_a_layer_zero_array_raises(self, tag):
        v, ops, z0, y0 = self.built(tag)
        inputs = ForwardInputs(ops, z0, y0)
        arrays = [inputs.z0, inputs.agg_z0]
        if v.coupled:
            arrays += [inputs.y0, inputs.s_e_y0]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 1.0
        # the caller's own arrays stay writable
        z0[0, 0] = y0[0, 0] = 1.0

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_every_forward_reads_the_same_products(self, tag):
        v, ops, z0, y0 = self.built(tag)
        params = seeded_params(default_dims(3, 2), v, seed=2)
        inputs = ForwardInputs(ops, z0, y0)
        runs = [forward(ops, params, inputs, v, rng=np.random.default_rng(0), training=True),
                forward(ops, params, inputs, v)]
        for state in runs:
            assert state.z[0] is inputs.z0 and state.agg_z[0] is inputs.agg_z0
            if v.coupled:
                assert state.y[0] is inputs.y0
        # and give the floats that fresh inputs give
        fresh = forward(ops, params, ForwardInputs(ops, z0.copy(), y0.copy()), v)
        for got, want in zip(runs[1].z + runs[1].agg_z + runs[1].y + runs[1].agg_y,
                             fresh.z + fresh.agg_z + fresh.y + fresh.agg_y):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_bad_shapes_rejected(self, tag):
        v, ops, z0, y0 = self.built(tag)
        n, m = z0.shape[0], y0.shape[0]
        with pytest.raises(DataError, match="z0"):
            ForwardInputs(ops, np.zeros((n + 1, 3)), y0)
        with pytest.raises(DataError, match="z0"):
            ForwardInputs(ops, np.zeros(n), y0)
        params = seeded_params(default_dims(3, 1), v)
        with pytest.raises(DataError, match=r"W\(0\) input dim"):
            forward(ops, params, ForwardInputs(ops, np.zeros((n, 5)), np.zeros((m, 5))), v)
        bad_y0 = [np.zeros((m + 1, 3)), np.zeros((m, 5)), np.zeros(m), None]
        for y in bad_y0:
            if v.coupled:
                with pytest.raises(DataError, match="y0"):
                    ForwardInputs(ops, z0, y)
            else:
                assert ForwardInputs(ops, z0, y).y0 is None


@pytest.mark.usefixtures("chains_forced")
class TestForwardInputsChained(TestForwardInputs):
    """The inputs checks again, with every product applied as a chain."""


@pytest.mark.usefixtures("reorder_forced")
class TestForwardInputsReordered(TestForwardInputs):
    """The inputs checks again, with nodes in reverse Cuthill-McKee order."""

    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_z0_is_a_gathered_copy(self, tag):
        v, ops, z0, y0 = self.built(tag)
        inputs = ForwardInputs(ops, z0, y0)
        assert not np.shares_memory(inputs.z0, z0)
        assert np.array_equal(inputs.z0, z0[ops.order])


class TestNodeOrder:
    """Graphs from ``REORDER_MIN_NODES`` nodes on run in reverse Cuthill-McKee order."""

    def test_gate_counts_nodes(self, monkeypatch):
        # a width-32 float64 operand of 16,384 rows is 4 MiB; citeseer size stays below
        assert model.REORDER_MIN_NODES == 16_384 > 3327
        edges, n = ringed_hypergraph(0)
        g = build_hypergraph(edges, n)
        monkeypatch.setattr(model, "REORDER_MIN_NODES", n + 1)
        assert all(build_operators(g, tag).order is None for tag in VARIANT_TAGS)
        monkeypatch.setattr(model, "REORDER_MIN_NODES", n)
        for tag in VARIANT_TAGS:
            order = build_operators(g, tag).order
            assert np.array_equal(np.sort(order), np.arange(n))
            assert not np.array_equal(order, np.arange(n))

    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_below_the_gate_the_operators_are_the_node_order_ones(self, monkeypatch, tag, chained):
        if chained:
            monkeypatch.setattr(model, "CHAIN_MIN_RATIO", 0)
        g = build_hypergraph(*ringed_hypergraph(1))
        ops, natural = build_operators(g, tag), model._operators(g, tag)
        assert ops.order is None
        for name in ("s_v", "s_e", "b_v", "b_e"):
            got, want = getattr(ops, name), getattr(natural, name)
            if want is None:
                assert got is None
                continue
            assert [len(t) for t in got.terms] == [len(t) for t in want.terms]
            for a, b in zip(got.factors, want.factors):
                assert a.format == b.format and a.shape == b.shape
                for arr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(a, arr), getattr(b, arr)), (name, arr)

    @pytest.mark.usefixtures("reorder_forced")
    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_relabelled_operators_are_p_s_pt(self, monkeypatch, tag, chained):
        if chained:
            monkeypatch.setattr(model, "CHAIN_MIN_RATIO", 0)
        for seed in range(3):
            edges, n = ringed_hypergraph(seed)
            ops = build_operators(build_hypergraph(edges, n), tag)
            o = ops.order
            s_v, s_e, b_v, b_e = dense_operators(edges, n, tag)
            assert_allclose(ops.s_v.toarray(), s_v[np.ix_(o, o)], atol=1e-10)
            assert_allclose(ops.s_v.T.toarray(), s_v[np.ix_(o, o)].T, atol=1e-10)
            if tag == "base":
                assert_allclose(ops.s_e.toarray(), s_e, atol=1e-10)
                assert_allclose(ops.b_v.toarray(), b_v[o], atol=1e-10)
                assert_allclose(ops.b_e.toarray(), b_e[:, o], atol=1e-10)

    @pytest.mark.usefixtures("reorder_forced")
    def test_rows_move_whole_and_columns_are_not_resorted(self):
        edges, n = ringed_hypergraph(2)
        g = build_hypergraph(edges, n)
        ops, natural = build_operators(g, "p2"), model._operators(g, "p2")
        [[got]], [[want]] = ops.s_v.terms, natural.s_v.terms
        want = want[ops.order]
        assert np.array_equal(got.indptr, want.indptr) and np.array_equal(got.data, want.data)
        assert np.array_equal(ops.order[got.indices], want.indices)
        assert not got.has_sorted_indices  # each row keeps its node-order summation order

    @pytest.mark.parametrize("chained", [False, True])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_forward_is_bit_identical_to_node_order(self, monkeypatch, tag, layers, chained):
        if chained:
            monkeypatch.setattr(model, "CHAIN_MIN_RATIO", 0)
        edges, n = ringed_hypergraph(layers)
        g = build_hypergraph(edges, n)
        feat = np.random.default_rng(layers + 10)
        z0, y0 = feat.standard_normal((n, 4)), feat.standard_normal((len(edges), 4))
        for act in ACTIVATION_TAGS:
            v = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
            params = seeded_params(default_dims(4, layers), v, seed=layers)
            runs = []
            for gate in (n + 1, 0):
                monkeypatch.setattr(model, "REORDER_MIN_NODES", gate)
                ops = build_operators(g, v)
                inputs = ForwardInputs(ops, z0, y0)
                train_rng = np.random.default_rng(5)
                runs.append((ops, [forward(ops, params, inputs, v),
                                   forward(ops, params, inputs, v, rng=train_rng, training=True)]))
            (natural_ops, natural), (ops, reordered) = runs
            assert natural_ops.order is None and ops.order is not None
            for want, got in zip(natural, reordered):
                assert np.array_equal(got.z_final, want.z_final), act
                # every cached node-indexed array is the node-order one in storage order
                for name in ("agg_z", "deriv_z"):
                    for a, b in zip(getattr(got, name), getattr(want, name)):
                        assert np.array_equal(a, b[ops.order]), (act, name)
                for a, b in zip(got.z[:-1], want.z[:-1]):
                    assert np.array_equal(a, b[ops.order]), act
                for name in ("y", "agg_y", "deriv_y"):
                    for a, b in zip(getattr(got, name), getattr(want, name)):
                        assert np.array_equal(a, b), (act, name)


def _block_rows(width):
    """Rows of one full row block at ``width`` columns."""
    return model.ROW_BLOCK // width


def _row_counts(width):
    """One row, one row short of a block, one block, one row over, and several blocks."""
    block = _block_rows(width)
    return [1, block - 1, block, block + 1, 3 * block + 5]


def _laced_graph(n):
    """n nodes in n hyperedges {i, i+1, i+7} (mod n), so the Y stream has Z's row count."""
    if n == 1:
        return build_hypergraph([(0,)], 1)
    return build_hypergraph([(i, (i + 1) % n, (i + 7) % n) for i in range(n)], n)


def _spiky(rng, shape):
    """Normal draws with exact zeros, ties and large magnitudes mixed in."""
    x = rng.standard_normal(shape) * 3.0
    x.flat[::5] = 0.0
    x.flat[3::11] = 40.0
    x.flat[4::13] = -40.0
    return x


class TestRowBlocks:
    """Row-wise work cut into ``ROW_BLOCK``-sized row blocks gives the whole-array floats."""

    @pytest.mark.parametrize("width", [1, 7, 32, model.ROW_BLOCK + 1])
    def test_blocks_tile_the_rows_evenly(self, width):
        for rows in [0, 1, 2, 1023, 1024, 1025, 5000]:
            blocks = row_blocks(rows, width)
            assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
            if not rows:
                assert blocks == []
                continue
            assert blocks[0][0] == 0 and blocks[-1][1] == rows
            sizes = {hi - lo for lo, hi in blocks}
            assert max(sizes) - min(sizes) <= 1
            cap = max(1, model.ROW_BLOCK // width)
            assert max(sizes) <= cap and len(blocks) == -(-rows // cap)

    @pytest.mark.parametrize("width", [7, 32])
    @pytest.mark.parametrize("tag", ACTIVATION_TAGS)
    def test_activation_equals_the_whole_array_expressions(self, tag, width):
        rng = np.random.default_rng(width)
        for rows in _row_counts(width):
            x = _spiky(rng, (rows, width))
            for training in (False, True):
                got_rng, want_rng = np.random.default_rng(rows), np.random.default_rng(rows)
                order = rng.permutation(rows)
                got = activate(tag, x, got_rng, training, order)
                want = whole_activation(tag, x, want_rng, training, order)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (rows, training)
                # rrelu draws its slopes whole, so the generator moves on the same stream
                assert got_rng.random() == want_rng.random()

    def test_activation_leaves_its_input_alone(self, rng):
        x = _spiky(rng, (3 * _block_rows(4) + 1, 4))
        kept = x.copy()
        for tag in ACTIVATION_TAGS:
            activate(tag, x)
            assert np.array_equal(x, kept), tag

    def test_blocks_run_on_the_calling_thread(self, monkeypatch, pool_calls):
        # two threads gained nothing on this dense work, so only spmm's split uses the pool
        monkeypatch.setattr(model, "SPMM_PARTS", 2)
        monkeypatch.setattr(model, "SPMM_SPLIT_MIN", 10**18)
        rows = 3 * _block_rows(8) + 5
        g = _laced_graph(rows)
        v = VariantKind(tag="base", sigma_v="gelu", sigma_e="rrelu")
        ops = build_operators(g, v)
        feat = np.random.default_rng(0)
        inputs = ForwardInputs(ops, feat.standard_normal((rows, 8)), feat.standard_normal((rows, 8)))
        st = forward(ops, seeded_params(default_dims(8, 2), v), inputs, v, rng=feat, training=True)
        assert len(row_blocks(rows, 8)) == 4 and st.z_final.shape == (rows, 8) and not pool_calls

    @pytest.mark.parametrize("gate", [10**9, 0], ids=["node-order", "reordered"])
    @pytest.mark.parametrize("parts", [1, 2])
    @pytest.mark.parametrize("act", ACTIVATION_TAGS)
    def test_forward_and_backward_equal_the_whole_array_expressions(self, monkeypatch, act, parts, gate):
        monkeypatch.setattr(model, "REORDER_MIN_NODES", gate)
        monkeypatch.setattr(model, "SPMM_PARTS", parts)
        monkeypatch.setattr(model, "SPMM_SPLIT_MIN", 0)
        width = 32
        for rows in _row_counts(width):
            g = _laced_graph(rows)
            feat = np.random.default_rng(rows)
            z0, y0 = feat.standard_normal((rows, width)), feat.standard_normal((rows, width))
            d_z = feat.standard_normal((rows, width))
            for tag in ("base", "p2"):
                v = VariantKind(tag=tag, sigma_v=act, sigma_e=act)
                params = seeded_params(default_dims(width, 3), v, seed=rows)
                ops = build_operators(g, v)
                inputs = ForwardInputs(ops, z0, y0)
                for training in (False, True):
                    got_rng, want_rng = np.random.default_rng(1), np.random.default_rng(1)
                    got = forward(ops, params, inputs, v, rng=got_rng, training=training)
                    want = whole_forward(ops, params, inputs, v, rng=want_rng, training=training)
                    for name, arrays in want.items():
                        held = getattr(got, name)
                        assert len(held) == len(arrays), (rows, tag, name)
                        for k, (a, b) in enumerate(zip(held, arrays)):
                            assert np.array_equal(a, b), (rows, tag, training, name, k)
                    assert got_rng.random() == want_rng.random()
                grads = backward(got, ops, params, d_z)
                want_w, want_we = full_backward(got, ops, params, d_z)
                for a, b in zip(grads.w + grads.w_e, want_w + want_we):
                    assert np.array_equal(a, b), (rows, tag)


class TestCompactFactors:
    """Every stored factor's arrays own exactly its nonzeros, summed ones included."""

    @pytest.mark.parametrize("gate", [10**9, 0], ids=["node-order", "reordered"])
    @pytest.mark.parametrize("tag", VARIANT_TAGS)
    def test_every_factor_owns_exactly_nnz_slots(self, monkeypatch, tag, gate):
        monkeypatch.setattr(model, "REORDER_MIN_NODES", gate)
        ops = build_operators(build_hypergraph(*ringed_hypergraph(1)), tag)
        for name in ("s_v", "s_e", "b_v", "b_e"):
            op = getattr(ops, name)
            for f in [] if op is None else op.factors:
                for a in (f.data, f.indices):
                    assert (a if a.base is None else a.base).size == f.nnz, (name, f.format)


def _embed(z, sets, psi, sigma="tanh"):
    """Eval-mode dependent embeddings of every member of ``sets``."""
    params = ModelParams(w=[], w_e=[], psi=psi)
    return dependent_embeddings(z, FlatSets.of(sets), params, VariantKind(sigma_v=sigma), None, False)[0]


class TestDependentEmbedding:
    def test_identity_projection_recovers_concat(self):
        z = np.array([[0.5, 1.0], [1.5, 0.0], [9.0, 9.0]])
        out = _embed(z, [(0, 1)], np.eye(4), "leaky-relu")
        assert_allclose(out, [[0.5, 1.0, 1.0, 0.5], [1.5, 0.0, 1.0, 0.5]])

    def test_distinct_hyperedges_give_distinct_embeddings(self, rng):
        z = rng.standard_normal((3, 2))
        out = _embed(z, [(0, 1), (0, 2)], rng.standard_normal((4, 3)))
        assert not np.allclose(out[0], out[2])  # node 0 in each hyperedge

    def test_matches_dense_oracle(self, rng):
        z = rng.standard_normal((6, 3))
        psi = rng.standard_normal((6, 4))
        sets = [(0, 2, 5), (1, 2), (3,), (0, 1, 3, 4)]
        got = _embed(z, sets, psi, "gelu")
        expected = [oracle_activation("gelu", np.concatenate([z[i], z[list(e)].mean(axis=0)]) @ psi)
                    for e in sets for i in e]
        assert_allclose(got, expected, atol=1e-12)

    def test_dim_mismatch_rejected(self, rng):
        with pytest.raises(DataError, match="psi"):
            _embed(np.zeros((2, 2)), [(0, 1)], rng.standard_normal((5, 2)))


class TestExportEmbeddingSet:
    """The rows ``embed`` writes: dependent embeddings over a graph's own hyperedges."""

    @pytest.fixture
    def fitted(self, triangle):
        v = VariantKind()
        params = seeded_params(default_dims(2, 2), v, seed=3)
        ops = build_operators(triangle, v)
        inputs = ForwardInputs(
            ops,
            np.random.default_rng(5).standard_normal((3, 2)),
            np.random.default_rng(6).standard_normal((3, 2)),
        )
        state = forward(ops, params, inputs, v)
        rows, _, _ = dependent_embeddings(state.z_final, triangle.edges, params, v, None, False)
        return triangle, state, params, v, rows

    def test_rows_equal_hyperedge_degree(self, fitted):
        g, _, params, _, rows = fitted
        for node in range(g.num_nodes):
            mine = g.edges.idx == node
            assert rows[mine].shape == (len(g.node_edges[node]), params.psi.shape[1])
            assert np.array_equal(g.edges.owner[mine], g.node_edges[node])

    def test_total_rows_equal_incidences(self, fitted):
        g, _, _, _, rows = fitted
        assert rows.shape[0] == g.num_incidences

    def test_rows_match_per_call_oracle(self, fitted):
        # one batched call over every hyperedge equals one call per hyperedge, bit for bit
        g, state, params, v, rows = fitted
        mine = np.flatnonzero(g.edges.idx == 1)  # node 1 in all 3 edges
        assert mine.size == 3
        for r, edge in zip(mine, g.node_edges[1]):
            single, _, _ = dependent_embeddings(
                state.z_final, FlatSets.of([g.edges[edge]]), params, v, None, False
            )
            assert np.array_equal(rows[r], single[list(g.edges[edge]).index(1)])

    def test_zero_edge_node_empty(self):
        g = build_hypergraph([(0, 1)], 3)
        v = VariantKind(tag="wt")
        params = seeded_params(default_dims(2, 1), v)
        ops = build_operators(g, v)
        state = forward(ops, params, ForwardInputs(ops, np.ones((3, 2))), v)
        rows, _, _ = dependent_embeddings(state.z_final, g.edges, params, v, None, False)
        assert rows.shape == (2, params.psi.shape[1])
        assert 2 not in g.edges.idx

    def test_bad_node_rejected(self, fitted):
        _, state, params, v, _ = fitted
        with pytest.raises(DataError, match="outside"):
            dependent_embeddings(state.z_final, FlatSets.of([(0, 7)]), params, v, None, False)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        v = VariantKind()
        params = seeded_params(default_dims(3, 2), v, seed=8, n_classes=4)
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
        params = seeded_params(default_dims(2, 1), v)
        path = tmp_path / "m.npz"
        save_checkpoint(path, params)
        loaded, meta = load_checkpoint(path)
        assert loaded.head is None
        assert meta == {}

    @pytest.mark.parametrize("tag", ["base", "p2"])
    def test_meta_without_variant_loads_the_stored_w_e(self, tmp_path, tag):
        params = seeded_params(default_dims(3, 3), VariantKind(tag=tag))
        save_checkpoint(tmp_path / "m.npz", params)
        loaded, _ = load_checkpoint(tmp_path / "m.npz")
        assert [n for n, _ in loaded.named_arrays()] == [n for n, _ in params.named_arrays()]

    def test_version_checked(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, format_version=np.asarray(9), layer_count=np.asarray(0),
                 psi=np.zeros((2, 2)), meta_json=np.frombuffer(b"{}", dtype=np.uint8))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)
