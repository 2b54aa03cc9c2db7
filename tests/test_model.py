import numpy as np
import pytest
from numpy.testing import assert_allclose

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
from hyperemb.model import ACTIVATION_TAGS, VARIANT_TAGS, activate, dependent_embeddings
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

    def test_bad_rrelu_range(self):
        with pytest.raises(ConfigError, match="rrelu"):
            VariantKind(rrelu_range=(0.5, 0.2))


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
            assert_allclose(ops.s_v.todense(), s_v, atol=1e-12)
            assert_allclose(ops.s_e.todense(), s_e, atol=1e-12)
            if tag == "base":
                assert_allclose(ops.b_v.todense(), b_v, atol=1e-12)
                assert_allclose(ops.b_e.todense(), b_e, atol=1e-12)
            else:
                assert ops.b_v is None and ops.b_e is None

    def test_matches_dense_oracle_on_random_graphs(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            for tag in VARIANT_TAGS:
                ops = build_operators(g, tag)
                s_v, s_e, _, _ = dense_operators(edges, n, tag)
                assert_allclose(ops.s_v.todense(), s_v, atol=1e-10)
                assert_allclose(ops.s_e.todense(), s_e, atol=1e-10)

    def test_single_full_hyperedge_symmetry(self):
        g = build_hypergraph([(0, 1, 2, 3)], 4)
        ops = build_operators(g, "base")
        dense = np.asarray(ops.s_v.todense())
        assert_allclose(dense, dense.flat[0])  # every entry equal

    def test_p2_scalar_identity(self):
        g = build_hypergraph([(0,)], 1)
        ops = build_operators(g, "p2")
        assert_allclose(ops.s_v.todense(), [[3.0]])
        assert_allclose(ops.s_e.todense(), [[3.0]])


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
        assert_allclose(state.z_final, np.asarray(ops.s_v.todense()) @ z0, atol=1e-12)
        assert_allclose(state.y_final, np.asarray(ops.s_e.todense()) @ y0, atol=1e-12)

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
