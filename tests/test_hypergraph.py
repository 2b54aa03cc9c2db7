import functools

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import sparse

import warnings

from hyperemb import (
    DataError,
    FlatSets,
    HypergraphWarning,
    TrainConfig,
    VariantKind,
    build_hypergraph,
    build_operators,
    incidence_matrix,
    init_hyperedge_features,
    init_node_features,
    node_adjacency,
    replace_edges,
    train,
)
from hyperemb import hypergraph, model
from conftest import TRIANGLE_EDGES
from oracles import (
    brute_build_hypergraph,
    brute_node_adjacency,
    dense_incidence,
    dense_transitions,
    random_hypergraph,
    transition_matrices,
)


class TestBuild:
    def test_triangle_structure(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_hyperedges == 3
        assert triangle.edges.tuples() == [(0, 1), (1, 2), (0, 1, 2)]
        assert triangle.node_edges.tuples() == [(0, 2), (0, 1, 2), (1, 2)]
        assert triangle.num_incidences == 7

    def test_members_sorted(self):
        g = build_hypergraph([(2, 0), (3, 1, 2)], 4)
        assert g.edges.tuples() == [(0, 2), (1, 2, 3)]

    def test_empty_hyperedge_rejected(self):
        with pytest.raises(DataError, match="hyperedge 1 is empty"):
            build_hypergraph([(0,), ()], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError, match="outside"):
            build_hypergraph([(0, 5)], 3)
        with pytest.raises(DataError, match="outside"):
            build_hypergraph([(-1, 0)], 3)

    def test_duplicate_member_rejected(self):
        with pytest.raises(DataError, match="more than once"):
            build_hypergraph([(0, 1, 1)], 3)

    def test_node_type_length_checked(self):
        with pytest.raises(DataError, match="node_type"):
            build_hypergraph([(0, 1)], 2, node_type=["a"])

    def test_nodes_of_type(self):
        g = build_hypergraph([(0, 1, 2)], 3, node_type=["a", "b", "a"])
        assert g.nodes_of_type("a") == [0, 2]
        assert g.nodes_of_type("missing") == []

    def test_replace_edges_keeps_nodes_and_types(self):
        g = build_hypergraph([(0, 1), (1, 2)], 4, node_type=list("abcd"))
        g2 = replace_edges(g, [(2, 3)])
        assert g2.num_nodes == 4
        assert g2.node_type == g.node_type
        assert g2.edges.tuples() == [(2, 3)]
        with pytest.warns(HypergraphWarning, match="2 isolated"):
            assert g2.node_edges[0].tolist() == []

    def test_structure_matches_loop_oracle(self, rng):
        for _ in range(30):
            edges, n = random_hypergraph(rng)
            shuffled = [rng.permutation(e).tolist() for e in edges]
            g = build_hypergraph(shuffled, n)
            members, node_edges = brute_build_hypergraph(shuffled, n)
            assert g.edges.tuples() == list(members)
            assert g.node_edges.tuples() == list(node_edges)
            assert g.num_hyperedges == len(members)
            assert g.num_incidences == sum(map(len, members))

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (), (2,)],  # empty row
            [(1, 0), (2, -3, 1)],  # below range
            [(0, 1), (3, 1, 5)],  # above range
            [(0, 1), (2, 1, 2, 1)],  # repeat: the smallest repeated node is named
            [(0, 1), (2, 2, 7)],  # bound and repeat in one row: the bound wins
            [(0, 1), (1, 1), (9,), ()],  # faults in several rows: the lowest wins
            [(0, 1), (2, 5), (), (-1,)],
        ],
    )
    def test_errors_match_loop_oracle(self, edges):
        with pytest.raises(ValueError) as want:
            brute_build_hypergraph(edges, 5)
        with pytest.raises(DataError) as got:
            build_hypergraph(edges, 5)
        assert str(got.value) == str(want.value)

    def test_rows_are_read_only(self, triangle):
        node_row, edge_row = triangle.node_edges[1], triangle.edges[2]
        for row in (node_row, edge_row, triangle.edges.idx, triangle.node_edges.idx):
            with pytest.raises(ValueError):
                row[0] = 2
        # node_edges shares H's CSR arrays: a write would corrupt every operator
        assert np.shares_memory(triangle.node_edges.idx, triangle.pack.h.indices)


class TestMatrices:
    def test_triangle_values(self, triangle):
        h = incidence_matrix(triangle).toarray()
        assert_allclose(h, [[1, 0, 1], [1, 1, 1], [0, 1, 1]])
        assert triangle.pack.d.tolist() == [2, 3, 2]
        assert triangle.pack.d_e.tolist() == [2, 2, 3]
        assert_allclose(triangle.pack.d_inv, [1 / 2, 1 / 3, 1 / 2])
        assert_allclose(triangle.pack.de_inv, [1 / 2, 1 / 2, 1 / 3])
        assert node_adjacency(triangle).sum(axis=1).tolist() == [3, 4, 3]
        assert_allclose(node_adjacency(triangle).toarray(), [[0, 2, 1], [2, 0, 2], [1, 2, 0]])

    def test_degree_vectors_read_only(self, triangle):
        pack = triangle.pack
        for vec in (pack.d, pack.d_e, pack.d_inv, pack.de_inv):
            with pytest.raises(ValueError):
                vec[0] = 7

    def test_degree_sum_identity(self, rng):
        for _ in range(20):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            pack = g.pack
            assert pack.d.sum() == pack.d_e.sum() == pack.h.nnz == g.num_incidences

    def test_adjacency_matches_brute_force(self, rng):
        for _ in range(25):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            assert_allclose(
                node_adjacency(g).toarray(), brute_node_adjacency(edges, n), atol=1e-10
            )

    def test_incidence_matches_oracle(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            assert_allclose(incidence_matrix(g).toarray(), dense_incidence(edges, n))


    def test_canonical_sum_owns_exactly_its_nonzeros(self, rng):
        # scipy's sum keeps its arrays as views into a buffer sized for both operands
        a = sparse.random_array((40, 40), density=0.3, format="csr", rng=rng)
        b = 2.0 * a + sparse.random_array((40, 40), density=0.02, format="csr", rng=rng)
        raw = a + b
        assert raw.data.base is not None and raw.data.base.size > raw.nnz
        raw.eliminate_zeros()
        raw.sort_indices()
        got = hypergraph.canonical(a + b)
        for x, want in ((got.data, raw.data), (got.indices, raw.indices), (got.indptr, raw.indptr)):
            assert np.array_equal(x, want)
        assert got.data.base is None and got.indices.base is None


class TestFlatSets:
    def test_layout(self):
        pack = FlatSets.of([(2, 0), (5,), (1, 1, 3)])
        assert len(pack) == 3
        assert pack.idx.tolist() == [2, 0, 5, 1, 1, 3] and pack.idx.dtype == np.int64
        assert pack.indptr.tolist() == [0, 2, 3, 6]
        assert pack.sizes.tolist() == [2, 1, 3]
        assert pack.owner.tolist() == [0, 0, 1, 2, 2, 2]
        assert FlatSets.of(pack) is pack
        assert len(FlatSets.of([])) == 0 and FlatSets.of([]).idx.size == 0

    def test_rows_match_slices(self, rng):
        sets = [tuple(rng.choice(9, size=int(rng.integers(0, 5)))) for _ in range(12)]
        pack = FlatSets.of(sets)
        slices = [pack.idx[pack.indptr[t]:pack.indptr[t + 1]].tolist() for t in range(len(sets))]
        assert [pack[t].tolist() for t in range(len(sets))] == slices
        assert [row.tolist() for row in pack] == slices
        assert pack[-1].tolist() == slices[-1]
        assert pack.tuples() == [tuple(s) for s in slices] == [tuple(map(int, s)) for s in sets]
        with pytest.raises(IndexError):
            pack[len(sets)]
        with pytest.raises(ValueError):
            pack[int(np.argmax(pack.sizes))][0] = 1  # rows are read-only even where idx is not

    def test_sums_match_loops(self, rng):
        sets = [tuple(rng.choice(9, size=int(rng.integers(1, 5)))) for _ in range(12)]
        pack = FlatSets.of(sets)
        values = rng.standard_normal((pack.idx.size, 3))
        set_sums = [values[pack.indptr[t]:pack.indptr[t + 1]].sum(axis=0) for t in range(len(sets))]
        assert_allclose(pack.set_sums(values), set_sums, atol=1e-12)
        node_sums = np.zeros((9, 3))
        for i, v in zip(pack.idx, values):
            node_sums[i] += v
        assert_allclose(pack.node_sums(values, 9), node_sums, atol=1e-12)

    def test_member_range_checked(self):
        FlatSets.of([(0, 3)]).check_members(4)
        for bad in ([(0, 4)], [(-1, 2)]):
            with pytest.raises(DataError, match="outside"):
                FlatSets.of(bad).check_members(4)


class TestTransitions:
    def test_column_stochastic(self, rng):
        for _ in range(25):
            edges, n = random_hypergraph(rng)  # all nodes covered
            g = build_hypergraph(edges, n)
            p, p_e = transition_matrices(g)
            assert_allclose(np.asarray(p.toarray()).sum(axis=0), 1.0, atol=1e-10)
            assert_allclose(np.asarray(p_e.toarray()).sum(axis=0), 1.0, atol=1e-10)

    def test_matches_dense_oracle(self, triangle, rng):
        p, p_e = transition_matrices(triangle)
        op, op_e = dense_transitions(TRIANGLE_EDGES, 3)
        assert_allclose(p.toarray(), op, atol=1e-12)
        assert_allclose(p_e.toarray(), op_e, atol=1e-12)
        for _ in range(15):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            p, p_e = transition_matrices(g)
            op, op_e = dense_transitions(edges, n)
            assert_allclose(p.toarray(), op, atol=1e-10)
            assert_allclose(p_e.toarray(), op_e, atol=1e-10)

    def test_isolated_node_warns_and_zeroes(self):
        g = build_hypergraph([(0, 1)], 3)  # node 2 isolated
        with pytest.warns(HypergraphWarning, match="isolated"):
            p, p_e = transition_matrices(g)
        dense = np.asarray(p.toarray())
        assert_allclose(dense[:, 2], 0.0)
        assert_allclose(dense[2, :], 0.0)
        assert_allclose(dense[:2, :2].sum(axis=0), 1.0)
        assert_allclose(np.asarray(p_e.toarray()), 1.0)  # single hyperedge


class TestGraphPack:
    """H and its degrees are derived once per graph and shared by every consumer."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = hypergraph.incidence_matrix

        def counted(g):
            seen.append(g)
            return original(g)

        monkeypatch.setattr(hypergraph, "incidence_matrix", counted)
        return seen

    def test_pack_kept_with_the_graph(self, triangle, calls):
        assert triangle.pack is triangle.pack
        node_adjacency(triangle)
        transition_matrices(triangle)
        assert calls == [triangle]
        assert_allclose(triangle.pack.h.toarray(), incidence_matrix(triangle).toarray())

    def test_train_derives_h_once(self, calls):
        g = build_hypergraph([(0, 1, 2), (2, 3), (3, 4, 5), (0, 5)], 6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        cfg = TrainConfig(epochs=2, feature_rank=3)
        train(g, cfg, "node-class", data=(labels, np.ones(6, dtype=bool)))
        assert calls == [g]
        for tag in ("base", "p2", "plusplus", "wt", "h2"):
            build_operators(g, tag)
        assert calls == [g]

    def test_adjacency_is_one_read_only_copy(self, triangle):
        a = node_adjacency(triangle)
        assert a is triangle.pack.adjacency is node_adjacency(triangle)
        for arr in (a.data, a.indices, a.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_reordered_svd_training_derives_the_adjacency_once(self, monkeypatch):
        built = []
        derive = hypergraph.GraphPack.adjacency.func
        counted = functools.cached_property(lambda pack: built.append(pack) or derive(pack))
        counted.__set_name__(hypergraph.GraphPack, "adjacency")
        monkeypatch.setattr(hypergraph.GraphPack, "adjacency", counted)
        monkeypatch.setattr(model, "REORDER_MIN_NODES", 0)
        g = build_hypergraph([(0, 1, 2), (2, 3), (3, 4, 5), (0, 5)], 6)
        labels = np.array([0, 0, 0, 1, 1, 1])
        for epochs in (1, 2):
            train(g, TrainConfig(variant=VariantKind(tag="p2"), epochs=epochs, feature_rank=3),
                  "node-class", data=(labels, np.ones(6, dtype=bool)))
        # the SVD features and the node order of both trials read one copy
        assert built == [g.pack]

    def test_isolated_node_warns_once_per_graph(self):
        g = build_hypergraph([(0, 1, 2), (1, 3)], 5)  # node 4 isolated
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            z1 = init_node_features(g, 2, rng=0)
            init_hyperedge_features(g, z1)
            for tag in ("base", "p2"):
                build_operators(g, tag)
            transition_matrices(g)
        isolated = [w for w in caught if issubclass(w.category, HypergraphWarning)
                    and "isolated" in str(w.message)]
        assert [str(w.message) for w in isolated] == [
            "1 isolated node(s): inverse degree taken as 0"
        ]

    @pytest.mark.parametrize("attr", ["pack", "node_edges"])
    def test_isolated_node_warning_names_the_reader(self, attr):
        g = build_hypergraph([(0, 1)], 3)  # node 2 isolated
        with pytest.warns(HypergraphWarning, match="isolated") as caught:
            getattr(g, attr)
        assert [w.filename for w in caught] == [__file__]
