import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperemb import (
    DataError,
    FlatSets,
    HypergraphWarning,
    build_hypergraph,
    degrees,
    hyperedge_adjacency,
    incidence_matrix,
    line_graph,
    node_adjacency,
    replace_edges,
    transition_matrices,
)
from conftest import TRIANGLE_EDGES
from oracles import (
    brute_hyperedge_adjacency,
    brute_line_graph,
    brute_node_adjacency,
    dense_incidence,
    dense_transitions,
    random_hypergraph,
)


class TestBuild:
    def test_triangle_structure(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_hyperedges == 3
        assert triangle.edge_members == ((0, 1), (1, 2), (0, 1, 2))
        assert triangle.node_edges == ((0, 2), (0, 1, 2), (1, 2))
        assert triangle.num_incidences == 7

    def test_members_sorted(self):
        g = build_hypergraph([(2, 0), (3, 1, 2)], 4)
        assert g.edge_members == ((0, 2), (1, 2, 3))

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
        assert g2.edge_members == ((2, 3),)
        assert g2.node_edges[0] == ()


class TestMatrices:
    def test_triangle_values(self, triangle):
        h = incidence_matrix(triangle).todense()
        assert_allclose(h, [[1, 0, 1], [1, 1, 1], [0, 1, 1]])
        prof = degrees(triangle)
        assert prof.d.tolist() == [2, 3, 2]
        assert prof.d_e.tolist() == [2, 2, 3]
        assert prof.d_v.tolist() == [3, 4, 3]
        assert_allclose(node_adjacency(triangle).todense(), [[0, 2, 1], [2, 0, 2], [1, 2, 0]])
        assert_allclose(
            hyperedge_adjacency(triangle).todense(), [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
        )

    def test_degree_vectors_read_only(self, triangle):
        prof = degrees(triangle)
        with pytest.raises(ValueError):
            prof.d[0] = 7

    def test_degree_sum_identity(self, rng):
        for _ in range(20):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            prof = degrees(g)
            assert prof.d.sum() == prof.d_e.sum() == g.num_incidences

    def test_adjacency_matches_brute_force(self, rng):
        for _ in range(25):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            assert_allclose(
                node_adjacency(g).todense(), brute_node_adjacency(edges, n), atol=1e-10
            )
            assert_allclose(
                hyperedge_adjacency(g).todense(),
                brute_hyperedge_adjacency(edges, n),
                atol=1e-10,
            )

    def test_incidence_matches_oracle(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            assert_allclose(incidence_matrix(g).todense(), dense_incidence(edges, n))


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
            assert_allclose(np.asarray(p.todense()).sum(axis=0), 1.0, atol=1e-10)
            assert_allclose(np.asarray(p_e.todense()).sum(axis=0), 1.0, atol=1e-10)

    def test_matches_dense_oracle(self, triangle, rng):
        p, p_e = transition_matrices(triangle)
        op, op_e = dense_transitions(TRIANGLE_EDGES, 3)
        assert_allclose(p.todense(), op, atol=1e-12)
        assert_allclose(p_e.todense(), op_e, atol=1e-12)
        for _ in range(15):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            p, p_e = transition_matrices(g)
            op, op_e = dense_transitions(edges, n)
            assert_allclose(p.todense(), op, atol=1e-10)
            assert_allclose(p_e.todense(), op_e, atol=1e-10)

    def test_isolated_node_warns_and_zeroes(self):
        g = build_hypergraph([(0, 1)], 3)  # node 2 isolated
        with pytest.warns(HypergraphWarning, match="isolated"):
            p, p_e = transition_matrices(g)
        dense = np.asarray(p.todense())
        assert_allclose(dense[:, 2], 0.0)
        assert_allclose(dense[2, :], 0.0)
        assert_allclose(dense[:2, :2].sum(axis=0), 1.0)
        assert_allclose(np.asarray(p_e.todense()), 1.0)  # single hyperedge


class TestLineGraph:
    def test_triangle_thresholds(self, triangle):
        # intersections: |e0^e1|=1, |e0^e2|=2, |e1^e2|=2
        assert line_graph(triangle, 0.5) == {(0, 1), (0, 2), (1, 2)}
        assert line_graph(triangle, 1) == {(0, 2), (1, 2)}
        assert line_graph(triangle, 2) == set()

    def test_small_delta_pattern_equals_adjacency_support(self, rng):
        for _ in range(20):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            support = {
                (j, k)
                for j in range(len(edges))
                for k in range(j + 1, len(edges))
                if hyperedge_adjacency(g).todense()[j, k] > 0
            }
            assert line_graph(g, 0.5) == support

    def test_monotone_shrinkage(self, rng):
        for _ in range(10):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            previous = None
            for delta in (0.5, 1.0, 1.5, 2.0, 3.0):
                current = line_graph(g, delta)
                if previous is not None:
                    assert current <= previous
                previous = current

    def test_per_edge_thresholds_or_semantics(self):
        g = build_hypergraph([(0, 1, 2), (1, 2, 3), (3, 4)], 5)
        # |e0 ^ e1| = 2: edge present if either endpoint threshold is below 2
        assert (0, 1) in line_graph(g, [1.9, 5.0, 5.0])
        assert (0, 1) in line_graph(g, [5.0, 1.9, 5.0])
        assert (0, 1) not in line_graph(g, [2.0, 2.0, 5.0])

    def test_matches_brute_force(self, rng):
        for _ in range(15):
            edges, n = random_hypergraph(rng)
            g = build_hypergraph(edges, n)
            thresholds = rng.uniform(0.5, 3.0, size=len(edges))
            assert line_graph(g, thresholds) == brute_line_graph(edges, thresholds)

    def test_validation(self, triangle):
        with pytest.raises(DataError, match="> 0"):
            line_graph(triangle, 0.0)
        with pytest.raises(DataError, match="thresholds"):
            line_graph(triangle, [1.0, 1.0])
