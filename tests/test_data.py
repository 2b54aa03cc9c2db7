import json
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyperemb import (
    DataError,
    HypergraphWarning,
    build_hypergraph,
    convert_hypergcn,
    generate_node_splits,
    load_dataset,
    write_dataset,
)
from hyperemb.data import (
    read_hyperedges,
    read_labels,
    read_tsv_matrix,
    unique_path,
    write_hyperedges,
    write_labels,
    write_tsv_matrix,
)


class TestUniquePath:
    def test_free_path_unchanged(self, tmp_path):
        p = tmp_path / "out"
        assert unique_path(p) == p

    def test_suffix_counts_up(self, tmp_path):
        (tmp_path / "out").mkdir()
        assert unique_path(tmp_path / "out") == tmp_path / "out-1"
        (tmp_path / "out-1").mkdir()
        assert unique_path(tmp_path / "out") == tmp_path / "out-2"

    def test_file_extension_kept(self, tmp_path):
        (tmp_path / "report.json").write_text("{}")
        assert unique_path(tmp_path / "report.json") == tmp_path / "report-1.json"


class TestHyperedgeFile:
    def test_round_trip_with_isolated_trailing_node(self, tmp_path):
        g = build_hypergraph([(0, 1, 2), (1, 3)], 6)  # nodes 4, 5 isolated
        path = tmp_path / "hyperedges.txt"
        write_hyperedges(path, g)
        edges, num_nodes = read_hyperedges(path)
        assert edges == [(0, 1, 2), (1, 3)]
        assert num_nodes == 6  # header preserves the trailing isolated nodes

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# a comment\n\n0 1\n\n# another\n2 3 4\n")
        edges, num_nodes = read_hyperedges(path)
        assert edges == [(0, 1), (2, 3, 4)] and num_nodes is None

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("0 1\n2 x\n")
        with pytest.raises(DataError, match=r"h\.txt:2"):
            read_hyperedges(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("#nodes many\n0 1\n")
        with pytest.raises(DataError, match=r"h\.txt:1.*nodes"):
            read_hyperedges(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(DataError, match="no hyperedges"):
            read_hyperedges(path)


class TestMatrixFile:
    def test_round_trip_exact(self, tmp_path, rng):
        x = rng.standard_normal((7, 3))
        path = tmp_path / "m.tsv"
        write_tsv_matrix(path, x)
        back = read_tsv_matrix(path)
        assert back.tobytes() == x.tobytes()  # repr round-trips float64 exactly

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1.0\t2.0\n3.0\n")
        with pytest.raises(DataError, match=r"m\.tsv:2.*columns"):
            read_tsv_matrix(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("1.0\tNaN-ish\n")
        with pytest.raises(DataError, match=r"m\.tsv:1"):
            read_tsv_matrix(path)


class TestLabelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "labels.tsv"
        write_labels(path, [3, 0, -1, 2])
        assert read_labels(path).tolist() == [3, 0, -1, 2]

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("1\ntwo\n")
        with pytest.raises(DataError, match=r"labels\.tsv:2"):
            read_labels(path)


class TestDatasetRoundTrip:
    def build(self):
        g = build_hypergraph(
            [(0, 1, 2), (2, 3), (1, 3, 4)], 5, node_type=["a", "a", "b", "b", "a"]
        )
        features = np.arange(15, dtype=np.float64).reshape(5, 3) / 7.0
        labels = np.array([0, 1, 0, 1, -1])
        splits = [
            (np.array([0, 2]), np.array([1, 3])),
            (np.array([1, 3]), np.array([0, 2])),
        ]
        return g, features, labels, splits

    def test_full_round_trip(self, tmp_path):
        g, features, labels, splits = self.build()
        manifest = write_dataset(tmp_path / "ds", g, features, labels, splits)
        assert manifest["num_nodes"] == 5
        assert manifest["num_hyperedges"] == 3
        assert manifest["feature_dim"] == 3
        assert manifest["num_classes"] == 2
        assert manifest["num_splits"] == 2
        assert manifest["node_types"] == ["a", "b"]

        ds = load_dataset(tmp_path / "ds")
        assert ds.graph.edges.tuples() == g.edges.tuples()
        assert ds.graph.node_type == g.node_type
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tolist() == labels.tolist()
        assert len(ds.splits) == 2
        for (t1, s1), (t2, s2) in zip(ds.splits, splits):
            assert t1.tolist() == t2.tolist() and s1.tolist() == s2.tolist()
        assert ds.manifest == manifest

    def test_graph_only_round_trip(self, tmp_path):
        g = build_hypergraph([(0, 2), (1, 2)], 3)
        write_dataset(tmp_path / "ds", g)
        ds = load_dataset(tmp_path / "ds")
        assert ds.graph.edges.tuples() == g.edges.tuples()
        assert ds.features is None and ds.labels is None and ds.splits == []

    def test_manifest_mismatch_rejected(self, tmp_path):
        g, features, labels, splits = self.build()
        write_dataset(tmp_path / "ds", g, features, labels, splits)
        manifest_path = tmp_path / "ds" / "manifest.json"
        doctored = json.loads(manifest_path.read_text())
        doctored["num_hyperedges"] = 99
        manifest_path.write_text(json.dumps(doctored))
        with pytest.raises(DataError, match="manifest says num_hyperedges=99"):
            load_dataset(tmp_path / "ds")

    def test_feature_row_count_checked(self, tmp_path):
        g, features, labels, splits = self.build()
        with pytest.raises(DataError, match="rows for 5 nodes"):
            write_dataset(tmp_path / "ds", g, features[:3])

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing hyperedge file"):
            load_dataset(tmp_path / "nope")


def write_pickle_dataset(
    src: "Path",
    edges: dict,
    features=None,
    labels=None,
    splits=None,
):
    src.mkdir(parents=True, exist_ok=True)
    with (src / "hypergraph.pickle").open("wb") as fh:
        pickle.dump(edges, fh)
    if features is not None:
        with (src / "features.pickle").open("wb") as fh:
            pickle.dump(features, fh)
    if labels is not None:
        with (src / "labels.pickle").open("wb") as fh:
            pickle.dump(labels, fh)
    if splits is not None:
        (src / "splits").mkdir()
        for k, payload in enumerate(splits):
            with (src / "splits" / f"{k}.pickle").open("wb") as fh:
                pickle.dump(payload, fh)


class TestConvert:
    def source(self, tmp_path, **kw):
        src = tmp_path / "raw"
        edges = {"paperA": [0, 1, 2], "paperB": [2, 3], "paperC": [3, 4, 5]}
        features = np.random.default_rng(0).standard_normal((6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        write_pickle_dataset(src, edges, features, labels, **kw)
        return src

    def test_basic_conversion(self, tmp_path):
        src = self.source(tmp_path)
        manifest = convert_hypergcn(src, tmp_path / "out")
        assert manifest["num_nodes"] == 6
        assert manifest["num_hyperedges"] == 3
        assert manifest["feature_dim"] == 4
        assert manifest["num_classes"] == 3
        assert manifest["num_splits"] == 10  # generated fallback
        ds = load_dataset(tmp_path / "out")
        assert ds.graph.edges.tuples() == [(0, 1, 2), (2, 3), (3, 4, 5)]
        assert ds.labels.tolist() == [0, 0, 1, 1, 2, 2]

    def test_generated_splits_are_stratified(self, tmp_path):
        src = self.source(tmp_path)
        convert_hypergcn(src, tmp_path / "out")
        ds = load_dataset(tmp_path / "out")
        assert len(ds.splits) == 10
        for train, test in ds.splits:
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(6))
            for c in range(3):
                # every class contributes to both sides of every split
                assert np.any(ds.labels[train] == c)
                assert np.any(ds.labels[test] == c)

    def test_provided_splits_ingested(self, tmp_path):
        given = [
            {"train": [0, 2, 4], "test": [1, 3, 5]},
            {"train": [1, 3, 5], "test": [0, 2, 4]},
        ]
        src = self.source(tmp_path, splits=given)
        manifest = convert_hypergcn(src, tmp_path / "out")
        assert manifest["num_splits"] == 2
        ds = load_dataset(tmp_path / "out")
        assert ds.splits[0][0].tolist() == [0, 2, 4]
        assert ds.splits[1][1].tolist() == [0, 2, 4]

    def test_duplicate_members_deduped_with_warning(self, tmp_path):
        src = tmp_path / "raw"
        write_pickle_dataset(src, {"e": [0, 1, 1, 2], "f": [2, 3]})
        with pytest.warns(HypergraphWarning, match="duplicate"):
            manifest = convert_hypergcn(src, tmp_path / "out")
        ds = load_dataset(tmp_path / "out")
        assert ds.graph.edges[0].tolist() == [0, 1, 2]
        assert manifest["num_nodes"] == 4  # max id + 1 without features

    def test_sparse_features_densified(self, tmp_path):
        from scipy import sparse

        src = tmp_path / "raw"
        feats = sparse.random_array((5, 3), density=0.5, random_state=np.random.default_rng(1))
        write_pickle_dataset(src, {"e": [0, 1], "f": [2, 3, 4]}, features=feats)
        convert_hypergcn(src, tmp_path / "out")
        ds = load_dataset(tmp_path / "out")
        assert_allclose(ds.features, np.asarray(feats.toarray()), atol=1e-15)

    def test_empty_hypergraph_rejected(self, tmp_path):
        src = tmp_path / "raw"
        write_pickle_dataset(src, {})
        with pytest.raises(DataError, match="non-empty dict"):
            convert_hypergcn(src, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_out_of_range_member_names_the_key(self, tmp_path):
        src = tmp_path / "raw"
        write_pickle_dataset(
            src,
            {"good": [0, 1], "bad": [1, 9]},
            features=np.zeros((3, 2)),
        )
        with pytest.raises(DataError, match="'bad'.*9"):
            convert_hypergcn(src, tmp_path / "out")
        assert not (tmp_path / "out").exists()  # partial output cleaned up

    def test_malformed_pickle_rejected(self, tmp_path):
        src = tmp_path / "raw"
        src.mkdir()
        (src / "hypergraph.pickle").write_bytes(b"this is not a pickle")
        with pytest.raises(DataError, match="not a readable pickle"):
            convert_hypergcn(src, tmp_path / "out")

    def test_missing_source_rejected(self, tmp_path):
        with pytest.raises(DataError, match="missing"):
            convert_hypergcn(tmp_path / "raw", tmp_path / "out")

    def test_stat_mismatch_warns_for_known_name(self, tmp_path):
        src = self.source(tmp_path)
        with pytest.warns(HypergraphWarning, match="published statistics"):
            convert_hypergcn(src, tmp_path / "out", name="citeseer")

    def test_label_count_mismatch_rejected(self, tmp_path):
        src = tmp_path / "raw"
        write_pickle_dataset(
            src,
            {"e": [0, 1]},
            features=np.zeros((4, 2)),
            labels=np.array([0, 1]),
        )
        with pytest.raises(DataError, match="2 labels for 4 nodes"):
            convert_hypergcn(src, tmp_path / "out")


class TestGenerateNodeSplits:
    def test_small_classes_keep_one_each_side(self):
        labels = np.array([0, 0, 1, 1, 1, -1])
        for train, test in generate_node_splits(labels, count=5, rng=3):
            assert 5 not in train and 5 not in test  # unlabeled excluded
            for c in (0, 1):
                assert np.any(labels[train] == c) and np.any(labels[test] == c)

    def test_fraction_respected_on_big_classes(self):
        labels = np.zeros(100, dtype=int)
        labels[50:] = 1
        (train, test), = generate_node_splits(labels, count=1, train_fraction=0.3, rng=0)
        assert len(train) == 30 and len(test) == 70

    def test_seeded_determinism(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        a = generate_node_splits(labels, count=3, rng=9)
        b = generate_node_splits(labels, count=3, rng=9)
        for (t1, s1), (t2, s2) in zip(a, b):
            assert t1.tolist() == t2.tolist() and s1.tolist() == s2.tolist()

    def test_unlabeled_only_rejected(self):
        with pytest.raises(DataError, match="no labeled"):
            generate_node_splits(np.array([-1, -1]))
