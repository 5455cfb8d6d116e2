import json
import math

import numpy as np
import pytest

from sfrgnn.errors import DatasetFormatError, ValidationError
from sfrgnn.graph import (
    csr_from_edge_pairs,
    graph_stats,
    load_graph,
    make_split,
    normalize_adjacency,
    write_graph,
)
from sfrgnn.synth import sbm_graph

from conftest import build_graph, path3_graph


def write_dataset(tmp_path, edges_lines, features_lines, labels_lines, meta=None, splits=None):
    (tmp_path / "edges.tsv").write_text("".join(f"{ln}\n" for ln in edges_lines))
    (tmp_path / "features.tsv").write_text("".join(f"{ln}\n" for ln in features_lines))
    (tmp_path / "labels.tsv").write_text("".join(f"{ln}\n" for ln in labels_lines))
    if meta is not None:
        (tmp_path / "meta.json").write_text(json.dumps(meta))
    if splits is not None:
        (tmp_path / "splits.json").write_text(json.dumps(splits))
    return tmp_path


def test_load_symmetry_closure_of_two_edge_path(tmp_path):
    d = write_dataset(
        tmp_path,
        ["0\t1", "1\t2"],
        ["1.0\t0.0", "0.0\t1.0", "1.0\t1.0"],
        ["0", "0", "1"],
    )
    g = load_graph(d)
    adj = g.adjacency
    assert adj.nnz == 4
    assert list(adj.row(0)) == [1]
    assert list(adj.row(1)) == [0, 2]
    assert list(adj.row(2)) == [1]


def test_load_edgeless_graph(tmp_path):
    d = write_dataset(tmp_path, [], ["0.5"] * 5, ["0", "1", "0", "1", "0"])
    g = load_graph(d)
    assert g.num_nodes == 5
    assert g.adjacency.nnz == 0


def test_load_dedups_duplicate_and_reversed_lines(tmp_path):
    d = write_dataset(
        tmp_path,
        ["0\t1", "1\t0", "0\t1", "1\t2"],
        ["1.0", "2.0", "3.0"],
        ["0", "1", "1"],
    )
    g = load_graph(d)
    assert g.adjacency.nnz == 4  # two undirected edges


def test_load_rejects_self_loop(tmp_path):
    d = write_dataset(tmp_path, ["0\t0"], ["1.0", "2.0"], ["0", "1"])
    with pytest.raises(ValidationError):
        load_graph(d)


def test_load_rejects_out_of_range_ids(tmp_path):
    d = write_dataset(tmp_path, ["0\t5"], ["1.0", "2.0"], ["0", "1"])
    with pytest.raises(ValidationError):
        load_graph(d)


def test_load_rejects_label_out_of_range(tmp_path):
    d = write_dataset(
        tmp_path, ["0\t1"], ["1.0", "2.0"], ["0", "3"], meta={"num_classes": 2}
    )
    with pytest.raises(ValidationError):
        load_graph(d)


def test_load_missing_file_is_format_error(tmp_path):
    (tmp_path / "features.tsv").write_text("1.0\n")
    with pytest.raises(DatasetFormatError):
        load_graph(tmp_path)


def test_bad_line_is_reported_with_its_file_and_index_counting_blank_lines(tmp_path):
    d = write_dataset(tmp_path, ["0\t1"], ["1.0", "2.0"], ["0", "", "x"])
    with pytest.raises(DatasetFormatError) as info:
        load_graph(d)
    assert str(info.value).startswith(f"{d / 'labels.tsv'}: line 2: invalid literal")


BEYOND_INT64 = 10**30


@pytest.mark.parametrize("name, message", [
    ("edges.tsv", f"edges.tsv: line 2: {BEYOND_INT64} lies outside int64"),
    ("labels.tsv", f"labels.tsv: line 3: {BEYOND_INT64} lies outside int64"),
    ("splits.json", rf"splits.json train id {BEYOND_INT64} lies outside \[0, 3\)"),
    ("meta.json", rf"meta.json num_classes {BEYOND_INT64} lies outside \[0, 4\)"),
], ids=["edges", "labels", "splits", "meta"])
def test_integer_beyond_int64_is_format_error(tmp_path, name, message):
    edges, labels = ["0\t1", "1\t2"], ["0", "1", "0"]
    meta, splits = {"num_classes": 2}, {"train": [0], "val": [1], "test": [2]}
    if name == "edges.tsv":
        edges.append(f"{BEYOND_INT64}\t1")
    elif name == "labels.tsv":
        labels.append(str(BEYOND_INT64))
    elif name == "splits.json":
        splits["train"].append(BEYOND_INT64)
    else:
        meta["num_classes"] = BEYOND_INT64
    d = write_dataset(tmp_path, edges, ["1.0", "2.0", "3.0"], labels, meta=meta, splits=splits)
    with pytest.raises(DatasetFormatError, match=message):
        load_graph(d)


def test_load_splits_must_partition(tmp_path):
    d = write_dataset(
        tmp_path,
        ["0\t1"],
        ["1.0", "2.0", "3.0"],
        ["0", "1", "0"],
        splits={"train": [0], "val": [1], "test": []},  # node 2 uncovered
    )
    with pytest.raises(ValidationError):
        load_graph(d)


def test_normalize_three_node_path_matches_scalar_formula():
    g = path3_graph()
    prop = normalize_adjacency(g.adjacency)
    dense = prop.to_dense()
    # independent scalar evaluation of D~^{-1/2} (A+I) D~^{-1/2}
    deg_tilde = [2.0, 3.0, 2.0]
    expected = np.zeros((3, 3))
    a_plus_i = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=float)
    for i in range(3):
        for j in range(3):
            expected[i, j] = a_plus_i[i, j] / math.sqrt(deg_tilde[i] * deg_tilde[j])
    np.testing.assert_array_equal(dense, expected)
    assert dense[0, 0] == 0.5 and dense[2, 2] == 0.5
    assert dense[1, 1] == 1.0 / 3.0
    assert abs(dense[0, 1] - 1.0 / math.sqrt(6.0)) == 0.0


def test_normalize_edgeless_is_identity():
    g = build_graph(4, [], [0, 1, 0, 1])
    dense = normalize_adjacency(g.adjacency).to_dense()
    np.testing.assert_array_equal(dense, np.eye(4))


def test_normalize_rejects_nonzero_diagonal():
    from sfrgnn.graph import CsrAdjacency

    eye = CsrAdjacency(
        row_offsets=np.array([0, 1, 2], dtype=np.int64),
        col_indices=np.array([0, 1], dtype=np.int64),
        values=np.ones(2),
        dim=2,
    )
    with pytest.raises(ValidationError):
        normalize_adjacency(eye)


def test_normalize_symmetric_and_within_one_ulp_on_random_graphs():
    for seed in range(5):
        g = sbm_graph([12, 13], p_in=0.4, p_out=0.1, seed=seed, feature_dim=4)
        prop = normalize_adjacency(g.adjacency)
        dense = prop.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        deg_tilde = g.adjacency.degrees() + 1.0
        rows = np.repeat(np.arange(prop.dim), prop.degrees())
        for i, j, v in zip(rows, prop.col_indices, prop.values):
            ref = 1.0 / math.sqrt(deg_tilde[i] * deg_tilde[j])
            assert abs(v - ref) <= math.ulp(ref)


def _reference_csr(n, src, dst, deg_tilde=None):
    """CSR laid out entry by entry with lexsort and bincount."""
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=row_offsets[1:])
    if deg_tilde is None:
        values = np.ones(dst.shape[0], dtype=np.float64)
    else:
        values = 1.0 / np.sqrt(deg_tilde[src] * deg_tilde[dst])
    return row_offsets, dst, values


def _reference_pairs_csr(n, pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.unique(lo * n + hi)
    lo, hi = keys // n, keys % n
    return _reference_csr(n, np.concatenate([lo, hi]), np.concatenate([hi, lo]))


def _reference_normalized(n, pairs):
    row_offsets, cols, _ = _reference_pairs_csr(n, pairs)
    degrees = np.diff(row_offsets)
    rows = np.repeat(np.arange(n), degrees)
    return _reference_csr(
        n,
        np.concatenate([rows, np.arange(n)]),
        np.concatenate([cols, np.arange(n)]),
        degrees.astype(np.float64) + 1.0,
    )


def _random_pairs(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 60))
    pairs = gen.integers(0, n, size=(int(gen.integers(0, 3 * n)), 2))
    return n, pairs[pairs[:, 0] != pairs[:, 1]]


CSR_CASES = {
    "single_node": (1, np.empty((0, 2), dtype=np.int64)),
    "edgeless": (5, np.empty((0, 2), dtype=np.int64)),
    "isolated_nodes": (7, np.array([[1, 4], [4, 2]])),
    "duplicate_and_reversed": (4, np.array([[0, 1], [1, 0], [0, 1], [3, 2], [2, 3], [1, 3]])),
    **{f"random_{seed}": _random_pairs(seed) for seed in range(12)},
}


@pytest.mark.parametrize("case", sorted(CSR_CASES))
def test_csr_layout_matches_entrywise_reference(case):
    n, pairs = CSR_CASES[case]
    adj = csr_from_edge_pairs(n, pairs)
    prop = normalize_adjacency(adj)
    for got, want in (
        (adj, _reference_pairs_csr(n, pairs)),
        (prop, _reference_normalized(n, pairs)),
    ):
        assert got.dim == n
        for arr, ref in zip((got.row_offsets, got.col_indices, got.values), want):
            assert arr.dtype == ref.dtype and arr.shape == ref.shape
            assert np.all(arr == ref)


def test_make_split_floor_counts():
    s = make_split(10, 0.1, 0.1, seed=3)
    assert s.train.sum() == 1 and s.val.sum() == 1 and s.test.sum() == 8


def test_make_split_deterministic():
    a = make_split(50, 0.2, 0.3, seed=9)
    b = make_split(50, 0.2, 0.3, seed=9)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)


def test_make_split_cora_sized_floor():
    n = 2708
    s = make_split(n, 0.1, 0.1, seed=0)
    assert s.train.sum() == int(np.floor(0.1 * n)) == 270
    assert s.val.sum() == 270
    assert s.test.sum() == n - 540


def test_make_split_partitions_for_many_sizes():
    for n in (3, 7, 31, 100):
        s = make_split(n, 0.25, 0.25, seed=n)
        total = s.train.astype(int) + s.val.astype(int) + s.test.astype(int)
        assert np.all(total == 1)


def test_make_split_rejects_bad_ratios():
    with pytest.raises(ValidationError):
        make_split(10, 0.6, 0.5, seed=0)
    with pytest.raises(ValidationError):
        make_split(10, 0.0, 0.1, seed=0)
    with pytest.raises(ValidationError):
        make_split(2, 0.1, 0.1, seed=0)


def test_graph_stats_path():
    g = path3_graph(labels=(0, 0, 1))
    st = graph_stats(g)
    assert st.num_edges == 2
    assert st.homophily_ratio == 0.5
    assert st.avg_degree == pytest.approx(4.0 / 3.0)


def test_graph_stats_edgeless_homophily_zero():
    g = build_graph(4, [], [0, 0, 1, 1])
    assert graph_stats(g).homophily_ratio == 0.0


def test_write_then_load_round_trips_byte_identically(tmp_path):
    g = sbm_graph([8, 9], p_in=0.5, p_out=0.1, seed=4, feature_dim=3)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    write_graph(g, d1)
    g2 = load_graph(d1)
    write_graph(g2, d2)
    for name in ("edges.tsv", "features.tsv", "labels.tsv", "splits.json", "meta.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_binary_feature_sidecar_preferred_and_equivalent(tmp_path):
    g = build_graph(3, [(0, 1)], [0, 1, 1], features=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    write_graph(g, tmp_path / "d", binary_features=True)
    loaded = load_graph(tmp_path / "d")
    np.testing.assert_array_equal(loaded.features, g.features)
    # corrupting the tsv proves the sidecar takes precedence
    (tmp_path / "d" / "features.tsv").write_text("9.9\t9.9\n9.9\t9.9\n9.9\t9.9\n")
    loaded2 = load_graph(tmp_path / "d")
    np.testing.assert_array_equal(loaded2.features, g.features)


def test_structural_symmetry_validated_on_every_load(tmp_path):
    d = write_dataset(tmp_path, ["0\t1", "1\t2"], ["1.0", "2.0", "3.0"], ["0", "1", "0"])
    g = load_graph(d)
    g.adjacency.validate()  # must not raise
    n = g.num_nodes
    rows = np.repeat(np.arange(n), g.adjacency.degrees())
    for i, j in zip(rows, g.adjacency.col_indices):
        assert g.adjacency.has_entry(j, i)
