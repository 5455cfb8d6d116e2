import numpy as np
import pytest

from sfrgnn import nn
from sfrgnn.graph import csr_from_edge_pairs, normalize_adjacency
from sfrgnn.nn import spmm
from sfrgnn.errors import ValidationError

from conftest import build_graph, path3_graph


def random_symmetric_csr(n, density, seed):
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.shape[0]) < density
    return csr_from_edge_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))


def test_identity_csr_times_h_is_h():
    g = build_graph(4, [], [0, 1, 0, 1])
    identity = normalize_adjacency(g.adjacency)  # edgeless normalizes to I
    h = np.arange(12, dtype=np.float64).reshape(4, 3)
    np.testing.assert_array_equal(spmm(identity, h), h)


def test_normalized_path_times_identity_is_the_matrix():
    g = path3_graph()
    prop = normalize_adjacency(g.adjacency)
    np.testing.assert_array_equal(spmm(prop, np.eye(3)), prop.to_dense())


def test_spmm_matches_dense_oracle():
    adj = random_symmetric_csr(5, 0.6, seed=1)
    prop = normalize_adjacency(adj)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((5, 2))
    dense = prop.to_dense() @ h  # independent dense-matmul oracle
    np.testing.assert_allclose(spmm(prop, h), dense, atol=1e-12, rtol=0)


def test_spmm_handles_isolated_nodes():
    adj = csr_from_edge_pairs(5, np.array([[0, 1]]))  # nodes 2..4 isolated
    h = np.ones((5, 2))
    out = spmm(adj, h)
    np.testing.assert_array_equal(out[2:], 0.0)
    np.testing.assert_array_equal(out[0], [1.0, 1.0])


def test_spmm_dimension_mismatch():
    adj = csr_from_edge_pairs(3, np.array([[0, 1]]))
    with pytest.raises(ValidationError):
        spmm(adj, np.ones((4, 2)))


def test_call_counter_counts_each_call():
    adj = random_symmetric_csr(6, 0.5, seed=3)
    h = np.ones((6, 2))
    before = nn.spmm_calls()
    spmm(adj, h)
    spmm(adj, h, transpose=True)
    assert nn.spmm_calls() - before == 2


def scatter_add_reference(adj, h, transpose=False):
    """Scatter-add spmm in stored order, starting from zero, in h's dtype:
    each stored entry (i, j) adds into output row i, or with `transpose`
    into output row j."""
    rows = np.repeat(np.arange(adj.dim), adj.degrees())
    src, dst = (rows, adj.col_indices) if transpose else (adj.col_indices, rows)
    out = np.zeros((adj.shape[1] if transpose else adj.dim, h.shape[1]), dtype=h.dtype)
    np.add.at(out, dst, adj.values.astype(h.dtype)[:, None] * h[src])
    return out


def test_spmm_bitwise_equals_scatter_add_reference():
    cases = {
        "normalized": normalize_adjacency(random_symmetric_csr(40, 0.2, seed=4)),
        "raw_with_isolated_rows": csr_from_edge_pairs(
            40, np.array([[0, 5], [5, 9], [9, 30], [2, 39], [0, 39]])
        ),
        "edgeless": csr_from_edge_pairs(40, np.empty((0, 2), dtype=np.int64)),
    }
    # every other row of the normalized matrix: rectangular and not symmetric
    cases["row_block"] = cases["normalized"].block(np.arange(0, 40, 2), np.arange(40))
    assert np.count_nonzero(cases["raw_with_isolated_rows"].degrees() == 0) > 30
    rng = np.random.default_rng(5)
    for name, adj in cases.items():
        for dtype in (np.float32, np.float64):
            for cols in (1, 7, 16):
                for transpose in (False, True):
                    inner = adj.shape[0] if transpose else adj.shape[1]
                    h = rng.standard_normal((inner, cols)).astype(dtype)
                    out = spmm(adj, h, transpose=transpose)
                    ref = scatter_add_reference(adj, h, transpose)
                    case = (name, dtype, cols, transpose)
                    assert out.dtype == dtype and out.shape == ref.shape, case
                    assert out.tobytes() == ref.tobytes(), case


def test_kernel_bitwise_deterministic_across_calls():
    adj = random_symmetric_csr(30, 0.2, seed=6)
    prop = normalize_adjacency(adj)
    h = np.random.default_rng(7).standard_normal((30, 4)).astype(np.float32)
    a = spmm(prop, h)
    b = spmm(prop, h)
    assert np.array_equal(a, b)
