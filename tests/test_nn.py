import math

import numpy as np
import pytest

from sfrgnn.errors import ValidationError
from sfrgnn.graph import csr_from_keys, normalize_adjacency
from sfrgnn.nn import (
    FEATURE_CSR_MAX_DENSITY,
    AdamState,
    ModelParams,
    adam_step,
    check_gradients,
    dropout_mask,
    feature_operand,
    finite_difference_grad,
    gcn_backward,
    gcn_forward,
    infonce_loss,
    init_params,
    nll_loss,
    params_to_vector,
    relative_gradient_error,
    spmm,
    vector_to_params,
)
from sfrgnn.rng import RngState
from sfrgnn.synth import sbm_graph

from conftest import build_graph, sparse_binary_features


def zero_params(d, hidden, classes, dtype=np.float64):
    return ModelParams(
        w1=np.zeros((d, hidden), dtype=dtype),
        b1=np.zeros(hidden, dtype=dtype),
        w2=np.zeros((hidden, classes), dtype=dtype),
        b2=np.zeros(classes, dtype=dtype),
    )


def test_zero_weights_give_uniform_log_probs():
    params = zero_params(3, 4, 7)
    x = np.random.default_rng(0).standard_normal((5, 3))
    log_probs, _ = gcn_forward(params, x, None)
    np.testing.assert_allclose(log_probs, -math.log(7), atol=1e-12)


def test_no_prop_equals_identity_prop():
    g = build_graph(6, [], [0, 1, 0, 1, 0, 1], features=np.random.default_rng(1).standard_normal((6, 4)))
    identity = normalize_adjacency(g.adjacency)
    params = init_params(4, 3, 2, RngState(5), dtype=np.float64)
    keep = dropout_mask(RngState(9), (6, 3), 0.5)
    lp_none, _ = gcn_forward(params, g.features, None, 0.5, keep)
    lp_ident, _ = gcn_forward(params, g.features, identity, 0.5, keep)
    np.testing.assert_array_equal(lp_none, lp_ident)


def test_forward_matches_scalar_hand_evaluation():
    # 2 nodes, d=F=C=2, no propagation, eval mode; every number reproduced
    # below with plain python floats.
    params = ModelParams(
        w1=np.array([[0.5, -1.0], [0.25, 0.75]]),
        b1=np.array([0.1, -0.2]),
        w2=np.array([[1.5, -0.5], [0.0, 2.0]]),
        b2=np.array([-0.3, 0.4]),
    )
    x = np.array([[1.0, 2.0], [-3.0, 0.5]])
    log_probs, _ = gcn_forward(params, x, None)

    for row in range(2):
        h = []
        for j in range(2):
            pre = x[row, 0] * params.w1[0, j] + x[row, 1] * params.w1[1, j] + params.b1[j]
            h.append(max(pre, 0.0))
        logits = []
        for c in range(2):
            logits.append(h[0] * params.w2[0, c] + h[1] * params.w2[1, c] + params.b2[c])
        denom = math.log(math.exp(logits[0]) + math.exp(logits[1]))
        for c in range(2):
            assert log_probs[row, c] == pytest.approx(logits[c] - denom, abs=1e-12)


def test_backward_zero_upstream_gives_zero_grads():
    params = init_params(4, 3, 2, RngState(1), dtype=np.float64)
    x = np.random.default_rng(2).standard_normal((5, 4))
    lp, cache = gcn_forward(params, x, None)
    grads = gcn_backward(cache, np.zeros_like(lp))
    for arr in grads.arrays():
        np.testing.assert_array_equal(arr, 0.0)


def test_backward_matches_central_finite_differences():
    g = build_graph(
        6,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        [0, 1, 2, 0, 1, 2],
        features=np.random.default_rng(3).standard_normal((6, 4)),
    )
    prop = normalize_adjacency(g.adjacency)
    params = init_params(4, 3, 3, RngState(7), dtype=np.float64)
    mask = np.array([True, True, False, True, False, True])

    def loss_of(vec):
        theta = vector_to_params(vec, params)
        lp, _ = gcn_forward(theta, g.features, prop)
        return nll_loss(lp, g.labels, mask)[0]

    lp, cache = gcn_forward(params, g.features, prop)
    _, grad_lp = nll_loss(lp, g.labels, mask)
    analytic = params_to_vector(gcn_backward(cache, grad_lp))
    numeric = finite_difference_grad(loss_of, params_to_vector(params), eps=1e-5)
    assert relative_gradient_error(analytic, numeric) < 1e-6


def test_gradients_invariant_to_logit_shift():
    # adding a constant to every logit (via b2) leaves log-softmax, and hence
    # every gradient, unchanged
    x = np.random.default_rng(4).standard_normal((5, 3))
    labels = np.array([0, 1, 2, 0, 1])
    mask = np.ones(5, dtype=bool)
    params = init_params(3, 4, 3, RngState(11), dtype=np.float64)
    shifted = params.copy()
    shifted.b2 = shifted.b2 + 7.5

    grads = []
    for p in (params, shifted):
        lp, cache = gcn_forward(p, x, None)
        _, grad_lp = nll_loss(lp, labels, mask)
        grads.append(gcn_backward(cache, grad_lp))
    for a, b in zip(grads[0].arrays(), grads[1].arrays()):
        np.testing.assert_allclose(a, b, atol=1e-12, rtol=0)


def test_nll_uniform_is_log_c():
    lp = np.full((4, 7), -math.log(7))
    loss, _ = nll_loss(lp, np.array([0, 3, 6, 1]), np.ones(4, dtype=bool))
    assert loss == pytest.approx(math.log(7), abs=1e-12)


def test_nll_perfect_prediction_is_zero():
    lp = np.full((3, 4), -1e9)
    labels = np.array([1, 2, 0])
    lp[np.arange(3), labels] = 0.0
    loss, _ = nll_loss(lp, labels, np.ones(3, dtype=bool))
    assert loss == 0.0


def test_nll_two_node_scalar_oracle():
    lp = np.array(
        [[math.log(0.6), math.log(0.4)], [math.log(0.3), math.log(0.7)]]
    )
    labels = np.array([0, 1])
    loss, grad = nll_loss(lp, labels, np.ones(2, dtype=bool))
    assert loss == pytest.approx(-(math.log(0.6) + math.log(0.7)) / 2.0, abs=1e-12)
    np.testing.assert_allclose(grad, [[-0.5, 0.0], [0.0, -0.5]])


def test_nll_grad_zero_outside_mask_and_empty_mask_error():
    lp = np.log(np.full((3, 2), 0.5))
    mask = np.array([True, False, False])
    _, grad = nll_loss(lp, np.array([0, 1, 0]), mask)
    np.testing.assert_array_equal(grad[1:], 0.0)
    with pytest.raises(ValidationError):
        nll_loss(lp, np.array([0, 1, 0]), np.zeros(3, dtype=bool))


def test_infonce_single_positive_is_zero():
    z = np.random.default_rng(5).standard_normal((3, 4))
    mask = np.array([False, True, False])
    loss, gz, gza = infonce_loss(z, z + 1.0, mask, temperature=1.0)
    assert loss == 0.0
    np.testing.assert_array_equal(gz, 0.0)
    np.testing.assert_array_equal(gza, 0.0)


def test_infonce_orthogonal_closed_form():
    # identical views, two orthogonal unit rows, tau=1:
    # loss = -log(e / (e + 1)) = log(1 + e^{-1})
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _, _ = infonce_loss(z, z.copy(), np.ones(2, dtype=bool), temperature=1.0)
    assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)


def test_infonce_matches_finite_differences():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((7, 4))
    z_aug = rng.standard_normal((7, 4))
    mask = np.array([True] * 5 + [False] * 2)
    _, gz, gza = infonce_loss(z, z_aug, mask, temperature=1.0)
    fd_z = finite_difference_grad(lambda m: infonce_loss(m, z_aug, mask, 1.0)[0], z)
    fd_za = finite_difference_grad(lambda m: infonce_loss(z, m, mask, 1.0)[0], z_aug)
    assert relative_gradient_error(gz, fd_z) < 1e-6
    assert relative_gradient_error(gza, fd_za) < 1e-6


def test_infonce_cosine_scale_invariance():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((6, 5))
    z_aug = rng.standard_normal((6, 5))
    mask = np.ones(6, dtype=bool)
    base, _, _ = infonce_loss(z, z_aug, mask, temperature=1.0)
    scales = rng.uniform(0.2, 9.0, size=6)
    scaled, _, _ = infonce_loss(z * scales[:, None], z_aug, mask, temperature=1.0)
    assert abs(base - scaled) <= 1e-10


def test_infonce_nonnegative_on_random_inputs():
    rng = np.random.default_rng(8)
    for _ in range(25):
        t = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 6))
        z = rng.standard_normal((t, dim))
        z_aug = rng.standard_normal((t, dim))
        loss, _, _ = infonce_loss(z, z_aug, np.ones(t, dtype=bool), temperature=1.0)
        assert loss >= 0.0


def test_infonce_rejects_bad_temperature():
    z = np.ones((2, 2))
    with pytest.raises(ValidationError):
        infonce_loss(z, z, np.ones(2, dtype=bool), temperature=0.0)


def test_infonce_grads_zero_outside_mask():
    rng = np.random.default_rng(9)
    z = rng.standard_normal((5, 3))
    z_aug = rng.standard_normal((5, 3))
    mask = np.array([True, False, True, False, True])
    _, gz, gza = infonce_loss(z, z_aug, mask, temperature=0.7)
    np.testing.assert_array_equal(gz[~mask], 0.0)
    np.testing.assert_array_equal(gza[~mask], 0.0)


def test_adam_zero_grad_is_identity():
    params = init_params(3, 2, 2, RngState(13), dtype=np.float64)
    before = params.copy()
    grads = zero_params(3, 2, 2)
    adam_step(params, grads, AdamState.zeros_like(params), lr=0.05, weight_decay=0.0)
    for a, b in zip(params.arrays(), before.arrays()):
        np.testing.assert_array_equal(a, b)


def test_adam_first_step_magnitude_matches_scalar_recurrence():
    # scalar oracle: m=0.1g, v=0.001g^2, mhat=g, vhat=g^2
    # => step = lr * g / (|g| + eps)
    lr = 0.01
    params = ModelParams(
        w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.ones((1, 1)), b2=np.zeros(1)
    )
    grads = ModelParams(
        w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.zeros((1, 1)), b2=np.zeros(1)
    )
    adam_step(params, grads, AdamState.zeros_like(params), lr=lr, weight_decay=0.0)
    expected = 1.0 - lr * 1.0 / (1.0 + 1e-8)
    assert params.w1[0, 0] == pytest.approx(expected, abs=1e-15)


def test_adam_two_runs_bitwise_identical():
    def run():
        params = init_params(4, 3, 2, RngState(21), dtype=np.float32)
        state = AdamState.zeros_like(params)
        gen = np.random.default_rng(22)
        for _ in range(10):
            grads = ModelParams(
                *(gen.standard_normal(a.shape).astype(np.float32) for a in params.arrays())
            )
            adam_step(params, grads, state, lr=0.01, weight_decay=5e-4)
        return params

    a, b = run(), run()
    for x, y in zip(a.arrays(), b.arrays()):
        assert np.array_equal(x, y)


def test_check_gradients_passes():
    report = check_gradients(RngState(0))
    assert report.passed
    assert "gcn_backward_wrt_prop" in report.errors
    assert "gcn_backward/sparse_features" in report.errors
    assert max(report.errors.values()) < 1e-5


def test_check_gradients_multiple_seeds():
    for seed in (1, 2, 3):
        assert check_gradients(RngState(seed)).passed


def test_mutated_backward_is_flagged():
    # flipping the sign of one analytic gradient block must blow past the gate
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)], [0, 1, 0, 1, 0],
                    features=np.random.default_rng(10).standard_normal((5, 3)))
    prop = normalize_adjacency(g.adjacency)
    params = init_params(3, 3, 2, RngState(31), dtype=np.float64)
    mask = np.ones(5, dtype=bool)

    lp, cache = gcn_forward(params, g.features, prop)
    _, grad_lp = nll_loss(lp, g.labels, mask)
    grads = gcn_backward(cache, grad_lp)
    grads.w1 = -grads.w1  # deliberate sign-flip mutation

    def loss_of(vec):
        theta = vector_to_params(vec, params)
        lp2, _ = gcn_forward(theta, g.features, prop)
        return nll_loss(lp2, g.labels, mask)[0]

    numeric = finite_difference_grad(loss_of, params_to_vector(params))
    assert relative_gradient_error(params_to_vector(grads), numeric) > 1e-2


def test_backward_is_the_adjoint_for_a_non_symmetric_propagation():
    # a 6-node P whose pattern and values are both not symmetric, so a
    # backward pass that multiplied by P instead of P^T would be far off
    gen = np.random.default_rng(12)
    pattern = gen.random((6, 6)) < 0.5
    np.fill_diagonal(pattern, True)
    rows, cols = np.nonzero(pattern)
    prop = csr_from_keys(6, rows * 6 + cols, values=gen.uniform(0.1, 1.0, rows.shape[0]))
    dense = prop.to_dense()
    assert not np.array_equal(pattern, pattern.T) and not np.array_equal(dense, dense.T)
    x = gen.standard_normal((6, 4))
    labels = gen.integers(0, 3, size=6)
    mask = np.array([True, False, True, True, False, True])
    params = init_params(4, 3, 3, RngState(13), dtype=np.float64)
    keep = dropout_mask(RngState(14), (6, 3), 0.5)
    for p_drop, mask_keep in ((0.0, None), (0.5, keep)):
        lp, cache = gcn_forward(params, x, prop, p_drop, mask_keep)
        grads = gcn_backward(cache, nll_loss(lp, labels, mask)[1])

        def loss_of(vec):
            lp2, _ = gcn_forward(vector_to_params(vec, params), x, prop, p_drop, mask_keep)
            return nll_loss(lp2, labels, mask)[0]

        numeric = finite_difference_grad(loss_of, params_to_vector(params))
        assert relative_gradient_error(params_to_vector(grads), numeric) < 1e-5, p_drop


def test_spmm_reuses_one_scipy_matrix_per_dtype():
    g = build_graph(5, [(0, 1), (1, 2), (3, 4)], [0, 1, 0, 1, 0])
    prop = normalize_adjacency(g.adjacency)
    h64 = np.random.default_rng(11).standard_normal((5, 3))
    for h in (h64, h64.astype(np.float32)):
        for transpose in (False, True):
            first = spmm(prop, h, transpose=transpose)
            matrix = prop.scipy_by_dtype[h.dtype, transpose]
            again = spmm(prop, h, transpose=transpose)
            assert prop.scipy_by_dtype[h.dtype, transpose] is matrix
            assert again.dtype == h.dtype and np.array_equal(again, first)
        back = prop.scipy_by_dtype[h.dtype, True]  # a CSC view of P's arrays
        assert back.format == "csc" and back.shape == prop.shape[::-1]
    assert np.shares_memory(prop.scipy_by_dtype[h64.dtype, True].data, prop.values)
    assert len(prop.scipy_by_dtype) == 4


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_sparse_feature_products_match_dense(dtype, tol):
    g = sbm_graph([14, 13, 13], p_in=0.3, p_out=0.05, seed=12, feature_dim=4)
    x = sparse_binary_features(40, 60, seed=5).astype(dtype)
    assert not x[0].any() and not x[:, -1].any()
    x_csr = feature_operand(x, dtype)
    assert not isinstance(x_csr, np.ndarray) and x_csr.dtype == dtype
    params = init_params(60, 8, 3, RngState(4), dtype=dtype)
    mask = np.zeros(40, dtype=bool)
    mask[::3] = True
    keep = dropout_mask(RngState(6), (40, 8), 0.5)
    for prop in (normalize_adjacency(g.adjacency), None):
        lp, cache = gcn_forward(params, x, prop, 0.5, keep)
        lp_csr, cache_csr = gcn_forward(params, x_csr, prop, 0.5, keep)
        assert lp_csr.dtype == dtype
        assert relative_gradient_error(lp_csr, lp) < tol
        _, grad_lp = nll_loss(lp, g.labels, mask)
        grads = gcn_backward(cache, grad_lp)
        grads_csr = gcn_backward(cache_csr, grad_lp)
        for a, b in zip(grads_csr.arrays(), grads.arrays()):
            assert a.dtype == dtype and relative_gradient_error(a, b) < tol
        assert not grads_csr.w1[-1].any()  # the all-zero feature column


def test_feature_operand_density_rule_and_cache():
    x_at = np.zeros((20, 20))
    limit = int(FEATURE_CSR_MAX_DENSITY * x_at.size)
    x_at.flat[:limit] = 1.0
    x_above = x_at.copy()
    x_above.flat[limit] = 1.0
    for dtype in (np.float64, np.float32):
        op = feature_operand(x_at, dtype)
        assert not isinstance(op, np.ndarray) and op.dtype == dtype
        assert np.array_equal(op.toarray(), x_at)
    assert feature_operand(x_above, np.float64) is x_above

    g = build_graph(20, [(0, 1)], [0, 1] * 10, features=x_at)
    first = feature_operand(g.features, np.float32, g.feature_operands)
    assert feature_operand(g.features, np.float32, g.feature_operands) is first
    other = g.with_adjacency(g.adjacency)  # same feature array, e.g. a poisoned copy
    assert feature_operand(other.features, np.float32, other.feature_operands) is first
    g.features = x_at.copy()  # reassigned: equal values, another array
    second = feature_operand(g.features, np.float32, g.feature_operands)
    assert second is not first and np.array_equal(second.toarray(), x_at)
    assert feature_operand(g.features, np.float32, g.feature_operands) is second
    g.features = x_above
    assert feature_operand(g.features, np.float64, g.feature_operands) is x_above
    assert set(g.feature_operands) == {np.dtype(np.float32), np.dtype(np.float64)}
