import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from sfrgnn.errors import AugmentationError, ValidationError
from sfrgnn.graph import csr_from_edge_pairs, graph_stats, load_graph, write_graph
from sfrgnn.nn import feature_operand, gcn_forward
from sfrgnn.rng import RngState
from sfrgnn.synth import blob_features, sbm_graph
from sfrgnn.trainer import (
    TrainConfig,
    _donor_augmentation,
    finetune,
    internaa,
    jaccard_prune,
    predict,
    pretrain,
    train,
)

from conftest import build_graph, dense_view, path3_graph, sparse_binary_features


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))


F64 = TrainConfig(precision="f64")


def small_cfg(**kw):
    base = dict(pretrain_epochs=30, finetune_epochs=8, precision="f64")
    base.update(kw)
    return TrainConfig(**base)


def test_pretrain_is_structurally_isolated():
    labels = [0, 1] * 10
    feats = np.random.default_rng(0).standard_normal((20, 6))
    g_sparse = build_graph(20, [(0, 1), (2, 3)], labels, train=range(8), features=feats)
    dense_edges = [(i, j) for i in range(20) for j in range(i + 1, 20) if (i + j) % 3 == 0]
    g_dense = build_graph(20, dense_edges, labels, train=range(8), features=feats)

    cfg = small_cfg()
    p1, _ = pretrain(g_sparse, cfg, RngState(7))
    p2, _ = pretrain(g_dense, cfg, RngState(7))
    z1, _ = gcn_forward(p1, g_sparse.features, None)
    z2, _ = gcn_forward(p2, g_dense.features, None)
    assert params_equal(p1, p2)
    assert np.array_equal(z1, z2)


def test_pretrain_zero_epochs_returns_init_params():
    g = path3_graph()
    cfg = small_cfg(pretrain_epochs=0, finetune_epochs=1)
    params, _ = pretrain(g, cfg, RngState(3))
    from sfrgnn.nn import init_params

    expected = init_params(g.features.shape[1], cfg.hidden, g.num_classes, RngState(3),
                           dtype=cfg.dtype)
    assert params_equal(params, expected)


@pytest.mark.parametrize("variant", ["gcn", "gcn_jaccard", "mlp", "sfr_no_fin"])
def test_variant_that_trains_only_in_pretraining_refuses_zero_pretrain_epochs(variant):
    # these variants never fine-tune, so 0 pretraining epochs would return the
    # untrained init params, at chance accuracy, without an error
    g = sbm_graph([20, 20], p_in=0.4, p_out=0.05, seed=3, feature_dim=6)
    with pytest.raises(ValidationError, match=f"variant '{variant}'"):
        train(g, small_cfg(pretrain_epochs=0, finetune_epochs=5), variant, RngState(1))


def test_fine_tuned_variant_trains_with_zero_pretrain_epochs():
    g = sbm_graph([20, 20], p_in=0.4, p_out=0.05, seed=3, feature_dim=6)
    model = train(g, small_cfg(pretrain_epochs=0, finetune_epochs=5), "sfr_no_cl", RngState(1))
    assert model.history.pretrain.epochs == 0 and model.history.finetune.epochs == 5


def logistic_regression_accuracy(x, y, train_mask, epochs=500, lr=0.5):
    """Independent oracle: plain batch gradient-descent logistic regression."""
    classes = int(y.max()) + 1
    w = np.zeros((x.shape[1], classes))
    b = np.zeros(classes)
    xt, yt = x[train_mask], y[train_mask]
    onehot = np.eye(classes)[yt]
    for _ in range(epochs):
        logits = xt @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        grad = xt.T @ (p - onehot) / xt.shape[0]
        w -= lr * grad
        b -= lr * (p - onehot).mean(axis=0)
    pred = np.argmax(x @ w + b, axis=1)
    return float((pred[train_mask] == y[train_mask]).mean())


def test_pretrain_separable_blobs_reach_train_accuracy():
    rng = RngState(17)
    labels = np.repeat(np.arange(2, dtype=np.int64), 20)
    feats = blob_features(labels, dim=6, separation=3.0, rng=rng)
    g = build_graph(40, [], labels, train=range(0, 40, 2), features=feats)

    oracle_acc = logistic_regression_accuracy(feats, labels, g.splits.train)
    assert oracle_acc >= 0.95  # the data really is separable

    cfg = TrainConfig(pretrain_epochs=200, finetune_epochs=0, precision="f64")
    params, _ = pretrain(g, cfg, RngState(23))
    z, _ = gcn_forward(params, g.features, None)
    pred = np.argmax(z, axis=1)
    acc = float((pred[g.splits.train] == labels[g.splits.train]).mean())
    assert acc >= 0.95


def test_internaa_contract_on_random_graphs():
    rng_data = np.random.default_rng(11)
    for seed in range(10):
        g = sbm_graph([8, 7, 6], p_in=0.4, p_out=0.1, seed=seed, feature_dim=5,
                      train_ratio=0.4, val_ratio=0.2)
        aug = internaa(g, RngState(seed), subsample_ratio=1.0)
        train_ids = np.flatnonzero(g.splits.train)
        assert set(np.flatnonzero(aug.replaced_mask)) == set(train_ids)
        degrees = g.adjacency.degrees()
        x_inter = dense_view(g, aug)
        for v, donors in aug.sample_log.items():
            assert donors.shape[0] == max(int(degrees[v]), 1)
            assert np.all(g.labels[donors] != g.labels[v])
            assert np.all(g.splits.train[donors])
            np.testing.assert_allclose(
                x_inter[v], g.features[donors].mean(axis=0), atol=1e-12, rtol=0
            )
        untouched = ~aug.replaced_mask
        np.testing.assert_array_equal(x_inter[untouched], g.features[untouched])


@pytest.mark.parametrize("features", ["sparse_f32", "dense"])
@pytest.mark.parametrize("inter_class", [True, False])
def test_internaa_patch_is_the_donor_mean_bit_for_bit(features, inter_class):
    # four training nodes per class against degrees near 12, so most pools
    # are smaller than the request and repeat donors
    g = sbm_graph([20, 20], p_in=0.6, p_out=0.05, seed=9, feature_dim=40,
                  train_ratio=0.2, val_ratio=0.2)
    gen = np.random.default_rng(9)
    if features == "sparse_f32":  # 4% dense and of spread magnitudes, so that
        # a column three donors share sums to other bits in another order
        scale = gen.standard_normal((40, 300)) * 10.0 ** gen.uniform(-3, 3, (40, 300))
        g.features = ((gen.random((40, 300)) < 0.04) * scale).astype(np.float32)
    assert isinstance(feature_operand(g.features, g.features.dtype), np.ndarray) == (
        features == "dense"
    )
    aug = _donor_augmentation(g, RngState(3), 1.0, inter_class)
    np.testing.assert_array_equal(aug.rows, list(aug.sample_log))
    assert aug.values.dtype == np.float64
    assert any(np.unique(d).shape[0] < d.shape[0] for d in aug.sample_log.values())
    for row, donors in zip(aug.values, aug.sample_log.values()):
        assert row.tobytes() == g.features[donors].mean(axis=0, dtype=np.float64).tobytes()


def test_internaa_peak_memory_is_bounded_by_its_patch():
    """At Cora's shape (2,709 nodes, 1,433 features at about 1.3% density)
    InterNAA's traced peak stays under two |selected| x d float64 arrays,
    once the graph's feature operand is built: 3.8 MB against 6.2 MB. The
    N x d float64 copy of the features it used to write traced 31.2 MB."""
    g = sbm_graph([387] * 7, p_in=3.2 / 386, p_out=0.8 / 2321, seed=52)
    g.features = (np.random.default_rng(52).random((g.num_nodes, 1433)) < 0.013) * 1.0
    feature_operand(g.features, g.features.dtype, g.feature_operands)
    tracemalloc.start()
    try:
        aug = internaa(g, RngState(52))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * aug.rows.shape[0] * g.features.shape[1] * 8
    assert aug.rows.shape[0] == g.splits.train.sum() and peak < bound, (peak, bound)


def test_internaa_keeps_no_float64_operand_of_float64_features():
    g = sbm_graph([12, 12], p_in=0.4, p_out=0.05, seed=53, feature_dim=6,
                  train_ratio=0.4, val_ratio=0.2)
    assert g.features.dtype == np.float64
    cfg = TrainConfig(pretrain_epochs=2, finetune_epochs=2, precision="f32")
    train(g, cfg, "sfr", RngState(53))
    assert set(g.feature_operands) == {np.dtype(np.float32)}


def test_internaa_identical_donor_features_give_that_feature():
    feats = np.zeros((6, 3))
    feats[1:] = [1.0, 2.0, 3.0]  # every possible donor row is identical
    g = build_graph(6, [(0, 1), (0, 2)], [0, 1, 1, 1, 1, 1], train=range(6), features=feats)
    aug = internaa(g, RngState(2))
    np.testing.assert_array_equal(dense_view(g, aug)[0], [1.0, 2.0, 3.0])


def test_internaa_degree_zero_samples_one_donor():
    g = build_graph(5, [(1, 2)], [0, 1, 0, 1, 0], train=range(5))
    aug = internaa(g, RngState(4))
    assert aug.sample_log[0].shape[0] == 1
    assert aug.sample_log[3].shape[0] == 1


def test_internaa_single_class_training_set_errors():
    g = build_graph(6, [(0, 1)], [0, 0, 0, 1, 1, 1], train=[0, 1, 2])
    with pytest.raises(AugmentationError):
        internaa(g, RngState(1))


def test_internaa_subsample_ratio():
    g = sbm_graph([10, 10], p_in=0.4, p_out=0.1, seed=3, feature_dim=4,
                  train_ratio=0.5, val_ratio=0.2)
    aug = internaa(g, RngState(5), subsample_ratio=0.5)
    n_train = int(g.splits.train.sum())
    assert aug.replaced_mask.sum() == round(0.5 * n_train)
    assert np.all(g.splits.train[aug.replaced_mask])


def test_finetune_zero_epochs_returns_pretrain_params_bitwise():
    g = sbm_graph([6, 6], p_in=0.5, p_out=0.1, seed=8, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    cfg = small_cfg(finetune_epochs=0)
    params_p, hist = pretrain(g, cfg, RngState(6))
    aug = internaa(g, RngState(6))
    model = finetune(g, params_p, aug, cfg, RngState(6), history=hist)
    assert params_equal(model.params, params_p)


def _with_added_edge(g):
    pairs = g.adjacency.edge_pairs()
    u, v = np.argwhere(np.triu(g.adjacency.to_dense() == 0, 1))[0]
    return csr_from_edge_pairs(g.num_nodes, np.vstack([pairs, [[u, v]]]))


def _replacing(aug, rows):
    """aug replacing the rows at the ascending ids `rows` alone."""
    mask = np.zeros(aug.replaced_mask.shape[0], dtype=bool)
    mask[rows] = True
    return replace(aug, rows=rows, values=aug.values[: rows.shape[0]], replaced_mask=mask)


VIEW_DEFECTS = {
    "rows_2d": (lambda a, g: replace(a, rows=a.rows[:, None]), "1-D integer"),
    "rows_float": (lambda a, g: replace(a, rows=a.rows.astype(float)), "1-D integer"),
    "rows_swapped": (lambda a, g: replace(a, rows=a.rows[[1, 0, *range(2, a.rows.shape[0])]]),
                     "strictly ascending"),
    "rows_reversed": (lambda a, g: replace(a, rows=a.rows[::-1], values=a.values[::-1]),
                      "strictly ascending"),
    "rows_duplicate": (lambda a, g: replace(a, rows=np.r_[a.rows[:1], a.rows],
                                            values=np.vstack([a.values[:1], a.values])),
                       "strictly ascending"),
    "rows_past_n": (lambda a, g: replace(a, rows=np.r_[a.rows, g.num_nodes],
                                         values=np.vstack([a.values, a.values[:1]])),
                    r"in \[0, 60\)"),
    "rows_negative": (lambda a, g: replace(a, rows=np.r_[-1, a.rows],
                                           values=np.vstack([a.values[:1], a.values])),
                      r"in \[0, 60\)"),
    "values_width": (lambda a, g: replace(a, values=a.values[:, :3]), "values"),
    "values_rows": (lambda a, g: replace(a, values=a.values[1:]), "values"),
    "mask_int": (lambda a, g: replace(a, replaced_mask=a.replaced_mask.astype(int)),
                 "replaced_mask"),
    "mask_short": (lambda a, g: replace(a, replaced_mask=a.replaced_mask[1:]), "replaced_mask"),
    "override_dim": (lambda a, g: replace(a, adjacency_override=csr_from_edge_pairs(
        g.num_nodes + 1, g.adjacency.edge_pairs())), "dimension 60"),
    "override_adds_edge": (lambda a, g: replace(a, adjacency_override=_with_added_edge(g)),
                           "edge the graph does not"),
    "no_training_anchor": (lambda a, g: _replacing(a, np.flatnonzero(~g.splits.train)[:3]),
                           "contrastive mask selects no training nodes"),
}


@pytest.mark.parametrize("defect", sorted(VIEW_DEFECTS))
def test_finetune_refuses_a_malformed_view(defect):
    # each defect would otherwise train on a view other than the one
    # described, or end in a raw numpy error
    g = sbm_graph([20, 20, 20], p_in=0.2, p_out=0.02, seed=17, feature_dim=8,
                  train_ratio=0.3, val_ratio=0.2)
    cfg = small_cfg(pretrain_epochs=2, finetune_epochs=2)
    params_p, _ = pretrain(g, cfg, RngState(4))
    aug = internaa(g, RngState(4))
    finetune(g, params_p, aug, cfg, RngState(4))  # the view as built trains
    make, match = VIEW_DEFECTS[defect]
    with pytest.raises(ValidationError, match=match):
        finetune(g, params_p, make(aug, g), cfg, RngState(4))


def test_finetune_improves_on_pretrain_for_homophilous_sbm():
    g = sbm_graph([10, 10], p_in=0.5, p_out=0.05, seed=12, feature_dim=6,
                  separation=0.8, train_ratio=0.2, val_ratio=0.2)
    cfg = TrainConfig(pretrain_epochs=150, finetune_epochs=30, precision="f64")
    pre_model = train(g, cfg, "sfr_no_fin", RngState(33))
    fin_model = train(g, cfg, "sfr", RngState(33))
    _, acc_pre = predict(pre_model, g)
    _, acc_fin = predict(fin_model, g)
    assert acc_fin["test"] >= acc_pre["test"]


def test_propagation_pass_and_spmm_counts_per_epoch():
    g = sbm_graph([8, 8], p_in=0.5, p_out=0.1, seed=14, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    cfg = small_cfg(finetune_epochs=5)
    with_cl = train(g, cfg, "sfr", RngState(3))
    without = train(g, cfg, "sfr_no_cl", RngState(3))
    assert with_cl.history.finetune.prop_passes == [2] * 5
    assert without.history.finetune.prop_passes == [1] * 5
    # 2 layers: each pass costs 2 forward + 2 backward kernel calls
    assert with_cl.history.finetune.spmm_calls == [8] * 5
    assert without.history.finetune.spmm_calls == [4] * 5
    assert with_cl.history.pretrain.spmm_calls == [0] * cfg.pretrain_epochs


def test_concurrent_trials_count_their_own_propagations():
    g = sbm_graph([8, 8], p_in=0.5, p_out=0.1, seed=14, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    cfg = small_cfg(finetune_epochs=20)
    start = threading.Barrier(2, timeout=60)

    def trial(seed):
        start.wait()  # both trials train at the same time
        return train(g, cfg, "sfr", RngState(seed))

    with ThreadPoolExecutor(max_workers=2) as pool:
        models = list(pool.map(trial, [3, 4]))
    for model, seed in zip(models, [3, 4]):
        assert model.history.finetune.spmm_calls == [8] * cfg.finetune_epochs
        # and each trains bitwise the model that the same call trains alone
        serial = train(g, cfg, "sfr", RngState(seed))
        assert [a.tobytes() for a in model.params.arrays()] == [
            a.tobytes() for a in serial.params.arrays()
        ]


def test_sparse_features_keep_propagation_counts():
    g = sbm_graph([8, 8], p_in=0.5, p_out=0.1, seed=14, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    g.features = sparse_binary_features(16, 200, seed=3)
    cfg = small_cfg(pretrain_epochs=5, finetune_epochs=5)
    gcn = train(g, cfg, "gcn", RngState(3))
    sfr = train(g, cfg, "sfr", RngState(3))
    operand = g.feature_operands[np.dtype(cfg.dtype)]
    assert operand[0] is g.features and not isinstance(operand[1], np.ndarray)
    # feature products are not propagations
    assert gcn.history.pretrain.spmm_calls == [4] * 5
    assert sfr.history.pretrain.spmm_calls == [0] * 5
    assert sfr.history.finetune.spmm_calls == [8] * 5


def test_history_lengths_and_positive_wall_times():
    g = sbm_graph([8, 8], p_in=0.5, p_out=0.1, seed=40, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    cfg = small_cfg(pretrain_epochs=12, finetune_epochs=7)
    model = train(g, cfg, "sfr", RngState(2))
    h = model.history
    assert h.pretrain.epochs == 12 and len(h.pretrain.epoch_ms) == 12
    assert h.finetune.epochs == 7 and len(h.finetune.epoch_ms) == 7
    assert all(ms > 0 for ms in h.pretrain.epoch_ms + h.finetune.epoch_ms)


def test_variant_nofin_equals_mlp_bitwise():
    g = sbm_graph([8, 8], p_in=0.4, p_out=0.1, seed=15, feature_dim=4,
                  train_ratio=0.3, val_ratio=0.2)
    cfg = small_cfg()
    a = train(g, cfg, "sfr_no_fin", RngState(44))
    b = train(g, cfg, "mlp", RngState(44))
    assert params_equal(a.params, b.params)


def test_gcn_beats_mlp_on_homophilous_sbm():
    g = sbm_graph([20, 20], p_in=0.4, p_out=0.02, seed=16, feature_dim=6,
                  separation=0.7, train_ratio=0.15, val_ratio=0.15)
    cfg = TrainConfig(pretrain_epochs=150, precision="f64")
    _, acc_gcn = predict(train(g, cfg, "gcn", RngState(5)), g)
    _, acc_mlp = predict(train(g, cfg, "mlp", RngState(5)), g)
    assert acc_gcn["test"] >= acc_mlp["test"]


def test_all_variants_dispatch():
    g = sbm_graph([8, 8], p_in=0.5, p_out=0.1, seed=17, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    cfg = small_cfg(pretrain_epochs=10, finetune_epochs=3)
    for variant in ("sfr", "sfr_no_cl", "sfr_no_fin", "sfr_nd", "sfr_er", "sfr_fm",
                    "sfr_ran", "gcn", "mlp", "gcn_jaccard"):
        model = train(g, cfg, variant, RngState(1))
        _, accs = predict(model, g)
        assert 0.0 <= accs["test"] <= 1.0
    with pytest.raises(ValidationError):
        train(g, cfg, "nope", RngState(1))


def test_end_to_end_determinism_bitwise():
    g = sbm_graph([9, 9], p_in=0.5, p_out=0.1, seed=18, feature_dim=4,
                  train_ratio=0.4, val_ratio=0.2)
    cfg = small_cfg()
    for variant in ("sfr", "gcn"):
        a = train(g, cfg, variant, RngState(77))
        b = train(g, cfg, variant, RngState(77))
        assert params_equal(a.params, b.params)
        assert a.history.pretrain.losses == b.history.pretrain.losses
        assert a.history.finetune.losses == b.history.finetune.losses


def test_predict_uniform_logits_tie_breaks_to_class_zero():
    from sfrgnn.nn import ModelParams
    from sfrgnn.trainer import TrainedModel, TrainingHistory

    g = path3_graph(labels=(0, 1, 0))
    params = ModelParams(
        w1=np.zeros((4, 2)), b1=np.zeros(2), w2=np.zeros((2, 2)), b2=np.zeros(2)
    )
    model = TrainedModel(params=params, variant="mlp", uses_prop=False,
                         history=TrainingHistory())
    pred, accs = predict(model, g)
    np.testing.assert_array_equal(pred, 0)
    assert accs["train"] == pytest.approx(
        float((g.labels[g.splits.train] == 0).mean())
    )


def test_predict_perfect_logits():
    from sfrgnn.nn import ModelParams
    from sfrgnn.trainer import TrainedModel, TrainingHistory

    g = path3_graph(labels=(0, 1, 1))
    feats = np.eye(3, 4)
    g.features = feats
    # w1 = identity-ish, w2 maps node identity onto its label with a margin
    w1 = np.eye(4, 3)
    w2 = np.zeros((3, 2))
    for node, lab in enumerate(g.labels):
        w2[node, lab] = 10.0
    params = ModelParams(w1=w1, b1=np.zeros(3), w2=w2, b2=np.zeros(2))
    model = TrainedModel(params=params, variant="mlp", uses_prop=False,
                         history=TrainingHistory())
    _, accs = predict(model, g)
    assert accs["train"] == 1.0
    assert accs["test"] == 1.0


def test_jaccard_threshold_zero_is_identity():
    g = sbm_graph([6, 6], p_in=0.5, p_out=0.2, seed=19, feature_dim=4)
    pruned = jaccard_prune(g, threshold=0.0)
    assert pruned.adjacency.nnz == g.adjacency.nnz


def test_jaccard_removes_disjoint_support_edge():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = build_graph(3, [(0, 1), (1, 2)], [0, 1, 1], features=feats)
    pruned = jaccard_prune(g, threshold=0.01)
    assert pruned.adjacency.nnz == 2  # only the overlapping-support edge survives
    assert pruned.adjacency.has_entry(1, 2)
    assert not pruned.adjacency.has_entry(0, 1)


def test_jaccard_matches_brute_force_oracle():
    rng = np.random.default_rng(20)
    feats = (rng.random((15, 12)) < 0.3).astype(float)
    edges = [(i, j) for i in range(15) for j in range(i + 1, 15) if rng.random() < 0.3]
    g = build_graph(15, edges, rng.integers(0, 2, 15), features=feats)
    threshold = 0.2
    pruned = jaccard_prune(g, threshold=threshold)

    survivors = set()
    for u, v in g.adjacency.edge_pairs():
        a, b = set(np.flatnonzero(feats[u])), set(np.flatnonzero(feats[v]))
        union = len(a | b)
        jac = len(a & b) / union if union else 0.0
        if jac >= threshold:
            survivors.add((u, v))
    assert {tuple(p) for p in pruned.adjacency.edge_pairs()} == survivors


def test_config_validation():
    with pytest.raises(ValidationError):
        TrainConfig(pretrain_epochs=0, finetune_epochs=0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(internaa_ratio=0.0).validate()
    with pytest.raises(ValidationError):
        TrainConfig(precision="f16").validate()


def test_config_rejects_nonsense_model_settings():
    inf, nan = float("inf"), float("nan")
    for bad in (dict(hidden=0), dict(lr=0.0), dict(lr=-0.1), dict(lr=nan), dict(lr=inf),
                dict(weight_decay=-1e-4), dict(weight_decay=inf), dict(weight_decay=nan),
                dict(temperature=inf), dict(temperature=nan), dict(temperature=-inf),
                dict(hidden=16.0), dict(hidden=nan), dict(hidden=True),
                dict(pretrain_epochs=2.5), dict(pretrain_epochs=inf),
                dict(finetune_epochs=1.5), dict(finetune_epochs=False)):
        with pytest.raises(ValidationError):
            TrainConfig(**bad).validate()
    TrainConfig(hidden=np.int64(8), pretrain_epochs=np.int32(3),
                finetune_epochs=np.uint8(2)).validate()  # numpy integers are counts


@pytest.mark.parametrize("precision, sparse", [
    ("f32", False), ("f64", False), ("f32", True), ("f64", True),
], ids=["f32", "f64", "f32-sparse", "f64-sparse"])
def test_sidecar_and_tsv_features_train_bitwise_identically(tmp_path, precision, sparse):
    g = sbm_graph([15, 15, 15], p_in=0.3, p_out=0.03, seed=8, feature_dim=6,
                  train_ratio=0.3, val_ratio=0.2)
    if sparse:  # binary bag-of-words, multiplied as CSR
        g.features = sparse_binary_features(g.num_nodes, 200, seed=8)
    else:
        g.features = np.round(g.features * 64.0) / 64.0  # exact in float32
    write_graph(g, tmp_path / "tsv")
    write_graph(g, tmp_path / "bin", binary_features=True)
    g_tsv, g_bin = load_graph(tmp_path / "tsv"), load_graph(tmp_path / "bin")
    assert g_tsv.features.dtype == np.float64 and g_bin.features.dtype == np.float32
    cfg = TrainConfig(pretrain_epochs=25, finetune_epochs=6, precision=precision)
    assert isinstance(feature_operand(g_bin.features, cfg.dtype), np.ndarray) != sparse
    for variant in ("mlp", "gcn", "sfr"):
        m_tsv = train(g_tsv, cfg, variant, RngState(9))
        m_bin = train(g_bin, cfg, variant, RngState(9))
        # run to run: a fresh load, so the feature operand is built again
        m_again = train(load_graph(tmp_path / "bin"), cfg, variant, RngState(9))
        for a, b, c in zip(m_tsv.params.arrays(), m_bin.params.arrays(), m_again.params.arrays()):
            assert a.dtype == b.dtype == cfg.dtype and a.tobytes() == b.tobytes(), variant
            assert c.tobytes() == b.tobytes(), variant
        pred_tsv, acc_tsv = predict(m_tsv, g_tsv)
        pred_bin, acc_bin = predict(m_bin, g_bin)
        assert np.array_equal(pred_tsv, pred_bin) and acc_tsv == acc_bin, variant
