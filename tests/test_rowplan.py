"""Training on the rows the loss reads: `RowPlan` operands, and the sliced
`_supervised_loop` against a full-graph reference loop written here."""

import numpy as np
import pytest

from sfrgnn import nn, trainer
from sfrgnn.cli import main
from sfrgnn.errors import AugmentationError, DatasetFormatError
from sfrgnn.graph import (
    Graph,
    SplitMasks,
    csr_from_edge_pairs,
    load_graph,
    normalize_adjacency,
    write_graph,
)
from sfrgnn.nn import (
    AdamState,
    ModelParams,
    RowPlan,
    adam_step,
    feature_operand,
    gcn_backward,
    gcn_forward,
    infonce_loss,
    init_params,
    nll_loss,
)
from sfrgnn.rng import RngState
from sfrgnn.synth import sbm_graph
from sfrgnn.trainer import TrainConfig, VARIANTS, train

from conftest import sparse_binary_features

TOL = {"f64": 1e-12, "f32": 1e-5}


def reference_train(g, cfg, variant, rng):
    """`train` as a full-graph loop: every epoch runs gcn_forward, nll_loss,
    gcn_backward and adam_step on all rows. Returns (params, losses)."""
    dtype = cfg.dtype
    losses = []

    def loop(target, prop, epochs, stage_name, params=None, view=None):
        x = feature_operand(target.features, dtype)
        if params is None:
            params = init_params(x.shape[1], cfg.hidden, target.num_classes, rng, dtype)
        state = AdamState.zeros_like(params)
        for epoch in range(epochs):
            drop_rng = rng.substream(f"{stage_name}-dropout-{epoch}")
            keep = nn.dropout_mask(drop_rng, (target.num_nodes, cfg.hidden), cfg.dropout)
            lp, cache = gcn_forward(params, x, prop, cfg.dropout, keep)
            loss, grad_lp = nll_loss(lp, target.labels, target.splits.train)
            if view is None:
                grads = gcn_backward(cache, grad_lp)
            else:
                x_aug, prop_aug, mask = view
                _, cache_aug = gcn_forward(params, x_aug, prop_aug, cfg.dropout, keep)
                loss_c, gh, gh_aug = infonce_loss(cache.h, cache_aug.h, mask, cfg.temperature)
                loss += loss_c
                g1 = gcn_backward(cache, grad_lp, grad_hidden=gh)
                g2 = gcn_backward(cache_aug, np.zeros_like(lp), grad_hidden=gh_aug)
                grads = ModelParams(*(a + b for a, b in zip(g1.arrays(), g2.arrays())))
            adam_step(params, grads, state, cfg.lr, cfg.weight_decay)
            losses.append(loss)
        return params

    if variant in ("gcn", "gcn_jaccard"):
        target = trainer.jaccard_prune(g) if variant == "gcn_jaccard" else g
        prop = normalize_adjacency(target.adjacency)
        return loop(target, prop, cfg.pretrain_epochs, "pretrain"), losses
    params = loop(g, None, cfg.pretrain_epochs, "pretrain")
    if variant in ("mlp", "sfr_no_fin"):
        return params, losses
    if variant == "sfr":
        aug = trainer.internaa(g, rng, cfg.internaa_ratio)
    elif variant == "sfr_ran":
        aug = trainer._donor_augmentation(g, rng, cfg.internaa_ratio, inter_class=False)
    elif variant in ("sfr_nd", "sfr_er", "sfr_fm"):
        aug = trainer._ablation_view(g, rng, variant.split("_", 1)[1])
    else:
        aug = None
    prop = normalize_adjacency(g.adjacency)
    view = None
    if aug is not None:
        override = aug.adjacency_override
        prop_aug = prop if override is None else normalize_adjacency(override)
        view = (feature_operand(aug.x_inter, dtype), prop_aug, g.splits.train & aug.replaced_mask)
    return loop(g, prop, cfg.finetune_epochs, "finetune", params.copy(), view), losses


def with_train(g, train_ids, features=None):
    """g with training set `train_ids`; the other nodes split val/test."""
    n = g.num_nodes
    train_mask = np.zeros(n, dtype=bool)
    train_mask[train_ids] = True
    val = ~train_mask & (np.arange(n) % 2 == 0)
    return Graph(
        features=g.features if features is None else features,
        adjacency=g.adjacency,
        labels=g.labels,
        splits=SplitMasks(train=train_mask, val=val, test=~train_mask & ~val),
        num_classes=g.num_classes,
    )


def sparse_sbm(seed=21):
    return sbm_graph([16, 16, 16], p_in=0.08, p_out=0.01, seed=seed, feature_dim=6,
                     separation=1.0, train_ratio=0.2, val_ratio=0.2)


def case_isolated_train_node():
    g = sparse_sbm()
    train_ids = np.flatnonzero(g.splits.train)
    lone = int(train_ids[0])
    pairs = g.adjacency.edge_pairs()
    pairs = pairs[(pairs[:, 0] != lone) & (pairs[:, 1] != lone)]
    g = g.with_adjacency(csr_from_edge_pairs(g.num_nodes, pairs))
    assert g.adjacency.degrees()[lone] == 0
    return with_train(g, train_ids, features=sparse_binary_features(g.num_nodes, 120, seed=4))


def case_closure_is_every_node():
    g = sbm_graph([12, 12], p_in=0.5, p_out=0.2, seed=22, feature_dim=5,
                  train_ratio=0.3, val_ratio=0.2)
    plan = RowPlan.closure(normalize_adjacency(g.adjacency), np.flatnonzero(g.splits.train))
    assert plan.input_rows.shape[0] == g.num_nodes
    return g


def case_one_training_node():
    g = sparse_sbm(seed=23)
    return with_train(g, [int(np.argmax(g.adjacency.degrees()))])


def case_partial_closure():
    g = sparse_sbm(seed=24)
    plan = RowPlan.closure(normalize_adjacency(g.adjacency), np.flatnonzero(g.splits.train))
    assert plan.hidden_rows.shape[0] < plan.input_rows.shape[0] < g.num_nodes
    return with_train(g, np.flatnonzero(g.splits.train),
                      features=sparse_binary_features(g.num_nodes, 90, seed=5))


CASES = {
    "isolated_train_node": case_isolated_train_node,
    "closure_is_every_node": case_closure_is_every_node,
    "one_training_node": case_one_training_node,
    "partial_closure": case_partial_closure,
}


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sliced_loop_matches_full_graph_reference(case, precision):
    g = CASES[case]()
    cfg = TrainConfig(pretrain_epochs=25, finetune_epochs=8, precision=precision)
    tol = TOL[precision]
    for variant in VARIANTS:  # sfr_nd / sfr_er run their own override plans
        try:
            ref_params, ref_losses = reference_train(g, cfg, variant, RngState(11))
        except AugmentationError:
            with pytest.raises(AugmentationError):
                train(g, cfg, variant, RngState(11))
            continue
        model = train(g, cfg, variant, RngState(11))
        h = model.history
        losses = h.pretrain.losses + h.finetune.losses
        np.testing.assert_allclose(losses, ref_losses, rtol=tol, atol=tol, err_msg=variant)
        for got, want in zip(model.params.arrays(), ref_params.arrays()):
            assert got.dtype == want.dtype
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol, err_msg=variant)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("seed", [51, 52])
def test_sliced_loop_is_bitwise_the_full_graph_loop_at_cora_size(seed, precision):
    """At Cora's shape (2,709 nodes, mean degree about 4, 1,433 sparse binary
    features) the sliced loop's params equal the full-graph loop's exactly.
    Its dense products on row subsets round as the full ones only by a
    property of the BLAS, and the benchmark digests rest on that property."""
    g = sbm_graph([387] * 7, p_in=3.2 / 386, p_out=0.8 / 2321, seed=seed)
    g.features = sparse_binary_features(g.num_nodes, 1433, seed)
    cfg = TrainConfig(pretrain_epochs=30, finetune_epochs=5, precision=precision)
    for variant in ("mlp", "gcn", "sfr"):
        want, _ = reference_train(g, cfg, variant, RngState(seed))
        got = train(g, cfg, variant, RngState(seed)).params
        assert all(np.array_equal(a, b) for a, b in zip(got.arrays(), want.arrays())), (
            f"{variant} ({precision}): the sliced loop no longer equals the full-graph "
            "loop bitwise at Cora's shape; the numpy or BLAS build rounds row-subset "
            "products differently, which will move the benchmark digests"
        )


def entry_keys(m):
    return m.entry_rows() * m.shape[1] + m.col_indices


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_plan_operands_are_the_dense_blocks_in_stored_order(seed):
    g = sparse_sbm(seed)
    prop = normalize_adjacency(g.adjacency)
    dense = prop.to_dense()
    t = np.flatnonzero(g.splits.train)
    plan = RowPlan.closure(prop, t)
    r1 = np.flatnonzero((dense[t] != 0).any(axis=0))
    r2 = np.flatnonzero((dense[r1] != 0).any(axis=0))
    np.testing.assert_array_equal(plan.hidden_rows, r1)
    np.testing.assert_array_equal(plan.input_rows, r2)
    for m, rows, cols in ((plan.layer1, r1, r2), (plan.layer2, t, r1)):
        assert m.shape == (rows.shape[0], cols.shape[0])
        block = dense[np.ix_(rows, cols)]
        rr, cc = np.nonzero(block)  # row-major: columns ascending within a row
        assert m.row_offsets.dtype == np.int64 and m.col_indices.dtype == np.int64
        np.testing.assert_array_equal(m.entry_rows(), rr)
        np.testing.assert_array_equal(m.col_indices, cc)
        assert np.all(np.diff(entry_keys(m)) > 0)
        np.testing.assert_array_equal(m.values, block[rr, cc])  # P's values, bitwise
    # the backward products through the transposes equal, as bytes, those
    # through the sliced blocks P[R1, T] and P[R2, R1] of the full matrix
    gen = np.random.default_rng(seed)
    for dtype in (np.float32, np.float64):
        for m, rows, cols in ((plan.layer2, r1, t), (plan.layer1, r2, r1)):
            grad = gen.standard_normal((cols.shape[0], 16)).astype(dtype)
            got = nn.spmm(m, grad, transpose=True)
            assert got.tobytes() == nn.spmm(prop.block(rows, cols), grad).tobytes()
    bare = RowPlan.closure(None, t)
    assert bare.hidden_rows is t and bare.input_rows is t and bare.layer1 is None


@pytest.mark.parametrize("inside, extra", [(True, 0), (False, 1)])
def test_operand_kind_follows_the_whole_feature_array(monkeypatch, inside, extra):
    # features at the CSR density limit with every nonzero in the input rows
    # R2, which alone are denser; or one nonzero above it, all outside R2
    g = sparse_sbm(seed=41)
    n, d = g.num_nodes, 100
    prop = normalize_adjacency(g.adjacency)
    r2 = RowPlan.closure(prop, np.flatnonzero(g.splits.train)).input_rows
    rows = r2 if inside else np.setdiff1d(np.arange(n), r2)
    count = int(nn.FEATURE_CSR_MAX_DENSITY * n * d) + extra
    x = np.zeros((n, d))
    x.ravel()[(rows[:, None] * d + np.arange(d)).ravel()[:count]] = 1.0
    g.features = x
    aug = trainer.AugmentedFeatures(x.copy(), g.splits.train.copy(), {})
    kinds = []
    real = trainer.gcn_forward

    def spy(params, x_op, *args):
        kinds.append(type(x_op))
        return real(params, x_op, *args)

    monkeypatch.setattr(trainer, "gcn_forward", spy)
    params_p, _ = trainer.pretrain(g, TrainConfig(pretrain_epochs=1), RngState(2))
    trainer.finetune(g, params_p, aug, TrainConfig(finetune_epochs=1), RngState(3))
    assert len(kinds) == 3  # pretraining, then both views
    assert set(kinds) == {type(feature_operand(x, np.float32))}
    assert (kinds[0] is np.ndarray) == bool(extra)


def test_contrastive_epoch_draws_one_dropout_mask(monkeypatch):
    g = sparse_sbm(seed=42)
    draws = []
    real = trainer.dropout_mask

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(trainer, "dropout_mask", counted)
    cfg = TrainConfig(pretrain_epochs=3, finetune_epochs=4)
    train(g, cfg, "sfr", RngState(1))
    assert len(draws) == 3 + 4  # one per epoch, shared by both views


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_non_finite_feature_outside_the_closure_fails_at_load(tmp_path, capsys, bad):
    g = sparse_sbm(seed=43)
    plan = RowPlan.closure(normalize_adjacency(g.adjacency), np.flatnonzero(g.splits.train))
    outside = np.setdiff1d(np.arange(g.num_nodes), plan.input_rows)
    assert outside.shape[0] > 0
    g.features = g.features.copy()
    g.features[outside[0], 2] = bad
    write_graph(g, tmp_path / "nan", binary_features=True)
    with pytest.raises(DatasetFormatError, match=f"row {outside[0]}"):
        load_graph(tmp_path / "nan")
    rc = main([
        "train", "--dataset", str(tmp_path / "nan"), "--variant", "gcn",
        "--repeats", "1", "--out", str(tmp_path / "r.json"),
    ])
    assert rc == DatasetFormatError.exit_code == 1
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_large_finite_features_load(tmp_path):
    g = sparse_sbm(seed=44)
    g.features = g.features.copy()
    g.features[3, 1] = 1e20
    write_graph(g, tmp_path / "big", binary_features=True)
    assert load_graph(tmp_path / "big").features[3, 1] == np.float32(1e20)
