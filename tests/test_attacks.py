import numpy as np
import pytest

from sfrgnn.attacks import (
    GRAD_ATTACK_NODE_CAP,
    PerturbationPlan,
    apply_perturbation,
    dice_attack,
    invert_plan,
    load_plan,
    perturbation_stats,
    random_flip_attack,
    save_plan,
    sgc_gradient_attack,
)
from sfrgnn.errors import CapacityError, ValidationError
from sfrgnn.graph import csr_from_edge_pairs, graph_stats, normalize_adjacency
from sfrgnn.nn import gcn_forward, nll_loss
from sfrgnn.rng import RngState
from sfrgnn.synth import sbm_graph
from sfrgnn.trainer import TrainConfig, train

from conftest import build_graph, path3_graph


def dice_ready_sbm(seed=0, blocks=(12, 12), p_in=0.5, p_out=0.05):
    return sbm_graph(list(blocks), p_in=p_in, p_out=p_out, seed=seed, feature_dim=5,
                     train_ratio=0.5, val_ratio=0.2)


def test_random_attack_budget_arithmetic():
    g = dice_ready_sbm(1)
    e = g.adjacency.nnz // 2
    plan = random_flip_attack(g, 0.10, RngState(2))
    assert plan.budget == round(0.10 * e)
    assert plan.ptb_ratio == 0.10
    assert len(plan.flips) == plan.budget
    plan.validate_against(g)


def test_random_attack_zero_budget_empty_plan():
    g = path3_graph()
    plan = random_flip_attack(g, 0.1, RngState(1))  # round(0.1 * 2) == 0
    assert plan.flips == [] and plan.budget == 0


def test_random_attack_deterministic():
    g = dice_ready_sbm(3)
    a = random_flip_attack(g, 0.2, RngState(5))
    b = random_flip_attack(g, 0.2, RngState(5))
    assert a.flips == b.flips


def test_random_attack_rejects_out_of_range_ptb():
    g = path3_graph()
    with pytest.raises(ValidationError):
        random_flip_attack(g, 0.6, RngState(1))
    with pytest.raises(ValidationError):
        random_flip_attack(g, -0.1, RngState(1))


def test_dice_respects_class_structure():
    g = dice_ready_sbm(4)
    plan = dice_attack(g, 0.2, RngState(6))
    plan.validate_against(g)
    train_mask = g.splits.train
    for action, u, v in plan.flips:
        if not (train_mask[u] and train_mask[v]):
            continue  # random fallback flips may touch any pair
        if action == "remove":
            assert g.labels[u] == g.labels[v]
        else:
            assert g.labels[u] != g.labels[v]


def test_dice_lowers_homophily():
    g = dice_ready_sbm(7)
    plan = dice_attack(g, 0.2, RngState(8))
    attacked = apply_perturbation(g, plan)
    assert graph_stats(attacked).homophily_ratio < graph_stats(g).homophily_ratio


def test_dice_deterministic():
    g = dice_ready_sbm(7)
    assert dice_attack(g, 0.2, RngState(8)).flips == dice_attack(g, 0.2, RngState(8)).flips


def test_dice_single_class_training_degrades_to_random():
    labels = [0] * 6 + [1] * 2
    g = build_graph(8, [(0, 1), (2, 3), (4, 5)], labels, train=[0, 1, 2, 3])
    plan = dice_attack(g, 0.5, RngState(9))  # removal pool exists, addition pool empty
    plan.validate_against(g)
    assert len(plan.flips) == plan.budget


def test_apply_empty_plan_is_identity():
    g = dice_ready_sbm(10)
    plan = PerturbationPlan(flips=[], budget=0, ptb_ratio=0.0)
    attacked = apply_perturbation(g, plan)
    assert np.array_equal(attacked.adjacency.col_indices, g.adjacency.col_indices)
    assert np.array_equal(attacked.features, g.features)


def test_apply_add_edge_to_path():
    g = path3_graph()
    plan = PerturbationPlan(flips=[("add", 0, 2)], budget=1, ptb_ratio=0.5)
    attacked = apply_perturbation(g, plan)
    assert attacked.adjacency.nnz // 2 == 3
    attacked.adjacency.validate()


def test_apply_rejects_mismatched_plan():
    g = path3_graph()
    with pytest.raises(ValidationError):
        apply_perturbation(
            g, PerturbationPlan(flips=[("remove", 0, 2)], budget=1, ptb_ratio=0.5)
        )
    with pytest.raises(ValidationError):
        apply_perturbation(
            g, PerturbationPlan(flips=[("add", 0, 1)], budget=1, ptb_ratio=0.5)
        )


def test_apply_then_invert_round_trips():
    g = dice_ready_sbm(11)
    plan = random_flip_attack(g, 0.25, RngState(12))
    attacked = apply_perturbation(g, plan)
    restored = apply_perturbation(attacked, invert_plan(plan))
    assert np.array_equal(restored.adjacency.col_indices, g.adjacency.col_indices)
    assert np.array_equal(restored.adjacency.row_offsets, g.adjacency.row_offsets)


def test_perturbation_stats():
    g = dice_ready_sbm(13)
    assert perturbation_stats(g, g) == {
        "added": 0, "removed": 0, "ptb_ratio": 0.0, "homophily_delta": 0.0,
    }
    plan = random_flip_attack(g, 0.1, RngState(14))
    attacked = apply_perturbation(g, plan)
    stats = perturbation_stats(g, attacked)
    assert stats["added"] + stats["removed"] == len(plan.flips)
    assert stats["ptb_ratio"] == pytest.approx(len(plan.flips) / (g.adjacency.nnz // 2))
    dice = apply_perturbation(g, dice_attack(g, 0.2, RngState(15)))
    assert perturbation_stats(g, dice)["homophily_delta"] < 0


def test_plan_tsv_round_trip(tmp_path):
    g = dice_ready_sbm(16)
    plan = dice_attack(g, 0.15, RngState(17))
    path = tmp_path / "plan.tsv"
    save_plan(plan, path)
    text = path.read_text()
    assert text.startswith(f"# budget={plan.budget} ptb=")
    loaded = load_plan(path)
    assert loaded.flips == plan.flips
    assert loaded.budget == plan.budget
    assert loaded.ptb_ratio == plan.ptb_ratio


def test_gradient_attack_zero_budget():
    g = path3_graph()
    plan = sgc_gradient_attack(g, 0.1, TrainConfig(pretrain_epochs=5), RngState(1))
    assert plan.flips == []


def test_gradient_attack_capacity_error():
    g = dice_ready_sbm(18)
    g.features = g.features[:1].repeat(g.num_nodes, axis=0)  # unchanged shape, cheap
    import sfrgnn.attacks as attacks_mod

    original = attacks_mod.GRAD_ATTACK_NODE_CAP
    attacks_mod.GRAD_ATTACK_NODE_CAP = g.num_nodes - 1
    try:
        with pytest.raises(CapacityError):
            sgc_gradient_attack(g, 0.1, TrainConfig(pretrain_epochs=5), RngState(2))
    finally:
        attacks_mod.GRAD_ATTACK_NODE_CAP = original


def test_gradient_attack_deterministic():
    g = dice_ready_sbm(19, blocks=(8, 8))
    cfg = TrainConfig(pretrain_epochs=40)
    a = sgc_gradient_attack(g, 0.15, cfg, RngState(20))
    b = sgc_gradient_attack(g, 0.15, cfg, RngState(20))
    assert a.flips == b.flips


def brute_force_best_flips(g, params64):
    """Exhaustive single-flip oracle: exact surrogate loss argmax (with ties)."""
    n = g.num_nodes
    best, best_loss = set(), -np.inf
    dense = g.adjacency.to_dense().astype(bool)
    x64 = g.features.astype(np.float64)
    for u in range(n):
        for v in range(u + 1, n):
            d2 = dense.copy()
            d2[u, v] = d2[v, u] = not d2[u, v]
            iu, ju = np.nonzero(np.triu(d2, k=1))
            adj = csr_from_edge_pairs(n, np.stack([iu, ju], axis=1))
            lp, _ = gcn_forward(params64, x64, normalize_adjacency(adj), 0.0, None, False)
            loss, _ = nll_loss(lp, g.labels, g.splits.train)
            if loss > best_loss + 1e-12:
                best_loss, best = loss, {(u, v)}
            elif abs(loss - best_loss) <= 1e-12:
                best.add((u, v))
    return best


def test_gradient_attack_budget_one_matches_oracle_sample():
    cfg = TrainConfig(pretrain_epochs=80)
    hits = 0
    for trial in range(5):
        g = sbm_graph([6, 6], p_in=0.6, p_out=0.15, seed=300 + trial, feature_dim=6,
                      separation=1.2, train_ratio=0.34, val_ratio=0.25)
        e = g.adjacency.nnz // 2
        plan = sgc_gradient_attack(g, 1.0 / e, cfg, RngState(400 + trial))
        assert len(plan.flips) == 1
        chosen = (plan.flips[0][1], plan.flips[0][2])
        surrogate = train(g, cfg, "gcn", RngState(400 + trial).substream("surrogate"))
        hits += chosen in brute_force_best_flips(g, surrogate.params.astype(np.float64))
    assert hits >= 4  # the full 20-graph gate lives in the acceptance suite


def test_gradient_attack_beats_random_on_sbm():
    from sfrgnn.trainer import predict

    g = sbm_graph([100, 100], p_in=0.06, p_out=0.004, seed=21, feature_dim=10,
                  separation=1.0, train_ratio=0.1, val_ratio=0.1)
    cfg = TrainConfig(pretrain_epochs=120)
    medians = {}
    for name in ("grad", "random"):
        accs = []
        for seed in range(5):
            if name == "random":
                plan = random_flip_attack(g, 0.10, RngState(500 + seed))
            else:
                plan = sgc_gradient_attack(g, 0.10, cfg, RngState(500 + seed))
            attacked = apply_perturbation(g, plan)
            model = train(attacked, cfg, "gcn", RngState(600 + seed))
            _, acc = predict(model, attacked)
            accs.append(acc["test"])
        medians[name] = float(np.median(accs))
    assert medians["grad"] <= medians["random"]


def test_gradient_attack_plan_is_pinned():
    """A literal plan recorded with the earlier scatter-add propagation and the
    attack's own surrogate forward; the shared gcn_forward path must keep
    choosing the same flips in the same order."""
    g = sbm_graph([25, 25], p_in=0.2, p_out=0.02, seed=7, feature_dim=8,
                  separation=1.0, train_ratio=0.3, val_ratio=0.2)
    plan = sgc_gradient_attack(g, 0.1, TrainConfig(pretrain_epochs=60), RngState(11))
    assert plan.budget == 14
    assert plan.flips == [
        ("add", 7, 33), ("add", 0, 33), ("remove", 33, 49), ("remove", 33, 44),
        ("remove", 33, 39), ("add", 2, 33), ("add", 5, 33), ("add", 18, 33),
        ("add", 11, 33), ("add", 2, 7), ("add", 20, 46), ("remove", 15, 20),
        ("remove", 19, 20), ("remove", 20, 21),
    ]
