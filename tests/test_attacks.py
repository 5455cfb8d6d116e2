import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sfrgnn
import sfrgnn.attacks as attacks_mod
from sfrgnn.attacks import (
    GRAD_ATTACK_NODE_CAP,
    STOPPED_BUDGET,
    STOPPED_NO_GAIN,
    PerturbationPlan,
    _ExactFlipLoss,
    _ranked_flips,
    apply_perturbation,
    dice_attack,
    load_plan,
    perturbation_stats,
    random_flip_attack,
    save_plan,
    sgc_gradient_attack,
)
from sfrgnn.errors import CapacityError, ValidationError
from sfrgnn.graph import csr_from_edge_pairs, graph_stats, normalize_adjacency, write_graph
from sfrgnn.nn import (
    ModelParams,
    gcn_backward_wrt_prop,
    gcn_forward,
    init_params,
    nll_loss,
    spmm_calls,
)
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


def test_dice_plan_is_pinned():
    """A literal plan on a graph where five inter-class training pairs are
    already edges, so the addition pool must leave them out, and both pools
    are drawn from."""
    g = sbm_graph([10, 10], p_in=0.4, p_out=0.15, seed=21, feature_dim=5,
                  train_ratio=0.5, val_ratio=0.2)
    pairs = g.adjacency.edge_pairs()
    both_train = g.splits.train[pairs[:, 0]] & g.splits.train[pairs[:, 1]]
    inter = g.labels[pairs[:, 0]] != g.labels[pairs[:, 1]]
    assert np.count_nonzero(both_train & inter) == 5
    plan = dice_attack(g, 0.2, RngState(3))
    assert plan.budget == 10
    assert plan.flips == [
        ("remove", 3, 9), ("remove", 12, 19), ("remove", 17, 18), ("remove", 2, 9),
        ("remove", 2, 8), ("add", 3, 13), ("add", 9, 12), ("add", 2, 18),
        ("add", 2, 12), ("add", 3, 12),
    ]


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
    undo = [("add" if action == "remove" else "remove", u, v) for action, u, v in plan.flips]
    restored = apply_perturbation(attacked, PerturbationPlan(undo, plan.budget, plan.ptb_ratio))
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


def test_plan_comment_and_header_lines(tmp_path):
    path = tmp_path / "plan.tsv"
    path.write_text("# budget=9 ptb=0.5\n\n# a comment\nadd\t0\t5\n# budget=3\n\nremove\t2\t1\n")
    plan = load_plan(path)
    assert plan.flips == [("add", 0, 5), ("remove", 2, 1)]
    assert (plan.budget, plan.ptb_ratio) == (3, 0.5)  # the last `budget=` wins
    path.write_text("add\t0\t5\n")
    assert (load_plan(path).budget, load_plan(path).ptb_ratio) == (1, 0.0)


def set_apply(g, plan):
    """Reference `apply_perturbation`: the flips applied to a Python set of pairs."""
    edges = {(int(u), int(v)) for u, v in g.adjacency.edge_pairs()}
    for action, u, v in plan.flips:
        key = (min(u, v), max(u, v))
        if action == "remove":
            edges.remove(key)
        else:
            edges.add(key)
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return csr_from_edge_pairs(g.num_nodes, pairs)


def set_stats(clean, perturbed):
    """Reference `perturbation_stats` on Python sets of keys u * n + v."""
    n = clean.num_nodes
    clean_keys = {u * n + v for u, v in clean.adjacency.edge_pairs()}
    pert_keys = {u * n + v for u, v in perturbed.adjacency.edge_pairs()}
    added, removed = len(pert_keys - clean_keys), len(clean_keys - pert_keys)
    return {
        "added": added,
        "removed": removed,
        "ptb_ratio": (added + removed) / len(clean_keys) if clean_keys else 0.0,
        "homophily_delta": graph_stats(perturbed).homophily_ratio
        - graph_stats(clean).homophily_ratio,
    }


@pytest.mark.parametrize("case, seed", [
    ("random", 50), ("random", 51), ("random", 52), ("dice", 53),
    ("reversed", 54), ("empty", 55), ("round_trip", 56),
])
def test_set_arithmetic_matches_python_sets(case, seed, tmp_path):
    g = dice_ready_sbm(seed)
    if case == "dice":
        plan = dice_attack(g, 0.3, RngState(seed))
    elif case == "empty":
        plan = PerturbationPlan(flips=[], budget=0, ptb_ratio=0.0)
    else:
        plan = random_flip_attack(g, 0.4, RngState(seed))
    if case == "reversed":  # plan files may list a pair as v, u
        plan.flips = [(a, v, u) if i % 2 else (a, u, v) for i, (a, u, v) in enumerate(plan.flips)]
        assert any(u > v for _, u, v in plan.flips)
    if case == "round_trip":
        save_plan(plan, tmp_path / "plan.tsv")
        plan = load_plan(tmp_path / "plan.tsv")
    assert {a for a, _, _ in plan.flips} == (set() if case == "empty" else {"add", "remove"})

    got = apply_perturbation(g, plan)
    want = set_apply(g, plan)
    for name in ("row_offsets", "col_indices", "values"):
        a, b = getattr(got.adjacency, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and (a == b).all(), name
    stats, ref = perturbation_stats(g, got), set_stats(g, got)
    assert stats == ref
    assert type(stats["added"]) is int and type(stats["removed"]) is int


def test_attacks_run_without_loading_scipy(tmp_path):
    """Importing sfrgnn, loading a graph and the DICE / apply / stats path are
    NumPy only; scipy is loaded at the first propagation."""
    write_graph(dice_ready_sbm(57), tmp_path)
    script = (
        "import sys\n"
        "import sfrgnn\n"
        "from sfrgnn.rng import RngState\n"
        f"g = sfrgnn.load_graph({str(tmp_path)!r})\n"
        "plan = sfrgnn.dice_attack(g, 0.2, RngState(1))\n"
        "sfrgnn.perturbation_stats(g, sfrgnn.apply_perturbation(g, plan))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = str(Path(sfrgnn.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_gradient_attack_zero_budget():
    g = path3_graph()
    plan = sgc_gradient_attack(g, 0.1, TrainConfig(pretrain_epochs=5), RngState(1))
    assert plan.flips == []


def test_gradient_attack_capacity_error():
    g = dice_ready_sbm(18)
    g.features = g.features[:1].repeat(g.num_nodes, axis=0)  # unchanged shape, cheap
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
            lp, _ = gcn_forward(params64, x64, normalize_adjacency(adj))
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
    """A literal plan, recorded since the surrogate's dropout is drawn for its
    layer-1 rows only; the attack must keep choosing the same flips in the
    same order."""
    g = sbm_graph([25, 25], p_in=0.2, p_out=0.02, seed=7, feature_dim=8,
                  separation=1.0, train_ratio=0.3, val_ratio=0.2)
    plan = sgc_gradient_attack(g, 0.1, TrainConfig(pretrain_epochs=60), RngState(11))
    assert plan.budget == 14
    assert plan.flips == [
        ("add", 7, 33), ("add", 0, 33), ("add", 5, 33), ("remove", 33, 49),
        ("remove", 33, 44), ("remove", 33, 39), ("add", 2, 33), ("add", 18, 33),
        ("add", 11, 33), ("add", 2, 7), ("add", 20, 46), ("remove", 15, 20),
        ("remove", 19, 20), ("remove", 20, 21),
    ]


def stale_prone_sbm():
    return sbm_graph([25, 25], p_in=0.2, p_out=0.05, seed=0, feature_dim=4,
                     train_ratio=0.3, val_ratio=0.2)


def record_greedy_steps(monkeypatch, stall_after=None):
    """Log the attack's steps: "R" per ranking, then per shortlist evaluation
    "+" when some pair raises the loss, else "0". With `stall_after`, every
    evaluation after that many reports no gain."""
    events = []
    rank = attacks_mod._ranked_flips

    def ranked(*args):
        events.append("R")
        return rank(*args)

    class Recording(_ExactFlipLoss):
        def losses_with(self, keys):
            losses = super().losses_with(keys)
            if stall_after is not None and events.count("+") >= stall_after:
                losses = np.full(keys.shape[0], self.loss)
            events.append("+" if (losses > self.loss).any() else "0")
            return losses

    monkeypatch.setattr(attacks_mod, "_ranked_flips", ranked)
    monkeypatch.setattr(attacks_mod, "_ExactFlipLoss", Recording)
    return events


def test_gradient_attack_relinearizes_when_a_stale_shortlist_runs_out(monkeypatch):
    """With a two-pair shortlist, one shortlist on this graph runs out while
    it is stale (flips were applied since its ranking). The attack must rank
    afresh, find an improving flip there and spend its budget, instead of
    stopping short at the stale shortlist."""
    monkeypatch.setattr(attacks_mod, "GRAD_SHORTLIST", 2)
    events = record_greedy_steps(monkeypatch)
    g = stale_prone_sbm()
    plan = sgc_gradient_attack(g, 0.5, TrainConfig(pretrain_epochs=30), RngState(0))
    steps = "".join(events)
    stale_out = steps.index("0")
    assert steps[stale_out - 1] == "+"  # the shortlist that ran out was stale
    assert steps[stale_out + 1 : stale_out + 3] == "R+"  # a fresh one still improves
    assert steps[:stale_out].count("+") < plan.budget
    assert len(plan.flips) == len(plan.trace) == plan.budget == 68
    assert plan.stop_reason == STOPPED_BUDGET


def test_gradient_attack_stops_only_on_a_fresh_shortlist(monkeypatch):
    """No pair raises the loss after the third flip: the stale shortlist of
    the fourth step runs out, the attack relinearizes once, and stops when
    the fresh shortlist has no improving pair either, saying why."""
    events = record_greedy_steps(monkeypatch, stall_after=3)
    g = stale_prone_sbm()
    plan = sgc_gradient_attack(g, 0.5, TrainConfig(pretrain_epochs=30), RngState(0))
    assert "".join(events) == "R+++0R0"
    assert len(plan.flips) == len(plan.trace) == 3 < plan.budget
    assert plan.stop_reason == STOPPED_NO_GAIN
    zero = sgc_gradient_attack(g, 0.0, TrainConfig(pretrain_epochs=5), RngState(0))
    assert zero.flips == [] and zero.stop_reason == STOPPED_BUDGET


def full_recompute_loss(adj, head, a1, g):
    """The exact surrogate loss the local evaluator replaces: rebuild and
    re-normalize the whole graph, then run a full forward pass from a1."""
    adj = csr_from_edge_pairs(adj.dim, adj.edge_pairs())
    log_probs, _ = gcn_forward(head, None, normalize_adjacency(adj), a1=a1)
    return nll_loss(log_probs, g.labels, g.splits.train)[0]


def loss_with(exact, u, v):
    """The evaluator's exact loss with the one pair (u, v) toggled."""
    return float(exact.losses_with(np.array([u * exact.adj.dim + v]))[0])


def toggled_adjacency(adj, u, v):
    dense = adj.to_dense().astype(bool)
    dense[u, v] = dense[v, u] = not dense[u, v]
    iu, ju = np.nonzero(np.triu(dense, k=1))
    return csr_from_edge_pairs(adj.dim, np.stack([iu, ju], axis=1))


def random_head(g, seed, hidden=8):
    """A float64 surrogate and its layer-1 input a1 = x @ w1, as the attack
    builds them; nonzero biases so the ReLU cuts some rows."""
    params = init_params(g.features.shape[1], hidden, g.num_classes, RngState(seed), np.float64)
    gen = np.random.default_rng(seed)
    a1 = g.features.astype(np.float64) @ params.w1
    head = ModelParams(params.w1, gen.normal(0, 0.3, hidden), params.w2,
                       gen.normal(0, 0.3, g.num_classes))
    return head, a1


@pytest.mark.parametrize("seed", [30, 31, 32])
def test_local_flip_loss_equals_full_recompute_on_every_pair(seed):
    """Bitwise, not within a tolerance: every pair of a seeded SBM graph,
    additions and removals, including its isolated and degree-one nodes."""
    g = sbm_graph([12, 10, 8], p_in=0.2, p_out=0.03, seed=seed, feature_dim=6,
                  train_ratio=0.3, val_ratio=0.2)
    head, a1 = random_head(g, seed)
    exact = _ExactFlipLoss(g.adjacency, head, a1, g.labels, g.splits.train)
    assert exact.loss == full_recompute_loss(g.adjacency, head, a1, g)
    degrees = g.adjacency.degrees()
    kinds = set()
    for u in range(g.num_nodes):
        for v in range(u + 1, g.num_nodes):
            kinds.add("remove" if g.adjacency.has_entry(u, v) else "add")
            assert loss_with(exact, u, v) == full_recompute_loss(
                toggled_adjacency(g.adjacency, u, v), head, a1, g
            ), (u, v)
    assert kinds == {"add", "remove"}
    assert (degrees == 0).any() and (degrees == 1).any()


def test_local_flip_loss_boundary_cases():
    # 0-1-2-3 path with trainers 0 and 3, pendant 4 on 1, isolated 5 and 6,
    # and a trainer-free component 7-8
    labels = [0, 1, 0, 1, 0, 1, 0, 1, 0]
    g = build_graph(9, [(0, 1), (1, 2), (2, 3), (1, 4), (7, 8)], labels, train=[0, 3])
    head, a1 = random_head(g, 33, hidden=4)
    exact = _ExactFlipLoss(g.adjacency, head, a1, g.labels, g.splits.train)
    cases = {
        (5, 6): "addition between two isolated nodes",
        (1, 4): "removal that leaves an endpoint isolated",
        (0, 1): "removal that isolates a training node",
        (7, 8): "removal whose two-hop reach holds no training node",
        (5, 7): "addition whose two-hop reach holds no training node",
        (0, 5): "addition from a training node to an isolated node",
    }
    for (u, v), name in cases.items():
        full = full_recompute_loss(toggled_adjacency(g.adjacency, u, v), head, a1, g)
        assert loss_with(exact, u, v) == full, name
    assert loss_with(exact, 7, 8) == exact.loss
    assert loss_with(exact, 5, 7) == exact.loss


@pytest.mark.parametrize("seed", [30, 31, 32])
def test_batched_losses_equal_full_recompute(seed):
    """One batch of additions and removals, pairs sharing endpoints, isolated
    and degree-one endpoints: each loss == the full recompute, in two
    propagations for the whole batch."""
    g = sbm_graph([12, 10, 8], p_in=0.2, p_out=0.03, seed=seed, feature_dim=6,
                  train_ratio=0.3, val_ratio=0.2)
    head, a1 = random_head(g, seed)
    exact = _ExactFlipLoss(g.adjacency, head, a1, g.labels, g.splits.train)
    n = g.num_nodes
    gen = np.random.default_rng(seed)
    edges = g.adjacency.edge_keys()
    lone = int(np.flatnonzero(g.adjacency.degrees() == 0)[0])
    leaf = int(np.flatnonzero(g.adjacency.degrees() == 1)[0])
    hub = int(np.argmax(g.adjacency.degrees()))
    keys = np.concatenate([
        gen.choice(edges, 12, replace=False),
        gen.choice(n * n, 12, replace=False),
        [min(hub, w) * n + max(hub, w) for w in range(n) if w != hub][:6],  # shared endpoint
        [min(lone, w) * n + max(lone, w) for w in (hub, leaf)],  # an isolated endpoint
    ])
    keys = keys[keys // n != keys % n]
    before = spmm_calls()
    losses = exact.losses_with(keys)
    assert spmm_calls() - before == 2
    assert losses.shape == keys.shape
    actions = set()
    for key, loss in zip(keys.tolist(), losses.tolist()):
        u, v = divmod(key, n)
        actions.add(g.adjacency.has_entry(u, v))
        assert loss == full_recompute_loss(toggled_adjacency(g.adjacency, u, v), head, a1, g), key
    assert actions == {True, False}


def test_batched_losses_boundary_cases():
    """The boundary graph of the single-pair test in one batch, candidates
    with and without training rows in their two-hop reach together; a
    one-candidate batch; a batch no training row sees, which needs no
    layer-2 propagation; and the empty batch."""
    labels = [0, 1, 0, 1, 0, 1, 0, 1, 0]
    g = build_graph(9, [(0, 1), (1, 2), (2, 3), (1, 4), (7, 8)], labels, train=[0, 3])
    head, a1 = random_head(g, 33, hidden=4)
    exact = _ExactFlipLoss(g.adjacency, head, a1, g.labels, g.splits.train)
    n = g.num_nodes
    pairs = [(5, 6), (1, 4), (0, 1), (7, 8), (5, 7), (0, 5), (1, 2), (0, 2)]
    full = [full_recompute_loss(toggled_adjacency(g.adjacency, u, v), head, a1, g)
            for u, v in pairs]
    keys = np.array([u * n + v for u, v in pairs])
    assert exact.losses_with(keys).tolist() == full
    assert exact.losses_with(keys[::-1]).tolist() == full[::-1]
    for key, loss in zip(keys, full):
        assert exact.losses_with(key[None]).tolist() == [loss]
    before = spmm_calls()
    unseen = exact.losses_with(np.array([7 * n + 8, 5 * n + 7]))
    assert spmm_calls() - before == 1
    assert unseen.tolist() == [exact.loss, exact.loss]
    assert exact.losses_with(np.empty(0, dtype=np.int64)).shape == (0,)


def test_batched_losses_memory_grows_with_rows_not_candidates():
    """A 32-candidate batch at N = 6000 holds the (N + sum |S1|) x C layer-2
    operand, one N x C product at a time and the stacked S1 rows: its traced
    peak stays under (N + sum |S1|) x (F + C) float64s, where K stacked
    copies of the N rows would need 32 x N x (F + C), 34 MB."""
    n, classes, hidden = 6000, 7, 16
    gen = np.random.default_rng(50)
    pairs = gen.integers(0, n, size=(12000, 2))
    adj = csr_from_edge_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
    labels = gen.integers(0, classes, size=n)
    train_mask = gen.random(n) < 0.1
    params = init_params(16, hidden, classes, RngState(50), np.float64)
    a1 = gen.standard_normal((n, 16)) @ params.w1
    head = ModelParams(np.eye(hidden), gen.normal(0, 0.3, hidden), params.w2, params.b2)
    exact = _ExactFlipLoss(adj, head, a1, labels, train_mask)
    keys, _ = _ranked_flips(exact, np.empty(0, dtype=np.int64), 32)
    s1_rows = sum(exact.prop.reach(np.array(divmod(key, n))).shape[0] for key in keys)
    tracemalloc.start()
    try:
        losses = exact.losses_with(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert losses.shape == (32,)
    bound = (n + s1_rows) * (hidden + classes) * 8
    assert peak < bound, (peak, bound)


def test_attack_base_and_candidate_losses_equal_full_recompute(monkeypatch):
    """Every evaluator a multi-flip attack builds (one per applied flip) and
    every loss it hands the greedy step equal the full recompute bitwise."""
    built = []

    class Recording(_ExactFlipLoss):
        def __init__(self, *args):
            super().__init__(*args)
            self.evaluated = []
            built.append(self)

        def losses_with(self, keys):
            losses = super().losses_with(keys)
            n = self.adj.dim
            self.evaluated += [(key // n, key % n, loss) for key, loss in zip(keys, losses)]
            return losses

    monkeypatch.setattr(attacks_mod, "_ExactFlipLoss", Recording)
    g = sbm_graph([25, 25], p_in=0.2, p_out=0.02, seed=7, feature_dim=8,
                  separation=1.0, train_ratio=0.3, val_ratio=0.2)
    plan = sgc_gradient_attack(g, 0.1, TrainConfig(pretrain_epochs=60), RngState(11))
    assert len(built) == len(plan.flips) == 14
    for step, exact in enumerate(built):
        prefix = PerturbationPlan(plan.flips[:step], budget=step, ptb_ratio=0.0)
        current = apply_perturbation(g, prefix).adjacency
        assert np.array_equal(exact.adj.col_indices, current.col_indices)
        assert exact.loss == full_recompute_loss(current, exact.params, exact.cache.a1, g)
        assert len(exact.evaluated) == attacks_mod.GRAD_SHORTLIST
        for u, v, loss in exact.evaluated:
            toggled = toggled_adjacency(current, u, v)
            assert loss == full_recompute_loss(toggled, exact.params, exact.cache.a1, g), (step, u, v)


def test_gradient_attack_trace_matches_exact_deltas(monkeypatch):
    built = []

    class Recording(_ExactFlipLoss):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(attacks_mod, "_ExactFlipLoss", Recording)
    g = dice_ready_sbm(19, blocks=(8, 8))
    plan = sgc_gradient_attack(g, 0.15, TrainConfig(pretrain_epochs=40), RngState(20))
    assert len(plan.trace) == len(plan.flips) > 1
    for exact, (_, u, v), step in zip(built, plan.flips, plan.trace):
        assert step.exact == loss_with(exact, u, v) - exact.loss
        assert step.exact > 0 and np.isfinite(step.estimated)
        assert 1 <= step.rank <= attacks_mod.GRAD_SHORTLIST
    assert random_flip_attack(g, 0.15, RngState(1)).trace == []
    assert dice_attack(g, 0.15, RngState(1)).trace == []


def dense_flip_scores(exact):
    """The dense scorer the factored ranking replaced: the full N x N gradient
    G = dL/dP, its symmetrization and every pair's score in N x N buffers."""
    adj = exact.adj
    u_fac, v_fac = gcn_backward_wrt_prop(exact.cache, exact.grad_log_probs)
    grad_prop = u_fac @ v_fac.T
    n = adj.dim
    deg_tilde = adj.degrees().astype(np.float64) + 1.0
    s = 1.0 / np.sqrt(deg_tilde)
    s_add = 1.0 / np.sqrt(deg_tilde + 1.0)
    s_rem = 1.0 / np.sqrt(np.maximum(deg_tilde - 1.0, 1.0))

    rows = np.repeat(np.arange(n), adj.degrees())
    cols = adj.col_indices
    gdiag = np.diagonal(grad_prop).copy()
    gsym_edges = grad_prop[rows, cols] + grad_prop[cols, rows]
    row_sum = np.zeros(n)
    np.add.at(row_sum, rows, gsym_edges * s[cols])
    row_sum += 2.0 * gdiag * s

    def endpoint_terms(s_new):
        return (s_new - s) * (row_sum - 2.0 * gdiag * s) + gdiag * (s_new**2 - s**2)

    a_add = endpoint_terms(s_add)
    a_rem = endpoint_terms(s_rem)
    scores = np.multiply.outer(s_add, s_add) * (grad_prop + grad_prop.T)
    scores += a_add[:, None]
    scores += a_add[None, :]
    pairs = adj.edge_pairs()
    iu, ju = pairs[:, 0], pairs[:, 1]
    cross = (s_rem[iu] - s[iu]) * s[ju] + s[iu] * (s_rem[ju] - s[ju]) + s[iu] * s[ju]
    rem_vals = a_rem[iu] + a_rem[ju] - (grad_prop[iu, ju] + grad_prop[ju, iu]) * cross
    scores[iu, ju] = rem_vals
    scores[ju, iu] = rem_vals
    return scores


def dense_ranking(scores, flipped):
    """Every feasible pair as (keys, scores), best first, ties by smaller key."""
    n = scores.shape[0]
    scores = scores.copy()
    scores[np.tri(n, dtype=bool)] = -np.inf
    scores[flipped // n, flipped % n] = -np.inf
    keys = np.flatnonzero(np.isfinite(scores.ravel()))
    vals = scores.ravel()[keys]
    order = np.lexsort((keys, -vals))
    return keys[order], vals[order]


@pytest.mark.parametrize("seed, far", [(40, False), (41, False), (42, False), (43, True)])
def test_factored_ranking_equals_dense_reference(seed, far, monkeypatch):
    """Scores within 1e-12 of the dense scorer on every pair (every addition
    and removal), and the same order, for any block size; with isolated
    nodes, and with already-flipped edges and non-edges left out. With `far`,
    two blocks lie beyond two hops of every training node, so hundreds of
    pairs score exactly 0 and the cut after the positive scores falls inside
    a tie, which goes to the smaller keys."""
    g = sbm_graph([30, 25, 20], p_in=0.12, p_out=0.0 if far else 0.01, seed=seed,
                  feature_dim=6, train_ratio=0.3, val_ratio=0.2)
    assert (g.adjacency.degrees() == 0).any()
    train_mask = g.splits.train & (g.labels == 0) if far else g.splits.train
    head, a1 = random_head(g, seed)
    exact = _ExactFlipLoss(g.adjacency, head, a1, g.labels, train_mask)
    n = g.num_nodes
    gen = np.random.default_rng(seed)
    edge_keys = g.adjacency.edge_pairs() @ np.array([n, 1])
    iu, ju = np.triu_indices(n, k=1)
    flipped = np.unique(np.concatenate([
        gen.choice(edge_keys, 3, replace=False), gen.choice(iu * n + ju, 3, replace=False)
    ]))
    ref_keys, ref_scores = dense_ranking(dense_flip_scores(exact), flipped)
    assert ref_keys.shape[0] == n * (n - 1) // 2 - flipped.shape[0]
    positive = int((ref_scores > 0).sum())
    assert (ref_scores[positive : positive + 6] == 0).all() == far

    shortlist = 2 + attacks_mod.GRAD_SHORTLIST  # relinearize_every + GRAD_SHORTLIST
    default_pass = attacks_mod.SCORE_PASS_ELEMENTS
    for block in (1, 7 * n + 3, attacks_mod.SCORE_BLOCK_ELEMENTS):
        monkeypatch.setattr(attacks_mod, "SCORE_BLOCK_ELEMENTS", block)
        for k in (n * n, shortlist, positive + 5):
            monkeypatch.setattr(attacks_mod, "SCORE_PASS_ELEMENTS", block)  # one pass a block
            whole = _ranked_flips(exact, flipped, k)
            # one row a pass, a pass that does not divide the block, the default
            for chunk in (1, 2 * n + 1, default_pass):
                monkeypatch.setattr(attacks_mod, "SCORE_PASS_ELEMENTS", chunk)
                keys, scores = _ranked_flips(exact, flipped, k)
                assert keys.tolist() == whole[0].tolist()
                assert scores.tolist() == whole[1].tolist()
            assert keys.tolist() == ref_keys[:k].tolist()
            np.testing.assert_allclose(scores, ref_scores[:k], rtol=0, atol=1e-12)


def test_ranking_memory_is_not_quadratic():
    """One ranking call at N = 6000, above the old dense cap, stays under
    64 MB of traced allocations; the N x N buffers it replaced took ~900 MB."""
    n, classes = 6000, 7
    gen = np.random.default_rng(50)
    pairs = gen.integers(0, n, size=(12000, 2))
    adj = csr_from_edge_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])
    labels = gen.integers(0, classes, size=n)
    train_mask = gen.random(n) < 0.1
    params = init_params(16, 16, classes, RngState(50), np.float64)
    a1 = gen.standard_normal((n, 16)) @ params.w1
    head = ModelParams(params.w1, gen.normal(0, 0.3, 16), params.w2, params.b2)
    exact = _ExactFlipLoss(adj, head, a1, labels, train_mask)
    tracemalloc.start()
    try:
        keys, _ = _ranked_flips(exact, np.empty(0, dtype=np.int64), 34)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert keys.shape[0] == 34
    assert peak < 64 * 2**20, peak / 2**20


def test_chunked_edge_terms_equal_the_whole_gather():
    # enough entries for several gather chunks, and a last chunk cut short
    gen = np.random.default_rng(51)
    n, width, nnz = 400, 46, 3 * (attacks_mod.SCORE_PASS_ELEMENTS // 46) + 17
    left, right = gen.standard_normal((n, width)), gen.standard_normal((n, width))
    rows = np.sort(gen.integers(0, n, size=nnz))
    cols = gen.integers(0, n, size=nnz)
    got = attacks_mod._pair_dots(left, right, rows, cols)
    assert np.array_equal(got, np.einsum("ij,ij->i", left[rows], right[cols]))
