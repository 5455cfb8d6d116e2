"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
The Cora-based criteria (A5, A6, A7b, A9) need the real dataset; when it is
absent they skip with instructions (see scripts/fetch_cora.py). Everything
else runs on synthetic data generated in-session.
"""

import time

import numpy as np
import pytest

from sfrgnn.attacks import sgc_gradient_attack
from sfrgnn.bench import (
    ExperimentSpec,
    bench_timing,
    paired_effect_probe,
    run_experiment,
)
from sfrgnn.graph import csr_from_edge_pairs, write_graph
from sfrgnn.nn import check_gradients, gcn_forward
from sfrgnn.rng import RngState
from sfrgnn.synth import sbm_graph
from sfrgnn.trainer import TrainConfig, internaa, pretrain, train

from conftest import build_graph
from test_attacks import brute_force_best_flips


def check(criterion: str, passed: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_a1_gradient_oracle():
    t0 = time.perf_counter()
    report = check_gradients(RngState(20250808), eps=1e-5)
    elapsed = time.perf_counter() - t0
    worst = max(report.errors.values())
    check(
        "A1",
        report.passed and worst < 1e-5 and elapsed < 10.0,
        f"max relative error {worst:.2e} (< 1e-5), runtime {elapsed:.1f}s (< 10s)",
    )


def test_a2_structural_isolation():
    t0 = time.perf_counter()
    labels = [0, 1, 2] * 10
    feats = np.random.default_rng(8).standard_normal((30, 12))
    sparse = build_graph(30, [(0, 1), (5, 6)], labels, train=range(9), features=feats)
    dense_edges = [(i, j) for i in range(30) for j in range(i + 1, 30) if (i * j) % 4 == 1]
    dense = build_graph(30, dense_edges, labels, train=range(9), features=feats)

    cfg = TrainConfig()  # 200 pretraining epochs, deterministic streams
    p1, _ = pretrain(sparse, cfg, RngState(99))
    p2, _ = pretrain(dense, cfg, RngState(99))
    z1, _ = gcn_forward(p1, sparse.features.astype(cfg.dtype), None)
    z2, _ = gcn_forward(p2, dense.features.astype(cfg.dtype), None)
    identical = all(np.array_equal(a, b) for a, b in zip(p1.arrays(), p2.arrays()))
    identical = identical and np.array_equal(z1, z2)
    elapsed = time.perf_counter() - t0
    check(
        "A2",
        identical and elapsed < 5.0,
        f"pretrain bitwise identical across edge sets, runtime {elapsed:.1f}s (< 5s)",
    )


def test_a3_internaa_contract():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_recon = 0.0
    for trial in range(100):
        sizes = [int(rng.integers(4, 9)) for _ in range(int(rng.integers(2, 4)))]
        seed = 5000 + trial
        while True:  # respect the precondition: >= 2 classes in the training set
            g = sbm_graph(sizes, p_in=0.5, p_out=0.15, seed=seed,
                          feature_dim=int(rng.integers(3, 7)),
                          train_ratio=0.4, val_ratio=0.2)
            if np.unique(g.labels[g.splits.train]).shape[0] >= 2:
                break
            seed += 100000
        aug = internaa(g, RngState(6000 + trial), subsample_ratio=1.0)
        degrees = g.adjacency.degrees()
        for v, donors in aug.sample_log.items():
            assert np.all(g.labels[donors] != g.labels[v]), "donor shares target label"
            assert donors.shape[0] == max(int(degrees[v]), 1), "donor count wrong"
            recon = np.abs(aug.x_inter[v] - g.features[donors].mean(axis=0)).max()
            worst_recon = max(worst_recon, float(recon))
    elapsed = time.perf_counter() - t0
    check(
        "A3",
        worst_recon <= 1e-12 and elapsed < 30.0,
        f"100 graphs: donors inter-class, count=max(degree,1), "
        f"worst reconstruction {worst_recon:.1e} (<= 1e-12), runtime {elapsed:.1f}s (< 30s)",
    )


def test_a4_greedy_attack_oracle():
    t0 = time.perf_counter()
    cfg = TrainConfig(pretrain_epochs=80)
    matches = 0
    for trial in range(20):
        g = sbm_graph([6, 6], p_in=0.6, p_out=0.15, seed=100 + trial, feature_dim=6,
                      separation=1.2, train_ratio=0.34, val_ratio=0.25)
        e = g.adjacency.nnz // 2
        plan = sgc_gradient_attack(g, 1.0 / e, cfg, RngState(1000 + trial))
        assert len(plan.flips) == 1
        chosen = (plan.flips[0][1], plan.flips[0][2])
        surrogate = train(g, cfg, "gcn", RngState(1000 + trial).substream("surrogate"))
        best = brute_force_best_flips(g, surrogate.params.astype(np.float64))
        matches += chosen in best  # ties count as matches via the argmax set
    elapsed = time.perf_counter() - t0
    check(
        "A4",
        matches >= 18 and elapsed < 120.0,
        f"budget-1 flip matches exhaustive oracle {matches}/20 (>= 18), "
        f"runtime {elapsed:.1f}s (< 2min)",
    )


def test_a5_clean_accuracy_band(cora_dir):
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        dataset=str(cora_dir), variants=["sfr"], attack="none",
        repeats=10, base_seed=0, config=TrainConfig(),
    )
    report = run_experiment(spec)
    mean = report.aggregates["sfr"]["clean_test_mean"] * 100.0
    std = report.aggregates["sfr"]["clean_test_std"] * 100.0
    elapsed = time.perf_counter() - t0
    check(
        "A5",
        81.4 <= mean <= 85.4 and elapsed < 600.0,
        f"cora clean test accuracy {mean:.1f}±{std:.1f} in [81.4, 85.4], "
        f"runtime {elapsed:.0f}s (< 10min)",
    )


@pytest.fixture(scope="session")
def cora_attacked_report(cora_dir):
    """Shared by A6 and A9: gradient attack at ptb=0.10, 10 seeds, 4 variants."""
    spec = ExperimentSpec(
        dataset=str(cora_dir),
        variants=["sfr", "sfr_no_cl", "sfr_no_fin", "gcn"],
        attack="grad", ptb_ratio=0.10, repeats=10, base_seed=0,
        config=TrainConfig(),
    )
    t0 = time.perf_counter()
    report = run_experiment(spec)
    report.environment["wall_s"] = time.perf_counter() - t0
    return report


def test_a6_defense_direction_under_attack(cora_attacked_report):
    agg = cora_attacked_report.aggregates
    sfr = agg["sfr"]["attacked_test_mean"] * 100.0
    gcn = agg["gcn"]["attacked_test_mean"] * 100.0
    elapsed = cora_attacked_report.environment["wall_s"]
    check(
        "A6",
        sfr >= gcn + 2.0 and elapsed < 1800.0,
        f"attacked cora: sfr {sfr:.1f} >= gcn {gcn:.1f} + 2.0, "
        f"runtime {elapsed:.0f}s (< 30min)",
    )


def test_a7a_propagation_counts():
    g = sbm_graph([20, 20], p_in=0.3, p_out=0.05, seed=70, feature_dim=6,
                  train_ratio=0.2, val_ratio=0.2)
    cfg = TrainConfig(pretrain_epochs=10, finetune_epochs=6)
    with_cl = train(g, cfg, "sfr", RngState(1))
    without = train(g, cfg, "sfr_no_cl", RngState(1))
    passes_on = set(with_cl.history.finetune.prop_passes)
    passes_off = set(without.history.finetune.prop_passes)
    calls_on = set(with_cl.history.finetune.spmm_calls)
    calls_off = set(without.history.finetune.spmm_calls)
    ok = (
        passes_on == {2} and passes_off == {1}
        and calls_on == {8} and calls_off == {4}  # 2 layers x (fwd+bwd) per pass
        and set(with_cl.history.pretrain.spmm_calls) == {0}
    )
    check(
        "A7a",
        ok,
        "fine-tune propagation passes/epoch: 2 with contrastive, 1 without "
        f"(kernel calls {sorted(calls_on)} vs {sorted(calls_off)}); pretraining: 0",
    )


def test_a7b_pretrain_faster_than_gcn_per_epoch(cora_dir):
    t0 = time.perf_counter()
    report = bench_timing(cora_dir, ["sfr", "gcn"], repeats=3, cfg=TrainConfig())
    rows = {(r["variant"], r["stage"]): r["median_ms"] for r in report.rows}
    pre = rows[("sfr", "pretrain")]
    gcn = rows[("gcn", "pretrain")]
    elapsed = time.perf_counter() - t0
    check(
        "A7b",
        pre < gcn and elapsed < 600.0,
        f"cora median ms/epoch: pretrain {pre:.2f} < gcn {gcn:.2f}, "
        f"runtime {elapsed:.0f}s (< 10min)",
    )


def test_a7c_pretrain_time_independent_of_edges():
    t0 = time.perf_counter()
    g_dense = sbm_graph([400, 400], p_in=0.025, p_out=0.005, seed=71, feature_dim=32,
                        train_ratio=0.2, val_ratio=0.2)
    pairs = g_dense.adjacency.edge_pairs()  # thinned to a tenth of the edges
    thin = RngState(72).substream("edge-thin").generator()
    kept = np.sort(thin.choice(pairs.shape[0], size=round(0.1 * pairs.shape[0]), replace=False))
    g_sparse = g_dense.with_adjacency(csr_from_edge_pairs(g_dense.num_nodes, pairs[kept]))
    e_dense = g_dense.adjacency.nnz // 2
    e_sparse = g_sparse.adjacency.nnz // 2
    assert e_dense >= 9 * e_sparse  # ~10x edge-count difference

    # Fastest pretraining epoch of each graph, over short trials that
    # alternate between the graphs. The host has slow spells, about 1.6x
    # slower and up to seconds long; the fastest epoch is the figure they move
    # least (see perfbench/README.md), and many alternations give both graphs
    # a fast moment.
    fastest = {"dense": float("inf"), "sparse": float("inf")}
    for r in range(12):
        for name, g in (("dense", g_dense), ("sparse", g_sparse)):
            model = train(g, TrainConfig(pretrain_epochs=40), "mlp", RngState(r))
            fastest[name] = min(fastest[name], *model.history.pretrain.epoch_ms)
    hi, lo = max(fastest.values()), min(fastest.values())
    rel = (hi - lo) / hi
    elapsed = time.perf_counter() - t0
    check(
        "A7c",
        rel < 0.25 and elapsed < 600.0,
        f"fastest pretrain ms/epoch with 10x edge difference: {fastest['dense']:.2f} vs "
        f"{fastest['sparse']:.2f} ({rel * 100:.0f}% apart, < 25%), runtime {elapsed:.0f}s",
    )


def test_a8_paired_effect_probe(tmp_path):
    t0 = time.perf_counter()
    g = sbm_graph([100, 100], p_in=0.06, p_out=0.004, seed=3, feature_dim=10,
                  separation=1.0, train_ratio=0.1, val_ratio=0.1)
    d = tmp_path / "sbm200"
    write_graph(g, d)
    report = paired_effect_probe(d, ptb_ratio=0.15, repeats=5, seed=5,
                                 cfg=TrainConfig(pretrain_epochs=200))
    elapsed = time.perf_counter() - t0
    if report.inconclusive:
        print(
            "A8 PASS: inconclusive (tie within 0.5 points) - "
            f"matched {report.median_drop_matched:.2f}, "
            f"shuffled {report.median_drop_mismatched:.2f}, recorded as such"
        )
        assert elapsed < 300.0
        return
    check(
        "A8",
        report.median_drop_matched >= report.median_drop_mismatched and elapsed < 300.0,
        f"median accuracy drop: matched {report.median_drop_matched:.2f} >= "
        f"shuffled {report.median_drop_mismatched:.2f} points, "
        f"runtime {elapsed:.0f}s (< 5min)",
    )


def test_a9_ablation_ordering(cora_attacked_report):
    agg = cora_attacked_report.aggregates
    sfr = agg["sfr"]["attacked_test_mean"] * 100.0
    no_cl = agg["sfr_no_cl"]["attacked_test_mean"] * 100.0
    no_fin = agg["sfr_no_fin"]["attacked_test_mean"] * 100.0
    ok = sfr >= no_cl >= no_fin - 1.0
    check(
        "A9",
        ok,
        f"attacked cora ordering: sfr {sfr:.1f} >= sfr_no_cl {no_cl:.1f} "
        f">= sfr_no_fin {no_fin:.1f} - 1.0",
    )
