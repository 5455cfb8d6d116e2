import json
from dataclasses import asdict

import numpy as np
import pytest

from sfrgnn.attacks import dice_attack, save_plan
from sfrgnn.bench import (
    ExperimentSpec,
    bench_timing,
    compute_aggregates,
    degree_preserving_shuffle,
    emit_report,
    paired_effect_probe,
    report_to_csv,
    report_to_json,
    report_to_md,
    format_accuracy,
    run_experiment,
)
from sfrgnn.errors import ValidationError
from sfrgnn.graph import load_graph, write_graph
from sfrgnn.rng import RngState, derive_trial_seed
from sfrgnn.synth import sbm_graph
from sfrgnn.trainer import TrainConfig

from conftest import sparse_binary_features


@pytest.fixture(scope="module")
def sbm_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "sbm"
    g = sbm_graph([30, 30], p_in=0.3, p_out=0.03, seed=1, feature_dim=6,
                  separation=1.2, train_ratio=0.2, val_ratio=0.2)
    write_graph(g, d)
    return d


def quick_cfg():
    return TrainConfig(pretrain_epochs=20, finetune_epochs=5)


def test_run_experiment_bookkeeping(sbm_dir):
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="none",
                          repeats=3, base_seed=4, config=quick_cfg())
    report = run_experiment(spec)
    assert len(report.trials) == 3
    agg = report.aggregates["gcn"]
    assert agg["repeats"] == 3
    accs = np.array([t.clean_acc["test"] for t in report.trials])
    assert agg["clean_test_mean"] == pytest.approx(float(accs.mean()))
    assert agg["clean_test_std"] == pytest.approx(float(accs.std()))  # population std


@pytest.mark.parametrize("threads", ["2", "3"])
def test_threaded_trials_match_serial(sbm_dir, monkeypatch, threads):
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["mlp", "gcn", "sfr"],
                          attack="dice", ptb_ratio=0.1, repeats=2, base_seed=6,
                          config=quick_cfg())

    def trials(value):
        monkeypatch.setenv("SFR_THREADS", value)
        return [
            {k: v for k, v in asdict(t).items() if not k.endswith("_epoch_ms")}
            for t in run_experiment(spec).trials
        ]

    assert trials(threads) == trials("1")


def test_attack_none_clean_equals_attacked(sbm_dir):
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn", "mlp"], attack="none",
                          repeats=2, base_seed=5, config=quick_cfg())
    report = run_experiment(spec)
    for t in report.trials:
        assert t.clean_acc == t.attacked_acc


def test_random_attack_with_zero_budget_plan(sbm_dir):
    # ptb small enough that round(ptb*E) == 0: empty plan, accuracies coincide
    g = load_graph(sbm_dir)
    tiny = 0.4 / (g.adjacency.nnz // 2)
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="random",
                          ptb_ratio=tiny, repeats=2, base_seed=6, config=quick_cfg())
    report = run_experiment(spec)
    for t in report.trials:
        assert t.clean_acc == t.attacked_acc


def test_spec_validation(sbm_dir):
    with pytest.raises(ValidationError):
        ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="random",
                       repeats=2).validate()  # missing ptb
    with pytest.raises(ValidationError):
        ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="none",
                       ptb_ratio=0.1).validate()  # ptb without attack
    with pytest.raises(ValidationError):
        ExperimentSpec(dataset=str(sbm_dir), variants=[], attack="none").validate()
    with pytest.raises(ValidationError):
        ExperimentSpec(dataset=str(sbm_dir), variants=["bogus"], attack="none").validate()
    with pytest.raises(ValidationError):
        ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="external").validate()
    with pytest.raises(ValidationError):
        ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], repeats=0).validate()


def test_json_round_trip_byte_identical(sbm_dir, tmp_path):
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="none",
                          repeats=2, base_seed=7, config=quick_cfg())
    report = run_experiment(spec)
    text = report_to_json(report)
    out = tmp_path / "report.json"
    emit_report(report, out, "json")
    assert out.read_text() == text


def test_md_formatting(sbm_dir):
    assert format_accuracy(0.821, 0.006) == "82.1±0.6"
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="none",
                          repeats=2, base_seed=8, config=quick_cfg())
    md = report_to_md(run_experiment(spec))
    lines = md.strip().splitlines()
    assert lines[0].startswith("| variant |")
    assert len(lines) == 3  # header, rule, one variant row
    cell = lines[2].split("|")[2].strip()
    assert "±" in cell and cell.split("±")[0].count(".") == 1


def test_csv_row_count(sbm_dir):
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn", "mlp"], attack="none",
                          repeats=3, base_seed=9, config=quick_cfg())
    csv_text = report_to_csv(run_experiment(spec))
    assert len(csv_text.strip().splitlines()) == 2 * 3 + 1


def test_external_plan_attack(sbm_dir, tmp_path):
    g = load_graph(sbm_dir)
    plan = dice_attack(g, 0.2, RngState(10))
    plan_path = tmp_path / "plan.tsv"
    save_plan(plan, plan_path)
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="external",
                          plan_path=str(plan_path), repeats=2, base_seed=11,
                          config=quick_cfg())
    report = run_experiment(spec)
    assert report.spec["attack"] == "external"
    assert report.spec["plan_path"] == str(plan_path)
    # trained on the perturbed graph, so the two eval adjacencies disagree
    assert any(t.clean_acc != t.attacked_acc for t in report.trials)


def test_seed_derivation_stable_under_repeat_count():
    a = [derive_trial_seed(3, "sfr", i) for i in range(3)]
    b = [derive_trial_seed(3, "sfr", i) for i in range(10)]
    assert b[:3] == a
    assert derive_trial_seed(3, "sfr", 0) != derive_trial_seed(3, "gcn", 0)
    assert derive_trial_seed(3, "sfr", 0) != derive_trial_seed(4, "sfr", 0)


def test_aggregates_equal_recomputation(sbm_dir):
    spec = ExperimentSpec(dataset=str(sbm_dir), variants=["gcn"], attack="none",
                          repeats=2, base_seed=12, config=quick_cfg())
    report = run_experiment(spec)
    assert json.dumps(report.aggregates, sort_keys=True) == json.dumps(
        compute_aggregates(report.trials), sort_keys=True
    )
    report.aggregates["gcn"]["clean_test_mean"] += 0.1
    from sfrgnn.errors import SfrError

    with pytest.raises(SfrError):
        emit_report(report, "/dev/null", "json")


def test_degree_preserving_shuffle_preserves_degree_feature_multiset():
    g = sbm_graph([15, 15], p_in=0.3, p_out=0.05, seed=13, feature_dim=4)
    degrees = g.adjacency.degrees()
    shuffled = degree_preserving_shuffle(g.features, degrees, RngState(14))
    for deg in np.unique(degrees):
        idx = np.flatnonzero(degrees == deg)
        if idx.shape[0] > 1:
            orig = {tuple(row) for row in g.features[idx]}
            new = {tuple(row) for row in shuffled[idx]}
            assert orig == new


def test_paired_effect_zero_ptb_zero_drops(sbm_dir):
    report = paired_effect_probe(sbm_dir, ptb_ratio=0.0, repeats=2, seed=15,
                                 cfg=quick_cfg())
    assert report.drop_matched == [0.0, 0.0]
    assert report.drop_mismatched == [0.0, 0.0]
    assert report.inconclusive  # a 0-0 tie is recorded, not failed


def test_paired_effect_deterministic(sbm_dir):
    a = paired_effect_probe(sbm_dir, ptb_ratio=0.1, repeats=2, seed=16, cfg=quick_cfg())
    b = paired_effect_probe(sbm_dir, ptb_ratio=0.1, repeats=2, seed=16, cfg=quick_cfg())
    assert a == b


@pytest.mark.parametrize("sparse", [False, True])
def test_reports_record_feature_operand(sbm_dir, tmp_path, sparse):
    dataset = sbm_dir
    if sparse:
        g = load_graph(sbm_dir)
        g.features = sparse_binary_features(g.num_nodes, 100, seed=2)
        dataset = tmp_path / "sparse"
        write_graph(g, dataset)
    want = (np.count_nonzero(g.features) / g.features.size) if sparse else 1.0
    spec = ExperimentSpec(dataset=str(dataset), variants=["gcn"], repeats=1, config=quick_cfg())
    timing = bench_timing(dataset, ["mlp"], repeats=1, cfg=quick_cfg())
    for env in (run_experiment(spec).environment, timing.environment):
        assert env["feature_operand"] == ("csr" if sparse else "dense")
        assert env["feature_density"] == pytest.approx(want)


def test_bench_timing_structure(tmp_path):
    # Epochs of 1-6 ms, in which the matrix products outweigh the per-call
    # overhead that the host's slow spells stretch most (perfbench/README.md);
    # the 0.2-0.9 ms epochs of a 60-node graph are mostly that overhead.
    g = sbm_graph([600, 600], p_in=0.01, p_out=0.001, seed=1, feature_dim=128,
                  separation=1.2, train_ratio=0.2, val_ratio=0.2)
    write_graph(g, tmp_path / "sbm1200")
    report = bench_timing(tmp_path / "sbm1200", ["sfr", "gcn"], repeats=2,
                          cfg=TrainConfig(pretrain_epochs=30, finetune_epochs=10))
    stages = {(r["variant"], r["stage"]) for r in report.rows}
    assert ("sfr", "pretrain") in stages and ("sfr", "finetune") in stages
    assert ("gcn", "pretrain") in stages
    for r in report.rows:
        assert r["median_ms"] > 0
        assert r["iqr_ms"] >= 0
        assert r["iqr_ms"] / r["median_ms"] < 0.5, r  # single-thread stability gate
        # 5 warm-up epochs dropped from every stage of every run
        if r["stage"] == "pretrain":
            assert r["epochs"] == 2 * (30 - 5)
        else:
            assert r["epochs"] == 2 * (10 - 5)
