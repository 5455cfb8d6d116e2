import json
import shutil

import numpy as np
import pytest

from sfrgnn.cli import main
from sfrgnn.graph import write_graph
from sfrgnn.synth import sbm_graph

from conftest import without_epoch_ms


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli") / "sbm"
    g = sbm_graph([20, 20], p_in=0.4, p_out=0.05, seed=2, feature_dim=6,
                  train_ratio=0.3, val_ratio=0.2)
    write_graph(g, d)
    return d


def test_train_writes_report_and_exits_zero(dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main([
        "train", "--dataset", str(dataset), "--variant", "sfr",
        "--repeats", "2", "--seed", "1",
        "--pretrain-epochs", "15", "--finetune-epochs", "4",
        "--out", str(out), "--format", "json",
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert len(payload["trials"]) == 2
    assert payload["spec"]["variants"] == ["sfr"]
    assert "clean" in capsys.readouterr().out
    # a trial's record is its training history: four lists per stage, one
    # entry per epoch; the contrastive epochs propagate 2 passes x 2 layers x
    # (forward + backward), and pretraining reads no structure
    for trial in payload["trials"]:
        for old_key in ("pretrain_losses", "finetune_losses",
                        "pretrain_epoch_ms", "finetune_epoch_ms"):
            assert old_key not in trial
        for stage, epochs, calls in (("pretrain", 15, 0), ("finetune", 4, 8)):
            record = trial["history"][stage]
            assert sorted(record) == ["epoch_ms", "losses", "prop_passes", "spmm_calls"]
            assert all(len(values) == epochs for values in record.values())
            assert record["spmm_calls"] == [calls] * epochs


def test_attack_then_external_train(dataset, tmp_path):
    plan = tmp_path / "plan.tsv"
    assert main([
        "attack", "--dataset", str(dataset), "--method", "dice",
        "--ptb", "0.2", "--seed", "3", "--out", str(plan),
    ]) == 0
    assert plan.read_text().startswith("# budget=")
    out = tmp_path / "ext.json"
    rc = main([
        "train", "--dataset", str(dataset), "--variant", "gcn",
        "--attack", "external", "--plan", str(plan),
        "--repeats", "1", "--seed", "4",
        "--pretrain-epochs", "10", "--finetune-epochs", "2",
        "--out", str(out), "--format", "json",
    ])
    assert rc == 0


@pytest.mark.parametrize("method, flags", [
    ("random", []),
    ("dice", []),
    ("grad", []),
    ("grad", ["--pretrain-epochs", "15"]),  # the surrogate ignores training flags
])
def test_saved_plan_replays_the_trial_it_was_drawn_for(dataset, tmp_path, method, flags):
    plan = tmp_path / "plan.tsv"
    assert main(["attack", "--dataset", str(dataset), "--method", method,
                 "--ptb", "0.1", "--seed", "5", "--out", str(plan)]) == 0
    assert len(plan.read_text().splitlines()) > 1  # at least one flip

    def trial(*attack):
        out = tmp_path / "report.json"
        assert main(["train", "--dataset", str(dataset), "--variant", "sfr",
                     *attack, "--seed", "5", "--repeats", "1", "--finetune-epochs", "4",
                     *flags, "--out", str(out)]) == 0
        [only] = json.loads(out.read_text())["trials"]
        return without_epoch_ms(only)

    assert trial("--attack", "external", "--plan", str(plan)) == trial(
        "--attack", method, "--ptb", "0.1"
    )


def test_grad_attack_prints_hit_rate(dataset, tmp_path, capsys):
    assert main([
        "attack", "--dataset", str(dataset), "--method", "grad",
        "--ptb", "0.05", "--seed", "3", "--out", str(tmp_path / "plan.tsv"),
    ]) == 0
    assert "flips were the top-ranked remaining candidate" in capsys.readouterr().out


def test_grad_attack_says_how_many_flips_it_applied_and_why_it_stopped(
    dataset, tmp_path, monkeypatch, capsys
):
    import sfrgnn.attacks as attacks_mod

    args = ["attack", "--dataset", str(dataset), "--method", "grad",
            "--ptb", "0.05", "--seed", "3", "--out", str(tmp_path / "plan.tsv")]
    assert main(args) == 0
    lines = capsys.readouterr().out.splitlines()
    budget = attacks_mod.load_plan(tmp_path / "plan.tsv").budget
    assert "flips were the top-ranked remaining candidate" in lines[-2]
    assert lines[-1] == f"applied {budget} of {budget} flips: budget spent"

    # no pair ever raises the loss: the plan is short, and says so
    monkeypatch.setattr(attacks_mod._ExactFlipLoss, "losses_with",
                        lambda self, keys: np.full(keys.shape[0], self.loss))
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"applied 0 of {budget} flips: no shortlisted flip raises the loss after relinearizing"
    )


def test_bench_and_paired_effect(dataset, tmp_path):
    out = tmp_path / "timing.json"
    rc = main([
        "bench", "--dataset", str(dataset), "--variants", "sfr,mlp",
        "--repeats", "1", "--out", str(out),
    ])
    assert rc == 0
    rows = json.loads(out.read_text())["rows"]
    assert {r["variant"] for r in rows} == {"sfr", "mlp"}

    pe_out = tmp_path / "pe.json"
    rc = main([
        "paired-effect", "--dataset", str(dataset), "--ptb", "0.1",
        "--repeats", "1", "--seed", "5", "--out", str(pe_out),
    ])
    assert rc == 0
    assert "median_difference" in json.loads(pe_out.read_text())


def test_check_grad_exit_zero():
    assert main(["check-grad", "--seed", "2"]) == 0


def test_validation_error_exits_one(tmp_path, capsys):
    rc = main([
        "train", "--dataset", str(tmp_path / "nope"), "--variant", "sfr",
        "--repeats", "1", "--seed", "0", "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.filterwarnings("ignore:invalid value")
def test_numeric_error_exits_two(dataset, tmp_path, capsys):
    rc = main([
        "train", "--dataset", str(dataset), "--variant", "mlp",
        "--repeats", "1", "--seed", "0", "--lr", "1e30",
        "--pretrain-epochs", "5", "--finetune-epochs", "0",
        "--out", str(tmp_path / "x.json"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "variant=mlp" in err  # module errors carry (variant, repeat) context


def test_capacity_error_exits_three(dataset, tmp_path, monkeypatch, capsys):
    import sfrgnn.attacks as attacks_mod

    monkeypatch.setattr(attacks_mod, "GRAD_ATTACK_NODE_CAP", 10)
    rc = main([
        "attack", "--dataset", str(dataset), "--method", "grad",
        "--ptb", "0.1", "--seed", "0", "--out", str(tmp_path / "p.tsv"),
    ])
    assert rc == 3


def test_paired_effect_capacity_error_exits_three(dataset, tmp_path, monkeypatch, capsys):
    import sfrgnn.attacks as attacks_mod

    monkeypatch.setattr(attacks_mod, "GRAD_ATTACK_NODE_CAP", 10)
    out = tmp_path / "pe.json"
    rc = main([
        "paired-effect", "--dataset", str(dataset), "--ptb", "0.1",
        "--repeats", "1", "--out", str(out),
    ])
    assert rc == 3
    assert "the cap is 10 nodes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("bench", ["--variants", "mlp"]),
    ("paired-effect", ["--ptb", "0.1"]),
])
def test_zero_repeats_exits_one(dataset, tmp_path, capsys, command, extra):
    out = tmp_path / "out.json"
    rc = main([command, "--dataset", str(dataset), *extra, "--repeats", "0", "--out", str(out)])
    assert rc == 1
    assert "repeats must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_variant_without_training_epochs_exits_one(dataset, tmp_path, capsys):
    out = tmp_path / "x.json"
    rc = main([
        "train", "--dataset", str(dataset), "--variant", "gcn", "--repeats", "1",
        "--pretrain-epochs", "0", "--finetune-epochs", "5", "--out", str(out),
    ])
    assert rc == 1
    assert "variant 'gcn' trains only in pretrain_epochs" in capsys.readouterr().err
    assert not out.exists()


def _train_args(dataset, tmp_path, *extra):
    return [
        "train", "--dataset", str(dataset), "--variant", "gcn", "--repeats", "1",
        "--pretrain-epochs", "3", "--finetune-epochs", "0",
        "--out", str(tmp_path / "x.json"), *extra,
    ]


@pytest.mark.parametrize("text, message", [
    ("# budget=1 ptb=0.1\nadd\t0\tseven\n", "plan line 1"),
    ("# budget=two ptb=0.1\nadd\t0\t7\n", "plan line 0"),
])
def test_malformed_plan_file_exits_one(dataset, tmp_path, capsys, text, message):
    plan = tmp_path / "plan.tsv"
    plan.write_text(text)
    rc = main(_train_args(dataset, tmp_path, "--attack", "external", "--plan", str(plan)))
    assert rc == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", ["meta.json", "splits.json"])
def test_malformed_json_dataset_file_exits_one(dataset, tmp_path, capsys, name):
    copy = tmp_path / "copy"
    shutil.copytree(dataset, copy)
    (copy / name).write_text('{"train": [0, 1')
    rc = main(_train_args(copy, tmp_path))
    assert rc == 1
    assert f"{name} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["labels.tsv", "edges.tsv", "features.tsv", "plan.tsv"])
def test_non_utf8_text_input_exits_one(dataset, tmp_path, capsys, name):
    copy = tmp_path / "copy"
    shutil.copytree(dataset, copy)
    plan = copy / "plan.tsv"
    plan.write_text("# budget=1 ptb=0.1\nadd\t0\t39\n")
    target = copy / name
    lines = target.read_bytes().split(b"\n")
    lines[1] = b"\xff" + lines[1]  # a Latin-1 byte, never valid UTF-8
    target.write_bytes(b"\n".join(lines))
    rc = main(_train_args(copy, tmp_path, "--attack", "external", "--plan", str(plan)))
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{target}: " in err and "line 1: 'utf-8' codec can't decode" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_non_integer_sfr_threads_exits_one(dataset, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SFR_THREADS", "abc")
    rc = main(_train_args(dataset, tmp_path))
    assert rc == 1
    assert "SFR_THREADS must be a positive integer" in capsys.readouterr().err


def test_zero_hidden_units_exits_one(dataset, tmp_path, capsys):
    rc = main(_train_args(dataset, tmp_path, "--hidden", "0"))
    assert rc == 1
    assert "hidden must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_non_finite_learning_rate_exits_one(dataset, tmp_path, capsys):
    rc = main(_train_args(dataset, tmp_path, "--lr", "inf"))
    assert rc == 1
    assert "lr must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("extra", [
    ["--no-such-flag"],
    ["--hidden", "abc"],
    ["--variant", "sfr-nocl"],  # the variant is spelled sfr_no_cl
])
def test_bad_flag_exits_one(dataset, tmp_path, capsys, extra):
    rc = main(_train_args(dataset, tmp_path, *extra))
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("extra, message", [
    (["--attack", "none"], "attack=none: a plan file is required by, and only read with"),
    (["--attack", "external", "--ptb", "0.4"], "attack=external: ptb_ratio is required by"),
], ids=["plan-without-external", "ptb-with-external"])
def test_flag_the_run_would_not_read_exits_one(dataset, tmp_path, capsys, extra, message):
    plan = tmp_path / "plan.tsv"
    plan.write_text("# budget=1 ptb=0.1\nadd\t0\t39\n")  # a valid plan, ratio 0.1
    rc = main(_train_args(dataset, tmp_path, *extra, "--plan", str(plan)))
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("variants, message", [
    ("sfr,foo", "unknown variant 'foo'"),
    (",", "at least one variant is required"),
])
def test_bad_bench_variant_list_exits_one(dataset, tmp_path, capsys, variants, message):
    out = tmp_path / "timing.json"
    rc = main(["bench", "--dataset", str(dataset), "--variants", variants,
               "--repeats", "1", "--out", str(out)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


OUT_COMMANDS = {
    "train": ["--variant", "mlp", "--repeats", "1", "--pretrain-epochs", "2"],
    "attack": ["--method", "random", "--ptb", "0.1"],
    "bench": ["--variants", "mlp", "--repeats", "1"],
    "paired-effect": ["--ptb", "0.1", "--repeats", "1"],
}


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_unwritable_out_exits_one_before_any_work(dataset, tmp_path, monkeypatch, capsys,
                                                  command, where):
    import sfrgnn.bench as bench_mod
    import sfrgnn.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before --out was checked")

    # every command loads its graph first; `train` would then run a trial
    for module, name in ((bench_mod, "load_graph"), (bench_mod, "train"), (cli_mod, "load_graph")):
        monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "missing" / "x.json" if where == "missing-parent" else tmp_path
    rc = main([command, "--dataset", str(dataset), *OUT_COMMANDS[command], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: --out {out}") and "Traceback" not in err


def test_out_write_error_exits_one(dataset, tmp_path, monkeypatch, capsys):
    # a write that fails after the checks, here on a full disk, names the path
    import errno

    import sfrgnn.cli as cli_mod

    def full_disk(plan, path):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(cli_mod, "save_plan", full_disk)
    out = tmp_path / "plan.tsv"
    rc = main(["attack", "--dataset", str(dataset), "--method", "random", "--ptb", "0.1",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: cannot write --out {out}: No space left on device\n"
