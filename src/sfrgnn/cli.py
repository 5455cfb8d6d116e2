"""Command-line surface: `sfr train | attack | bench | paired-effect | check-grad`.

Exit codes: 0 success, 1 validation error (bad flags, config values, env vars,
dataset or plan files), 2 numeric error, 3 capacity error.
Env vars: SFR_THREADS (trial-level parallelism, a positive integer),
SFR_PRECISION (f32|f64).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attacks import dice_attack, random_flip_attack, save_plan, sgc_gradient_attack
from .bench import (
    ExperimentSpec,
    bench_timing,
    emit_report,
    paired_effect_probe,
    run_experiment,
)
from .errors import SfrError
from .graph import load_graph
from .nn import check_gradients
from .rng import RngState
from .trainer import TrainConfig

CLI_VARIANTS = {
    "sfr": "sfr",
    "sfr-nocl": "sfr_no_cl",
    "sfr-nofin": "sfr_no_fin",
    "sfr-nd": "sfr_nd",
    "sfr-er": "sfr_er",
    "sfr-fm": "sfr_fm",
    "sfr-ran": "sfr_ran",
    "gcn": "gcn",
    "mlp": "mlp",
    "gcn-jaccard": "gcn_jaccard",
}


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pretrain-epochs", type=int, default=200)
    p.add_argument("--finetune-epochs", type=int, default=20)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--internaa-ratio", type=float, default=1.0)


def _config_from(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(
        hidden=args.hidden,
        dropout=args.dropout,
        lr=args.lr,
        pretrain_epochs=args.pretrain_epochs,
        finetune_epochs=args.finetune_epochs,
        internaa_ratio=args.internaa_ratio,
        seed=args.seed,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sfr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a seeded accuracy experiment")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--variant", required=True, choices=sorted(CLI_VARIANTS))
    p_train.add_argument(
        "--attack", default="none", choices=["none", "random", "dice", "grad", "external"]
    )
    p_train.add_argument("--plan", default=None, help="plan.tsv for --attack external")
    p_train.add_argument("--ptb", type=float, default=None)
    p_train.add_argument("--repeats", type=int, default=10)
    p_train.add_argument("--seed", type=int, default=0)
    _add_config_flags(p_train)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--format", default="json", choices=["json", "csv", "md"])

    p_attack = sub.add_parser("attack", help="generate a perturbation plan")
    p_attack.add_argument("--dataset", required=True)
    p_attack.add_argument("--method", required=True, choices=["random", "dice", "grad"])
    p_attack.add_argument("--ptb", type=float, required=True)
    p_attack.add_argument("--seed", type=int, default=0)
    p_attack.add_argument("--out", required=True)

    p_bench = sub.add_parser("bench", help="per-epoch timing benchmark")
    p_bench.add_argument("--dataset", required=True)
    p_bench.add_argument("--variants", required=True, help="comma-separated variant list")
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", required=True)

    p_pe = sub.add_parser("paired-effect", help="attribute/structure pairing probe")
    p_pe.add_argument("--dataset", required=True)
    p_pe.add_argument("--ptb", type=float, required=True)
    p_pe.add_argument("--repeats", type=int, default=5)
    p_pe.add_argument("--seed", type=int, default=0)
    p_pe.add_argument("--out", required=True)

    p_grad = sub.add_parser("check-grad", help="finite-difference gradient verification")
    p_grad.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_train(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        dataset=args.dataset,
        variants=[CLI_VARIANTS[args.variant]],
        attack=args.attack,
        ptb_ratio=args.ptb,
        plan_path=args.plan,
        repeats=args.repeats,
        base_seed=args.seed,
        config=_config_from(args),
    )
    report = run_experiment(spec)
    emit_report(report, args.out, args.format)
    for variant, agg in report.aggregates.items():
        print(
            f"{variant}: clean {agg['clean_test_mean'] * 100:.1f}"
            f"±{agg['clean_test_std'] * 100:.1f}  "
            f"attacked {agg['attacked_test_mean'] * 100:.1f}"
            f"±{agg['attacked_test_std'] * 100:.1f}"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    g = load_graph(args.dataset, split_seed=args.seed)
    rng = RngState(args.seed)
    if args.method == "random":
        plan = random_flip_attack(g, args.ptb, rng)
    elif args.method == "dice":
        plan = dice_attack(g, args.ptb, rng)
    else:
        plan = sgc_gradient_attack(g, args.ptb, TrainConfig(seed=args.seed), rng)
    save_plan(plan, args.out)
    print(f"wrote {args.out} ({len(plan.flips)} flips, budget {plan.budget})")
    if plan.trace:
        hits = sum(step.rank == 1 for step in plan.trace)
        print(
            f"gradient ranking hit rate {hits / len(plan.trace):.2f}: {hits} of "
            f"{len(plan.trace)} flips were the top-ranked remaining candidate"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    variants = [CLI_VARIANTS[v.strip()] for v in args.variants.split(",") if v.strip()]
    report = bench_timing(args.dataset, variants, args.repeats, base_seed=args.seed)
    Path(args.out).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    for row in report.rows:
        print(
            f"{row['variant']}/{row['stage']}: median {row['median_ms']:.2f} ms/epoch "
            f"(IQR {row['iqr_ms']:.2f}, n={row['epochs']})"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_paired_effect(args: argparse.Namespace) -> int:
    report = paired_effect_probe(args.dataset, args.ptb, args.repeats, args.seed)
    Path(args.out).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    print(
        f"median drop matched {report.median_drop_matched:.2f} pts, "
        f"shuffled {report.median_drop_mismatched:.2f} pts, "
        f"difference {report.median_difference:.2f}"
        + (" (inconclusive)" if report.inconclusive else "")
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_check_grad(args: argparse.Namespace) -> int:
    report = check_gradients(RngState(args.seed))
    print(report.summary())
    return 0 if report.passed else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "train": _cmd_train,
        "attack": _cmd_attack,
        "bench": _cmd_bench,
        "paired-effect": _cmd_paired_effect,
        "check-grad": _cmd_check_grad,
    }
    try:
        return handlers[args.command](args)
    except SfrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
