"""Command-line surface: `sfr train | attack | bench | paired-effect | check-grad`.

Variant names (`--variant`, `--variants`) are those of `trainer.VARIANTS`,
e.g. `sfr`, `sfr_no_cl`, `gcn_jaccard`; reports are keyed by the same names.
`sfr attack --seed s` writes the plan that repeat 0 of `sfr train --attack
<method> --seed s` trains on, and `sfr train --attack external --plan <file>`
replays it; the `grad` surrogate trains at the default config, whatever the
training flags.
Exit codes: 0 success, 1 validation error (bad flags, flags the run would not
read such as `--plan` without `--attack external` or `--ptb` with it, unknown
or repeated variant names, config values, env vars, dataset or plan files,
an `--out` that cannot be written), 2 numeric error, 3 capacity error (a size
cap, or an allocation that runs out of memory).
Env vars: SFR_PRECISION (f32|f64).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import NoReturn

from .attacks import ATTACK_METHODS, save_plan
from .bench import (
    ATTACKS,
    ExperimentSpec,
    bench_timing,
    emit_report,
    format_accuracy,
    paired_effect_probe,
    repeat_plan,
    report_to_json,
    run_experiment,
)
from .errors import CapacityError, SfrError, ValidationError
from .graph import load_graph
from .nn import check_gradients
from .rng import RngState
from .trainer import VARIANTS, TrainConfig

# TrainConfig fields settable from the command line, as `--pretrain-epochs` etc.
CONFIG_FLAGS = ("pretrain_epochs", "finetune_epochs", "hidden", "lr", "dropout", "internaa_ratio")


class _Parser(argparse.ArgumentParser):
    """A bad flag is a validation error (exit 1), not argparse's exit 2."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    for name in CONFIG_FLAGS:
        value = getattr(defaults, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)


def _config_from(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(seed=args.seed, **{name: getattr(args, name) for name in CONFIG_FLAGS})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sfr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a seeded accuracy experiment")
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--variant", required=True, choices=VARIANTS)
    p_train.add_argument("--attack", default="none", choices=ATTACKS)
    p_train.add_argument("--plan", default=None, help="plan.tsv for --attack external")
    p_train.add_argument("--ptb", type=float, default=None)
    p_train.add_argument("--repeats", type=int, default=10)
    p_train.add_argument("--seed", type=int, default=0)
    _add_config_flags(p_train)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--format", default="json", choices=["json", "csv", "md"])

    p_attack = sub.add_parser("attack", help="generate a perturbation plan")
    p_attack.add_argument("--dataset", required=True)
    p_attack.add_argument("--method", required=True, choices=tuple(ATTACK_METHODS))
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
        variants=[args.variant],
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
            f"{variant}: clean {format_accuracy(agg['clean_test_mean'], agg['clean_test_std'])}"
            f"  attacked {format_accuracy(agg['attacked_test_mean'], agg['attacked_test_std'])}"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    g = load_graph(args.dataset, split_seed=args.seed)
    plan = repeat_plan(g, args.method, args.ptb, args.seed, repeat=0)
    save_plan(plan, args.out)
    print(f"wrote {args.out} ({len(plan.flips)} flips, budget {plan.budget})")
    if plan.trace:
        hits = sum(step.rank == 1 for step in plan.trace)
        print(
            f"gradient ranking hit rate {hits / len(plan.trace):.2f}: {hits} of "
            f"{len(plan.trace)} flips were the top-ranked remaining candidate"
        )
    if plan.stop_reason:
        print(f"applied {len(plan.flips)} of {plan.budget} flips: {plan.stop_reason}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    report = bench_timing(args.dataset, variants, args.repeats, base_seed=args.seed)
    Path(args.out).write_text(report_to_json(report))
    for row in report.rows:
        print(
            f"{row['variant']}/{row['stage']}: median {row['median_ms']:.2f} ms/epoch "
            f"(IQR {row['iqr_ms']:.2f}, n={row['epochs']})"
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_paired_effect(args: argparse.Namespace) -> int:
    report = paired_effect_probe(args.dataset, args.ptb, args.repeats, args.seed)
    Path(args.out).write_text(report_to_json(report))
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


def _check_out(out: str) -> None:
    """Refuse an --out that is a directory or whose parent is not one."""
    path = Path(out)
    if path.is_dir():
        raise ValidationError(f"--out {out} is a directory")
    if not path.parent.is_dir():
        raise ValidationError(f"--out {out}: {path.parent} is not a directory")


def main(argv: list[str] | None = None) -> int:
    handlers = {
        "train": _cmd_train,
        "attack": _cmd_attack,
        "bench": _cmd_bench,
        "paired-effect": _cmd_paired_effect,
        "check-grad": _cmd_check_grad,
    }
    try:
        args = build_parser().parse_args(argv)
        out = getattr(args, "out", None)
        if out is not None:
            _check_out(out)  # before any work
        try:
            return handlers[args.command](args)
        except OSError as exc:  # only one on the --out path is the write's own
            if out is None or exc.filename is None or Path(exc.filename) != Path(out):
                raise
            raise ValidationError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
        except MemoryError as exc:  # an allocation the sizes ask for, e.g. --hidden 10**12
            raise CapacityError(f"out of memory: {exc}") from exc
    except SfrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
