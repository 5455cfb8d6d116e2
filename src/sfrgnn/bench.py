"""Seeded experiment orchestration: accuracy experiments over attacks and
variants, timing benchmarks, report emission, and the attribute/structure
paired-effect probe.

Per-epoch wall times come from the training histories (monotonic timer around
each epoch body); dataset loading, attack generation, and report I/O are never
inside a timed region.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .attacks import (
    ATTACK_METHODS,
    PerturbationPlan,
    apply_perturbation,
    load_plan,
)
from .errors import SfrError, ValidationError
from .graph import Graph, load_graph
from .nn import feature_operand
from .rng import RngState, derive_trial_seed
from .trainer import VARIANTS, TrainConfig, TrainingHistory, check_count, predict, train

ATTACKS = ("none", *ATTACK_METHODS, "external")
WARMUP_EPOCHS = 5  # leading epochs of every stage that `bench_timing` drops


@dataclass
class ExperimentSpec:
    dataset: str
    variants: list[str]
    attack: str = "none"
    ptb_ratio: float | None = None
    plan_path: str | None = None
    repeats: int = 10
    base_seed: int = 0
    config: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        self.repeats = check_count(self.repeats, "repeats", 1)
        self.base_seed = check_count(self.base_seed, "base_seed")
        if self.attack not in ATTACKS:
            raise ValidationError(f"attack must be one of {ATTACKS}")
        # a flag the run would not read is refused, not written into the report
        if (self.ptb_ratio is None) == (self.attack in ATTACK_METHODS):
            raise ValidationError(
                f"attack={self.attack}: ptb_ratio is required by, and only read with, the "
                f"attacks {', '.join(ATTACK_METHODS)}; a plan file holds its own"
            )
        if (not self.plan_path) == (self.attack == "external"):
            raise ValidationError(
                f"attack={self.attack}: a plan file is required by, and only read with, "
                "attack=external"
            )
        if not self.variants:
            raise ValidationError("at least one variant is required")
        for v in self.variants:
            if v not in VARIANTS:
                raise ValidationError(f"unknown variant {v!r}; expected one of {VARIANTS}")
            if self.variants.count(v) > 1:
                raise ValidationError(f"variant {v!r} is named twice")
        self.config.validate()


@dataclass
class TrialResult:
    variant: str
    repeat: int
    seed: int
    clean_acc: dict[str, float]
    attacked_acc: dict[str, float]
    history: TrainingHistory


def _median(values: list[float]) -> float | None:
    return float(np.median(values)) if values else None


def compute_aggregates(trials: list[TrialResult]) -> dict:
    """Per-variant mean +/- population std accuracies and median ms/epoch."""
    out: dict = {}
    for variant in sorted({t.variant for t in trials}):
        rows = [t for t in trials if t.variant == variant]
        clean = np.array([t.clean_acc["test"] for t in rows])
        attacked = np.array([t.attacked_acc["test"] for t in rows])
        pre_ms = [ms for t in rows for ms in t.history.pretrain.epoch_ms]
        fin_ms = [ms for t in rows for ms in t.history.finetune.epoch_ms]
        out[variant] = {
            "repeats": len(rows),
            "clean_test_mean": float(clean.mean()),
            "clean_test_std": float(clean.std()),  # population std over the runs
            "attacked_test_mean": float(attacked.mean()),
            "attacked_test_std": float(attacked.std()),
            "median_ms_per_epoch": {
                "pretrain": _median(pre_ms),
                "finetune": _median(fin_ms),
            },
        }
    return out


@dataclass
class MetricsReport:
    spec: dict
    environment: dict
    trials: list[TrialResult]
    aggregates: dict

    def verify_consistency(self) -> None:
        recomputed = compute_aggregates(self.trials)
        if json.dumps(recomputed, sort_keys=True) != json.dumps(self.aggregates, sort_keys=True):
            raise SfrError("report aggregates do not match their per-trial rows")


def environment_metadata(cfg: TrainConfig, g: Graph) -> dict:
    """Versions, settings, usable CPUs, and the feature operand kind (`csr` or
    `dense`, see `nn.feature_operand`) and nonzero share of the graph trained
    on. `blas` is numpy's BLAS, name and version (`unknown` where numpy does
    not say): a dense product's bits depend on it."""
    import scipy  # here, not at the top: importing sfrgnn does not load scipy

    operand = feature_operand(g.features, cfg.dtype, g.feature_operands)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "blas": blas,
        "cpu_count": cpus,
        "feature_density": float(np.count_nonzero(g.features) / g.features.size),
        "feature_operand": "dense" if isinstance(operand, np.ndarray) else "csr",
        "numpy": np.__version__,
        "precision": cfg.resolved_precision(),
        "scipy": scipy.__version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def repeat_plan(
    g: Graph, method: str, ptb_ratio: float, seed: int, repeat: int
) -> PerturbationPlan:
    """The plan that repeat `repeat` of a `seed`-seeded experiment trains on,
    and that `sfr attack --seed seed` writes (repeat 0). It depends on no
    training flag: the gradient attack's surrogate trains at the default config."""
    return ATTACK_METHODS[method](g, ptb_ratio, RngState(seed).substream(f"attack-{repeat}"))


def _run_trial(
    g_trial: Graph,
    g_clean: Graph,
    attacked: bool,
    variant: str,
    repeat: int,
    spec: ExperimentSpec,
) -> TrialResult:
    seed = derive_trial_seed(spec.base_seed, variant, repeat)
    try:
        model = train(g_trial, spec.config, variant, RngState(seed))
        _, acc_attacked = predict(model, g_trial)
        acc_clean = predict(model, g_clean)[1] if attacked else acc_attacked
    except SfrError as exc:
        raise type(exc)(f"variant={variant} repeat={repeat}: {exc}") from exc
    return TrialResult(variant, repeat, seed, acc_clean, acc_attacked, model.history)


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Load, attack (once per repeat, or once for an external plan), train
    every variant, aggregate. Trials run one at a time in the calling thread,
    repeat by repeat: each repeat's graph is poisoned after the previous
    repeat's trials."""
    spec.validate()
    g_clean = load_graph(spec.dataset, split_seed=spec.base_seed)

    def poisoned(plan: PerturbationPlan | None) -> tuple[bool, Graph]:
        if plan is None:
            return False, g_clean
        return len(plan.flips) > 0, apply_perturbation(g_clean, plan)

    if spec.attack not in ATTACK_METHODS:  # one graph serves every repeat
        shared = poisoned(load_plan(spec.plan_path) if spec.attack == "external" else None)
    trials = []
    for repeat in range(spec.repeats):
        if spec.attack in ATTACK_METHODS:
            attacked, g_trial = poisoned(
                repeat_plan(g_clean, spec.attack, spec.ptb_ratio, spec.base_seed, repeat)
            )
        else:
            attacked, g_trial = shared
        for variant in spec.variants:
            trials.append(_run_trial(g_trial, g_clean, attacked, variant, repeat, spec))

    # the dataset as a string and the precision resolved, as the run used it
    config = replace(spec.config, precision=spec.config.resolved_precision())
    report = MetricsReport(
        spec=asdict(replace(spec, dataset=str(spec.dataset), config=config)),
        environment=environment_metadata(spec.config, g_clean),
        trials=trials,
        aggregates=compute_aggregates(trials),
    )
    report.verify_consistency()
    return report


def format_accuracy(mean: float, std: float) -> str:
    """Percentage points, one decimal: `82.1±0.6`."""
    return f"{mean * 100:.1f}±{std * 100:.1f}"


def report_to_json(report: MetricsReport | PairedEffectReport | TimingReport) -> str:
    return json.dumps(asdict(report), sort_keys=True, indent=2) + "\n"


def report_to_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "variant", "repeat", "seed",
            "clean_train", "clean_val", "clean_test",
            "attacked_train", "attacked_val", "attacked_test",
            "pretrain_ms_median", "finetune_ms_median",
        ]
    )
    for t in report.trials:
        writer.writerow(
            [
                t.variant, t.repeat, t.seed,
                t.clean_acc["train"], t.clean_acc["val"], t.clean_acc["test"],
                t.attacked_acc["train"], t.attacked_acc["val"], t.attacked_acc["test"],
                _median(t.history.pretrain.epoch_ms), _median(t.history.finetune.epoch_ms),
            ]
        )
    return buf.getvalue()


def _fmt_ms(value: float | None) -> str:
    return f"{value:.2f}" if value is not None else "-"


def report_to_md(report: MetricsReport) -> str:
    lines = [
        "| variant | clean test acc | attacked test acc | pretrain ms/epoch | finetune ms/epoch |",
        "|---|---|---|---|---|",
    ]
    for variant, agg in report.aggregates.items():
        ms = agg["median_ms_per_epoch"]
        lines.append(
            "| {} | {} | {} | {} | {} |".format(
                variant,
                format_accuracy(agg["clean_test_mean"], agg["clean_test_std"]),
                format_accuracy(agg["attacked_test_mean"], agg["attacked_test_std"]),
                _fmt_ms(ms["pretrain"]),
                _fmt_ms(ms["finetune"]),
            )
        )
    return "\n".join(lines) + "\n"


def emit_report(report: MetricsReport, path: str | Path, fmt: str) -> None:
    report.verify_consistency()
    writers = {"json": report_to_json, "csv": report_to_csv, "md": report_to_md}
    if fmt not in writers:
        raise ValidationError(f"unknown report format {fmt!r}")
    Path(path).write_text(writers[fmt](report))


def degree_preserving_shuffle(
    features: np.ndarray, degrees: np.ndarray, rng: RngState
) -> np.ndarray:
    """Permute feature rows among nodes of equal degree. Nodes whose degree
    class is a singleton are pooled together and permuted among themselves."""
    gen = rng.substream("degree-shuffle").generator()
    perm = np.arange(features.shape[0])
    singletons = []
    for deg in np.unique(degrees):
        idx = np.flatnonzero(degrees == deg)
        if idx.shape[0] == 1:
            singletons.append(idx[0])
        else:
            perm[idx] = idx[gen.permutation(idx.shape[0])]
    if len(singletons) > 1:
        pool = np.array(singletons)
        perm[pool] = pool[gen.permutation(pool.shape[0])]
    return features[perm]


@dataclass
class PairedEffectReport:
    dataset: str
    ptb_ratio: float
    repeats: int
    seed: int
    drop_matched: list[float]  # percentage points, one entry per repeat
    drop_mismatched: list[float]
    environment: dict = field(compare=False)  # where and when it ran, not what it found
    median_drop_matched: float
    median_drop_mismatched: float
    median_difference: float
    inconclusive: bool  # |difference| < 0.5 points


def paired_effect_probe(
    dataset: str | Path,
    ptb_ratio: float,
    repeats: int,
    seed: int,
    cfg: TrainConfig | None = None,
) -> PairedEffectReport:
    """Gradient-attack the graph against its true attributes, then compare the
    accuracy drop of a GCN trained with those attributes against the drop with
    degree-preservingly shuffled attributes (each relative to its own clean
    baseline). Repeat r's plan is `repeat_plan(g, "grad", ptb_ratio, seed, r)`,
    the one `sfr train --attack grad` trains on; `cfg` configures the GCNs
    trained on it, not the attack's surrogate."""
    repeats = check_count(repeats, "repeats", 1)
    seed = check_count(seed, "seed")
    cfg = cfg or TrainConfig()
    g = load_graph(dataset, split_seed=seed)
    base = RngState(seed)
    degrees = g.adjacency.degrees()

    drop_matched: list[float] = []
    drop_mismatched: list[float] = []
    for r in range(repeats):
        g_att = apply_perturbation(g, repeat_plan(g, "grad", ptb_ratio, seed, r))
        shuffled = degree_preserving_shuffle(g.features, degrees, base.substream(f"pe-shuffle-{r}"))
        g_shuf = Graph(
            features=shuffled, adjacency=g.adjacency, labels=g.labels,
            splits=g.splits, num_classes=g.num_classes, name=g.name,
        )
        g_shuf_att = g_shuf.with_adjacency(g_att.adjacency)
        for arm, clean_g, att_g, sink in (
            ("matched", g, g_att, drop_matched),
            ("mismatched", g_shuf, g_shuf_att, drop_mismatched),
        ):
            arm_seed = derive_trial_seed(seed, f"paired-{arm}", r)
            _, acc_clean = predict(train(clean_g, cfg, "gcn", RngState(arm_seed)), clean_g)
            _, acc_att = predict(train(att_g, cfg, "gcn", RngState(arm_seed)), att_g)
            sink.append((acc_clean["test"] - acc_att["test"]) * 100.0)

    med_m = float(np.median(drop_matched))
    med_x = float(np.median(drop_mismatched))
    return PairedEffectReport(
        dataset=str(dataset),
        ptb_ratio=ptb_ratio,
        repeats=repeats,
        seed=seed,
        drop_matched=drop_matched,
        drop_mismatched=drop_mismatched,
        environment=environment_metadata(cfg, g),
        median_drop_matched=med_m,
        median_drop_mismatched=med_x,
        median_difference=med_m - med_x,
        inconclusive=abs(med_m - med_x) < 0.5,
    )


@dataclass
class TimingReport:
    dataset: str
    repeats: int
    warmup_epochs: int
    environment: dict
    rows: list[dict]  # variant, stage, median_ms, iqr_ms, epochs


def bench_timing(
    dataset: str | Path,
    variants: list[str],
    repeats: int,
    base_seed: int = 0,
    cfg: TrainConfig | None = None,
) -> TimingReport:
    """Median and IQR ms/epoch per variant and stage over the trials of a
    clean `run_experiment`, each stage's first `WARMUP_EPOCHS` epochs dropped."""
    report = run_experiment(ExperimentSpec(str(dataset), variants, repeats=repeats,
                                           base_seed=base_seed, config=cfg or TrainConfig()))
    rows = []
    for variant in variants:
        trials = [t for t in report.trials if t.variant == variant]
        for stage in ("pretrain", "finetune"):
            ms = [x for t in trials for x in getattr(t.history, stage).epoch_ms[WARMUP_EPOCHS:]]
            if ms:
                q25, q75 = np.percentile(ms, [25, 75])
                rows.append(
                    {
                        "variant": variant,
                        "stage": stage,
                        "median_ms": float(np.median(ms)),
                        "iqr_ms": float(q75 - q25),
                        "epochs": len(ms),
                    }
                )
    return TimingReport(
        dataset=str(dataset),
        repeats=report.spec["repeats"],
        warmup_epochs=WARMUP_EPOCHS,
        environment=report.environment,
        rows=rows,
    )
