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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .attacks import (
    PerturbationPlan,
    apply_perturbation,
    dice_attack,
    load_plan,
    random_flip_attack,
    sgc_gradient_attack,
)
from .errors import SfrError, ValidationError
from .graph import Graph, load_graph
from .nn import feature_operand
from .rng import RngState, derive_trial_seed
from .trainer import VARIANTS, TrainConfig, predict, train

ATTACKS = ("none", "random", "dice", "grad", "external")
WARMUP_EPOCHS = 5  # leading epochs of every stage that `bench_timing` drops


def _validate_variants(variants: list[str]) -> None:
    if not variants:
        raise ValidationError("at least one variant is required")
    for v in variants:
        if v not in VARIANTS:
            raise ValidationError(f"unknown variant {v!r}; expected one of {VARIANTS}")


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
        if self.repeats < 1:
            raise ValidationError("repeats must be >= 1")
        if self.attack not in ATTACKS:
            raise ValidationError(f"attack must be one of {ATTACKS}")
        if self.attack == "none" and self.ptb_ratio is not None:
            raise ValidationError("ptb_ratio is only meaningful with an attack")
        if self.attack in ("random", "dice", "grad") and self.ptb_ratio is None:
            raise ValidationError(f"attack={self.attack} requires ptb_ratio")
        if self.attack == "external" and not self.plan_path:
            raise ValidationError("attack=external requires a plan file")
        _validate_variants(self.variants)
        self.config.validate()


@dataclass
class TrialResult:
    variant: str
    repeat: int
    seed: int
    clean_acc: dict[str, float]
    attacked_acc: dict[str, float]
    pretrain_losses: list[float]
    finetune_losses: list[float]
    pretrain_epoch_ms: list[float]
    finetune_epoch_ms: list[float]


def _median(values: list[float]) -> float | None:
    return float(np.median(values)) if values else None


def compute_aggregates(trials: list[TrialResult]) -> dict:
    """Per-variant mean +/- population std accuracies and median ms/epoch."""
    out: dict = {}
    for variant in sorted({t.variant for t in trials}):
        rows = [t for t in trials if t.variant == variant]
        clean = np.array([t.clean_acc["test"] for t in rows])
        attacked = np.array([t.attacked_acc["test"] for t in rows])
        pre_ms = [ms for t in rows for ms in t.pretrain_epoch_ms]
        fin_ms = [ms for t in rows for ms in t.finetune_epoch_ms]
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
        for variant, agg in self.aggregates.items():
            if agg["repeats"] != len([t for t in self.trials if t.variant == variant]):
                raise SfrError("aggregate repeat count mismatch")


def _trial_threads() -> int:
    """Trial-level parallelism from $SFR_THREADS (default 1)."""
    raw = os.environ.get("SFR_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValidationError(f"SFR_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def environment_metadata(cfg: TrainConfig, g: Graph) -> dict:
    """Versions, settings, and the feature operand kind (`csr` or `dense`,
    see `nn.feature_operand`) and nonzero share of the graph trained on."""
    import scipy  # here, not at the top: importing sfrgnn does not load scipy

    operand = feature_operand(g.features, cfg.dtype, g.feature_operands)
    return {
        "feature_density": float(np.count_nonzero(g.features) / g.features.size),
        "feature_operand": "dense" if isinstance(operand, np.ndarray) else "csr",
        "precision": cfg.resolved_precision(),
        "scipy": scipy.__version__,
        "threads": _trial_threads(),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _make_plan(spec: ExperimentSpec, g: Graph, repeat: int, base: RngState):
    if spec.attack == "none":
        return None
    if spec.attack == "external":
        return load_plan(spec.plan_path)
    attack_rng = base.substream(f"attack-{repeat}")
    if spec.attack == "random":
        return random_flip_attack(g, spec.ptb_ratio, attack_rng)
    if spec.attack == "dice":
        return dice_attack(g, spec.ptb_ratio, attack_rng)
    return sgc_gradient_attack(g, spec.ptb_ratio, spec.config, attack_rng)


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
        _, acc_on_trial = predict(model, g_trial)
        if attacked:
            _, acc_clean = predict(model, g_clean)
            acc_attacked = acc_on_trial
        else:
            acc_clean = acc_on_trial  # one measurement, two fields
            acc_attacked = acc_on_trial
    except SfrError as exc:
        raise type(exc)(f"variant={variant} repeat={repeat}: {exc}") from exc
    h = model.history
    return TrialResult(
        variant=variant,
        repeat=repeat,
        seed=seed,
        clean_acc=acc_clean,
        attacked_acc=acc_attacked,
        pretrain_losses=h.pretrain.losses,
        finetune_losses=h.finetune.losses,
        pretrain_epoch_ms=h.pretrain.epoch_ms,
        finetune_epoch_ms=h.finetune.epoch_ms,
    )


def run_experiment(spec: ExperimentSpec) -> MetricsReport:
    """Load, attack (once per repeat), train every variant, aggregate."""
    spec.validate()
    threads = _trial_threads()
    g_clean = load_graph(spec.dataset, split_seed=spec.base_seed)
    base = RngState(spec.base_seed)

    tasks = []
    for repeat in range(spec.repeats):
        plan = _make_plan(spec, g_clean, repeat, base)
        attacked = plan is not None and len(plan.flips) > 0
        g_trial = apply_perturbation(g_clean, plan) if plan is not None else g_clean
        for variant in spec.variants:
            tasks.append((g_trial, g_clean, attacked, variant, repeat))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trials = list(pool.map(lambda t: _run_trial(*t, spec), tasks))
    else:
        trials = [_run_trial(*t, spec) for t in tasks]

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
                _median(t.pretrain_epoch_ms), _median(t.finetune_epoch_ms),
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
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    elif fmt == "md":
        text = report_to_md(report)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    Path(path).write_text(text)


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
    baseline)."""
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    cfg = cfg or TrainConfig()
    g = load_graph(dataset, split_seed=seed)
    base = RngState(seed)
    degrees = g.adjacency.degrees()

    drop_matched: list[float] = []
    drop_mismatched: list[float] = []
    for r in range(repeats):
        plan = sgc_gradient_attack(g, ptb_ratio, cfg, base.substream(f"pe-attack-{r}"))
        g_att = apply_perturbation(g, plan)
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
    """Median and IQR ms/epoch per variant and stage, measured after dropping
    `WARMUP_EPOCHS` leading epochs of every stage. Trials run sequentially so
    measurements never overlap."""
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    _validate_variants(variants)
    cfg = cfg or TrainConfig()
    g = load_graph(dataset, split_seed=base_seed)
    rows = []
    for variant in variants:
        pooled: dict[str, list[float]] = {"pretrain": [], "finetune": []}
        for r in range(repeats):
            seed = derive_trial_seed(base_seed, f"timing-{variant}", r)
            model = train(g, cfg, variant, RngState(seed))
            for stage_name, stage in (
                ("pretrain", model.history.pretrain),
                ("finetune", model.history.finetune),
            ):
                if stage.epochs > WARMUP_EPOCHS:
                    pooled[stage_name].extend(stage.epoch_ms[WARMUP_EPOCHS:])
        for stage_name, ms in pooled.items():
            if not ms:
                continue
            arr = np.array(ms)
            q25, q75 = np.percentile(arr, [25, 75])
            rows.append(
                {
                    "variant": variant,
                    "stage": stage_name,
                    "median_ms": float(np.median(arr)),
                    "iqr_ms": float(q75 - q25),
                    "epochs": int(arr.shape[0]),
                }
            )
    return TimingReport(
        dataset=str(dataset),
        repeats=repeats,
        warmup_epochs=WARMUP_EPOCHS,
        environment=environment_metadata(cfg, g),
        rows=rows,
    )
