"""Training pipelines: attribute pretraining, inter-class attribute
augmentation, structure fine-tuning, plus plain GCN/MLP baselines, ablation
variants, and Jaccard edge pruning.

The defining property of the pipeline is structural isolation: `pretrain`
never reads the adjacency at all (no normalization, no propagation), so its
output is bitwise identical across any two graphs that differ only in edges.
Fine-tuning then continues from the pretrained weights with propagation
through the (possibly poisoned) graph enabled, optionally pulling each
training node's representation toward the representation of the same node
under inter-class averaged attributes (a contrastive term).

Pretraining, fine-tuning and the GCN/MLP baselines all run the one epoch loop
`_supervised_loop`; fine-tuning is that loop with propagation on and, unless
its augmented view is None, the contrastive term added.

An epoch computes only the rows its losses read. Both losses read the
training rows T, so layer 2 runs on T, layer 1 on R1 = T + N(T) and x @ w1 on
R2 = R1 + N(R1); without propagation all three are T. `nn.RowPlan` holds the
two operands P[T, R1] and P[R1, R2]; the backward pass uses their transposes.
The rows left out get no gradient in the full pass either, so the result is
the full pass's: every sparse product sums each output row as the full one
does (a row of P in stored order, a column in ascending row) and the omitted
rows add only exact zeros to the weight-gradient products and to the bias
sums. The one exception by design is a dense BLAS product on a row subset,
which may round otherwise (`hd @ w2`, `hd.T @ da2`, and x's products when
features are dense). Prediction runs the full pass.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AugmentationError, NumericError, ValidationError
from .graph import CsrAdjacency, Graph, csr_from_edge_pairs, normalize_adjacency
from .nn import (
    AdamState,
    ModelParams,
    ParamGrads,
    RowPlan,
    adam_step,
    dropout_mask,
    feature_operand,
    gcn_backward,
    gcn_forward,
    infonce_loss,
    init_params,
    nll_loss,
    spmm_calls,
)
from .rng import RngState

VARIANTS = (
    "sfr",
    "sfr_no_cl",
    "sfr_no_fin",
    "sfr_nd",
    "sfr_er",
    "sfr_fm",
    "sfr_ran",
    "gcn",
    "mlp",
    "gcn_jaccard",
)

ABLATION_RATE = 0.2  # corruption rate for the nd / er / fm contrastive views
JACCARD_THRESHOLD = 0.01


@dataclass
class TrainConfig:
    hidden: int = 16
    dropout: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    pretrain_epochs: int = 200
    finetune_epochs: int = 20
    internaa_ratio: float = 1.0
    temperature: float = 1.0
    seed: int = 0  # sfrgnn never reads it; reports record it; perfbench sets it by replace()
    precision: str | None = None  # "f32" | "f64"; None reads $SFR_PRECISION

    def validate(self) -> None:
        if self.hidden < 1:
            raise ValidationError("hidden must be >= 1")
        if not self.lr > 0.0:
            raise ValidationError("lr must be > 0")
        if not self.weight_decay >= 0.0:
            raise ValidationError("weight_decay must be >= 0")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValidationError("epoch counts must be >= 0")
        if self.pretrain_epochs == 0 and self.finetune_epochs == 0:
            raise ValidationError("pretrain_epochs and finetune_epochs cannot both be 0")
        if not (0.0 < self.internaa_ratio <= 1.0):
            raise ValidationError("internaa_ratio must lie in (0, 1]")
        if not (0.0 <= self.dropout < 1.0):
            raise ValidationError("dropout must lie in [0, 1)")
        if self.temperature <= 0.0:
            raise ValidationError("temperature must be > 0")
        if self.resolved_precision() not in ("f32", "f64"):
            raise ValidationError("precision must be 'f32' or 'f64'")

    def resolved_precision(self) -> str:
        return self.precision or os.environ.get("SFR_PRECISION", "f32")

    @property
    def dtype(self):
        return np.float64 if self.resolved_precision() == "f64" else np.float32


@dataclass
class StageHistory:
    losses: list[float] = field(default_factory=list)
    epoch_ms: list[float] = field(default_factory=list)
    prop_passes: list[int] = field(default_factory=list)  # forward passes using the graph
    spmm_calls: list[int] = field(default_factory=list)  # propagation (nn.spmm) calls

    @property
    def epochs(self) -> int:
        return len(self.losses)


@dataclass
class TrainingHistory:
    pretrain: StageHistory = field(default_factory=StageHistory)
    finetune: StageHistory = field(default_factory=StageHistory)


@dataclass
class TrainedModel:
    params: ModelParams
    variant: str
    uses_prop: bool
    history: TrainingHistory


@dataclass
class AugmentedFeatures:
    x_inter: np.ndarray
    replaced_mask: np.ndarray
    sample_log: dict[int, np.ndarray]
    adjacency_override: CsrAdjacency | None = None  # er / nd views propagate differently


def _check_loss(loss: float, context: str) -> float:
    if not np.isfinite(loss):
        raise NumericError(f"{context}: loss diverged to {loss}")
    return float(loss)


def _add_grads(a: ParamGrads, b: ParamGrads) -> ParamGrads:
    return ParamGrads(a.w1 + b.w1, a.b1 + b.b1, a.w2 + b.w2, a.b2 + b.b2)


def _supervised_loop(
    g: Graph,
    cfg: TrainConfig,
    rng: RngState,
    prop: CsrAdjacency | None,
    epochs: int,
    stage: StageHistory,
    stage_name: str,
    params: ModelParams | None = None,
    view: tuple[AugmentedFeatures, CsrAdjacency, np.ndarray] | None = None,
) -> ModelParams:
    """The one training loop: NLL on the training mask, behind pretraining,
    fine-tuning and the GCN/MLP baselines. With prop=None it never touches
    the graph structure.

    `view` = (aug, prop_aug, mask) adds the contrastive term: a second
    forward on the augmented attributes, with the epoch's dropout mask, and
    an InfoNCE loss between the two hidden representations on `mask`, whose
    gradient flows through both views. The two losses are summed unweighted.

    Every epoch computes only the rows the losses read: the plan
    `RowPlan.closure` of the training rows, sliced once per call (the view
    gets its own when prop_aug is not prop).
    """
    dtype = cfg.dtype
    train_ids = np.flatnonzero(g.splits.train)
    plan = RowPlan.closure(prop, train_ids)
    x = feature_operand(g.features, dtype, g.feature_operands)[plan.input_rows]
    labels = g.labels[train_ids]
    every = np.ones(train_ids.shape[0], dtype=bool)
    if params is None:
        params = init_params(x.shape[1], cfg.hidden, g.num_classes, rng, dtype)
    state = AdamState.zeros_like(params)
    if view is not None:
        aug, prop_aug, mask = view
        plan_aug = plan if prop_aug is prop else RowPlan.closure(prop_aug, train_ids)
        x_aug = feature_operand(aug.x_inter, dtype)[plan_aug.input_rows]
        anchors, anchors_aug = mask[plan.hidden_rows], mask[plan_aug.hidden_rows]
    zero_lp = None
    for epoch in range(epochs):
        calls0 = spmm_calls()
        t0 = time.perf_counter()
        drop_rng = rng.substream(f"{stage_name}-dropout-{epoch}")
        keep = dropout_mask(drop_rng, (g.num_nodes, params.w1.shape[1]), cfg.dropout)
        log_probs, cache = gcn_forward(params, x, plan, cfg.dropout, keep)
        loss, grad_lp = nll_loss(log_probs, labels, every)
        if view is None:
            grads = gcn_backward(cache, grad_lp)
        else:
            _, cache_aug = gcn_forward(params, x_aug, plan_aug, cfg.dropout, keep)
            loss_c, grad_h, grad_h_aug = infonce_loss(
                cache.h, cache_aug.h, anchors, cfg.temperature, anchors_aug
            )
            loss = loss + loss_c
            if zero_lp is None:
                zero_lp = np.zeros_like(log_probs)
            grads = _add_grads(
                gcn_backward(cache, grad_lp, grad_hidden=grad_h),
                gcn_backward(cache_aug, zero_lp, grad_hidden=grad_h_aug),
            )
        adam_step(params, grads, state, cfg.lr, cfg.weight_decay)
        stage.losses.append(_check_loss(loss, stage_name))
        stage.epoch_ms.append((time.perf_counter() - t0) * 1000.0)
        stage.prop_passes.append(int(prop is not None) + int(view is not None))
        stage.spmm_calls.append(spmm_calls() - calls0)
    return params


def pretrain(
    g: Graph, cfg: TrainConfig, rng: RngState, history: TrainingHistory | None = None
) -> tuple[ModelParams, TrainingHistory]:
    """Train on attributes only (propagation disabled); the adjacency is never
    read. Returns the trained params and the history."""
    cfg.validate()
    history = history or TrainingHistory()
    params = _supervised_loop(
        g, cfg, rng, prop=None, epochs=cfg.pretrain_epochs,
        stage=history.pretrain, stage_name="pretrain",
    )
    return params, history


def internaa(g: Graph, rng: RngState, subsample_ratio: float = 1.0) -> AugmentedFeatures:
    """Replace each selected training node's attributes by the mean of
    max(degree, 1) randomly sampled training nodes of a different class.

    Sampling is with replacement only when the donor pool is smaller than the
    request. The donor ids are logged per node so the mean is reconstructible.
    """
    return _donor_augmentation(g, rng, subsample_ratio, inter_class=True)


def _donor_augmentation(
    g: Graph, rng: RngState, subsample_ratio: float, inter_class: bool
) -> AugmentedFeatures:
    if not (0.0 < subsample_ratio <= 1.0):
        raise ValidationError("subsample_ratio must lie in (0, 1]")
    train_ids = np.flatnonzero(g.splits.train)
    train_labels = g.labels[train_ids]
    if inter_class and np.unique(train_labels).shape[0] < 2:
        raise AugmentationError("inter-class augmentation needs >= 2 classes in the training set")
    gen = rng.substream("internaa").generator()
    if subsample_ratio < 1.0:
        count = max(1, int(round(subsample_ratio * train_ids.shape[0])))
        selected = np.sort(gen.choice(train_ids, size=count, replace=False))
    else:
        selected = train_ids
    degrees = g.adjacency.degrees()
    # float64 whatever the feature dtype, so donor means are the same for
    # float32 sidecar features as for the float64 values of features.tsv
    x_inter = g.features.astype(np.float64)
    replaced = np.zeros(g.num_nodes, dtype=bool)
    sample_log: dict[int, np.ndarray] = {}
    for v in selected:
        pool = train_ids[train_labels != g.labels[v]] if inter_class else train_ids
        num = int(max(degrees[v], 1))
        donors = gen.choice(pool, size=num, replace=pool.shape[0] < num)
        x_inter[v] = g.features[donors].mean(axis=0, dtype=np.float64)
        sample_log[int(v)] = donors
        replaced[v] = True
    return AugmentedFeatures(x_inter=x_inter, replaced_mask=replaced, sample_log=sample_log)


def _ablation_view(g: Graph, rng: RngState, kind: str) -> AugmentedFeatures:
    """Generic-augmentation second views: node dropping, edge removing,
    feature masking (all at ABLATION_RATE). Anchors are the training nodes."""
    gen = rng.substream(f"aug-{kind}").generator()
    features = g.features
    override = None
    if kind == "nd":
        dropped = gen.random(g.num_nodes) < ABLATION_RATE
        features = g.features.copy()
        features[dropped] = 0.0
        pairs = g.adjacency.edge_pairs()
        keep = ~(dropped[pairs[:, 0]] | dropped[pairs[:, 1]])
        override = csr_from_edge_pairs(g.num_nodes, pairs[keep])
    elif kind == "er":
        pairs = g.adjacency.edge_pairs()
        keep = gen.random(pairs.shape[0]) >= ABLATION_RATE
        override = csr_from_edge_pairs(g.num_nodes, pairs[keep])
    elif kind == "fm":
        masked = gen.random(g.features.shape[1]) < ABLATION_RATE
        features = g.features.copy()
        features[:, masked] = 0.0
    else:
        raise ValidationError(f"unknown ablation view {kind!r}")
    return AugmentedFeatures(
        x_inter=features,
        replaced_mask=g.splits.train.copy(),
        sample_log={},
        adjacency_override=override,
    )


def finetune(
    g: Graph,
    params_p: ModelParams,
    aug: AugmentedFeatures | None,
    cfg: TrainConfig,
    rng: RngState,
    history: TrainingHistory | None = None,
    variant: str = "sfr",
) -> TrainedModel:
    """Continue training from pretrained weights with propagation enabled:
    `_supervised_loop` through the graph, plus the contrastive term against
    the augmented view `aug`. aug=None trains without the contrastive term.
    """
    cfg.validate()
    history = history or TrainingHistory()
    prop = normalize_adjacency(g.adjacency)
    view = None
    if aug is not None:
        prop_aug = (
            normalize_adjacency(aug.adjacency_override)
            if aug.adjacency_override is not None
            else prop
        )
        contrast_mask = g.splits.train & aug.replaced_mask
        if not contrast_mask.any():
            raise ValidationError("contrastive mask selects no training nodes")
        view = (aug, prop_aug, contrast_mask)
    params = _supervised_loop(
        g, cfg, rng, prop=prop, epochs=cfg.finetune_epochs,
        stage=history.finetune, stage_name="finetune", params=params_p.copy(), view=view,
    )
    return TrainedModel(params=params, variant=variant, uses_prop=True, history=history)


def jaccard_prune(g: Graph, threshold: float = JACCARD_THRESHOLD) -> Graph:
    """Drop every edge whose endpoints' nonzero feature sets have Jaccard
    similarity below `threshold`."""
    if not (0.0 <= threshold <= 1.0):
        raise ValidationError("threshold must lie in [0, 1]")
    pairs = g.adjacency.edge_pairs()
    if pairs.shape[0] == 0 or threshold == 0.0:
        return g
    nz = g.features != 0
    keep = np.empty(pairs.shape[0], dtype=bool)
    chunk = 8192
    for s in range(0, pairs.shape[0], chunk):
        u = nz[pairs[s : s + chunk, 0]]
        v = nz[pairs[s : s + chunk, 1]]
        inter = (u & v).sum(axis=1)
        union = (u | v).sum(axis=1)
        jac = inter / np.maximum(union, 1)  # disjoint or empty supports -> 0
        keep[s : s + chunk] = jac >= threshold
    return g.with_adjacency(csr_from_edge_pairs(g.num_nodes, pairs[keep]))


def train(g: Graph, cfg: TrainConfig, variant: str, rng: RngState) -> TrainedModel:
    """Train one variant end to end; mlp, sfr_no_fin, gcn and gcn_jaccard,
    which train only in pretraining epochs, refuse pretrain_epochs=0. Dispatch:

    sfr          pretrain -> inter-class augmentation -> contrastive finetune
    sfr_no_cl    pretrain -> finetune without the contrastive term
    sfr_no_fin   pretrain only (degenerates to the MLP)
    sfr_nd/er/fm contrastive view replaced by node-drop / edge-remove / feature-mask
    sfr_ran      donors drawn uniformly from the training set, class-blind
    gcn          standard supervised training with propagation
    mlp          standard supervised training without propagation
    gcn_jaccard  Jaccard pruning, then gcn on the pruned graph
    """
    cfg.validate()
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if cfg.pretrain_epochs == 0 and variant in ("mlp", "sfr_no_fin", "gcn", "gcn_jaccard"):
        raise ValidationError(f"variant {variant!r} trains only in pretrain_epochs, which is 0")
    g.validate()

    if variant in ("mlp", "sfr_no_fin"):
        params, history = pretrain(g, cfg, rng)
        return TrainedModel(params=params, variant=variant, uses_prop=False, history=history)

    if variant in ("gcn", "gcn_jaccard"):
        target = jaccard_prune(g) if variant == "gcn_jaccard" else g
        history = TrainingHistory()
        params = _supervised_loop(
            target, cfg, rng, prop=normalize_adjacency(target.adjacency),
            epochs=cfg.pretrain_epochs, stage=history.pretrain, stage_name="pretrain",
        )
        return TrainedModel(params=params, variant=variant, uses_prop=True, history=history)

    params_p, history = pretrain(g, cfg, rng)
    if variant == "sfr":
        aug = internaa(g, rng, cfg.internaa_ratio)
    elif variant == "sfr_ran":
        aug = _donor_augmentation(g, rng, cfg.internaa_ratio, inter_class=False)
    elif variant in ("sfr_nd", "sfr_er", "sfr_fm"):
        aug = _ablation_view(g, rng, variant.split("_", 1)[1])
    else:  # sfr_no_cl
        aug = None
    return finetune(g, params_p, aug, cfg, rng, history=history, variant=variant)


def predict(model: TrainedModel, g: Graph) -> tuple[np.ndarray, dict[str, float]]:
    """Eval-mode predictions (dropout off, argmax with lowest-index ties) and
    accuracy per split mask. Propagation follows the variant: MLP-style models
    skip it, gcn_jaccard re-prunes the graph it is asked to predict on."""
    if model.uses_prop:
        target = jaccard_prune(g) if model.variant == "gcn_jaccard" else g
        prop = normalize_adjacency(target.adjacency)
    else:
        prop = None
    x = feature_operand(g.features, model.params.w1.dtype, g.feature_operands)
    log_probs, _ = gcn_forward(model.params, x, prop)
    pred = np.argmax(log_probs, axis=1).astype(np.int64)
    correct = pred == g.labels
    accs = {
        name: float(correct[mask].mean()) if mask.any() else 0.0
        for name, mask in (
            ("train", g.splits.train), ("val", g.splits.val), ("test", g.splits.test),
        )
    }
    return pred, accs
