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
`_supervised_loop` on the one epoch objective `epoch_objective`, which
`nn.check_gradients` also differentiates; fine-tuning is that loop with
propagation on and, unless its augmented view is None, the contrastive term
added.

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

Dropout is drawn only for the rows layer 1 computes: R1, or T without
propagation, so pretraining's stream does not depend on the edges either.

A contrastive view is the graph's features plus a row patch: the rows it
replaces and their values (InterNAA's float64 donor means, the zeroed rows
of node dropping, every row of feature masking, none for edge removing).
Fine-tuning swaps the patch into the graph's cached feature operand and
recomputes, each epoch, only what the patch changes, on the supervised
pass's rows.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import AugmentationError, NumericError, ValidationError
from .graph import CsrAdjacency, Graph, csr_from_edge_pairs, normalize_adjacency, sorted_contains
from .nn import (
    AdamState,
    ModelParams,
    RowPlan,
    adam_step,
    dropout_mask,
    feature_operand,
    feature_transpose,
    gcn_backward,
    gcn_forward,
    infonce_loss,
    init_params,
    nll_loss,
    patched_operand,
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


def check_count(value, name: str, minimum: int | None = None) -> int:
    """The value as a Python int, so that reports serialize it; refuses one
    that is not an integer >= `minimum` (any integer, such as a seed,
    without one): Python and numpy integers pass, bools and integral floats
    do not."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}")
    return int(value)


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
        self.hidden = check_count(self.hidden, "hidden", 1)
        self.pretrain_epochs = check_count(self.pretrain_epochs, "pretrain_epochs", 0)
        self.finetune_epochs = check_count(self.finetune_epochs, "finetune_epochs", 0)
        self.seed = check_count(self.seed, "seed")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValidationError("lr must be finite and > 0")
        if not (np.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValidationError("weight_decay must be finite and >= 0")
        if self.pretrain_epochs == 0 and self.finetune_epochs == 0:
            raise ValidationError("pretrain_epochs and finetune_epochs cannot both be 0")
        if not (0.0 < self.internaa_ratio <= 1.0):
            raise ValidationError("internaa_ratio must lie in (0, 1]")
        if not (0.0 <= self.dropout < 1.0):
            raise ValidationError("dropout must lie in [0, 1)")
        if not (np.isfinite(self.temperature) and self.temperature > 0.0):
            raise ValidationError("temperature must be finite and > 0")
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
    """A contrastive view: the graph's features with the rows at the
    ascending ids `rows` replaced by `values` (|rows| x d: float64 donor
    means, else in the features' dtype), the anchors' mask, and, for the
    er / nd views, the edges it propagates over."""

    rows: np.ndarray
    values: np.ndarray
    replaced_mask: np.ndarray
    sample_log: dict[int, np.ndarray]
    adjacency_override: CsrAdjacency | None = None  # er / nd views propagate differently

    def validate(self, g: Graph) -> None:
        """The view's contract on g. An override may only remove edges, so
        that the view's rows fit inside the supervised pass's."""
        n, d = g.features.shape
        rows = self.rows
        if not (isinstance(rows, np.ndarray) and rows.ndim == 1
                and np.issubdtype(rows.dtype, np.integer)):
            raise ValidationError("view rows must be a 1-D integer array")
        if rows.shape[0] and (rows[0] < 0 or rows[-1] >= n or np.any(np.diff(rows) <= 0)):
            raise ValidationError(f"view rows must be strictly ascending ids in [0, {n})")
        if not (isinstance(self.values, np.ndarray) and self.values.shape == (rows.shape[0], d)):
            raise ValidationError(f"view values must be an array of shape ({rows.shape[0]}, {d})")
        mask = self.replaced_mask
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (n,)):
            raise ValidationError(f"view replaced_mask must be a bool array of shape ({n},)")
        override = self.adjacency_override
        if override is not None:
            if override.dim != n:
                raise ValidationError(f"view adjacency_override must have dimension {n}")
            override.validate()
            if not sorted_contains(g.adjacency.edge_keys(), override.edge_keys()).all():
                raise ValidationError("view adjacency_override holds an edge the graph does not")


def _check_loss(loss: float, context: str) -> float:
    if not np.isfinite(loss):
        raise NumericError(f"{context}: loss diverged to {loss}")
    return float(loss)


def epoch_objective(
    operand,
    train_ids: np.ndarray,
    labels: np.ndarray,
    prop: CsrAdjacency | None,
    view: tuple[AugmentedFeatures, CsrAdjacency] | None = None,
    temperature: float = 1.0,
):
    """The epoch's loss as a function of the parameters. Returns (plan,
    objective): `plan` is `RowPlan.closure(prop, train_ids)`, and
    `objective(params, drop_scale)` runs one pass on it and returns the loss
    and its exact parameter gradients: the NLL of `labels` at the ascending
    ids `train_ids`, on `operand` (`feature_operand`, in the weights' dtype),
    with a dropout scale of one row per R1 row, or None (eval mode).

    `view` = (aug, prop_aug) adds, unweighted, InfoNCE at `temperature`
    between the pass's pre-dropout hidden rows and those of an eval-mode pass
    on aug's features, on the anchors: the training nodes aug replaces. No
    loss reads the view past its hidden layer, so its dropout would change
    nothing. The view runs on the plan's rows, over prop_aug sliced to them;
    prop_aug holds only edges of prop (`AugmentedFeatures.validate`), so each
    view row a loss reads sums the entries its own closure would, in the same
    order. Its x @ w1 is the pass's a1 with aug's patch rows recomputed, and
    its w1 gradient is taken on its R1 rows alone, where InfoNCE's gradient
    can reach; both give the bytes of the full products. Everything but the
    passes is set up once per call.
    """
    plan = RowPlan.closure(prop, train_ids)
    x = operand[plan.input_rows]
    x_t = feature_transpose(x)
    every = np.ones(train_ids.shape[0], dtype=bool)
    if view is not None:
        aug, prop_aug = view
        r1, r2 = plan.hidden_rows, plan.input_rows
        anchors = aug.replaced_mask[r1] & np.isin(r1, train_ids)
        if not anchors.any():
            raise ValidationError("contrastive mask selects no training nodes")
        plan_aug = plan if prop_aug is prop else RowPlan(
            r1, r2, prop_aug.block(r1, r2), prop_aug.block(train_ids, r1)
        )
        x_aug, patch_at = patched_operand(operand, aug.rows, aug.values, r2)
        x_patch = x_aug[patch_at]
        hidden_at = np.searchsorted(r2, r1)
        x_aug_t = feature_transpose(x_aug[hidden_at])

    def objective(params: ModelParams, drop_scale: np.ndarray | None):
        log_probs, cache = gcn_forward(params, x, plan, drop_scale)
        loss, grad_lp = nll_loss(log_probs, labels, every)
        if view is None:
            return loss, gcn_backward(cache, grad_lp, x_t=x_t)
        a1_aug = cache.a1.copy()
        a1_aug[patch_at] = x_patch @ params.w1
        _, cache_aug = gcn_forward(params, None, plan_aug, a1=a1_aug)
        nce, grad_h, grad_h_aug = infonce_loss(cache.h, cache_aug.h, anchors, temperature)
        grads = gcn_backward(cache, grad_lp, grad_hidden=grad_h, x_t=x_t) + gcn_backward(
            cache_aug, np.zeros_like(grad_lp), grad_hidden=grad_h_aug, x_t=x_aug_t, x_rows=hidden_at
        )
        return loss + nce, grads

    return plan, objective


def _supervised_loop(
    g: Graph,
    cfg: TrainConfig,
    rng: RngState,
    prop: CsrAdjacency | None,
    history: TrainingHistory,
    stage_name: str,
    params: ModelParams | None = None,
    view: tuple[AugmentedFeatures, CsrAdjacency] | None = None,
) -> ModelParams:
    """The one training loop, behind pretraining, fine-tuning and the GCN/MLP
    baselines: `cfg.<stage_name>_epochs` Adam steps on the `epoch_objective`
    of g's training rows, recorded in `history.<stage_name>`. With prop=None
    it never touches the graph structure. Each epoch's dropout scale is the
    next draw of one generator per call, for the plan's R1 rows only.
    """
    dtype = cfg.dtype
    stage = getattr(history, stage_name)
    train_ids = np.flatnonzero(g.splits.train)
    operand = feature_operand(g.features, dtype, g.feature_operands)
    plan, objective = epoch_objective(
        operand, train_ids, g.labels[train_ids], prop, view, cfg.temperature
    )
    if params is None:
        params = init_params(operand.shape[1], cfg.hidden, g.num_classes, rng, dtype)
    state = AdamState.zeros_like(params)
    drop_gen = rng.substream(f"{stage_name}-dropout").generator()
    drop_shape = (plan.hidden_rows.shape[0], params.w1.shape[1])
    for _ in range(getattr(cfg, f"{stage_name}_epochs")):
        calls0 = spmm_calls()
        t0 = time.perf_counter()
        loss, grads = objective(params, dropout_mask(drop_gen, drop_shape, cfg.dropout))
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
    params = _supervised_loop(g, cfg, rng, None, history, "pretrain")
    return params, history


def internaa(g: Graph, rng: RngState, subsample_ratio: float = 1.0) -> AugmentedFeatures:
    """Replace each selected training node's attributes by the mean of
    max(degree, 1) randomly sampled training nodes of a different class.

    Sampling is with replacement only when the donor pool is smaller than the
    request. The donor ids are logged per node so the mean is reconstructible.
    The view is a row patch: the selected rows and their float64 means, the
    bytes of `g.features[donors].mean(axis=0, dtype=np.float64)` (for d >= 2;
    numpy sums a single column pairwise). Its peak stays under an operand of
    the training rows and two |selected| x d float64 arrays.
    """
    return _donor_augmentation(g, rng, subsample_ratio, inter_class=True)


def _donor_augmentation(
    g: Graph, rng: RngState, subsample_ratio: float, inter_class: bool
) -> AugmentedFeatures:
    if not (0.0 < subsample_ratio <= 1.0):
        raise ValidationError("subsample_ratio must lie in (0, 1]")
    train_ids = np.flatnonzero(g.splits.train)
    train_labels = g.labels[train_ids]
    classes = np.unique(train_labels)
    if inter_class and classes.shape[0] < 2:
        raise AugmentationError("inter-class augmentation needs >= 2 classes in the training set")
    gen = rng.substream("internaa").generator()
    if subsample_ratio < 1.0:
        count = max(1, int(round(subsample_ratio * train_ids.shape[0])))
        selected = np.sort(gen.choice(train_ids, size=count, replace=False))
    else:
        selected = train_ids
    degrees = g.adjacency.degrees()
    pools = {c: train_ids[train_labels != c] if inter_class else train_ids for c in classes}
    sample_log: dict[int, np.ndarray] = {}
    for v in selected:
        pool = pools[g.labels[v]]
        num = int(max(degrees[v], 1))
        sample_log[int(v)] = gen.choice(pool, size=num, replace=pool.shape[0] < num)
    replaced = np.zeros(g.num_nodes, dtype=bool)
    replaced[selected] = True
    values = _donor_means(g, train_ids, list(sample_log.values()))
    return AugmentedFeatures(selected, values, replaced, sample_log)


def _donor_means(g: Graph, train_ids: np.ndarray, donor_sets: list[np.ndarray]) -> np.ndarray:
    """The float64 mean of g's feature rows at each donor set, all of them
    training nodes (the ascending `train_ids`): one weighted bincount adds
    the donors' stored entries in donor order, as numpy's mean over axis 0
    adds their rows, then divides by the donor count. The entries come from
    an operand of the training rows alone in the features' own dtype, built
    here and not cached, so no whole-matrix operand of a second dtype is
    kept on the graph."""
    operand = feature_operand(g.features[train_ids], g.features.dtype)
    d = g.features.shape[1]
    counts = np.array([donors.shape[0] for donors in donor_sets])
    rows = operand[np.searchsorted(train_ids, np.concatenate(donor_sets))]
    if isinstance(rows, np.ndarray):  # a dense operand stores every entry
        per_row, cols = np.full(rows.shape[0], d), np.tile(np.arange(d), rows.shape[0])
        weights = rows.ravel()
    else:
        per_row, cols, weights = np.diff(rows.indptr), rows.indices, rows.data
    owner = np.repeat(np.repeat(np.arange(counts.shape[0]), counts), per_row)
    sums = np.bincount(owner * d + cols, weights, counts.shape[0] * d).reshape(-1, d)
    sums /= counts[:, None]
    return sums


def _ablation_view(g: Graph, rng: RngState, kind: str) -> AugmentedFeatures:
    """Generic-augmentation second views: node dropping (its rows zeroed),
    edge removing (no rows) and feature masking (every row), all at
    ABLATION_RATE. Anchors are the training nodes."""
    gen = rng.substream(f"aug-{kind}").generator()
    d = g.features.shape[1]
    rows = np.empty(0, dtype=np.int64)
    values = np.zeros((0, d), g.features.dtype)
    override = None
    if kind == "nd":
        dropped = gen.random(g.num_nodes) < ABLATION_RATE
        rows = np.flatnonzero(dropped)
        values = np.zeros((rows.shape[0], d), g.features.dtype)
        pairs = g.adjacency.edge_pairs()
        keep = ~(dropped[pairs[:, 0]] | dropped[pairs[:, 1]])
        override = csr_from_edge_pairs(g.num_nodes, pairs[keep])
    elif kind == "er":
        pairs = g.adjacency.edge_pairs()
        keep = gen.random(pairs.shape[0]) >= ABLATION_RATE
        override = csr_from_edge_pairs(g.num_nodes, pairs[keep])
    elif kind == "fm":
        masked = gen.random(d) < ABLATION_RATE
        rows = np.arange(g.num_nodes)
        values = g.features.copy()
        values[:, masked] = 0.0
    else:
        raise ValidationError(f"unknown ablation view {kind!r}")
    return AugmentedFeatures(rows, values, g.splits.train.copy(), {}, adjacency_override=override)


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
    the augmented view `aug`, which must pass `AugmentedFeatures.validate`.
    aug=None trains without the contrastive term.
    """
    cfg.validate()
    history = history or TrainingHistory()
    prop = normalize_adjacency(g.adjacency)
    view = None
    if aug is not None:
        aug.validate(g)
        override = aug.adjacency_override
        view = (aug, prop if override is None else normalize_adjacency(override))
    params = _supervised_loop(g, cfg, rng, prop, history, "finetune", params_p.copy(), view)
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
            target, cfg, rng, normalize_adjacency(target.adjacency), history, "pretrain"
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
