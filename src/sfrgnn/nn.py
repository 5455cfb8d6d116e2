"""Dense/sparse numeric substrate: 2-layer GCN/MLP forward+backward, losses
with analytic gradients, Adam, and finite-difference verification.

No autodiff anywhere: every gradient below is derived by hand and checked
against central finite differences (see `check_gradients`). All kernels are
pure functions; in-place mutation is confined to `adam_step`.

Shapes: x is N x d, w1 is d x F, w2 is F x C. Propagation `prop` is either a
normalized CSR adjacency or None, in which case the propagation step is
skipped entirely (mathematically f(X, I)) and the graph is never touched.

Propagation is the one edge-dependent kernel: a scipy product with P, which
sums each output row in stored column order, or, in the backward pass, with
P^T, which sums output row j over column j's entries in ascending row. So it
is bitwise deterministic run to run, and `gcn_backward` is the exact adjoint
of `gcn_forward` for any P, symmetric or not.

A pass computes every row, or only the rows of a `RowPlan`: layer 2 on the
rows a loss reads, layer 1 on the rows those read, x on the rows layer 1
reads, with P sliced to match. Each row is the same computation either way:
a row of a sliced P holds the row's entries of P in stored order, a column
its column's entries in ascending row, and the dropout mask is drawn for all
N rows and then cut.

The feature matrix enters the products x @ w1 and x.T @ da1 as the operand
`feature_operand` returns: scipy CSR when at most FEATURE_CSR_MAX_DENSITY of
its entries are nonzero (bag-of-words inputs such as Cora's, 1.3%), else the
ndarray itself, so dense-feature graphs run the dense BLAS products. Feature
products do not go through `spmm` and are not counted as propagations.
scipy is imported at the first propagation or the first sparse feature
operand, not when a graph is loaded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .graph import CsrAdjacency
from .rng import RngState

NORM_EPS = 1e-12  # cosine-similarity zero-norm clamp
# Features at most this dense are multiplied as scipy CSR. At N=2708, d=1433
# and 16 columns (f32), x @ w1 plus x.T @ da1 take 0.4 ms as CSR against
# 5.2 ms dense at 1% density, 2.0 against 5.5 ms at 5%, and break even near 10%.
FEATURE_CSR_MAX_DENSITY = 0.05

_counter = threading.local()  # per-thread so concurrent trials count independently


def spmm_calls() -> int:
    """This thread's propagation calls so far; callers count by differences."""
    return getattr(_counter, "calls", 0)


def spmm(adj: CsrAdjacency, h: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Propagate: adj @ h, or adj.T @ h with `transpose`, in h's dtype.

    adj.T is a scipy CSC view of adj's arrays, which sums output row j over
    column j's stored entries in ascending row. Each scipy matrix is built at
    the first propagation in its dtype and kept on `adj` for the next ones;
    no caller writes to a CsrAdjacency's arrays after constructing it."""
    inner = adj.shape[0] if transpose else adj.shape[1]
    if inner != h.shape[0]:
        raise ValidationError(f"spmm dimension mismatch: {inner} vs {h.shape[0]}")
    _counter.calls = getattr(_counter, "calls", 0) + 1
    matrix = adj.scipy_by_dtype.get((h.dtype, transpose))
    if matrix is None:
        from scipy.sparse import csr_matrix

        values = adj.values.astype(h.dtype, copy=False)
        matrix = csr_matrix((values, adj.col_indices, adj.row_offsets), shape=adj.shape)
        if transpose:
            matrix = matrix.T  # CSC over the same arrays
        adj.scipy_by_dtype[h.dtype, transpose] = matrix
    return matrix @ h


def feature_operand(x: np.ndarray, dtype, cache: dict | None = None):
    """x in `dtype` as the left operand of the feature products: scipy CSR
    when at most FEATURE_CSR_MAX_DENSITY of its entries are nonzero, else
    `x.astype(dtype, copy=False)`, the ndarray itself when the dtype matches.

    With `cache` (a Graph's `feature_operands`), the operand is kept per dtype
    together with the array it was built from, and served again only for that
    same array object, so a reassigned `features` is converted afresh. No
    caller writes into a feature array in place after training on it."""
    dtype = np.dtype(dtype)
    if cache is not None:
        hit = cache.get(dtype)
        if hit is not None and hit[0] is x:
            return hit[1]
    nonzero = x != 0
    if np.count_nonzero(nonzero) > FEATURE_CSR_MAX_DENSITY * x.size:
        operand = x.astype(dtype, copy=False)
    else:
        operand = _csr_features(x, nonzero, dtype)
    if cache is not None:
        cache[dtype] = (x, operand)
    return operand


def _csr_features(x: np.ndarray, nonzero: np.ndarray, dtype):
    """scipy CSR copy of the N x d array x whose nonzero pattern is `nonzero`,
    columns ascending in each row."""
    from scipy.sparse import csr_matrix

    n, d = x.shape
    flat = np.flatnonzero(nonzero)
    row_offsets = np.searchsorted(flat, np.arange(n + 1) * d)
    values = x.ravel()[flat].astype(dtype)
    return csr_matrix((values, flat % d, row_offsets), shape=(n, d))


@dataclass
class ModelParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def copy(self) -> "ModelParams":
        return ModelParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def astype(self, dtype) -> "ModelParams":
        return ModelParams(
            self.w1.astype(dtype), self.b1.astype(dtype),
            self.w2.astype(dtype), self.b2.astype(dtype),
        )

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.w1, self.b1, self.w2, self.b2)


ParamGrads = ModelParams


def init_params(d: int, hidden: int, classes: int, rng: RngState, dtype=np.float32) -> ModelParams:
    """Glorot-uniform weights, zero biases, drawn from the init substream."""
    gen = rng.substream("init").generator()

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return gen.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)

    return ModelParams(
        w1=glorot(d, hidden),
        b1=np.zeros(hidden, dtype=dtype),
        w2=glorot(hidden, classes),
        b2=np.zeros(classes, dtype=dtype),
    )


def params_to_vector(p: ModelParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in p.arrays()]).astype(np.float64)


def vector_to_params(vec: np.ndarray, like: ModelParams) -> ModelParams:
    out, i = [], 0
    for a in like.arrays():
        out.append(vec[i : i + a.size].reshape(a.shape).astype(a.dtype))
        i += a.size
    return ModelParams(*out)


@dataclass
class RowPlan:
    """The rows a two-layer pass computes and its propagation operands.

    A loss that reads only the output rows T needs layer 2 on T, layer 1 on
    the rows R1 that layer 2 reads (T and their neighbours) and x on the rows
    R2 that layer 1 reads (R1 and their neighbours). The forward products are
    P[R1, R2] and P[T, R1], the backward ones their transposes (`spmm`'s
    `transpose`); for the whole graph both are P. Without propagation
    R1 = R2 = T. `None` rows mean every row. Dropout is drawn for all rows and
    cut to R1, so a subset pass keeps the random stream of the full one.
    """

    hidden_rows: np.ndarray | None = None  # R1
    input_rows: np.ndarray | None = None  # R2
    layer1: CsrAdjacency | None = None  # P[R1, R2]
    layer2: CsrAdjacency | None = None  # P[T, R1]

    @classmethod
    def closure(cls, prop: CsrAdjacency | None, out_rows: np.ndarray) -> "RowPlan":
        """The plan of a loss on the ascending ids `out_rows`. Each sliced
        matrix keeps its rows' stored entries in stored order, so every row
        it computes, and every column its transpose computes, is summed as
        in the full product."""
        if prop is None:
            return cls(out_rows, out_rows)
        r1 = prop.reach(out_rows)
        r2 = prop.reach(r1)
        return cls(r1, r2, prop.block(r1, r2), prop.block(out_rows, r1))


@dataclass
class ForwardCache:
    x: np.ndarray  # or the scipy CSR operand of `feature_operand`
    plan: RowPlan
    a1: np.ndarray  # x @ w1
    h: np.ndarray  # post-ReLU, pre-dropout hidden
    hd: np.ndarray  # hidden after dropout (== h in eval mode)
    drop_scale: np.ndarray | None  # inverted-dropout mask / keep_prob
    log_probs: np.ndarray
    params: ModelParams


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _check_finite(a: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(a)):
        raise NumericError(f"non-finite values in {where}")


def gcn_hidden(s1: np.ndarray, b1: np.ndarray) -> np.ndarray:
    """Layer-1 activation of propagated rows: bias, ReLU, finite check. Row
    by row, so a subset of rows gets the values the full pass gives them."""
    h = np.maximum(s1 + b1, 0.0)
    _check_finite(h, "layer 1 output")
    return h


def gcn_log_probs(s2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Layer-2 output of propagated rows: bias, finite check, log-softmax;
    row by row like `gcn_hidden`."""
    logits = s2 + b2
    _check_finite(logits, "layer 2 output")
    return _log_softmax(logits)


def dropout_mask(rng: RngState, shape: tuple[int, int], dropout_p: float) -> np.ndarray | None:
    """Keep mask of inverted dropout at rate `dropout_p`, drawn from rng's
    "dropout" substream; None when dropout_p is 0."""
    if dropout_p == 0.0:
        return None
    return rng.substream("dropout").generator().random(shape) < 1.0 - dropout_p


def gcn_forward(
    params: ModelParams,
    x: np.ndarray,
    prop: CsrAdjacency | RowPlan | None,
    dropout_p: float = 0.0,
    keep_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Two-layer forward pass. With prop=None the propagation step is skipped
    (pure MLP over attributes); a CsrAdjacency P computes every row; a
    RowPlan computes its rows, with x given on its input rows. Dropout at
    rate `dropout_p` hits the hidden layer when a `keep_mask` is given, drawn
    by `dropout_mask` for every row (train mode); without one the pass is in
    eval mode. Returns row-wise log-softmax of the output rows and the cache
    backward needs."""
    if not (0.0 <= dropout_p < 1.0):
        raise ValidationError("dropout_p must lie in [0, 1)")
    dtype = params.w1.dtype
    x = x.astype(dtype, copy=False)
    plan = prop if isinstance(prop, RowPlan) else RowPlan(layer1=prop, layer2=prop)

    a1 = x @ params.w1
    s1 = spmm(plan.layer1, a1) if plan.layer1 is not None else a1
    h = gcn_hidden(s1, params.b1)

    drop_scale = None
    hd = h
    if keep_mask is not None:
        if plan.hidden_rows is not None:
            keep_mask = keep_mask[plan.hidden_rows]
        drop_scale = (keep_mask / (1.0 - dropout_p)).astype(dtype)
        hd = h * drop_scale

    a2 = hd @ params.w2
    s2 = spmm(plan.layer2, a2) if plan.layer2 is not None else a2
    log_probs = gcn_log_probs(s2, params.b2)

    cache = ForwardCache(
        x=x, plan=plan, a1=a1, h=h, hd=hd, drop_scale=drop_scale,
        log_probs=log_probs, params=params,
    )
    return log_probs, cache


def _backward_to_s1(cache: ForwardCache, grad_log_probs, grad_hidden):
    """Shared backward core: returns (dlogits, da2 = layer2^T dlogits, ds1)."""
    p = cache.params
    probs = np.exp(cache.log_probs)
    dlogits = grad_log_probs - probs * grad_log_probs.sum(axis=1, keepdims=True)
    dlogits = dlogits.astype(p.w1.dtype, copy=False)
    layer2 = cache.plan.layer2
    da2 = spmm(layer2, dlogits, transpose=True) if layer2 is not None else dlogits
    dhd = da2 @ p.w2.T
    dh = dhd * cache.drop_scale if cache.drop_scale is not None else dhd
    if grad_hidden is not None:
        dh = dh + grad_hidden.astype(p.w1.dtype, copy=False)
    ds1 = dh * (cache.h > 0)
    return dlogits, da2, ds1


def gcn_backward(
    cache: ForwardCache,
    grad_log_probs: np.ndarray,
    grad_hidden: np.ndarray | None = None,
) -> ParamGrads:
    """Exact analytic parameter gradients of the cached forward pass, for any
    P: each backward propagation multiplies by its forward operand's transpose.

    `grad_hidden`, when given, is an extra upstream gradient injected at the
    post-ReLU pre-dropout hidden representation (the contrastive surface).
    """
    p = cache.params
    dlogits, da2, ds1 = _backward_to_s1(cache, grad_log_probs, grad_hidden)
    layer1 = cache.plan.layer1
    da1 = spmm(layer1, ds1, transpose=True) if layer1 is not None else ds1
    return ParamGrads(
        w1=cache.x.T @ da1,
        b1=ds1.sum(axis=0),
        w2=cache.hd.T @ da2,
        b2=dlogits.sum(axis=0),
    )


def gcn_backward_wrt_prop(
    cache: ForwardCache, grad_log_probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Factors of the loss gradient w.r.t. the propagation matrix entries:
    dL/dP = U @ V.T with U = [dlogits, ds1] and V = [a2, a1], two float64
    N x (C + F) arrays. The gradient has rank at most C + F, so callers
    contract the factors instead of forming the N x N matrix.
    """
    if cache.plan.layer1 is None or cache.plan.hidden_rows is not None:
        raise ValidationError("needs a full-graph forward pass with propagation")
    dlogits, _, ds1 = _backward_to_s1(cache, grad_log_probs, None)
    a2 = cache.hd @ cache.params.w2
    u = np.hstack([dlogits, ds1]).astype(np.float64, copy=False)
    v = np.hstack([a2, cache.a1]).astype(np.float64, copy=False)
    return u, v


def nll_loss(
    log_probs: np.ndarray, labels: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood over masked nodes; gradient zero elsewhere."""
    idx = np.flatnonzero(mask)
    if idx.shape[0] == 0:
        raise ValidationError("nll_loss over an empty mask")
    picked = log_probs[idx, labels[idx]]
    loss = -float(picked.mean())
    grad = np.zeros_like(log_probs)
    grad[idx, labels[idx]] = -1.0 / idx.shape[0]
    return loss, grad


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    norms = np.linalg.norm(z, axis=1)
    clamped = np.maximum(norms, NORM_EPS)
    return z / clamped[:, None], norms, clamped


def infonce_loss(
    z: np.ndarray,
    z_aug: np.ndarray,
    mask: np.ndarray,
    temperature: float,
    mask_aug: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Masked InfoNCE with cosine similarity.

    Anchors are the masked rows of z, positives the same rows of z_aug,
    negatives all other masked rows of z_aug. `mask_aug`, when z_aug's rows
    are other nodes than z's, selects its rows instead: the k-th selected row
    of each is the same node. Analytic gradients flow to both inputs; rows
    outside the mask get zero gradient. Zero-norm rows are clamped at
    NORM_EPS before division.
    """
    if temperature <= 0.0:
        raise ValidationError("temperature must be > 0")
    mask_aug = mask if mask_aug is None else mask_aug
    idx, idx_aug = np.flatnonzero(mask), np.flatnonzero(mask_aug)
    if (z.shape[1:] != z_aug.shape[1:] or idx.shape != idx_aug.shape
            or mask.shape[0] != z.shape[0] or mask_aug.shape[0] != z_aug.shape[0]):
        raise ValidationError("z, z_aug and their masks must have matching shapes")
    t = idx.shape[0]
    if t == 0:
        raise ValidationError("infonce_loss over an empty mask")

    u_raw = z[idx].astype(np.float64)
    v_raw = z_aug[idx_aug].astype(np.float64)
    u, u_norm, u_clamp = _normalize_rows(u_raw)
    v, v_norm, v_clamp = _normalize_rows(v_raw)

    sims = (u @ v.T) / temperature
    log_p = _log_softmax(sims)
    loss = -float(np.diagonal(log_p).mean())

    dsims = (np.exp(log_p) - np.eye(t)) / t
    du = (dsims @ v) / temperature
    dv = (dsims.T @ u) / temperature

    # through row normalization: d(x/n)/dx = (I - u u^T)/n on the sphere,
    # or a plain 1/eps scaling when the norm sat at the clamp.
    def through_norm(draw, unit, norms, clamp):
        live = norms > NORM_EPS
        out = np.empty_like(draw)
        inner = (draw * unit).sum(axis=1, keepdims=True)
        out[live] = (draw[live] - unit[live] * inner[live]) / clamp[live, None]
        out[~live] = draw[~live] / NORM_EPS
        return out

    grad_z = np.zeros(z.shape, dtype=np.float64)
    grad_z_aug = np.zeros(z_aug.shape, dtype=np.float64)
    grad_z[idx] = through_norm(du, u, u_norm, u_clamp)
    grad_z_aug[idx_aug] = through_norm(dv, v, v_norm, v_clamp)
    return loss, grad_z.astype(z.dtype), grad_z_aug.astype(z.dtype)


@dataclass
class AdamState:
    m: ModelParams
    v: ModelParams
    t: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        return cls(
            m=ModelParams(*(np.zeros_like(a) for a in params.arrays())),
            v=ModelParams(*(np.zeros_like(a) for a in params.arrays())),
        )


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(
    params: ModelParams,
    grads: ParamGrads,
    state: AdamState,
    lr: float,
    weight_decay: float,
) -> tuple[ModelParams, AdamState]:
    """In-place Adam update with the L2 term folded into the gradient."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params.arrays(), grads.arrays(), state.m.arrays(), state.v.arrays()):
        g_eff = g + weight_decay * p if weight_decay else g
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g_eff
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g_eff * g_eff
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def finite_difference_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x (x is not modified)."""
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.shape[0]):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max per-component relative error, floored against the gradient scale so
    near-zero components do not inflate the ratio."""
    a = analytic.astype(np.float64).ravel()
    b = numeric.astype(np.float64).ravel()
    scale = float(np.max(np.abs(a) + np.abs(b), initial=0.0))
    denom = np.maximum(np.abs(a) + np.abs(b), max(1e-4 * scale, 1e-12))
    return float(np.max(np.abs(a - b) / denom, initial=0.0))


@dataclass
class GradCheckReport:
    errors: dict[str, float] = field(default_factory=dict)
    threshold: float = 1e-5

    @property
    def passed(self) -> bool:
        return all(e < self.threshold for e in self.errors.values())

    def summary(self) -> str:
        lines = [
            f"{name}: max_rel_err={err:.3e} "
            f"{'ok' if err < self.threshold else 'FAIL'}"
            for name, err in self.errors.items()
        ]
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'} (threshold {self.threshold:g})")
        return "\n".join(lines)


def _random_instance(rng: RngState, n=6, d=4, hidden=3, classes=3):
    from .graph import csr_from_edge_pairs, normalize_adjacency

    gen = rng.substream("gradcheck-data").generator()
    x = gen.standard_normal((n, d))
    labels = gen.integers(0, classes, size=n).astype(np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[gen.permutation(n)[: max(2, n // 2)]] = True
    iu, ju = np.triu_indices(n, k=1)
    keep = gen.random(iu.shape[0]) < 0.5
    if not keep.any():
        keep[0] = True
    adj = csr_from_edge_pairs(n, np.stack([iu[keep], ju[keep]], axis=1))
    params = init_params(d, hidden, classes, rng, dtype=np.float64)
    return x, labels, mask, normalize_adjacency(adj), params


def check_gradients(rng: RngState, eps: float = 1e-5) -> GradCheckReport:
    """Finite-difference suites for the GCN backward (parameters and
    propagation matrix), NLL, and InfoNCE."""
    report = GradCheckReport()
    x, labels, mask, prop, params = _random_instance(rng)

    def param_grad_error(c_x, c_labels, c_mask, c_prop, c_params, p_drop=0.0, keep=None):
        def loss_of(theta_vec):
            theta = vector_to_params(theta_vec, c_params)
            lp, _ = gcn_forward(theta, c_x, c_prop, p_drop, keep)
            return nll_loss(lp, c_labels, c_mask)[0]

        lp, cache = gcn_forward(c_params, c_x, c_prop, p_drop, keep)
        grads = gcn_backward(cache, nll_loss(lp, c_labels, c_mask)[1])
        numeric = finite_difference_grad(loss_of, params_to_vector(c_params), eps)
        return relative_gradient_error(params_to_vector(grads), numeric)

    report.errors["gcn_backward/propagated"] = param_grad_error(x, labels, mask, prop, params)
    report.errors["gcn_backward/no_prop"] = param_grad_error(x, labels, mask, None, params)
    keep = dropout_mask(rng.substream("gradcheck-dropout"), (x.shape[0], params.w1.shape[1]), 0.5)
    report.errors["gcn_backward/train_dropout"] = param_grad_error(
        x, labels, mask, prop, params, 0.5, keep
    )
    # square (N = d), so that a transposed feature operand keeps its shape and
    # shows as a wrong gradient; row 0 and column 1 of the CSR x are all zero
    sparse = _random_instance(rng.substream("gradcheck-sparse"), n=20, d=20)
    rows = np.arange(1, 20)
    x_sp = np.zeros((20, 20))
    x_sp[rows, (rows + 1) % 20] = sparse[0][rows, 0]
    report.errors["gcn_backward/sparse_features"] = param_grad_error(
        _csr_features(x_sp, x_sp != 0, np.float64), *sparse[1:]
    )

    def nll_of(lp_mat):
        return nll_loss(lp_mat, labels, mask)[0]

    lp, _ = gcn_forward(params, x, prop)
    _, grad_lp = nll_loss(lp, labels, mask)
    report.errors["nll_loss"] = relative_gradient_error(
        grad_lp, finite_difference_grad(nll_of, lp, eps)
    )

    # dL/dP over every entry of a dense-pattern P (zero off the edges)
    n = x.shape[0]
    dense_p = prop.to_dense()

    def dense_pattern(p_mat):
        return CsrAdjacency(np.arange(0, n * n + 1, n), np.tile(np.arange(n), n), p_mat.ravel(), n)

    def loss_of_prop(p_mat):
        lp_mat, _ = gcn_forward(params, x, dense_pattern(p_mat))
        return nll_loss(lp_mat, labels, mask)[0]

    lp, cache = gcn_forward(params, x, dense_pattern(dense_p))
    u, v = gcn_backward_wrt_prop(cache, nll_loss(lp, labels, mask)[1])
    report.errors["gcn_backward_wrt_prop"] = relative_gradient_error(
        u @ v.T, finite_difference_grad(loss_of_prop, dense_p, eps)
    )

    gen = rng.substream("gradcheck-infonce").generator()
    t, dim = 5, 4
    z = gen.standard_normal((t + 2, dim))
    z_aug = gen.standard_normal((t + 2, dim))
    cmask = np.zeros(t + 2, dtype=bool)
    cmask[:t] = True
    _, gz, gza = infonce_loss(z, z_aug, cmask, temperature=1.0)
    report.errors["infonce/z"] = relative_gradient_error(
        gz, finite_difference_grad(lambda m: infonce_loss(m, z_aug, cmask, 1.0)[0], z, eps)
    )
    report.errors["infonce/z_aug"] = relative_gradient_error(
        gza, finite_difference_grad(lambda m: infonce_loss(z, m, cmask, 1.0)[0], z_aug, eps)
    )
    return report
