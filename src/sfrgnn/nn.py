"""Dense/sparse numeric substrate: 2-layer GCN/MLP forward+backward, losses
with analytic gradients, Adam, and finite-difference verification.

No autodiff anywhere: every gradient below is derived by hand and checked
against central finite differences (see `check_gradients`), both kernel by
kernel and through the trainer's own epoch objective. All kernels are
pure functions; in-place mutation is confined to Adam: `AdamState.zeros_like`
packs the parameters into one flat buffer and `adam_step` updates it.

Every op of an epoch, InfoNCE included, runs in the weights' dtype (float32
by default); only the dropout scale is drawn in float64 and cast.

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
a row of a sliced P holds the row's entries of P in stored order, and a
column its column's entries in ascending row. The dropout scale covers the
rows layer 1 computes: R1 for a plan, every row for a full pass.

The feature matrix enters the products x @ w1 and x.T @ da1 as the operand
`feature_operand` returns: scipy CSR when at most FEATURE_CSR_MAX_DENSITY of
its entries are nonzero (bag-of-words inputs such as Cora's, 1.3%), else the
ndarray itself, so dense-feature graphs run the dense BLAS products; a loop
over one x builds the transpose once (`feature_transpose`). Fine-tuning's
contrastive view is the graph's features plus a row patch, and its operand
the graph's with those rows swapped in (`patched_operand`), of the same
kind. Feature products do not go through `spmm` and are not counted as
propagations.
scipy is imported at the first propagation or the first sparse feature
operand, not when a graph is loaded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .graph import CsrAdjacency, csr_from_keys
from .rng import RngState

NORM_EPS = 1e-12  # cosine-similarity zero-norm clamp
# InfoNCE's two block buffers hold at most this many similarities each: 2^17
# (512 KB in f32, 1 MB in f64, within one core's L2 cache), as in the
# attack's score passes. At T = 270 the 485-row block covers every anchor.
INFONCE_BLOCK_ELEMENTS = 1 << 17
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


def feature_transpose(x):
    """x.T for the product x.T @ da1: the view of an ndarray, and for a scipy
    CSR operand its transpose laid out as CSR. Either way the product sums
    each output row over x's rows in ascending order, as the CSC view x.T
    does, so its bytes are the same; the CSR product is the faster one."""
    return x.T if isinstance(x, np.ndarray) else x.T.tocsr()


def patched_operand(operand, rows: np.ndarray, values: np.ndarray, out_rows: np.ndarray):
    """A feature operand of `feature_operand` on the ascending ids `out_rows`,
    with its rows at the ascending ids `rows` replaced by `values` cast to its
    dtype, and the positions in `out_rows` of the replaced rows. The result
    is of the operand's kind, scipy CSR or ndarray, whatever the density of
    `values`; a replaced CSR row stores the nonzeros of its values, columns
    ascending, as `feature_operand` stores a row of an array."""
    at = np.flatnonzero(np.isin(out_rows, rows))
    patch_rows = np.searchsorted(rows, out_rows[at])
    if isinstance(operand, np.ndarray):
        out = operand[out_rows]
        out[at] = values[patch_rows]
        return out, at
    from scipy.sparse import vstack

    # the patch is stacked below the operand's rows, and its rows read from there
    source = out_rows.copy()
    source[at] = operand.shape[0] + patch_rows
    patch = _csr_features(values, values != 0, operand.dtype)
    return vstack([operand, patch], format="csr")[source], at


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

    def __add__(self, other: "ModelParams") -> "ModelParams":
        return ModelParams(*(a + b for a, b in zip(self.arrays(), other.arrays())))


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
    """The flat `vec` in the shapes and dtypes of like's arrays: consecutive
    views of it where the dtype is vec's, else cast copies."""
    out, i = [], 0
    for a in like.arrays():
        out.append(vec[i : i + a.size].reshape(a.shape).astype(a.dtype, copy=False))
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
    R1 = R2 = T. `None` rows mean every row. A train-mode pass on a plan takes
    a dropout scale of |R1| rows, one per row of `hidden_rows`.
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
    x: np.ndarray | None  # or the scipy CSR operand of `feature_operand`; None if a1 was given
    plan: RowPlan
    a1: np.ndarray  # x @ w1
    h: np.ndarray  # post-ReLU, pre-dropout hidden
    hd: np.ndarray  # hidden after dropout (== h in eval mode)
    a2: np.ndarray  # hd @ w2, the layer-2 input
    drop_scale: np.ndarray | None  # inverted-dropout scale, None in eval mode
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


def dropout_mask(
    gen: np.random.Generator, shape: tuple[int, int], dropout_p: float
) -> np.ndarray | None:
    """Inverted-dropout scale at rate p = `dropout_p`, in float64: 1 / (1 - p)
    where the next `shape` uniforms of `gen` fall below 1 - p, else 0, so
    successive calls draw successive scales; None, and no draw, at p = 0."""
    if not (0.0 <= dropout_p < 1.0):
        raise ValidationError("dropout_p must lie in [0, 1)")
    if dropout_p == 0.0:
        return None
    return (gen.random(shape) < 1.0 - dropout_p) / (1.0 - dropout_p)


def gcn_forward(
    params: ModelParams,
    x,
    prop: CsrAdjacency | RowPlan | None,
    drop_scale: np.ndarray | None = None,
    a1: np.ndarray | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Two-layer forward pass. With prop=None the propagation step is skipped
    (pure MLP over attributes); a CsrAdjacency P computes every row; a
    RowPlan computes its rows, with x given on its input rows. A `drop_scale`
    from `dropout_mask`, cast to the weights' dtype, multiplies the hidden
    layer (train mode), one row per row layer 1 computes: the plan's
    `hidden_rows`, or every row; without one the pass is in eval mode.
    `a1`, when given, is the layer-1 input x @ w1 as the caller computed it;
    the pass then reads x not at all and x may be None, as for fine-tuning's
    contrastive view, whose `gcn_backward` then takes x's transpose as `x_t`.
    Returns row-wise log-softmax of the output rows and the backward cache."""
    dtype = params.w1.dtype
    x = None if x is None else x.astype(dtype, copy=False)
    plan = prop if isinstance(prop, RowPlan) else RowPlan(layer1=prop, layer2=prop)

    a1 = x @ params.w1 if a1 is None else a1
    s1 = spmm(plan.layer1, a1) if plan.layer1 is not None else a1
    h = gcn_hidden(s1, params.b1)

    drop_scale = None if drop_scale is None else drop_scale.astype(dtype, copy=False)
    hd = h if drop_scale is None else h * drop_scale

    a2 = hd @ params.w2
    s2 = spmm(plan.layer2, a2) if plan.layer2 is not None else a2
    log_probs = gcn_log_probs(s2, params.b2)

    cache = ForwardCache(
        x=x, plan=plan, a1=a1, h=h, hd=hd, a2=a2, drop_scale=drop_scale,
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
    x_t=None,
    x_rows: np.ndarray | None = None,
) -> ParamGrads:
    """Exact analytic parameter gradients of the cached forward pass, for any
    P: each backward propagation multiplies by its forward operand's transpose.

    `grad_hidden`, when given, is an extra upstream gradient injected at the
    post-ReLU pre-dropout hidden representation (the contrastive surface).
    `x_t`, when given, is the pass's x transposed as `feature_transpose`
    builds it (needed when the pass took `a1` and no x), so a loop over one
    x builds it once, with the bytes of `x.T`. `x_rows`, when given, are the
    rows of x outside which the layer-1 gradient is zero by construction, and
    x_t is x's transpose on those rows: the w1 product skips the other rows,
    whose terms are exact zeros, so a sparse x gives the same bytes.
    """
    p = cache.params
    dlogits, da2, ds1 = _backward_to_s1(cache, grad_log_probs, grad_hidden)
    layer1 = cache.plan.layer1
    da1 = spmm(layer1, ds1, transpose=True) if layer1 is not None else ds1
    da1 = da1 if x_rows is None else da1[x_rows]
    return ParamGrads(
        w1=(cache.x.T if x_t is None else x_t) @ da1,
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
    u = np.hstack([dlogits, ds1]).astype(np.float64, copy=False)
    v = np.hstack([cache.a2, cache.a1]).astype(np.float64, copy=False)
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


def _through_norm(draw: np.ndarray, unit: np.ndarray, norms: np.ndarray, clamp: np.ndarray):
    """`draw` taken back through the row normalization, in place:
    d(x/n)/dx = (I - u u^T)/n on the sphere, or a plain 1/eps scaling where
    the norm sat at the clamp (clamp = eps there, and no projection)."""
    inner = (draw * unit).sum(axis=1, keepdims=True)
    inner *= (norms > NORM_EPS)[:, None]
    draw -= unit * inner
    draw /= clamp[:, None]
    return draw


def infonce_loss(
    z: np.ndarray, z_aug: np.ndarray, mask: np.ndarray, temperature: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Masked InfoNCE with cosine similarity.

    z and z_aug hold the same nodes' rows. Anchors are the masked rows of z,
    positives the same rows of z_aug, negatives all other masked rows of
    z_aug. Analytic gradients flow to both inputs; rows outside the mask get
    zero gradient. Zero-norm rows are clamped at NORM_EPS before division.

    Computes in the inputs' dtype and never forms the T x T similarities:
    the anchors are swept in blocks of max(1, INFONCE_BLOCK_ELEMENTS // T)
    rows, each taking its log-softmax over all T columns. With one block
    (T <= 362) the arithmetic is that of the whole matrix.
    """
    if not (np.isfinite(temperature) and temperature > 0.0):
        raise ValidationError("temperature must be finite and > 0")
    if z.shape != z_aug.shape or mask.shape != z.shape[:1]:
        raise ValidationError("z, z_aug and mask must have matching shapes")
    idx = np.flatnonzero(mask)
    t = idx.shape[0]
    if t == 0:
        raise ValidationError("infonce_loss over an empty mask")

    dtype = np.result_type(z.dtype, z_aug.dtype, np.float32)
    u, u_norm, u_clamp = _normalize_rows(z[idx].astype(dtype, copy=False))
    v, v_norm, v_clamp = _normalize_rows(z_aug[idx].astype(dtype, copy=False))

    rows = max(1, INFONCE_BLOCK_ELEMENTS // t)
    sims_buf = np.empty((min(rows, t), t), dtype)
    exp_buf = np.empty_like(sims_buf)
    diag = np.empty(t, dtype)
    du, dv = np.empty_like(u), np.zeros_like(v)
    for r0 in range(0, t, rows):
        r1 = min(r0 + rows, t)
        s, e = sims_buf[: r1 - r0], exp_buf[: r1 - r0]
        np.matmul(u[r0:r1], v.T, out=s)
        s /= temperature
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=e)
        lse = e.sum(axis=1, keepdims=True)
        s -= np.log(lse, out=lse)  # s is the block's rows of log p
        diag[r0:r1] = np.diagonal(s, r0)
        np.exp(s, out=e)
        e.reshape(-1)[r0 :: t + 1] -= 1.0  # p - I on the block's diagonal
        e /= t
        np.matmul(e, v, out=du[r0:r1])
        dv += e.T @ u[r0:r1]
    du /= temperature
    dv /= temperature

    grad_z = np.zeros(z.shape, dtype=z.dtype)
    grad_z_aug = np.zeros(z_aug.shape, dtype=z.dtype)
    grad_z[idx] = _through_norm(du, u, u_norm, u_clamp)
    grad_z_aug[idx] = _through_norm(dv, v, v_norm, v_clamp)
    return -float(diag.mean()), grad_z, grad_z_aug


@dataclass
class AdamState:
    """Adam over one flat buffer: `flat` holds the parameters, which the
    ModelParams `zeros_like` packed view; m and v are the moments, `work` the
    gathered gradient and two scratch buffers, all of the parameter count."""

    flat: np.ndarray
    m: np.ndarray
    v: np.ndarray
    work: tuple[np.ndarray, np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        """Zero moments for `params`, whose four arrays this rebinds to views
        of one contiguous copy of their values."""
        flat = np.concatenate([a.ravel() for a in params.arrays()])
        params.w1, params.b1, params.w2, params.b2 = vector_to_params(flat, params).arrays()
        return cls(
            flat=flat, m=np.zeros_like(flat), v=np.zeros_like(flat),
            work=(np.empty_like(flat), np.empty_like(flat), np.empty_like(flat)),
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
    """In-place Adam update with the L2 term folded into the gradient, in
    whole-buffer operations on `state`, whose `zeros_like` packed `params`.
    Each value sees the operations of a per-array update in the same order,
    so the result is bitwise the same."""
    if any(a.base is not state.flat for a in params.arrays()):
        raise ValidationError("adam_step needs the params its AdamState.zeros_like packed")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    p, m, v = state.flat, state.m, state.v
    g, step, denom = state.work
    np.concatenate([a.ravel() for a in grads.arrays()], out=g)
    if weight_decay:
        g += np.multiply(weight_decay, p, out=step)
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=step)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=step)
    v += np.multiply(step, g, out=step)
    np.multiply(lr, np.divide(m, bc1, out=step), out=step)
    np.sqrt(np.divide(v, bc2, out=denom), out=denom)
    denom += ADAM_EPS
    p -= np.divide(step, denom, out=step)
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


def _non_symmetric_prop(gen: np.random.Generator, n: int, density: float) -> CsrAdjacency:
    """An n x n propagation matrix: the diagonal and each other entry with
    probability `density`, values uniform in [0.1, 1), so neither pattern nor
    values are symmetric."""
    pattern = gen.random((n, n)) < density
    np.fill_diagonal(pattern, True)
    keys = np.flatnonzero(pattern)  # i * n + j, ascending
    return csr_from_keys(n, keys, values=gen.uniform(0.1, 1.0, keys.shape[0]))


def check_gradients(rng: RngState, eps: float = 1e-5) -> GradCheckReport:
    """Finite-difference suites for the GCN backward (parameters and
    propagation matrix, symmetric or not, full-graph), the trainer's epoch
    objective (`trainer.epoch_objective`: a RowPlan in train mode, and
    fine-tuning's contrastive term), NLL, and InfoNCE."""
    # here, not at the top: trainer imports nn at module level
    from .trainer import AugmentedFeatures, epoch_objective

    report = GradCheckReport()
    x, labels, mask, prop, params = _random_instance(rng)

    def objective_error(objective, c_params, scale=None):
        theta0 = params_to_vector(c_params)

        def at(theta_vec):
            return objective(vector_to_params(theta_vec, c_params), scale)

        numeric = finite_difference_grad(lambda v: at(v)[0], theta0, eps)
        return relative_gradient_error(params_to_vector(at(theta0)[1]), numeric)

    def param_grad_error(c_x, c_labels, c_mask, c_prop, c_params, scale=None):
        def objective(theta, c_scale):
            lp, cache = gcn_forward(theta, c_x, c_prop, c_scale)
            loss, grad_lp = nll_loss(lp, c_labels, c_mask)
            return loss, gcn_backward(cache, grad_lp)

        return objective_error(objective, c_params, scale)

    report.errors["gcn_backward/propagated"] = param_grad_error(x, labels, mask, prop, params)
    report.errors["gcn_backward/no_prop"] = param_grad_error(x, labels, mask, None, params)
    hidden = params.w1.shape[1]
    scale = dropout_mask(rng.substream("gradcheck-dropout").generator(), (x.shape[0], hidden), 0.5)
    report.errors["gcn_backward/train_dropout"] = param_grad_error(
        x, labels, mask, prop, params, scale
    )
    # a backward pass that multiplied by P where the chain rule needs P^T
    # passes every symmetric case above and fails this one
    gen = rng.substream("gradcheck-asym").generator()
    report.errors["gcn_backward/non_symmetric"] = param_grad_error(
        x, labels, mask, _non_symmetric_prop(gen, x.shape[0], 0.5), params
    )
    # the trainer's objective in train mode on the RowPlan of a sparser
    # non-symmetric P: the loss on the output rows T, the dropout scale on R1
    n_plan = 24
    out_rows = np.sort(gen.permutation(n_plan)[:5])
    p_plan = _non_symmetric_prop(gen, n_plan, 0.08)
    x_plan = gen.standard_normal((n_plan, x.shape[1]))
    labels_plan = gen.integers(0, params.w2.shape[1], size=out_rows.shape[0])
    plan, objective = epoch_objective(x_plan, out_rows, labels_plan, p_plan)
    scale_r1 = dropout_mask(gen, (plan.hidden_rows.shape[0], hidden), 0.5)
    report.errors["gcn_backward/row_plan_dropout"] = objective_error(objective, params, scale_r1)
    # that objective plus InfoNCE on three output rows against views on its
    # rows, whose gradient reaches the train-mode pass before its dropout
    # scale. An edge-removing view propagates over P's diagonal and about half
    # of its other entries, with values of its own
    anchors = np.zeros(n_plan, dtype=bool)
    anchors[out_rows[:3]] = True
    keys = p_plan.entry_rows() * n_plan + p_plan.col_indices
    keys = keys[(gen.random(keys.shape[0]) < 0.5) | (keys % (n_plan + 1) == 0)]
    p_er = csr_from_keys(n_plan, keys, values=gen.uniform(0.1, 1.0, keys.shape[0]))
    no_rows = AugmentedFeatures(np.empty(0, np.int64), np.zeros((0, x.shape[1])), anchors, {})
    _, objective = epoch_objective(x_plan, out_rows, labels_plan, p_plan, (no_rows, p_er), 0.5)
    report.errors["finetune/contrastive_edge_removing"] = objective_error(
        objective, params, scale_r1
    )
    # a view on P with x new on the anchors' rows: layer 1 reuses the pass's
    # a1 elsewhere, and the w1 product runs on R1 alone; a wrong row map in
    # either gives a wrong gradient. With 3 hidden units the anchors' live
    # hidden rows can share one direction, which InfoNCE's row normalization
    # projects out, hiding that fault on 3 of seeds 0-19; 8 units show it on all
    wide = init_params(x.shape[1], 8, params.w2.shape[1], rng.substream("gradcheck-wide"),
                       dtype=np.float64)
    scale_wide = dropout_mask(gen, (plan.hidden_rows.shape[0], 8), 0.5)
    patch = AugmentedFeatures(out_rows[:3], gen.standard_normal((3, x.shape[1])), anchors, {})
    _, objective = epoch_objective(x_plan, out_rows, labels_plan, p_plan, (patch, p_plan), 0.5)
    report.errors["finetune/contrastive_patched_view"] = objective_error(
        objective, wide, scale_wide
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
