"""Structural poisoning attacks: edge-flip plans under a budget expressed as
a fraction of the clean undirected edge count.

Three generators are provided: uniform random flips, the label-aware
delete-intra/connect-inter heuristic, and a surrogate-gradient greedy attack
that trains a GCN on the clean graph and repeatedly flips the pair raising the
training loss the most, ranking candidates by the loss gradient differentiated
through the symmetric normalization. Attacks see training labels only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CapacityError, DatasetFormatError, ValidationError
from .graph import (
    CsrAdjacency,
    Graph,
    csr_from_edge_pairs,
    csr_from_keys,
    graph_stats,
    normalize_adjacency,
)
from .nn import (
    ModelParams,
    feature_operand,
    gcn_backward_wrt_prop,
    gcn_forward,
    gcn_hidden,
    gcn_log_probs,
    nll_loss,
    spmm,
)
from .rng import RngState
from .trainer import TrainConfig, train

# bounds the O(N^2 (C + F)) time of scoring every pair at each relinearization
GRAD_ATTACK_NODE_CAP = 20000


@dataclass(frozen=True)
class FlipTrace:
    """How the gradient attack chose one applied flip."""

    rank: int  # position among the remaining gradient-ranked candidates, 1 = top
    estimated: float  # gradient estimate of the loss change that ranked it
    exact: float  # exact loss change: loss with the flip minus loss without


@dataclass
class PerturbationPlan:
    flips: list[tuple[str, int, int]]  # (action, u, v) with u < v, action add|remove
    budget: int
    ptb_ratio: float
    trace: list[FlipTrace] = field(default_factory=list)  # one per flip; gradient attack only

    def validate_against(self, g: Graph) -> None:
        if len(self.flips) > self.budget:
            raise ValidationError("plan has more flips than its budget")
        seen = set()
        for action, u, v in self.flips:
            if action not in ("add", "remove"):
                raise ValidationError(f"unknown action {action!r}")
            if u == v:
                raise ValidationError("self-pair in plan")
            if not (0 <= u < g.num_nodes and 0 <= v < g.num_nodes):
                raise ValidationError("plan node id out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"pair {key} appears twice in plan")
            seen.add(key)
            present = g.adjacency.has_entry(u, v)
            if action == "remove" and not present:
                raise ValidationError(f"plan removes absent edge {key}")
            if action == "add" and present:
                raise ValidationError(f"plan adds existing edge {key}")


def _flip_budget(g: Graph, ptb_ratio: float) -> int:
    if not (0.0 <= ptb_ratio <= 0.5):
        raise ValidationError("ptb_ratio must lie in [0, 0.5]")
    return int(round(ptb_ratio * (g.adjacency.nnz // 2)))


def _action_for(g: Graph, u: int, v: int) -> str:
    return "remove" if g.adjacency.has_entry(u, v) else "add"


def _random_fill(
    g: Graph, flips: list[tuple[str, int, int]], budget: int, gen: np.random.Generator
) -> list[tuple[str, int, int]]:
    """Extend `flips` (pairs stored u < v) to `budget` entries with uniformly
    drawn non-self pairs it does not hold yet."""
    n = g.num_nodes
    chosen = {(u, v) for _, u, v in flips}
    while len(flips) < budget:
        u, v = (int(x) for x in gen.integers(0, n, size=2))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in chosen:
            continue
        chosen.add(key)
        flips.append((_action_for(g, *key), *key))
    return flips


def random_flip_attack(g: Graph, ptb_ratio: float, rng: RngState) -> PerturbationPlan:
    """Uniformly toggle `round(ptb * E)` distinct non-self pairs."""
    n = g.num_nodes
    budget = _flip_budget(g, ptb_ratio)
    total_pairs = n * (n - 1) // 2
    if budget > total_pairs:
        raise ValidationError("budget exceeds the number of distinct node pairs")
    flips = _random_fill(g, [], budget, rng.substream("random-flips").generator())
    return PerturbationPlan(flips=flips, budget=budget, ptb_ratio=ptb_ratio)


def dice_attack(g: Graph, ptb_ratio: float, rng: RngState) -> PerturbationPlan:
    """Delete intra-class training edges, connect inter-class training pairs.

    Budget splits ~50/50 between removals and additions; exhausted pools fall
    back to uniform random flips. Only training-node labels are consulted.
    """
    budget = _flip_budget(g, ptb_ratio)
    gen = rng.substream("dice").generator()
    train_ids = np.flatnonzero(g.splits.train)
    labels = g.labels

    pairs = g.adjacency.edge_pairs()
    both_train = g.splits.train[pairs[:, 0]] & g.splits.train[pairs[:, 1]]
    same_class = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    removal_pool = pairs[both_train & same_class]

    ti, tj = np.meshgrid(train_ids, train_ids, indexing="ij")
    upper = ti < tj
    cand_u, cand_v = ti[upper], tj[upper]
    diff_class = labels[cand_u] != labels[cand_v]
    cand_u, cand_v = cand_u[diff_class], cand_v[diff_class]
    absent = np.isin(cand_u * g.num_nodes + cand_v, g.adjacency.edge_keys(), invert=True)
    addition_pool = np.stack([cand_u[absent], cand_v[absent]], axis=1)

    n_remove = min(budget // 2, removal_pool.shape[0])
    n_add = min(budget - n_remove, addition_pool.shape[0])
    flips: list[tuple[str, int, int]] = []
    if n_remove:
        for idx in gen.choice(removal_pool.shape[0], size=n_remove, replace=False):
            u, v = (int(x) for x in removal_pool[idx])
            flips.append(("remove", u, v))
    if n_add:
        for idx in gen.choice(addition_pool.shape[0], size=n_add, replace=False):
            u, v = (int(x) for x in addition_pool[idx])
            flips.append(("add", u, v))
    flips = _random_fill(g, flips, budget, gen)  # exhausted pools fall back to random
    return PerturbationPlan(flips=flips, budget=budget, ptb_ratio=ptb_ratio)


def _row_entries(m: CsrAdjacency, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of every stored entry in the given rows, in stored order."""
    starts = m.row_offsets[rows]
    counts = m.row_offsets[rows + 1] - starts
    idx = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    idx += np.arange(idx.shape[0])
    return np.repeat(rows, counts), m.col_indices[idx]


class _ExactFlipLoss:
    """Exact surrogate training loss of the current graph with one pair toggled.

    Built from one full forward pass on the current graph. Toggling (u, v)
    changes the propagation matrix only in rows and columns u and v, so layer 1
    changes only on S1 = {u, v} + N(u) + N(v) and the logits only on
    S2 = S1 + N(S1). `loss_with` recomputes layer 1 on S1 and layer 2 on the
    training rows of S2, each through `spmm` with an N x N matrix that holds
    only those rows, with the post-toggle entries in the order and with the
    values `normalize_adjacency` gives them. The patched rows go into a copy
    of the cached per-node log-probabilities, whose mean is taken as
    `nll_loss` takes it, so the loss is bitwise equal to a full recompute on
    the toggled graph. The layer-2 input h @ w2 is one full-shape product on a
    patched copy of h: numpy hands one-row products to a different BLAS
    routine, so a product over a subset of rows is not bitwise by design.
    """

    def __init__(
        self, adj: CsrAdjacency, head: ModelParams, a1: np.ndarray,
        labels: np.ndarray, train_mask: np.ndarray,
    ) -> None:
        self.adj, self.head, self.labels, self.train_mask = adj, head, labels, train_mask
        self.prop = normalize_adjacency(adj)
        log_probs, self.cache = gcn_forward(head, a1, self.prop, 0.0, None, False)
        self.loss, self.grad_log_probs = nll_loss(log_probs, labels, train_mask)
        train_ids = np.flatnonzero(train_mask)
        self.picked = log_probs[train_ids, labels[train_ids]]
        self.slot = np.cumsum(train_mask) - 1  # node -> position in `picked`
        self.deg_tilde = adj.degrees().astype(np.float64) + 1.0
        self.h = self.cache.h.copy()  # patched per candidate, then restored

    def _patch(
        self, rows: np.ndarray, u: int, v: int, add: bool, deg_tilde: np.ndarray
    ) -> CsrAdjacency:
        """Post-toggle propagation rows `rows` (sorted) in an N x N matrix."""
        n = self.adj.dim
        src, dst = _row_entries(self.prop, rows)
        keys = src * n + dst  # ascending: rows sorted, columns sorted per row
        ends = np.array([u * n + v, v * n + u])
        if add:
            keys = np.sort(np.concatenate([keys, ends[[u in rows, v in rows]]]))
        else:
            keys = keys[(keys != ends[0]) & (keys != ends[1])]
        return csr_from_keys(n, keys, deg_tilde)

    def loss_with(self, u: int, v: int) -> float:
        add = not self.adj.has_entry(u, v)
        deg_tilde = self.deg_tilde.copy()
        deg_tilde[[u, v]] += 1.0 if add else -1.0
        head, cache = self.head, self.cache

        reach = np.zeros(self.adj.dim, dtype=bool)
        reach[self.prop.row(u)] = True
        reach[self.prop.row(v)] = True
        s1_rows = np.flatnonzero(reach)
        s1 = spmm(self._patch(s1_rows, u, v, add, deg_tilde), cache.a1)
        self.h[s1_rows] = gcn_hidden(s1[s1_rows], head.b1)
        a2 = self.h @ head.w2
        self.h[s1_rows] = cache.h[s1_rows]

        reach[_row_entries(self.prop, s1_rows)[1]] = True
        out_rows = np.flatnonzero(reach & self.train_mask)
        picked = self.picked.copy()
        if out_rows.shape[0]:
            s2 = spmm(self._patch(out_rows, u, v, add, deg_tilde), a2)
            log_probs = gcn_log_probs(s2[out_rows], head.b2)
            picked[self.slot[out_rows]] = log_probs[
                np.arange(out_rows.shape[0]), self.labels[out_rows]
            ]
        return -float(picked.mean())


GRAD_SHORTLIST = 32  # gradient-ranked candidates that get an exact loss evaluation
SCORE_BLOCK_ELEMENTS = 1 << 20  # pair scores held at once while ranking: 8 MB of float64


def _ranked_flips(
    exact: _ExactFlipLoss, flipped: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The k pairs with the largest estimated training-NLL change for toggling
    them, as (keys u * n + v with u < v, estimates), best first; equal
    estimates rank by ascending key. Pairs whose keys are in `flipped`
    (sorted) are left out.

    The network is linearized at the current propagation matrix P, with
    G = dL/dP = U V^T from one backward pass, and G is contracted with the
    exact change of the normalized matrix the toggle causes: flipping (u,v)
    rescales rows/columns u and v from s_i = (1 + deg_i)^(-1/2) to the
    post-flip value and toggles the (u,v) entry itself. With B = A + I,
    M = G o B, r = (M + M^T) s:

        dL(u,v) = sum over rescaled entries of (G_ij + G_ji) dP_ij
                = a_u + a_v + cross(u, v)

    computed separately for additions and removals since their degree shifts
    differ in sign. G_ij + G_ji = [U, V]_i . [V, U]_j, so the diagonal, the
    per-edge terms and the removal scores are row-wise dot products, and the
    addition scores are made one block of rows at a time (pairs j > i only)
    and merged into a running best k. Memory is a few buffers the size of one
    block (at most SCORE_BLOCK_ELEMENTS scores) plus O((N + E)(C + F));
    nothing is N x N.
    """
    adj = exact.adj
    n = adj.dim
    u_fac, v_fac = gcn_backward_wrt_prop(exact.cache, exact.grad_log_probs)
    left, right = np.hstack([u_fac, v_fac]), np.hstack([v_fac, u_fac])
    deg_tilde = exact.deg_tilde
    s = 1.0 / np.sqrt(deg_tilde)
    s_add = 1.0 / np.sqrt(deg_tilde + 1.0)
    # removals only apply to existing edges, so deg >= 1 and deg_tilde-1 >= 1
    s_rem = 1.0 / np.sqrt(np.maximum(deg_tilde - 1.0, 1.0))

    rows = adj.entry_rows()
    cols = adj.col_indices
    gdiag = np.einsum("ij,ij->i", u_fac, v_fac)
    gsym_edges = np.einsum("ij,ij->i", left[rows], right[cols])
    row_sum = np.zeros(n)  # r_i = sum_j (G_ij + G_ji) s_j B_ij over the B pattern
    np.add.at(row_sum, rows, gsym_edges * s[cols])
    row_sum += 2.0 * gdiag * s

    def endpoint_terms(s_new):
        # rescale node i's off-pair entries and its diagonal
        return (s_new - s) * (row_sum - 2.0 * gdiag * s) + gdiag * (s_new**2 - s**2)

    a_add = endpoint_terms(s_add)
    a_rem = endpoint_terms(s_rem)

    upper = rows < cols  # each edge once, in key order
    iu, ju = rows[upper], cols[upper]
    cross = (
        (s_rem[iu] - s[iu]) * s[ju] + s[iu] * (s_rem[ju] - s[ju]) + s[iu] * s[ju]
    )
    rem_vals = a_rem[iu] + a_rem[ju] - gsym_edges[upper] * cross

    left *= s_add[:, None]
    right *= s_add[:, None]
    top_keys, top_scores = np.empty(0, dtype=np.int64), np.empty(0)
    step = max(SCORE_BLOCK_ELEMENTS // n, 1)
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        # scores of the pairs (i, j) with r0 <= i < r1 and j >= r0, row-major,
        # so flat position order is key order
        blk = left[r0:r1] @ right[r0:].T
        blk += a_add[r0:r1, None]
        blk += a_add[None, r0:]
        blk[:, : r1 - r0][np.tri(r1 - r0, dtype=bool)] = -np.inf  # j <= i
        e0, e1 = np.searchsorted(iu, [r0, r1])
        blk[iu[e0:e1] - r0, ju[e0:e1] - r0] = rem_vals[e0:e1]
        f0, f1 = np.searchsorted(flipped, [r0 * n, r1 * n])
        blk[flipped[f0:f1] // n - r0, flipped[f0:f1] % n - r0] = -np.inf

        # every kept key is smaller than this block's, so a block score equal
        # to the running k-th best ranks below it
        flat = blk.ravel()
        floor = top_scores[-1] if top_scores.shape[0] == k else -np.inf
        idx = np.flatnonzero(flat > floor)
        vals = flat[idx]
        if idx.shape[0] > k:  # the block's best k, ties to the smaller keys
            kth = np.partition(vals, idx.shape[0] - k)[idx.shape[0] - k]
            keep = vals > kth
            keep[np.flatnonzero(vals == kth)[: k - np.count_nonzero(keep)]] = True
            idx, vals = idx[keep], vals[keep]
        width = n - r0
        keys = (r0 + idx // width) * n + r0 + idx % width
        merged_keys = np.concatenate([top_keys, keys])
        merged_scores = np.concatenate([top_scores, vals])
        order = np.argsort(-merged_scores, kind="stable")[:k]
        top_keys, top_scores = merged_keys[order], merged_scores[order]
    return top_keys, top_scores


def sgc_gradient_attack(
    g: Graph, ptb_ratio: float, cfg: TrainConfig, rng: RngState
) -> PerturbationPlan:
    """Greedy surrogate-gradient attack.

    Trains a GCN surrogate on the clean graph, then repeatedly flips the pair
    with the largest training-loss increase. Each step ranks all feasible
    toggles by the loss gradient (differentiated through the symmetric
    normalization), evaluates the exact surrogate loss for the top
    GRAD_SHORTLIST candidates, and applies the best one; the gradient is
    re-linearized every max(budget // 10, 1) applied flips. The plan's
    `trace` records, per applied flip, its rank among the remaining ranked
    candidates, its gradient estimate and its exact loss change.

    The exact evaluations are local: after one full forward pass per applied
    flip, a candidate recomputes only the rows within two hops of its endpoints
    (`_ExactFlipLoss`), bitwise equal to a full recompute, so the plan is the
    one full recomputes would choose. Memory: ranking (`_ranked_flips`) holds
    a few buffers the size of one block of at most SCORE_BLOCK_ELEMENTS
    float64 scores (8 MB) and O((N + E)(C + F)) factors and per-edge terms,
    never an N x N buffer: a ranking call peaks at 34 MB of traced
    allocations at N = 2708 and 78 MB at N = 20000. Time: each
    relinearization scores all N^2 / 2 pairs in O(N^2 (C + F)), which is what
    GRAD_ATTACK_NODE_CAP bounds.
    """
    if g.num_nodes > GRAD_ATTACK_NODE_CAP:
        raise CapacityError(
            f"gradient attack scores all {g.num_nodes}^2/2 node pairs at every "
            f"relinearization; the cap is {GRAD_ATTACK_NODE_CAP} nodes - use the "
            f"random or dice attacks instead"
        )
    budget = _flip_budget(g, ptb_ratio)
    plan = PerturbationPlan(flips=[], budget=budget, ptb_ratio=ptb_ratio)
    if budget == 0:
        return plan

    surrogate = train(g, cfg, "gcn", rng.substream("surrogate"))
    params64 = surrogate.params.astype(np.float64)
    # x @ w1 does not depend on the edges, so it is computed once; gcn_forward
    # then sees it through an identity first layer, which reproduces it exactly
    a1 = feature_operand(g.features, np.float64, g.feature_operands) @ params64.w1
    head = ModelParams(np.eye(a1.shape[1]), params64.b1, params64.w2, params64.b2)

    n = g.num_nodes
    edge_keys = g.adjacency.edge_keys()
    flipped_keys = np.empty(0, dtype=np.int64)
    relinearize_every = max(budget // 10, 1)

    def exact_for(keys: np.ndarray) -> _ExactFlipLoss:
        adj = csr_from_edge_pairs(n, np.stack([keys // n, keys % n], axis=1))
        return _ExactFlipLoss(adj, head, a1, g.labels, g.splits.train)

    exact = exact_for(edge_keys)
    exhausted = False
    while len(plan.flips) < budget and not exhausted:
        # one gradient linearization serves the next `relinearize_every` flips
        keys, estimates = _ranked_flips(
            exact, flipped_keys, relinearize_every + GRAD_SHORTLIST
        )
        ranked = list(zip(keys.tolist(), estimates.tolist()))

        for _ in range(min(relinearize_every, budget - len(plan.flips))):
            best_pos, best_delta = None, 0.0
            for pos, (cand, _) in enumerate(ranked[:GRAD_SHORTLIST]):
                delta = exact.loss_with(*divmod(cand, n)) - exact.loss
                if delta > best_delta:
                    best_pos, best_delta = pos, delta
            if best_pos is None:
                exhausted = True  # no shortlisted flip raises the loss
                break
            key, estimate = ranked.pop(best_pos)
            u, v = divmod(key, n)
            plan.flips.append(("remove" if exact.adj.has_entry(u, v) else "add", u, v))
            plan.trace.append(FlipTrace(best_pos + 1, estimate, best_delta))
            edge_keys = np.setxor1d(edge_keys, [key])
            flipped_keys = np.union1d(flipped_keys, [key])
            if len(plan.flips) < budget:
                exact = exact_for(edge_keys)
    return plan


def apply_perturbation(g: Graph, plan: PerturbationPlan) -> Graph:
    """Apply the plan's flips; features, labels, and splits are untouched."""
    plan.validate_against(g)
    n = g.num_nodes
    # a validated plan names each pair once, removes only present edges and
    # adds only absent ones, so toggling its keys applies it
    flipped = np.array([min(u, v) * n + max(u, v) for _, u, v in plan.flips], dtype=np.int64)
    keys = np.setxor1d(g.adjacency.edge_keys(), flipped)
    return g.with_adjacency(csr_from_edge_pairs(n, np.stack([keys // n, keys % n], axis=1)))


def invert_plan(plan: PerturbationPlan) -> PerturbationPlan:
    """The plan that undoes every flip of `plan`."""
    inverted = [
        ("add" if action == "remove" else "remove", u, v) for action, u, v in plan.flips
    ]
    return PerturbationPlan(flips=inverted, budget=plan.budget, ptb_ratio=plan.ptb_ratio)


def perturbation_stats(clean: Graph, perturbed: Graph) -> dict[str, float]:
    if clean.num_nodes != perturbed.num_nodes:
        raise ValidationError("graphs have different node counts")
    clean_keys, pert_keys = clean.adjacency.edge_keys(), perturbed.adjacency.edge_keys()
    added = np.setdiff1d(pert_keys, clean_keys).shape[0]
    removed = np.setdiff1d(clean_keys, pert_keys).shape[0]
    e_clean = clean_keys.shape[0]
    return {
        "added": added,
        "removed": removed,
        "ptb_ratio": (added + removed) / e_clean if e_clean else 0.0,
        "homophily_delta": graph_stats(perturbed).homophily_ratio
        - graph_stats(clean).homophily_ratio,
    }


def save_plan(plan: PerturbationPlan, path: str | Path) -> None:
    lines = [f"# budget={plan.budget} ptb={plan.ptb_ratio!r}"]
    lines += [f"{action}\t{u}\t{v}" for action, u, v in plan.flips]
    Path(path).write_text("\n".join(lines) + "\n")


def load_plan(path: str | Path) -> PerturbationPlan:
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"missing plan file: {path}")
    budget = None
    ptb = 0.0
    flips: list[tuple[str, int, int]] = []
    for idx, ln in enumerate(path.read_text().splitlines()):
        if not ln.strip():
            continue
        try:
            if ln.startswith("#"):
                for tok in ln[1:].split():
                    if tok.startswith("budget="):
                        budget = int(tok.split("=", 1)[1])
                    elif tok.startswith("ptb="):
                        ptb = float(tok.split("=", 1)[1])
                continue
            toks = ln.split("\t")
            if len(toks) != 3 or toks[0] not in ("add", "remove"):
                raise DatasetFormatError(f"plan line {idx}: expected `action<TAB>u<TAB>v`")
            flips.append((toks[0], int(toks[1]), int(toks[2])))
        except ValueError as exc:
            raise DatasetFormatError(f"plan line {idx}: {exc}") from exc
    if budget is None:
        budget = len(flips)
    return PerturbationPlan(flips=flips, budget=budget, ptb_ratio=ptb)
