"""Structural poisoning attacks: edge-flip plans under a budget expressed as
a fraction of the clean undirected edge count.

Three generators are provided: uniform random flips, the label-aware
delete-intra/connect-inter heuristic, and a surrogate-gradient greedy attack
that trains a GCN on the clean graph and repeatedly flips the pair raising the
training loss the most, ranking candidates by the loss gradient differentiated
through the symmetric normalization. Attacks see training labels only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, DatasetFormatError, ValidationError
from .graph import (
    CsrAdjacency,
    Graph,
    csr_from_edge_pairs,
    graph_stats,
    normalize_adjacency,
)
from .nn import ModelParams, gcn_backward_wrt_prop, gcn_forward, nll_loss
from .rng import RngState
from .trainer import TrainConfig, train

GRAD_ATTACK_NODE_CAP = 5000  # dense N x N gradient buffer limit


@dataclass
class PerturbationPlan:
    flips: list[tuple[str, int, int]]  # (action, u, v) with u < v, action add|remove
    budget: int
    ptb_ratio: float

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
    existing = {(int(u), int(v)) for u, v in pairs}
    addition_pool = np.array(
        [(u, v) for u, v in zip(cand_u, cand_v) if (int(u), int(v)) not in existing],
        dtype=np.int64,
    ).reshape(-1, 2)

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


def _flip_scores(
    adj: CsrAdjacency, head: ModelParams, a1: np.ndarray, labels: np.ndarray, train_mask: np.ndarray
) -> np.ndarray:
    """Estimated training-NLL change for toggling each unordered pair.

    The network is linearized at the current propagation matrix P (G = dL/dP
    from one backward pass) and G is contracted with the exact change of the
    normalized matrix the toggle causes: flipping (u,v) rescales rows/columns
    u and v from s_i = (1 + deg_i)^(-1/2) to the post-flip value and toggles
    the (u,v) entry itself. With B = A + I, M = G o B, r = (M + M^T) s:

        dL(u,v) = sum over rescaled entries of (G_ij + G_ji) dP_ij
                = a_u + a_v + cross(u, v)

    computed separately for additions and removals since their degree shifts
    differ in sign. Entries on the diagonal are invalid (set to -inf later).
    `head` and `a1` are the surrogate behind an identity first layer and the
    product x @ w1 (see `sgc_gradient_attack`).
    """
    prop = normalize_adjacency(adj, validate=False)
    log_probs, cache = gcn_forward(head, a1, prop, 0.0, None, False)
    _, grad_lp = nll_loss(log_probs, labels, train_mask)
    grad_prop = gcn_backward_wrt_prop(cache, grad_lp)

    n = adj.dim
    deg_tilde = adj.degrees().astype(np.float64) + 1.0
    s = 1.0 / np.sqrt(deg_tilde)
    s_add = 1.0 / np.sqrt(deg_tilde + 1.0)
    # removals only apply to existing edges, so deg >= 1 and deg_tilde-1 >= 1
    s_rem = 1.0 / np.sqrt(np.maximum(deg_tilde - 1.0, 1.0))

    rows = np.repeat(np.arange(n), adj.degrees())
    cols = adj.col_indices
    gdiag = np.diagonal(grad_prop).copy()
    gsym_edges = grad_prop[rows, cols] + grad_prop[cols, rows]
    row_sum = np.zeros(n)  # r_i = sum_j (G_ij + G_ji) s_j B_ij over the B pattern
    np.add.at(row_sum, rows, gsym_edges * s[cols])
    row_sum += 2.0 * gdiag * s

    def endpoint_terms(s_new):
        # rescale node i's off-pair entries and its diagonal
        return (s_new - s) * (row_sum - 2.0 * gdiag * s) + gdiag * (s_new**2 - s**2)

    a_add = endpoint_terms(s_add)
    a_rem = endpoint_terms(s_rem)

    # dense addition scores everywhere, then overwrite the edge slots with
    # removal scores (computed sparsely: only E positions need them)
    gsym = grad_prop + grad_prop.T
    scores = np.multiply.outer(s_add, s_add)
    scores *= gsym
    scores += a_add[:, None]
    scores += a_add[None, :]

    pairs = adj.edge_pairs()
    iu, ju = pairs[:, 0], pairs[:, 1]
    cross = (
        (s_rem[iu] - s[iu]) * s[ju] + s[iu] * (s_rem[ju] - s[ju]) + s[iu] * s[ju]
    )
    rem_vals = (
        a_rem[iu] + a_rem[ju] - (grad_prop[iu, ju] + grad_prop[ju, iu]) * cross
    )
    scores[iu, ju] = rem_vals
    scores[ju, iu] = rem_vals
    return scores


GRAD_SHORTLIST = 32  # gradient-ranked candidates that get an exact loss evaluation


def sgc_gradient_attack(
    g: Graph, ptb_ratio: float, cfg: TrainConfig, rng: RngState
) -> PerturbationPlan:
    """Greedy surrogate-gradient attack.

    Trains a GCN surrogate on the clean graph, then repeatedly flips the pair
    with the largest training-loss increase. Each step ranks all feasible
    toggles by the dense loss gradient (differentiated through the symmetric
    normalization), evaluates the exact surrogate loss for the top
    GRAD_SHORTLIST candidates, and applies the best one; the gradient is
    re-linearized every max(budget // 10, 1) applied flips.
    """
    if g.num_nodes > GRAD_ATTACK_NODE_CAP:
        raise CapacityError(
            f"gradient attack needs a dense {g.num_nodes}^2 buffer; the cap is "
            f"{GRAD_ATTACK_NODE_CAP} nodes - use the random or dice attacks instead"
        )
    budget = _flip_budget(g, ptb_ratio)
    plan = PerturbationPlan(flips=[], budget=budget, ptb_ratio=ptb_ratio)
    if budget == 0:
        return plan

    surrogate = train(g, cfg, "gcn", rng.substream("surrogate"))
    params64 = surrogate.params.astype(np.float64)
    # x @ w1 does not depend on the edges, so it is computed once; gcn_forward
    # then sees it through an identity first layer, which reproduces it exactly
    a1 = g.features.astype(np.float64) @ params64.w1
    head = ModelParams(np.eye(a1.shape[1]), params64.b1, params64.w2, params64.b2)

    n = g.num_nodes
    clean_pairs = g.adjacency.edge_pairs()
    edge_keys = np.sort(clean_pairs[:, 0] * n + clean_pairs[:, 1])
    flipped_keys: set[int] = set()
    relinearize_every = max(budget // 10, 1)

    def adjacency_for(keys: np.ndarray) -> CsrAdjacency:
        return csr_from_edge_pairs(n, np.stack([keys // n, keys % n], axis=1))

    def loss_for(keys: np.ndarray) -> float:
        prop = normalize_adjacency(adjacency_for(keys), validate=False)
        log_probs, _ = gcn_forward(head, a1, prop, 0.0, None, False)
        return nll_loss(log_probs, g.labels, g.splits.train)[0]

    def has_key(keys: np.ndarray, key: int) -> bool:
        pos = int(np.searchsorted(keys, key))
        return pos < keys.shape[0] and keys[pos] == key

    def toggled(keys: np.ndarray, key: int) -> np.ndarray:
        pos = int(np.searchsorted(keys, key))
        if pos < keys.shape[0] and keys[pos] == key:
            return np.delete(keys, pos)
        return np.insert(keys, pos, key)

    tril = np.tril_indices(n, k=0)
    exhausted = False
    while len(plan.flips) < budget and not exhausted:
        # one gradient linearization serves the next `relinearize_every` flips
        scores = _flip_scores(adjacency_for(edge_keys), head, a1, g.labels, g.splits.train)
        scores[tril] = -np.inf  # one score per unordered pair
        if flipped_keys:
            arr = np.fromiter(flipped_keys, dtype=np.int64, count=len(flipped_keys))
            scores[arr // n, arr % n] = -np.inf
        flat = scores.ravel()
        k = min(relinearize_every + GRAD_SHORTLIST, flat.shape[0])
        ranked_idx = np.argpartition(flat, flat.size - k)[flat.size - k :]
        ranked_idx = ranked_idx[np.argsort(-flat[ranked_idx])]
        ranked = [int(c) for c in ranked_idx if np.isfinite(flat[c])]

        for _ in range(min(relinearize_every, budget - len(plan.flips))):
            base_loss = loss_for(edge_keys)
            best_pos, best_delta = None, 0.0
            for pos, cand in enumerate(ranked[:GRAD_SHORTLIST]):
                delta = loss_for(toggled(edge_keys, cand)) - base_loss
                if delta > best_delta:
                    best_pos, best_delta = pos, delta
            if best_pos is None:
                exhausted = True  # no shortlisted flip raises the loss
                break
            key = ranked.pop(best_pos)
            u, v = divmod(key, n)
            plan.flips.append(("remove" if has_key(edge_keys, key) else "add", u, v))
            edge_keys = toggled(edge_keys, key)
            flipped_keys.add(key)
    return plan


def apply_perturbation(g: Graph, plan: PerturbationPlan) -> Graph:
    """Apply the plan's flips; features, labels, and splits are untouched."""
    plan.validate_against(g)
    edges = {(int(u), int(v)) for u, v in g.adjacency.edge_pairs()}
    for action, u, v in plan.flips:
        key = (min(u, v), max(u, v))
        if action == "remove":
            edges.remove(key)
        else:
            edges.add(key)
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return g.with_adjacency(csr_from_edge_pairs(g.num_nodes, pairs))


def invert_plan(plan: PerturbationPlan) -> PerturbationPlan:
    """The plan that undoes every flip of `plan`."""
    inverted = [
        ("add" if action == "remove" else "remove", u, v) for action, u, v in plan.flips
    ]
    return PerturbationPlan(flips=inverted, budget=plan.budget, ptb_ratio=plan.ptb_ratio)


def perturbation_stats(clean: Graph, perturbed: Graph) -> dict[str, float]:
    if clean.num_nodes != perturbed.num_nodes:
        raise ValidationError("graphs have different node counts")
    n = clean.num_nodes
    clean_keys = {u * n + v for u, v in clean.adjacency.edge_pairs()}
    pert_keys = {u * n + v for u, v in perturbed.adjacency.edge_pairs()}
    added = len(pert_keys - clean_keys)
    removed = len(clean_keys - pert_keys)
    e_clean = len(clean_keys)
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
