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

from .errors import CapacityError, ValidationError
from .graph import (
    CsrAdjacency,
    Graph,
    csr_from_edge_pairs,
    csr_from_keys,
    graph_stats,
    normalize_adjacency,
    propagation_values,
    read_records,
    sorted_contains,
    unique_keys,
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

# why the gradient attack stopped, as `PerturbationPlan.stop_reason` records it
STOPPED_BUDGET = "budget spent"
STOPPED_NO_GAIN = "no shortlisted flip raises the loss after relinearizing"


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
    stop_reason: str = ""  # STOPPED_BUDGET or STOPPED_NO_GAIN; gradient attack only

    def validate_against(self, g: Graph) -> np.ndarray:
        """Check the plan against g; return its pairs as keys
        min(u, v) * n + max(u, v), in plan order.

        Raises ValidationError for a plan longer than its budget, else for
        the first offending flip in plan order, by that flip's first failing
        check: an unknown action, a node id that is not an integer (Python
        and numpy integers pass, bools and floats do not, as in
        `check_count`), a self-pair, an id out of range, a pair named by an
        earlier flip, then removing an absent or adding a present edge. The
        checks run on arrays over the flips; presence is a binary search in
        the graph's edge keys."""
        if len(self.flips) > self.budget:
            raise ValidationError("plan has more flips than its budget")
        if not self.flips:
            return np.empty(0, dtype=np.int64)
        n, m = g.num_nodes, len(self.flips)
        actions, us, vs = zip(*self.flips)
        action = np.fromiter(actions, dtype=object, count=m)
        is_add = action == "add"
        integer, ids = _node_ids(us + vs)
        u, v = ids[:m], ids[m:]
        inside = ((u >= 0) & (u < n) & (v >= 0) & (v < n)).astype(bool)
        failures = [  # (failing flips, message), in the order the checks run
            (~(is_add | (action == "remove")), "unknown action {a!r}"),
            (~(integer[:m] & integer[m:]), "plan node id must be an integer, got {ids!r}"),
            ((u == v).astype(bool), "self-pair in plan"),
            (~inside, "plan node id out of range"),
        ]
        u, v = (np.where(inside, w, 0).astype(np.int64) for w in (u, v))
        keys = np.minimum(u, v) * n + np.maximum(u, v)
        order = np.argsort(keys, kind="stable")  # equal keys in plan order
        twice = np.zeros(m, dtype=bool)
        twice[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        present = sorted_contains(g.adjacency.edge_keys(), keys)
        failures += [
            (twice, "pair {key} appears twice in plan"),
            (~is_add & ~present, "plan removes absent edge {key}"),
            (is_add & present, "plan adds existing edge {key}"),
        ]
        bad = np.logical_or.reduce([flips for flips, _ in failures])
        if bad.any():
            i = int(np.argmax(bad))
            a, x, y = self.flips[i]
            message = next(message for flips, message in failures if flips[i])
            key = (min(x, y), max(x, y)) if "{key}" in message else None
            raise ValidationError(message.format(a=a, ids=(x, y), key=key))
        return keys


def _node_ids(ids: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(which of `ids` are integers, the ids as an array): int64 when all
    are Python or numpy integers that fit, else objects with the ids that
    are not integers set to 0."""
    kinds = set(map(type, ids))
    if all(issubclass(k, (int, np.integer)) and k not in (bool, np.uint64) for k in kinds):
        try:
            return np.ones(len(ids), dtype=bool), np.fromiter(ids, np.int64, len(ids))
        except OverflowError:  # a Python int beyond int64
            pass
    integer = np.array(
        [not isinstance(x, bool) and isinstance(x, (int, np.integer)) for x in ids], dtype=bool
    )
    return integer, np.where(integer, np.fromiter(ids, object, len(ids)), 0)


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
    if len(flips) >= budget:
        return flips
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
    The addition pool is made block by block of training rows
    (`_addition_pool`), counted in a first pass and, after the draw, made
    again for the drawn keys, so memory is O(E + budget + one block)
    instead of O(T^2) for T training nodes; a pool of one block is kept
    from the first pass.
    """
    budget = _flip_budget(g, ptb_ratio)
    gen = rng.substream("dice").generator()
    train_ids = np.flatnonzero(g.splits.train)
    labels = g.labels
    n = g.num_nodes

    edge_keys = g.adjacency.edge_keys()
    pairs = np.stack(np.divmod(edge_keys, n), axis=1)
    both_train = g.splits.train[pairs[:, 0]] & g.splits.train[pairs[:, 1]]
    same_class = labels[pairs[:, 0]] == labels[pairs[:, 1]]
    removal_pool = pairs[both_train & same_class]
    # the edges whose pairs would otherwise be in the addition pool
    inter_edges = edge_keys[both_train & ~same_class]

    blocks = _row_blocks(train_ids.shape[0])
    sizes = []
    for a0, a1 in blocks:  # the first pass counts the pool
        pool = _addition_pool(g, train_ids, inter_edges, a0, a1)
        sizes.append(pool.shape[0])
    n_remove = min(budget // 2, removal_pool.shape[0])
    n_add = min(budget - n_remove, sum(sizes))
    flips: list[tuple[str, int, int]] = []
    if n_remove:
        drawn = removal_pool[gen.choice(removal_pool.shape[0], size=n_remove, replace=False)]
        flips += [("remove", u, v) for u, v in drawn.tolist()]
    if n_add:
        draws = gen.choice(sum(sizes), size=n_add, replace=False)
        starts = np.cumsum([0] + sizes)
        owner = np.searchsorted(starts, draws, side="right") - 1
        added = np.empty(n_add, dtype=np.int64)
        for b, (a0, a1) in enumerate(blocks):  # the second pass gathers the drawn keys
            hit = owner == b
            if hit.any():
                if len(blocks) > 1:  # one block's pool is kept from the first pass
                    pool = _addition_pool(g, train_ids, inter_edges, a0, a1)
                added[hit] = pool[draws[hit] - starts[b]]
        flips += [("add", u, v) for u, v in zip(*(a.tolist() for a in np.divmod(added, n)))]
    flips = _random_fill(g, flips, budget, gen)  # exhausted pools fall back to random
    return PerturbationPlan(flips=flips, budget=budget, ptb_ratio=ptb_ratio)


def _row_blocks(t: int) -> list[tuple[int, int]]:
    """Row ranges [a0, a1) of the pairs (a, b), a < b < t, of t training
    nodes: each block's rectangle of rows a0 <= a < a1 and columns
    a0 < b < t holds at most SCORE_BLOCK_ELEMENTS pairs (or one row)."""
    blocks, a0 = [], 0
    while a0 < t - 1:
        a1 = min(a0 + max(SCORE_BLOCK_ELEMENTS // (t - a0 - 1), 1), t - 1)
        blocks.append((a0, a1))
        a0 = a1
    return blocks


def _addition_pool(
    g: Graph, train_ids: np.ndarray, inter_edges: np.ndarray, a0: int, a1: int
) -> np.ndarray:
    """One block of DICE's addition pool, as ascending keys u * n + v: the
    pairs of training nodes u = train_ids[a], v = train_ids[b] of different
    classes, with a0 <= a < a1 and a < b, in row-major order, less the edges
    among them. `inter_edges` holds the ascending keys of every edge that
    joins training nodes of different classes."""
    n, t = g.num_nodes, train_ids.shape[0]
    labels = g.labels[train_ids]
    keep = labels[a0:a1, None] != labels[None, a0 + 1 :]
    keep &= np.arange(a0 + 1, t) > np.arange(a0, a1)[:, None]
    keys = (train_ids[a0:a1, None] * n + train_ids[None, a0 + 1 :])[keep]
    # the block's rows u are train_ids[a0:a1], so its edges' keys lie in
    # [train_ids[a0] * n, train_ids[a1] * n), and each is one of `keys`
    e0, e1 = np.searchsorted(inter_edges, train_ids[[a0, a1]] * n)
    return np.delete(keys, np.searchsorted(keys, inter_edges[e0:e1]))


class _ExactFlipLoss:
    """Exact surrogate training loss of the current graph with one pair
    toggled, for a shortlist of pairs at once.

    Built from one full forward pass on the current graph. Toggling (u, v)
    changes the propagation matrix only in rows and columns u and v, so layer 1
    changes only on S1 = {u, v} + N(u) + N(v) and the logits only on
    S2 = S1 + N(S1). `losses_with` takes two `spmm` calls for a whole
    shortlist: layer 1 on a CSR with one row block per candidate (its S1
    rows) times a1, and layer 2 on one with a block per candidate (the
    training rows of its S2) times [h @ w2 ; every candidate's patched S1 rows
    of h @ w2], each block's columns pointing at its own candidate's rows.
    Every row holds the post-toggle entries in the order and with the values
    `normalize_adjacency` gives them, and scipy accumulates each output row on
    its own in stored order. The patched rows go into a copy of the cached
    per-node log-probabilities, whose mean is taken as `nll_loss` takes it, so
    each loss is bitwise equal to a full recompute on the toggled graph. The
    layer-2 input h @ w2 is one full-shape product per candidate on a patched
    copy of h: numpy hands one-row products to a different BLAS routine, so a
    product over a subset of rows is not bitwise by design.

    Memory: under (N + sum |S1|) x (F + C) float64s for any number of
    candidates (the stacked operand, one N x C product at a time, the stacked
    rows), never one copy of the N rows per candidate; a 32-pair batch peaks
    at 0.3 MB of traced allocations at N = 2708 and 1.3 MB at N = 20000.
    """

    def __init__(
        self, adj: CsrAdjacency, params: ModelParams, a1: np.ndarray,
        labels: np.ndarray, train_mask: np.ndarray,
    ) -> None:
        self.adj, self.params, self.labels, self.train_mask = adj, params, labels, train_mask
        self.prop = normalize_adjacency(adj)
        log_probs, self.cache = gcn_forward(params, None, self.prop, a1=a1)
        self.loss, self.grad_log_probs = nll_loss(log_probs, labels, train_mask)
        train_ids = np.flatnonzero(train_mask)
        self.picked = log_probs[train_ids, labels[train_ids]]
        self.slot = np.cumsum(train_mask) - 1  # node -> position in `picked`
        self.deg_tilde = adj.degrees().astype(np.float64) + 1.0
        self.h = self.cache.h.copy()  # patched per candidate, then restored

    def _patched_entries(
        self, owner: np.ndarray, nodes: np.ndarray, u: np.ndarray, v: np.ndarray,
        add: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Post-toggle entries of propagation rows `nodes`, row i as candidate
        owner[i] (toggling u[owner[i]], v[owner[i]]) has it: (row position,
        column, value), row after row, columns ascending."""
        n = self.adj.dim
        counts, idx = self.prop.entries_of(nodes)
        keys = np.repeat(np.arange(nodes.shape[0]) * n, counts) + self.prop.col_indices[idx]
        at_u = np.flatnonzero(nodes == u[owner])
        at_v = np.flatnonzero(nodes == v[owner])
        toggled = np.concatenate([at_u * n + v[owner[at_u]], at_v * n + u[owner[at_v]]])
        keys = np.setxor1d(keys, toggled, assume_unique=True)  # drop if stored, else add
        pos, cols = keys // n, keys % n
        cand = owner[pos]
        step = np.where(add, 1.0, -1.0)[cand]

        def deg_tilde(ids):  # degree + 1 after the entry's own candidate's toggle
            return self.deg_tilde[ids] + step * ((ids == u[cand]) | (ids == v[cand]))

        return pos, cols, propagation_values(deg_tilde(nodes[pos]), deg_tilde(cols))

    def losses_with(self, keys: np.ndarray) -> np.ndarray:
        """The exact loss with each pair u * n + v of `keys` toggled alone."""
        n, k = self.adj.dim, keys.shape[0]
        losses = np.empty(k)
        if k == 0:
            return losses
        u, v = keys // n, keys % n
        ends = np.stack([u, v], axis=1).ravel()
        counts, idx = self.prop.entries_of(ends)
        row_of = np.repeat(np.arange(2 * k), counts)
        cols = self.prop.col_indices[idx]
        stored = cols == np.stack([v, u], axis=1).ravel()[row_of]  # entry (u, v) or (v, u)
        add = np.ones(k, dtype=bool)
        add[row_of[stored] // 2] = False
        s1 = unique_keys(row_of // 2 * n + cols)  # (candidate, node) keys of the S1 rows
        s1_cand, s1_node = s1 // n, s1 % n
        s1_bounds = np.searchsorted(s1_cand, np.arange(k + 1))

        pos, cols, values = self._patched_entries(s1_cand, s1_node, u, v, add)
        layer1 = csr_from_keys(s1.shape[0], pos * n + cols, values=values, cols=n)
        hidden = gcn_hidden(spmm(layer1, self.cache.a1), self.params.b1)
        a2 = self.cache.a2  # the layer-2 input of rows no toggle changes
        a2_rows = np.empty((s1.shape[0], a2.shape[1]), dtype=a2.dtype)
        for c in range(k):
            block = slice(s1_bounds[c], s1_bounds[c + 1])
            rows = s1_node[block]
            self.h[rows] = hidden[block]
            a2_rows[block] = (self.h @ self.params.w2)[rows]
            self.h[rows] = self.cache.h[rows]

        s2 = unique_keys(s1_cand[pos] * n + cols)  # every column of an S1 row
        out = s2[self.train_mask[s2 % n]]
        out_cand, out_node = out // n, out % n
        picked_new = np.empty(0)
        if out.shape[0]:
            pos, cols, values = self._patched_entries(out_cand, out_node, u, v, add)
            # a column in the entry's own candidate's S1 reads that candidate's
            # patched row of h @ w2, stacked below the unpatched rows
            wanted = out_cand[pos] * n + cols
            at = np.minimum(np.searchsorted(s1, wanted), s1.shape[0] - 1)
            cols = np.where(s1[at] == wanted, n + at, cols)
            width = n + s1.shape[0]
            layer2 = csr_from_keys(out.shape[0], pos * width + cols, values=values, cols=width)
            log_probs = gcn_log_probs(spmm(layer2, np.vstack([a2, a2_rows])), self.params.b2)
            picked_new = log_probs[np.arange(out.shape[0]), self.labels[out_node]]

        out_bounds = np.searchsorted(out_cand, np.arange(k + 1))
        for c in range(k):
            block = slice(out_bounds[c], out_bounds[c + 1])
            picked = self.picked.copy()
            picked[self.slot[out_node[block]]] = picked_new[block]
            losses[c] = -float(picked.mean())
        return losses


GRAD_SHORTLIST = 32  # gradient-ranked candidates that get an exact loss evaluation
# node pairs held at once: a block of the gradient ranking's scores (8 MB of
# float64), and a block of DICE's candidate pairs (their int64 keys, 8 MB)
SCORE_BLOCK_ELEMENTS = 1 << 20
SCORE_PASS_ELEMENTS = 1 << 17  # scores one pass over a block touches: 1 MB, within an L2


def _pair_dots(
    left: np.ndarray, right: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """left[rows[e]] . right[cols[e]] for every e, gathered about
    SCORE_PASS_ELEMENTS values at a time instead of as two len(rows) x width
    copies; each dot product is the one the whole gather gives."""
    out = np.empty(rows.shape[0])
    step = max(SCORE_PASS_ELEMENTS // left.shape[1], 1)
    for e0 in range(0, rows.shape[0], step):
        e1 = e0 + step
        np.einsum("ij,ij->i", left[rows[e0:e1]], right[cols[e0:e1]], out=out[e0:e1])
    return out


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
    and merged into a running best k. Each block is one product, then swept
    in passes of at most SCORE_PASS_ELEMENTS scores (one L2-sized sub-block
    of rows) for the adds, the masks, the filter and the merge. Memory is a
    few buffers the size of one block (at most SCORE_BLOCK_ELEMENTS scores)
    plus O((N + E)(C + F)); nothing is N x N.
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
    gsym_edges = _pair_dots(left, right, rows, cols)
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
        width = n - r0
        chunk = max(SCORE_PASS_ELEMENTS // width, 1)
        for q0 in range(r0, r1, chunk):  # the rows i of one cache-sized pass
            q1 = min(q0 + chunk, r1)
            sub = blk[q0 - r0 : q1 - r0]
            sub += a_add[q0:q1, None]
            sub += a_add[None, r0:]
            sub[:, : q0 - r0] = -np.inf  # j < q0 <= i
            sub[:, q0 - r0 : q1 - r0][np.tri(q1 - q0, dtype=bool)] = -np.inf  # q0 <= j <= i
            e0, e1 = np.searchsorted(iu, [q0, q1])
            sub[iu[e0:e1] - q0, ju[e0:e1] - r0] = rem_vals[e0:e1]
            f0, f1 = np.searchsorted(flipped, [q0 * n, q1 * n])
            sub[flipped[f0:f1] // n - q0, flipped[f0:f1] % n - r0] = -np.inf

            # every kept key is smaller than this pass's, so a score equal to
            # the running k-th best ranks below it
            flat = sub.ravel()
            floor = top_scores[-1] if top_scores.shape[0] == k else -np.inf
            idx = np.flatnonzero(flat > floor)
            vals = flat[idx]
            if idx.shape[0] > k:  # the pass's best k, ties to the smaller keys
                kth = np.partition(vals, idx.shape[0] - k)[idx.shape[0] - k]
                keep = vals > kth
                keep[np.flatnonzero(vals == kth)[: k - np.count_nonzero(keep)]] = True
                idx, vals = idx[keep], vals[keep]
            keys = (q0 + idx // width) * n + r0 + idx % width
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
    re-linearized every max(budget // 10, 1) applied flips, and also as soon
    as a shortlist from an older linearization holds no flip that raises the
    loss. The attack stops short of its budget only when a shortlist from
    the current graph's own linearization holds none. The plan's `trace`
    records, per applied flip, its rank among the remaining ranked
    candidates, its gradient estimate and its exact loss change, and its
    `stop_reason` says why the attack stopped.

    The exact evaluations are local: after one full forward pass per applied
    flip, a shortlist recomputes only the rows within two hops of each
    candidate's endpoints, all candidates in two propagations
    (`_ExactFlipLoss.losses_with`, under (N + sum |S1|) x (F + C) float64s),
    bitwise equal to a full recompute, so the plan is the one full recomputes
    would choose. Ranking (`_ranked_flips`) holds a few buffers the size of
    one block of at most SCORE_BLOCK_ELEMENTS float64 scores (8 MB), swept in
    passes of SCORE_PASS_ELEMENTS (1 MB), and O((N + E)(C + F)) factors and
    per-edge terms, never an N x N buffer: a ranking call peaks at 18 MB of
    traced allocations at N = 2708 and 41 MB at N = 20000 (80,000 stored
    entries). Time: each relinearization scores all N^2 / 2 pairs in
    O(N^2 (C + F)), which is what GRAD_ATTACK_NODE_CAP bounds.
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
        plan.stop_reason = STOPPED_BUDGET
        return plan

    surrogate = train(g, cfg, "gcn", rng.substream("surrogate"))
    params64 = surrogate.params.astype(np.float64)
    # x @ w1 does not depend on the edges, so it is computed once and every
    # forward pass takes it as its layer-1 input
    a1 = feature_operand(g.features, np.float64, g.feature_operands) @ params64.w1

    n = g.num_nodes
    edge_keys = g.adjacency.edge_keys()
    flipped_keys = np.empty(0, dtype=np.int64)
    relinearize_every = max(budget // 10, 1)

    def exact_for(keys: np.ndarray) -> _ExactFlipLoss:
        adj = csr_from_edge_pairs(n, np.stack([keys // n, keys % n], axis=1))
        return _ExactFlipLoss(adj, params64, a1, g.labels, g.splits.train)

    exact = exact_for(edge_keys)
    while len(plan.flips) < budget:
        # one gradient linearization serves the next `relinearize_every` flips
        keys, estimates = _ranked_flips(
            exact, flipped_keys, relinearize_every + GRAD_SHORTLIST
        )
        ranked = list(zip(keys.tolist(), estimates.tolist()))

        fresh = True  # the shortlist comes from the current graph's gradient
        for _ in range(min(relinearize_every, budget - len(plan.flips))):
            shortlist = np.array([key for key, _ in ranked[:GRAD_SHORTLIST]], dtype=np.int64)
            deltas = exact.losses_with(shortlist) - exact.loss
            if not (deltas > 0.0).any():
                break  # no shortlisted flip raises the loss
            fresh = False
            best_pos = int(np.argmax(deltas))  # the first of the largest
            key, estimate = ranked.pop(best_pos)
            u, v = divmod(key, n)
            plan.flips.append(("remove" if exact.adj.has_entry(u, v) else "add", u, v))
            plan.trace.append(FlipTrace(best_pos + 1, estimate, float(deltas[best_pos])))
            edge_keys = np.setxor1d(edge_keys, [key], assume_unique=True)
            # a flipped key is never ranked again, so it is not in flipped_keys yet
            flipped_keys = np.insert(flipped_keys, np.searchsorted(flipped_keys, key), key)
            if len(plan.flips) < budget:
                exact = exact_for(edge_keys)
        if fresh:
            plan.stop_reason = STOPPED_NO_GAIN
            return plan
    plan.stop_reason = STOPPED_BUDGET
    return plan


# the plan generators by method name, each called as (graph, ptb_ratio, rng);
# the gradient attack's surrogate trains at the default config
ATTACK_METHODS = {
    "random": random_flip_attack,
    "dice": dice_attack,
    "grad": lambda g, ptb, rng: sgc_gradient_attack(g, ptb, TrainConfig(), rng),
}


def apply_perturbation(g: Graph, plan: PerturbationPlan) -> Graph:
    """Apply the plan's flips; features, labels, and splits are untouched."""
    flipped = plan.validate_against(g)
    n = g.num_nodes
    # a validated plan names each pair once, removes only present edges and
    # adds only absent ones, so toggling its keys applies it
    keys = np.setxor1d(g.adjacency.edge_keys(), flipped, assume_unique=True)
    return g.with_adjacency(csr_from_edge_pairs(n, np.stack(np.divmod(keys, n), axis=1)))


def perturbation_stats(clean: Graph, perturbed: Graph) -> dict[str, float]:
    if clean.num_nodes != perturbed.num_nodes:
        raise ValidationError("graphs have different node counts")
    clean_keys, pert_keys = clean.adjacency.edge_keys(), perturbed.adjacency.edge_keys()
    added = np.setdiff1d(pert_keys, clean_keys, assume_unique=True).shape[0]
    removed = np.setdiff1d(clean_keys, pert_keys, assume_unique=True).shape[0]
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


def _plan_record(line: str) -> tuple[str, int, int] | dict:
    """A flip `action<TAB>u<TAB>v`, or for a `#` header or comment line the
    `budget=` and `ptb=` values it sets."""
    if line.startswith("#"):
        casts = {"budget": int, "ptb": float}
        fields = (tok.partition("=") for tok in line[1:].split())
        return {key: casts[key](value) for key, eq, value in fields if eq and key in casts}
    toks = line.split("\t")
    if len(toks) != 3 or toks[0] not in ("add", "remove"):
        raise ValueError("expected `action<TAB>u<TAB>v`")
    return toks[0], int(toks[1]), int(toks[2])


def load_plan(path: str | Path) -> PerturbationPlan:
    """The plan `save_plan` writes: the last `budget=` and `ptb=` win, and the
    budget defaults to the flip count."""
    records = read_records(path, _plan_record, "plan line")
    header = {k: v for r in records if isinstance(r, dict) for k, v in r.items()}
    flips = [r for r in records if not isinstance(r, dict)]
    return PerturbationPlan(flips, header.get("budget", len(flips)), header.get("ptb", 0.0))
