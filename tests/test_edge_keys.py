"""Edge-key sets by sort and search: `graph.unique_keys`, the vectorized
`PerturbationPlan.validate_against` and the blocked DICE pool, each against
the code it replaced, kept here as the reference; DICE's memory bound; and a
guard that keeps numpy's general set routines off the key paths."""

import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sfrgnn
import sfrgnn.attacks as attacks_mod
from sfrgnn.attacks import (
    PerturbationPlan,
    _flip_budget,
    _random_fill,
    apply_perturbation,
    dice_attack,
    random_flip_attack,
)
from sfrgnn.errors import ValidationError
from sfrgnn.graph import Graph, SplitMasks, csr_from_edge_pairs, unique_keys
from sfrgnn.rng import RngState
from sfrgnn.synth import sbm_graph

from conftest import build_graph


def reference_validate(plan, g):
    """`validate_against` as a loop over the flips, one `has_entry` each."""
    if len(plan.flips) > plan.budget:
        raise ValidationError("plan has more flips than its budget")
    seen = set()
    for action, u, v in plan.flips:
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


def reference_dice(g, ptb_ratio, rng):
    """DICE with its addition pool as one T x T grid of training pairs."""
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
    flips = []
    if n_remove:
        for idx in gen.choice(removal_pool.shape[0], size=n_remove, replace=False):
            u, v = (int(x) for x in removal_pool[idx])
            flips.append(("remove", u, v))
    if n_add:
        for idx in gen.choice(addition_pool.shape[0], size=n_add, replace=False):
            u, v = (int(x) for x in addition_pool[idx])
            flips.append(("add", u, v))
    flips = _random_fill(g, flips, budget, gen)
    return PerturbationPlan(flips=flips, budget=budget, ptb_ratio=ptb_ratio)


def outcome(check):
    try:
        result = check()
    except ValidationError as exc:
        return type(exc), str(exc)
    return None, result


@pytest.mark.parametrize("kind", ["random", "sorted", "repeated", "empty"])
def test_unique_keys_equals_np_unique(kind):
    gen = np.random.default_rng(70)
    keys = {
        "random": gen.integers(-(2**40), 2**40, 5_000),
        "sorted": np.sort(gen.integers(0, 10**9, 3_000)),
        "repeated": gen.integers(0, 7, 2_000),
        "empty": np.empty(0, dtype=np.int64),
    }[kind].astype(np.int64)
    got, want = unique_keys(keys), np.unique(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


DEFECTS = ["action", "self", "range_low", "range_high", "twice", "twice_reversed",
           "remove_absent", "add_present"]


def defective(g, flips, defect, gen):
    """One flip of `flips` (a valid plan of g) replaced by a flip with
    `defect`, at a random position."""
    n = g.num_nodes
    edges = [tuple(p) for p in g.adjacency.edge_pairs().tolist()]
    i = int(gen.integers(len(flips)))
    action, u, v = flips[i]
    if defect == "action":
        flips[i] = ("toggle", u, v)
    elif defect == "self":
        flips[i] = (action, u, u)
    elif defect == "range_low":
        flips[i] = (action, -1 - int(gen.integers(3)), v)
    elif defect == "range_high":
        flips[i] = (action, u, n + int(gen.integers(3)))
    elif defect in ("twice", "twice_reversed"):
        j = int(gen.integers(len(flips)))
        a, x, y = flips[j]
        flips[i] = (a, y, x) if defect == "twice_reversed" else (a, x, y)
    elif defect == "remove_absent":
        while True:
            x, y = (int(t) for t in gen.integers(0, n, 2))
            if x != y and not g.adjacency.has_entry(x, y):
                break
        flips[i] = ("remove", x, y)
    else:
        flips[i] = ("add", *edges[int(gen.integers(len(edges)))])
    return flips


@pytest.mark.parametrize("seed", range(6))
def test_vectorized_plan_checks_match_the_loop(seed):
    """Random valid plans, and plans with one defect or several in shuffled
    order: both checks raise the same type and message, or both pass."""
    g = sbm_graph([14, 12, 10], p_in=0.4, p_out=0.05, seed=seed, feature_dim=3,
                  train_ratio=0.5, val_ratio=0.2)
    n = g.num_nodes
    gen = np.random.default_rng(seed)
    for trial in range(60):
        attack = random_flip_attack if trial % 2 else dice_attack
        base = attack(g, 0.3, RngState(seed * 100 + trial))
        flips = list(base.flips)
        if trial % 3 == 1:
            flips = [(a, v, u) for a, u, v in flips]  # plan files may list v, u
        if trial % 5 == 2:  # numpy ids, which the messages print as numpy scalars
            flips = [(a, np.int64(u), v) for a, u, v in flips]
        if trial % 4:  # valid plans at trial 0, 4, 8, ...
            defects = list(gen.choice(DEFECTS, size=int(gen.integers(1, 4))))
            gen.shuffle(defects)
            for defect in defects:
                flips = defective(g, flips, defect, gen)
        plan = PerturbationPlan(flips, base.budget, base.ptb_ratio)
        want = outcome(lambda: reference_validate(plan, g))
        got = outcome(lambda: plan.validate_against(g))
        assert got[0] == want[0] and (want[0] is None or got[1] == want[1]), (flips, got, want)
        if want[0] is None:
            keys = [min(u, v) * n + max(u, v) for _, u, v in flips]
            assert got[1].dtype == np.int64 and got[1].tolist() == keys
    over = PerturbationPlan(list(base.flips), len(base.flips) - 1, base.ptb_ratio)
    assert outcome(lambda: over.validate_against(g)) == outcome(lambda: reference_validate(over, g))
    empty = PerturbationPlan([], 0, 0.0).validate_against(g)
    assert empty.dtype == np.int64 and empty.shape == (0,)


@pytest.mark.parametrize("flip", [("add", 0, 5.5), ("add", 0.0, 5.0), ("add", True, 5)])
def test_plan_node_ids_must_be_integers(flip):
    g = build_graph(8, [(0, 1), (2, 3)], [0, 1, 0, 1, 0, 1, 0, 1])
    with pytest.raises(ValidationError, match="plan node id must be an integer"):
        apply_perturbation(g, PerturbationPlan([flip], 1, 0.1))


def test_numpy_integer_plan_ids_pass():
    g = build_graph(8, [(0, 1), (2, 3)], [0, 1, 0, 1, 0, 1, 0, 1])
    plan = PerturbationPlan([("add", np.int64(0), np.int32(5)), ("remove", 3, np.uint8(2))], 2, 0.1)
    assert plan.validate_against(g).tolist() == [5, 2 * 8 + 3]
    huge = PerturbationPlan([("add", 0, 2**70)], 1, 0.1)
    with pytest.raises(ValidationError, match="out of range"):
        huge.validate_against(g)


def dice_graphs():
    yield "sbm", sbm_graph([15, 12, 9], p_in=0.3, p_out=0.04, seed=71, feature_dim=3,
                           train_ratio=0.5, val_ratio=0.2)
    yield "sbm_dense", sbm_graph([10, 10], p_in=0.4, p_out=0.15, seed=21, feature_dim=3,
                                 train_ratio=0.5, val_ratio=0.2)
    yield "sparse_train", sbm_graph([40, 30, 30], p_in=0.1, p_out=0.01, seed=72,
                                    feature_dim=3, train_ratio=0.1, val_ratio=0.1)
    # four inter-class training pairs against a budget of 15: the addition
    # pool runs out, and random flips fill the plan
    gen = np.random.default_rng(73)
    edges = gen.integers(0, 20, size=(40, 2))
    yield "exhausted", build_graph(20, edges[edges[:, 0] != edges[:, 1]], [0, 0, 1, 1] * 5,
                                   train=[0, 1, 2, 3])
    yield "no_edges", build_graph(12, np.empty((0, 2)), [0, 1, 2] * 4, train=range(8))
    yield "single_class", build_graph(8, [(0, 1), (2, 3), (4, 5)], [0] * 6 + [1] * 2,
                                      train=[0, 1, 2, 3])


@pytest.mark.parametrize("name, g", list(dice_graphs()))
def test_blocked_dice_equals_the_grid(name, g, monkeypatch):
    ptbs = (0.5,) if name in ("exhausted", "single_class") else (0.1, 0.3, 0.5)
    if name == "exhausted":
        assert _flip_budget(g, 0.5) - 2 > 4  # more additions wanted than the pool holds
    for block in (attacks_mod.SCORE_BLOCK_ELEMENTS, 1, 3, 40):  # one block, then many
        monkeypatch.setattr(attacks_mod, "SCORE_BLOCK_ELEMENTS", block)
        for ptb in ptbs:
            for seed in (0, 1, 2):
                want = reference_dice(g, ptb, RngState(seed))
                got = dice_attack(g, ptb, RngState(seed))
                assert got == want, (name, block, ptb, seed)
                got.validate_against(g)


def dice_scale_graph(n, t, e, seed):
    gen = np.random.default_rng(seed)
    pairs = gen.integers(0, n, size=(e, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    train = np.zeros(n, dtype=bool)
    train[gen.permutation(n)[:t]] = True
    return Graph(np.zeros((n, 1), np.float32), csr_from_edge_pairs(n, pairs),
                 gen.integers(0, 7, n), SplitMasks(train, ~train, np.zeros(n, bool)), 7)


DICE_PEAK_BOUND = 64 * 2**20


def test_dice_memory_is_bounded_by_edges_and_one_block():
    """n = 30,000, T = 3,000 training nodes and about 180,000 edges: the
    T x T grid DICE used to build peaked at 423 MiB of traced allocations;
    the blocked pool stays under 64 MiB (27 MiB here)."""
    g = dice_scale_graph(30_000, 3_000, 180_000, seed=74)
    tracemalloc.start()
    try:
        plan = dice_attack(g, 0.1, RngState(75))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(plan.flips) == plan.budget and peak < DICE_PEAK_BOUND, peak


SET_ROUTINE = re.compile(r"np\.(unique|isin|in1d|setxor1d|union1d|setdiff1d|intersect1d)\(")

# every call of a numpy set routine in src/sfrgnn, by file and line of code,
# with why it may stay; any other call fails the guard
ALLOWED_SET_CALLS = {
    ("attacks.py", "keys = np.setxor1d(keys, toggled, assume_unique=True)  # drop if stored, else add"):
        "assume_unique: one sort and a mask of adjacent keys",
    ("attacks.py", "keys = np.setxor1d(g.adjacency.edge_keys(), flipped, assume_unique=True)"):
        "assume_unique: one sort and a mask of adjacent keys",
    ("attacks.py", "edge_keys = np.setxor1d(edge_keys, [key], assume_unique=True)"):
        "assume_unique: one sort and a mask of adjacent keys",
    ("attacks.py", "added = np.setdiff1d(pert_keys, clean_keys, assume_unique=True).shape[0]"):
        "assume_unique on unique sorted keys: a sort, no hashing",
    ("attacks.py", "removed = np.setdiff1d(clean_keys, pert_keys, assume_unique=True).shape[0]"):
        "assume_unique on unique sorted keys: a sort, no hashing",
    ("bench.py", "for deg in np.unique(degrees):"):
        "node degrees, a few distinct small values, once per shuffle",
    ("trainer.py", "classes = np.unique(train_labels)"): "at most C class labels",
    ("trainer.py", "anchors = aug.replaced_mask[r1] & np.isin(r1, train_ids)"):
        "node ids below N, where numpy picks its table method",
    ("nn.py", "at = np.flatnonzero(np.isin(out_rows, rows))"):
        "node ids below N, where numpy picks its table method",
}


def test_no_numpy_set_routines_on_key_paths():
    src = Path(sfrgnn.__file__).resolve().parent
    found = {
        (path.name, line.strip())
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if SET_ROUTINE.search(line)
    }
    new_sites = found - set(ALLOWED_SET_CALLS)
    assert not new_sites, f"set routines on new lines, use a sort or a search: {new_sites}"
    gone = set(ALLOWED_SET_CALLS) - found
    assert not gone, f"allowed sites that no longer exist: {gone}"
    assert all(reason for reason in ALLOWED_SET_CALLS.values())
