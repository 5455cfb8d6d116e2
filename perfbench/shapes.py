"""Seeded synthetic graphs for the benchmark, their self-check, and the workloads.

The benchmark owns these generators so that its inputs do not move when the
program's own `synth` module changes. Every draw comes from a NumPy generator
keyed by (seed, stream name); the same seed gives byte-identical files.

  cora_like(seed)   N=2708, C=7 with Cora's class sizes, d=1433 binary
                    bag-of-words features at ~1.2% density, E=5278,
                    edge homophily 0.81, heavy-tailed degrees.
  tiny(seed)        a 120-node graph for the harness smoke test.

Splits are a seeded 10/10/80 node partition (floor counts for train/val).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

# Cora's class sizes in sorted class-name order.
CORA_CLASS_SIZES = (298, 418, 818, 426, 217, 180, 351)
CORA_EDGES = 5278
CORA_DIM = 1433
CORA_WORD_DRAWS = 19.2  # per node; repeats collapse to ~18 nonzeros, as in Cora
CORA_HOMOPHILY = 0.81
CORA_TOPIC_WORDS = 120  # per-class vocabulary with raised word probability
CORA_TOPIC_SHARE = 0.24  # share of a node's words drawn from its class topic


def _gen(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(stream.encode())])


@dataclass
class Shape:
    """Raw arrays of one generated graph, before any program type exists."""

    name: str
    features: np.ndarray  # N x d float64
    pairs: np.ndarray  # E x 2 int64, u < v, unique
    labels: np.ndarray  # N int64
    train: np.ndarray  # bool masks
    val: np.ndarray
    test: np.ndarray
    num_classes: int


def _labels(sizes, gen) -> np.ndarray:
    labels = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    return labels[gen.permutation(labels.shape[0])]


def _split(n: int, gen) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    perm = gen.permutation(n)
    n_train = n_val = n // 10
    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    masks[0][perm[:n_train]] = True
    masks[1][perm[n_train : n_train + n_val]] = True
    masks[2][perm[n_train + n_val :]] = True
    return masks[0], masks[1], masks[2]


def _edges(labels: np.ndarray, num_edges: int, homophily: float, gen) -> np.ndarray:
    """Exactly `num_edges` distinct pairs, round(homophily * E) of them
    intra-class. Endpoints are drawn proportionally to a Pareto node weight,
    which gives the heavy-tailed degrees of citation graphs."""
    n = labels.shape[0]
    weight = gen.pareto(2.5, n) + 1.0
    order = np.argsort(labels, kind="stable")  # nodes grouped by class
    cum = np.cumsum(weight[order])
    starts = np.searchsorted(labels[order], np.arange(labels.max() + 2))
    lo_w = np.concatenate([[0.0], cum])[starts[:-1]]
    hi_w = cum[starts[1:] - 1]

    def endpoints(m):
        return order[np.searchsorted(cum, gen.random(m) * cum[-1], side="right")]

    def same_class(src):
        c = labels[src]
        target = lo_w[c] + gen.random(src.shape[0]) * (hi_w[c] - lo_w[c])
        return order[np.searchsorted(cum, target, side="right")]

    n_intra = int(round(homophily * num_edges))
    pools = []
    for want, intra in ((n_intra, True), (num_edges - n_intra, False)):
        keys = np.empty(0, dtype=np.int64)
        while keys.shape[0] < want:
            m = 2 * (want - keys.shape[0]) + 64
            src = endpoints(m)
            dst = same_class(src) if intra else endpoints(m)
            ok = (src != dst) & ((labels[src] == labels[dst]) == intra)
            lo = np.minimum(src, dst)[ok]
            hi = np.maximum(src, dst)[ok]
            keys = np.concatenate([keys, lo * n + hi])
            _, first = np.unique(keys, return_index=True)
            keys = keys[np.sort(first)]  # keep first occurrences, in draw order
        pools.append(keys[:want])
    keys = np.sort(np.concatenate(pools))
    return np.stack([keys // n, keys % n], axis=1)


def cora_like(seed: int) -> Shape:
    labels = _labels(CORA_CLASS_SIZES, _gen(seed, "cora-labels"))
    n, c, d = labels.shape[0], len(CORA_CLASS_SIZES), CORA_DIM
    gen = _gen(seed, "cora-features")
    background = 1.0 / np.arange(1, d + 1) ** 0.8  # Zipf-like word frequencies
    background = background[gen.permutation(d)]
    background /= background.sum()
    topics = np.stack([gen.choice(d, CORA_TOPIC_WORDS, replace=False) for _ in range(c)])
    counts = np.maximum(gen.poisson(CORA_WORD_DRAWS, n), 1)
    rows = np.repeat(np.arange(n), counts)
    from_topic = gen.random(rows.shape[0]) < CORA_TOPIC_SHARE
    words = gen.choice(d, size=rows.shape[0], p=background)
    topic_pick = gen.integers(0, CORA_TOPIC_WORDS, size=rows.shape[0])
    words[from_topic] = topics[labels[rows[from_topic]], topic_pick[from_topic]]
    features = np.zeros((n, d))
    features[rows, words] = 1.0  # repeated words collapse to one nonzero
    pairs = _edges(labels, CORA_EDGES, CORA_HOMOPHILY, _gen(seed, "cora-edges"))
    return Shape("cora-like", features, pairs, labels,
                 *_split(n, _gen(seed, "cora-split")), num_classes=c)


def tiny(seed: int) -> Shape:
    """A 120-node graph for the harness smoke test."""
    gen = _gen(seed, "tiny")
    labels = _labels((40, 40, 40), gen)
    features = np.eye(3)[labels] * 0.8 + gen.standard_normal((120, 3))
    features = np.concatenate([features, gen.standard_normal((120, 5))], axis=1)
    features = np.round(features * 64.0) / 64.0  # exact in the f32 sidecar
    pairs = _edges(labels, 360, 0.8, gen)
    return Shape("tiny", features, pairs, labels, *_split(120, gen), num_classes=3)


GENERATORS = {"cora-like": cora_like, "tiny": tiny}

# Stated ranges the shape self-check enforces: name -> (lo, hi), inclusive.
SHAPE_RANGES = {
    "cora-like": {
        "nodes": (2708, 2708), "dim": (1433, 1433), "classes": (7, 7),
        "density": (0.0115, 0.0140), "edges": (5200, 5400),
        "homophily": (0.78, 0.84), "binary": (1, 1),
    },
    "tiny": {
        "nodes": (120, 120), "dim": (8, 8), "classes": (3, 3),
        "density": (0.9, 1.0), "edges": (300, 400),
        "homophily": (0.7, 0.9), "binary": (0, 0),
    },
}


def measure_shape(s: Shape) -> dict[str, float]:
    same = s.labels[s.pairs[:, 0]] == s.labels[s.pairs[:, 1]]
    return {
        "nodes": s.features.shape[0],
        "dim": s.features.shape[1],
        "classes": int(np.unique(s.labels).shape[0]),
        "density": float(np.count_nonzero(s.features) / s.features.size),
        "edges": s.pairs.shape[0],
        "homophily": float(same.mean()),
        "binary": int(np.isin(s.features, (0.0, 1.0)).all()),
    }


def shape_problems(s: Shape) -> list[str]:
    """Every stated range the graph misses; empty when the shape is right."""
    out = []
    for key, value in measure_shape(s).items():
        lo, hi = SHAPE_RANGES[s.name][key]
        if not lo <= value <= hi:
            out.append(f"{s.name}: {key}={value} outside [{lo}, {hi}]")
    return out


@dataclass(frozen=True)
class Spec:
    """One named benchmark workload: which graph and which attack. Graphs are
    written with the `features.f32le` sidecar and trials use the default
    `TrainConfig`."""

    shape: str
    attack: str  # "dice" poisons during set-up; "grad" is measured work
    ptb: float


WORKLOADS = {
    "cora-train": Spec("cora-like", "dice", 0.10),
    "cora-attack": Spec("cora-like", "grad", 0.005),
    "smoke": Spec("tiny", "grad", 0.05),  # harness test only
}
