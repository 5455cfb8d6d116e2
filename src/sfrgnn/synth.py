"""Synthetic graph generators used by tests, probes, and benchmarks."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .graph import Graph, csr_from_edge_pairs, make_split
from .rng import RngState


def blob_features(labels: np.ndarray, dim: int, separation: float, rng: RngState) -> np.ndarray:
    """Gaussian blob per class; class means are separated orthogonal directions."""
    num_classes = int(labels.max()) + 1
    if dim < num_classes:
        raise ValidationError("feature dim must be >= number of classes")
    means = np.zeros((num_classes, dim))
    means[np.arange(num_classes), np.arange(num_classes)] = separation
    gen = rng.substream("blob-noise").generator()
    return means[labels] + gen.standard_normal((labels.shape[0], dim))


def sbm_graph(
    block_sizes: list[int],
    p_in: float,
    p_out: float,
    seed: int,
    feature_dim: int = 8,
    separation: float = 2.0,
    train_ratio: float = 0.1,
    val_ratio: float = 0.1,
    name: str = "sbm",
) -> Graph:
    """Stochastic block model with blob features and labels equal to block ids."""
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise ValidationError("need 0 <= p_out <= p_in <= 1")
    n = int(sum(block_sizes))
    labels = np.repeat(np.arange(len(block_sizes), dtype=np.int64), block_sizes)
    rng = RngState(seed)
    gen = rng.substream("sbm-edges").generator()
    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_in, p_out)
    keep = gen.random(iu.shape[0]) < prob
    pairs = np.stack([iu[keep], ju[keep]], axis=1)
    return Graph(
        features=blob_features(labels, feature_dim, separation, rng),
        adjacency=csr_from_edge_pairs(n, pairs),
        labels=labels,
        splits=make_split(n, train_ratio, val_ratio, seed=seed),
        num_classes=len(block_sizes),
        name=name,
    )

