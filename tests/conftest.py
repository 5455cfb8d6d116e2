import os
from pathlib import Path

import numpy as np
import pytest

from sfrgnn.graph import Graph, SplitMasks, csr_from_edge_pairs


def build_graph(n, edges, labels, train=None, val=None, num_classes=None, features=None):
    """Small hand-specified graph for unit tests."""
    labels = np.asarray(labels, dtype=np.int64)
    if features is None:
        rng = np.random.default_rng(0)
        features = rng.standard_normal((n, 4))
    train_mask = np.zeros(n, dtype=bool)
    val_mask = np.zeros(n, dtype=bool)
    train_mask[list(train if train is not None else range(min(2, n)))] = True
    if val is not None:
        val_mask[list(val)] = True
    test_mask = ~(train_mask | val_mask)
    return Graph(
        features=np.asarray(features, dtype=np.float64),
        adjacency=csr_from_edge_pairs(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2)),
        labels=labels,
        splits=SplitMasks(train=train_mask, val=val_mask, test=test_mask),
        num_classes=int(num_classes if num_classes is not None else labels.max() + 1),
    )


def sparse_binary_features(n, d, seed):
    """n x d 0/1 features with at most two ones per row, about 2/d dense, with
    row 0 and the last column all zero."""
    gen = np.random.default_rng(seed)
    x = np.zeros((n, d))
    rows = np.repeat(np.arange(1, n), 2)
    x[rows, gen.integers(0, d - 1, size=rows.shape[0])] = 1.0
    return x


def dense_view(g, aug):
    """The contrastive view `aug` as one float64 N x d array: the graph's
    features with the view's row patch written in."""
    x = g.features.astype(np.float64)
    x[aug.rows] = aug.values
    return x


def path3_graph(labels=(0, 0, 1)):
    """The 3-node path 0-1-2."""
    return build_graph(3, [(0, 1), (1, 2)], labels, train=[0, 2])


def without_epoch_ms(trial: dict) -> dict:
    """A report trial (`asdict(TrialResult)` or its JSON) without the wall
    times of its history, the one field that reruns of a trial do not share."""
    history = {
        stage: {k: v for k, v in record.items() if k != "epoch_ms"}
        for stage, record in trial["history"].items()
    }
    return {**trial, "history": history}


def cora_location() -> Path | None:
    env = os.environ.get("SFR_CORA_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parents[1] / "datasets" / "cora")
    for c in candidates:
        if (c / "edges.tsv").is_file() and (c / "labels.tsv").is_file():
            return c
    return None


@pytest.fixture(scope="session")
def cora_dir() -> Path:
    found = cora_location()
    if found is None:
        pytest.skip(
            "cora dataset not present (this build environment has no network "
            "egress and ships no datasets); run `python scripts/fetch_cora.py` "
            "on a networked machine or point SFR_CORA_DIR at a prepared copy"
        )
    return found
