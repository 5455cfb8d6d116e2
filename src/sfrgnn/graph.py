"""Dataset representation: CSR adjacency, on-disk formats, splits, statistics.

A dataset directory holds:
  edges.tsv      one undirected edge per line, `u<TAB>v`, 0-based ids
  features.tsv   N lines of d tab-separated reals
  features.f32le optional binary sidecar: uint32-LE (N, d) header + row-major f32
  labels.tsv     N lines, one integer in [0, C)
  splits.json    optional {"train": [...], "val": [...], "test": [...]}
  meta.json      optional {"name": str, "num_classes": int}

Adjacencies are stored symmetric, binary, zero-diagonal; self-loops exist only
inside the normalized propagation matrix returned by `normalize_adjacency`.

Entry (i, j) of an N x N matrix has the int64 key i * N + j, so ascending
keys are row-major order. Every CSR the package builds from entries comes out
of `csr_from_keys`, which takes them as a key array sorted by row. Sets of keys
are sorted arrays, handled by sorts, masks and `np.searchsorted`
(`unique_keys`, `sorted_contains`), never by numpy's general set routines.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from .errors import DatasetFormatError, ValidationError
from .rng import RngState

T = TypeVar("T")


@dataclass
class CsrAdjacency:
    row_offsets: np.ndarray  # int64, length N+1
    col_indices: np.ndarray  # int64, length nnz
    values: np.ndarray  # float64, length nnz
    dim: int
    cols: int | None = None  # column count of a rectangular block; None: dim
    # scipy forms of this matrix and its transpose by (dtype, transpose), filled by `nn.spmm`
    scipy_by_dtype: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        return int(self.col_indices.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim if self.cols is None else self.cols)

    def row(self, i: int) -> np.ndarray:
        return self.col_indices[self.row_offsets[i] : self.row_offsets[i + 1]]

    def entries_of(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(entries per row, positions of the entries) of the given rows; the
        positions row after row, each row's in stored order."""
        starts = self.row_offsets[rows]
        counts = self.row_offsets[rows + 1] - starts
        idx = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        idx += np.arange(idx.shape[0])
        return counts, idx

    def reach(self, rows: np.ndarray) -> np.ndarray:
        """Ascending ids of `rows` and of every column stored in them."""
        hit = np.zeros(self.dim, dtype=bool)
        hit[rows] = True
        hit[self.col_indices[self.entries_of(rows)[1]]] = True
        return np.flatnonzero(hit)

    def block(self, rows: np.ndarray, cols: np.ndarray) -> "CsrAdjacency":
        """The submatrix at the ascending ids `rows` and `cols`: the stored
        entries of `rows` whose column is in `cols`, renumbered, with their
        values, each row's in stored order."""
        counts, idx = self.entries_of(rows)
        pos = np.full(self.shape[1], -1, dtype=np.int64)
        pos[cols] = np.arange(cols.shape[0])
        local = pos[self.col_indices[idx]]
        keep = local >= 0
        keys = np.repeat(np.arange(rows.shape[0]), counts)[keep] * cols.shape[0] + local[keep]
        return csr_from_keys(
            rows.shape[0], keys, values=self.values[idx[keep]], cols=cols.shape[0]
        )

    def has_entry(self, i: int, j: int) -> bool:
        row = self.row(i)
        k = np.searchsorted(row, j)
        return k < row.shape[0] and row[k] == j

    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    def entry_rows(self) -> np.ndarray:
        """The row of every stored entry, in stored order."""
        return np.repeat(np.arange(self.dim), self.degrees())

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.dim, self.dim))
        dense[self.entry_rows(), self.col_indices] = self.values
        return dense

    def edge_keys(self) -> np.ndarray:
        """The undirected edges as ascending int64 keys u * n + v with u < v."""
        rows = self.entry_rows()
        return (rows * self.dim + self.col_indices)[rows < self.col_indices]

    def edge_pairs(self) -> np.ndarray:
        """Undirected edges as an (E, 2) array with u < v in each row, in key order."""
        keys = self.edge_keys()
        return np.stack([keys // self.dim, keys % self.dim], axis=1)

    def validate(self) -> None:
        ro, ci = self.row_offsets, self.col_indices
        if ro.shape[0] != self.dim + 1 or ro[0] != 0 or ro[-1] != ci.shape[0]:
            raise ValidationError("CSR row_offsets inconsistent with dim/nnz")
        if np.any(np.diff(ro) < 0):
            raise ValidationError("CSR row_offsets must be non-decreasing")
        rows = self.entry_rows()
        keys = rows * self.dim + ci
        if ci.shape[0]:
            if ci.min() < 0 or ci.max() >= self.dim:
                raise ValidationError("CSR column index out of range")
            # with columns in range, keys ascend iff each row's columns do
            if np.any(keys[1:] <= keys[:-1]):
                raise ValidationError("CSR columns must be sorted and unique per row")
        if np.any(rows == ci):
            raise ValidationError("adjacency must have a zero diagonal")
        if ci.shape[0] and not np.all(self.values == 1.0):
            raise ValidationError("adjacency values must all be 1")
        if not np.array_equal(keys, np.sort(ci * self.dim + rows)):
            raise ValidationError("adjacency is not structurally symmetric")


@dataclass
class SplitMasks:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def validate(self, n: int) -> None:
        for name, m in (("train", self.train), ("val", self.val), ("test", self.test)):
            if m.dtype != bool or m.shape != (n,):
                raise ValidationError(f"{name} mask must be a boolean vector of length {n}")
        total = self.train.astype(int) + self.val.astype(int) + self.test.astype(int)
        if np.any(total != 1):
            raise ValidationError("split masks must partition the node set")


@dataclass
class GraphStats:
    num_nodes: int
    num_edges: int
    avg_degree: float
    homophily_ratio: float


@dataclass
class Graph:
    features: np.ndarray  # N x d
    adjacency: CsrAdjacency
    labels: np.ndarray  # int64, length N
    splits: SplitMasks
    num_classes: int
    name: str = ""
    # feature operands by dtype, each with the array it came from; filled by
    # `nn.feature_operand`, shared by graphs that share the feature array
    feature_operands: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_nodes(self) -> int:
        return int(self.features.shape[0])

    def validate(self) -> None:
        n = self.num_nodes
        if self.adjacency.dim != n:
            raise ValidationError("adjacency dimension != number of feature rows")
        if self.labels.shape != (n,):
            raise ValidationError("labels length != number of nodes")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ValidationError("labels must lie in [0, num_classes)")
        self.adjacency.validate()
        self.splits.validate(n)

    def with_adjacency(self, adj: CsrAdjacency) -> "Graph":
        """Same attributes/labels/splits over a different edge set."""
        return Graph(
            features=self.features,
            adjacency=adj,
            labels=self.labels,
            splits=self.splits,
            num_classes=self.num_classes,
            name=self.name,
            feature_operands=self.feature_operands,
        )


def csr_from_keys(
    n: int, keys: np.ndarray, values: np.ndarray | None = None, cols: int | None = None
) -> CsrAdjacency:
    """The n x n CSR, or n x `cols`, with an entry at each int64 key
    i * width + j (width = `cols`, default n). Keys ascend by row i; each
    row stores its entries in the order given, which ascending keys make
    column order. Entries take `values` (in key order), else 1."""
    width = n if cols is None else cols
    if values is None:
        values = np.ones(keys.shape[0])
    rows = keys // width
    row_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_offsets[1:])
    return CsrAdjacency(row_offsets, keys - rows * width, values, n, cols)


def unique_keys(keys: np.ndarray) -> np.ndarray:
    """`np.unique` of an int64 key array: the keys sorted, each once. A sort
    and a mask of adjacent repeats, several times faster on numpy 2.x."""
    keys = np.sort(keys)
    keep = np.empty(keys.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def sorted_contains(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of `keys` is in the ascending array `sorted_keys`, by
    binary search."""
    if sorted_keys.shape[0] == 0:
        return np.zeros(keys.shape, dtype=bool)
    at = np.minimum(np.searchsorted(sorted_keys, keys), sorted_keys.shape[0] - 1)
    return sorted_keys[at] == keys


def csr_from_edge_pairs(n: int, pairs: np.ndarray) -> CsrAdjacency:
    """Build a symmetric binary CSR from undirected (u, v) pairs.

    Rejects self-loops; duplicate and reversed duplicates collapse to a single
    undirected edge.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] and (pairs.min() < 0 or pairs.max() >= n):
        raise ValidationError(f"edge endpoint out of range [0, {n})")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValidationError("self-loop edges are not allowed")
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = unique_keys(lo * n + hi)
    lo = keys // n
    hi = keys - lo * n
    return csr_from_keys(n, np.sort(np.concatenate([keys, hi * n + lo])))


def propagation_values(dt_rows: np.ndarray, dt_cols: np.ndarray) -> np.ndarray:
    """Entries 1/sqrt(dt_i * dt_j) of the propagation matrix, from the
    self-loop degrees dt = degree + 1 of each entry's row and column."""
    return 1.0 / np.sqrt(dt_rows * dt_cols)


def normalize_adjacency(adj: CsrAdjacency) -> CsrAdjacency:
    """Symmetric propagation matrix: self-loops added, entry (i,j) = 1/sqrt(dt_i*dt_j)
    with dt_i = degree_i + 1. Isolated nodes keep a unit diagonal entry. Raises
    ValidationError unless `adj` is a valid symmetric, binary, zero-diagonal
    adjacency."""
    adj.validate()
    n = adj.dim
    keys = np.sort(np.concatenate([adj.entry_rows() * n + adj.col_indices, np.arange(n) * (n + 1)]))
    dt = adj.degrees().astype(np.float64) + 1.0
    return csr_from_keys(n, keys, values=propagation_values(dt[keys // n], dt[keys % n]))


def make_split(n: int, train_ratio: float, val_ratio: float, seed: int) -> SplitMasks:
    """Random node partition; train/val counts use floor, test takes the rest."""
    if n < 3:
        raise ValidationError("need at least 3 nodes to split")
    if not (0.0 < train_ratio < 1.0 and 0.0 < val_ratio < 1.0):
        raise ValidationError("split ratios must lie in (0, 1)")
    if train_ratio + val_ratio >= 1.0:
        raise ValidationError("train_ratio + val_ratio must be < 1")
    n_train = int(np.floor(train_ratio * n))
    n_val = int(np.floor(val_ratio * n))
    perm = RngState(seed).substream("split").generator().permutation(n)
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True
    return SplitMasks(train=train, val=val, test=test)


def graph_stats(g: Graph) -> GraphStats:
    n = g.num_nodes
    num_edges = g.adjacency.nnz // 2
    pairs = g.adjacency.edge_pairs()
    if num_edges == 0:
        homophily = 0.0  # degenerate convention for edgeless graphs
    else:
        same = g.labels[pairs[:, 0]] == g.labels[pairs[:, 1]]
        homophily = float(np.mean(same))
    return GraphStats(
        num_nodes=n,
        num_edges=num_edges,
        avg_degree=2.0 * num_edges / n if n else 0.0,
        homophily_ratio=homophily,
    )


def read_records(
    path: str | Path, parse: Callable[[str], T], line_name: str = "line"
) -> list[T]:
    """`parse(line)` of each non-blank line of the UTF-8 text file `path`.

    A missing file, a line that is not UTF-8, or one that `parse` rejects with
    ValueError raise DatasetFormatError, whose message names the file and the
    0-based line, blank lines counted: `<path>: <line_name> <index>: ...`.
    """
    path = Path(path)
    if not path.is_file():
        raise DatasetFormatError(f"missing required file: {path}")
    records = []
    for idx, raw in enumerate(path.read_bytes().splitlines()):
        try:
            line = raw.decode("utf-8")  # UnicodeDecodeError is a ValueError
            if line.strip():
                records.append(parse(line))
        except ValueError as exc:
            raise DatasetFormatError(f"{path}: {line_name} {idx}: {exc}") from exc
    return records


def feature_matrix(rows: list, name: str) -> np.ndarray:
    """The float64 N x d matrix of the feature rows (float lists or arrays)
    read from file `name`."""
    if not rows or len({len(r) for r in rows}) != 1:
        raise DatasetFormatError(f"{name} is empty or has rows of different widths")
    return np.asarray(rows, dtype=np.float64)


def _edge(line: str) -> tuple[int, int]:
    u, v = line.split()  # a ValueError unless the line holds two tokens
    return int(u), int(v)


def _load_features(dataset_dir: Path) -> np.ndarray:
    """N x d features: float32 from the binary sidecar (its own precision, half
    the memory of float64), float64 from features.tsv."""
    binary = dataset_dir / "features.f32le"
    if binary.is_file():
        with binary.open("rb") as fh:
            header = fh.read(8)
            if len(header) < 8:
                raise DatasetFormatError("features.f32le shorter than its header")
            n, d = struct.unpack("<II", header)
            body = np.fromfile(fh, dtype="<f4")
        if body.shape[0] != n * d:
            raise DatasetFormatError("features.f32le payload does not match header")
        return body.reshape(n, d).astype(np.float32, copy=False)
    rows = read_records(
        dataset_dir / "features.tsv", lambda line: [float(tok) for tok in line.split("\t")]
    )
    return feature_matrix(rows, "features.tsv")


def _read_json(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DatasetFormatError(f"{path.name} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"{path.name} must hold a JSON object")
    return obj


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DatasetFormatError(f"{what} must be an integer, got {value!r}")
    return value


def load_graph(dataset_dir: str | Path, split_seed: int = 0) -> Graph:
    """Load a dataset directory into a validated Graph.

    The text files are read by `read_records`. Duplicate / reversed edge
    lines are deduplicated; self-loop lines and non-finite features are
    rejected. If splits.json is absent, a 10/10/80 split is generated
    deterministically from `split_seed`.
    """
    dataset_dir = Path(dataset_dir)
    if not dataset_dir.is_dir():
        raise DatasetFormatError(f"not a dataset directory: {dataset_dir}")
    features = _load_features(dataset_dir)
    n = features.shape[0]
    # Training reads only the rows near the training nodes, so a NaN elsewhere
    # would surface only at prediction; the scan costs about 2.5 ms at 2708 x 1433.
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.shape[0]:
        raise DatasetFormatError(f"features row {bad[0]} holds a non-finite value")

    labels = np.asarray(read_records(dataset_dir / "labels.tsv", int), dtype=np.int64)
    if labels.shape[0] != n:
        raise DatasetFormatError(
            f"labels.tsv has {labels.shape[0]} rows but features describe {n} nodes"
        )

    pairs = read_records(dataset_dir / "edges.tsv", _edge)
    adjacency = csr_from_edge_pairs(n, np.asarray(pairs, dtype=np.int64).reshape(-1, 2))

    name = dataset_dir.name
    num_classes = int(labels.max()) + 1 if n else 0
    meta_path = dataset_dir / "meta.json"
    if meta_path.is_file():
        meta = _read_json(meta_path)
        name = meta.get("name", name)
        if "num_classes" in meta:
            num_classes = _json_int(meta["num_classes"], "meta.json num_classes")

    splits_path = dataset_dir / "splits.json"
    if splits_path.is_file():
        spec = _read_json(splits_path)
        masks = {}
        for key in ("train", "val", "test"):
            if key not in spec:
                raise DatasetFormatError(f"splits.json missing key {key!r}")
            m = np.zeros(n, dtype=bool)
            if not isinstance(spec[key], list):
                raise DatasetFormatError(f"splits.json {key!r} must be a list of node ids")
            ids = np.asarray(
                [_json_int(i, f"splits.json {key} id") for i in spec[key]], dtype=np.int64
            )
            if ids.shape[0] and (ids.min() < 0 or ids.max() >= n):
                raise ValidationError("splits.json node id out of range")
            m[ids] = True
            masks[key] = m
        splits = SplitMasks(**masks)
    else:
        splits = make_split(n, 0.1, 0.1, seed=split_seed)

    g = Graph(
        features=features,
        adjacency=adjacency,
        labels=labels,
        splits=splits,
        num_classes=num_classes,
        name=name,
    )
    g.validate()
    return g


def _format_real(x: float) -> str:
    return repr(float(x))


def write_graph(g: Graph, dataset_dir: str | Path, binary_features: bool = False) -> None:
    """Write the canonical dataset files (round-trips byte-identically)."""
    dataset_dir = Path(dataset_dir)
    dataset_dir.mkdir(parents=True, exist_ok=True)
    pairs = g.adjacency.edge_pairs()
    with (dataset_dir / "edges.tsv").open("w") as fh:
        for u, v in pairs:
            fh.write(f"{u}\t{v}\n")
    with (dataset_dir / "labels.tsv").open("w") as fh:
        for y in g.labels:
            fh.write(f"{int(y)}\n")
    with (dataset_dir / "features.tsv").open("w") as fh:
        for row in g.features:
            fh.write("\t".join(_format_real(x) for x in row) + "\n")
    if binary_features:
        n, d = g.features.shape
        with (dataset_dir / "features.f32le").open("wb") as fh:
            fh.write(struct.pack("<II", n, d))
            fh.write(np.ascontiguousarray(g.features, dtype="<f4").tobytes())
    splits = {
        "train": np.flatnonzero(g.splits.train).tolist(),
        "val": np.flatnonzero(g.splits.val).tolist(),
        "test": np.flatnonzero(g.splits.test).tolist(),
    }
    (dataset_dir / "splits.json").write_text(
        json.dumps(splits, separators=(",", ":")) + "\n"
    )
    (dataset_dir / "meta.json").write_text(
        json.dumps({"name": g.name, "num_classes": g.num_classes}, separators=(",", ":"))
        + "\n"
    )
