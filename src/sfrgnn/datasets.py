"""Citation-network dataset preparation.

Converts the classic raw Cora distribution (cora.content + cora.cites) into
the dataset-directory layout this package loads, downloading the archive
first when a network is available. Node order follows cora.content; class
names map to label ids in sorted order; citation lines become undirected
edges, dropping duplicates, self-citations and citations of unknown papers;
a citation line that does not hold exactly two ids is a DatasetFormatError.
"""

from __future__ import annotations

import io
import tarfile
import urllib.request
from pathlib import Path

import numpy as np

from .errors import DatasetFormatError
from .graph import (
    Graph,
    SplitMasks,
    csr_from_edge_pairs,
    feature_matrix,
    read_records,
    write_graph,
)

CORA_URLS = (
    "https://linqs-data.soe.ucsc.edu/public/lbc/cora.tgz",
    "https://github.com/abojchevski/graph2gauss/raw/master/data/cora.tgz",
)


def download_cora(raw_dir: str | Path) -> Path:
    """Fetch and unpack the raw archive; returns the directory holding the
    cora.content / cora.cites pair."""
    raw_dir = Path(raw_dir)
    raw_dir.mkdir(parents=True, exist_ok=True)
    last_error: Exception | None = None
    for url in CORA_URLS:
        try:
            with urllib.request.urlopen(url, timeout=60) as resp:
                _unpack(resp.read(), raw_dir)
            found = find_raw_cora(raw_dir)
            if found is not None:
                return found
        except Exception as exc:  # try the next mirror
            last_error = exc
    raise DatasetFormatError(f"could not download the raw cora archive: {last_error}")


def _unpack(archive: bytes, raw_dir: Path) -> None:
    """Unpack a .tgz into `raw_dir`, refusing links and members that leave it."""
    root = raw_dir.resolve()
    with tarfile.open(fileobj=io.BytesIO(archive), mode="r:gz") as tar:
        for info in tar.getmembers():
            path = (root / info.name).resolve()
            if info.issym() or info.islnk() or not path.is_relative_to(root):
                raise DatasetFormatError(f"archive member {info.name!r}: a link or outside {root}")
        tar.extractall(raw_dir, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def find_raw_cora(raw_dir: str | Path) -> Path | None:
    raw_dir = Path(raw_dir)
    if not raw_dir.is_dir():
        return None
    for content in sorted(raw_dir.rglob("cora.content")):
        if (content.parent / "cora.cites").is_file():
            return content.parent
    return None


def prepare_cora(dest: str | Path, raw_dir: str | Path | None = None) -> Path:
    """Build a loadable cora dataset directory at `dest`.

    Looks for the raw files under `raw_dir` (or `dest/raw`), downloading them
    when absent. Writes the files of `graph.write_graph`, with the binary
    feature sidecar but no splits.json, so loaders generate seeded 10/10/80
    splits.
    """
    dest = Path(dest)
    raw_dir = Path(raw_dir) if raw_dir is not None else dest / "raw"
    raw = find_raw_cora(raw_dir)
    if raw is None:
        raw = download_cora(raw_dir)

    def paper(line: str) -> tuple[str, np.ndarray, str]:
        toks = line.split()
        if len(toks) < 3:
            raise ValueError("expected `paper_id<TAB>features...<TAB>class`")
        return toks[0], np.array([float(t) for t in toks[1:-1]]), toks[-1]

    papers = read_records(raw / "cora.content", paper)
    paper_index = {paper_id: i for i, (paper_id, _, _) in enumerate(papers)}
    features = feature_matrix([feats for _, feats, _ in papers], "cora.content")
    class_names = [cls for _, _, cls in papers]
    label_of = {name: i for i, name in enumerate(sorted(set(class_names)))}
    labels = np.array([label_of[c] for c in class_names], dtype=np.int64)

    def citation(line: str) -> list[int] | None:  # None drops the line
        toks = line.split()
        if len(toks) != 2:
            raise ValueError("expected `cited_paper_id<TAB>citing_paper_id`")
        ids = [paper_index.get(tok) for tok in toks]
        return ids if None not in ids and ids[0] != ids[1] else None

    pairs = [p for p in read_records(raw / "cora.cites", citation) if p is not None]
    n = features.shape[0]
    g = Graph(
        features=features,
        adjacency=csr_from_edge_pairs(n, np.array(pairs, dtype=np.int64)),
        labels=labels,
        splits=SplitMasks(
            train=np.zeros(n, dtype=bool), val=np.zeros(n, dtype=bool), test=np.ones(n, dtype=bool)
        ),
        num_classes=int(labels.max()) + 1,
        name="cora",
    )
    write_graph(g, dest, binary_features=True)
    # the split above is a placeholder: without splits.json, loaders draw the
    # split from their `split_seed`
    (dest / "splits.json").unlink()
    return dest
