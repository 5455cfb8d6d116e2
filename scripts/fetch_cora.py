#!/usr/bin/env python3
"""Download and convert the raw Cora citation network into datasets/cora.

Requires network access (or pre-downloaded cora.content/cora.cites placed
under --raw-dir). The converted directory is what the CLI, benchmarks, and
the cora-gated acceptance tests consume.

    python scripts/fetch_cora.py [--dest datasets/cora] [--raw-dir DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sfrgnn.datasets import prepare_cora
from sfrgnn.errors import SfrError
from sfrgnn.graph import graph_stats, load_graph


def main() -> int:
    parser = argparse.ArgumentParser()
    default_dest = Path(__file__).resolve().parents[1] / "datasets" / "cora"
    parser.add_argument("--dest", type=Path, default=default_dest)
    parser.add_argument("--raw-dir", type=Path, default=None,
                        help="directory holding cora.content / cora.cites "
                        "(skips the download)")
    args = parser.parse_args()

    try:
        dest = prepare_cora(args.dest, raw_dir=args.raw_dir)
        g = load_graph(dest)
    except SfrError as exc:  # as `sfr` reports it: a message and the error's exit code
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    stats = graph_stats(g)
    print(f"prepared {dest}")
    print(
        f"nodes={stats.num_nodes} edges={stats.num_edges} "
        f"features={g.features.shape[1]} classes={g.num_classes} "
        f"homophily={stats.homophily_ratio:.2f}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
