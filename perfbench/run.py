"""Benchmark entry point.

    python3 perfbench/run.py --workload cora-train --seed 0 --seconds 10 --trace 0

Generates the workload's graph from `--seed` and writes it with
`sfrgnn.graph.write_graph` under `.perfbench_work/`. Set-up time is sampled in
several fresh processes; the measured work runs in one more fresh process
(see workload.py). Prints a readable report, then, as the last line, one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`:
end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`.
Exits non-zero without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import shapes  # noqa: E402

TIME_LIMIT_S = 170.0

# Fresh processes whose set-up times are pooled, half of them before the
# measured process and half after it: the host's speed changes over tens of
# seconds, so samples taken back to back would share one state.
SETUP_SAMPLES = 7


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order, for one section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


class RunError(Exception):
    """The benchmark could not produce a result."""


def generate(workload: str, seed: int, out: Path) -> list[str]:
    """Write the workload's graph; returns the shape self-check's problems."""
    from sfrgnn.graph import Graph, SplitMasks, csr_from_edge_pairs, write_graph

    make = shapes.GENERATORS[shapes.WORKLOADS[workload].shape]
    s = make(seed)
    problems = shapes.shape_problems(s)
    other = make(seed + 1)  # a fresh seed must give another graph of the same shape
    problems += shapes.shape_problems(other)
    if np.array_equal(other.pairs, s.pairs) or np.array_equal(other.features, s.features):
        problems.append(f"seeds {seed} and {seed + 1} generate the same graph")
    n = s.features.shape[0]
    g = Graph(
        features=s.features,
        adjacency=csr_from_edge_pairs(n, s.pairs),
        labels=s.labels,
        splits=SplitMasks(train=s.train, val=s.val, test=s.test),
        num_classes=s.num_classes,
        name=s.name,
    )
    write_graph(g, out, binary_features=True)
    return problems


def child(mode: str, args, data: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--data", str(data),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env = dict(os.environ)
    env.pop("SFR_THREADS", None)  # trials run serially
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise RunError("time limit reached before a workload process could start")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} process exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def collect(args, data: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    extra = 0 if args.trace else SETUP_SAMPLES - 1  # set-up time is an end-to-end metric only
    samples = [child("setup", args, data, deadline) for _ in range(extra // 2)]
    main_run = child("run", args, data, deadline)
    samples += [child("setup", args, data, deadline) for _ in range(extra - extra // 2)]
    values: dict[str, float] = {}
    if args.trace:
        values.update(main_run.get("layers", {}))
    else:
        values.update(main_run.get("e2e", {}))
        runs = samples + [main_run]
        setups = [r["setup_s"] for r in runs if r["setup_s"] is not None]
        if setups:
            values["setup_s"] = statistics.median(setups)
        if "peak_rss_mb" in main_run:
            values["peak_rss_mb"] = main_run["peak_rss_mb"]
    return values, main_run, samples


def report(args, values: dict, main_run: dict, samples: list[dict], problems: list[str]) -> dict:
    units = metric_units("per_layer" if args.trace else "end_to_end")
    runs = samples + [main_run]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = problems + [p for r in runs for p in r["problems"]]
    missing = [name for name in units if name not in values]
    problems += [f"metric {name} was not measured" for name in missing]
    info = main_run.get("info", {})
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{info.get('rounds', 0)} round(s) of trials, {len(runs)} process(es)")
    print(f"# environment {json.dumps(main_run.get('environment', {}), sort_keys=True)}")
    for name, unit in units.items():
        value = values.get(name)
        print(f"# {name:34s} {'-' if value is None else f'{value:.6g}'} {unit}")
    if "attack_drop_pts" in info and info["attack_drop_pts"] is not None:
        print(f"# gcn victim accuracy drop (clean - poisoned): {info['attack_drop_pts']:.2f} pts")
    if "digest" in info:
        print(f"# digest of the attack plan and accuracies: {info['digest']}")
    if info.get("absent"):
        print(f"# absent from the program, reported as 0: {', '.join(info['absent'])}")
    ratio = failed / attempted if attempted else 1.0
    print(f"# fail_ratio {ratio:.4g} ({failed}/{attempted} operations)")
    for p in problems:
        print(f"# problem: {p}")
    return {
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="sfrgnn benchmark")
    ap.add_argument("--workload", choices=sorted(shapes.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "sfrgnn" / "__init__.py").is_file():
        print(f"benchmark: no sfrgnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    data = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        problems = generate(args.workload, args.seed, data)
        values, main_run, samples = collect(args, data, deadline)
    except RunError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's data is still there
    print(json.dumps(report(args, values, main_run, samples, problems)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
