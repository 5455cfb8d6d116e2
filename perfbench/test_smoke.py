"""Smoke test of the benchmark harness on a tiny generated graph.

    python3 -m pytest -q perfbench/test_smoke.py

Checks the report's schema, its metric names and units against
BENCHMARK.json, the generators' seeding and shape self-check, and that the
benchmark refuses to run without the program's sources. Timing values are not
checked.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import shapes  # noqa: E402


def run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_report_schema_and_metric_names(trace, section):
    proc = run_bench(ROOT, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[section]
    }
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", sorted(shapes.GENERATORS))
def test_generators_are_seeded_and_in_shape(name):
    make = shapes.GENERATORS[name]
    a, again, other = make(0), make(0), make(1)
    assert shapes.shape_problems(a) == []
    assert shapes.shape_problems(other) == []
    assert np.array_equal(a.features, again.features)
    assert np.array_equal(a.pairs, again.pairs)
    assert not np.array_equal(a.pairs, other.pairs)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
