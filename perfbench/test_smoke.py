"""Smoke test of the benchmark at test size: every workload runs, its
output checks pass, and every metric BENCHMARK.json names appears with
its unit and a non-negative value. Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "test", "--seconds", "1", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(trace):
    out = _run(ROOT, "--workload", "all", "--trace", str(trace))
    assert out.returncode == 0, out.stderr[-4000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] >= 2 * len(SPEC["workloads"])
    for wl in SPEC["workloads"]:
        for m in SPEC["per_layer" if trace else "end_to_end"]:
            got = res["metrics"][f"{wl['name']}.{m['name']}"]
            assert got["unit"] == m["unit"], m["name"]
            assert got["value"] >= 0, m["name"]
            if not trace:
                assert got["value"] > 0, m["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(tmp_path, "--workload", "train-ppi")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
