"""Smoke-run every table job at test scale: each harness must execute
end-to-end and produce rows with the expected structure (the bench-scale
numbers land in EXPERIMENTS.md via the jobs), and the driver-heap rule
the jobs and the test suite share."""
from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

from jobs import _common

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "jobs"))

import table1_scales  # noqa: E402
import table2_datasets  # noqa: E402
import table3_effectiveness  # noqa: E402
import table4_training_efficiency  # noqa: E402
import table5_inference_efficiency  # noqa: E402


def test_table1(capsys):
    rows = table1_scales.run()
    assert len(rows) == 5
    assert any("AGL" in r["system"] for r in rows)
    assert "Table 1" in capsys.readouterr().out


def test_table2(capsys):
    rows = table2_datasets.run(scale="test")
    assert {r["dataset"] for r in rows} == {"cora_lite", "ppi_lite", "uug_lite"}
    for r in rows:
        assert r["nodes"] > 0 and r["edges"] > 0
        assert r["train"] > 0 and r["val"] > 0 and r["test"] > 0
    out = capsys.readouterr().out
    assert "paper" in out  # both measured and paper tables printed


@pytest.mark.slow
def test_table3(spark, capsys):
    rows = table3_effectiveness.run(spark, scale="test")
    assert len(rows) == 9  # 3 datasets x 3 models
    by = {(r["dataset"], r["model"]): r for r in rows}
    # every AGL model learns something at test scale
    for r in rows:
        assert 0.0 <= r["agl"] <= 1.0
    # paper shape on uug: GAT clearly beats GCN (attention recovers the
    # marked-neighbor signal)
    assert by[("uug_lite", "gat")]["agl"] > by[("uug_lite", "gcn")]["agl"]
    # PyG/DGL columns exist only off-uug, as in the paper
    assert "pyg_sim" in by[("cora_lite", "gcn")]
    assert "pyg_sim" not in by[("uug_lite", "gcn")]


@pytest.mark.slow
def test_table4(spark, tmp_path, capsys):
    rows = table4_training_efficiency.run(spark, scale="test", workdir=str(tmp_path))
    assert len(rows) == 9  # 3 models x 3 depths
    for r in rows:
        for col in ("pyg_sim", "dgl_sim", "agl_base", "agl_pruning", "agl_partition", "agl_both"):
            assert r[col] > 0
    speedups = table4_training_efficiency.pruning_speedups(rows)
    assert [(s["model"], s["layers"]) for s in speedups] == [(r["model"], r["layers"]) for r in rows]
    for s in speedups:
        for col in ("pruning_x", "pruning_x_paper", "pruning_on_partition_x", "pruning_on_partition_x_paper"):
            assert s[col] > 0
    assert "pruning speedup, measured vs paper" in capsys.readouterr().out


@pytest.mark.slow
def test_table5(spark, tmp_path, capsys):
    res = table5_inference_efficiency.run(spark, scale="test", workdir=str(tmp_path))
    assert res["n_scored_graphinfer"] == res["n_nodes"]
    assert res["n_scored_original"] == res["n_nodes"]
    assert res["original_total_s"] > 0 and res["graphinfer_total_s"] > 0
    # the cost-proxy shape that drives the paper's Table-5 gap
    assert res["original_node_computations"] > res["graphinfer_node_computations"]


@pytest.mark.parametrize(
    "mem_total_kib, heap", [(16_000_000, "7g"), (64 << 20, "8g"), (1_000_000, "2g"), (None, "2g")]
)
def test_driver_memory_falls_back_to_half_of_memtotal(monkeypatch, mem_total_kib, heap):
    """With no SPARK_DRIVER_MEM and no readable cgroup limit, the heap
    is half of MemTotal in GiB, clamped to 2g–8g; 2g if MemTotal is
    unreadable."""

    def fake_open(path, *args, **kwargs):
        if path == "/proc/meminfo" and mem_total_kib is not None:
            return io.StringIO(f"MemFree: 1 kB\nMemTotal:       {mem_total_kib} kB\n")
        raise OSError(path)

    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.setenv("_SPARK_DRIVER_MEM_SRC", "")
    monkeypatch.setattr(_common, "open", fake_open, raising=False)
    assert _common.driver_memory() == heap
