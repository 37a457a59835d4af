"""Table 4 — time per training epoch on ppi_lite, standalone:
{GCN, GraphSAGE, GAT} × {1,2,3} layers × {PyG_sim, DGL_sim, AGL_base,
+pruning, +partition, +both}."""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import job_main  # noqa: E402

from repro.experiments import TABLE4_PAPER, print_table, table4_run  # noqa: E402


def run(spark, scale: str = "bench", workdir: str = "/tmp/agl_table4") -> list[dict]:
    rows = table4_run(spark, workdir, scale=scale)
    print_table(rows, f"Table 4 (measured, scale={scale}): s/epoch on ppi_lite")
    paper = [
        {
            "model": m,
            "layers": k,
            "pyg": v[0],
            "dgl": v[1],
            "agl_base": v[2],
            "agl_pruning": v[3],
            "agl_partition": v[4],
            "agl_both": v[5],
        }
        for (m, k), v in TABLE4_PAPER.items()
    ]
    print_table(paper, "Table 4 (paper): s/epoch on PPI")
    print_table(pruning_speedups(rows), "Table 4: pruning speedup, measured vs paper")
    return rows


def pruning_speedups(rows: list[dict]) -> list[dict]:
    """Per (model, layers): what pruning alone buys (``agl_base /
    agl_pruning``) and on top of edge partitioning (``agl_partition /
    agl_both``), measured next to the paper's."""
    out = []
    for r in rows:
        p = TABLE4_PAPER[(r["model"], r["layers"])]
        out.append({
            "model": r["model"],
            "layers": r["layers"],
            "pruning_x": round(r["agl_base"] / r["agl_pruning"], 2),
            "pruning_x_paper": round(p[2] / p[3], 2),
            "pruning_on_partition_x": round(r["agl_partition"] / r["agl_both"], 2),
            "pruning_on_partition_x_paper": round(p[4] / p[5], 2),
        })
    return out


if __name__ == "__main__":
    job_main(run, needs_workdir=True)
