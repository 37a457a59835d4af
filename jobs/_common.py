"""Shared spark-submit plumbing for the table jobs.

Each job exposes ``run(spark, scale, workdir)`` (importable from tests)
and a ``main()`` that builds a local SparkSession when invoked via
``spark-submit jobs/<name>.py [--scale bench]``.
"""
from __future__ import annotations

import argparse
import os
import tempfile

from pyspark.sql import SparkSession


def driver_memory() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. The test suite and the table jobs both size
    their driver with it. spark.driver.memory is read at JVM launch, so
    it must be set before the first SparkSession starts: conftest puts
    it in PYSPARK_SUBMIT_ARGS at import, :func:`job_session` in the
    session's config.

    The cgroup read is best-effort: a container runtime's sysfs
    emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def job_session() -> SparkSession:
    return (
        SparkSession.builder.appName("agl-repro-job")
        .config("spark.driver.memory", driver_memory())
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .master("local[*]")
        .getOrCreate()
    )


def job_main(run_fn, needs_workdir: bool = False) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--scale", default="bench", choices=["test", "bench"])
    p.add_argument("--workdir", default=None)
    args = p.parse_args()
    spark = job_session()
    try:
        kw = {"scale": args.scale}
        if needs_workdir:
            kw["workdir"] = args.workdir or tempfile.mkdtemp(prefix="agl_job_")
        run_fn(spark, **kw)
    finally:
        spark.stop()
