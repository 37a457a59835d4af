"""AGL benchmark: GraphTrainer and parameter-server training, and
GraphInfer against Original inference, on Spark local[nproc].

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer-uug --seed 1 --seconds 12 --trace 0

``--workload all`` runs the workloads one after another in one
process. Each workload is a closed loop with one job in flight. It
starts a SparkSession, sets up its inputs three times and warms up once
(``setup_s`` is session start + the median set-up + warm-up), then
alternates its two timed operations for ``--seconds`` and at least
three times each, checking every output outside the timed region.
``--trace 1`` reports per-layer metrics instead of end-to-end ones.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it (``{"meta": ...}``)
records the environment and the sample counts.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

WORKLOAD_NAMES = ("train-ppi", "infer-uug")
SETUP_REPS = 3
MIN_SAMPLES = 3
END_TO_END = {
    "items_per_s": "items/s",
    "alt_items_per_s": "items/s",
    "setup_s": "s",
}


def jvm_heap() -> str:
    """Half of MemTotal, at least 2 GiB (the test command's rule), capped
    at 3 GiB: the bench inputs need far less, and a larger heap only
    lets the JVM's resident memory grow before it collects."""
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                gib = int(line.split()[1]) // 2097152
                return f"{min(max(gib, 2), 3)}g"
    return "2g"


def pin_environment(root: Path, work: Path, cores: int, heap: str) -> None:
    """Make Spark, its Python workers and temporary files use this
    checkout only. Must run before pyspark launches the JVM."""
    src = str(root / "src")
    tmp, local = work / "tmp", work / "spark"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    # every JVM, the spark-submit launcher's too: no /tmp/hsperfdata, tmpdir here
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", f"local[{cores}]",
        "--driver-memory", heap,
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", shlex.quote(f"spark.local.dir={local}"),
        "--driver-java-options",
        shlex.quote("-XX:TieredStopAtLevel=1 -XX:ReservedCodeCacheSize=256m"),
        "pyspark-shell",
    ])
    sys.path.insert(0, src)


def new_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(os.cpu_count() or 1))
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def measure(wl, seconds: float) -> tuple[dict[str, list[float]], int, int]:
    """Alternate the workload's ops, one op in flight, until ``seconds``
    have passed and each op ran at least MIN_SAMPLES times. Every sample
    then follows an op of the other kind. Returns items/s per successful
    op and the attempted/failed op counts."""
    ops = wl.ops()
    rates: dict[str, list[float]] = {m: [] for m, _ in ops}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    for n in itertools.count(1):
        for metric, op in ops:
            attempted += 1
            try:
                dt = op()
            except Exception:  # an op that raises or fails its check counts as failed
                failed += 1
                traceback.print_exc(file=sys.stderr)
            else:
                rates[metric].append(wl.items / dt)
        if n >= MIN_SAMPLES and time.perf_counter() >= deadline:
            return rates, attempted, failed


def run_workload(name: str, args, work: Path, rss) -> tuple[dict, dict, object]:
    from tracing import SparkStages, Tracer
    from workloads import PER_LAYER, WORKLOADS, spark_metrics

    rss.peak_bytes = 0
    spark, session_s = _timed(new_session)
    wl, setup_times = None, []
    for _ in range(SETUP_REPS):
        if wl is not None:
            wl.teardown()
        wl = WORKLOADS[name](args.size, args.seed, str(work / name))
        setup_times.append(_timed(lambda: wl.setup(spark))[1])
    warm_up_s = _timed(wl.warm_up)[1]

    rates, attempted, failed = measure(wl, args.seconds)
    samples = {m: len(v) for m, v in rates.items()}
    if args.trace:
        wl.tracer, wl.stages = Tracer(), SparkStages(spark.sparkContext)
        wl.instrument()
        try:
            traced, a, f = measure(wl, args.seconds)
        finally:
            wl.tracer.restore()
        attempted, failed = attempted + a, failed + f
        layer = wl.probe(spark, rates)
        layer.update(spark_metrics(wl.stages.collect()))
        layer["peak_rss_mb"] = rss.peak_bytes / 1e6
        if rates["items_per_s"] and traced["items_per_s"]:
            untraced_rate = statistics.median(rates["items_per_s"])
            traced_rate = statistics.median(traced["items_per_s"])
            layer["trace.items_per_s_untraced"] = untraced_rate
            layer["trace.items_per_s"] = traced_rate
            layer["trace.slowdown"] = untraced_rate / traced_rate
        metrics = {n: {"value": float(layer.get(n, 0.0)), "unit": u} for n, u in PER_LAYER.items()}
    else:
        values = {m: statistics.median(v) for m, v in rates.items() if v}
        values["setup_s"] = session_s + statistics.median(setup_times) + warm_up_s
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items() if n in values}
    wl.teardown()
    correct = failed == 0 and all(rates.values()) and len(metrics) == len(
        PER_LAYER if args.trace else END_TO_END)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    info = {"workload": name, "item": wl.item, "items_per_op": wl.items, "samples": samples,
            "rates": rates, "session_s": session_s, "setup_s_reps": setup_times,
            "warm_up_s": warm_up_s}
    return result, info, spark


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def shutdown(spark) -> None:
    """Stop Spark and its JVM, and wait for every process they started."""
    from pyspark import SparkContext

    from tracing import alive, descendants

    kids = descendants(os.getpid())
    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None
    deadline = time.monotonic() + 30
    while kids and time.monotonic() < deadline:
        kids = [p for p in kids if alive(p)]
        time.sleep(0.1)
    for pid in kids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["bench", "test"], default="bench")
    args = p.parse_args(argv)

    # a terminated run still stops Spark and removes its scratch space
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2
    cores = os.cpu_count() or 1
    heap = jvm_heap()
    work = root / ".perfbench_work" / str(os.getpid())
    pin_environment(root, work, cores, heap)
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy
    import pyspark

    from tracing import RssSampler

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results, infos, spark = {}, [], None
    try:
        with RssSampler() as rss:
            for name in names:
                if spark is not None:
                    spark.stop()
                results[name], info, spark = run_workload(name, args, work, rss)
                infos.append(info)
    finally:
        shutdown(spark)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    meta = {"git_sha": git_sha(root), "nproc": cores, "jvm_heap": heap,
            "pyspark": pyspark.__version__, "numpy": numpy.__version__,
            "seed": args.seed, "seconds": args.seconds, "size": args.size,
            "trace": args.trace, "workloads": infos}
    print(json.dumps({"meta": meta}))
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
