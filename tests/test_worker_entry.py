"""``graphflat.worker_entry``: on a Spark worker, Spark's own zip
archives are no longer re-read before every task, while archives
shipped with ``addPyFile`` still refresh."""
from __future__ import annotations

import importlib
import os
import sys
import zipfile
import zipimport
from collections import Counter

import pyarrow as pa
from pyspark import SparkFiles, TaskContext

from repro.core.graphflat import reduce_by_key, sort_by_key, worker_entry


def _zip(path, module: str, body: str = "VALUE = 1\n") -> str:
    with zipfile.ZipFile(path, "w") as z:
        z.writestr(f"{module}.py", body)
    return str(path)


def test_worker_entry_freezes_archives_outside_the_files_root(tmp_path, monkeypatch):
    root = tmp_path / "userFiles"
    root.mkdir()
    install = _zip(tmp_path / "install.zip", "install_mod")
    shipped = _zip(root / "shipped.zip", "shipped_mod")
    reads = Counter()
    read_directory = zipimport._read_directory

    def counting(archive):
        reads[archive] += 1
        return read_directory(archive)

    # a private import state, restored by monkeypatch afterwards
    monkeypatch.setattr(zipimport, "_zip_directory_cache", {})
    monkeypatch.setattr(zipimport, "_read_directory", counting)
    monkeypatch.setattr(
        sys, "path_importer_cache", {p: zipimport.zipimporter(p) for p in (install, shipped)}
    )
    monkeypatch.setattr(SparkFiles, "_root_directory", str(root))
    monkeypatch.setattr(SparkFiles, "_is_running_on_worker", True)

    def rereads() -> Counter:
        reads.clear()
        importlib.invalidate_caches()
        return Counter({a: reads[a] for a in (install, shipped)})

    calls = []
    entry = worker_entry(lambda *a, **k: calls.append((a, k)) or "out")
    assert rereads() == {install: 1, shipped: 1}
    # off a worker (no task context) the wrapper only calls fn
    assert entry(1, x=2) == "out" and calls == [((1,), {"x": 2})]
    assert rereads() == {install: 1, shipped: 1}
    # on a worker it freezes the archive outside the root, before fn runs
    monkeypatch.setattr(TaskContext, "_taskContext", object.__new__(TaskContext))
    assert entry() == "out"
    assert rereads() == {install: 0, shipped: 1}
    assert rereads() == {install: 0, shipped: 1}


def _worker_rereads(module: str | None):
    """A reduce body that imports ``module`` (if any), then reports what
    ``importlib.invalidate_caches()`` re-reads on this worker."""

    def fn(groups):
        for _ in groups:
            pass
        value = -1 if module is None else importlib.import_module(module).VALUE
        root = os.path.join(SparkFiles.getRootDirectory(), "")
        reread = []
        read_directory = zipimport._read_directory
        zipimport._read_directory = lambda a: reread.append(a) or read_directory(a)
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read_directory
        archives = {
            f.archive
            for f in sys.path_importer_cache.values()
            if isinstance(f, zipimport.zipimporter)
        }
        yield pa.RecordBatch.from_arrays(
            [
                pa.array([sum(not a.startswith(root) for a in archives)]),
                pa.array([sum(not a.startswith(root) for a in reread)]),
                pa.array([sum(a.startswith(root) for a in reread)]),
                pa.array([value]),
            ],
            names=["outside", "outside_reread", "shipped_reread", "value"],
        )

    return fn


def test_worker_entry_on_spark_workers(spark, tmp_path):
    schema = "outside long, outside_reread long, shipped_reread long, value long"
    rows = spark.range(64).withColumnRenamed("id", "key")

    def probe(module=None):
        return reduce_by_key(sort_by_key(rows, []), _worker_rereads(module), schema).toPandas()

    got = probe()
    assert len(got) > 0
    assert (got["outside"] > 0).all()  # Spark's pyspark.zip / jar importers exist
    assert (got["outside_reread"] == 0).all()

    module = "repro_addpyfile_probe"
    spark.sparkContext.addPyFile(_zip(tmp_path / f"{module}.zip", module, "VALUE = 7\n"))
    for _ in range(2):  # the second job runs on workers whose wrapper saw the shipped zip
        got = probe(module)
        assert (got["value"] == 7).all()
        assert (got["outside_reread"] == 0).all()
        assert (got["shipped_reread"] >= 1).all()
