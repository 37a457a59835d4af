"""Measurement plumbing for the benchmark: spans around calls into the
program, Spark per-stage metrics per public call, and the resident
memory of the benchmark's process tree.

Everything here observes the program from the outside. Spans are
recorded by wrapping module attributes and object methods at the
places callers look them up; :meth:`Tracer.restore` undoes every patch.
"""
from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    """In-memory spans (name, start, end, parent, thread) and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = [name, time.perf_counter(), None, stack[-1] if stack else None,
               threading.get_ident()]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
        stack.append(sid)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name``; ``after(result, *args, **kwargs)`` may record counters."""
        raw = vars(owner).get(attr, _MISSING)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def _closed(self, name: str) -> list[list]:
        return [s for s in self.spans if s[0] == name and s[2] is not None]

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self._closed(name)]

    def total(self, name: str, thread: int | None = None) -> float:
        return sum(s[2] - s[1] for s in self._closed(name)
                   if thread is None or s[4] == thread)

    def count(self, name: str) -> int:
        return len(self._closed(name))

    def self_time(self, name: str) -> float:
        """Time in spans ``name`` not covered by their child spans."""
        ids = {i for i, s in enumerate(self.spans) if s[0] == name and s[2] is not None}
        child = sum(s[2] - s[1] for s in self.spans if s[3] in ids and s[2] is not None)
        return self.total(name) - child


class SparkStages:
    """Per-call Spark stage metrics from Spark's status store.

    Each public call runs under its own job group; :meth:`collect` maps
    the group's jobs to their stages and sums the stage metrics the
    status store keeps (it does so with the UI disabled), per invocation
    of the call.
    """

    FIELDS = ("run_s", "cpu_s", "gc_s", "shuffle_read_bytes",
              "shuffle_write_bytes", "peak_exec_mem_bytes", "tasks", "tasks_failed")

    def __init__(self, sc) -> None:
        self.sc = sc
        self.calls: dict[str, int] = defaultdict(int)

    @contextmanager
    def group(self, call: str):
        self.calls[call] += 1
        self.sc.setJobGroup(f"perfbench.{call}", call)
        try:
            yield
        finally:
            self.sc.setLocalProperty("spark.jobGroup.id", None)

    def collect(self) -> dict[str, dict[str, float]]:
        sc = self.sc
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = sc.statusTracker()
        stage_call = {}
        for call in self.calls:
            for job in tracker.getJobIdsForGroup(f"perfbench.{call}"):
                info = tracker.getJobInfo(job)
                for sid in info.stageIds if info else ():
                    stage_call[sid] = call
        jvm = sc._jvm
        seq = sc._jsc.sc().statusStore().stageList(
            jvm.java.util.ArrayList(), False, False,
            sc._gateway.new_array(jvm.double, 0), jvm.java.util.ArrayList(),
        )
        out = {c: dict.fromkeys(self.FIELDS, 0.0) for c in self.calls}
        for i in range(seq.size()):
            st = seq.apply(i)
            call = stage_call.get(st.stageId())
            if call is None:
                continue
            m = out[call]
            m["run_s"] += st.executorRunTime() / 1e3
            m["cpu_s"] += st.executorCpuTime() / 1e9
            m["gc_s"] += st.jvmGcTime() / 1e3
            m["shuffle_read_bytes"] += st.shuffleReadBytes()
            m["shuffle_write_bytes"] += st.shuffleWriteBytes()
            m["peak_exec_mem_bytes"] = max(m["peak_exec_mem_bytes"], st.peakExecutionMemory())
            m["tasks"] += st.numCompleteTasks()
            m["tasks_failed"] += st.numFailedTasks()
        for call, m in out.items():
            for f in self.FIELDS:
                if f != "peak_exec_mem_bytes":
                    m[f] /= self.calls[call]
        return out


def _proc_table() -> tuple[dict[int, list[int]], dict[int, int]]:
    """(children by parent pid, resident bytes by pid) from /proc."""
    children: dict[int, list[int]] = defaultdict(list)
    rss: dict[int, int] = {}
    page = os.sysconf("SC_PAGE_SIZE")
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # fields after the parenthesised command name: state, ppid, ..., rss
        fields = stat[stat.rfind(")") + 2:].split()
        pid = int(entry)
        children[int(fields[1])].append(pid)
        rss[pid] = int(fields[21]) * page
    return children, rss


def descendants(root: int) -> list[int]:
    children, _ = _proc_table()
    out, todo = [], list(children.get(root, ()))
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def _tree_rss_bytes(root: int) -> int:
    """Resident bytes of ``root`` and all its descendants."""
    children, rss = _proc_table()
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        total += rss.get(pid, 0)
        todo.extend(children.get(pid, ()))
    return total


class RssSampler:
    """Background thread sampling the process tree's RSS; keeps the peak."""

    def __init__(self, interval_s: float = 1.0) -> None:
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)

    def _run(self) -> None:
        me = os.getpid()
        while not self._stop.is_set():
            self.peak_bytes = max(self.peak_bytes, _tree_rss_bytes(me))
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
