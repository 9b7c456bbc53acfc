"""Benchmark-side span tracing: wrap each layer's public functions.

Nothing in the program is edited. :func:`install` replaces, for the
lifetime of one worker process, the public entry points of every layer
with thin wrappers that record a span (name, parent, start, end) into
an in-memory :class:`SpanLog`. After the timed calls the worker derives
each span's self time (its duration minus its children's) and sums it
per span name; the root span's self time is the wall time no layer
span covers. Self times of all names plus that remainder tile the root
span exactly, in integer nanoseconds.

Counts are taken at the same boundaries (calls per name, seed hits,
journal fsyncs, matchmaker statistics, GC pauses), so every ratio the
benchmark reports is measured where the work happens.
"""

from __future__ import annotations

import gc
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

ROOT = "bench.root"

#: Subscriber class (or function qualname prefix) -> span name.
SUBSCRIBER_NAMES = {
    "EventLogWriter": "observe.event_log",
    "EventRecorder": "observe.recorder",
    "instrument.": "observe.metrics",
    "SpanTracer": "observe.tracer_record",
    "AnomalyMonitor": "observe.anomaly",
    "Journal": "resilience.journal",
    "WorkflowService.": "service.forward",
}

#: Completion-callback qualname prefix -> span name.
CALLBACK_NAMES = {
    "DagmanScheduler.": "dagman.callback",
    "WorkflowService.": "service.callback",
}


class SpanLog:
    """Spans kept in memory as ``(id, parent, name, start_ns, end_ns)``.

    Single-threaded by design: the simulators and the local backend's
    driver run every callback on the thread that installed the log, and
    calls from any other thread pass through untraced.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int]] = []
        self._stack = [0]
        self._next = 1
        self._thread = threading.get_ident()
        self._clock = time.perf_counter_ns

    def wrap(self, fn: Callable, name: str) -> Callable:
        stack = self._stack
        spans = self.spans
        clock = self._clock
        thread = self._thread
        get_ident = threading.get_ident

        def traced(*args: Any, **kwargs: Any) -> Any:
            if get_ident() != thread:
                return fn(*args, **kwargs)
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    def root(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the root span."""
        return self.wrap(fn, ROOT)()

    def self_times(self) -> tuple[dict[str, int], dict[str, int], int]:
        """Per-name self time (ns), per-name span count, root wall (ns)."""
        covered: dict[int, int] = defaultdict(int)
        for _sid, parent, _name, start, end in self.spans:
            covered[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        root_wall = 0
        for sid, _parent, name, start, end in self.spans:
            totals[name] += (end - start) - covered.get(sid, 0)
            calls[name] += 1
            if name == ROOT:
                root_wall += end - start
        return dict(totals), dict(calls), root_wall

    def inclusive_ns(self, name: str) -> int:
        """Total duration of the spans called ``name``."""
        return sum(end - start for _s, _p, n, start, end in self.spans if n == name)

    def write(self, path: Path) -> None:
        """Dump the spans as TSV: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _label(obj: object, table: dict[str, str], default: str) -> str:
    target = getattr(obj, "__self__", obj)
    names = [type(target).__name__, getattr(obj, "__qualname__", "")]
    for key, label in table.items():
        for candidate in names:
            if candidate == key or candidate.startswith(key):
                return label
    return default


class Tracer:
    """Everything one traced iteration records."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.patches = _Patches()
        self.matchmakers: dict[int, object] = {}
        self.buses: dict[int, object] = {}
        self.engine_events = 0
        self.tracer_spans = 0
        self.recorders: list[object] = []
        self.seed_hits = 0
        self.query_hits = 0
        self.fsyncs = 0
        self.journal_records = 0
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_start = 0

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        # import_module, not ``import a.b as c``: packages re-export
        # functions under their submodules' names (repro.blast.blastx).
        (blastx_mod, tabular_mod, factory, lint_pkg, feasibility, plan_rules,
         observe_pkg, report, journal_mod, loadgen, wms_cli, monitor,
         planner) = (
            importlib.import_module(f"repro.{name}") for name in (
                "blast.blastx", "blast.tabular", "core.workflow_factory", "lint",
                "lint.feasibility", "lint.plan_rules", "observe",
                "observe.report", "resilience.journal", "service.loadgen",
                "wms.cli", "wms.monitor", "wms.planner"))
        from repro.dagman.dag import Dag
        from repro.dagman.scheduler import DagmanScheduler
        from repro.execution.local import LocalEnvironment
        from repro.observe.bus import EventBus, EventRecorder
        from repro.observe.metrics import MetricsRegistry
        from repro.observe.sampler import UtilizationSampler
        from repro.observe.trace import SpanTracer
        from repro.resilience.journal import Journal
        from repro.service.service import WorkflowService, _Gate
        from repro.sim.cloud import CloudPlatform
        from repro.sim.cluster import CampusCluster
        from repro.sim.engine import Simulator
        from repro.sim.grid import OpportunisticGrid
        from repro.sim.matchmaker import (
            IndexedMatchmaker,
            LinearMatchmaker,
            Matchmaker,
        )
        from repro.wms.dax import ADag

        wrap = self.log.wrap
        put = self.patches.set
        tracer = self

        def simple(owner: object, attr: str, name: str) -> None:
            put(owner, attr, wrap(owner.__dict__[attr], name))

        # wms + lint
        simple(planner, "plan", "wms.plan")
        simple(factory, "plan", "wms.plan")
        simple(lint_pkg, "lint", "lint.preflight")
        simple(factory, "build_blast2cap3_adag", "wms.dax_build")
        simple(ADag, "write", "wms.write")
        simple(Dag, "write_dagfile", "wms.write")
        simple(report, "dag_from_plan_meta", "wms.load_plan")
        simple(monitor, "write_trace", "wms.monitor_write")
        simple(feasibility, "never_matchable", "lint.admission")
        simple(plan_rules, "durability_advice", "lint.admission")
        file_spans = {
            "plan.json": "wms.write",
            "metrics.json": "observe.metrics_write",
            "utilization.tsv": "observe.sampler_write",
        }
        atomic_write = wms_cli.__dict__["atomic_write"]
        by_file = {
            name: wrap(atomic_write, span) for name, span in file_spans.items()
        }

        def routed_atomic_write(path: Any, *args: Any, **kwargs: Any) -> Any:
            fn = by_file.get(Path(path).name, atomic_write)
            return fn(path, *args, **kwargs)

        put(wms_cli, "atomic_write", routed_atomic_write)

        # dagman
        simple(DagmanScheduler, "start", "dagman.driver")
        simple(DagmanScheduler, "finish", "dagman.driver")
        simple(DagmanScheduler, "run", "dagman.run")

        # sim: engine, platforms' submit + completion callbacks, matchmaker
        sim_run = Simulator.__dict__["run"]

        def counted_run(sim: Any, *args: Any, **kwargs: Any) -> Any:
            before = sim.processed
            try:
                return sim_run(sim, *args, **kwargs)
            finally:
                tracer.engine_events += sim.processed - before

        put(Simulator, "run", wrap(counted_run, "sim.platform"))
        for env_cls, span in (
            (CampusCluster, "sim.env_submit"),
            (OpportunisticGrid, "sim.env_submit"),
            (CloudPlatform, "sim.env_submit"),
            (LocalEnvironment, "execution.submit"),
            (_Gate, "service.gate_submit"),
        ):
            self._wrap_submit(env_cls, span)
        simple(LocalEnvironment, "run_until_complete", "execution.driver")
        simple(LocalEnvironment, "__init__", "execution.pool")
        simple(LocalEnvironment, "shutdown", "execution.pool")
        for mm_cls in (Matchmaker, IndexedMatchmaker, LinearMatchmaker):
            if "find" in mm_cls.__dict__:
                find = mm_cls.__dict__["find"]

                def noted_find(mm: Any, *args: Any, _find: Any = find,
                               **kwargs: Any) -> Any:
                    tracer.matchmakers[id(mm)] = mm
                    return _find(mm, *args, **kwargs)

                put(mm_cls, "find", wrap(noted_find, "sim.matchmaker"))

        # observe: bus fan-out, each subscriber, exporters, sampler
        for attr in ("emit", "emit_batch"):
            emit = EventBus.__dict__[attr]

            def noted_emit(bus: Any, *args: Any, _emit: Any = emit,
                           **kwargs: Any) -> Any:
                tracer.buses[id(bus)] = bus
                return _emit(bus, *args, **kwargs)

            put(EventBus, attr, wrap(noted_emit, "observe.bus"))
        subscribe = EventBus.__dict__["subscribe"]

        def traced_subscribe(bus: Any, subscriber: Any, **kwargs: Any) -> Any:
            if isinstance(subscriber, EventRecorder):
                tracer.recorders.append(subscriber)
            name = _label(subscriber, SUBSCRIBER_NAMES, "observe.subscriber")
            return subscribe(bus, wrap(subscriber, name), **kwargs)

        put(EventBus, "subscribe", traced_subscribe)
        for attr, span in (
            ("write_chrome_trace", "observe.chrome_write"),
            ("write_otlp_trace", "observe.otlp_write"),
            ("write_perfetto_trace", "observe.perfetto_write"),
        ):
            put(observe_pkg, attr, wrap(getattr(observe_pkg, attr), span))
        finish = SpanTracer.__dict__["finish"]

        def counted_finish(span_tracer: Any, *args: Any, **kwargs: Any) -> Any:
            spans = finish(span_tracer, *args, **kwargs)
            tracer.tracer_spans += len(spans)
            return spans

        put(SpanTracer, "finish", wrap(counted_finish, "observe.tracer_finish"))
        simple(MetricsRegistry, "snapshot", "observe.metrics_write")
        simple(UtilizationSampler, "_tick", "observe.sampler")

        # resilience: journal appends, snapshots, fsyncs
        append = Journal.__dict__["_append_serialized"]

        def counted_append(journal: Any, *args: Any, **kwargs: Any) -> Any:
            tracer.journal_records += 1
            return append(journal, *args, **kwargs)

        put(Journal, "_append_serialized", counted_append)
        simple(Journal, "snapshot", "resilience.journal_snapshot")
        real_os = journal_mod.__dict__["os"]

        def counted_fsync(fd: int) -> None:
            tracer.fsyncs += 1
            real_os.fsync(fd)

        put(journal_mod, "os", _OsProxy(real_os, fsync=counted_fsync))

        # service
        simple(WorkflowService, "submit", "service.admission")
        simple(loadgen, "generate_workflow", "service.loadgen")

        # blast: seeding (generator consumed by the two-hit filter),
        # extensions, and the per-query driver
        find_seed_hits = blastx_mod.__dict__["find_seed_hits"]

        def counted_seed_hits(*args: Any, **kwargs: Any) -> Any:
            for hit in find_seed_hits(*args, **kwargs):
                tracer.seed_hits += 1
                yield hit

        put(blastx_mod, "find_seed_hits", counted_seed_hits)
        simple(blastx_mod, "two_hit_filter", "blast.seed")
        simple(blastx_mod, "ungapped_extend", "blast.ungapped")
        simple(blastx_mod, "gapped_extend", "blast.gapped")
        simple(tabular_mod, "write_tabular", "blast.write")
        blastx = blastx_mod.__dict__["blastx"]

        def counted_blastx(*args: Any, **kwargs: Any) -> Any:
            hits = blastx(*args, **kwargs)
            tracer.query_hits += len(hits)
            return hits

        put(blastx_mod, "blastx", wrap(counted_blastx, "blast.query"))

        # python: collector pauses
        gc.callbacks.append(self._on_gc)

    def _wrap_submit(self, env_cls: type, span: str) -> None:
        submit = env_cls.__dict__["submit"]
        wrap = self.log.wrap

        def traced_submit(env: Any, job: Any, on_complete: Any,
                          *args: Any, **kwargs: Any) -> Any:
            name = _label(on_complete, CALLBACK_NAMES, "sim.callback_other")
            return submit(env, job, wrap(on_complete, name), *args, **kwargs)

        self.patches.set(env_cls, "submit", wrap(traced_submit, span))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif phase == "stop" and self._gc_start:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self._gc_start = 0

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self.patches.restore()

    # -- read-out --------------------------------------------------------

    def matchmaker_stats(self) -> SimpleNamespace:
        total = SimpleNamespace(finds=0, bucket_probes=0, ads_scanned=0)
        for mm in self.matchmakers.values():
            stats = mm.stats  # type: ignore[attr-defined]
            total.finds += stats.finds
            total.bucket_probes += stats.bucket_probes
            total.ads_scanned += stats.ads_scanned
        return total

    def bus_events(self) -> int:
        return sum(bus.emitted for bus in self.buses.values())  # type: ignore[attr-defined]

    def recorder_events(self) -> int:
        return sum(len(r.events) for r in self.recorders)  # type: ignore[attr-defined]


class _OsProxy:
    """Stands in for ``os`` inside one module, overriding named calls."""

    def __init__(self, real: Any, **overrides: Callable) -> None:
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._real, name)
