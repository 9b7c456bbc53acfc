"""One benchmark iteration in a fresh interpreter.

Run by ``run.py``, never by hand: it sets up the workload (imports and,
for ``assembly``, the protein database), makes the timed calls — under
the span tracer when ``--trace 1`` — then checks the outputs and writes
one JSON result file. Peak RSS is read before the checks, so it is the
workload's own high-water mark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def _layer_metrics(tracer: Any, outcome: Any) -> dict[str, float]:
    """Per-layer figures of one traced iteration."""
    self_ns, calls, root_ns = tracer.log.self_times()
    jobs = max(1, outcome.jobs)
    facts = outcome.facts
    files = facts.get("files", {})

    used = {"bench.root"}

    def us(*names: str) -> float:
        used.update(names)
        return sum(self_ns.get(n, 0) for n in names) / 1e3

    def per(total: float, count: float) -> float:
        return total / count if count else 0.0

    def per_call(name: str) -> float:
        return per(us(name), calls.get(name, 0))

    mm = tracer.matchmaker_stats()
    bus_events = tracer.bus_events()
    records = tracer.journal_records
    attempts = facts.get("attempts", 0)
    queries = jobs if outcome.facts.get("blastx_s") is not None else 0
    payload = facts.get("payload", {})
    dagman_run_s = tracer.log.inclusive_ns("dagman.run") / 1e9
    gapped = calls.get("blast.gapped", 0)
    metrics = {
        "wms.dax_build_us_per_job": us("wms.dax_build") / jobs,
        "wms.plan_us_per_job": us("wms.plan") / jobs,
        "wms.write_us_per_job": us("wms.write") / jobs,
        "wms.load_plan_us_per_job": us("wms.load_plan") / jobs,
        "wms.monitor_write_us_per_job": us("wms.monitor_write") / jobs,
        "wms.trace_bytes_per_job": files.get("trace.jsonl", 0) / jobs,
        "lint.preflight_us_per_job": us("lint.preflight") / jobs,
        "lint.admission_us_per_job": us("lint.admission") / jobs,
        "dagman.self_us_per_job": us("dagman.callback", "dagman.driver",
                                     "dagman.run") / jobs,
        "dagman.attempts": attempts,
        "dagman.useful_attempt_ratio": per(facts.get("jobs_done", 0), attempts),
        "dagman.local_overhead_s": (
            dagman_run_s - payload["critical_path_s"] if payload else 0.0),
        "sim.makespan_s": facts.get("makespan_s", 0.0),
        "sim.p95_turnaround_s": facts.get("p95_turnaround_s", 0.0),
        "sim.engine_events": tracer.engine_events,
        "sim.platform_self_us_per_job": us("sim.platform") / jobs,
        "sim.env_submit_us_per_job": us("sim.env_submit") / jobs,
        "sim.matchmaker_us_per_find": per_call("sim.matchmaker"),
        "sim.matchmaker_finds": mm.finds,
        "sim.matchmaker_bucket_probes": mm.bucket_probes,
        "sim.matchmaker_ads_scanned": mm.ads_scanned,
        "observe.bus_events": bus_events,
        "observe.bus_fanout_us_per_event": per(us("observe.bus"), bus_events),
        "observe.event_log_us_per_event": per_call("observe.event_log"),
        "observe.recorder_us_per_event": per_call("observe.recorder"),
        "observe.metrics_us_per_event": per_call("observe.metrics"),
        "observe.tracer_record_us_per_event": per_call("observe.tracer_record"),
        "observe.anomaly_us_per_event": per_call("observe.anomaly"),
        "observe.sampler_us_per_sample": per_call("observe.sampler"),
        "observe.chrome_write_us_per_job": us("observe.chrome_write") / jobs,
        "observe.tracer_finish_us_per_job": us("observe.tracer_finish") / jobs,
        "observe.otlp_write_us_per_job": us("observe.otlp_write") / jobs,
        "observe.perfetto_write_us_per_job": us("observe.perfetto_write") / jobs,
        "observe.metrics_write_us_per_job": us("observe.metrics_write",
                                               "observe.sampler_write") / jobs,
        "observe.events_bytes_per_job": files.get("events.jsonl", 0) / jobs,
        "observe.chrome_bytes_per_job": files.get("trace.chrome.json", 0) / jobs,
        "observe.otlp_bytes_per_job": files.get("trace.otlp.json", 0) / jobs,
        "observe.perfetto_bytes_per_job": files.get("trace.perfetto.json", 0) / jobs,
        "observe.recorder_events_retained": tracer.recorder_events(),
        "observe.tracer_spans": tracer.tracer_spans,
        "resilience.journal_us_per_record": per(
            us("resilience.journal", "resilience.journal_snapshot"), records),
        "resilience.journal_records": records,
        "resilience.journal_fsyncs": tracer.fsyncs,
        "resilience.journal_snapshot_us": per_call("resilience.journal_snapshot"),
        "resilience.journal_bytes_per_job": facts.get("journal_bytes", 0) / jobs,
        "service.admission_us_per_workflow": per_call("service.admission"),
        "service.self_us_per_job": us("service.callback", "service.gate_submit",
                                      "service.forward") / jobs,
        "service.loadgen_us_per_job": us("service.loadgen") / jobs,
        "service.rejected_workflows": facts.get("rejected", 0),
        "service.failed_workflows": facts.get("workflows_failed", 0),
        "blast.seed_ms_per_query": per(us("blast.seed") / 1e3, queries),
        "blast.ungapped_ms_per_query": per(us("blast.ungapped") / 1e3, queries),
        "blast.gapped_ms_per_query": per(us("blast.gapped") / 1e3, queries),
        "blast.query_self_ms_per_query": per(us("blast.query") / 1e3, queries),
        "blast.write_ms_per_query": per(us("blast.write") / 1e3, queries),
        "blast.seed_hits": tracer.seed_hits,
        "blast.gapped_extensions": gapped,
        "blast.hits_per_gapped_extension": per(tracer.query_hits, gapped),
        "core.run_cap3_payload_s": payload.get("run_cap3_s", 0.0),
        "core.run_cap3_max_s": payload.get("run_cap3_max_s", 0.0),
        "core.split_payload_s": payload.get("split_s", 0.0),
        "core.merge_payload_s": payload.get("merge_s", 0.0),
        "execution.worker_busy_fraction": per(
            payload.get("total_s", 0.0), facts.get("workers", 0) * dagman_run_s),
        "execution.driver_s": us("execution.driver", "execution.submit",
                                 "execution.pool") / 1e6,
        "execution.workflow_wall_s": facts.get("local_wall_s", 0.0),
        "python.gc_pause_ms": tracer.gc_pause_ns / 1e6,
        "python.gc_collections": tracer.gc_collections,
        "bench.unattributed_us_per_job": us("bench.root") / jobs,
        "bench.traced_wall_us_per_job": root_ns / 1e3 / jobs,
    }
    # Spans no metric above names (stray subscribers or callbacks) still
    # count, so the self times tile the traced wall.
    metrics["bench.other_layers_us_per_job"] = us(*(set(self_ns) - used)) / jobs
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--params", required=True, help="JSON file")
    parser.add_argument("--work", required=True, help="iteration directory")
    parser.add_argument("--out", required=True, help="result JSON file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write spans here")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="wall-clock time the driver started this process")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    params = json.loads(Path(args.params).read_text())
    work = Path(args.work)
    state = workload.setup(params)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    setup_s = time.time() - args.spawned_at
    start = time.perf_counter()
    if tracer is None:
        raw = workload.run(state, params, work)
    else:
        try:
            raw = tracer.log.root(lambda: workload.run(state, params, work))
        finally:
            tracer.uninstall()
    wall_s = time.perf_counter() - start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome = workload.evaluate(state, params, work, raw)
    jobs = max(1, outcome.jobs)
    result: dict[str, Any] = {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "fingerprint": outcome.fingerprint,
        "wall_s": wall_s,
        "metrics": {
            "wall_us_per_job": wall_s * 1e6 / jobs,
            "peak_rss_mib": peak_rss_mib,
            "artifact_bytes_per_job": outcome.artifact_bytes / jobs,
            "setup_s": setup_s,
        },
        # Stage timings of the assembly, reported with the per-layer
        # metrics but measured untraced.
        "stages": {
            "blast.blastx_ms_per_query":
                outcome.facts.get("blastx_s", 0.0) * 1e3 / jobs,
            "core.blast2cap3_ms_per_transcript":
                outcome.facts.get("blast2cap3_s", 0.0) * 1e3 / jobs,
        },
    }
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, outcome)
        self_ns, _calls, root_ns = tracer.log.self_times()
        result["tiling_ns"] = {"root": root_ns, "sum_self": sum(self_ns.values())}
        if args.spans:
            tracer.log.write(Path(args.spans))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
