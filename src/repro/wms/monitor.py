"""Trace persistence: the monitord-style JSONL event log.

Every finished attempt becomes one JSON line, the record of
:meth:`~repro.dagman.events.JobAttempt.to_json`, so each line is
self-contained. ``pegasus-status`` style progress summaries read the
same file. To stream attempts while a run is going, subscribe a
:class:`repro.observe.log.EventLogWriter` to its bus: :func:`read_trace`
reads that event log too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.dagman.events import JobAttempt, WorkflowTrace
from repro.observe.events import TERMINAL_KINDS

__all__ = ["write_trace", "read_trace", "progress_line"]

#: ``event`` values of the log lines that carry a whole attempt record.
_TERMINAL_EVENTS = frozenset(kind.value for kind in TERMINAL_KINDS)


def write_trace(path: str | Path, trace: WorkflowTrace | Iterable[JobAttempt]) -> int:
    """Write a whole trace as JSONL; returns the attempt count."""
    attempts = list(trace)
    payload = "".join(json.dumps(a.to_json()) + "\n" for a in attempts)
    from repro.util.iolib import atomic_write

    atomic_write(path, payload)
    return len(attempts)


def read_trace(path: str | Path) -> WorkflowTrace:
    """Load a JSONL log back into a trace.

    Accepts both the classic attempt-per-line logs this module writes
    and the richer :mod:`repro.observe.log` event logs — those are a
    superset schema whose terminal events (``job.finish``/``job.evict``)
    carry every attempt field. Lines describing non-terminal lifecycle
    events (submits, state changes, samples, …) are skipped, so the
    recovered trace is identical either way.
    """
    trace = WorkflowTrace()
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        event = record.get("event")
        if event is not None and event not in _TERMINAL_EVENTS:
            continue  # a non-terminal observe-layer event line
        trace.add(JobAttempt.from_json(record))
    return trace


def progress_line(trace: WorkflowTrace, total_jobs: int) -> str:
    """A ``pegasus-status`` style one-liner.

    >>> from repro.dagman.events import WorkflowTrace
    >>> progress_line(WorkflowTrace(), 10)
    '0/10 jobs done (0.0%), 0 failures, 0 retries'
    """
    done = len({a.job_name for a in trace.successful()})
    pct = 100.0 * done / total_jobs if total_jobs else 0.0
    return (
        f"{done}/{total_jobs} jobs done ({pct:.1f}%), "
        f"{len(trace.failures())} failures, {trace.retry_count} retries"
    )
