"""The platform kernel: one slot lifecycle for every simulated platform.

In Pegasus a platform is a site-catalog entry, not a code path: the
same DAGMan drives a campus cluster, a grid or a cloud, and only the
site's policies differ. :class:`Platform` is the shared code path. Every
attempt walks the same lifecycle::

    submit → queue → match → (wait) → arrive → [setup] → execute → finish

The kernel owns the work the models share: the virtual clock (``now``,
``call_later``, ``run_until_complete``), the idle queue, the event
stream, fault resolution (injector decisions, dead-on-arrival,
slowdown, hang, the eviction/timeout race and their counters), the
``JobAttempt`` record with its modelled profile, the blacklist hooks
and the guarded redispatch timer.

A platform subclass supplies only policy:

* ``submit`` — admission (the grid first checks that the pool can ever
  match the job);
* ``_dispatch`` — allocation: which queued job gets which slot, and how
  long it waits before arriving there;
* ``_setup`` — what happens between arrival and payload start (nothing
  by default; the grid downloads and installs);
* ``_release`` — what freeing a slot means (matchmaker release,
  warm-pool parking, instance termination);
* ``capacity`` and ``queue_status`` — the concurrency ceiling, and when
  a reserved slot counts as running;
* :attr:`Platform.report_after_refill` — completion order (see there).

Slots are duck-typed: anything with ``name``, ``site`` and ``speed``
(a :class:`~repro.sim.machine.MachineSpec`, a cloud instance). The
slot's ``site`` labels events, records, injector decisions and
blacklist entries.
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus
from repro.observe.events import EventKind, RunEvent
from repro.observe.profile import modelled_profile
from repro.resilience.faults import resolve_exec
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultDecision, FaultInjector

__all__ = ["Platform"]

OnComplete = Callable[[JobAttempt], None]


class Platform:
    """Shared slot lifecycle (an ``ExecutionEnvironment``)."""

    #: Completion order. ``False`` (cluster, cloud): emit the terminal
    #: event, call ``on_complete``, then dispatch. ``True`` (grid): free
    #: the slot and rematch it first — the MATCH events of queued jobs
    #: land between a ``job.timeout`` and the attempt's terminal event.
    report_after_refill = False
    #: Error text for evicted attempts (``None`` keeps the generic one).
    eviction_error: str | None = None

    def __init__(
        self,
        simulator: Simulator,
        config: Any,
        *,
        bus: EventBus | None,
        injector: "FaultInjector | None",
        blacklist: "Blacklist | None",
    ) -> None:
        self.simulator = simulator
        self.config = config
        self.bus = bus
        self.injector = injector
        self.blacklist = blacklist
        #: Idle jobs; each entry starts ``(job, on_complete, attempt,
        #: submit_time)`` and a platform may append its own fields.
        self._queue: deque[tuple] = deque()
        self._busy = 0
        self._redispatch_pending = False
        self.peak_busy = 0
        self.start_failure_count = 0
        self.eviction_count = 0
        self.timeout_count = 0

    # -- ExecutionEnvironment protocol ---------------------------------

    @property
    def now(self) -> float:
        return self.simulator.now

    def run_until_complete(self) -> None:
        self.simulator.run()

    def call_later(self, delay_s: float, fn: Callable[[], None]) -> None:
        """Virtual-clock deferral (delayed retries park here)."""
        self.simulator.schedule(delay_s, fn)

    @property
    def capacity(self) -> int:
        """Concurrent-job ceiling (what the service layer sizes quotas
        by)."""
        raise NotImplementedError

    @property
    def busy_slots(self) -> int:
        """Slots reserved for a job, from match until release."""
        return self._busy

    # -- policy hooks ----------------------------------------------------

    def _dispatch(self) -> None:
        """Allocation: move queued jobs onto free slots (via
        :meth:`_match`) and schedule their :meth:`_arrive`."""
        raise NotImplementedError

    def _setup(
        self, job: DagJob, on_complete: OnComplete, attempt: int,
        submit_time: float, slot: Any, decision: "FaultDecision | None",
        evict_in: float,
    ) -> None:
        """Software is pre-installed: the payload starts on arrival."""
        self._execute(job, on_complete, attempt, submit_time, self.now,
                      slot, decision, evict_in)

    def _release(self, slot: Any, status: JobStatus) -> None:
        """Free ``slot`` after its attempt ended with ``status``."""

    # -- events ----------------------------------------------------------

    def _emit(self, kind: EventKind, job: DagJob, attempt: int, slot: Any,
              detail: dict | None = None) -> None:
        bus = self.bus
        if bus is None or not bus.active:
            return  # deaf bus: skip event construction entirely
        bus.emit(
            RunEvent(
                kind,
                self.simulator.now,
                job_name=job.name,
                transformation=job.transformation,
                site=slot.site,
                machine=slot.name,
                attempt=attempt,
                detail=detail or {},
            )
        )

    def _timeout_event(self, record: JobAttempt) -> RunEvent:
        return RunEvent(
            EventKind.TIMEOUT,
            self.simulator.now,
            job_name=record.job_name,
            transformation=record.transformation,
            site=record.site,
            machine=record.machine,
            attempt=record.attempt,
            detail={"error": record.error} if record.error else {},
        )

    def _terminal_event(self, record: JobAttempt) -> RunEvent:
        kind = (
            EventKind.EVICT
            if record.status is JobStatus.EVICTED
            else EventKind.FINISH
        )
        return RunEvent(
            kind,
            self.simulator.now,
            job_name=record.job_name,
            transformation=record.transformation,
            site=record.site,
            machine=record.machine,
            attempt=record.attempt,
            record=record,
            detail={"status": record.status.value},
        )

    def _emit_terminal(self, record: JobAttempt) -> None:
        bus = self.bus
        if bus is not None and bus.active:
            bus.emit(self._terminal_event(record))

    # -- lifecycle -------------------------------------------------------

    def _match(self, job: DagJob, attempt: int, slot: Any) -> None:
        """Reserve ``slot`` for ``job`` (just taken off the queue)."""
        self._busy += 1
        self._emit(
            EventKind.MATCH, job, attempt, slot,
            detail={"queue_depth": len(self._queue)},
        )

    def _arrive(
        self, job: DagJob, on_complete: OnComplete, attempt: int,
        submit_time: float, slot: Any, *, native_doa: str | None = None,
        evict_in: float = math.inf,
    ) -> None:
        """The job reached its slot: it dies on arrival, or is set up
        and run.

        ``native_doa`` (an error text) and ``evict_in`` are the
        platform's own start-failure verdict and preemption draw; the
        injector's decision layers on top of both.
        """
        decision: "FaultDecision | None" = None
        if self.injector is not None:
            decision = self.injector.decide(
                job,
                site=slot.site,
                machine=slot.name,
                attempt=attempt,
                now=self.now,
            )
        doa = native_doa or (
            decision.dead_on_arrival if decision is not None else None
        )
        if doa:
            self.start_failure_count += 1
            if self.blacklist is not None:
                self.blacklist.record_start_failure(
                    slot.name, slot.site, now=self.now
                )
            now = self.now
            self._finish(job, on_complete, attempt, submit_time, now, now,
                         slot, JobStatus.FAILED, doa)
            return
        self._setup(job, on_complete, attempt, submit_time, slot, decision,
                    evict_in)

    def _execute(
        self, job: DagJob, on_complete: OnComplete, attempt: int,
        submit_time: float, setup_start: float, slot: Any,
        decision: "FaultDecision | None", evict_in: float,
    ) -> None:
        """Start the payload and schedule its end: success, eviction or
        timeout, whichever comes first."""
        exec_start = self.now
        self._emit(EventKind.EXEC_START, job, attempt, slot)
        duration = job.runtime / slot.speed
        if decision is not None:
            duration *= decision.slowdown_factor
            if decision.hang:
                duration = math.inf
            if decision.evict_after is not None:
                evict_in = min(evict_in, decision.evict_after)
        delay, status, error = resolve_exec(
            duration, evict_after=evict_in, timeout_s=job.timeout_s
        )
        if math.isinf(delay):
            # Hung payload, no timeout, no eviction due: the attempt
            # wedges and its slot stays busy — exactly the scenario
            # ``DagJob.timeout_s`` exists to prevent.
            return
        if status is JobStatus.EVICTED:
            self.eviction_count += 1
            error = self.eviction_error or error
        elif status is JobStatus.TIMEOUT:
            self.timeout_count += 1
        self.simulator.schedule(
            delay,
            lambda: self._finish(
                job, on_complete, attempt, submit_time, setup_start,
                exec_start, slot, status, error,
            ),
        )

    def _finish(
        self, job: DagJob, on_complete: OnComplete, attempt: int,
        submit_time: float, setup_start: float, exec_start: float,
        slot: Any, status: JobStatus, error: str | None,
    ) -> None:
        now = self.now
        record = JobAttempt(
            job_name=job.name,
            transformation=job.transformation,
            site=slot.site,
            machine=slot.name,
            attempt=attempt,
            submit_time=submit_time,
            setup_start=setup_start,
            exec_start=exec_start,
            exec_end=now,
            status=status,
            error=error,
            # Model-derived usage for the realized exec window (evicted
            # or timed-out attempts show the work they burned anyway; a
            # dead-on-arrival attempt has an empty window and none).
            profile=modelled_profile(
                job.transformation, now - exec_start, speed=slot.speed
            ),
        )
        if status is JobStatus.SUCCEEDED and self.blacklist is not None:
            self.blacklist.record_success(slot.name, slot.site)
        bus = self.bus
        if self.report_after_refill:
            if status is JobStatus.TIMEOUT and bus is not None and bus.active:
                # The rematch below emits MATCH events; the timeout must
                # precede them on the stream (order is part of the bus
                # contract).
                bus.emit(self._timeout_event(record))
            self._busy -= 1
            self._release(slot, status)
            self._dispatch()
            self._emit_terminal(record)
            on_complete(record)
            return
        self._busy -= 1
        self._release(slot, status)
        if bus is not None and bus.active:
            terminal = self._terminal_event(record)
            bus.emit_batch(
                (self._timeout_event(record), terminal)
                if status is JobStatus.TIMEOUT
                else (terminal,)
            )
        on_complete(record)
        self._dispatch()

    def _schedule_redispatch(self) -> None:
        """Wake the dispatcher when the earliest blacklist block lifts.

        Guarded in-method so any caller — a dispatch pass, the service
        layer's wakeups — can ask without double-scheduling timers.
        """
        assert self.blacklist is not None
        if self._redispatch_pending:
            return
        expiry = self.blacklist.next_expiry(now=self.now)
        if expiry is None:
            return
        self._redispatch_pending = True

        def fire() -> None:
            self._redispatch_pending = False
            self._dispatch()

        self.simulator.schedule(expiry - self.now, fire)
