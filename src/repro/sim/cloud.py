"""A cloud execution-platform model — the paper's future work, built.

§VII: "Using academic and commercial clouds as an execution platform
for the blast2cap3 workflow built in this paper will be challenging,
but important and useful further step of this research." This module
models the EC2/FutureGrid style platform the paper names:

* **on-demand instances** — provisioned per queued job up to a cap,
  each paying a boot delay before the first payload runs;
* **machine images** — software baked in, so no per-job
  download/install (the cloud's answer to OSG's setup tax);
* **warm pools** — idle instances linger ``idle_timeout_s`` before
  terminating, so bursts reuse booted capacity;
* **billing** — instance time is billed in ``billing_quantum_s``
  increments (the classic per-hour granularity), which makes *cost*,
  not just wall time, an output of every run;
* optional **spot mode** — cheaper instances that can be reclaimed
  (an eviction hazard, like OSG's preemption) for the cost/risk
  trade-off study.

It is a policy over the same :class:`~repro.sim.platform.Platform`
kernel as the campus cluster and grid models, so DAGMan and
``pegasus-statistics`` work on cloud runs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.failures import NO_FAILURES, FailureModel
from repro.sim.platform import Platform
from repro.sim.rng import RngStreams, bounded_lognormal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultInjector

__all__ = ["InstanceType", "CloudConfig", "CloudPlatform"]


@dataclass(frozen=True)
class InstanceType:
    """One VM flavour."""

    name: str
    speed: float
    hourly_price: float

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError("speed must be positive")
        if self.hourly_price < 0:
            raise ValueError("hourly_price must be >= 0")


@dataclass(frozen=True)
class CloudConfig:
    """Cloud platform parameters (EC2-c1.medium-era defaults)."""

    name: str = "cloud"
    instance_type: InstanceType = InstanceType(
        name="c1.medium", speed=1.25, hourly_price=0.145
    )
    max_instances: int = 200
    boot_mean_s: float = 120.0
    boot_sigma: float = 0.3
    boot_max_s: float = 600.0
    idle_timeout_s: float = 300.0
    billing_quantum_s: float = 3600.0
    dispatch_latency_s: float = 2.0
    #: Spot-market mode: reclaim hazard + discounted price.
    failures: FailureModel = NO_FAILURES
    spot_discount: float = 1.0  # multiply hourly price (e.g. 0.3 for spot)

    def __post_init__(self) -> None:
        if self.max_instances < 1:
            raise ValueError("max_instances must be >= 1")
        if self.billing_quantum_s <= 0:
            raise ValueError("billing_quantum_s must be positive")
        if not 0 < self.spot_discount <= 1:
            raise ValueError("spot_discount must be in (0, 1]")


class _Instance:
    """One VM: boots once, runs jobs one at a time, idles, terminates."""

    __slots__ = ("name", "site", "speed", "launched_at", "terminated_at",
                 "busy", "idle_event")

    def __init__(self, name: str, site: str, speed: float,
                 launched_at: float) -> None:
        self.name = name
        self.site = site
        self.speed = speed
        self.launched_at = launched_at
        self.terminated_at: float | None = None
        self.busy = False
        self.idle_event = None  # pending termination event


class CloudPlatform(Platform):
    """Discrete-event on-demand cloud: instances with boot time, a warm
    pool, billing and optional spot reclaim."""

    eviction_error = "spot instance reclaimed"

    def __init__(
        self,
        simulator: Simulator,
        config: CloudConfig = CloudConfig(),
        *,
        streams: RngStreams | None = None,
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
    ) -> None:
        """``injector`` layers a chaos
        :class:`~repro.resilience.faults.FaultPlan` (spot storms, bad
        AZs, stragglers) on top of the configured spot-reclaim model."""
        super().__init__(simulator, config, bus=bus, injector=injector,
                         blacklist=None)
        streams = streams or RngStreams(seed=0)
        self._boot_rng = streams.stream(f"{config.name}.boot")
        self._failure_rng = streams.stream(f"{config.name}.failures")
        self._instances: list[_Instance] = []
        self._warm: list[_Instance] = []  # booted and idle
        self._counter = 0
        self.peak_instances = 0

    def submit(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        *,
        attempt: int = 1,
    ) -> None:
        self._queue.append((job, on_complete, attempt, self.now))
        self._dispatch()

    @property
    def capacity(self) -> int:
        """Concurrent-job ceiling: the instance cap."""
        return self.config.max_instances

    @property
    def reclaim_count(self) -> int:
        """Evicted attempts: spot reclaims plus injected evictions."""
        return self.eviction_count

    # -- accounting -------------------------------------------------------

    @property
    def running_instances(self) -> int:
        return sum(1 for i in self._instances if i.terminated_at is None)

    def queue_status(self) -> dict[str, int]:
        """``condor_q``-style snapshot: idle (awaiting capacity) vs
        running (busy instances)."""
        busy = sum(
            1 for i in self._instances
            if i.terminated_at is None and i.busy
        )
        return {"idle": len(self._queue), "running": busy}

    def instance_seconds(self) -> float:
        """Raw provisioned seconds across all instances."""
        total = 0.0
        for inst in self._instances:
            end = inst.terminated_at if inst.terminated_at is not None else self.now
            total += end - inst.launched_at
        return total

    def billed_cost(self) -> float:
        """Dollars, rounding each instance up to the billing quantum."""
        quantum = self.config.billing_quantum_s
        hourly = self.config.instance_type.hourly_price * self.config.spot_discount
        cost = 0.0
        for inst in self._instances:
            end = inst.terminated_at if inst.terminated_at is not None else self.now
            quanta = math.ceil(max(1e-9, end - inst.launched_at) / quantum)
            cost += quanta * hourly * (quantum / 3600.0)
        return cost

    # -- policy ---------------------------------------------------------

    def _dispatch(self) -> None:
        queue = self._queue
        while queue:
            if self._warm:
                instance = self._warm.pop()
                if instance.idle_event is not None:
                    instance.idle_event.cancel()
                    instance.idle_event = None
                job, on_complete, attempt, submit_time = queue.popleft()
                self._match(job, attempt, instance)
                # Warm start: booted already, no dispatch latency.
                self._start_on(instance, job, on_complete, attempt,
                               submit_time)
            elif self.running_instances < self.config.max_instances:
                job, on_complete, attempt, submit_time = queue.popleft()
                self._counter += 1
                instance = _Instance(
                    name=f"{self.config.name}-vm{self._counter:05d}",
                    site=self.config.name,
                    speed=self.config.instance_type.speed,
                    launched_at=self.now,
                )
                self._instances.append(instance)
                self.peak_instances = max(
                    self.peak_instances, self.running_instances
                )
                self._match(job, attempt, instance)
                boot = self.config.dispatch_latency_s + bounded_lognormal(
                    self._boot_rng,
                    self.config.boot_mean_s,
                    self.config.boot_sigma,
                    high=self.config.boot_max_s,
                )
                self.simulator.schedule(
                    boot,
                    lambda inst=instance, j=job, cb=on_complete, a=attempt,
                    st=submit_time: self._start_on(inst, j, cb, a, st),
                )
            else:
                return  # no capacity; retry on next completion

    def _start_on(
        self,
        instance: _Instance,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        attempt: int,
        submit_time: float,
    ) -> None:
        instance.busy = True
        # Native spot-reclaim draw comes FIRST so the configured model
        # consumes its RNG stream identically with or without an
        # injector layered on top (and on dead-on-arrival attempts).
        reclaim_in = self.config.failures.sample_eviction_time(
            self._failure_rng
        )
        self._arrive(job, on_complete, attempt, submit_time, instance,
                     evict_in=reclaim_in)

    def _release(self, instance: _Instance, status: JobStatus) -> None:
        instance.busy = False
        if status is JobStatus.EVICTED or status is JobStatus.FAILED:
            # Reclaimed, or dead on arrival: the VM is gone.
            instance.terminated_at = self.now
        else:
            self._park(instance)

    def _park(self, instance: _Instance) -> None:
        """Idle the instance; terminate it after the warm-pool timeout."""
        self._warm.append(instance)

        def terminate() -> None:
            if instance.busy or instance.terminated_at is not None:
                return
            if instance in self._warm:
                self._warm.remove(instance)
            instance.terminated_at = self.now

        instance.idle_event = self.simulator.schedule(
            self.config.idle_timeout_s, terminate
        )
