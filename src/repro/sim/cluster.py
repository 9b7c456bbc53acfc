"""The campus-cluster platform model (Sandhills).

Paper §IV-A and §VI characterise Sandhills as: heterogeneous AMD nodes
(1,440 cores over 44 nodes), allocation bounded by the research group's
share, a batch queue whose *per-job* waiting is "small and negligible"
once resources are allocated, software pre-installed, and **no
failures**. The model has exactly those levers:

* a ``group_slots`` cap on concurrent jobs (group-based allocation),
* a FIFO dispatch queue with a small lognormal per-job wait,
* per-node speed jitter (heterogeneous cluster),
* zero download/install time, zero failures, zero preemption.

It is a policy over the shared :class:`~repro.sim.platform.Platform`
kernel (an :class:`repro.dagman.scheduler.ExecutionEnvironment`), so
DAGMan drives it exactly as it drives the real executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt
from repro.observe.bus import EventBus
from repro.sim.engine import Simulator
from repro.sim.machine import MachineSpec, make_machines
from repro.sim.platform import Platform
from repro.sim.rng import RngStreams, bounded_lognormal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultInjector

__all__ = ["CampusClusterConfig", "CampusCluster"]


@dataclass(frozen=True)
class CampusClusterConfig:
    """Sandhills-like parameters.

    ``group_slots`` bounds how many jobs the group's allocation runs at
    once. The default (500 of the cluster's 1,440 cores) is generous
    enough that the paper's n sweep never saturates it badly — matching
    the observation that per-job waiting on Sandhills stays "small and
    negligible" even at n=500. The wall-time plateau comes from the
    largest unsplittable cluster, not from slot starvation.
    """

    name: str = "sandhills"
    nodes: int = 44
    cores_per_node: int = 32  # ~1,440 AMD cores total
    group_slots: int = 500
    dispatch_latency_s: float = 2.0
    queue_wait_mean_s: float = 40.0
    queue_wait_sigma: float = 0.8
    queue_wait_max_s: float = 600.0
    speed_mean: float = 1.0
    speed_spread: float = 0.15

    def __post_init__(self) -> None:
        if self.group_slots < 1:
            raise ValueError("group_slots must be >= 1")
        if self.nodes < 1 or self.cores_per_node < 1:
            raise ValueError("nodes and cores_per_node must be >= 1")

    @property
    def total_cores(self) -> int:
        return self.nodes * self.cores_per_node


class CampusCluster(Platform):
    """Discrete-event Sandhills model: a group-slot cap, round-robin
    node choice and a lognormal batch-queue wait."""

    def __init__(
        self,
        simulator: Simulator,
        config: CampusClusterConfig = CampusClusterConfig(),
        *,
        streams: RngStreams | None = None,
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
        blacklist: "Blacklist | None" = None,
    ) -> None:
        """The calibrated Sandhills model is failure-free; ``injector``
        layers a chaos :class:`~repro.resilience.faults.FaultPlan` on
        top of it and ``blacklist`` excludes tripped nodes from the
        round-robin."""
        super().__init__(simulator, config, bus=bus, injector=injector,
                         blacklist=blacklist)
        streams = streams or RngStreams(seed=0)
        self._wait_rng = streams.stream(f"{config.name}.wait")
        machine_rng = streams.stream(f"{config.name}.machines")
        # One spec per node; slots cycle over nodes (cores are identical
        # within a node, so per-node speed is what matters).
        self._machines: list[MachineSpec] = make_machines(
            machine_rng,
            site=config.name,
            count=config.nodes,
            speed_mean=config.speed_mean,
            speed_spread=config.speed_spread,
            software_prob=1.0,  # campus software stack is maintained
        )
        self._next_machine = 0

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
        """Concurrent-job ceiling: the group allocation, not the whole
        cluster."""
        return self.config.group_slots

    def queue_status(self) -> dict[str, int]:
        """``condor_q``-style snapshot: idle (queued) vs running."""
        return {"idle": len(self._queue), "running": self._busy}

    def _dispatch(self) -> None:
        while self._queue and self._busy < self.config.group_slots:
            machine = self._pick_machine()
            if machine is None:
                # Every node is blacklisted: park the queue and wake up
                # when the earliest block expires (if any will).
                self._schedule_redispatch()
                return
            job, on_complete, attempt, submit_time = self._queue.popleft()
            self._match(job, attempt, machine)
            # The slot is the group's from match time: the batch-queue
            # wait below counts as busy.
            self.peak_busy = max(self.peak_busy, self._busy)
            wait = self.config.dispatch_latency_s + bounded_lognormal(
                self._wait_rng,
                self.config.queue_wait_mean_s,
                self.config.queue_wait_sigma,
                high=self.config.queue_wait_max_s,
            )
            self.simulator.schedule(
                wait,
                lambda j=job, cb=on_complete, a=attempt, st=submit_time, m=machine: (
                    self._arrive(j, cb, a, st, m)
                ),
            )

    def _pick_machine(self) -> MachineSpec | None:
        """Next round-robin node that isn't blacklisted (None when all
        are blocked)."""
        for _ in range(len(self._machines)):
            machine = self._machines[self._next_machine % len(self._machines)]
            self._next_machine += 1
            if self.blacklist is None or not self.blacklist.is_blocked(
                machine.name, self.config.name, now=self.now
            ):
                return machine
        return None
