"""The opportunistic-grid platform model (Open Science Grid).

Paper §IV-B, §V-D and §VI attribute OSG's behaviour to four mechanisms,
each modelled explicitly and separately tunable:

* **opportunistic waiting** — slot acquisition time is erratic: a
  lognormal baseline with occasional long spikes ("the OSG user can not
  control the availability or the lack of resources over time");
* **download/install overhead** — jobs marked ``needs_setup`` pay a
  lognormal setup time before the payload starts (Fig. 3's red
  rectangles: Python + Biopython + CAP3 installation);
* **heterogeneous software** — machines advertise which prerequisites
  they have (ClassAd matchmaking); jobs that *require* pre-installed
  software (the Sandhills-style workflow) can only match a small
  fraction of the pool, and may find no resource at all;
* **preemption and failures** — a Bernoulli dead-on-arrival failure plus
  an exponential eviction hazard ("the OSG user job may be cancelled or
  held"); DAGMan's retries turn these into the paper's observed
  "failures and workflow retries".

The model is a policy over the shared
:class:`~repro.sim.platform.Platform` kernel, which resolves faults and
records attempts the same way on every platform.

Aggregate capacity exceeds the campus cluster's group share ("OSG
provides more computational resources"), and per-core speed is a little
higher (the paper: ignoring waiting and download/install, "OSG gives
significantly better results").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

from repro.dagman.condor import ClassAd
from repro.dagman.dag import DagJob
from repro.dagman.events import JobAttempt, JobStatus
from repro.observe.bus import EventBus
from repro.observe.events import EventKind
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.machine import MachineSpec, make_machines
from repro.sim.matchmaker import IndexedMatchmaker, Matchmaker
from repro.sim.platform import Platform
from repro.sim.rng import RngStreams, bounded_lognormal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.blacklist import Blacklist
    from repro.resilience.faults import FaultDecision, FaultInjector

__all__ = ["GridSiteConfig", "GridConfig", "OpportunisticGrid"]


@dataclass(frozen=True)
class GridSiteConfig:
    """One contributing site (VO resources)."""

    name: str
    slots: int
    speed_mean: float = 1.3
    speed_spread: float = 0.3
    software_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.slots < 0:
            raise ValueError("slots must be >= 0")


def _default_sites() -> tuple[GridSiteConfig, ...]:
    return (
        GridSiteConfig("unl-prairiefire", 120, speed_mean=1.15, software_prob=0.7),
        GridSiteConfig("fnal-gpgrid", 160, speed_mean=1.35, software_prob=0.5),
        GridSiteConfig("ucsd-t2", 100, speed_mean=1.45, software_prob=0.4),
        GridSiteConfig("mwt2", 120, speed_mean=1.30, software_prob=0.5),
        GridSiteConfig("bnl-atlas", 60, speed_mean=1.25, software_prob=0.3),
        GridSiteConfig("osg-flock", 40, speed_mean=1.10, software_prob=0.6),
    )


@dataclass(frozen=True)
class GridConfig:
    """OSG-like parameters (defaults calibrated in repro.perfmodel)."""

    name: str = "osg"
    sites: tuple[GridSiteConfig, ...] = ()
    dispatch_latency_s: float = 5.0
    wait_mean_s: float = 240.0
    wait_sigma: float = 1.1
    wait_spike_prob: float = 0.15
    wait_spike_mean_s: float = 1800.0
    wait_max_s: float = 7200.0
    setup_mean_s: float = 420.0
    setup_sigma: float = 0.45
    setup_max_s: float = 1800.0
    failures: FailureModel = FailureModel(
        start_failure_prob=0.04, eviction_rate_per_s=1.0 / 20000.0
    )
    unmatched_timeout_s: float = 6 * 3600.0

    def __post_init__(self) -> None:
        if self.unmatched_timeout_s <= 0:
            raise ValueError("unmatched_timeout_s must be positive")

    def with_sites(self) -> "GridConfig":
        if self.sites:
            return self
        return replace(self, sites=_default_sites())

    @property
    def total_slots(self) -> int:
        return sum(site.slots for site in self.sites)


class OpportunisticGrid(Platform):
    """Discrete-event OSG model: ClassAd matchmaking over a
    heterogeneous pool, opportunistic waits, per-job download/install
    and native dead-on-arrival and preemption draws."""

    report_after_refill = True

    def __init__(
        self,
        simulator: Simulator,
        config: GridConfig = GridConfig(),
        *,
        streams: RngStreams | None = None,
        bus: EventBus | None = None,
        injector: "FaultInjector | None" = None,
        blacklist: "Blacklist | None" = None,
    ) -> None:
        """``injector`` layers a :class:`~repro.resilience.faults.FaultPlan`
        on top of the calibrated :class:`FailureModel` regime;
        ``blacklist`` is the start-failure circuit breaker — blocked
        machines are excluded from matchmaking until their cooldown
        (if any) expires."""
        super().__init__(simulator, config.with_sites(), bus=bus,
                         injector=injector, blacklist=blacklist)
        streams = streams or RngStreams(seed=0)
        self._wait_rng = streams.stream(f"{self.config.name}.wait")
        self._setup_rng = streams.stream(f"{self.config.name}.setup")
        self._failure_rng = streams.stream(f"{self.config.name}.failures")
        machine_rng = streams.stream(f"{self.config.name}.machines")

        self._machines: list[MachineSpec] = []
        for site in self.config.sites:
            self._machines.extend(
                make_machines(
                    machine_rng,
                    site=site.name,
                    count=site.slots,
                    speed_mean=site.speed_mean,
                    speed_spread=site.speed_spread,
                    software_prob=site.software_prob,
                )
            )
        self._by_name: dict[str, MachineSpec] = {
            m.name: m for m in self._machines
        }
        #: Owns the free list, the machine ads, and all match caches.
        self.matchmaker: Matchmaker = IndexedMatchmaker(self._machines)
        # Jobs that have *arrived* at their slot (setup or payload in
        # progress). ``busy_slots`` counts reserved slots from match
        # time; the paper's utilization numbers must not count the
        # opportunistic-wait window as busy, so the peak is recorded
        # from arrivals (see ``_occupy``), not from matches.
        self._occupied = 0

    def submit(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        *,
        attempt: int = 1,
    ) -> None:
        submit_time = self.now
        ad = self._job_ad(job)
        if job.requirements and not self.matchmaker.matchable(ad):
            # No resource in the entire pool can ever run this job: it
            # idles in the queue until the hold timeout expires.
            timeout = self.config.unmatched_timeout_s

            def hold_expired() -> None:
                record = JobAttempt(
                    job_name=job.name,
                    transformation=job.transformation,
                    site=self.config.name,
                    machine="(unmatched)",
                    attempt=attempt,
                    submit_time=submit_time,
                    setup_start=submit_time + timeout,
                    exec_start=submit_time + timeout,
                    exec_end=submit_time + timeout,
                    status=JobStatus.FAILED,
                    error="no matching resources in the pool",
                )
                self._emit_terminal(record)
                on_complete(record)

            self.simulator.schedule(timeout, hold_expired)
            return
        # The job's ClassAd is built once here and reused on every
        # dispatch pass.
        self._queue.append((job, on_complete, attempt, submit_time, ad))
        self._dispatch()

    @property
    def capacity(self) -> int:
        """Total pool slots (what the service layer sizes quotas by)."""
        return self.matchmaker.pool_size

    @property
    def occupied_slots(self) -> int:
        """Slots actually doing work (setup or payload in progress)."""
        return self._occupied

    def queue_status(self) -> dict[str, int]:
        """``condor_q``-style snapshot: idle vs running.

        A matched job still riding out its opportunistic-wait window
        counts as *idle* — nothing is executing on its behalf yet — so
        utilization sampled from this snapshot is not inflated by slot
        acquisition time.
        """
        waiting_matched = self._busy - self._occupied
        return {
            "idle": len(self._queue) + waiting_matched,
            "running": self._occupied,
        }

    @staticmethod
    def _job_ad(job: DagJob) -> ClassAd:
        return ClassAd(
            name=job.name,
            attributes={"transformation": job.transformation},
            requirements=job.requirements,
            rank="speed",
        )

    def _dispatch(self) -> None:
        matchmaker = self.matchmaker
        if not matchmaker.free_count:
            return
        # The blocked set is computed once per pass and shared by every
        # queued entry.
        blocked: frozenset[str] = frozenset()
        if self.blacklist is not None:
            blocked = frozenset(
                name
                for name in matchmaker.free_names()
                if self.blacklist.is_blocked(
                    name, self._by_name[name].site, now=self.now
                )
            )
        # One pass over the queue in order: unmatched entries rotate to
        # the back, so while an entry is matched the queue holds exactly
        # the entries still unmatched this pass.
        queue = self._queue
        skipped = 0
        for _ in range(len(queue)):
            if not matchmaker.free_count:
                # Pool exhausted mid-pass: nothing behind can match.
                break
            entry = queue.popleft()
            chosen = matchmaker.find(entry[4], blocked=blocked)  # job ad
            if chosen is None:
                queue.append(entry)
                skipped += 1
                continue
            matchmaker.claim(chosen)
            machine = self._by_name[chosen]
            job, on_complete, attempt, submit_time, _ = entry
            self._match(job, attempt, machine)
            wait = self.config.dispatch_latency_s + self._sample_wait()
            self.simulator.schedule(
                wait,
                lambda j=job, cb=on_complete, a=attempt, st=submit_time, m=machine: (
                    self._occupy(j, cb, a, st, m)
                ),
            )
        # Skipped entries go back ahead of the ones this pass never
        # reached: queue order is unchanged.
        queue.rotate(skipped)
        if blocked and queue:
            # Blocks excluded candidates; wake up when the earliest one
            # expires so queued jobs are not stranded until the next
            # completion happens to re-run matchmaking.
            self._schedule_redispatch()

    def _sample_wait(self) -> float:
        rng = self._wait_rng
        if rng.random() < self.config.wait_spike_prob:
            mean = self.config.wait_spike_mean_s
        else:
            mean = self.config.wait_mean_s
        return bounded_lognormal(
            rng, mean, self.config.wait_sigma, high=self.config.wait_max_s
        )

    def _occupy(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        attempt: int,
        submit_time: float,
        machine: MachineSpec,
    ) -> None:
        """The job reached its slot after the opportunistic wait."""
        # The slot only now starts doing work for this job; the sampled
        # waiting window it spent reserved does not count toward peak
        # utilization (the paper's "waiting time" is idle time).
        self._occupied += 1
        self.peak_busy = max(self.peak_busy, self._occupied)
        # Native regime draw comes FIRST, on every arrival, so the
        # calibrated baseline consumes its RNG stream identically with
        # or without an injector layered on top.
        native_doa = self.config.failures.sample_start_failure(
            self._failure_rng
        )
        self._arrive(
            job, on_complete, attempt, submit_time, machine,
            native_doa=(
                "node misconfiguration (dead on arrival)"
                if native_doa else None
            ),
        )

    def _setup(
        self,
        job: DagJob,
        on_complete: Callable[[JobAttempt], None],
        attempt: int,
        submit_time: float,
        machine: MachineSpec,
        decision: "FaultDecision | None",
        evict_in: float,
    ) -> None:
        """Download/install, then the payload. The grid draws nothing on
        arrival (``evict_in`` is ``inf``): its native preemption hazard
        is drawn when the payload starts."""
        setup_start = self.now
        self._emit(EventKind.SETUP_START, job, attempt, machine)
        setup = 0.0
        if job.needs_setup:
            setup = bounded_lognormal(
                self._setup_rng,
                self.config.setup_mean_s,
                self.config.setup_sigma,
                high=self.config.setup_max_s,
            )
        self.simulator.schedule(
            setup,
            lambda: self._execute(
                job, on_complete, attempt, submit_time, setup_start,
                machine, decision,
                self.config.failures.sample_eviction_time(self._failure_rng),
            ),
        )

    def _release(self, machine: MachineSpec, status: JobStatus) -> None:
        self._occupied -= 1
        self.matchmaker.release(machine.name)
