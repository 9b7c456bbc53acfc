"""Golden digests for the three simulated platforms.

Each regime seeds a small DAG on one platform model and hashes three
things: every bus event serialized exactly as ``events.jsonl`` writes
it, the ``JobAttempt`` records DAGMan collected, and the platform's
counters. The digests were recorded on the platform code before the
shared :class:`~repro.sim.platform.Platform` kernel existed, so any
change to event order, RNG draw order, record contents or counter
accounting shows up here as a mismatch.

To inspect a mismatch, compare the readable payloads that
``_payloads(platform, regime)`` returns against a checkout of the old
code.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.dagman.dag import Dag, DagJob
from repro.dagman.scheduler import DagmanScheduler
from repro.observe.bus import EventBus, EventRecorder
from repro.observe.log import event_to_json_line
from repro.resilience.blacklist import Blacklist, BlacklistPolicy
from repro.resilience.faults import (
    Eviction,
    FaultInjector,
    FaultPlan,
    Hang,
    Slowdown,
    StartFailure,
)
from repro.sim.cloud import CloudConfig, CloudPlatform
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.engine import Simulator
from repro.sim.failures import FailureModel
from repro.sim.grid import GridConfig, GridSiteConfig, OpportunisticGrid
from repro.sim.rng import RngStreams

SEED = 7


def _dag(
    width: int = 12,
    *,
    runtime: float = 900.0,
    retries: int = 3,
    timeout_s: float | None = None,
    needs_setup: bool = False,
    requirements: str | None = None,
    stranded: str | None = None,
) -> Dag:
    """split → ``width`` varied workers → merge, plus an optional
    ``stranded`` requirement on one extra root job."""
    dag = Dag(name="golden")
    dag.add_job(DagJob(name="split", transformation="split",
                       runtime=60.0, retries=retries))
    for i in range(width):
        dag.add_job(DagJob(
            name=f"work{i:02d}",
            transformation="run_cap3",
            runtime=runtime * (1 + (i % 5)),
            retries=retries,
            needs_setup=needs_setup,
            requirements=requirements if i % 2 else None,
            timeout_s=timeout_s if i % 3 else None,
        ))
        dag.add_edge("split", f"work{i:02d}")
    dag.add_job(DagJob(name="merge", transformation="merge",
                       runtime=120.0, retries=retries))
    for i in range(width):
        dag.add_edge(f"work{i:02d}", "merge")
    if stranded is not None:
        dag.add_job(DagJob(name="stranded", transformation="run_cap3",
                           runtime=100.0, retries=1, requirements=stranded))
    return dag


def _chaos(bus: EventBus) -> FaultInjector:
    plan = FaultPlan((
        StartFailure(0.15),
        Slowdown(0.2, 3.0),
        Hang(0.15),
        Eviction(1.0 / 20000.0),
    ))
    return FaultInjector(plan, rng=RngStreams(seed=SEED).stream("faults"),
                         bus=bus)


def _cluster(sim, streams, bus, regime):
    if regime == "default":
        return CampusCluster(sim, streams=streams, bus=bus), _dag()
    if regime == "faults":
        return CampusCluster(
            sim, CampusClusterConfig(group_slots=6), streams=streams,
            bus=bus, injector=_chaos(bus),
        ), _dag(timeout_s=6000.0, retries=5)
    if regime == "blacklist_all_nodes":
        # Two nodes, every arrival dies: both trip the breaker, the
        # round-robin finds nothing and the redispatch timer fires.
        injector = FaultInjector(
            FaultPlan((StartFailure(0.7),)),
            rng=RngStreams(seed=SEED).stream("faults"), bus=bus,
        )
        blacklist = Blacklist(BlacklistPolicy(threshold=1, cooldown_s=500.0),
                              bus=bus)
        return CampusCluster(
            sim, CampusClusterConfig(nodes=2, cores_per_node=2),
            streams=streams, bus=bus, injector=injector,
            blacklist=blacklist,
        ), _dag(width=6, retries=6)
    raise KeyError(regime)


def _small_grid(**overrides) -> GridConfig:
    return GridConfig(
        sites=(
            GridSiteConfig("east", 6, speed_mean=1.2, software_prob=0.6),
            GridSiteConfig("west", 4, speed_mean=1.4, software_prob=0.3),
        ),
        **overrides,
    )


def _grid(sim, streams, bus, regime):
    if regime == "default":
        return OpportunisticGrid(sim, streams=streams, bus=bus), _dag(
            needs_setup=True, requirements="has_python")
    if regime == "faults":
        return OpportunisticGrid(
            sim, _small_grid(), streams=streams, bus=bus,
            injector=_chaos(bus),
        ), _dag(timeout_s=3000.0, retries=6, needs_setup=True)
    if regime == "blacklist":
        blacklist = Blacklist(BlacklistPolicy(threshold=1, cooldown_s=700.0),
                              bus=bus)
        return OpportunisticGrid(
            sim,
            _small_grid(failures=FailureModel(start_failure_prob=0.3,
                                              eviction_rate_per_s=1e-4)),
            streams=streams, bus=bus, blacklist=blacklist,
        ), _dag(width=14, retries=6, needs_setup=True)
    if regime == "unmatched_hold":
        return OpportunisticGrid(
            sim, _small_grid(unmatched_timeout_s=3600.0), streams=streams,
            bus=bus,
        ), _dag(needs_setup=True, requirements="has_cap3",
                stranded="has_python and site == 'nowhere'")
    raise KeyError(regime)


def _cloud(sim, streams, bus, regime):
    if regime == "default":
        return CloudPlatform(sim, streams=streams, bus=bus), _dag()
    if regime == "faults":
        return CloudPlatform(
            sim, CloudConfig(max_instances=5), streams=streams, bus=bus,
            injector=_chaos(bus),
        ), _dag(timeout_s=6000.0, retries=5)
    if regime == "warm_reuse_idle":
        # Capacity-bound fan-out: instances go warm, are reused by the
        # queue, then idle out while the long workers finish.
        return CloudPlatform(
            sim, CloudConfig(max_instances=4, idle_timeout_s=200.0),
            streams=streams, bus=bus,
        ), _dag(width=10)
    if regime == "spot":
        return CloudPlatform(
            sim,
            CloudConfig(max_instances=6, spot_discount=0.3,
                        failures=FailureModel(eviction_rate_per_s=1 / 3000)),
            streams=streams, bus=bus,
        ), _dag(retries=8)
    raise KeyError(regime)


#: The counters each model exposes (named per platform, so a kernel
#: attribute one model gains does not move another model's digest).
COUNTERS = {
    CampusCluster: ("peak_busy", "busy_slots", "eviction_count",
                    "start_failure_count", "timeout_count"),
    OpportunisticGrid: ("peak_busy", "busy_slots", "occupied_slots",
                        "eviction_count", "start_failure_count",
                        "timeout_count"),
    CloudPlatform: ("peak_instances", "reclaim_count", "start_failure_count",
                    "timeout_count", "running_instances"),
}


def _counters(env) -> dict:
    out = {
        "now": env.now,
        "processed": env.simulator.processed,
        "queue_status": env.queue_status(),
    }
    for attr in COUNTERS[type(env)]:
        out[attr] = getattr(env, attr)
    if isinstance(env, CloudPlatform):
        out["billed_cost"] = env.billed_cost()
        out["instance_seconds"] = env.instance_seconds()
    if isinstance(env, OpportunisticGrid):
        out["matchmaker"] = vars(env.matchmaker.stats)
    if env.injector is not None:
        out["faults_fired"] = env.injector.fired
    if getattr(env, "blacklist", None) is not None:
        out["blacklist_trips"] = env.blacklist.trips
    return out


BUILDERS = {"cluster": _cluster, "grid": _grid, "cloud": _cloud}

REGIMES = [
    ("cluster", "default"),
    ("cluster", "faults"),
    ("cluster", "blacklist_all_nodes"),
    ("grid", "default"),
    ("grid", "faults"),
    ("grid", "blacklist"),
    ("grid", "unmatched_hold"),
    ("cloud", "default"),
    ("cloud", "faults"),
    ("cloud", "warm_reuse_idle"),
    ("cloud", "spot"),
]


def _payloads(platform: str, regime: str, *, observed: bool = True):
    sim = Simulator()
    streams = RngStreams(seed=SEED)
    bus = EventBus()
    recorder = EventRecorder(bus) if observed else None
    env, dag = BUILDERS[platform](sim, streams, bus, regime)
    result = DagmanScheduler(dag, env, bus=bus).run()
    events = "".join(
        event_to_json_line(e) + "\n" for e in (recorder.events if recorder
                                               else ())
    )
    records = "\n".join(repr(a) for a in result.trace)
    counters = json.dumps(_counters(env), sort_keys=True, default=str)
    return events, records, counters, result


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fingerprint(platform: str, regime: str) -> dict[str, str]:
    events, records, counters, _ = _payloads(platform, regime)
    return {
        "events": _digest(events),
        "records": _digest(records),
        "counters": _digest(counters),
    }


GOLDEN: dict[tuple[str, str], dict[str, str]] = {
    ('cluster', 'default'): {
        'events': '97babe9b31d58f0f7c6401e0cf33db603dc94924faac208b86d0d63e72eae353',
        'records': 'b8065d1ae48ec363592e512545148d969094b72e4b8130c5a066592294bcc694',
        'counters': '9de76214d9dcdf7963d97ca371757031a2d13b33bb5cfbfe77050a9369ff6a05',
    },
    ('cluster', 'faults'): {
        'events': '01d0e64956803cd09fd4e331de231aa349338580eb5091eae49c3dd14b59845a',
        'records': '8d1423d75ba0f14bc448cf7a7eff77cef94dc3c4c1ed9bc2e97e92027d3c543f',
        'counters': '0a15b7759b163a256a872f634f8119c49284e710be90de9c283080630881e0fe',
    },
    ('cluster', 'blacklist_all_nodes'): {
        'events': '71ba3716e2007ca183a58b40c4a8075b948f6a1cc76f553fa428f4fd2aa49016',
        'records': '7803e5d79389207e8161ebe8043884e01b31a0348f033a7b164004a280ac76d8',
        'counters': '0ed80fcfd026d10483215b395656d5528194d2eb8fedd7a87724dbb321c0a547',
    },
    ('grid', 'default'): {
        'events': '3a48d8fb4250428364486e59be6ffa5264c186cef5b1b2bf0d612241a8c3becf',
        'records': '43cb1d743e5e562f19b52a7060d79a23800b4be1311372f746064774b7cd7578',
        'counters': '9da0240b235901dca1cb018df51fc694fede291536b867f6adcc7416fd403b11',
    },
    ('grid', 'faults'): {
        'events': '083c5db2d8bf946bfdc4367b19285bf063d669d51ed05d4b9c3d4273f94b2630',
        'records': '70939b92df64058db7d24d71b451ae2db8ae9834b05b6acc54a21c4862d2dd1a',
        'counters': '3fdda06f4a809f2fda1b5d6ca71e1fb59ee09ada6dfb40346b470a4e2069f2d1',
    },
    ('grid', 'blacklist'): {
        'events': '349f1f5a5ea31827e02080660c14c72c3c1b10a6e530f9db55b65a142fa045ad',
        'records': 'c980c48414ea2a75e1f3bb9c4e7ad8dec985372a0b5223f4ba63f319dd2acc79',
        'counters': '3e6508927463f2802d216ae7b512de079b3f9e4447bd317fe27eccca0901f03c',
    },
    ('grid', 'unmatched_hold'): {
        'events': '03cbadf88ad7dc88a2be3ca286aac53a74e27e7c50e0a6036ea7c5e0dc8bf57f',
        'records': 'ab623957bf8451c73ff38803289b4c91c4edd9ceeea691e39b48b29e7b4858f9',
        'counters': '2501081e982fe0d8c97ed6f331b1f675c3a82891223ccc5fb8d7705f84cc7cf3',
    },
    ('cloud', 'default'): {
        'events': '9c9a9281aa97d65b04fcd95fd3ad05aa0d88943e415bb28abf3e86406b79abf5',
        'records': '08fce514936364d1e7c86c863a4685bfad8c646a759f4493c05bfc2fcb63abab',
        'counters': 'f821775de5cf2f40e575a4401eb67105c3898f50fc5cc12a1a8c0a6f2e588b78',
    },
    ('cloud', 'faults'): {
        'events': '71e6c97ca5d7e4c1fd67da6014b4603c2ac9183736be216b51a424f1cecdbeb9',
        'records': 'b6a17b7b734610d775a207cdb26b384408fb7b222303d4106743106700b86905',
        'counters': 'ce2ccb6f0c55be16e44aa60e927e28310adfa55e9b7350da0c3e77498b503df3',
    },
    ('cloud', 'warm_reuse_idle'): {
        'events': '5cd4e730f8e590ce83d2bf75131985a2b339362ea213c360354ae90d75842351',
        'records': '4e24ac848ab9aeaa09c0db6063a4c9669ee9a67780cca001d112d0c64fa60010',
        'counters': '3d73b74c6040f37e706876d678afda66142b8ec035c188b017802a352c447494',
    },
    ('cloud', 'spot'): {
        'events': '7b41bcbe453232fb24c631c5cca9194a10c747f7c609174eca3a4fe9c04e5f1c',
        'records': 'f8511ab93e573b6a7af6f57c21a91da73492ae255ad46d6c5bd3aace8f8919b7',
        'counters': 'e0d60bdf70c5550affffc572238ec78bb8da341e903f61b9840c5d02c0eac20b',
    },
}


@pytest.mark.parametrize(("platform", "regime"), REGIMES,
                         ids=[f"{p}-{r}" for p, r in REGIMES])
def test_golden_digest(platform, regime):
    assert _fingerprint(platform, regime) == GOLDEN[(platform, regime)]


@pytest.mark.parametrize(("platform", "regime"), REGIMES,
                         ids=[f"{p}-{r}" for p, r in REGIMES])
def test_unobserved_run_makes_the_same_records(platform, regime):
    """A deaf bus skips event construction; the simulation itself must
    not notice (same records, same RNG draws, same counters)."""
    _, records, counters, _ = _payloads(platform, regime)
    _, deaf_records, deaf_counters, _ = _payloads(platform, regime,
                                                  observed=False)
    assert deaf_records == records
    assert deaf_counters == counters


def test_regimes_reach_the_paths_they_name():
    """Guard the fixtures: each regime must exercise its path, or its
    digest pins nothing."""
    def run(platform, regime):
        events, records, counters, result = _payloads(platform, regime)
        return events, records, json.loads(counters), result

    events, _, counters, _ = run("cluster", "faults")
    for needle in ('"job.timeout"', '"job.evict"', '"slowdown"', '"hang"'):
        assert needle in events
    assert counters["start_failure_count"] > 0

    _, _, counters, _ = run("cluster", "blacklist_all_nodes")
    assert counters["blacklist_trips"] >= 2

    events, _, counters, _ = run("grid", "faults")
    assert counters["timeout_count"] > 0 and counters["eviction_count"] > 0
    assert '"job.setup_start"' in events

    _, records, _, _ = run("grid", "unmatched_hold")
    assert "no matching resources in the pool" in records

    _, _, counters, _ = run("grid", "blacklist")
    assert counters["blacklist_trips"] > 0

    _, records, counters, _ = run("cloud", "warm_reuse_idle")
    assert counters["peak_instances"] == 4
    assert counters["running_instances"] == 0  # all idled out

    _, _, counters, _ = run("cloud", "spot")
    assert counters["reclaim_count"] > 0
