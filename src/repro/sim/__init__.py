"""Discrete-event simulation of workflow execution platforms.

The paper's numbers come from real runs on Sandhills (a campus cluster)
and the Open Science Grid. We reproduce the *mechanics* that the paper
identifies as decisive — dedicated-after-allocation slots on the campus
cluster versus opportunistic slots, per-job download/install overhead,
preemption and retries on OSG — in a deterministic discrete-event
simulator:

* :mod:`repro.sim.engine` — event queue, virtual clock, process helpers,
* :mod:`repro.sim.rng` — named, seeded random streams,
* :mod:`repro.sim.machine` — node/slot descriptions,
* :mod:`repro.sim.network` — stage-in/out transfer model,
* :mod:`repro.sim.failures` — eviction and failure sampling,
* :mod:`repro.sim.platform` — the shared platform kernel: one slot
  lifecycle, fault resolution and event stream for every model below,
* :mod:`repro.sim.cluster` — the Sandhills-like campus cluster,
* :mod:`repro.sim.grid` — the OSG-like opportunistic grid,
* :mod:`repro.sim.matchmaker` — the grid's indexed ClassAd matchmaker
  and its linear-scan test oracle,
* :mod:`repro.sim.cloud` — the on-demand cloud (the paper's future
  work).
"""

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.sim.cluster import CampusCluster, CampusClusterConfig
from repro.sim.grid import OpportunisticGrid, GridConfig

__all__ = [
    "Simulator",
    "RngStreams",
    "CampusCluster",
    "CampusClusterConfig",
    "OpportunisticGrid",
    "GridConfig",
]
