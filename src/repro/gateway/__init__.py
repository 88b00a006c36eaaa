"""Real-time open-loop traffic gateway over the elastic cluster.

Turns the batch-replay reproduction into a *service*: a fixed-timestep
loop maps wall-clock time onto the simulation's integer clock, seeded
arrival processes (Poisson, diurnal, flash-crowd, heavy-tailed user
sessions) generate open-loop traffic, a bounded ingest buffer applies
front-door backpressure, a hysteresis autoscaler resizes the active
shard prefix live, and a KPI aggregator publishes rolling profit rate,
shed fraction and p50/p99 admission latency on an SSE/JSONL feed.

Because all timing flows through a swappable :class:`Clock`, the same
loop runs paced against the wall clock in production mode and at full
CPU speed under a :class:`VirtualClock` in tests -- where seeded runs
are bit-identical, autoscaling included.

Package map
-----------
* :mod:`repro.gateway.clock` -- the wall/virtual time seam.
* :mod:`repro.gateway.load` -- seeded open-loop traffic generation.
* :mod:`repro.gateway.ingest` -- bounded front-door buffering.
* :mod:`repro.gateway.autoscale` -- hysteresis shard-count control.
* :mod:`repro.gateway.kpi` -- KPI snapshots and the fan-out feed.
* :mod:`repro.gateway.server` -- stdlib HTTP/SSE serving of the feed.
* :mod:`repro.gateway.gateway` -- the fixed-timestep loop itself.

From the shell, ``repro-scenario run examples/scenarios/gateway.toml``
runs it (``--serve PORT`` and ``--kpi PATH`` attach the feed's
outputs).
"""

from repro.gateway.autoscale import Autoscaler, ScaleDecision
from repro.gateway.clock import Clock, VirtualClock, WallClock
from repro.gateway.gateway import Gateway, GatewayResult
from repro.gateway.ingest import DroppedSubmission, IngestBuffer
from repro.gateway.kpi import KpiAggregator, KpiFeed
from repro.gateway.load import (
    ARRIVAL_PROCESSES,
    LoadConfig,
    LoadGenerator,
)
from repro.gateway.server import KpiServer

__all__ = [
    "ARRIVAL_PROCESSES",
    "Autoscaler",
    "Clock",
    "DroppedSubmission",
    "Gateway",
    "GatewayResult",
    "IngestBuffer",
    "KpiAggregator",
    "KpiFeed",
    "KpiServer",
    "LoadConfig",
    "LoadGenerator",
    "ScaleDecision",
    "VirtualClock",
    "WallClock",
]
