"""Registration shims: adopt every pre-existing pluggable piece.

The codebase grew half a dozen hand-rolled name tables before the
component registry existed -- ``SCHEDULER_REGISTRY``, ``ROUTERS``,
``SHED_POLICIES``, ``PICKERS``, ``FAMILIES``, ``PROFIT_SAMPLERS``,
``ARRIVAL_PROCESSES``.  :func:`install_default_components` folds all
of them (plus clocks, fault schedules, autoscalers and
workload presets) into the shared
:data:`~repro.scenarios.registry.REGISTRY` exactly once, so scenario
specs, CLIs and docs all draw component names from one place.

The install is idempotent and deferred: importing
``repro.scenarios`` does *not* drag in the cluster, gateway or
resilience stacks -- the heavy imports happen inside the install call,
which every registry consumer makes lazily.
"""

from __future__ import annotations

from typing import Any

from repro.scenarios.registry import REGISTRY

#: Component kinds the default install populates, in catalog order.
KINDS = (
    "scheduler",
    "picker",
    "router",
    "shed-policy",
    "arrival-process",
    "dag-family",
    "profit",
    "profit-fn",
    "workload-preset",
    "faults",
    "autoscaler",
    "clock",
)

_installed = False


def install_default_components() -> None:
    """Populate :data:`REGISTRY` with every built-in component (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    _install_schedulers()
    _install_pickers()
    _install_routers()
    _install_shed_policies()
    _install_workloads()
    _install_faults()
    _install_autoscalers()
    _install_clocks()


# ----------------------------------------------------------------------
# Schedulers: the paper's S plus every baseline and ablation.
# ----------------------------------------------------------------------
def _install_schedulers() -> None:
    from repro.baselines import (
        AdmissionEDF,
        DoublingNonClairvoyant,
        EagerPromotionSNS,
        FederatedScheduler,
        FIFOScheduler,
        GlobalEDF,
        GreedyDensity,
        LeastLaxityFirst,
        RandomScheduler,
        SNSNoAdmission,
        SNSWorkDensity,
        WorkConservingSNS,
    )
    from repro.core.sns import SNSScheduler

    # accepts_epsilon marks schedulers whose constructor takes the
    # paper's slack parameter; the builder threads workload.epsilon
    # into them exactly like the CLIs' hand-rolled kwargs did.
    for name, factory, takes_eps in [
        ("sns", SNSScheduler, True),
        ("fifo", FIFOScheduler, False),
        ("edf", GlobalEDF, False),
        ("llf", LeastLaxityFirst, False),
        ("greedy", GreedyDensity, False),
        ("random", RandomScheduler, False),
        ("eager-promotion", EagerPromotionSNS, True),
        ("sns-no-admission", SNSNoAdmission, True),
        ("sns-work-density", SNSWorkDensity, True),
        ("work-conserving", WorkConservingSNS, True),
        ("federated", FederatedScheduler, False),
        ("nonclairvoyant", DoublingNonClairvoyant, True),
        ("admission-edf", AdmissionEDF, False),
    ]:
        REGISTRY.register(
            "scheduler", name, factory, accepts_epsilon=takes_eps
        )


def _install_pickers() -> None:
    from repro.sim.picker import PICKERS

    for name, cls in PICKERS.items():
        REGISTRY.register("picker", name, cls)


def _install_routers() -> None:
    from repro.cluster.router import ROUTERS

    for name, cls in ROUTERS.items():
        REGISTRY.register("router", name, cls)


def _install_shed_policies() -> None:
    from repro.service.queue import SHED_POLICIES

    for name, cls in SHED_POLICIES.items():
        REGISTRY.register("shed-policy", name, cls)


# ----------------------------------------------------------------------
# Workload space: arrival processes, DAG families, profit samplers,
# and named presets (partial workload sections by name).
# ----------------------------------------------------------------------
def _install_workloads() -> None:
    from repro.workloads.dag_families import FAMILIES, make_family, mixture
    from repro.workloads.profits import (
        PROFIT_FN_SAMPLERS,
        PROFIT_SAMPLERS,
    )

    # Arrival shapes are config switches on the load generator, not
    # classes; register a descriptor factory so the names still
    # validate and appear in the catalog.
    for name, summary in [
        ("poisson", "Memoryless arrivals at the calibrated rate."),
        ("diurnal", "Sinusoidal day/night rate modulation."),
        ("flash-crowd", "Baseline traffic with a concentrated spike."),
        ("sessions", "Pareto-sized session trains (heavy-tailed)."),
    ]:
        REGISTRY.register(
            "arrival-process", name, _named(name), summary=summary
        )

    for name, factory in FAMILIES.items():
        REGISTRY.register("dag-family", name, factory)
    REGISTRY.register(
        "dag-family",
        "mixed",
        lambda: mixture([factory() for factory in FAMILIES.values()]),
        summary="Uniform mixture over every registered family.",
    )
    assert make_family  # imported for its side of the contract

    for name, factory in PROFIT_SAMPLERS.items():
        REGISTRY.register("profit", name, factory)
    for name, factory in PROFIT_FN_SAMPLERS.items():
        REGISTRY.register("profit-fn", name, factory)

    # Named presets: partial [workload] sections a spec or matrix axis
    # can apply by name (spec values still win over preset values).
    for name, overrides, summary in [
        (
            "steady",
            {"load": 1.0, "process": "poisson"},
            "Saturation-rate Poisson traffic (load = capacity).",
        ),
        (
            "light",
            {"load": 0.5, "process": "poisson"},
            "Half-capacity Poisson traffic.",
        ),
        (
            "overload",
            {"load": 3.0, "process": "poisson"},
            "3x-capacity overload (admission control decides profit).",
        ),
        (
            "diurnal",
            {"load": 1.2, "process": "diurnal", "kind": "open-loop"},
            "Day/night sinusoid peaking above capacity.",
        ),
        (
            "flash-crowd",
            {"load": 1.0, "process": "flash-crowd", "kind": "open-loop"},
            "Steady traffic with a 20% spike burst.",
        ),
        (
            "heavy-tail",
            {"load": 1.0, "process": "sessions", "kind": "open-loop"},
            "Pareto session trains at saturation rate.",
        ),
        (
            "tight-deadlines",
            {"deadline_policy": "tight"},
            "Clairvoyant-limit deadlines (violates Theorem 2's slack).",
        ),
    ]:
        REGISTRY.register(
            "workload-preset", name, _named(name, dict(overrides)),
            summary=summary,
        )


# ----------------------------------------------------------------------
# Faults, autoscalers, clocks.
# ----------------------------------------------------------------------
def _install_faults() -> None:
    from repro.resilience.chaos import (
        COORDINATION_FAULT_KINDS,
        CORE_FAULT_KINDS,
    )

    REGISTRY.register(
        "faults", "none", _named("none", {}),
        summary="Fault-free run (the default).",
    )
    REGISTRY.register(
        "faults", "chaos", _named("chaos", {}),
        summary="Scripted or seeded chaos schedule (crash/hang/slow-rpc/...).",
    )
    # every chaos kind is also a standalone fault: one seeded event at
    # ``faults.shard`` / ``faults.at`` over a supervised cluster
    core = {
        "crash": "Crash one shard; supervised checkpoint+WAL recovery.",
        "hang": "Hang one shard past its heartbeat deadline.",
        "slow-rpc": "Inflate one shard's command latency.",
        "pipe-drop": "Sever one shard's command channel mid-run.",
        "corrupt-checkpoint": "Corrupt a checkpoint; recovery falls back.",
    }
    coordination = {
        "steal-interrupt": (
            "Kill the steal donor between transaction phases; the "
            "journal replays to exactly-one placement."
        ),
        "scale-during-crash": (
            "Crash a shard and resize the elastic prefix in the same "
            "tick."
        ),
        "ledger-partition": (
            "Stale the coordinator's band ledger; routing degrades to "
            "anchors until the next refresh."
        ),
        "tick-stall": (
            "Freeze one gateway tick (no dispatch, no autoscale); "
            "deadline-aware retry absorbs the stall."
        ),
    }
    for kind in CORE_FAULT_KINDS:
        REGISTRY.register("faults", kind, _named(kind, {}), summary=core[kind])
    for kind in COORDINATION_FAULT_KINDS:
        REGISTRY.register(
            "faults", kind, _named(kind, {}), summary=coordination[kind]
        )


def _install_autoscalers() -> None:
    from repro.gateway.autoscale import Autoscaler

    REGISTRY.register(
        "autoscaler", "none", _named("none", {}),
        summary="Fixed shard count (no autoscaling).",
    )
    REGISTRY.register("autoscaler", "hysteresis", Autoscaler)


def _install_clocks() -> None:
    from repro.gateway.clock import VirtualClock, WallClock

    REGISTRY.register("clock", "wall", WallClock)
    REGISTRY.register("clock", "virtual", VirtualClock)


class _named:
    """Factory for enum-like components: returns its name (and payload).

    Some components are configuration switches rather than classes --
    an arrival process is a branch inside the load generator, a
    workload preset is a dict of overrides.  Registering them through
    this descriptor keeps name validation, suggestions and the catalog
    uniform across real and enum-like components.
    """

    def __init__(self, name: str, payload: Any = None) -> None:
        self.name = name
        self.payload = payload
        self.__doc__ = None

    def __call__(self) -> Any:
        return self.name if self.payload is None else dict(self.payload)
