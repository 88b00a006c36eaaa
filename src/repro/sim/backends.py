"""Engine backend selection: one name, three interchangeable cores.

Every layer that constructs a simulation engine -- services, cluster
shards, scenario specs, benchmarks, CLIs -- selects it through this
module so a backend name means the same thing everywhere:

``event``
    The reference event-driven object engine
    (:class:`~repro.sim.engine.Simulator`).  Full feature surface:
    streaming, snapshots, tracing, validation, pickers.
``array``
    The numpy struct-of-arrays core
    (:class:`~repro.sim.array_engine.ArraySimulator`), bit-identical to
    ``event`` and faster on multi-job hot paths; configurations the
    array loop cannot serve delegate to the event loop internally, so
    it is always safe to select.
``legacy``
    The frozen pre-rewrite oracle
    (:class:`~repro.sim._legacy_engine.LegacySimulator`).  Batch and
    streaming only -- no snapshot/restore, no live-job migration -- and
    deliberately unoptimized; useful as an independent differential
    reference, not for production runs.

The scenario component registry (``repro.scenarios.components``)
re-exposes the same names; this module exists so lower layers (service,
cluster) can resolve backends without importing the scenario system.
"""

from __future__ import annotations

from typing import Any

from repro.sim._legacy_engine import LegacySimulator
from repro.sim.array_engine import ArraySimulator
from repro.sim.engine import Simulator

#: Backend name -> engine class.  All three accept the positional/keyword
#: core of the ``Simulator`` signature (``m``, ``scheduler``, ``picker``,
#: ``speed``, ``horizon``, ``preemption_overhead``); only ``event`` and
#: ``array`` accept the observability extras (``recorder``, ``profiler``,
#: ``validate``) and the snapshot/migration API.
ENGINE_BACKENDS: dict[str, type] = {
    "event": Simulator,
    "array": ArraySimulator,
    "legacy": LegacySimulator,
}

#: Backends with the full service/cluster surface (streaming snapshots,
#: ``extract_active``/``inject_active`` migration).
SERVICE_BACKENDS: tuple[str, ...] = ("event", "array")


def resolve_backend(name: str) -> type:
    """Map a backend name to its engine class.

    Raises ``ValueError`` (with the valid names) for unknown backends.
    """
    try:
        return ENGINE_BACKENDS[name]
    except KeyError:
        valid = ", ".join(sorted(ENGINE_BACKENDS))
        raise ValueError(
            f"unknown engine backend {name!r}; valid backends: {valid}"
        ) from None


def make_engine(backend: str, /, **kwargs: Any):
    """Construct an engine of the named backend.

    ``kwargs`` are forwarded to the backend class unchanged; see
    :data:`ENGINE_BACKENDS` for which backends accept which extras.
    """
    return resolve_backend(backend)(**kwargs)
