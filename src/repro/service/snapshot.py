"""Checkpoint/restore for the whole scheduling service.

A service snapshot is one JSON document bundling the engine session
(:meth:`repro.sim.engine.Simulator.snapshot_state`), the scheduler's
state (:meth:`repro.sim.scheduler.SchedulerBase.snapshot_state`), the
ingest queue, the shed log and the telemetry values.  Restoring into a
fresh process and finishing the stream yields *bit-identical* profit
and records to the uninterrupted run -- the property the
kill-and-restore tests pin down with the replay harness
(:mod:`repro.service.replay`).

Scheduler instances are not pickled: the caller constructs a scheduler
of the same type (same constructor arguments) and the snapshot restores
its dynamic state.  The snapshot records the scheduler's class name and
refuses to restore into a different type.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Optional

from repro.errors import SimulationError
from repro.service.queue import QueuedJob, make_shed_policy
from repro.service.service import SchedulingService, ShedRecord
from repro.service.telemetry import MetricsRegistry
from repro.sim.picker import NodePicker
from repro.sim.scheduler import Scheduler
from repro.workloads.serialize import spec_from_dict, spec_to_dict

#: Service snapshot format version (bump on incompatible change).
SNAPSHOT_VERSION = 1

#: Top-level snapshot sections and the JSON type each must have.
_SECTIONS = {
    "service": dict,
    "engine": dict,
    "scheduler": dict,
    "queue": list,
    "shed": list,
    "metrics": dict,
}


def service_to_dict(service: SchedulingService) -> dict[str, Any]:
    """Serialize a running service to a JSON-compatible dict."""
    if not service.sim.started:
        raise SimulationError("service has no open session to snapshot")
    return {
        "version": SNAPSHOT_VERSION,
        "service": {
            "capacity": service.queue.capacity,
            "policy": service.queue.policy.name,
            "max_in_flight": service.max_in_flight,
            "sample_every": service.sample_every,
            "queue_accepted": service.queue.accepted,
            "queue_shed": service.queue.shed,
            "last_sample_t": service._last_sample_t,
        },
        "engine": service.sim.snapshot_state(),
        "scheduler": {
            "type": type(service.sim.scheduler).__name__,
            "state": service.sim.scheduler.snapshot_state(),
        },
        "queue": [
            {
                "spec": spec_to_dict(entry.spec),
                "enqueued_at": entry.enqueued_at,
                "density": entry.density,
            }
            for entry in service.queue.entries()
        ],
        "shed": [
            {
                "job_id": rec.job_id,
                "time": rec.time,
                "reason": rec.reason,
                "density": rec.density,
                "profit": rec.profit,
            }
            for rec in service.shed_log
        ],
        "metrics": service.metrics.state_to_dict(),
    }


def service_from_dict(
    data: dict[str, Any],
    scheduler: Scheduler,
    *,
    picker: Optional[NodePicker] = None,
    metrics: Optional[MetricsRegistry] = None,
    recorder: Optional[Any] = None,
) -> SchedulingService:
    """Rebuild a service from a :func:`service_to_dict` snapshot.

    ``scheduler`` must be a fresh instance of the snapshotted type
    (constructed with the same arguments); its dynamic state is restored
    from the snapshot.  ``metrics`` may be a fresh registry (e.g. with a
    new JSONL sink); metric values are restored into it.

    A snapshot of the wrong shape -- a missing or ill-typed key at any
    depth -- raises :class:`~repro.errors.SimulationError` naming it.
    """
    if not isinstance(data, dict):
        raise SimulationError(
            f"service snapshot must be an object, got {type(data).__name__}"
        )
    if data.get("version") != SNAPSHOT_VERSION:
        raise SimulationError(
            f"unsupported service snapshot version {data.get('version')!r}"
        )
    for key, kind in _SECTIONS.items():
        if key not in data:
            raise SimulationError(f"service snapshot has no {key!r} key")
        if not isinstance(data[key], kind):
            raise SimulationError(
                f"service snapshot key {key!r} must be a {kind.__name__}, "
                f"got {type(data[key]).__name__}"
            )
    sched_type = data["scheduler"].get("type")
    if type(scheduler).__name__ != sched_type:
        raise SimulationError(
            f"snapshot was taken with scheduler {sched_type!r}, "
            f"got {type(scheduler).__name__!r}"
        )
    try:
        return _restore(data, scheduler, picker, metrics, recorder)
    except KeyError as exc:
        raise SimulationError(
            f"service snapshot is missing key {exc}"
        ) from exc
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise SimulationError(
            f"service snapshot has an ill-typed value: {exc}"
        ) from exc


def _restore(
    data: dict[str, Any],
    scheduler: Scheduler,
    picker: Optional[NodePicker],
    metrics: Optional[MetricsRegistry],
    recorder: Optional[Any],
) -> SchedulingService:
    """The restore proper, over a snapshot whose sections are checked."""
    svc_cfg = data["service"]
    engine_cfg = data["engine"]["config"]
    service = SchedulingService(
        m=engine_cfg["m"],
        scheduler=scheduler,
        capacity=svc_cfg["capacity"],
        shed_policy=make_shed_policy(svc_cfg["policy"]),
        max_in_flight=svc_cfg["max_in_flight"],
        speed=engine_cfg["speed"],
        picker=picker,
        horizon=engine_cfg["horizon"],
        preemption_overhead=engine_cfg["preemption_overhead"],
        metrics=metrics,
        sample_every=svc_cfg["sample_every"],
        recorder=recorder,
    )
    views = service.sim.restore_state(data["engine"])
    scheduler.restore_state(data["scheduler"]["state"], views)
    for entry in data["queue"]:
        service.queue._entries.append(
            QueuedJob(
                spec=spec_from_dict(entry["spec"]),
                enqueued_at=int(entry["enqueued_at"]),
                density=float(entry["density"]),
            )
        )
    service.queue.accepted = int(svc_cfg["queue_accepted"])
    service.queue.shed = int(svc_cfg["queue_shed"])
    service.shed_log = [
        ShedRecord(
            job_id=int(rec["job_id"]),
            time=int(rec["time"]),
            reason=str(rec["reason"]),
            density=float(rec["density"]),
            profit=float(rec["profit"]),
        )
        for rec in data["shed"]
    ]
    service.metrics.restore_from_dict(data["metrics"])
    last = svc_cfg["last_sample_t"]
    service._last_sample_t = None if last is None else int(last)
    return service


def save_snapshot(service: SchedulingService, path: str) -> None:
    """Write a service snapshot to a JSON file, durably.

    A ``<path>.sha256`` sidecar carries the digest of the exact file
    bytes; :func:`load_snapshot` verifies it so bit rot or a torn write
    surfaces as a clear error instead of a JSON parse failure (or a
    silently wrong restore) deep inside recovery.
    """
    body = json.dumps(service_to_dict(service)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(body)
        fh.flush()
        os.fsync(fh.fileno())
    digest = hashlib.sha256(body).hexdigest()
    with open(path + ".sha256", "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def load_snapshot(
    path: str,
    scheduler: Scheduler,
    *,
    picker: Optional[NodePicker] = None,
    metrics: Optional[MetricsRegistry] = None,
    recorder: Optional[Any] = None,
) -> SchedulingService:
    """Read a JSON snapshot file and rebuild the service.

    When a ``<path>.sha256`` sidecar exists the file bytes are verified
    against it first; a mismatch raises
    :class:`~repro.errors.SimulationError`.  Snapshots written before
    the sidecar existed (or whose sidecar was deleted) load unchecked:
    bytes that do not decode as UTF-8 JSON, like a document of the
    wrong shape, raise ``SimulationError``.
    """
    with open(path, "rb") as fh:
        body = fh.read()
    sidecar = path + ".sha256"
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            expected = fh.read().strip()
        actual = hashlib.sha256(body).hexdigest()
        if actual != expected:
            raise SimulationError(
                f"snapshot {path} failed its digest check "
                f"(expected {expected[:12]}..., got {actual[:12]}...)"
            )
    try:
        data = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise SimulationError(
            f"snapshot {path} does not decode: {exc}"
        ) from exc
    return service_from_dict(
        data, scheduler, picker=picker, metrics=metrics, recorder=recorder
    )
