"""Workload serialization: JobSpec lists <-> JSON, and one spec <-> bytes.

Lets experiments persist exact workload artifacts (structures,
arrivals, deadlines, profits, profit functions) for replay across
machines and versions.  :func:`encode_spec` / :func:`decode_spec` are
the compact binary form of a single spec that the durable
write-ahead log frames (:mod:`repro.resilience.wal`).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Sequence

import numpy as np

from repro.dag.graph import DAGStructure
from repro.dag.serialize import structure_from_dict, structure_to_dict
from repro.profit.serialize import profit_fn_from_dict, profit_fn_to_dict
from repro.sim.jobs import JobSpec

FORMAT_VERSION = 1

#: First byte of an :func:`encode_spec` frame.
SPEC_VERSION = 0x02

#: Flags bit: the job carries a profit function (JSON tail follows).
_PROFIT_FN = 0x01

#: ``<version:u8><flags:u8><job_id:i64><arrival:i64><deadline:i64>
#: <profit:f64><nodes:u32><edges:u32><name_len:u32>``, little-endian.
_SPEC_HEAD = struct.Struct("<BBqqqdIII")


def spec_to_dict(spec: JobSpec) -> dict[str, Any]:
    """Serialize one job spec."""
    data: dict[str, Any] = {
        "job_id": spec.job_id,
        "structure": structure_to_dict(spec.structure),
        "arrival": spec.arrival,
    }
    if spec.profit_fn is not None:
        data["profit_fn"] = profit_fn_to_dict(spec.profit_fn)
    else:
        data["deadline"] = spec.deadline
        data["profit"] = spec.profit
    return data


def spec_from_dict(data: dict[str, Any]) -> JobSpec:
    """Rebuild one job spec."""
    structure = structure_from_dict(data["structure"])
    if "profit_fn" in data:
        return JobSpec(
            data["job_id"],
            structure,
            arrival=data["arrival"],
            profit_fn=profit_fn_from_dict(data["profit_fn"]),
        )
    return JobSpec(
        data["job_id"],
        structure,
        arrival=data["arrival"],
        deadline=data["deadline"],
        profit=data.get("profit", 1.0),
    )


def encode_spec(spec: JobSpec) -> bytes:
    """Encode one job spec as a compact binary frame.

    Layout: the :data:`_SPEC_HEAD` header (``deadline`` is 0 for a
    profit-function job), the name in UTF-8, the node works as float64,
    the edges as flat int32 ``(u, v)`` pairs in successor order -- the
    order that rebuilds identical successor tuples -- and, for a
    profit-function job, a JSON tail of ``profit_fn_to_dict``.  All
    numbers little-endian; ``profit`` is stored as a float64.
    :func:`decode_spec` is the inverse.
    """
    structure = spec.structure
    name = structure.name.encode("utf-8")
    edges = [x for u, vs in enumerate(structure._succ) for v in vs for x in (u, v)]
    fn = spec.profit_fn
    parts = [
        _SPEC_HEAD.pack(
            SPEC_VERSION,
            0 if fn is None else _PROFIT_FN,
            spec.job_id,
            spec.arrival,
            0 if spec.deadline is None else spec.deadline,
            spec.profit,
            structure.num_nodes,
            structure.num_edges,
            len(name),
        ),
        name,
        structure.work.astype("<f8", copy=False).tobytes(),
        struct.pack(f"<{len(edges)}i", *edges),
    ]
    if fn is not None:
        parts.append(
            json.dumps(profit_fn_to_dict(fn), separators=(",", ":")).encode("utf-8")
        )
    return b"".join(parts)


def decode_spec(buf: bytes | memoryview) -> JobSpec:
    """Rebuild one job spec from :func:`encode_spec` bytes.

    Checks the length the header implies against the buffer before it
    allocates anything, and validates the DAG through
    :class:`~repro.dag.graph.DAGStructure` exactly as the JSON path
    does.  A buffer shorter than the header raises ``struct.error``;
    every other malformed frame raises ``ValueError`` (or the error the
    spec constructors raise).
    """
    (
        version,
        flags,
        job_id,
        arrival,
        deadline,
        profit,
        nodes,
        edges,
        name_len,
    ) = _SPEC_HEAD.unpack_from(buf)
    if version != SPEC_VERSION:
        raise ValueError(f"unsupported spec frame version {version}")
    if flags & ~_PROFIT_FN:
        raise ValueError(f"unknown spec frame flags {flags:#04x}")
    work_at = _SPEC_HEAD.size + name_len
    edges_at = work_at + 8 * nodes
    end = edges_at + 8 * edges
    has_tail = bool(flags & _PROFIT_FN)
    if end > len(buf) or (end < len(buf)) != has_tail:
        raise ValueError(
            f"spec frame is {len(buf)} bytes but its header implies "
            f"{end}{' plus a profit-function tail' if has_tail else ''}"
        )
    name = bytes(buf[_SPEC_HEAD.size : work_at]).decode("utf-8")
    # a copy, so the structure does not keep the whole frame alive
    work = np.frombuffer(buf, dtype="<f8", count=nodes, offset=work_at).copy()
    flat = np.frombuffer(buf, dtype="<i4", count=2 * edges, offset=edges_at).tolist()
    structure = DAGStructure(work, zip(flat[0::2], flat[1::2]), name=name)
    if has_tail:
        tail = json.loads(bytes(buf[end:]).decode("utf-8"))
        return JobSpec(
            job_id, structure, arrival=arrival, profit_fn=profit_fn_from_dict(tail)
        )
    return JobSpec(job_id, structure, arrival=arrival, deadline=deadline, profit=profit)


def workload_to_json(specs: Sequence[JobSpec], indent: int | None = None) -> str:
    """Serialize a workload to a JSON string."""
    return json.dumps(
        {"version": FORMAT_VERSION, "jobs": [spec_to_dict(sp) for sp in specs]},
        indent=indent,
    )


def workload_from_json(text: str) -> list[JobSpec]:
    """Rebuild a workload from :func:`workload_to_json` output."""
    data = json.loads(text)
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported workload format version {version}")
    return [spec_from_dict(job) for job in data["jobs"]]


def save_workload(specs: Sequence[JobSpec], path: str) -> None:
    """Write a workload JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workload_to_json(specs, indent=2))


def load_workload(path: str) -> list[JobSpec]:
    """Read a workload JSON file."""
    with open(path, encoding="utf-8") as fh:
        return workload_from_json(fh.read())
