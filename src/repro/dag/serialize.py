"""Serialization of DAG structures (dict / JSON / Graphviz DOT).

The dict format is versioned so saved workloads stay loadable:

.. code-block:: python

    {"version": 1, "name": "fig1", "work": [...], "edges": [[u, v], ...]}
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.dag.graph import DAGStructure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.job import DAGJob

FORMAT_VERSION = 1


def structure_to_dict(structure: DAGStructure) -> dict[str, Any]:
    """Serialize a structure to a plain JSON-compatible dict.

    Converts the work array in one ``tolist`` call and reads the
    successor tuples directly, with no per-element numpy scalar or
    generator step: this runs for every active job in every shard
    snapshot, every steal payload and every pending job in a service
    snapshot (durable log appends use the binary
    :func:`~repro.workloads.serialize.encode_spec`)."""
    return {
        "version": FORMAT_VERSION,
        "name": structure.name,
        "work": structure.work.tolist(),
        "edges": [
            [u, v] for u, succs in enumerate(structure._succ) for v in succs
        ],
    }


def structure_from_dict(data: dict[str, Any]) -> DAGStructure:
    """Rebuild a structure from :func:`structure_to_dict` output."""
    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported DAG format version {version}")
    return DAGStructure(
        data["work"],
        [(int(u), int(v)) for u, v in data.get("edges", ())],
        name=data.get("name", "dag"),
    )


def structure_to_json(structure: DAGStructure, indent: int | None = None) -> str:
    """Serialize a structure to a JSON string."""
    return json.dumps(structure_to_dict(structure), indent=indent)


def structure_from_json(text: str) -> DAGStructure:
    """Rebuild a structure from :func:`structure_to_json` output."""
    return structure_from_dict(json.loads(text))


def job_to_dict(job: "DAGJob") -> dict[str, Any]:
    """Serialize a (possibly partially executed) :class:`DAGJob`:
    structure plus runtime execution state, for checkpointing."""
    return {
        "version": FORMAT_VERSION,
        "structure": structure_to_dict(job.structure),
        "runtime": job.runtime_state_to_dict(),
    }


def job_from_dict(data: dict[str, Any]) -> "DAGJob":
    """Rebuild a :class:`DAGJob` from :func:`job_to_dict` output."""
    from repro.dag.job import DAGJob

    version = data.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported DAG job format version {version}")
    structure = structure_from_dict(data["structure"])
    return DAGJob.from_runtime_state(structure, data["runtime"])


def structure_to_dot(structure: DAGStructure) -> str:
    """Export to Graphviz DOT, labeling nodes ``id (work)``."""
    lines = [f'digraph "{structure.name}" {{']
    for i in range(structure.num_nodes):
        lines.append(f'  n{i} [label="{i} ({structure.work[i]:g})"];')
    for u, v in structure.edges():
        lines.append(f"  n{u} -> n{v};")
    lines.append("}")
    return "\n".join(lines)
