"""Declarative scenario specs: one document describes a full run.

A :class:`ScenarioSpec` names everything the four run shapes need --
workload, engine, scheduler, service limits, cluster topology,
faults, gateway pacing, autoscaling, tracing -- as plain data.  Specs
load from TOML or JSON (:func:`load_spec`), validate every component
name against the shared registry (unknown names and unknown keys raise
:class:`~repro.errors.ScenarioError` carrying the nearest registered
match), serialize canonically (:meth:`ScenarioSpec.to_dict` always
materializes every field in a fixed order) and therefore fingerprint
deterministically: two specs are the same scenario iff
:meth:`ScenarioSpec.fingerprint` agrees.

TOML has no null, so optional integers use ``0 = off/unbounded`` and
optional strings use ``""``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import tomllib
from dataclasses import dataclass, field
from typing import Any, Optional, Union

from repro.errors import ClusterError, ScenarioError
from repro.scenarios.components import install_default_components
from repro.scenarios.registry import REGISTRY

#: Run shapes a scenario can build.
MODES = ("batch", "service", "cluster", "gateway")


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSection:
    """The traffic: how many jobs, shaped how, arriving how."""

    #: "" = auto (open-loop for gateway mode, generated otherwise)
    kind: str = ""
    #: named workload-preset applied under explicit keys ("" = none)
    preset: str = ""
    n_jobs: int = 1000
    m: int = 8
    load: float = 2.0
    family: str = "mixed"
    epsilon: float = 1.0
    deadline_policy: str = "slack"
    slack_low: float = 1.0
    slack_high: float = 2.0
    tight_factor: float = 1.0
    profit: str = "uniform"
    #: -1 = inherit the scenario seed
    seed: int = -1
    process: str = "poisson"
    period: int = 400
    amplitude: float = 0.6
    spike_fraction: float = 0.2
    session_alpha: float = 1.5


@dataclass(frozen=True)
class EngineSection:
    """The simulation core under the run."""

    speed: float = 1.0
    picker: str = "fifo"
    #: 0 = no horizon
    horizon: int = 0
    preemption_overhead: float = 0.0


@dataclass(frozen=True)
class SchedulerSection:
    """Which policy decides, and its constructor kwargs."""

    name: str = "sns"
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ServiceSection:
    """Admission-control limits around the engine."""

    capacity: int = 128
    shed_policy: str = "reject-lowest-density"
    #: 0 = unbounded
    max_in_flight: int = 0
    #: 0 = sample at every decision point
    sample_every: int = 0


@dataclass(frozen=True)
class ClusterSection:
    """Sharded topology (used by cluster and gateway modes)."""

    shards: int = 1
    #: "" = mode default (consistent-hash, least-loaded for gateway,
    #: band-aware when coordinated)
    router: str = ""
    mode: str = "process"
    coordinate: bool = False
    coordinate_every: int = 64
    steal_batch: int = 64
    steal_margin: float = 3.0
    max_displaced: int = 3
    max_moves_per_job: int = 2
    checkpoint_every: int = 64
    supervise: bool = False
    stats_refresh: int = 32
    #: supervisor knobs (used when the cluster is supervised)
    max_restarts: int = 5
    heartbeat_timeout: float = 0.5
    heartbeat_every: int = 16
    #: "raise" or "degrade" once a shard's restart budget is spent
    on_exhausted: str = "raise"
    #: durable per-shard write-ahead logs ("" = in-memory logs;
    #: supervised clusters only)
    wal_dir: str = ""
    #: digest-verified on-disk checkpoint store ("" = in-memory
    #: checkpoints; supervised clusters only)
    checkpoint_dir: str = ""


@dataclass(frozen=True)
class FaultsSection:
    """Injected failures.

    ``kind`` is ``"none"``, a ``"chaos"`` schedule, or any single
    chaos kind by name (``"crash"``, ``"steal-interrupt"``, ...) fired
    once at ``shard``/``at``.  Every fault supervises the cluster.
    """

    kind: str = "none"
    shard: int = 0
    at: int = 0
    #: chaos spec string ("kind:shard:at,..." or "seed:N")
    chaos: str = ""


@dataclass(frozen=True)
class GatewaySection:
    """Real-time pacing (gateway mode only)."""

    clock: str = "virtual"
    tick: float = 0.05
    steps_per_tick: int = 20
    buffer: int = 4096
    #: 0 = drain all buffered work every tick
    max_dispatch: int = 0
    #: 0 = run until the stream drains
    max_ticks: int = 0
    shards_max: int = 4
    #: 0 = start with shards_max active
    shards_initial: int = 0
    kpi_every: int = 1


@dataclass(frozen=True)
class AutoscaleSection:
    """Hysteresis autoscaler knobs (gateway mode only)."""

    enabled: bool = False
    shards_min: int = 1
    high_water: float = 2.0
    up_patience: int = 1
    down_patience: int = 60
    cooldown: int = 20


@dataclass(frozen=True)
class TracingSection:
    """Structured decision tracing."""

    enabled: bool = False
    path: str = ""


#: Section name -> dataclass, in canonical document order.
SECTIONS: dict[str, type] = {
    "workload": WorkloadSection,
    "engine": EngineSection,
    "scheduler": SchedulerSection,
    "service": ServiceSection,
    "cluster": ClusterSection,
    "faults": FaultsSection,
    "gateway": GatewaySection,
    "autoscale": AutoscaleSection,
    "tracing": TracingSection,
}

#: Keys allowed in the [scenario] header.
_HEADER_KEYS = ("name", "mode", "seed")


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: header plus the nine sections."""

    name: str = "scenario"
    mode: str = "service"
    seed: int = 0
    workload: WorkloadSection = field(default_factory=WorkloadSection)
    engine: EngineSection = field(default_factory=EngineSection)
    scheduler: SchedulerSection = field(default_factory=SchedulerSection)
    service: ServiceSection = field(default_factory=ServiceSection)
    cluster: ClusterSection = field(default_factory=ClusterSection)
    faults: FaultsSection = field(default_factory=FaultsSection)
    gateway: GatewaySection = field(default_factory=GatewaySection)
    autoscale: AutoscaleSection = field(default_factory=AutoscaleSection)
    tracing: TracingSection = field(default_factory=TracingSection)

    # -- derived values -------------------------------------------------
    def workload_seed(self) -> int:
        """The workload's effective seed (scenario seed unless overridden)."""
        return self.workload.seed if self.workload.seed >= 0 else self.seed

    def workload_kind(self) -> str:
        """Resolve the ``""`` auto workload kind for this mode."""
        if self.workload.kind:
            return self.workload.kind
        return "open-loop" if self.mode == "gateway" else "generated"

    def supervised(self) -> bool:
        """Whether the cluster runs under a shard supervisor.

        Asked for by ``cluster.supervise``, or implied by any fault.
        """
        return self.cluster.supervise or self.faults.kind != "none"

    def shard_count(self) -> int:
        """Shards the run's cluster has: ``gateway.shards_max`` in
        gateway mode, else ``cluster.shards``.  Every fault targets one
        of them."""
        if self.mode == "gateway":
            return self.gateway.shards_max
        return self.cluster.shards

    def router_name(self) -> str:
        """Resolve the ``""`` auto router for this mode."""
        if self.cluster.router:
            return self.cluster.router
        if self.cluster.coordinate:
            return "band-aware"
        return "least-loaded" if self.mode == "gateway" else "consistent-hash"

    # -- canonical serialization ---------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Canonical nested dict: every field materialized, fixed order."""
        doc: dict[str, Any] = {
            "scenario": {
                "name": self.name,
                "mode": self.mode,
                "seed": self.seed,
            }
        }
        for section, cls in SECTIONS.items():
            value = getattr(self, section)
            doc[section] = {
                f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(cls)
            }
        return doc

    def to_json(self) -> str:
        """Canonical JSON (the fingerprint's input)."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_toml(self) -> str:
        """Canonical TOML document (what ``--dump-scenario`` emits)."""
        return dumps_toml(self.to_dict())

    def fingerprint(self) -> str:
        """SHA-256 of the canonical serialization.

        Two specs describe the same scenario iff their fingerprints
        match; :meth:`ScenarioResult.fingerprint
        <repro.scenarios.builder.ScenarioResult.fingerprint>` is the
        run-output counterpart.
        """
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ScenarioSpec":
        """Build and validate a spec from a (possibly partial) dict."""
        install_default_components()
        if not isinstance(doc, dict):
            raise ScenarioError(
                f"scenario document must be a table, got {type(doc).__name__}"
            )
        known = ["scenario", *SECTIONS]
        for key in doc:
            if key not in known:
                raise ScenarioError(
                    _unknown_key_message("section", key, known),
                    location=key,
                    suggestions=_close(key, known),
                )
        header = doc.get("scenario", {})
        _check_keys("scenario", header, _HEADER_KEYS)
        fields: dict[str, Any] = {
            "name": _coerce("scenario.name", str, header.get("name", "scenario")),
            "mode": _coerce("scenario.mode", str, header.get("mode", "service")),
            "seed": _coerce("scenario.seed", int, header.get("seed", 0)),
        }
        for section, section_cls in SECTIONS.items():
            data = dict(doc.get(section, {}))
            _check_keys(
                section,
                data,
                [f.name for f in dataclasses.fields(section_cls)],
            )
            if section == "workload" and data.get("preset"):
                data = _apply_preset(data)
            kwargs = {}
            for f in dataclasses.fields(section_cls):
                if f.name not in data:
                    continue
                kwargs[f.name] = _coerce(
                    f"{section}.{f.name}", f.type, data[f.name]
                )
            fields[section] = section_cls(**kwargs)
        spec = cls(**fields)
        spec.validate()
        return spec

    def validate(self) -> None:
        """Check mode, component names and numeric sanity.

        Raises :class:`~repro.errors.ScenarioError` pointing at the
        offending location, with nearest-name suggestions for unknown
        components.
        """
        install_default_components()
        if self.mode not in MODES:
            raise ScenarioError(
                f"unknown scenario mode {self.mode!r}; valid modes: "
                f"{list(MODES)}",
                location="scenario.mode",
                suggestions=_close(self.mode, MODES),
            )
        _check_component("scheduler.name", "scheduler", self.scheduler.name)
        _check_component("engine.picker", "picker", self.engine.picker)
        if self.mode in ("cluster", "gateway") and self.engine.picker != "fifo":
            raise ScenarioError(
                f"engine.picker = {self.engine.picker!r} is batch/service"
                f" only; {self.mode} shards run the default 'fifo' picker",
                location="engine.picker",
            )
        _check_component("workload.family", "dag-family", self.workload.family)
        _check_component("workload.profit", "profit", self.workload.profit)
        _check_component(
            "workload.process", "arrival-process", self.workload.process
        )
        if self.workload.preset:
            _check_component(
                "workload.preset", "workload-preset", self.workload.preset
            )
        _check_component(
            "service.shed_policy", "shed-policy", self.service.shed_policy
        )
        if self.cluster.router:
            _check_component("cluster.router", "router", self.cluster.router)
        if (
            self.mode in ("cluster", "gateway")
            and self.cluster.router == "band-aware"
            and not self.cluster.coordinate
        ):
            raise ScenarioError(
                "cluster.router = 'band-aware' needs cluster.coordinate = "
                "true; without the coordinator's band ledger it places "
                "every job as 'consistent-hash' does",
                location="cluster.router",
                suggestions=["consistent-hash"],
            )
        if self.faults.kind == "kill":
            raise ScenarioError(
                "faults.kind = 'kill' was removed; a supervised 'crash' "
                "kills and recovers a shard",
                location="faults.kind",
                suggestions=["crash"],
            )
        _check_component("faults.kind", "faults", self.faults.kind)
        _check_component("gateway.clock", "clock", self.gateway.clock)
        if self.workload.kind and self.workload.kind not in (
            "generated",
            "open-loop",
        ):
            raise ScenarioError(
                f"unknown workload kind {self.workload.kind!r}; valid: "
                "['generated', 'open-loop'] (or '' = auto)",
                location="workload.kind",
                suggestions=_close(
                    self.workload.kind, ("generated", "open-loop")
                ),
            )
        if self.workload.deadline_policy not in ("slack", "tight"):
            raise ScenarioError(
                f"unknown deadline policy "
                f"{self.workload.deadline_policy!r}; valid: "
                "['slack', 'tight']",
                location="workload.deadline_policy",
            )
        if self.cluster.mode not in ("inprocess", "process"):
            raise ScenarioError(
                f"unknown cluster mode {self.cluster.mode!r}; valid: "
                "['inprocess', 'process']",
                location="cluster.mode",
            )
        if self.cluster.on_exhausted not in ("raise", "degrade"):
            raise ScenarioError(
                f"unknown on_exhausted policy {self.cluster.on_exhausted!r}; "
                "valid: ['raise', 'degrade']",
                location="cluster.on_exhausted",
                suggestions=_close(
                    self.cluster.on_exhausted, ("raise", "degrade")
                ),
            )
        self._check_ranges()
        if self.faults.kind == "chaos":
            self._check_chaos()
        for key in ("wal_dir", "checkpoint_dir"):
            if getattr(self.cluster, key) and not (
                self.mode in ("cluster", "gateway") and self.supervised()
            ):
                raise ScenarioError(
                    f"cluster.{key} needs a supervised cluster; set "
                    "cluster.supervise = true (or inject chaos faults)",
                    location=f"cluster.{key}",
                )
        if self.mode == "gateway" and self.workload_kind() != "open-loop":
            raise ScenarioError(
                "gateway mode paces open-loop traffic; set workload.kind "
                "= 'open-loop' (or leave it '' for auto)",
                location="workload.kind",
            )

    def _check_chaos(self) -> None:
        """``faults.chaos`` must be ``seed:N`` or a schedule whose every
        event names a known kind and one of the run's shards."""
        text = self.faults.chaos
        if not text:
            raise ScenarioError(
                "faults.kind = 'chaos' needs faults.chaos "
                "('kind:shard:at,...' or 'seed:N')",
                location="faults.chaos",
            )
        if text.startswith("seed:"):
            try:
                int(text.split(":", 1)[1])
            except ValueError:
                raise ScenarioError(
                    f"faults.chaos = {text!r}: the seed must be an integer",
                    location="faults.chaos",
                ) from None
            return
        from repro.resilience.chaos import FAULT_KINDS, ChaosSchedule

        try:
            events = ChaosSchedule.parse(text).events
        except ClusterError as exc:
            kinds = [part.split(":")[0].strip() for part in text.split(",")]
            unknown = [kind for kind in kinds if kind not in FAULT_KINDS]
            raise ScenarioError(
                f"faults.chaos: {exc}",
                location="faults.chaos",
                suggestions=_close(unknown[0], FAULT_KINDS) if unknown else [],
            ) from None
        shards = self.shard_count()
        for event in events:
            if event.shard >= shards:
                raise ScenarioError(
                    f"faults.chaos: event {event.kind}:{event.shard}:"
                    f"{event.at} targets shard {event.shard}, but the "
                    f"run has {shards} shard(s)",
                    location="faults.chaos",
                )

    def _check_ranges(self) -> None:
        """Numeric bounds: an out-of-range value fails here, naming its
        key, instead of deep inside the constructor it reaches."""
        w, e, c, f = self.workload, self.engine, self.cluster, self.faults
        g, a = self.gateway, self.autoscale
        shards = self.shard_count()
        clustered = self.mode == "cluster"
        targeted = f.kind not in ("none", "chaos")  # one chaos kind
        slack = w.deadline_policy == "slack"
        # (location, value, least, most); most = None is unbounded
        for location, value, least, most in [
            ("workload.n_jobs", w.n_jobs, 1, None),
            ("workload.m", w.m, 1, None),
            ("workload.slack_low", w.slack_low, 1.0 if slack else 0.0, None),
            ("workload.slack_high", w.slack_high, w.slack_low, None),
            ("engine.horizon", e.horizon, 0, None),
            ("engine.preemption_overhead", e.preemption_overhead, 0.0, None),
            ("service.capacity", self.service.capacity, 1, None),
            ("service.max_in_flight", self.service.max_in_flight, 0, None),
            ("service.sample_every", self.service.sample_every, 0, None),
            ("cluster.shards", c.shards, 1, w.m if clustered else None),
            ("cluster.coordinate_every", c.coordinate_every, 1, None),
            ("cluster.steal_batch", c.steal_batch, 1, None),
            ("cluster.max_displaced", c.max_displaced, 0, None),
            ("cluster.max_moves_per_job", c.max_moves_per_job, 1, None),
            ("cluster.checkpoint_every", c.checkpoint_every, 1, None),
            ("cluster.stats_refresh", c.stats_refresh, 1, None),
            ("cluster.max_restarts", c.max_restarts, 0, None),
            ("cluster.heartbeat_every", c.heartbeat_every, 1, None),
            ("faults.shard", f.shard, 0, shards - 1 if targeted else None),
            ("faults.at", f.at, 0, None),
            ("gateway.shards_max", g.shards_max, 1, None),
            ("gateway.shards_initial", g.shards_initial, 0, g.shards_max),
            ("gateway.steps_per_tick", g.steps_per_tick, 1, None),
            ("gateway.buffer", g.buffer, 1, None),
            ("gateway.max_dispatch", g.max_dispatch, 0, None),
            ("gateway.max_ticks", g.max_ticks, 0, None),
            ("gateway.kpi_every", g.kpi_every, 1, None),
            ("autoscale.shards_min", a.shards_min, 1, g.shards_max),
            ("autoscale.up_patience", a.up_patience, 1, None),
            ("autoscale.down_patience", a.down_patience, 1, None),
            ("autoscale.cooldown", a.cooldown, 0, None),
        ]:
            if value < least or (most is not None and value > most):
                bound = (
                    f">= {least}" if most is None else f"in [{least}, {most}]"
                )
                raise ScenarioError(
                    f"{location} must be {bound}, got {value}",
                    location=location,
                )
        for location, value in [
            ("workload.load", w.load),
            ("workload.epsilon", w.epsilon),
            ("engine.speed", e.speed),
            ("cluster.heartbeat_timeout", c.heartbeat_timeout),
            ("gateway.tick", g.tick),
            ("autoscale.high_water", a.high_water),
        ]:
            if value <= 0:
                raise ScenarioError(
                    f"{location} must be positive, got {value}",
                    location=location,
                )
        if c.steal_margin <= 1:
            raise ScenarioError(
                f"cluster.steal_margin must be > 1, got {c.steal_margin}",
                location="cluster.steal_margin",
            )
        if not 0 <= w.spike_fraction < 1:
            raise ScenarioError(
                f"workload.spike_fraction must be in [0, 1), got "
                f"{w.spike_fraction}",
                location="workload.spike_fraction",
            )
        if self.mode in ("batch", "service") and c.shards != 1:
            raise ScenarioError(
                f"cluster.shards = {c.shards} has no effect in {self.mode} "
                "mode, which runs one machine pool; set scenario.mode = "
                "'cluster' to shard the run",
                location="cluster.shards",
            )
        if self.mode == "gateway":
            self._check_gateway_cluster()
            if w.m % g.shards_max:
                raise ScenarioError(
                    f"gateway.shards_max must divide workload.m = {w.m} "
                    f"(elastic shards are fixed-size), got {g.shards_max}",
                    location="gateway.shards_max",
                )

    def _check_gateway_cluster(self) -> None:
        """The ``[cluster]`` key a gateway run would ignore: its elastic
        cluster takes its size from ``gateway.shards_max``."""
        shards = self.cluster.shards
        if shards != ClusterSection.shards:
            raise ScenarioError(
                f"cluster.shards = {shards} has no effect in gateway "
                "mode; size it with gateway.shards_max",
                location="cluster.shards",
            )

    def with_overrides(
        self, overrides: dict[str, Any]
    ) -> "ScenarioSpec":
        """Copy with dotted-path overrides applied and re-validated.

        ``{"scheduler.name": "edf", "cluster.shards": 4}`` -- the
        mechanism under matrix axes and the CLI's ``--set``.

        An explicit ``workload.preset`` override re-applies the
        preset's keys *over* the current values: the canonical dict
        materializes every field, so the load-time "preset fills
        unset keys" merge would otherwise make preset overrides (and
        ``workload=`` matrix axes) silent no-ops.
        """
        doc = self.to_dict()
        for path, value in overrides.items():
            parts = path.split(".")
            if len(parts) == 1 and parts[0] in _HEADER_KEYS:
                parts = ["scenario", parts[0]]
            if parts == ["workload", "preset"] and value:
                component = REGISTRY.get("workload-preset", value)
                doc["workload"].update(component.create())
                doc["workload"]["preset"] = value
                continue
            if len(parts) == 3 and parts[:2] == ["scheduler", "kwargs"]:
                doc["scheduler"].setdefault("kwargs", {})[parts[2]] = value
                continue
            if len(parts) != 2:
                raise ScenarioError(
                    f"override path {path!r} must be section.key",
                    location=path,
                )
            section, key = parts
            if section not in doc:
                raise ScenarioError(
                    _unknown_key_message("section", section, list(doc)),
                    location=path,
                    suggestions=_close(section, list(doc)),
                )
            doc[section][key] = value
        return ScenarioSpec.from_dict(doc)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def loads_spec(text: str, format: str = "auto") -> ScenarioSpec:
    """Parse a spec from TOML or JSON text (``format`` = toml|json|auto)."""
    if format not in ("auto", "toml", "json"):
        raise ScenarioError(f"unknown spec format {format!r}")
    if format in ("auto", "json"):
        stripped = text.lstrip()
        if format == "json" or stripped.startswith("{"):
            try:
                return ScenarioSpec.from_dict(json.loads(text))
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"invalid JSON spec: {exc}") from exc
    try:
        return ScenarioSpec.from_dict(tomllib.loads(text))
    except tomllib.TOMLDecodeError as exc:
        raise ScenarioError(f"invalid TOML spec: {exc}") from exc


def load_spec(path: Union[str, pathlib.Path]) -> ScenarioSpec:
    """Load a spec file; format sniffed from suffix then content."""
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario spec {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        return loads_spec(text, format="json")
    if path.suffix.lower() == ".toml":
        return loads_spec(text, format="toml")
    return loads_spec(text, format="auto")


# ----------------------------------------------------------------------
# Minimal TOML emitter (stdlib tomllib is read-only)
# ----------------------------------------------------------------------
def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # repr is shortest-exact, so tomllib parses back the same bits
        text = repr(value)
        return text if ("." in text or "e" in text or "n" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)
    raise ScenarioError(
        f"cannot serialize {type(value).__name__} value {value!r} to TOML"
    )


def dumps_toml(doc: dict[str, Any]) -> str:
    """Serialize a (two-level, scalar-leaf) spec dict as TOML."""
    lines: list[str] = []
    for section, data in doc.items():
        subtables = {
            k: v for k, v in data.items() if isinstance(v, dict)
        }
        lines.append(f"[{section}]")
        for key, value in data.items():
            if key in subtables:
                continue
            lines.append(f"{key} = {_toml_value(value)}")
        for key, sub in subtables.items():
            if not sub:
                continue
            lines.append("")
            lines.append(f"[{section}.{key}]")
            for sub_key, sub_value in sub.items():
                lines.append(f"{sub_key} = {_toml_value(sub_value)}")
        lines.append("")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in sorted(value.items())}
    return value


def _close(name: str, candidates) -> list[str]:
    import difflib

    return difflib.get_close_matches(name, list(candidates), n=3, cutoff=0.4)


def _unknown_key_message(what: str, key: str, known) -> str:
    suggestions = _close(key, known)
    hint = f"; did you mean {suggestions[0]!r}?" if suggestions else ""
    return f"unknown {what} {key!r}{hint} valid: {sorted(known)}"


def _check_keys(section: str, data: dict, known) -> None:
    if not isinstance(data, dict):
        raise ScenarioError(
            f"[{section}] must be a table, got {type(data).__name__}",
            location=section,
        )
    for key in data:
        if key not in known:
            raise ScenarioError(
                f"[{section}] " + _unknown_key_message("key", key, known),
                location=f"{section}.{key}",
                suggestions=_close(key, known),
            )


def _check_component(location: str, kind: str, name: str) -> None:
    try:
        REGISTRY.get(kind, name)
    except ScenarioError as exc:
        raise ScenarioError(
            f"{location}: {exc}",
            location=location,
            suggestions=exc.suggestions,
        ) from None


def _apply_preset(data: dict[str, Any]) -> dict[str, Any]:
    """Merge a named workload preset under the explicit keys."""
    preset = data["preset"]
    component = None
    try:
        component = REGISTRY.get("workload-preset", preset)
    except ScenarioError as exc:
        raise ScenarioError(
            f"workload.preset: {exc}",
            location="workload.preset",
            suggestions=exc.suggestions,
        ) from None
    overrides = component.create()
    return {**overrides, **data}


_TYPE_NAMES = {"int": int, "float": float, "bool": bool, "str": str, "dict": dict}


def _coerce(location: str, annotation: Any, value: Any) -> Any:
    """Coerce a parsed scalar to the field's type, strictly.

    Ints promote to float fields; bool is never accepted as int (TOML
    and JSON both distinguish them, and ``shards = true`` is a bug).
    """
    expected = annotation if isinstance(annotation, type) else _TYPE_NAMES.get(
        str(annotation)
    )
    if expected is None:
        return value
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if expected is int and isinstance(value, bool):
        raise ScenarioError(
            f"{location} must be an integer, got a boolean", location=location
        )
    if not isinstance(value, expected):
        raise ScenarioError(
            f"{location} must be {expected.__name__}, got "
            f"{type(value).__name__} {value!r}",
            location=location,
        )
    if expected is dict:
        return {str(k): v for k, v in value.items()}
    return value
