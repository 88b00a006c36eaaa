"""Every gateway-mode spec knob reaches what the builder builds.

For each ``[cluster]``, ``[gateway]`` and ``[autoscale]`` field, a value
other than the base spec's either changes the built gateway, cluster,
coordinator, supervisor or autoscaler, or ``ScenarioSpec.validate``
rejects it.  A knob that does neither is one a user can set while the
run silently ignores it (gateway mode once dropped five coordinator
knobs and ``stats_refresh`` this way).
"""

import dataclasses

import pytest

from repro.errors import ScenarioError
from repro.scenarios import ScenarioBuilder, ScenarioSpec
from repro.scenarios.spec import AutoscaleSection, ClusterSection, GatewaySection

BASE = {
    "scenario": {"mode": "gateway", "seed": 1},
    "workload": {"n_jobs": 20, "m": 8},
    "cluster": {"mode": "inprocess"},
}
COORDINATED = {"cluster.coordinate": True}
SUPERVISED = {"cluster.supervise": True}
AUTOSCALED = {"autoscale.enabled": True}

#: (field, value, overrides under which the field is live)
BUILT = [
    ("cluster.router", "consistent-hash", {}),
    ("cluster.mode", "process", {}),
    ("cluster.coordinate", True, {}),
    ("cluster.coordinate_every", 5, COORDINATED),
    ("cluster.steal_batch", 5, COORDINATED),
    ("cluster.steal_margin", 2.0, COORDINATED),
    ("cluster.max_displaced", 1, COORDINATED),
    ("cluster.max_moves_per_job", 5, COORDINATED),
    ("cluster.checkpoint_every", 10, SUPERVISED),
    ("cluster.supervise", True, {}),
    ("cluster.stats_refresh", 5, {}),
    ("cluster.max_restarts", 2, SUPERVISED),
    ("cluster.heartbeat_timeout", 0.1, SUPERVISED),
    ("cluster.heartbeat_every", 2, SUPERVISED),
    ("cluster.on_exhausted", "degrade", SUPERVISED),
    ("cluster.wal_dir", "wal", SUPERVISED),
    ("cluster.checkpoint_dir", "ckpt", SUPERVISED),
    ("gateway.clock", "wall", {}),
    ("gateway.tick", 0.01, {}),
    ("gateway.steps_per_tick", 10, {}),
    ("gateway.buffer", 64, {}),
    ("gateway.max_dispatch", 4, {}),
    ("gateway.shards_max", 2, {}),
    ("gateway.shards_initial", 2, {}),
    ("gateway.kpi_every", 3, {}),
    ("autoscale.enabled", True, {}),
    ("autoscale.shards_min", 2, AUTOSCALED),
    ("autoscale.high_water", 3.0, AUTOSCALED),
    ("autoscale.up_patience", 2, AUTOSCALED),
    ("autoscale.down_patience", 5, AUTOSCALED),
    ("autoscale.cooldown", 3, AUTOSCALED),
]

#: fields a gateway run has no use for: validate must refuse them
REJECTED = [("cluster.shards", 2)]

#: fields ``Gateway.run`` reads rather than the constructor
RUN_ARGS = [("gateway.max_ticks", 2)]

DIRECTORIES = ("cluster.wal_dir", "cluster.checkpoint_dir")


def _spec(overrides, tmp_path):
    overrides = {
        key: str(tmp_path / value) if key in DIRECTORIES else value
        for key, value in overrides.items()
    }
    return ScenarioSpec.from_dict(BASE).with_overrides(overrides)


def _fields(obj):
    """Type name plus every scalar attribute of one built object."""
    if obj is None:
        return None
    scalars = (bool, int, float, str)
    return type(obj).__name__, {
        name: value
        for name, value in vars(obj).items()
        if isinstance(value, scalars)
    }


def _built(spec):
    """Scalar state of everything the builder constructs for ``spec``."""
    gateway = ScenarioBuilder(spec).setup().runnable
    cluster = gateway.cluster
    coordinator = cluster.coordinator
    supervisor = cluster.supervisor
    parts = {
        "gateway": gateway,
        "buffer": gateway.buffer,
        "clock": gateway.clock,
        "autoscaler": gateway.autoscaler,
        "cluster": cluster,
        "router": cluster.router,
        "coordinator": coordinator,
        "planner": None if coordinator is None else coordinator.planner,
        "supervisor": None if supervisor is None else supervisor.config,
        "log": cluster.logs[0],
        "store": cluster.store,
    }
    return {name: _fields(obj) for name, obj in parts.items()}


def test_every_gateway_mode_field_is_covered():
    fields = {
        f"{section}.{field.name}"
        for section, cls in [
            ("cluster", ClusterSection),
            ("gateway", GatewaySection),
            ("autoscale", AutoscaleSection),
        ]
        for field in dataclasses.fields(cls)
    }
    covered = [path for path, *_ in BUILT + REJECTED + RUN_ARGS]
    assert sorted(covered) == sorted(fields)


@pytest.mark.parametrize(
    "path, value, live", BUILT, ids=[case[0] for case in BUILT]
)
def test_field_changes_the_built_objects(path, value, live, tmp_path):
    base = _spec(live, tmp_path)
    section, key = path.split(".")
    assert getattr(getattr(base, section), key) != value
    changed = _spec({**live, path: value}, tmp_path)
    assert _built(changed) != _built(base)


@pytest.mark.parametrize("path, value", REJECTED)
def test_ignored_field_is_rejected(path, value, tmp_path):
    with pytest.raises(ScenarioError) as info:
        _spec({path: value}, tmp_path)
    assert info.value.location == path


@pytest.mark.parametrize("path, value", RUN_ARGS)
def test_run_argument_changes_the_run(path, value, tmp_path):
    base = ScenarioBuilder(_spec({}, tmp_path)).execute()
    capped = ScenarioBuilder(_spec({path: value}, tmp_path)).execute()
    assert capped.raw.ticks == value < base.raw.ticks


def test_stats_refresh_changes_an_inprocess_run(tmp_path):
    # the default gateway router reads shard stats from the refreshed
    # view in both shard modes, so the refresh interval moves placements
    placements = {
        refresh: ScenarioBuilder(
            _spec(
                {"workload.n_jobs": 200, "cluster.stats_refresh": refresh},
                tmp_path,
            )
        ).execute().raw.submissions
        for refresh in (1, 32)
    }
    assert placements[1] != placements[32]
