"""Constructor shim for the supervised cluster.

Supervision is a configuration of :class:`~repro.cluster.service.
ClusterService` (``supervisor=`` a config), not a class of its own.
:func:`ResilientClusterService` keeps the historical constructor
signature and defaults: a default supervisor, ``checkpoint_every=64``
and :data:`~repro.resilience.rpc.DEFAULT_RPC_POLICY`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.resilience.rpc import DEFAULT_RPC_POLICY, RpcPolicy
from repro.resilience.supervisor import SupervisorConfig


def ResilientClusterService(
    m: int,
    k: int,
    *,
    supervisor: Any = None,
    checkpoint_every: Optional[int] = 64,
    rpc: Optional[RpcPolicy] = DEFAULT_RPC_POLICY,
    **options: Any,
) -> Any:
    """A supervised :class:`~repro.cluster.service.ClusterService`
    (``supervisor=None`` means the default supervisor).

    Other keyword arguments pass through to the cluster.
    """
    # repro.cluster.service imports this package's building blocks
    from repro.cluster.service import ClusterService

    return ClusterService(
        m,
        k,
        supervisor=SupervisorConfig() if supervisor is None else supervisor,
        checkpoint_every=checkpoint_every,
        rpc=rpc,
        **options,
    )
