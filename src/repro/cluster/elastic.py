"""Constructor shim for the elastic cluster.

Elasticity is a configuration of :class:`~repro.cluster.service.
ClusterService` (``k_initial=`` an int), not a class of its own.
:func:`ElasticCluster` keeps the historical constructor signature and
its ``least-loaded`` router default.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.cluster.service import ClusterService


def ElasticCluster(
    m: int,
    k_max: int,
    *,
    k_initial: Optional[int] = None,
    router: Any = "least-loaded",
    **options: Any,
) -> ClusterService:
    """An elastic :class:`~repro.cluster.service.ClusterService` over
    ``k_max`` equal units, ``k_initial`` (default all) active at start.

    Other keyword arguments pass through to the cluster.
    """
    return ClusterService(
        m,
        k_max,
        k_initial=k_max if k_initial is None else k_initial,
        router=router,
        **options,
    )
