"""Component registry: every pluggable piece of the stack, by name.

The scenario subsystem treats schedulers, node pickers, routers,
shed policies, arrival processes, DAG families, profit samplers, fault
schedules, autoscalers and clocks uniformly as *components*: a
``(kind, name)`` pair mapping to a factory.  A
:class:`ComponentRegistry` holds them; the module-level
:data:`REGISTRY` is the shared instance every CLI and the
:class:`~repro.scenarios.spec.ScenarioSpec` validator consult.

Components are registered either with the :func:`register` decorator::

    @register("scheduler", "my-policy", summary="demo policy")
    class MyPolicy: ...

or imperatively (how the shims in
:mod:`repro.scenarios.components` adopt the pre-existing registries)::

    REGISTRY.register("router", "least-loaded", LeastLoadedRouter)

Duplicate registration is an error (:class:`~repro.errors.ScenarioError`)
unless ``replace=True`` is passed -- silent overwrites are how two
subsystems end up disagreeing about what a name means.  Unknown-name
lookups raise a :class:`~repro.errors.ScenarioError` that names the
nearest registered components, so a typo in a spec or CLI flag comes
back as ``did you mean 'least-loaded'?`` instead of a bare KeyError.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

from repro.errors import ScenarioError


@dataclass(frozen=True)
class Component:
    """One registered component: its factory plus catalog metadata."""

    kind: str
    name: str
    factory: Callable[..., Any]
    #: one-line catalog description (defaults to the factory's docstring)
    summary: str = ""
    #: free-form metadata (e.g. ``{"accepts_epsilon": True}``)
    meta: dict = field(default_factory=dict)

    def create(self, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component."""
        return self.factory(*args, **kwargs)


def _first_doc_line(obj: Any) -> str:
    doc = getattr(obj, "__doc__", None) or ""
    return doc.strip().split("\n")[0].strip()


class ComponentRegistry:
    """Named components bucketed by kind, with typo-tolerant lookup."""

    def __init__(self) -> None:
        self._kinds: dict[str, dict[str, Component]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        kind: str,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        summary: Optional[str] = None,
        replace: bool = False,
        **meta: Any,
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``(kind, name)``.

        Without ``factory`` this returns a decorator, so both the
        imperative and the ``@register(...)`` forms work.  Registering
        a name twice raises :class:`~repro.errors.ScenarioError` unless
        ``replace=True``: a duplicate is almost always two modules
        fighting over the same name, and the loser's users deserve a
        loud failure rather than whichever import ran last.
        """

        def _do_register(fn: Callable[..., Any]) -> Callable[..., Any]:
            bucket = self._kinds.setdefault(kind, {})
            if name in bucket and not replace:
                existing = bucket[name].factory
                raise ScenarioError(
                    f"duplicate registration of {kind} component {name!r}: "
                    f"already provided by {getattr(existing, '__module__', '?')}."
                    f"{getattr(existing, '__qualname__', repr(existing))} "
                    f"(pass replace=True to override deliberately)",
                    location=f"{kind}.{name}",
                )
            bucket[name] = Component(
                kind=kind,
                name=name,
                factory=fn,
                summary=summary if summary is not None else _first_doc_line(fn),
                meta=dict(meta),
            )
            return fn

        if factory is None:
            return _do_register
        return _do_register(factory)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def kinds(self) -> list[str]:
        """Every kind with at least one component, sorted."""
        return sorted(k for k, bucket in self._kinds.items() if bucket)

    def names(self, kind: str) -> list[str]:
        """Registered names of one kind, sorted ('' when kind unknown)."""
        return sorted(self._kinds.get(kind, {}))

    def has(self, kind: str, name: str) -> bool:
        """Whether ``(kind, name)`` is registered."""
        return name in self._kinds.get(kind, {})

    def suggest(self, kind: str, name: str, n: int = 3) -> list[str]:
        """Nearest registered names of ``kind`` to a (misspelt) ``name``."""
        return difflib.get_close_matches(
            name, self.names(kind), n=n, cutoff=0.4
        )

    def get(self, kind: str, name: str) -> Component:
        """Look up a component; unknown names raise with suggestions."""
        bucket = self._kinds.get(kind)
        if bucket is None or not bucket:
            raise ScenarioError(
                f"unknown component kind {kind!r}; "
                f"known kinds: {self.kinds()}",
                location=kind,
                suggestions=difflib.get_close_matches(
                    kind, self.kinds(), n=3, cutoff=0.4
                ),
            )
        try:
            return bucket[name]
        except KeyError:
            suggestions = self.suggest(kind, name)
            hint = (
                f"; did you mean {suggestions[0]!r}?" if suggestions else ""
            )
            raise ScenarioError(
                f"unknown {kind} {name!r}{hint} "
                f"valid {kind} names: {self.names(kind)}",
                location=f"{kind}.{name}",
                suggestions=suggestions,
            ) from None

    def create(self, kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate ``(kind, name)`` with the given arguments."""
        return self.get(kind, name).create(*args, **kwargs)

    # ------------------------------------------------------------------
    # Catalog
    # ------------------------------------------------------------------
    def catalog(self) -> list[Component]:
        """Every component, sorted by (kind, name) -- the docs table."""
        return [
            bucket[name]
            for kind in self.kinds()
            for name in self.names(kind)
            for bucket in [self._kinds[kind]]
        ]

    def __iter__(self) -> Iterator[Component]:
        return iter(self.catalog())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._kinds.values())


#: The process-wide registry every CLI and spec validator share.
REGISTRY = ComponentRegistry()


def register(
    kind: str,
    name: str,
    factory: Optional[Callable[..., Any]] = None,
    **kwargs: Any,
) -> Callable[..., Any]:
    """Register on the shared :data:`REGISTRY` (decorator-friendly)."""
    return REGISTRY.register(kind, name, factory, **kwargs)
