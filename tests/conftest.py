"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.dag import DAGBuilder, DAGStructure
from repro.sim import Simulator
from repro.sim._legacy_engine import LegacySimulator


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


#: Engine name -> class: the event engine every layer builds, and the
#: frozen legacy stepper kept as the differential suites' oracle.
ENGINES: dict[str, type] = {"legacy": LegacySimulator, "event": Simulator}


@pytest.fixture(params=list(ENGINES))
def engine_backend(request) -> str:
    """Engine name, parametrized over :data:`ENGINES`.

    Tests taking this fixture run once per engine (the name lands in
    the test id), so differential suites pin the event engine against
    the legacy oracle without duplicating test bodies.
    """
    return request.param


@pytest.fixture
def diamond() -> DAGStructure:
    """4-node diamond: 0 -> {1, 2} -> 3, works 1/2/3/1 (span 5)."""
    b = DAGBuilder("diamond")
    n0 = b.add_node(1.0)
    n1 = b.add_node(2.0)
    n2 = b.add_node(3.0)
    n3 = b.add_node(1.0)
    b.add_edges([(n0, n1), (n0, n2), (n1, n3), (n2, n3)])
    return b.build()


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def random_dags(
    draw,
    max_nodes: int = 12,
    integer_works: bool = True,
    max_work: int = 8,
):
    """Random DAG structures: works in [1, max_work], edges low -> high."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    if integer_works:
        works = draw(
            st.lists(
                st.integers(min_value=1, max_value=max_work),
                min_size=n,
                max_size=n,
            )
        )
        works = [float(w) for w in works]
    else:
        works = draw(
            st.lists(
                st.floats(
                    min_value=0.25,
                    max_value=float(max_work),
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=n,
                max_size=n,
            )
        )
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return DAGStructure(works, edges, name="hypo")


@st.composite
def job_parameters(draw, m_max: int = 16):
    """(work, span, m, epsilon) quadruples satisfying W >= L > 0."""
    m = draw(st.integers(min_value=1, max_value=m_max))
    span = draw(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
    extra = draw(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False))
    epsilon = draw(st.floats(min_value=0.05, max_value=8.0, allow_nan=False))
    return span + extra, span, m, epsilon
