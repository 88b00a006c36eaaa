"""Discrete-time multiprocessor simulation substrate.

Realizes the paper's machine model -- ``m`` identical processors,
integer time steps, preemptive execution, speed augmentation -- and
drives pluggable schedulers over workloads of DAG jobs.
"""

from repro.sim.jobs import ActiveJob, CompletionRecord, JobSpec, JobView
from repro.sim.scheduler import Scheduler, SchedulerBase
from repro.sim.picker import (
    NodePicker,
    FIFOPicker,
    LIFOPicker,
    RandomPicker,
    AdversarialPicker,
    CriticalPathPicker,
    make_picker,
)
from repro.sim.engine import RunCounters, SimulationResult, Simulator

__all__ = [
    "ActiveJob",
    "CompletionRecord",
    "JobSpec",
    "JobView",
    "Scheduler",
    "SchedulerBase",
    "NodePicker",
    "FIFOPicker",
    "LIFOPicker",
    "RandomPicker",
    "AdversarialPicker",
    "CriticalPathPicker",
    "make_picker",
    "RunCounters",
    "SimulationResult",
    "Simulator",
]
