"""Process-parallel execution of the synthetic sweeps."""

from repro.parallel.engine import (
    EngineConfig,
    Progress,
    TaskError,
    TaskFailure,
    run_tasks,
)
from repro.parallel.pool import pool_context, resolve_processes

__all__ = [
    "EngineConfig",
    "Progress",
    "TaskError",
    "TaskFailure",
    "pool_context",
    "resolve_processes",
    "run_tasks",
]
