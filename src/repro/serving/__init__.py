"""The multi-tenant serving tier (ISSUE 7).

Async admission, query coalescing, batch execution, and a
closed-loop workload generator on top of the verification engine.
"""

from repro.serving.clock import MonotonicClock, VirtualClock
from repro.serving.metrics import SchedulerMetrics, batch_bucket, percentile
from repro.serving.scheduler import (
    PendingQuery,
    QueryScheduler,
    ServeOutcome,
    ServingConfig,
    TokenBucket,
)
from repro.serving.workload import (
    Arrival,
    DriveResult,
    WorkloadSpec,
    build_catalog,
    drive_scheduler,
    drive_serial,
    generate_arrivals,
    percentile_table,
    scope_wildcard_seeds,
    simulated_client_of,
)

__all__ = [
    "Arrival",
    "DriveResult",
    "MonotonicClock",
    "PendingQuery",
    "QueryScheduler",
    "SchedulerMetrics",
    "ServeOutcome",
    "ServingConfig",
    "TokenBucket",
    "VirtualClock",
    "WorkloadSpec",
    "batch_bucket",
    "build_catalog",
    "drive_scheduler",
    "drive_serial",
    "generate_arrivals",
    "percentile",
    "percentile_table",
    "scope_wildcard_seeds",
    "simulated_client_of",
]
