"""Persistent flow service (``repro.serve``).

:class:`FlowService` is the repo's one worker pool: forked workers kept
warm — flow stack imported — behind an async FIFO job queue, each job
scoped to the stage cache it asks for (``bench run --jobs`` runs
through it too); :func:`run_throughput` measures the cold/warm
designs-per-hour split that ``bench serve`` gates.
"""

from repro.serve.service import (
    DONE,
    FAILED,
    QUEUED,
    FlowService,
    JobRecord,
)
from repro.serve.throughput import (
    THROUGHPUT_SCENARIO,
    ThroughputReport,
    run_throughput,
    throughput_record,
)

__all__ = [
    "DONE",
    "FAILED",
    "FlowService",
    "JobRecord",
    "QUEUED",
    "THROUGHPUT_SCENARIO",
    "ThroughputReport",
    "run_throughput",
    "throughput_record",
]
