"""The flow service: the repo's one worker pool for running scenarios.

:class:`FlowService` forks its workers once with the flow stack
imported, then serves an async FIFO job queue until drained.  Every
job is :func:`repro.bench.runner.run_job`, which scopes the stage cache
to the job, so a worker's cache index stays hot across jobs while no
cache outlives the job that asked for it.  Combined with ``repro.cache``, a service that has seen a scenario
once answers the next submission as a chain of cache hits — the
"designs per hour" regime the bench throughput gate measures.
``repro serve`` and ``bench serve`` keep one service alive across many
submissions; ``bench run --jobs N`` is a client too: it submits its
scenario list, waits for each job in turn and shuts the service down.

Platforms without the fork start method degrade, with a
``RuntimeWarning``, to a single serial worker thread: same API, same
FIFO semantics, no warm-pool speedup — the obs recorder slot is
process-global, so one worker thread is the safe concurrency there.
"""

from __future__ import annotations

import threading
import time
import traceback
import warnings
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as wait_futures,
)
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.bench.runner import JobResult, run_job
from repro.forking import fork_context
from repro.obs.events import DEFAULT_HEARTBEAT_S, event_sink

#: Job lifecycle states.
QUEUED, DONE, FAILED = "queued", "done", "failed"

#: Warning issued when a pool is requested on a platform without the
#: fork start method (workers must inherit the event queue and any
#: runtime-registered scenarios).
FORK_FALLBACK_MESSAGE = (
    "parallel flow workers require the 'fork' multiprocessing start method "
    "(workers inherit the event queue and runtime-registered scenarios); "
    "this platform only offers spawn-style starts, so scenarios will run "
    "serially instead"
)


@dataclass
class JobRecord:
    """One submitted scenario's lifecycle inside the service."""

    job_id: int
    scenario: str
    state: str = QUEUED
    submitted_unix: float = 0.0
    #: Monotonic start/end stamps, None until a worker reports the job.
    start_s: Optional[float] = None
    end_s: Optional[float] = None
    artifact: Optional[Any] = None
    paths: List[str] = field(default_factory=list)
    #: Last line of ``traceback``: the one-line reason a job failed.
    error: str = ""
    #: The full formatted traceback of a failed job.
    traceback: str = ""

    @property
    def wall_s(self) -> float:
        if self.start_s is None or self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "scenario": self.scenario,
            "state": self.state,
            "wall_s": round(self.wall_s, 6),
            "error": self.error,
        }


#: A pool worker's fork-inherited event queue, set by its initializer.
#: Events cross the process boundary as plain dicts on it; the parent's
#: drainer thread hands them to the service's event sink.
_WORKER_QUEUE: Optional[Any] = None


def _warm_imports() -> None:
    """Import the whole flow stack — what makes a worker *warm*: jobs
    start at the algorithm, not at module import."""
    import repro.core.macro3d  # noqa: F401
    import repro.flows.compact2d  # noqa: F401
    import repro.flows.flow2d  # noqa: F401
    import repro.flows.shrunk2d  # noqa: F401


def _warm_worker(queue: Optional[Any]) -> None:
    """Pool initializer: adopt the event queue, then warm up."""
    global _WORKER_QUEUE
    _WORKER_QUEUE = queue
    _warm_imports()


def _pool_job(scenario: str, **kwargs: Any) -> JobResult:
    """Pool entry: one job, its events forwarded over the worker queue."""
    write = _WORKER_QUEUE.put if _WORKER_QUEUE is not None else None
    return run_job(scenario, write=write, **kwargs)


class FlowService:
    """A persistent pool of warm flow workers with a FIFO job queue.

    Jobs are submitted asynchronously by scenario name and executed in
    submission order as workers free up; results (bench artifacts and
    any files written) land on the :class:`JobRecord`.  A job that
    raises, or whose worker dies, ends ``FAILED`` — the service itself
    never raises for it, and the next submission gets a fresh pool.
    Use as a context manager, or call :meth:`shutdown` explicitly;
    :meth:`drain` blocks until the queue is empty without killing the
    workers.
    """

    def __init__(
        self,
        jobs: int = 2,
        out_dir: str = "bench_out",
        cache_dir: Optional[str] = None,
        svg: bool = False,
        perfetto: bool = False,
        events_path: Optional[str] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        profile: bool = False,
    ):
        self.out_dir = out_dir
        self.cache_dir = cache_dir
        self._job_kwargs: Dict[str, Any] = {
            "out_dir": out_dir, "svg": svg, "profile": profile,
            "perfetto": perfetto, "cache_dir": cache_dir,
            "heartbeat_s": heartbeat_s,
        }
        self._jobs: Dict[int, JobRecord] = {}
        self._futures: Dict[int, Future] = {}
        self._next_id = 1
        self._lock = threading.Lock()
        self._closed = False
        dispatch, self._events_handle = event_sink(events_path, on_event)
        self._event_queue: Optional[Any] = None
        self._drainer: Optional[threading.Thread] = None

        self._context = fork_context()
        if self._context is not None:
            self.mode = "fork-pool"
            self.workers = max(1, jobs)
            if dispatch is not None:
                self._event_queue = self._context.Queue()

                def drain() -> None:
                    while True:
                        event = self._event_queue.get()
                        if event is None:
                            return
                        dispatch(event)

                self._drainer = threading.Thread(
                    target=drain, name="serve-event-drain", daemon=True
                )
                self._drainer.start()
            self._pool: Any = self._fork_pool()
            self._run: Callable[..., JobResult] = _pool_job
        else:
            # No fork: same API on one serial worker thread (the obs
            # recorder slot is process-global — one thread is the safe
            # concurrency).  The warmup runs in-thread on first use.
            warnings.warn(FORK_FALLBACK_MESSAGE, RuntimeWarning, stacklevel=2)
            self.mode = "serial-thread"
            self.workers = 1
            self.fallback_reason = FORK_FALLBACK_MESSAGE
            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-worker"
            )
            self._pool.submit(_warm_imports)
            self._job_kwargs["write"] = dispatch
            self._run = run_job

    def _fork_pool(self) -> ProcessPoolExecutor:
        # initargs travel through the worker Process constructor, so
        # the fork-context queue is inherited, not pickled.
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=self._context,
            initializer=_warm_worker,
            initargs=(self._event_queue,),
        )

    # -- submission ----------------------------------------------------------------

    def submit(self, scenario: str) -> int:
        """Enqueue one scenario; returns its job id immediately.

        A worker death breaks the whole pool and fails every job in
        flight on it.  The next submission finds the pool broken, drops
        it and runs on a freshly forked one.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("FlowService is shut down")
            job_id = self._next_id
            self._next_id += 1
            self._jobs[job_id] = JobRecord(
                job_id=job_id, scenario=scenario,
                submitted_unix=time.time(),
            )
            try:
                future = self._pool.submit(
                    self._run, scenario, **self._job_kwargs
                )
            except BrokenExecutor:
                self._pool.shutdown(wait=False)
                self._pool = self._fork_pool()
                future = self._pool.submit(
                    self._run, scenario, **self._job_kwargs
                )
            self._futures[job_id] = future
        return job_id

    def _settle(self, job_id: int) -> JobRecord:
        """Copy a finished job's outcome onto its record (once).

        Runs in the inspecting thread, not as a done-callback: a waiter
        can wake before a future's callbacks have run, so a callback
        could hand ``wait`` a record that is not yet filled in.
        """
        with self._lock:
            record = self._jobs[job_id]
            future = self._futures[job_id]
            if record.state != QUEUED or not future.done():
                return record
            try:
                artifact, paths, record.start_s, record.end_s, formatted = (
                    future.result()
                )
            except Exception:
                # The worker never reported (its pool broke while the
                # job was in flight): format the pool's error parent-side.
                artifact, paths, formatted = None, [], traceback.format_exc()
            if formatted:
                record.state = FAILED
                record.traceback = formatted
                record.error = formatted.strip().splitlines()[-1]
            else:
                record.state = DONE
                record.artifact = artifact
                record.paths = paths
            return record

    # -- inspection ----------------------------------------------------------------

    def job(self, job_id: int) -> JobRecord:
        return self._settle(job_id)

    @property
    def records(self) -> List[JobRecord]:
        return [self._settle(jid) for jid in sorted(self._jobs)]

    # -- lifecycle -----------------------------------------------------------------

    def wait(self, job_id: int, timeout: Optional[float] = None) -> JobRecord:
        """Block until one job finishes; returns its record (``FAILED``
        when the job raised or its worker died)."""
        done, _pending = wait_futures([self._futures[job_id]], timeout=timeout)
        if not done:
            raise TimeoutError(f"job {job_id} still running after {timeout} s")
        return self._settle(job_id)

    def drain(self, timeout: Optional[float] = None) -> List[JobRecord]:
        """Graceful drain: wait for every queued job, keep workers warm."""
        with self._lock:
            pending = list(self._futures.values())
        wait_futures(pending, timeout=timeout)
        return self.records

    def shutdown(self, wait: bool = True) -> None:
        """Drain (when ``wait``) and dismantle the pool."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._event_queue is not None:
            self._event_queue.put(None)
            self._drainer.join()
        if self._events_handle is not None:
            self._events_handle.close()

    def __enter__(self) -> "FlowService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown(wait=True)
