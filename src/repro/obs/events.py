"""Live event streaming: an append-only JSONL feed of a running flow.

Where a :class:`~repro.obs.report.FlowTrace` is *post-mortem* (it exists
only after the recording ends), the event stream is emitted **during**
the run and flushed line-by-line, so ``tail -f`` (or a future serve
layer) can watch a 30-minute large-tier run live.  Schema
``repro.obs.events/v1``: every line is one self-contained JSON object
with at least ``type`` and ``t`` (seconds since the stream's epoch):

``run_start``
    stream header — carries the full ``schema`` string, the pid, the
    heartbeat cadence, and any ``base`` fields (e.g. the scenario name
    a bench worker tags every event with);
``span_open`` / ``span_close``
    mirror the :func:`~repro.obs.trace.span` tree as it happens
    (``name``, ``depth``, ``attrs``; close adds ``dur_s`` + ``rss_kb``);
``heartbeat``
    periodic liveness sample from a daemon thread — wall offset, peak
    RSS, and the **deltas** of every counter that moved since the last
    beat (hot paths keep calling :func:`~repro.obs.metrics.count`
    unchanged; the stream aggregates, so streaming costs nothing on the
    inner loops);
``mark``
    an instant milestone (:func:`mark`) such as "placement legalized";
``run_end``
    stream footer with the total duration and final RSS.

The same zero-cost-when-disabled contract as spans holds: with no
stream installed, :func:`mark` is one global load, and the span hooks
in :mod:`repro.obs.trace` check a single module slot.  Span events are
only emitted while a recorder is active (every streamed entry point —
``repro run --events-out``, ``bench run --events-out`` — records).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, IO, Iterator, Optional, Tuple, Union

from repro.obs import trace as _trace
from repro.obs.trace import SpanRecord, _peak_rss_kb

EVENTS_SCHEMA = "repro.obs.events/v1"

#: Default heartbeat cadence, seconds.  The acceptance bar is <= 2 s so
#: a watcher never stares at a silent stream wondering if the run hung.
DEFAULT_HEARTBEAT_S = 1.0


def open_jsonl(path: str) -> IO[str]:
    """Create (or truncate) an event file, making its directory first."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    return open(path, "w", encoding="utf-8")


def jsonl_writer(handle: IO[str]) -> Callable[[Dict[str, Any]], None]:
    """Wrap a text handle as an event writer: one JSON line, flushed.

    Flushing per line is the whole point — a crash or a ``tail -f``
    mid-run must still see every event emitted so far.
    """

    def write(event: Dict[str, Any]) -> None:
        handle.write(json.dumps(event, sort_keys=True) + "\n")
        handle.flush()

    return write


def event_sink(
    path: Optional[str],
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> Tuple[Optional[Callable[[Dict[str, Any]], None]], Optional[IO[str]]]:
    """One writer feeding a JSONL file at ``path`` and/or ``on_event``.

    Returns (the writer, the open file handle for the caller to close);
    either is None when there is nothing to write to.
    """
    handle = open_jsonl(path) if path is not None else None
    sinks = [jsonl_writer(handle)] if handle is not None else []
    if on_event is not None:
        sinks.append(on_event)
    if not sinks:
        return None, handle

    def write(event: Dict[str, Any]) -> None:
        for sink in sinks:
            sink(event)

    return write, handle


class EventStream:
    """One live event feed: serializes events and beats a heartbeat.

    ``write`` receives each event dict (already stamped with ``t`` and
    the ``base`` fields); the file and queue transports are both just
    writers, which is how pool workers forward events to the parent.
    All emission goes through one lock, so the heartbeat thread and any
    worker threads interleave whole events, never torn lines.
    """

    def __init__(
        self,
        write: Callable[[Dict[str, Any]], None],
        heartbeat_s: float = DEFAULT_HEARTBEAT_S,
        base: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._write = write
        self.heartbeat_s = heartbeat_s
        self.base = dict(base or {})
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._last_counters: Dict[str, float] = {}

    # -- emission ------------------------------------------------------------------

    def emit(self, type_: str, **fields: Any) -> None:
        event: Dict[str, Any] = dict(self.base)
        event.update(fields)
        event["type"] = type_
        event["t"] = round(time.perf_counter() - self._epoch, 6)
        with self._lock:
            self._write(event)

    def span_open(self, record: SpanRecord, depth: int) -> None:
        self.emit(
            "span_open",
            name=record.name,
            depth=depth,
            tid=threading.get_ident(),
            attrs=dict(record.attrs),
        )

    def span_close(self, record: SpanRecord, depth: int) -> None:
        self.emit(
            "span_close",
            name=record.name,
            depth=depth,
            tid=threading.get_ident(),
            dur_s=round(record.duration_s, 6),
            rss_kb=record.peak_rss_kb,
            attrs=dict(record.attrs),
        )

    def mark(self, name: str, attrs: Dict[str, Any]) -> None:
        self.emit("mark", name=name, tid=threading.get_ident(), attrs=attrs)

    # -- heartbeat -----------------------------------------------------------------

    def _counter_deltas(self) -> Dict[str, float]:
        recorder = _trace._ACTIVE
        if recorder is None:
            return {}
        now = recorder.metrics.counters_snapshot()
        deltas = {
            name: value - self._last_counters.get(name, 0.0)
            for name, value in now.items()
            if value != self._last_counters.get(name, 0.0)
        }
        self._last_counters = now
        return deltas

    def heartbeat(self) -> None:
        """Emit one liveness sample (the daemon thread's loop body)."""
        self.emit(
            "heartbeat",
            rss_kb=_peak_rss_kb(),
            counters=self._counter_deltas(),
        )

    def _beat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_s):
            self.heartbeat()

    def start(self) -> None:
        self.emit(
            "run_start",
            schema=EVENTS_SCHEMA,
            pid=os.getpid(),
            heartbeat_s=self.heartbeat_s,
        )
        self._thread = threading.Thread(
            target=self._beat_loop, name="obs-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.emit(
            "run_end",
            rss_kb=_peak_rss_kb(),
            counters=self._counter_deltas(),
        )


def active_stream() -> Optional[EventStream]:
    """The currently installed event stream, or None when disabled."""
    return _trace._SINK


def mark(name: str, **attrs: Any) -> None:
    """Emit an instant milestone event (no-op when streaming is off).

    Flows drop these at meaningful QoR moments — "legalized", "routed",
    "signoff" — so a live watcher sees progress in design terms, not
    just stage names.
    """
    sink = _trace._SINK
    if sink is not None:
        sink.mark(name, attrs)


@contextmanager
def streaming(
    target: Union[str, Callable[[Dict[str, Any]], None]],
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    base: Optional[Dict[str, Any]] = None,
) -> Iterator[EventStream]:
    """Install a live event stream for the duration of the block.

    ``target`` is either a filesystem path (a JSONL file is created and
    flushed per event) or a writer callable (one dict per event — the
    flow service's pool workers pass a queue ``put`` here).  Nested
    streams stack like recordings: the previous sink is restored on exit.
    """
    handle: Optional[IO[str]] = None
    if isinstance(target, str):
        handle = open_jsonl(target)
        write = jsonl_writer(handle)
    else:
        write = target
    stream = EventStream(write, heartbeat_s=heartbeat_s, base=base)
    previous = _trace._SINK
    _trace._SINK = stream
    stream.start()
    try:
        yield stream
    finally:
        stream.stop()
        _trace._SINK = previous
        if handle is not None:
            handle.close()


def read_events(path: str) -> list:
    """Parse an events JSONL file into a list of event dicts.

    Tolerates a truncated final line (the run may still be writing, or
    died mid-write) — complete lines before it are all returned.
    """
    events = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                break
    return events


def is_event_stream(events: list) -> bool:
    """True when a parsed JSONL list looks like a ``repro.obs.events``
    stream (used by ``repro trace`` to pick the right converter)."""
    return bool(events) and events[0].get("schema") == EVENTS_SCHEMA
