"""Nestable timed spans with a zero-cost disabled path.

Usage::

    from repro.obs import span, recording

    with recording() as rec:
        with span("global_place", cells=n):
            ...
    rec.roots  # completed span tree

Design constraints, in order:

1. **Zero cost when disabled.**  ``span()`` with no active recorder
   returns one shared :class:`NullSpan` singleton — no allocation, no
   timestamps — so instrumented hot paths do not regress the tier-1
   runtimes.
2. **Thread safety.**  The recorder keeps one open-span stack per
   thread (spans started on a worker thread become additional roots);
   completed-span bookkeeping is guarded by a lock.
3. **Nesting.**  A span opened while another is active on the same
   thread becomes its child, which is how flow traces show the
   stage → sub-stage breakdown.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

try:  # pragma: no cover - resource is POSIX-only
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of the process, in kB.

    ``getrusage`` reports ``ru_maxrss`` in kilobytes on Linux but in
    *bytes* on macOS; the value is normalized to kB here so every
    consumer (span records, bench artifacts, heartbeats) sees one unit.
    Returns ``None`` (serialized as JSON ``null``) when no sampling
    mechanism exists on this platform, so bench artifacts stay portable:
    a missing measurement must not masquerade as "0 kB used".
    """
    if resource is not None:
        try:
            raw = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except (OSError, ValueError):  # pragma: no cover
            raw = None
        if raw is not None:
            if sys.platform == "darwin":
                return raw // 1024
            return raw
    try:  # pragma: no cover - exercised only where resource is missing
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return None


@dataclass
class SpanRecord:
    """One completed (or open) span of the trace tree."""

    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    duration_s: float = 0.0
    #: Process peak RSS observed at span exit, kB; ``None`` when the
    #: platform offers no way to sample it (never a fake 0).
    peak_rss_kb: Optional[int] = None
    children: List["SpanRecord"] = field(default_factory=list)

    def child(self, name: str) -> Optional["SpanRecord"]:
        """First direct child with the given name, if any."""
        for c in self.children:
            if c.name == name:
                return c
        return None

    def walk(self) -> Iterator["SpanRecord"]:
        """This span and all descendants, depth first."""
        yield self
        for c in self.children:
            yield from c.walk()


class NullSpan:
    """The shared do-nothing span used whenever tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "NullSpan":
        return self


_NULL_SPAN = NullSpan()


class _LiveSpan:
    """Context manager that records into its recorder on exit."""

    __slots__ = ("_recorder", "record", "_t0", "_depth")

    def __init__(self, recorder: "Recorder", name: str,
                 attrs: Dict[str, Any]):
        self._recorder = recorder
        self.record = SpanRecord(name=name, attrs=attrs)
        self._t0 = 0.0
        self._depth = 0

    def set(self, **attrs: Any) -> "_LiveSpan":
        self.record.attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._recorder._push(self.record)
        self._depth = len(self._recorder._stack()) - 1
        self._t0 = time.perf_counter()
        self.record.start_s = self._t0 - self._recorder.epoch
        sink = _SINK
        if sink is not None:
            sink.span_open(self.record, self._depth)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.record.duration_s = time.perf_counter() - self._t0
        self.record.peak_rss_kb = _peak_rss_kb()
        self._recorder._pop(self.record)
        sink = _SINK
        if sink is not None:
            sink.span_close(self.record, self._depth)
        return False


class Recorder:
    """Collects a span tree plus a metrics registry for one flow run."""

    def __init__(self) -> None:
        # Imported here to avoid a module cycle (metrics reads _ACTIVE).
        from repro.obs.metrics import MetricsRegistry

        self.epoch = time.perf_counter()
        #: Wall time of the recording, stamped by :func:`recording`.
        self.wall_s = 0.0
        self.roots: List[SpanRecord] = []
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack (per thread) ---------------------------------------------------

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, record: SpanRecord) -> None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        opening = getattr(self._local, "opening", None)
        if opening is not None and opening[0] is parent:
            record.attrs.update(opening[1])
            opening[2].append(record)
        with self._lock:
            (parent.children if parent is not None else self.roots).append(
                record
            )
        stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()

    # -- public helpers ------------------------------------------------------------

    def span(self, name: str, attrs: Dict[str, Any]) -> _LiveSpan:
        return _LiveSpan(self, name, attrs)

    def current(self) -> Optional[SpanRecord]:
        stack = self._stack()
        return stack[-1] if stack else None


#: The process-global recorder; ``None`` means tracing is disabled.
_ACTIVE: Optional[Recorder] = None

#: The process-global live-event sink (see :mod:`repro.obs.events`);
#: ``None`` means no stream is attached.  Spans consult it only while a
#: recorder is active, so the disabled path stays a single global load.
_SINK: Optional[Any] = None


def active_recorder() -> Optional[Recorder]:
    """The currently installed recorder, or None when disabled."""
    return _ACTIVE


def span(name: str, **attrs: Any):
    """Open a (possibly no-op) span; use as a context manager."""
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(name, attrs)


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span, if tracing is on."""
    recorder = _ACTIVE
    if recorder is None:
        return
    current = recorder.current()
    if current is not None:
        current.attrs.update(attrs)


@contextmanager
def opened_spans(**tags: Any) -> Iterator[List[SpanRecord]]:
    """Yield a list that collects the spans the block opens at its top
    level (empty when tracing is off).

    Each such span gets ``tags`` as it opens, so its ``span_open`` event
    on a live stream already carries them.
    """
    opened: List[SpanRecord] = []
    recorder = _ACTIVE
    if recorder is None:
        yield opened
        return
    local = recorder._local
    previous = getattr(local, "opening", None)
    local.opening = (recorder.current(), tags, opened)
    try:
        yield opened
    finally:
        local.opening = previous


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Install a recorder for the duration of the block.

    Nested recordings stack: the previous recorder is restored on exit,
    so library code never has to know whether it runs traced.  On exit
    the recorder's ``wall_s`` is stamped with the block's wall time,
    which covers work outside every span (a warm run's checkpoint load).
    """
    global _ACTIVE
    recorder = recorder or Recorder()
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous
        recorder.wall_s = time.perf_counter() - recorder.epoch
