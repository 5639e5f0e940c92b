"""Flow observability: spans, counters, event streams and FlowTraces.

The subsystem answers one question for every flow run: *where is
wall-clock and quality won or lost?*  It is built around a single
process-global recorder slot:

- With no recorder installed (the default), every instrumentation call —
  :func:`span`, :func:`count`, :func:`gauge`, :func:`observe` — is a
  cheap no-op, so production runs and the tier-1 suite pay nothing.
- Inside a :func:`recording` block every ``with span(...)`` nests a
  timed span (wall time + peak RSS + arbitrary attributes) and every
  counter/gauge/histogram lands in the recorder's registry.

Around the recorder:

- :mod:`repro.obs.events` — the live JSONL event stream
  (``repro.obs.events/v1``) emitted *during* a run: span open/close,
  heartbeats with RSS + counter deltas, instant marks, and a footer
  with the final gauges and histograms.  It is the only serialized
  trace: ``python -m repro run --events-out`` writes it and
  ``python -m repro trace`` reads it back;
- :mod:`repro.obs.report` — the in-memory ``FlowTrace`` (span tree +
  metrics + wall time), taken from a live recorder or folded from a
  stream (:func:`fold_events`), and its stage table;
- :mod:`repro.obs.export` — the one Chrome trace-event exporter
  (Perfetto-loadable), which reads event streams;
- :mod:`repro.obs.history` — the cross-run metrics store
  (``repro.obs.history/v1``) behind ``repro dash`` and
  ``bench compare --trend``.
"""

from repro.obs.trace import (
    NullSpan,
    Recorder,
    SpanRecord,
    active_recorder,
    annotate,
    opened_spans,
    recording,
    span,
)
from repro.obs.metrics import (
    HistogramStats,
    MetricsRegistry,
    count,
    gauge,
    journaling,
    observe,
    replay_journal,
)
from repro.obs.report import FlowTrace, fold_events, format_trace
from repro.obs.profile import profile_call
from repro.obs.events import (
    EVENTS_SCHEMA,
    EventStream,
    active_stream,
    mark,
    read_events,
    streaming,
)
from repro.obs.history import (
    DEFAULT_HISTORY_PATH,
    HISTORY_SCHEMA,
    HistoryRecord,
    append_history,
    load_history,
    record_from_artifact,
    render_dashboard,
    validate_history,
)

__all__ = [
    "DEFAULT_HISTORY_PATH",
    "EVENTS_SCHEMA",
    "EventStream",
    "FlowTrace",
    "HISTORY_SCHEMA",
    "HistogramStats",
    "HistoryRecord",
    "MetricsRegistry",
    "NullSpan",
    "Recorder",
    "SpanRecord",
    "active_recorder",
    "active_stream",
    "annotate",
    "append_history",
    "count",
    "fold_events",
    "format_trace",
    "gauge",
    "journaling",
    "load_history",
    "mark",
    "observe",
    "opened_spans",
    "replay_journal",
    "profile_call",
    "read_events",
    "record_from_artifact",
    "recording",
    "render_dashboard",
    "span",
    "streaming",
    "validate_history",
]
