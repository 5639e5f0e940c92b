"""FlowTrace: the in-memory view of one recorded flow run.

A ``FlowTrace`` bundles the span tree and the metric registry of one
:func:`~repro.obs.trace.recording` together with the flow/design
identity and the recording's wall time.  It is built either from the
live recorder (:meth:`FlowTrace.from_recorder`) or by folding the
``repro.obs.events/v1`` stream the run wrote (:func:`fold_events`); the
two agree on span names, nesting and attrs, counters, gauges and
histogram summaries.  The event stream is the only serialized trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.events import EVENTS_SCHEMA
from repro.obs.metrics import HistogramStats
from repro.obs.trace import Recorder, SpanRecord


@dataclass
class FlowTrace:
    """Record of one observed flow run."""

    flow: str
    design: str
    spans: List[SpanRecord] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramStats] = field(default_factory=dict)
    #: Wall time of the whole recording, seconds: it also covers work
    #: outside every span, such as a warm run's checkpoint load.
    wall_s: float = 0.0

    # -- construction --------------------------------------------------------------

    @staticmethod
    def from_recorder(
        recorder: Recorder, flow: str = "", design: str = ""
    ) -> "FlowTrace":
        return FlowTrace(
            flow=flow,
            design=design,
            spans=list(recorder.roots),
            counters=dict(recorder.metrics.counters),
            gauges=dict(recorder.metrics.gauges),
            histograms=dict(recorder.metrics.histograms),
            wall_s=recorder.wall_s,
        )

    # -- queries -------------------------------------------------------------------

    def all_spans(self) -> List[SpanRecord]:
        out: List[SpanRecord] = []
        for root in self.spans:
            out.extend(root.walk())
        return out

    def span_names(self) -> List[str]:
        return [s.name for s in self.all_spans()]

    def span(self, name: str) -> Optional[SpanRecord]:
        """First span with the given name anywhere in the tree."""
        for record in self.all_spans():
            if record.name == name:
                return record
        return None


def fold_events(events: List[Dict[str, Any]]) -> Dict[str, FlowTrace]:
    """Fold a parsed ``repro.obs.events/v1`` stream into FlowTraces.

    Returns one trace per ``scenario`` tag, in order of appearance (the
    key is "" for an untagged ``repro run`` stream).  ``span_open`` /
    ``span_close`` pairs become the span tree, with one open-span stack
    per (scenario, thread); counters are the sums of the heartbeat and
    ``run_end`` deltas; gauges and histograms come from the ``run_end``
    footer; ``wall_s`` is the last event's offset.  The flow and design
    come from the ``summary`` mark a flow emits as it summarizes (they
    stay empty in a stream without one).  Raises ValueError when the
    stream does not open with the events schema header.
    """
    if not events or events[0].get("schema") != EVENTS_SCHEMA:
        raise ValueError(f"not a {EVENTS_SCHEMA} event stream")
    traces: Dict[str, FlowTrace] = {}
    stacks: Dict[Tuple[str, Any], List[SpanRecord]] = {}
    for event in events:
        scenario = str(event.get("scenario", ""))
        trace = traces.setdefault(scenario, FlowTrace("", ""))
        trace.wall_s = float(event.get("t", trace.wall_s))
        kind = event.get("type")
        if kind in ("span_open", "span_close"):
            stack = stacks.setdefault((scenario, event.get("tid")), [])
            if kind == "span_open":
                record = SpanRecord(
                    event["name"], dict(event.get("attrs", {})),
                    start_s=trace.wall_s,
                )
                (stack[-1].children if stack else trace.spans).append(record)
                stack.append(record)
            elif stack:
                record = stack.pop()
                record.attrs = dict(event.get("attrs", {}))
                record.duration_s = float(event.get("dur_s", 0.0))
                record.peak_rss_kb = event.get("rss_kb")
        elif kind == "mark" and event.get("name") == "summary":
            attrs = event.get("attrs", {})
            trace.flow = str(attrs.get("flow", ""))
            trace.design = str(attrs.get("design", ""))
        elif kind in ("heartbeat", "run_end"):
            for name, delta in event.get("counters", {}).items():
                trace.counters[name] = trace.counters.get(name, 0.0) + delta
        if kind == "run_end":
            trace.gauges = dict(event.get("gauges", {}))
            trace.histograms = {
                name: HistogramStats.from_dict(stats)
                for name, stats in event.get("histograms", {}).items()
            }
    return traces


def _format_spans(records: List[SpanRecord], total: float,
                  depth: int, out: List[str]) -> None:
    for record in records:
        share = record.duration_s / total * 100.0 if total > 0 else 0.0
        attrs = " ".join(
            f"{k}={v}" for k, v in sorted(record.attrs.items())
        )
        indent = "  " * depth
        rss = (
            f"rss {record.peak_rss_kb / 1024.0:7.1f} MB"
            if record.peak_rss_kb is not None
            else "rss       n/a"
        )
        out.append(
            f"  {indent}{record.name:<{30 - 2 * depth}s}"
            f" {record.duration_s * 1e3:10.1f} ms {share:5.1f}%"
            f"  {rss}"
            + (f"  [{attrs}]" if attrs else "")
        )
        _format_spans(record.children, total, depth + 1, out)


def format_trace(trace: FlowTrace) -> str:
    """Render a FlowTrace as the human-readable stage table."""
    total = trace.wall_s
    out = [
        f"FlowTrace — {trace.flow or '?'} on {trace.design or '?'}"
        f"  (total {total:.3f} s)"
    ]
    out.append("  stage                              wall time  share"
               "      peak rss")
    _format_spans(trace.spans, total, 0, out)
    if trace.counters:
        out.append("  counters:")
        for name, value in sorted(trace.counters.items()):
            out.append(f"    {name:<28s} {value:,.0f}")
    if trace.gauges:
        out.append("  gauges:")
        for name, value in sorted(trace.gauges.items()):
            out.append(f"    {name:<28s} {value:,.3f}")
    if trace.histograms:
        out.append("  histograms:")
        for name, stats in sorted(trace.histograms.items()):
            pcts = stats.percentiles()
            out.append(
                f"    {name:<28s} n={stats.count} mean={stats.mean:.3f}"
                f" min={stats.minimum if stats.count else 0.0:.3f}"
                f" max={stats.maximum if stats.count else 0.0:.3f}"
                f" p50={pcts['p50']:.3f} p95={pcts['p95']:.3f}"
                f" p99={pcts['p99']:.3f}"
            )
    return "\n".join(out)
