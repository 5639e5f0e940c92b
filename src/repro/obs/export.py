"""Chrome trace-event export of ``repro.obs.events/v1`` streams.

:func:`chrome_trace_from_events` converts a live event stream (the one
serialized trace format) to the Chrome trace-event JSON that
``chrome://tracing`` and https://ui.perfetto.dev load: begin/end
(``ph="B"``/``"E"``) pairs with one process per scenario and one track
per thread/worker, marks as instants, heartbeat RSS plus running
counter totals and the ``run_end`` gauges as counter tracks, and the
``run_end`` histogram summaries under ``otherData``.

Timestamps are microseconds (the trace-event unit); every emitted
event carries the ``name``/``ph``/``pid``/``tid``/``ts`` quartet the
viewers require, and the document is a JSON *object* (not a bare
array) so ``otherData`` can carry the source schema and anything the
event model has no native track for.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.events import EVENTS_SCHEMA

#: Document-level marker for round-trip checks and provenance.
CHROME_TRACE_VERSION = "repro.obs.chrome/v1"


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def _metadata(pid: int, tid: int, name: str, kind: str) -> Dict[str, Any]:
    return {
        "ph": "M",
        "name": kind,
        "pid": pid,
        "tid": tid,
        "ts": 0,
        "args": {"name": name},
    }


def _counter(name: str, cat: str, ts: float, pid: int,
             value: Any) -> Dict[str, Any]:
    return {
        "name": name, "cat": cat, "ph": "C",
        "ts": ts, "pid": pid, "tid": 0, "args": {name: value},
    }


class _TrackMap:
    """Assign stable compact pids/tids to (scenario, thread) pairs."""

    def __init__(self) -> None:
        self._pids: Dict[str, int] = {}
        self._tids: Dict[Tuple[str, Any], int] = {}
        self.metadata: List[Dict[str, Any]] = []

    def pid(self, scenario: str) -> int:
        if scenario not in self._pids:
            self._pids[scenario] = len(self._pids) + 1
            self.metadata.append(_metadata(
                self._pids[scenario], 0, scenario or "run", "process_name"
            ))
        return self._pids[scenario]

    def tid(self, scenario: str, raw_tid: Any) -> int:
        key = (scenario, raw_tid)
        if key not in self._tids:
            per_scenario = sum(1 for s, _t in self._tids if s == scenario)
            self._tids[key] = per_scenario + 1
            self.metadata.append(_metadata(
                self.pid(scenario), self._tids[key],
                "flow" if per_scenario == 0 else f"thread-{per_scenario + 1}",
                "thread_name",
            ))
        return self._tids[key]


def chrome_trace_from_events(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert a parsed ``repro.obs.events/v1`` stream to a Chrome trace.

    One process per scenario (bench workers tag every event), one track
    per emitting thread, ``B``/``E`` pairs for spans, instants for
    marks, counter tracks for heartbeat RSS, the running totals of every
    counter delta and the final gauges; ``otherData["histograms"]``
    maps each process label to its ``run_end`` histogram summaries.
    """
    tracks = _TrackMap()
    body: List[Dict[str, Any]] = []
    totals: Dict[Tuple[str, str], float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for event in events:
        kind = event.get("type")
        scenario = str(event.get("scenario", ""))
        ts = _us(float(event.get("t", 0.0)))
        if kind in ("span_open", "span_close", "mark"):
            entry = {
                "name": event.get("name", "?"),
                "cat": "stage",
                "ph": {"span_open": "B", "span_close": "E"}.get(kind, "i"),
                "ts": ts,
                "pid": tracks.pid(scenario),
                "tid": tracks.tid(scenario, event.get("tid", 0)),
                "args": dict(event.get("attrs", {})),
            }
            if kind == "mark":
                entry.update(cat="mark", s="p")
            body.append(entry)
        elif kind in ("heartbeat", "run_end"):
            pid = tracks.pid(scenario)
            rss = event.get("rss_kb")
            if rss is not None:
                body.append(_counter("rss_kb", "counter", ts, pid, rss))
            for name, delta in sorted(event.get("counters", {}).items()):
                key = (scenario, name)
                totals[key] = totals.get(key, 0.0) + float(delta)
                body.append(_counter(name, "counter", ts, pid, totals[key]))
            for name, value in sorted(event.get("gauges", {}).items()):
                body.append(_counter(name, "gauge", ts, pid, value))
            if event.get("histograms"):
                histograms[scenario or "run"] = event["histograms"]
    return {
        "traceEvents": tracks.metadata + body,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": CHROME_TRACE_VERSION,
            "source_schema": EVENTS_SCHEMA,
            "num_events": len(events),
            "histograms": histograms,
        },
    }


def write_chrome_trace(path: str, document: Dict[str, Any]) -> None:
    """Serialize a trace-event document (stable key order, one file)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def validate_chrome_trace(document: Dict[str, Any]) -> List[str]:
    """Structural check against the trace-event format contract.

    Returns a list of problems (empty when the document is loadable):
    the top level must carry a ``traceEvents`` array, every event needs
    ``ph``/``name``/``pid``/``tid`` plus a numeric ``ts`` (and ``dur``
    for complete events), and ``B``/``E`` pairs must balance per track.
    This is what CI runs over every exported artifact — a cheap local
    stand-in for "Perfetto's JSON parser accepts it".
    """
    problems: List[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    depth: Dict[Tuple[Any, Any], int] = {}
    for index, event in enumerate(events):
        for key in ("ph", "name", "pid", "tid"):
            if key not in event:
                problems.append(f"event {index}: missing {key!r}")
        ph = event.get("ph")
        if ph != "M" and not isinstance(event.get("ts"), (int, float)):
            problems.append(f"event {index}: non-numeric ts")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"event {index}: complete event without dur")
        if ph in ("B", "E"):
            key = (event.get("pid"), event.get("tid"))
            depth[key] = depth.get(key, 0) + (1 if ph == "B" else -1)
            if depth[key] < 0:
                problems.append(f"event {index}: E without matching B")
                depth[key] = 0
    for (pid, tid), open_spans in sorted(depth.items()):
        if open_spans > 0:
            problems.append(
                f"track pid={pid} tid={tid}: {open_spans} unclosed B event(s)"
            )
    return problems
