"""Tests for live events, Chrome trace export, and the run history.

Covers the observability subsystems around the recorder:

- ``repro.obs.events`` — the live JSONL stream: emission order, base
  tagging, heartbeat cadence + counter deltas, zero-cost disabled path,
  and mid-run readability (every flushed line is valid JSON);
- ``repro.obs.export`` — event-stream conversion to the Chrome
  trace-event format, held to the structural contract
  ``validate_chrome_trace`` enforces (B/E balance, ts/dur presence);
- ``repro.obs.history`` — canonical-JSONL round trips, the trend
  comparator, and the HTML/SVG dashboard;
- the bench runner integration: serial + parallel (queue-forwarded)
  event streams that fold back to each artifact's metrics, per-job
  Perfetto exports, history appends, and the acceptance bar that QoR
  is byte-identical with events on and off.
"""

import json
import threading
import time
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest

from repro.bench import (
    TREND_MIN_RUNS,
    register_scenario,
    render_trend_svg,
    run_benchmarks,
    trend_deltas,
    unregister_scenario,
    worst_status,
)
from repro.bench.artifact import load_artifact, qor_json
from repro.bench.scenarios import Scenario
from repro.obs import fold_events, recording, span, count
from repro.obs.events import (
    DEFAULT_HEARTBEAT_S,
    EVENTS_SCHEMA,
    EventStream,
    active_stream,
    mark,
    read_events,
    streaming,
)
from repro.obs.export import (
    chrome_trace_from_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.history import (
    HISTORY_SCHEMA,
    HistoryRecord,
    append_history,
    group_by_scenario,
    load_history,
    record_from_artifact,
    render_dashboard,
    validate_history,
)


class TestEventStream:
    def test_disabled_is_a_noop(self):
        assert active_stream() is None
        mark("ignored", detail=1)  # must not raise, must not allocate a sink
        assert active_stream() is None

    def test_stream_lifecycle_and_base_tagging(self):
        events = []
        with streaming(events.append, base={"scenario": "s1"}) as stream:
            assert active_stream() is stream
            mark("milestone", value=3)
        assert active_stream() is None
        types = [e["type"] for e in events]
        assert types == ["run_start", "mark", "run_end"]
        assert events[0]["schema"] == EVENTS_SCHEMA
        assert events[0]["heartbeat_s"] == DEFAULT_HEARTBEAT_S
        assert all(e["scenario"] == "s1" for e in events)
        assert events[1]["attrs"] == {"value": 3}
        # Timestamps are monotone offsets from the stream epoch.
        ts = [e["t"] for e in events]
        assert ts == sorted(ts) and ts[0] >= 0.0

    def test_spans_stream_only_while_recording(self):
        events = []
        with streaming(events.append):
            with span("outside_recording"):
                pass
            with recording():
                with span("place", cells=4):
                    with span("legalize"):
                        pass
        names = [(e["type"], e.get("name")) for e in events
                 if e["type"].startswith("span_")]
        # The unrecorded span is invisible (NullSpan), the recorded tree
        # streams open/close in execution order with depths.
        assert names == [
            ("span_open", "place"),
            ("span_open", "legalize"),
            ("span_close", "legalize"),
            ("span_close", "place"),
        ]
        opens = {e["name"]: e for e in events if e["type"] == "span_open"}
        assert opens["place"]["depth"] == 0
        assert opens["legalize"]["depth"] == 1
        assert opens["place"]["attrs"] == {"cells": 4}
        closes = {e["name"]: e for e in events if e["type"] == "span_close"}
        assert closes["place"]["dur_s"] >= 0.0
        assert "rss_kb" in closes["place"]

    def test_heartbeat_carries_counter_deltas_not_totals(self):
        events = []
        with recording():
            with streaming(events.append) as stream:
                count("edges", 5)
                stream.heartbeat()
                count("edges", 2)
                count("fresh", 1)
                stream.heartbeat()
                stream.heartbeat()  # nothing moved
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert beats[0]["counters"] == {"edges": 5.0}
        assert beats[1]["counters"] == {"edges": 2.0, "fresh": 1.0}
        assert beats[2]["counters"] == {}

    def test_heartbeat_thread_beats_within_cadence(self):
        events = []
        lock = threading.Lock()

        def write(event):
            with lock:
                events.append(event)

        with streaming(write, heartbeat_s=0.05):
            time.sleep(0.3)
        beats = [e["t"] for e in events if e["type"] == "heartbeat"]
        assert len(beats) >= 3
        # Acceptance bar: gaps never exceed 2 s; here cadence is 50 ms
        # so allow generous scheduler slack while still proving liveness.
        gaps = [b - a for a, b in zip(beats, beats[1:])]
        assert all(gap < 2.0 for gap in gaps)

    def test_file_stream_is_valid_jsonl_mid_run(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with streaming(path) as stream:
            mark("early")
            # Read back *during* the run: per-line flushing means every
            # complete line parses — this is the tail -f contract.
            mid = read_events(path)
            assert [e["type"] for e in mid] == ["run_start", "mark"]
            stream.heartbeat()
        final = read_events(path)
        assert [e["type"] for e in final] == [
            "run_start", "mark", "heartbeat", "run_end",
        ]
        assert final[0]["schema"] == EVENTS_SCHEMA

    def test_read_events_tolerates_truncated_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "run_start", "schema": "%s", "t": 0}\n'
                        '{"type": "mark", "t": 0.5}\n'
                        '{"type": "hea' % EVENTS_SCHEMA)
        events = read_events(str(path))
        assert [e["type"] for e in events] == ["run_start", "mark"]

    def test_nested_streams_restore_previous(self):
        outer, inner = [], []
        with streaming(outer.append) as outer_stream:
            with streaming(inner.append):
                mark("inner_only")
            assert active_stream() is outer_stream
            mark("outer_only")
        marks = lambda events: [e["name"] for e in events
                                if e["type"] == "mark"]
        assert marks(inner) == ["inner_only"]
        assert marks(outer) == ["outer_only"]

    def test_emission_is_thread_torn_free(self):
        lines = []
        stream = EventStream(lambda e: lines.append(json.dumps(e)))

        def work(n):
            for i in range(50):
                stream.emit("mark", name=f"w{n}", i=i)

        threads = [threading.Thread(target=work, args=(n,))
                   for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(lines) == 200
        for line in lines:
            json.loads(line)  # every serialized event is whole


def assert_export_matches_artifact(document, events, artifact):
    """A Perfetto export holds every span of the run's stream, ends
    each counter track at the artifact's value, and carries the
    artifact's histograms under ``otherData``."""
    assert validate_chrome_trace(document) == []
    body = document["traceEvents"]
    opened = [e["name"] for e in events if e["type"] == "span_open"]
    assert [e["name"] for e in body if e["ph"] == "B"] == opened
    assert {s.name for s in artifact.stages} <= set(opened)
    final = {}
    for e in body:
        if e["ph"] == "C" and e.get("cat") == "counter":
            final[e["name"]] = e["args"][e["name"]]
    final.pop("rss_kb", None)
    assert final == artifact.counters
    assert document["otherData"]["histograms"] == {
        artifact.scenario: artifact.histograms
    }


class TestChromeExport:
    def _stream(self):
        from repro.obs import gauge, observe

        events = []
        with recording(), streaming(events.append):
            with span("place", cells=10):
                with span("legalize"):
                    count("legalize_forced", 2)
            with span("route"):
                pass
            gauge("overflow_bins", 3.0)
            observe("disp", 1.5)
        return events

    def test_stream_export_is_lossless_and_valid(self):
        document = chrome_trace_from_events([])  # empty stream edge case
        assert validate_chrome_trace(document) == []
        document = chrome_trace_from_events(self._stream())
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        assert [e["name"] for e in begins] == ["place", "legalize", "route"]
        assert begins[0]["args"] == {"cells": 10}
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {
            "legalize_forced", "overflow_bins", "rss_kb",
        }
        # Histograms have no native track: preserved in otherData.
        assert document["otherData"]["histograms"]["run"]["disp"][
            "count"] == 1
        assert document["otherData"]["source_schema"] == EVENTS_SCHEMA

    def test_event_stream_export_tracks_per_scenario(self):
        events = []
        for scenario in ("alpha", "beta"):
            with recording():
                with streaming(events.append,
                               base={"scenario": scenario}) as stream:
                    with span("place"):
                        mark("placed", cells=1)
                    stream.heartbeat()
        document = chrome_trace_from_events(events)
        assert validate_chrome_trace(document) == []
        body = document["traceEvents"]
        names = {e["args"]["name"] for e in body
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"alpha", "beta"}
        # One pid per scenario; B/E pairs land on that pid's track.
        pids = {e["pid"] for e in body if e["ph"] in ("B", "E")}
        assert len(pids) == 2
        instants = [e for e in body if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["placed", "placed"]
        rss_tracks = [e for e in body
                      if e["ph"] == "C" and e["name"] == "rss_kb"]
        assert len(rss_tracks) >= 2

    def test_counter_deltas_become_running_totals(self):
        events = [
            {"type": "run_start", "schema": EVENTS_SCHEMA, "t": 0.0,
             "scenario": "s"},
            {"type": "heartbeat", "t": 1.0, "scenario": "s",
             "rss_kb": 10, "counters": {"edges": 5.0}},
            {"type": "heartbeat", "t": 2.0, "scenario": "s",
             "rss_kb": 11, "counters": {"edges": 2.0}},
            {"type": "run_end", "t": 3.0, "scenario": "s",
             "rss_kb": 11, "counters": {}},
        ]
        document = chrome_trace_from_events(events)
        assert validate_chrome_trace(document) == []
        edge_samples = [e["args"]["edges"]
                        for e in document["traceEvents"]
                        if e.get("name") == "edges"]
        assert edge_samples == [5.0, 7.0]

    def test_validator_flags_broken_documents(self):
        assert validate_chrome_trace({}) == [
            "traceEvents missing or not a list"
        ]
        unbalanced = {"traceEvents": [
            {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0},
        ]}
        assert any("unclosed" in p
                   for p in validate_chrome_trace(unbalanced))
        stray_end = {"traceEvents": [
            {"name": "a", "ph": "E", "pid": 1, "tid": 1, "ts": 0},
        ]}
        assert any("E without matching B" in p
                   for p in validate_chrome_trace(stray_end))
        missing = {"traceEvents": [{"ph": "X", "ts": 0}]}
        problems = validate_chrome_trace(missing)
        assert any("missing 'name'" in p for p in problems)
        assert any("without dur" in p for p in problems)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "out.perfetto")
        document = chrome_trace_from_events(self._stream())
        write_chrome_trace(path, document)
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert validate_chrome_trace(loaded) == []
        assert loaded["otherData"]["exporter"] == document["otherData"][
            "exporter"
        ]


def _record(scenario="s", ts=0.0, wall=10.0, wl=2.0, fclk=500.0, rev="r0"):
    return HistoryRecord(
        scenario=scenario, flow="macro3d", config="smallcache",
        size="small", git_rev=rev, ts_unix=ts, wall_s_total=wall,
        peak_rss_kb=1000,
        stages={"place": wall * 0.4, "route": wall * 0.6},
        ppa={"fclk_mhz": fclk, "total_wirelength_m": wl, "drc_total": 0.0,
             "f2f_bumps": 100.0},
        counters={"maze_routes": 50.0},
    )


class TestHistory:
    def test_canonical_line_round_trip(self):
        record = _record()
        line = record.to_json_line()
        again = HistoryRecord.from_dict(json.loads(line))
        assert again.to_json_line() == line
        assert json.loads(line)["schema"] == HISTORY_SCHEMA

    def test_schema_rejected(self):
        with pytest.raises(ValueError, match="not a history record"):
            HistoryRecord.from_dict({"schema": "bogus/v0"})

    def test_lookup_matches_artifact_paths(self):
        record = _record(wall=10.0, wl=2.0)
        assert record.lookup("wall_s_total") == 10.0
        assert record.lookup("ppa.total_wirelength_m") == 2.0
        assert record.lookup("stages.route.wall_s") == pytest.approx(6.0)
        assert record.lookup("counters.maze_routes") == 50.0
        assert record.lookup("ppa.missing") is None
        assert record.lookup("nope.nope.nope") is None

    def test_append_load_validate(self, tmp_path):
        path = str(tmp_path / "nested" / "history.jsonl")
        for i in range(3):
            append_history(path, _record(ts=float(i), rev=f"r{i}"))
        records = load_history(path)
        assert [r.git_rev for r in records] == ["r0", "r1", "r2"]
        assert validate_history(path) == []

    def test_validate_flags_non_canonical_and_bad_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = _record().to_json_line()
        # Same payload, different key order: parses but is not canonical.
        shuffled = json.dumps(json.loads(good), sort_keys=False)
        data = json.loads(good)
        reordered = {k: data[k] for k in reversed(list(data))}
        shuffled = json.dumps(reordered)
        path.write_text(good + "\n" + shuffled + "\n" + "not json\n"
                        + '{"schema": "bogus/v0"}\n')
        problems = validate_history(str(path))
        assert len(problems) == 3
        assert any("round-trip differs" in p for p in problems)
        with pytest.raises(ValueError, match="not JSON"):
            load_history(str(path))

    def test_group_by_scenario_sorts_by_time(self):
        records = [
            _record("b", ts=2.0), _record("a", ts=5.0),
            _record("a", ts=1.0),
        ]
        groups = group_by_scenario(records)
        assert sorted(groups) == ["a", "b"]
        assert [r.ts_unix for r in groups["a"]] == [1.0, 5.0]

    def test_record_from_artifact(self, tmp_path):
        from tests.test_bench import make_artifact

        artifact = make_artifact()
        record = record_from_artifact(
            artifact, git_rev="abc1234", ts_unix=1700000000.1234
        )
        assert record.scenario == artifact.scenario
        assert record.git_rev == "abc1234"
        assert record.ts_unix == 1700000000.123
        assert record.wall_s_total == artifact.wall_s_total
        assert record.ppa == artifact.ppa
        assert set(record.stages) == {s.name for s in artifact.stages}


class TestTrend:
    def _runs(self, walls, wls):
        return [
            _record(ts=float(i), wall=wall, wl=wl, rev=f"r{i}")
            for i, (wall, wl) in enumerate(zip(walls, wls))
        ]

    def test_too_few_runs_is_silent(self):
        assert trend_deltas(self._runs([10.0] * 2, [2.0] * 2)) == []
        assert TREND_MIN_RUNS == 3

    def test_flat_history_passes(self):
        deltas = trend_deltas(self._runs([10.0] * 5, [2.0] * 5))
        assert deltas
        assert worst_status(deltas) == "ok"

    def test_slow_drift_across_runs_fails(self):
        # Each step is +4 % wirelength — under the single-baseline 10 %
        # gate — but oldest-median vs newest is ~+17 % and must fail.
        wls = [2.0, 2.08, 2.16, 2.25, 2.34]
        deltas = trend_deltas(self._runs([10.0] * 5, wls))
        assert worst_status(deltas) == "fail"
        wl_delta = next(
            d for d in deltas if d.path == "ppa.total_wirelength_m"
        )
        assert wl_delta.status == "fail"
        assert "median" in wl_delta.note

    def test_gate_time_off_demotes_wall_drift(self):
        walls = [10.0, 14.0, 18.0, 22.0, 26.0]
        gated = trend_deltas(self._runs(walls, [2.0] * 5))
        ungated = trend_deltas(
            self._runs(walls, [2.0] * 5), gate_time=False
        )
        assert worst_status(gated) == "fail"
        assert worst_status(ungated) in ("ok", "warn")


class TestDashboard:
    def test_trend_svg_handles_edge_series(self):
        for values in ([], [5.0], [5.0, 5.0, 5.0], [1.0, 3.0, 2.0]):
            svg = render_trend_svg(values, title="wall [s]",
                                   labels=[f"r{i}" for i in values])
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")

    def test_dashboard_is_well_formed_and_charts_scenarios(self):
        records = [
            _record("alpha", ts=float(i), wall=10.0 + i, rev=f"r{i}")
            for i in range(3)
        ] + [_record("beta", ts=0.0)]
        html = render_dashboard(records, title="trends & drift <test>")
        root = ET.fromstring(html)
        ns = "{http://www.w3.org/1999/xhtml}"
        text = ET.tostring(root, encoding="unicode")
        assert "alpha" in text and "beta" in text
        sections = root.findall(f".//{ns}section")
        assert len(sections) == 2
        svgs = root.findall(".//{http://www.w3.org/2000/svg}svg")
        # 4 metric charts per scenario.
        assert len(svgs) == 8
        assert "r0 → r2" in text

    def test_dashboard_empty_history(self):
        root = ET.fromstring(render_dashboard([]))
        assert "0 record(s)" in ET.tostring(root, encoding="unicode")


TINY = Scenario(
    name="events-crashtest-tiny",
    flow="2d",
    config="smallcache",
    size="small",
    scale=0.01,
    sizing_iterations=1,
)
TINY2 = Scenario(
    name="events-crashtest-tiny2",
    flow="2d",
    config="largecache",
    size="small",
    scale=0.01,
    sizing_iterations=1,
)


@pytest.fixture(scope="module")
def serial_runs(tmp_path_factory):
    """One quiet and one loud serial run of TINY, shared by the tests
    that read them: the loud one streams to a file and a callback at a
    fast heartbeat and writes history and a perfetto export; the quiet
    one has no observability at all.  (Serial runs take the scenario
    object itself, so nothing needs registering.)"""
    root = tmp_path_factory.mktemp("serial_runs")
    quiet = run_benchmarks([TINY], str(root / "quiet"), svg=False)
    seen = []
    loud = run_benchmarks(
        [TINY], str(root / "out"), svg=False,
        events_path=str(root / "events.jsonl"), on_event=seen.append,
        history_path=str(root / "history.jsonl"), perfetto=True,
        heartbeat_s=0.05,
    )
    return SimpleNamespace(root=root, quiet=quiet, loud=loud, seen=seen)


@pytest.fixture()
def tiny_scenarios():
    register_scenario(TINY)
    register_scenario(TINY2)
    try:
        yield [TINY, TINY2]
    finally:
        unregister_scenario(TINY.name)
        unregister_scenario(TINY2.name)


class TestRunnerIntegration:
    def test_serial_run_streams_events_and_appends_history(
        self, serial_runs
    ):
        tmp_path = serial_runs.root
        out = str(tmp_path / "out")
        events_path = str(tmp_path / "events.jsonl")
        history_path = str(tmp_path / "history.jsonl")
        seen = serial_runs.seen
        results, _schedule, failures = serial_runs.loud
        assert not failures and len(results) == 1
        events = read_events(events_path)
        assert events[0]["schema"] == EVENTS_SCHEMA
        # The file and the callback see the same stream.
        assert len(seen) == len(events)
        assert all(e["scenario"] == TINY.name for e in events)
        stages = [e["name"] for e in events
                  if e["type"] == "span_close" and e["depth"] == 0]
        assert "place" in stages and "route" in stages
        marks = {e["name"] for e in events if e["type"] == "mark"}
        assert {"placed", "routed", "signoff_sta",
                "verified"} <= marks
        # History carries the run.
        records = load_history(history_path)
        assert [r.scenario for r in records] == [TINY.name]
        assert records[0].git_rev != ""
        assert validate_history(history_path) == []
        # The perfetto export is the job's own stream, metrics included.
        perfetto = tmp_path / "out" / f"BENCH_{TINY.name}.perfetto"
        with open(perfetto, "r", encoding="utf-8") as handle:
            assert_export_matches_artifact(
                json.load(handle), events, results[0][1]
            )
        # And artifact discovery never mistakes it for an artifact.
        from repro.bench import discover_artifacts

        assert all(not p.endswith(".perfetto")
                   for p in discover_artifacts(out))

    def test_parallel_run_forwards_worker_events(
        self, tiny_scenarios, tmp_path
    ):
        out = str(tmp_path / "out")
        events_path = str(tmp_path / "events.jsonl")
        results, schedule, failures = run_benchmarks(
            tiny_scenarios, out, svg=False, jobs=2,
            events_path=events_path, heartbeat_s=0.2, perfetto=True,
        )
        assert not failures and len(results) == 2
        events = read_events(events_path)
        scenarios = {e.get("scenario") for e in events}
        assert scenarios == {TINY.name, TINY2.name}
        for name in scenarios:
            mine = [e for e in events if e.get("scenario") == name]
            types = [e["type"] for e in mine]
            assert types[0] == "run_start" and "run_end" in types
            assert any(t == "span_close" for t in types)
        # The combined stream converts to one multi-process trace.
        document = chrome_trace_from_events(events)
        assert validate_chrome_trace(document) == []
        pids = {e["pid"] for e in document["traceEvents"]
                if e["ph"] in ("B", "E")}
        assert len(pids) == 2
        # Each worker's stream folds to its artifact's metrics, and each
        # job's Perfetto export is built from that job's stream alone.
        traces = fold_events(events)
        for scenario, artifact, _paths in results:
            assert traces[scenario.name].counters == artifact.counters
            mine = [e for e in events if e["scenario"] == scenario.name]
            path = f"{out}/BENCH_{scenario.name}.perfetto"
            with open(path, "r", encoding="utf-8") as handle:
                assert_export_matches_artifact(
                    json.load(handle), mine, artifact
                )

    def test_serial_stream_folds_to_the_artifact(self, serial_runs):
        """The stream runs inside the recording, so its last counter
        deltas, gauges and histograms reach the footer."""
        results, _schedule, _failures = serial_runs.loud
        artifact = results[0][1]
        events = read_events(str(serial_runs.root / "events.jsonl"))
        trace = fold_events(events)[TINY.name]
        assert trace.counters == artifact.counters
        assert trace.gauges == artifact.gauges
        assert {name: stats.to_dict()
                for name, stats in trace.histograms.items()} == (
            artifact.histograms
        )
        assert [s.name for s in trace.spans] == [
            s.name for s in artifact.stages
        ]
        assert trace.counters["drc_nets_checked"] > 0

    def test_qor_identical_with_events_on_and_off(self, serial_runs):
        """Acceptance: streaming must not perturb QoR byte-for-byte."""
        tmp_path = serial_runs.root
        name = f"BENCH_{TINY.name}.json"
        quiet = load_artifact(str(tmp_path / "quiet" / name))
        loud = load_artifact(str(tmp_path / "out" / name))
        assert qor_json(quiet) == qor_json(loud)


class TestEventsCli:
    def test_bench_run_progress_rides_the_event_stream(
        self, tiny_scenarios, tmp_path, capsys
    ):
        from repro.cli import main

        out = str(tmp_path / "out")
        code = main([
            "bench", "run", "--scenario", TINY.name, "--out", out,
            "--no-svg",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert f"running {TINY.name} ..." in text
        assert "place" in text and "route" in text
        assert "[placed]" in text  # milestone marks surface live

    def test_bench_run_quiet_silences_the_stream(
        self, tiny_scenarios, tmp_path, capsys
    ):
        from repro.cli import main

        out = str(tmp_path / "out")
        events_path = str(tmp_path / "ev.jsonl")
        code = main([
            "bench", "run", "--scenario", TINY.name, "--out", out,
            "--no-svg", "--quiet", "--events-out", events_path,
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        # --quiet drops the progress subscription, not the stream: the
        # events file the user asked for is still written.
        assert TINY.name in fold_events(read_events(events_path))

    def test_trace_prints_tables_and_exports_chrome(self, tmp_path, capsys):
        from repro.cli import main

        events_path = tmp_path / "bench.events.jsonl"
        with open(events_path, "w", encoding="utf-8") as handle:
            for scenario in ("alpha", "beta"):
                with recording(), streaming(
                    lambda e: handle.write(json.dumps(e) + "\n"),
                    base={"scenario": scenario},
                ):
                    with span("stage", cells=3):
                        count("edges", 4)
        # One stage table per scenario of a bench stream.
        assert main(["trace", str(events_path)]) == 0
        text = capsys.readouterr().out
        assert text.count("== alpha ==") == text.count("== beta ==") == 1
        assert text.count("[cells=3]") == 2
        assert text.count("edges") == 2
        out = tmp_path / "bench.perfetto"
        assert main(["trace", str(events_path), "--chrome", str(out)]) == 0
        assert "chrome trace written" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as handle:
            assert validate_chrome_trace(json.load(handle)) == []
        # Anything else is rejected, not sniffed.
        bogus = tmp_path / "run.json"
        bogus.write_text('{"spans": []}\n')
        with pytest.raises(SystemExit, match="not a repro.obs.events/v1"):
            main(["trace", str(bogus)])

    def test_dash_cli_renders_html(self, tmp_path, capsys):
        from repro.cli import main

        history = str(tmp_path / "history.jsonl")
        for i in range(3):
            append_history(history, _record(ts=float(i), rev=f"r{i}"))
        out = str(tmp_path / "dash.html")
        code = main(["dash", "--history", history, "--out", out])
        assert code == 0
        assert "dashboard written" in capsys.readouterr().out
        with open(out, "r", encoding="utf-8") as handle:
            ET.fromstring(handle.read())
        with pytest.raises(SystemExit, match="no matching"):
            main(["dash", "--history", history, "--out", out,
                  "--scenario", "nope"])
        with pytest.raises(SystemExit, match="no history"):
            main(["dash", "--history", str(tmp_path / "void.jsonl"),
                  "--out", out])

    def test_bench_compare_trend_cli(self, tmp_path, capsys):
        from repro.cli import main

        history = str(tmp_path / "history.jsonl")
        for i, wl in enumerate([2.0, 2.08, 2.16, 2.25, 2.34]):
            append_history(history, _record(ts=float(i), wl=wl,
                                            rev=f"r{i}"))
        code = main(["bench", "compare", "--trend", "--history", history])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        flat = str(tmp_path / "flat.jsonl")
        for i in range(4):
            append_history(flat, _record(ts=float(i), rev=f"r{i}"))
        assert main(["bench", "compare", "--trend",
                     "--history", flat]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_bench_compare_trend_needs_min_runs(self, tmp_path, capsys):
        from repro.cli import main

        history = str(tmp_path / "short.jsonl")
        append_history(history, _record(ts=0.0))
        assert main(["bench", "compare", "--trend",
                     "--history", history]) == 0
        assert "trend gating needs" in capsys.readouterr().out


class TestBenchValidateCli:
    def test_validate_passes_on_canonical_files(self, tmp_path, capsys):
        from repro.cli import main
        from tests.test_bench import make_artifact

        out = tmp_path / "out"
        out.mkdir()
        artifact = make_artifact()
        (out / f"BENCH_{artifact.scenario}.json").write_text(
            artifact.to_json()
        )
        document = chrome_trace_from_events([])
        write_chrome_trace(str(out / "BENCH_x.perfetto"), document)
        history = str(tmp_path / "history.jsonl")
        append_history(history, _record())
        code = main(["bench", "validate", str(out),
                     "--history", history])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_fails_on_drifted_files(self, tmp_path, capsys):
        from repro.cli import main
        from tests.test_bench import make_artifact

        out = tmp_path / "out"
        out.mkdir()
        artifact = make_artifact()
        # Re-indent: same payload, no longer canonical bytes.
        data = json.loads(artifact.to_json())
        (out / f"BENCH_{artifact.scenario}.json").write_text(
            json.dumps(data, indent=4, sort_keys=True) + "\n"
        )
        code = main(["bench", "validate", str(out)])
        assert code == 1
        assert "round-trip differs" in capsys.readouterr().err

    def test_validate_flags_empty_dir(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["bench", "validate", str(tmp_path / "void")])
        assert code == 1
        assert "no BENCH_" in capsys.readouterr().err
