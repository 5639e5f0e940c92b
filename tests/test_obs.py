"""Unit tests for the observability layer (repro.obs).

Covers span nesting, counter/gauge/histogram aggregation, the fold of
the JSON event stream back to the recorder's FlowTrace, the zero-cost
disabled path, and the acceptance criterion that every flow's trace
carries enough stage spans and counters to be useful as a perf
baseline.
"""

import dataclasses
import json
import threading

import pytest

from repro.obs import (
    EVENTS_SCHEMA,
    FlowTrace,
    NullSpan,
    active_recorder,
    annotate,
    count,
    fold_events,
    format_trace,
    gauge,
    observe,
    read_events,
    recording,
    span,
    streaming,
)
from repro.obs.metrics import HistogramStats
from tests.conftest import FLOW_OPTIONS, stream_events
from tests.test_determinism import _trace_canon


def _summarized(trace):
    """``trace`` with each histogram reduced to the summary a stream's
    footer carries (its raw samples are never serialized)."""
    return dataclasses.replace(trace, histograms={
        name: HistogramStats.from_dict(stats.to_dict())
        for name, stats in trace.histograms.items()
    })


def assert_fold_matches(events, trace, scenario=""):
    """The fold of ``events`` equals ``trace`` on span names, nesting
    and attrs, counters, gauges and histogram summaries."""
    folded = fold_events(events)[scenario]
    folded = dataclasses.replace(folded, flow=trace.flow, design=trace.design)
    assert _trace_canon(folded) == _trace_canon(_summarized(trace))


class TestSpans:
    def test_disabled_by_default(self):
        assert active_recorder() is None
        s = span("anything", attr=1)
        assert isinstance(s, NullSpan)
        # The null span is a shared singleton and swallows attributes.
        assert span("other") is s
        with s:
            s.set(more=2)
        annotate(ignored=True)  # must not raise

    def test_noop_recorder_adds_no_attributes(self):
        s = span("x", a=1)
        with s as inner:
            inner.set(b=2)
        assert not hasattr(s, "record")
        assert not hasattr(s, "attrs")

    def test_span_nesting(self):
        with recording() as rec:
            with span("outer", level=0):
                with span("inner_a"):
                    pass
                with span("inner_b"):
                    with span("leaf"):
                        pass
        assert len(rec.roots) == 1
        outer = rec.roots[0]
        assert outer.name == "outer"
        assert outer.attrs == {"level": 0}
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.child("inner_b").children[0].name == "leaf"
        assert FlowTrace.from_recorder(rec).span_names() == [
            "outer", "inner_a", "inner_b", "leaf",
        ]

    def test_sibling_spans_after_exit(self):
        with recording() as rec:
            with span("first"):
                pass
            with span("second"):
                pass
        assert [r.name for r in rec.roots] == ["first", "second"]

    def test_span_times_and_rss(self):
        with recording() as rec:
            with span("timed"):
                sum(range(10000))
        record = rec.roots[0]
        assert record.duration_s >= 0.0
        assert record.peak_rss_kb > 0

    def test_annotate_targets_innermost(self):
        with recording() as rec:
            with span("outer"):
                with span("inner"):
                    annotate(hit=True)
        assert rec.roots[0].child("inner").attrs == {"hit": True}
        assert rec.roots[0].attrs == {}

    def test_set_returns_span(self):
        with recording() as rec:
            with span("s") as s:
                assert s.set(k=1) is s
        assert rec.roots[0].attrs == {"k": 1}

    def test_recording_restores_previous(self):
        with recording() as outer_rec:
            with recording() as inner_rec:
                with span("inner_only"):
                    pass
            assert active_recorder() is outer_rec
            with span("outer_only"):
                pass
        assert active_recorder() is None
        assert [r.name for r in inner_rec.roots] == ["inner_only"]
        assert [r.name for r in outer_rec.roots] == ["outer_only"]

    def test_worker_thread_spans_become_roots(self):
        with recording() as rec:
            with span("main"):
                worker = threading.Thread(target=lambda: span("bg").__enter__())
                worker.start()
                worker.join()
        names = {r.name for r in rec.roots}
        assert names == {"main", "bg"}


class TestMetrics:
    def test_counter_aggregation(self):
        with recording() as rec:
            count("edges")
            count("edges", 4)
            count("other", 2.5)
        assert rec.metrics.counters == {"edges": 5.0, "other": 2.5}

    def test_gauge_last_write_wins(self):
        with recording() as rec:
            gauge("overflow_bins", 10.0)
            gauge("overflow_bins", 3.0)
        assert rec.metrics.gauges["overflow_bins"] == 3.0

    def test_histogram_stats(self):
        with recording() as rec:
            for v in (1.0, 5.0, 3.0):
                observe("disp", v)
        stats = rec.metrics.histograms["disp"]
        assert stats.count == 3
        assert stats.total == pytest.approx(9.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 5.0
        assert stats.mean == pytest.approx(3.0)

    def test_disabled_metrics_are_noops(self):
        count("nope")
        gauge("nope", 1.0)
        observe("nope", 1.0)
        with recording() as rec:
            pass
        assert rec.metrics.counters == {}
        assert rec.metrics.gauges == {}
        assert rec.metrics.histograms == {}

    def test_thread_safe_counting(self):
        with recording() as rec:
            def work():
                for _ in range(1000):
                    count("hits")
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert rec.metrics.counters["hits"] == 4000.0


def _sample_run(target):
    """A small recorded run whose event stream goes to ``target``."""
    with recording() as rec, streaming(target):
        with span("place", cells=100):
            with span("legalize"):
                count("legalize_forced", 2)
        count("never_moved", 0)
        gauge("overflow_bins", 7.0)
        observe("disp", 1.5)
        observe("disp", 2.5)
    return FlowTrace.from_recorder(rec, flow="2D", design="tile")


class TestFlowTraceSchema:
    def _sample_trace(self):
        return _sample_run(lambda event: None)

    def test_json_round_trip_is_exact(self):
        events = []
        trace = _sample_run(stream_events(events))
        assert_fold_matches(events, trace)
        folded = fold_events(events)[""]
        assert folded.span_names() == ["place", "legalize"]
        # A counter that never moved still reaches the stream.
        assert folded.counters == {"legalize_forced": 2.0,
                                   "never_moved": 0.0}
        assert folded.gauges == {"overflow_bins": 7.0}
        assert folded.histograms["disp"].count == 2
        assert folded.histograms["disp"].mean == pytest.approx(2.0)
        assert 0.0 < folded.wall_s <= trace.wall_s

    def test_schema_marker(self):
        events = []
        _sample_run(events.append)
        assert events[0]["schema"] == EVENTS_SCHEMA
        for bogus in ([], [{"type": "mark", "t": 0.0}],
                      [dict(events[0], schema="bogus/v0")]):
            with pytest.raises(ValueError, match="not a repro.obs.events"):
                fold_events(bogus)

    def test_load_trace_file(self, tmp_path):
        path = str(tmp_path / "run.events.jsonl")
        trace = _sample_run(path)
        assert_fold_matches(read_events(path), trace)

    def test_format_trace_mentions_stages_and_counters(self):
        text = format_trace(self._sample_trace())
        assert "place" in text
        assert "legalize" in text
        assert "legalize_forced" in text
        assert "overflow_bins" in text

    def test_span_lookup(self):
        trace = self._sample_trace()
        assert trace.span("legalize") is not None
        assert trace.span("missing") is None

    def test_histogram_round_trip_empty(self):
        stats = HistogramStats.from_dict(HistogramStats().to_dict())
        assert stats.count == 0
        assert stats.mean == 0.0


class TestHistogramPercentiles:
    def test_percentiles_exact_when_under_cap(self):
        stats = HistogramStats()
        for v in range(1, 101):  # 1..100
            stats.add(float(v))
        assert stats.percentile(50.0) == 50.0
        assert stats.percentile(95.0) == 95.0
        assert stats.percentile(99.0) == 99.0
        assert stats.percentiles() == {
            "p50": 50.0, "p95": 95.0, "p99": 99.0
        }

    def test_decimation_bounds_memory_and_stays_close(self):
        from repro.obs.metrics import SAMPLE_CAP

        stats = HistogramStats()
        n = SAMPLE_CAP * 4
        for v in range(n):
            stats.add(float(v))
        assert len(stats.samples) <= SAMPLE_CAP
        assert stats.count == n
        # Decimated percentiles stay within one stride of the truth.
        assert stats.percentile(50.0) == pytest.approx(n / 2, rel=0.01)
        assert stats.percentile(99.0) == pytest.approx(n * 0.99, rel=0.01)

    def test_percentiles_serialize_and_survive_round_trip(self):
        stats = HistogramStats()
        for v in (1.0, 2.0, 3.0, 10.0):
            stats.add(v)
        data = stats.to_dict()
        assert data["p50"] == 2.0
        assert data["p99"] == 10.0
        loaded = HistogramStats.from_dict(data)
        # No raw samples on the loaded side: percentiles come from the
        # serialized summary, and re-serialization is byte-identical.
        assert loaded.samples == []
        assert loaded.percentile(50.0) == 2.0
        assert loaded.to_dict() == data

    def test_empty_percentiles_are_zero(self):
        stats = HistogramStats()
        assert stats.percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_decimated_percentiles_are_run_to_run_identical(self, seed):
        """Property: after 2:1 decimation kicks in (> SAMPLE_CAP
        samples), p50/p95/p99 are a pure function of the input sequence
        — two independent ingests of the same stream serialize
        byte-identically, which is what lets bench QoR artifacts be
        compared across serial/parallel runs and machines."""
        import random

        from repro.obs.metrics import SAMPLE_CAP

        rng = random.Random(seed)
        values = [rng.expovariate(0.5) for _ in range(SAMPLE_CAP * 3 + 17)]

        def ingest():
            stats = HistogramStats()
            for v in values:
                stats.add(v)
            return stats

        first, second = ingest(), ingest()
        assert first.stride > 1  # decimation actually happened
        assert first.percentiles() == second.percentiles()
        assert (json.dumps(first.to_dict(), sort_keys=True)
                == json.dumps(second.to_dict(), sort_keys=True))
        # And the retained subsample is itself deterministic.
        assert first.samples == second.samples
        assert first.stride == second.stride

    def test_format_trace_shows_percentiles(self):
        with recording() as rec:
            for v in range(10):
                observe("disp", float(v))
        trace = FlowTrace.from_recorder(rec, flow="2D", design="tile")
        text = format_trace(trace)
        assert "p50=" in text and "p95=" in text and "p99=" in text


class TestPeakRssPortability:
    def test_unavailable_rss_records_null(self, monkeypatch):
        from repro.obs import trace as trace_mod

        monkeypatch.setattr(trace_mod, "_peak_rss_kb", lambda: None)
        with recording() as rec:
            with span("stage"):
                pass
        record = rec.roots[0]
        assert record.peak_rss_kb is None
        # Streams as JSON null, never a fake 0, and folds back.
        events = []
        with recording(), streaming(stream_events(events)):
            with span("stage"):
                pass
        close = next(e for e in events if e["type"] == "span_close")
        assert close["rss_kb"] is None
        assert fold_events(events)[""].spans[0].peak_rss_kb is None

    def test_format_trace_handles_null_rss(self, monkeypatch):
        from repro.obs import trace as trace_mod

        monkeypatch.setattr(trace_mod, "_peak_rss_kb", lambda: None)
        with recording() as rec:
            with span("stage"):
                pass
        text = format_trace(
            FlowTrace.from_recorder(rec, flow="2D", design="tile")
        )
        assert "n/a" in text

    def test_rss_sampled_on_this_platform(self):
        from repro.obs.trace import _peak_rss_kb

        value = _peak_rss_kb()
        assert value is None or value > 0

    @staticmethod
    def _fake_resource(ru_maxrss):
        class FakeUsage:
            pass

        usage = FakeUsage()
        usage.ru_maxrss = ru_maxrss

        class FakeResource:
            RUSAGE_SELF = 0

            @staticmethod
            def getrusage(_who):
                return usage

        return FakeResource()

    def test_linux_maxrss_is_already_kb(self, monkeypatch):
        from repro.obs import trace as trace_mod

        monkeypatch.setattr(
            trace_mod, "resource", self._fake_resource(51200)
        )
        monkeypatch.setattr(trace_mod.sys, "platform", "linux")
        assert trace_mod._peak_rss_kb() == 51200

    def test_darwin_maxrss_bytes_normalized_to_kb(self, monkeypatch):
        # macOS getrusage reports ru_maxrss in *bytes*; the sampler must
        # normalize so a 50 MiB process never reads as 50 GiB.
        from repro.obs import trace as trace_mod

        monkeypatch.setattr(
            trace_mod, "resource", self._fake_resource(51200 * 1024)
        )
        monkeypatch.setattr(trace_mod.sys, "platform", "darwin")
        assert trace_mod._peak_rss_kb() == 51200

    def test_darwin_and_linux_agree_on_the_same_process(self, monkeypatch):
        from repro.obs import trace as trace_mod

        monkeypatch.setattr(
            trace_mod, "resource", self._fake_resource(12345)
        )
        monkeypatch.setattr(trace_mod.sys, "platform", "linux")
        linux_kb = trace_mod._peak_rss_kb()
        monkeypatch.setattr(
            trace_mod, "resource", self._fake_resource(12345 * 1024)
        )
        monkeypatch.setattr(trace_mod.sys, "platform", "darwin")
        assert trace_mod._peak_rss_kb() == linux_kb


#: Acceptance criterion: every flow trace reports at least this many
#: named stage spans and distinct counters.
MIN_STAGE_SPANS = 6
MIN_COUNTERS = 8


class TestFlowTraces:
    @pytest.fixture(params=["2d", "m3d", "s2d", "c2d"])
    def flow_run(self, request, traced_2d, traced_m3d, traced_s2d,
                 traced_c2d):
        return {
            "2d": traced_2d, "m3d": traced_m3d,
            "s2d": traced_s2d, "c2d": traced_c2d,
        }[request.param]

    @pytest.fixture()
    def flow_trace(self, flow_run):
        return flow_run[1]

    def test_trace_has_stage_spans_and_counters(self, flow_trace):
        names = set(flow_trace.span_names())
        assert len(names) >= MIN_STAGE_SPANS, sorted(names)
        assert len(flow_trace.counters) >= MIN_COUNTERS, flow_trace.counters

    def test_trace_json_round_trips(self, flow_run):
        """The run's JSON event stream folds back to its trace."""
        _result, trace, events = flow_run
        assert_fold_matches(events, trace)

    def test_core_stages_present(self, flow_trace):
        names = set(flow_trace.span_names())
        for stage in ("global_place", "legalize", "global_route",
                      "layer_assign", "extract", "sta"):
            assert stage in names, f"{flow_trace.flow}: missing {stage}"

    def test_core_counters_present(self, flow_trace):
        for counter in ("pattern_routes", "cg_solves", "extracted_nets",
                        "sta_runs", "assigned_runs"):
            assert counter in flow_trace.counters, flow_trace.flow

    def test_3d_flows_count_f2f_vias(self, traced_m3d, traced_s2d,
                                     traced_c2d):
        for _result, trace, _events in (traced_m3d, traced_s2d, traced_c2d):
            assert trace.counters.get("f2f_vias", 0) > 0, trace.flow

    def test_durations_cover_the_run(self, flow_trace):
        # Stage spans should account for most of the wall clock: the
        # trace is useful as a perf breakdown, not just a label tree.
        # The recording's wall time covers the spans and what runs
        # between them.
        total = flow_trace.wall_s
        staged = sum(root.duration_s for root in flow_trace.spans)
        assert 0.8 * total <= staged <= total

    def test_placer_phases_nest_under_global_place(self, traced_2d):
        _result, trace, _events = traced_2d
        place = trace.span("global_place")
        assert place is not None
        names = [child.name for child in place.children]
        iterations = FLOW_OPTIONS.placer.iterations
        assert names.count("place_connectivity") == 1
        assert names.count("place_solve") == iterations
        assert names.count("place_spread") == iterations
        solves = [c for c in place.children if c.name == "place_solve"]
        assert [c.attrs["iteration"] for c in solves] == list(range(iterations))
        phases = sum(
            c.duration_s for c in place.children
            if c.name.startswith("place_")
        )
        assert phases <= place.duration_s
