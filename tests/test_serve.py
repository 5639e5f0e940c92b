"""Tests for the persistent flow service (repro.serve).

The service API (FIFO submission, job records, drain/shutdown, the
spawn-platform serial fallback) runs against one real tiny scenario —
cold then warm through the same live service, which is the whole point
of keeping workers alive.  A flow that kills its fork worker checks
that a dead worker fails its jobs instead of raising out of the service
or out of ``run_benchmarks``, and that the service replaces the broken
pool for the next submission.  The throughput half is covered twice: a
real ``run_throughput`` over the warm service, and synthetic
history-record tests proving the designs/hour metric round-trips and
is picked up by the ``bench compare --trend`` gate.
"""

import json
import os

import pytest

from repro.bench import (
    Scenario,
    register_scenario,
    run_benchmarks,
    unregister_scenario,
)
from repro.bench.artifact import qor_json
from repro.bench.scenarios import FLOW_RUNNERS
from repro.bench.baseline import (
    DEFAULT_SPECS,
    trend_deltas,
    worst_status,
)
from repro.cache import active_cache
from repro.obs.history import (
    HistoryRecord,
    append_history,
    load_history,
    validate_history,
)
from repro.serve import (
    DONE,
    FAILED,
    FlowService,
    THROUGHPUT_SCENARIO,
    ThroughputReport,
    run_throughput,
    throughput_record,
)
from repro.serve.service import fork_context

TINY = Scenario(
    name="2d-smallcache-servetest",
    flow="2d",
    config="smallcache",
    size="servetest",
    scale=0.01,
    sizing_iterations=1,
)


@pytest.fixture()
def tiny_registered():
    register_scenario(TINY)
    yield TINY
    unregister_scenario(TINY.name)


@pytest.fixture()
def serial_service(monkeypatch):
    """Force the spawn-platform path: one warm worker thread, which the
    service announces with a RuntimeWarning."""
    monkeypatch.setattr("repro.serve.service.fork_context", lambda: None)
    with pytest.warns(RuntimeWarning, match="serially"):
        yield


class TestFlowServiceSerial:
    def test_cold_then_warm_jobs_through_one_service(
        self, serial_service, tiny_registered, tmp_path
    ):
        out = tmp_path / "out"
        # The service creates the events file's missing parent directory.
        events = tmp_path / "events" / "serve.events.jsonl"
        with FlowService(
            jobs=4,
            out_dir=str(out),
            cache_dir=str(tmp_path / "cache"),
            events_path=str(events),
        ) as service:
            assert service.mode == "serial-thread"
            assert service.workers == 1  # fallback ignores the ask
            assert "serially" in service.fallback_reason
            first = service.submit(TINY.name)
            second = service.submit(TINY.name)
            assert [first, second] == [1, 2]
            cold = service.wait(first)
            warm = service.wait(second)
            records = service.drain()
        # The stage cache is scoped per job: nothing stays installed.
        assert active_cache() is None
        assert [r.job_id for r in records] == [1, 2]
        assert cold.state == DONE and warm.state == DONE
        assert cold.error == "" and warm.error == ""
        # The second submission of the same scenario rides the stage
        # cache the first populated: all hits, much faster, same QoR.
        assert warm.artifact.counters["cache_hit"] == 7
        assert "cache_miss" not in warm.artifact.counters
        assert cold.artifact.counters["cache_miss"] == 7
        assert qor_json(warm.artifact) == qor_json(cold.artifact)
        assert warm.wall_s < cold.wall_s
        for record in (cold, warm):
            for path in record.paths:
                assert os.path.exists(path)
        # Per-job live events streamed through the service's sink.
        lines = [json.loads(line)
                 for line in events.read_text().splitlines() if line]
        assert any(e.get("scenario") == TINY.name for e in lines)

    def test_unknown_scenario_fails_its_job_only(
        self, serial_service, tiny_registered, tmp_path
    ):
        with FlowService(jobs=1, out_dir=str(tmp_path / "out")) as service:
            bad = service.submit("no-such-scenario")
            record = service.wait(bad)
        assert record.state == FAILED
        assert "no-such-scenario" in record.error
        assert record.artifact is None

    def test_submit_after_shutdown_raises(self, serial_service, tmp_path):
        service = FlowService(jobs=1, out_dir=str(tmp_path / "out"))
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(TINY.name)
        service.shutdown()  # idempotent

    def test_job_record_to_dict(self, serial_service, tmp_path):
        with FlowService(jobs=1, out_dir=str(tmp_path / "out")) as service:
            job_id = service.submit("missing")
            service.wait(job_id)
            data = service.job(job_id).to_dict()
        assert data["job_id"] == job_id
        assert data["scenario"] == "missing"
        assert data["state"] == FAILED


def _dead_flow(config, scale, options):
    os._exit(3)


class TestWorkerDeath:
    """A worker that dies mid-job fails its jobs; the service survives."""

    DEAD = [
        Scenario(name=f"dead{i}-smallcache-deathtest", flow="dead",
                 config="smallcache", size="deathtest", scale=0.01,
                 sizing_iterations=1)
        for i in (1, 2)
    ]

    @pytest.fixture()
    def dead_registered(self, monkeypatch):
        if fork_context() is None:
            pytest.skip("worker death needs the fork start method")
        monkeypatch.setitem(FLOW_RUNNERS, "dead", _dead_flow)
        for scenario in self.DEAD:
            register_scenario(scenario)
        yield self.DEAD
        for scenario in self.DEAD:
            unregister_scenario(scenario.name)

    def test_dead_job_fails_and_later_submit_runs_on_a_fresh_pool(
        self, dead_registered, tiny_registered, tmp_path
    ):
        with FlowService(jobs=1, out_dir=str(tmp_path / "out")) as service:
            died = service.wait(
                service.submit(dead_registered[0].name), timeout=60
            )
            later = service.wait(service.submit(TINY.name), timeout=120)
        assert died.state == FAILED
        assert "BrokenProcessPool" in died.error
        assert died.artifact is None and died.start_s is None
        assert later.state == DONE, later.traceback
        assert later.artifact.scenario == TINY.name

    def test_run_benchmarks_fails_every_in_flight_scenario(
        self, dead_registered, tmp_path
    ):
        results, schedule, failures = run_benchmarks(
            dead_registered, str(tmp_path), svg=False, jobs=2
        )
        assert results == []
        assert [f.scenario for f in failures] == [
            s.name for s in dead_registered
        ]
        assert all("BrokenProcessPool" in f.traceback for f in failures)
        assert schedule["scenarios"] == []


class TestRunThroughput:
    def test_real_tiny_throughput(self, tiny_registered, tmp_path):
        history = tmp_path / "history.jsonl"
        report = run_throughput(
            [TINY.name],
            jobs=1,
            repeat=2,
            out_dir=str(tmp_path / "out"),
            cache_dir=str(tmp_path / "cache"),
            history_path=str(history),
        )
        assert report.qor_mismatches == []
        assert report.repeat == 2
        assert report.designs_per_hour_cold > 0
        # Two warm rounds of chained hits vs one cold round: the warm
        # regime must be dramatically faster (ISSUE floor is 5x; the
        # margin here is far wider, so no flakiness).
        assert (report.designs_per_hour_warm
                > 5 * report.designs_per_hour_cold)
        assert report.warm_cache_counters["cache_hit"] == 14
        assert report.warm_cache_counters.get("cache_miss", 0.0) == 0.0
        assert report.mode in ("fork-pool", "serial-thread")
        # The history record landed and validates.
        assert validate_history(str(history)) == []
        (record,) = load_history(str(history))
        assert record.scenario == THROUGHPUT_SCENARIO
        assert record.counters["designs_per_hour_warm"] == pytest.approx(
            report.designs_per_hour_warm, rel=1e-3
        )

    def test_repeat_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="repeat"):
            run_throughput(["x"], jobs=1, repeat=0,
                           out_dir=str(tmp_path), cache_dir=str(tmp_path))


def make_report(warm_dph: float) -> ThroughputReport:
    return ThroughputReport(
        scenarios=["macro3d-largecache-small", "macro3d-smallcache-small"],
        jobs=2,
        repeat=3,
        mode="fork-pool",
        cold_s=120.0,
        warm_s=12.0,
        designs_per_hour_cold=60.0,
        designs_per_hour_warm=warm_dph,
        warm_cache_counters={"cache_hit": 66.0},
    )


class TestThroughputHistory:
    def test_record_round_trips(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        record = throughput_record(
            make_report(1800.0), git_rev="abc1234", ts_unix=1_700_000_000.0
        )
        append_history(path, record)
        assert validate_history(path) == []
        (loaded,) = load_history(path)
        assert loaded.flow == "serve"
        assert loaded.size == "fork-pool"
        assert loaded.config == (
            "macro3d-largecache-small,macro3d-smallcache-small"
        )
        assert loaded.counters["serve_jobs"] == 2.0
        assert loaded.counters["cache_hit"] == 66.0
        assert loaded.lookup("counters.designs_per_hour_warm") == 1800.0

    def test_gate_spec_exists_for_warm_throughput(self):
        (spec,) = [s for s in DEFAULT_SPECS
                   if s.path == "counters.designs_per_hour_warm"]
        assert spec.worse == "down"
        assert spec.timing  # machine-dependent: warn-only in CI

    def test_trend_gate_flags_throughput_collapse(self):
        records = [
            throughput_record(make_report(dph), ts_unix=float(i))
            for i, dph in enumerate([2000.0, 2050.0, 1980.0, 900.0])
        ]
        deltas = trend_deltas(records)
        (delta,) = [d for d in deltas
                    if d.path == "counters.designs_per_hour_warm"]
        assert delta.status == "fail"
        assert worst_status(deltas) == "fail"

    def test_trend_gate_passes_steady_throughput(self):
        records = [
            throughput_record(make_report(dph), ts_unix=float(i))
            for i, dph in enumerate([2000.0, 2050.0, 1980.0, 2010.0])
        ]
        deltas = trend_deltas(records)
        (delta,) = [d for d in deltas
                    if d.path == "counters.designs_per_hour_warm"]
        assert delta.status == "ok"
