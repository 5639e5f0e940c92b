"""Execute bench scenarios and write their artifacts.

``run_scenario`` runs one scenario under a fresh ``repro.obs``
recording and returns the in-memory results; ``write_benchmark`` adds
the on-disk products: the ``BENCH_<scenario>.json`` artifact plus the
two QoR signoff SVGs next to it (``BENCH_<scenario>.congestion.svg``,
``BENCH_<scenario>.slack.svg``) and, with ``profile=True``, the
cProfile report ``BENCH_<scenario>.profile.txt``.  ``run_job`` is the
one per-scenario job every executor shares: it scopes the stage cache
and the live event stream to the job, stamps it on the monotonic
clock, and reports a crash as a formatted traceback instead of raising.

``run_benchmarks`` drives a whole scenario list.  ``jobs == 1`` runs
the jobs in-process, one after another; ``jobs > 1`` submits them all
to a :class:`repro.serve.FlowService`, the repo's one worker pool.
Scenarios are deterministic and fully independent, so parallel runs
produce byte-identical QoR artifacts — only wall times and RSS samples
may differ.  Every run also writes ``BENCH_schedule.json``:
per-scenario start/end stamps on the shared monotonic clock, which is
how a parallel run *demonstrates* overlap even on a single-core host
(interleaved intervals, not wall-clock speedup, are the evidence).

Live observability rides along on request: ``events_path``/``on_event``
attach a ``repro.obs.events/v1`` stream (heartbeats, span open/close,
marks), every event tagged with its scenario, so the single JSONL file
shows per-scenario, per-stage progress *while* scenarios overlap;
``history_path`` appends one ``repro.obs.history/v1`` record per
completed scenario; ``perfetto=True`` writes a Chrome trace-event
export (``BENCH_<scenario>.perfetto``) next to each artifact.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.bench.artifact import (
    BenchArtifact,
    artifact_filename,
    load_artifact,
    perfetto_filename,
)
from repro.bench.scenarios import Scenario, get_scenario
from repro.bench.svg import render_signoff_visuals
from repro.cache import caching, get_cache
from repro.flows.base import FlowResult
from repro.obs import FlowTrace, profile_call, recording
from repro.obs.events import DEFAULT_HEARTBEAT_S, event_sink, streaming
from repro.obs.export import chrome_trace_from_flowtrace, write_chrome_trace
from repro.obs.history import (
    append_history,
    git_revision,
    record_from_artifact,
)

#: Filename of the per-run schedule record (skipped by artifact discovery).
SCHEDULE_FILENAME = "BENCH_schedule.json"

#: Filename of the per-run cache statistics (the ``CACHE_`` prefix keeps
#: it out of the ``BENCH_*.json`` artifact discovery glob).
CACHE_STATS_FILENAME = "CACHE_stats.json"

#: What :func:`run_job` returns: (artifact, files written, start stamp,
#: end stamp, formatted traceback).  The traceback is None on success;
#: after a crash it is set, the artifact None and the files empty.
JobResult = Tuple[
    Optional[BenchArtifact], List[str], float, float, Optional[str]
]


@dataclass
class BenchFailure:
    """One scenario that did not produce a passing artifact.

    A failure is either a crash (``traceback`` carries the worker's
    formatted stack, whether it raised in-process or in a pool worker)
    or a wall-budget overrun (``traceback`` empty, ``error`` says by
    how much).  Failures never abort the remaining scenarios — a
    raising scenario fails alone.
    """

    scenario: str
    error: str
    traceback: str = ""


def run_scenario(
    scenario: Scenario,
) -> Tuple[BenchArtifact, FlowResult, FlowTrace]:
    """Run one scenario traced and package the artifact."""
    with recording() as recorder:
        result = scenario.run()
    trace = FlowTrace.from_recorder(
        recorder, flow=result.flow, design=result.design
    )
    artifact = BenchArtifact.from_run(
        scenario_name=scenario.name,
        flow=scenario.flow,
        config=scenario.config,
        size=scenario.size,
        scale=scenario.scale,
        result=result,
        trace=trace,
    )
    return artifact, result, trace


def write_benchmark(
    scenario: Scenario,
    out_dir: str,
    svg: bool = True,
    profile: bool = False,
    perfetto: bool = False,
) -> Tuple[BenchArtifact, List[str]]:
    """Run a scenario and write its artifact (+ visuals) into ``out_dir``.

    Returns the artifact and the list of files written, artifact first.
    ``profile=True`` additionally runs the scenario under cProfile and
    writes the cumulative-time report next to the artifact;
    ``perfetto=True`` writes the FlowTrace as a Chrome trace-event file
    loadable in Perfetto/chrome://tracing.
    """
    if profile:
        (artifact, result, trace), report = profile_call(
            run_scenario, scenario
        )
    else:
        artifact, result, trace = run_scenario(scenario)
        report = None
    os.makedirs(out_dir, exist_ok=True)
    paths: List[str] = []
    artifact_path = os.path.join(out_dir, artifact_filename(scenario.name))
    with open(artifact_path, "w", encoding="utf-8") as handle:
        handle.write(artifact.to_json())
    paths.append(artifact_path)
    if report is not None:
        profile_path = os.path.join(
            out_dir, f"BENCH_{scenario.name}.profile.txt"
        )
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(report)
        paths.append(profile_path)
    if perfetto:
        perfetto_path = os.path.join(out_dir, perfetto_filename(scenario.name))
        write_chrome_trace(perfetto_path, chrome_trace_from_flowtrace(trace))
        paths.append(perfetto_path)
    if svg:
        visuals: Dict[str, str] = render_signoff_visuals(result)
        for suffix, document in sorted(visuals.items()):
            svg_path = os.path.join(
                out_dir, f"BENCH_{scenario.name}.{suffix}.svg"
            )
            with open(svg_path, "w", encoding="utf-8") as handle:
                handle.write(document)
            paths.append(svg_path)
    return artifact, paths


def run_job(
    scenario: Union[str, Scenario],
    out_dir: str,
    svg: bool = True,
    profile: bool = False,
    perfetto: bool = False,
    cache_dir: Optional[str] = None,
    write: Optional[Callable[[Dict[str, Any]], None]] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
) -> JobResult:
    """Run one scenario (a registered name, or the scenario itself).

    ``cache_dir`` scopes the stage cache to this job; ``write`` (when
    given) receives the job's live event stream, every event tagged
    with the scenario name.  Start/end stamps come from the monotonic
    clock, so stamps taken in forked pool workers compare across them.

    A raising scenario is reported, not raised: the result carries the
    formatted traceback (exception objects may not pickle across a
    process boundary, and one failing scenario must not end a run).
    """
    start = time.monotonic()
    try:
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        cache_cm = (
            caching(get_cache(cache_dir))
            if cache_dir is not None
            else nullcontext()
        )
        stream_cm = (
            streaming(
                write, heartbeat_s=heartbeat_s,
                base={"scenario": scenario.name},
            )
            if write is not None
            else nullcontext()
        )
        with cache_cm, stream_cm:
            artifact, paths = write_benchmark(
                scenario, out_dir, svg=svg, profile=profile,
                perfetto=perfetto,
            )
    except Exception:
        return None, [], start, time.monotonic(), traceback.format_exc()
    return artifact, paths, start, time.monotonic(), None


def _schedule_dict(
    jobs: int, rows: List[Tuple[str, float, float]]
) -> Dict[str, Any]:
    t0 = min(start for _name, start, _end in rows) if rows else 0.0
    return {
        "jobs": jobs,
        "scenarios": [
            {
                "name": name,
                "start_s": round(start - t0, 6),
                "end_s": round(end - t0, 6),
            }
            for name, start, end in rows
        ],
    }


def write_schedule(out_dir: str, schedule: Dict[str, Any]) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SCHEDULE_FILENAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(schedule, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_benchmarks(
    scenarios: List[Scenario],
    out_dir: str,
    svg: bool = True,
    jobs: int = 1,
    profile: bool = False,
    on_done: Optional[Callable[[Scenario, BenchArtifact, List[str]], None]] = None,
    events_path: Optional[str] = None,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    history_path: Optional[str] = None,
    perfetto: bool = False,
    cache_dir: Optional[str] = None,
) -> Tuple[
    List[Tuple[Scenario, BenchArtifact, List[str]]],
    Dict[str, Any],
    List[BenchFailure],
]:
    """Run scenarios, optionally ``jobs``-wide across processes.

    Returns (per-scenario results in input order, the schedule dict,
    the failures); the schedule is also written to
    ``BENCH_schedule.json`` in ``out_dir``.  ``on_done`` fires once per
    completed scenario, in submission (input) order — a parallel run
    waits for each job in turn, so a fast late scenario reports after
    a slow early one.

    ``jobs > 1`` runs the list through a :class:`repro.serve.FlowService`
    of ``min(jobs, len(scenarios))`` forked workers (a single serial
    worker thread, with a ``RuntimeWarning``, where fork is
    unavailable).

    Live observability: when ``events_path`` and/or ``on_event`` is
    given, every scenario runs under a ``repro.obs.events/v1`` stream
    that lands in the single ``events_path`` file and the ``on_event``
    callback (called from the service's drainer thread when parallel).
    ``history_path`` appends one history record per completed scenario
    (stamped with the current git revision); ``perfetto`` adds a Chrome
    trace-event export next to each artifact.

    A scenario that raises (or whose artifact overruns the scenario's
    ``wall_budget_s``) lands in the failures list instead of aborting
    the run; its results entry is dropped (budget overruns keep
    theirs — the artifact is valid, just slow).  So does every
    scenario in flight when a pool worker dies.

    ``cache_dir`` scopes the content-addressed stage cache to every
    scenario's job and writes the run's aggregate cache footprint to
    ``CACHE_stats.json`` in ``out_dir``.
    """
    by_name = {scenario.name: scenario for scenario in scenarios}
    artifacts: Dict[str, Tuple[BenchArtifact, List[str]]] = {}
    rows: List[Tuple[str, float, float]] = []
    failures: List[BenchFailure] = []
    git_rev = git_revision() if history_path is not None else ""

    def finish(
        name: str,
        artifact: Optional[BenchArtifact],
        paths: List[str],
        start: Optional[float],
        end: Optional[float],
        formatted: Optional[str],
    ) -> None:
        if start is not None:  # None: a dead pool worker never reported
            rows.append((name, start, end))
        if formatted:
            failures.append(BenchFailure(
                name, formatted.strip().splitlines()[-1], formatted
            ))
            return
        artifacts[name] = (artifact, paths)
        scenario = by_name[name]
        budget = scenario.wall_budget_s
        if budget is not None and artifact.wall_s_total > budget:
            failures.append(BenchFailure(
                name,
                f"wall time {artifact.wall_s_total:.1f} s exceeded the "
                f"{budget:.0f} s budget",
            ))
        if history_path is not None:
            append_history(history_path, record_from_artifact(
                artifact, git_rev=git_rev, ts_unix=time.time()
            ))
        if on_done is not None:
            on_done(scenario, artifact, paths)

    if jobs > 1 and len(scenarios) > 1:
        # Imported here: repro.serve imports repro.bench, hence this module.
        from repro.serve.service import FlowService

        with FlowService(
            jobs=min(jobs, len(scenarios)), out_dir=out_dir,
            cache_dir=cache_dir, svg=svg, profile=profile, perfetto=perfetto,
            events_path=events_path, on_event=on_event,
            heartbeat_s=heartbeat_s,
        ) as service:
            for job_id in [service.submit(s.name) for s in scenarios]:
                record = service.wait(job_id)
                finish(
                    record.scenario, record.artifact, record.paths,
                    record.start_s, record.end_s, record.traceback,
                )
    else:
        write, handle = event_sink(events_path, on_event)
        try:
            for scenario in scenarios:
                finish(scenario.name, *run_job(
                    scenario, out_dir, svg=svg, profile=profile,
                    perfetto=perfetto, cache_dir=cache_dir, write=write,
                    heartbeat_s=heartbeat_s,
                ))
        finally:
            if handle is not None:
                handle.close()
    rows.sort(key=lambda row: row[1])
    schedule = _schedule_dict(jobs, rows)
    write_schedule(out_dir, schedule)
    if cache_dir is not None:
        write_cache_stats(out_dir, cache_dir)
    results = [
        (scenario, *artifacts[scenario.name])
        for scenario in scenarios
        if scenario.name in artifacts
    ]
    return results, schedule, failures


def write_cache_stats(out_dir: str, cache_dir: str) -> str:
    """Write the cache root's aggregate footprint next to the artifacts."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, CACHE_STATS_FILENAME)
    stats = get_cache(cache_dir).stats()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def scenarios_overlapped(schedule: Dict[str, Any]) -> bool:
    """True when any two scenario intervals in a schedule overlap."""
    spans = [
        (entry["start_s"], entry["end_s"])
        for entry in schedule.get("scenarios", [])
    ]
    spans.sort()
    return any(
        second_start < first_end
        for (_s0, first_end), (second_start, _e1) in zip(spans, spans[1:])
    )


def discover_artifacts(out_dir: str) -> List[str]:
    """All ``BENCH_*.json`` files in a directory, sorted by name."""
    if not os.path.isdir(out_dir):
        return []
    return sorted(
        os.path.join(out_dir, name)
        for name in os.listdir(out_dir)
        if name.startswith("BENCH_")
        and name.endswith(".json")
        and name != SCHEDULE_FILENAME
    )


def load_artifacts(out_dir: str) -> List[BenchArtifact]:
    return [load_artifact(path) for path in discover_artifacts(out_dir)]
