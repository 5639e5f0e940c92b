"""Designs-per-hour throughput measurement for the flow service.

``bench serve --jobs N --repeat K`` drives the same scenario list
through one persistent :class:`~repro.serve.service.FlowService`
``K+1`` times against a shared stage cache: round 0 is **cold** (every
stage computes and stores), rounds 1..K are **warm** (chains of cache
hits answered by workers whose imports and cache index are already
hot).  The report separates the two regimes into
``designs_per_hour_cold`` / ``designs_per_hour_warm`` and asserts the
warm runs are QoR byte-identical to the cold ones.

One history record (scenario ``serve-throughput``, flow ``serve``) is
appended per invocation, which puts warm throughput under the same
``bench trend`` gate as every other longitudinal metric.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bench.artifact import qor_json
from repro.obs.history import HistoryRecord, append_history, git_revision

#: The label throughput runs carry in benchmarks/history.jsonl.
THROUGHPUT_SCENARIO = "serve-throughput"


@dataclass
class ThroughputReport:
    """One ``bench serve`` invocation's measurements."""

    scenarios: List[str]
    jobs: int
    repeat: int
    mode: str
    cold_s: float
    warm_s: float
    designs_per_hour_cold: float
    designs_per_hour_warm: float
    #: Aggregate cache counters of the warm rounds, per stage-counter
    #: name (``cache_hit``/``cache_miss``/``cache_store``).
    warm_cache_counters: Dict[str, float] = field(default_factory=dict)
    #: Scenarios whose warm QoR diverged from cold (must stay empty).
    qor_mismatches: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenarios": list(self.scenarios),
            "jobs": self.jobs,
            "repeat": self.repeat,
            "mode": self.mode,
            "cold_s": round(self.cold_s, 3),
            "warm_s": round(self.warm_s, 3),
            "designs_per_hour_cold": round(self.designs_per_hour_cold, 3),
            "designs_per_hour_warm": round(self.designs_per_hour_warm, 3),
            "warm_cache_counters": {
                k: self.warm_cache_counters[k]
                for k in sorted(self.warm_cache_counters)
            },
            "qor_mismatches": list(self.qor_mismatches),
        }


def throughput_record(
    report: ThroughputReport,
    git_rev: str = "",
    ts_unix: float = 0.0,
) -> HistoryRecord:
    """The report's longitudinal footprint for benchmarks/history.jsonl."""
    counters = {
        "designs_per_hour_cold": round(report.designs_per_hour_cold, 3),
        "designs_per_hour_warm": round(report.designs_per_hour_warm, 3),
        "serve_jobs": float(report.jobs),
        "serve_repeat": float(report.repeat),
        "serve_scenarios": float(len(report.scenarios)),
    }
    for name in sorted(report.warm_cache_counters):
        counters[name] = report.warm_cache_counters[name]
    return HistoryRecord(
        scenario=THROUGHPUT_SCENARIO,
        flow="serve",
        config=",".join(report.scenarios),
        size=report.mode,
        git_rev=git_rev,
        ts_unix=round(float(ts_unix), 3),
        wall_s_total=round(report.cold_s + report.warm_s, 6),
        counters=counters,
    )


def run_throughput(
    scenarios: List[str],
    jobs: int,
    repeat: int,
    out_dir: str,
    cache_dir: str,
    history_path: Optional[str] = None,
    events_path: Optional[str] = None,
) -> ThroughputReport:
    """Measure cold/warm designs-per-hour over a persistent service.

    ``repeat`` counts the warm rounds (so ``repeat + 1`` total rounds
    run).  The cache dir should start empty for an honest cold round.
    """
    from repro.serve.service import DONE, FlowService

    if repeat < 1:
        raise ValueError("repeat must be >= 1 (at least one warm round)")
    qor_cold: Dict[str, str] = {}
    mismatches: List[str] = []
    warm_counters: Dict[str, float] = {}
    with FlowService(
        jobs=jobs, out_dir=out_dir, cache_dir=cache_dir,
        events_path=events_path,
    ) as service:
        t0 = time.monotonic()
        for job_id in [service.submit(name) for name in scenarios]:
            service.wait(job_id)
        cold_s = time.monotonic() - t0
        for record in service.records:
            if record.state != DONE:
                raise RuntimeError(
                    f"cold round failed for {record.scenario}: {record.error}"
                )
            qor_cold[record.scenario] = qor_json(record.artifact)

        warm_ids: List[int] = []
        t0 = time.monotonic()
        for _ in range(repeat):
            warm_ids.extend(service.submit(name) for name in scenarios)
        for job_id in warm_ids:
            service.wait(job_id)
        warm_s = time.monotonic() - t0
        for job_id in warm_ids:
            record = service.job(job_id)
            if record.state != DONE:
                raise RuntimeError(
                    f"warm round failed for {record.scenario}: {record.error}"
                )
            if qor_json(record.artifact) != qor_cold[record.scenario]:
                mismatches.append(record.scenario)
            for name, value in record.artifact.counters.items():
                if name.startswith("cache_"):
                    warm_counters[name] = (
                        warm_counters.get(name, 0.0) + float(value)
                    )
        mode = service.mode

    cold_jobs = len(scenarios)
    warm_jobs = len(scenarios) * repeat
    report = ThroughputReport(
        scenarios=list(scenarios),
        jobs=jobs,
        repeat=repeat,
        mode=mode,
        cold_s=cold_s,
        warm_s=warm_s,
        designs_per_hour_cold=cold_jobs / cold_s * 3600.0 if cold_s > 0 else 0.0,
        designs_per_hour_warm=warm_jobs / warm_s * 3600.0 if warm_s > 0 else 0.0,
        warm_cache_counters=warm_counters,
        qor_mismatches=sorted(set(mismatches)),
    )
    if history_path is not None:
        append_history(history_path, throughput_record(
            report, git_rev=git_revision(), ts_unix=time.time(),
        ))
    return report
