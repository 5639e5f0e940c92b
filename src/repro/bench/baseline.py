"""Baseline store and regression comparator for bench artifacts.

The committed baselines live in ``benchmarks/baselines/`` (one
``BENCH_<scenario>.json`` per scenario, same schema as fresh
artifacts).  ``bench compare`` diffs a fresh artifact against its
baseline metric-by-metric:

- each gated metric has a *warn* and a *fail* threshold on the percent
  change in its **worsening** direction (more wall time, less fclk, ...);
- improvements and sub-warn noise pass;
- a ``keys`` row fails when the artifact's ``ppa.*`` or ``counters.*``
  names differ from the baseline's (a metric added or dropped);
- wall-time/RSS metrics can be demoted to warn-only (``gate_time
  =False``) for cross-machine comparisons like CI, where QoR is
  deterministic but the clock is not.

A fail anywhere makes :func:`worst_status` ``fail``, which the CLI
turns into a non-zero exit — the gate every perf PR runs through.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.bench.artifact import (
    BenchArtifact,
    artifact_filename,
    load_artifact,
    qor_dict,
)

#: Default location of the committed baselines, relative to the repo root.
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")

OK = "ok"
WARN = "warn"
FAIL = "fail"
MISSING = "missing"

_STATUS_RANK = {OK: 0, MISSING: 1, WARN: 2, FAIL: 3}


@dataclass(frozen=True)
class MetricSpec:
    """How one artifact metric is gated against its baseline."""

    #: Dotted path into the artifact (see BenchArtifact.lookup).
    path: str
    #: Direction in which *larger* values are worse: "up" means an
    #: increase is a regression (wall time), "down" means a decrease is
    #: (fclk).
    worse: str
    warn_pct: float
    fail_pct: float
    #: Wall-clock/RSS metrics; demoted to warn-only when gate_time=False.
    timing: bool = False


#: The default regression gate (ISSUE thresholds: >10 % wall time or
#: >2 % wirelength fails).
DEFAULT_SPECS: Sequence[MetricSpec] = (
    MetricSpec("wall_s_total", "up", 5.0, 10.0, timing=True),
    MetricSpec("peak_rss_kb", "up", 10.0, 20.0, timing=True),
    MetricSpec("ppa.total_wirelength_m", "up", 1.0, 2.0),
    MetricSpec("ppa.fclk_mhz", "down", 1.0, 2.0),
    MetricSpec("ppa.emean_fj", "up", 1.0, 2.0),
    MetricSpec("ppa.power_uw", "up", 1.0, 2.0),
    MetricSpec("ppa.f2f_bumps", "up", 2.0, 5.0),
    MetricSpec("ppa.routing_overflow", "up", 5.0, 10.0),
    MetricSpec("ppa.num_repeaters", "up", 5.0, 10.0),
    # Signoff DRC: baselines are 0 for clean flows, and any regression
    # from 0 is an infinite percent change — an automatic FAIL.
    MetricSpec("ppa.drc_total", "up", 0.0, 0.0),
    MetricSpec("ppa.opens", "up", 0.0, 0.0),
    MetricSpec("ppa.shorts", "up", 0.0, 0.0),
    MetricSpec("ppa.f2f_overflow", "up", 0.0, 0.0),
    MetricSpec("counters.maze_expansions", "up", 10.0, 25.0),
    MetricSpec("counters.cg_iterations", "up", 10.0, 25.0),
    MetricSpec("counters.sizing_iterations", "up", 10.0, 25.0),
    # Flow-service throughput (bench serve): fewer warm designs/hour is
    # a perf regression.  Timing-class (machine-dependent), so demoted to
    # WARN under --no-gate-time; absent on ordinary scenario records.
    MetricSpec("counters.designs_per_hour_warm", "down", 10.0, 25.0,
               timing=True),
)


@dataclass
class MetricDelta:
    """One metric's baseline-vs-current comparison."""

    path: str
    baseline: Optional[float]
    current: Optional[float]
    delta_pct: Optional[float]
    status: str
    note: str = ""


def _percent_change(baseline: float, current: float) -> Optional[float]:
    if baseline == 0.0:
        return None if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline) * 100.0


def compare_artifacts(
    current: BenchArtifact,
    baseline: BenchArtifact,
    specs: Sequence[MetricSpec] = DEFAULT_SPECS,
    gate_time: bool = True,
) -> List[MetricDelta]:
    """Diff a fresh artifact against its baseline, one delta per spec."""
    deltas: List[MetricDelta] = []
    for spec in specs:
        base = baseline.lookup(spec.path)
        cur = current.lookup(spec.path)
        if base is None or cur is None:
            # A metric absent on both sides (e.g. peak RSS on a platform
            # without sampling, f2f on 2D) is not comparable — skip it.
            if base is None and cur is None:
                continue
            deltas.append(MetricDelta(
                spec.path, base, cur, None, MISSING,
                note="present on one side only",
            ))
            continue
        change = _percent_change(base, cur)
        if change is None:
            deltas.append(MetricDelta(spec.path, base, cur, 0.0, OK))
            continue
        worsening = change if spec.worse == "up" else -change
        status = OK
        note = ""
        if worsening > spec.fail_pct:
            status = FAIL
        elif worsening > spec.warn_pct:
            status = WARN
        if status == FAIL and spec.timing and not gate_time:
            status = WARN
            note = "time metric, not gated"
        deltas.append(MetricDelta(spec.path, base, cur, change, status, note))
    drift = _key_drift(current, baseline)
    if drift is not None:
        deltas.append(drift)
    return deltas


def _metric_names(artifact: BenchArtifact) -> Set[str]:
    # The QoR view, so the ``cache_*`` counters of a cached run do not
    # count as drift against a baseline made without a cache.
    qor = qor_dict(artifact)
    return ({f"ppa.{name}" for name in qor.get("ppa", {})}
            | {f"counters.{name}" for name in qor.get("counters", {})})


def _key_drift(
    current: BenchArtifact, baseline: BenchArtifact
) -> Optional[MetricDelta]:
    """A FAIL ``keys`` row when the artifacts' ``ppa.*``/``counters.*``
    names differ, or None when they match.

    The specs gate only the metrics they name, so a counter the code
    starts or stops emitting would otherwise pass as +0.00 % drift.
    """
    now, then = _metric_names(current), _metric_names(baseline)
    added, removed = sorted(now - then), sorted(then - now)
    if not added and not removed:
        return None
    note = "; ".join(
        f"{label} {', '.join(names)}"
        for label, names in (("added", added), ("removed", removed))
        if names
    )
    return MetricDelta("keys", None, None, None, FAIL, note)


#: Minimum history depth before the trend comparator judges a scenario.
TREND_MIN_RUNS = 3

#: Runs at the old end of the window that form the trend reference.
TREND_WINDOW = 3


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def trend_deltas(
    records: Sequence,
    specs: Sequence[MetricSpec] = DEFAULT_SPECS,
    gate_time: bool = True,
) -> List[MetricDelta]:
    """Gate the *latest* history record against the scenario's own past.

    ``records`` is one scenario's :class:`~repro.obs.history.
    HistoryRecord` list in run order.  The reference for each metric is
    the median of the oldest :data:`TREND_WINDOW` runs; the current
    value is the newest run.  The same warn/fail thresholds as the
    single-baseline gate apply — but to the **cumulative** change, which
    is exactly what that gate cannot see: four consecutive +4 % wall
    regressions each pass the 10 % bar, while the trend gate flags the
    compounded +17 %.

    With fewer than :data:`TREND_MIN_RUNS` runs there is no trend to
    judge and the result is empty.
    """
    if len(records) < TREND_MIN_RUNS:
        return []
    window = records[: min(TREND_WINDOW, len(records) - 1)]
    current_record = records[-1]
    note = f"median of {len(window)} oldest vs newest of {len(records)} runs"
    deltas: List[MetricDelta] = []
    for spec in specs:
        base_values = [
            value for value in (r.lookup(spec.path) for r in window)
            if value is not None
        ]
        cur = current_record.lookup(spec.path)
        if not base_values or cur is None:
            continue
        base = _median(base_values)
        change = _percent_change(base, cur)
        if change is None:
            deltas.append(MetricDelta(spec.path, base, cur, 0.0, OK, note))
            continue
        worsening = change if spec.worse == "up" else -change
        status = OK
        if worsening > spec.fail_pct:
            status = FAIL
        elif worsening > spec.warn_pct:
            status = WARN
        if status == FAIL and spec.timing and not gate_time:
            status = WARN
            note_out = note + "; time metric, not gated"
        else:
            note_out = note
        deltas.append(
            MetricDelta(spec.path, base, cur, change, status, note_out)
        )
    return deltas


def worst_status(deltas: Sequence[MetricDelta]) -> str:
    """The most severe status across a comparison (``ok`` when empty)."""
    worst = OK
    for delta in deltas:
        if _STATUS_RANK[delta.status] > _STATUS_RANK[worst]:
            worst = delta.status
    return worst


def format_diff_table(scenario: str, deltas: Sequence[MetricDelta]) -> str:
    """The human-readable regression table for one scenario."""
    header = (
        f"{'metric':<30s} {'baseline':>14s} {'current':>14s} "
        f"{'Δ%':>8s}  status"
    )
    lines = [f"== {scenario} ==", header, "-" * len(header)]
    for d in deltas:
        base = f"{d.baseline:,.3f}" if d.baseline is not None else "—"
        cur = f"{d.current:,.3f}" if d.current is not None else "—"
        change = f"{d.delta_pct:+.2f}" if d.delta_pct is not None else "—"
        mark = {OK: "ok", WARN: "WARN", FAIL: "FAIL", MISSING: "miss"}[d.status]
        note = f"  ({d.note})" if d.note else ""
        lines.append(
            f"{d.path:<30s} {base:>14s} {cur:>14s} {change:>8s}  {mark}{note}"
        )
    lines.append(f"overall: {worst_status(deltas).upper()}")
    return "\n".join(lines)


def baseline_path(baseline_dir: str, scenario_name: str) -> str:
    return os.path.join(baseline_dir, artifact_filename(scenario_name))


def load_baseline(
    baseline_dir: str, scenario_name: str
) -> Optional[BenchArtifact]:
    """The committed baseline for a scenario, or None if never recorded."""
    path = baseline_path(baseline_dir, scenario_name)
    if not os.path.exists(path):
        return None
    return load_artifact(path)
