"""BenchArtifact: the versioned ``BENCH_<scenario>.json`` schema.

One artifact is the machine-readable QoR + runtime record of one
scenario run — the unit the baseline comparator diffs and CI uploads.
Schema ``repro.bench/v1``:

- **identity** — scenario name, flow, cache config, size, scale;
- **runtime** — per-stage wall seconds and peak RSS (``null`` where the
  platform can't sample it) from the FlowTrace root spans, the peak
  RSS, and ``wall_s_total``, the recording's whole wall time;
- **observability** — the trace's counters, gauges, and histogram
  summaries (count/sum/min/max/mean/p50/p95/p99);
- **ppa** — the paper-style sign-off numbers of :class:`PPASummary`
  (fclk, energy, wirelength, F2F bumps, power, ...);
- **meta** — informational environment stamps the comparator ignores.

Keys serialize sorted so artifacts diff cleanly in review.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.flows.base import FlowResult
from repro.metrics.ppa import PPASummary
from repro.obs import FlowTrace

BENCH_SCHEMA = "repro.bench/v1"

#: PPASummary fields exported into the artifact's ``ppa`` block.
PPA_FIELDS = (
    "fclk_mhz",
    "emean_fj",
    "footprint_mm2",
    "silicon_mm2",
    "logic_cell_area_mm2",
    "total_wirelength_m",
    "f2f_bumps",
    "cpin_nf",
    "cwire_nf",
    "clock_depth",
    "crit_path_wl_mm",
    "metal_area_mm2",
    "routing_overflow",
    "detour_factor",
    "num_repeaters",
    "power_uw",
    "drc_total",
    "opens",
    "shorts",
    "f2f_overflow",
)


@dataclass
class StageTiming:
    """Wall time + peak RSS of one top-level flow stage."""

    name: str
    wall_s: float
    peak_rss_kb: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "peak_rss_kb": self.peak_rss_kb,
        }

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "StageTiming":
        rss = data.get("peak_rss_kb")
        return StageTiming(
            name=data["name"],
            wall_s=float(data.get("wall_s", 0.0)),
            peak_rss_kb=None if rss is None else int(rss),
        )


@dataclass
class BenchArtifact:
    """One scenario's benchmark record, ready to serialize or compare."""

    scenario: str
    flow: str
    config: str
    size: str
    scale: float
    design: str = ""
    stages: List[StageTiming] = field(default_factory=list)
    wall_s_total: float = 0.0
    peak_rss_kb: Optional[int] = None
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    ppa: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, str] = field(default_factory=dict)

    # -- construction --------------------------------------------------------------

    @staticmethod
    def from_run(
        scenario_name: str,
        flow: str,
        config: str,
        size: str,
        scale: float,
        result: FlowResult,
        trace: FlowTrace,
    ) -> "BenchArtifact":
        stages = [
            StageTiming(
                name=root.name,
                wall_s=root.duration_s,
                peak_rss_kb=root.peak_rss_kb,
            )
            for root in trace.spans
        ]
        rss_values = [s.peak_rss_kb for s in stages if s.peak_rss_kb is not None]
        return BenchArtifact(
            scenario=scenario_name,
            flow=flow,
            config=config,
            size=size,
            scale=scale,
            design=result.design,
            stages=stages,
            wall_s_total=trace.wall_s,
            peak_rss_kb=max(rss_values) if rss_values else None,
            counters=dict(trace.counters),
            gauges=dict(trace.gauges),
            histograms={
                name: stats.to_dict()
                for name, stats in trace.histograms.items()
            },
            ppa=ppa_block(result.summary),
            meta={
                "python": platform.python_version(),
                "platform": sys.platform,
            },
        )

    # -- lookups -------------------------------------------------------------------

    def stage(self, name: str) -> Optional[StageTiming]:
        for stage in self.stages:
            if stage.name == name:
                return stage
        return None

    def lookup(self, path: str) -> Optional[float]:
        """Resolve a dotted metric path (``ppa.fclk_mhz``, ``wall_s_total``,
        ``counters.f2f_vias``, ``stages.global_route.wall_s``) to a number.
        """
        parts = path.split(".")
        if parts[0] == "stages" and len(parts) == 3:
            stage = self.stage(parts[1])
            if stage is None:
                return None
            value = getattr(stage, parts[2], None)
            return None if value is None else float(value)
        node: Any = self.to_dict()
        for part in parts:
            if not isinstance(node, dict) or part not in node:
                return None
            node = node[part]
        return float(node) if isinstance(node, (int, float)) else None

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "scenario": self.scenario,
            "flow": self.flow,
            "config": self.config,
            "size": self.size,
            "scale": self.scale,
            "design": self.design,
            "stages": [s.to_dict() for s in self.stages],
            "wall_s_total": self.wall_s_total,
            "peak_rss_kb": self.peak_rss_kb,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: dict(sorted(values.items()))
                for name, values in sorted(self.histograms.items())
            },
            "ppa": dict(sorted(self.ppa.items())),
            "meta": dict(sorted(self.meta.items())),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "BenchArtifact":
        schema = data.get("schema")
        if schema != BENCH_SCHEMA:
            raise ValueError(
                f"not a bench artifact (schema {schema!r}, "
                f"expected {BENCH_SCHEMA!r})"
            )
        rss = data.get("peak_rss_kb")
        return BenchArtifact(
            scenario=data.get("scenario", ""),
            flow=data.get("flow", ""),
            config=data.get("config", ""),
            size=data.get("size", ""),
            scale=float(data.get("scale", 0.0)),
            design=data.get("design", ""),
            stages=[StageTiming.from_dict(s) for s in data.get("stages", [])],
            wall_s_total=float(data.get("wall_s_total", 0.0)),
            peak_rss_kb=None if rss is None else int(rss),
            counters={
                k: float(v) for k, v in data.get("counters", {}).items()
            },
            gauges={k: float(v) for k, v in data.get("gauges", {}).items()},
            histograms={
                # Values keep their JSON numeric types (count stays an
                # int) so serialization round-trips byte-for-byte.
                name: dict(values)
                for name, values in data.get("histograms", {}).items()
            },
            ppa={k: float(v) for k, v in data.get("ppa", {}).items()},
            meta={k: str(v) for k, v in data.get("meta", {}).items()},
        )

    @staticmethod
    def from_json(text: str) -> "BenchArtifact":
        return BenchArtifact.from_dict(json.loads(text))


def ppa_block(summary: PPASummary) -> Dict[str, float]:
    """The artifact's ``ppa`` mapping from a flow's PPASummary."""
    return {name: float(getattr(summary, name)) for name in PPA_FIELDS}


def qor_dict(artifact: BenchArtifact) -> Dict[str, Any]:
    """The artifact minus everything machine- or run-dependent.

    Scenario runs are deterministic, so two runs of the same scenario —
    serial or parallel, on any machine — must agree on this view
    byte-for-byte.  Only wall times, RSS samples, and the informational
    ``meta`` stamps are allowed to differ.
    """
    data = artifact.to_dict()
    data.pop("wall_s_total", None)
    data.pop("peak_rss_kb", None)
    data.pop("meta", None)
    data["stages"] = [{"name": s["name"]} for s in data.get("stages", [])]
    # Cache hit/miss/store counts describe how a run executed, not what
    # it produced — a warm run must compare byte-identical to a cold one.
    counters = data.get("counters")
    if isinstance(counters, dict):
        for name in [k for k in counters if k.startswith("cache_")]:
            counters.pop(name)
    return data


def qor_json(artifact: BenchArtifact) -> str:
    """Canonical JSON of :func:`qor_dict` for byte-level comparison."""
    return json.dumps(qor_dict(artifact), indent=2, sort_keys=True) + "\n"


def artifact_filename(scenario_name: str) -> str:
    return f"BENCH_{scenario_name}.json"


def perfetto_filename(scenario_name: str) -> str:
    """The Chrome trace-event export written next to an artifact.

    Deliberately *not* ``.json``: artifact discovery globs
    ``BENCH_*.json`` and must never try to parse a trace export as a
    bench artifact.
    """
    return f"BENCH_{scenario_name}.perfetto"


def load_artifact(path: str) -> BenchArtifact:
    """Read one ``BENCH_*.json`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return BenchArtifact.from_json(handle.read())
