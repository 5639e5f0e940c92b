"""Per-layer timing from outside the program.

The traced run wraps each layer's public entry points where its callers
look the name up (``repro.flows.base.<fn>``, ``repro.core.macro3d.<fn>``,
methods on their class) and records, per entry point, the inclusive
time and the self time (inclusive minus the wrapped calls nested inside
it).  Work counts come from the program's own
``repro.obs.recording()`` counters.  Nothing under ``src/`` changes.

:func:`traced_layers` installs every wrapper and restores the original
attributes on exit, whether or not the block raised.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (metric stem, module, attribute); ``Class.method`` wraps a method on
#: its class.  Each stem yields the per-layer metric ``<stem>_s``.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("netlist.build_tile", "repro.netlist.openpiton", "build_tile"),
    ("core.project_mol", "repro.core.macro3d", "project_mol"),
    ("core.separate_dies", "repro.core.macro3d", "separate_dies"),
    ("place.global_place", "repro.flows.base", "global_place"),
    ("place.cg", "scipy.sparse.linalg", "cg"),
    ("place.legalize", "repro.flows.base", "legalize"),
    ("place.detailed", "repro.flows.base", "refine_placement"),
    ("route.global_route", "repro.route.global_route", "GlobalRouter.run"),
    ("route.layer_assign", "repro.route.layer_assign", "LayerAssigner.run"),
    ("timing.cts", "repro.flows.base", "synthesize_clock"),
    ("timing.graph", "repro.timing.graph", "TimingGraph.__init__"),
    ("timing.sta", "repro.timing.sta", "StaEngine.run"),
    ("extract.index", "repro.extract.rc", "ExtractionIndex.__init__"),
    ("extract.extract", "repro.flows.base", "extract_design"),
    ("opt.size_for_load", "repro.flows.base", "size_for_load"),
    ("opt.plan_buffers", "repro.flows.base", "plan_buffers"),
    ("opt.size_for_timing", "repro.flows.base", "size_for_timing"),
    ("power.analyze", "repro.flows.base", "analyze_power"),
    ("drc.run_drc", "repro.flows.base", "run_drc"),
    ("flow.summarize", "repro.core.macro3d", "summarize_flow"),
    ("flow.summarize", "repro.flows.flow2d", "summarize_flow"),
    ("cache.lookup", "repro.cache.store", "StageCache.lookup"),
    ("cache.store", "repro.cache.store", "StageCache.store"),
    ("cache.load", "repro.cache.store", "StageCache.load_state"),
)

#: Entry points whose self time is reported beside the inclusive time,
#: because another wrapped entry point runs inside them.
SELF_TIMED = ("place.global_place", "opt.size_for_timing")

#: Per-layer count metric -> program counter (``repro.obs`` name).
COUNTERS: Dict[str, str] = {
    "place.cg_solves": "cg_solves",
    "place.cg_iterations": "cg_iterations",
    "route.maze_expansions": "maze_expansions",
    "route.maze_routes": "maze_routes",
    "route.pattern_routes": "pattern_routes",
    "route.ripup_nets": "ripup_nets",
    "route.negotiation_rounds": "negotiation_rounds",
    "timing.sta_runs": "sta_runs",
    "extract.nets": "extracted_nets",
    "opt.sizing_iterations": "sizing_iterations",
    "opt.cells_upsized": "cells_upsized",
    "drc.nets_checked": "drc_nets_checked",
    "cache.hits": "cache_hit",
    "cache.misses": "cache_miss",
    "cache.stores": "cache_store",
}


@dataclass
class LayerTimes:
    """Inclusive and self seconds per wrapped entry point."""

    inclusive: Dict[str, float] = field(default_factory=dict)
    self_time: Dict[str, float] = field(default_factory=dict)
    #: Time spent in wrapped calls with no wrapped caller.
    top_level_s: float = 0.0
    #: Facts read off return values (nets routed, bytes stored).
    facts: Dict[str, float] = field(default_factory=dict)
    _stack: List[float] = field(default_factory=list)

    def timed(self, stem: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so each call is booked under ``stem``."""

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.book(stem, time.perf_counter() - started, self._stack.pop())
            self._note(stem, result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def book(self, stem: str, elapsed: float, children: float) -> None:
        """Record one call of ``elapsed`` seconds, ``children`` of them
        inside nested wrapped calls."""
        self.inclusive[stem] = self.inclusive.get(stem, 0.0) + elapsed
        self.self_time[stem] = self.self_time.get(stem, 0.0) + elapsed - children
        if self._stack:
            self._stack[-1] += elapsed
        else:
            self.top_level_s += elapsed

    def _note(self, stem: str, result: Any) -> None:
        if stem == "route.global_route":
            self.facts["routed_nets"] = self.facts.get("routed_nets", 0) + len(result)
        elif stem == "cache.store":
            self.facts["bytes_written"] = (
                self.facts.get("bytes_written", 0) + result["state_bytes"]
            )


def _owner(module: str, attribute: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextmanager
def traced_layers(times: Optional[LayerTimes] = None) -> Iterator[LayerTimes]:
    """Install every :data:`ENTRY_POINTS` wrapper for the block."""
    times = times or LayerTimes()
    saved: List[Tuple[Any, str, Any]] = []
    try:
        for stem, module, attribute in ENTRY_POINTS:
            owner, name = _owner(module, attribute)
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, times.timed(stem, original))
        yield times
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {f"{stem}_s": "s" for stem, _, _ in ENTRY_POINTS}
    units.update({f"{stem}_self_s": "s" for stem in SELF_TIMED})
    units.update({metric: "count" for metric in COUNTERS})
    units.update({
        "route.ripup_ratio": "ratio",
        "cache.hit_ratio": "ratio",
        "cache.bytes_written": "bytes",
        "cache.dir_mb": "MB",
        "obs.tracing_overhead_s": "s",
        "flow.unattributed_s": "s",
    })
    return units


def layer_metrics(
    times: LayerTimes, counters: Dict[str, float], traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """The per-layer metric values of one traced pass."""
    metrics: Dict[str, float] = {
        f"{stem}_s": times.inclusive.get(stem, 0.0) for stem, _, _ in ENTRY_POINTS
    }
    for stem in SELF_TIMED:
        metrics[f"{stem}_self_s"] = times.self_time.get(stem, 0.0)
    for metric, counter in COUNTERS.items():
        metrics[metric] = float(counters.get(counter, 0.0))
    routed = times.facts.get("routed_nets", 0.0)
    metrics["route.ripup_ratio"] = metrics["route.ripup_nets"] / routed if routed else 0.0
    lookups = metrics["cache.hits"] + metrics["cache.misses"]
    metrics["cache.hit_ratio"] = metrics["cache.hits"] / lookups if lookups else 0.0
    metrics["cache.bytes_written"] = float(times.facts.get("bytes_written", 0.0))
    metrics["obs.tracing_overhead_s"] = traced_wall_s - untraced_wall_s
    metrics["flow.unattributed_s"] = traced_wall_s - times.top_level_s
    return metrics
