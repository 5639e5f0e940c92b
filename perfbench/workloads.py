"""The benchmark's workloads, their timed passes and their QoR checks.

Every workload drives the public flow entry points (``run_flow_macro3d``
and ``run_flow_2d`` through the scenario registry, ``repro.cache.caching``
for the stage cache) serially in one process:

- ``macro3d-place`` — Macro-3D on the large-cache tile at scale 0.07,
  cache off: placement is about half of the work;
- ``2d-route`` — the registered ``2d-smallcache-medium`` scenario, cache
  off: the router does most of the work and the placer little;
- ``macro3d-knob-sweep`` — ``macro3d-largecache-medium`` over a stage
  cache filled during set-up: each pass edits ``sizing_iterations``
  (8 upstream stages hit, 3 recompute and store) and then repeats the
  edit exactly (all 11 stages hit, one checkpoint loads).

A flow run fails when it raises, signs off with ``drc_total`` > 0, or
(on the default seed) has a PPA block that differs from the pinned
reference.  A run whose QoR differs from the same label's run in an
earlier pass, or a warm repeat that differs from the edit it repeats,
also fails: the program is deterministic at a fixed seed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.artifact import BenchArtifact, qor_json
from repro.bench.scenarios import Scenario, get_scenario
from repro.cache import StageCache, caching
from repro.obs import FlowTrace

#: ``TileConfig.seed`` of every committed baseline; QoR references exist
#: for this seed only.
DEFAULT_SEED = 2020

REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "references.json")

#: Relative tolerance of a reference match.  The flows are bit-exact at
#: a fixed seed, so this only absorbs float formatting.
QOR_REL_TOL = 1e-9

#: ``sizing_iterations`` value of every knob-sweep edit (the cold run
#: uses the scenario's 8).
EDIT_ITERATIONS = 2

SCENARIOS: Dict[str, Scenario] = {
    "macro3d-place": Scenario(
        name="macro3d-place", flow="macro3d", config="largecache",
        size="bench", scale=0.07, sizing_iterations=8,
    ),
    "2d-route": get_scenario("2d-smallcache-medium"),
    "macro3d-knob-sweep": get_scenario("macro3d-largecache-medium"),
}


@dataclass
class FlowRun:
    """One flow run: its label, QoR and the checks it failed."""

    label: str
    #: ``qor_json`` of the run's PPA block ("" when the run raised).
    qor: str = ""
    ppa: Dict[str, float] = field(default_factory=dict)
    #: Signal vias plus F2F bumps.
    vias: float = 0.0
    failures: List[str] = field(default_factory=list)


@dataclass
class Pass:
    """One timed pass: wall time of its flow runs and what they gave."""

    wall_s: float
    runs: List[FlowRun]
    #: Bytes in the cache dir after the pass, in MB (0 with cache off).
    cache_mb: float = 0.0


def load_references(path: str = REFERENCES_PATH) -> Dict[str, Dict[str, Dict[str, float]]]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return {k: v for k, v in data.items() if not k.startswith("_")}


def check_qor(label: str, ppa: Dict[str, float],
              reference: Optional[Dict[str, float]]) -> List[str]:
    """Failures of one completed run: DRC, then the pinned reference."""
    failures = []
    if ppa["drc_total"] > 0:
        failures.append(f"{label}: drc_total {ppa['drc_total']:g}")
    for name, want in sorted((reference or {}).items()):
        got = ppa.get(name)
        if got is None or not math.isclose(got, want, rel_tol=QOR_REL_TOL):
            failures.append(f"{label}: {name} {got!r} != reference {want!r}")
    return failures


def execute(label: str, flow: Callable[[], Any],
            reference: Optional[Dict[str, float]]) -> Tuple[FlowRun, float]:
    """Run one flow, check it, and return the run and its wall time."""
    run = FlowRun(label)
    started = time.perf_counter()
    try:
        result = flow()
    except Exception as exc:  # a raise is a failed run, not a crash
        traceback.print_exc()
        run.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
        return run, time.perf_counter() - started
    wall = time.perf_counter() - started
    # An empty trace leaves only the design identity and the PPA block
    # in the QoR view; the label stays out, so runs compare across labels.
    artifact = BenchArtifact.from_run(
        "", "", "", "", 0.0, result, FlowTrace(result.flow, result.design)
    )
    run.qor = qor_json(artifact)
    run.ppa = artifact.ppa
    run.vias = float(result.assignment.total_vias) + run.ppa["f2f_bumps"]
    run.failures += check_qor(label, run.ppa, reference)
    return run, wall


def failure_rate(runs: List[FlowRun]) -> float:
    """Failed flow runs over attempted flow runs."""
    return sum(1 for r in runs if r.failures) / len(runs) if runs else 0.0


def check_same(run: FlowRun, earlier: FlowRun) -> None:
    """Fail ``run`` unless its QoR is byte-identical to ``earlier``'s."""
    if run.qor and earlier.qor and run.qor != earlier.qor:
        run.failures.append(
            f"{run.label}: QoR differs from the earlier {earlier.label} run"
        )


def _files(root: str) -> set:
    return {
        os.path.join(dirpath, name)
        for dirpath, _dirs, names in os.walk(root) for name in names
    }


class Workload:
    """One named workload at one seed: set-up and timed passes."""

    def __init__(self, name: str, seed: int, workdir: str,
                 references: Optional[Dict[str, Dict[str, Dict[str, float]]]] = None):
        self.name = name
        self.seed = seed
        self.scenario = SCENARIOS[name]
        self.cached = name == "macro3d-knob-sweep"
        self.cache_dir = os.path.join(workdir, "cache")
        refs = references if references is not None else load_references()
        #: Pinned PPA per run label; empty on a non-default seed, where
        #: only completion and ``drc_total`` = 0 are checked.
        self.references = refs.get(name, {}) if seed == DEFAULT_SEED else {}
        self._cache_files: set = set()
        self._first: Dict[str, FlowRun] = {}

    def _flow(self, sizing_iterations: int,
              cache: Optional[StageCache]) -> Callable[[], Any]:
        sc = self.scenario
        config = replace(sc.tile_config(), seed=self.seed)
        options = replace(sc.options(), sizing_iterations=sizing_iterations)

        def run() -> Any:
            with caching(cache):
                return sc.runner()(config, scale=sc.scale, options=options)

        return run

    def _steps(self) -> List[Tuple[str, Callable[[], Any]]]:
        if not self.cached:
            return [("flow", self._flow(self.scenario.sizing_iterations, None))]
        # A fresh StageCache per pass: its in-memory index starts empty,
        # like a new process over the same cache dir.
        edit = self._flow(EDIT_ITERATIONS, StageCache(self.cache_dir))
        return [("edit", edit), ("warm", edit)]

    def setup(self) -> Tuple[float, List[FlowRun]]:
        """Fill the stage cache (knob sweep only); returns its wall time
        and the cold run."""
        if not self.cached:
            return 0.0, []
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)
        cold, wall = execute(
            "cold",
            self._flow(self.scenario.sizing_iterations, StageCache(self.cache_dir)),
            self.references.get("cold"),
        )
        self._cache_files = _files(self.cache_dir)
        return wall, [cold]

    def run_pass(self) -> Pass:
        """One timed pass.  The knob sweep then deletes what the pass
        stored, so every pass starts from the same filled cache."""
        runs: List[FlowRun] = []
        wall = 0.0
        for label, flow in self._steps():
            run, seconds = execute(label, flow, self.references.get(label))
            wall += seconds
            if label == "warm":
                check_same(run, runs[-1])
            if label in self._first:
                check_same(run, self._first[label])
            else:
                self._first[label] = run
            runs.append(run)
        done = Pass(wall, runs)
        if self.cached:
            files = _files(self.cache_dir)
            done.cache_mb = sum(os.path.getsize(p) for p in files) / 1e6
            for path in files - self._cache_files:
                os.unlink(path)
        return done


def measure(workload: Workload, seconds: float) -> List[Pass]:
    """Timed passes until another would end past ``seconds`` (at least one)."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        typical = statistics.median(p.wall_s for p in passes)
        if time.perf_counter() - started + typical > seconds:
            return passes
