"""The benchmark scenario registry: what ``bench run`` can run.

A scenario pins one flow × one cache configuration × one size, so a
``BENCH_<scenario>.json`` artifact is comparable across commits.  The
grid spans the paper's experimental space:

- **flows** — the 2D reference and the three 3D methodologies (S2D,
  C2D, Macro-3D) of Tables I/II, plus the two variants the paper's
  tables add: the balanced-floorplan S2D (``bf_s2d``, Table I) and
  Macro-3D on a 4-metal macro die (``macro3d_m4``, Table III);
- **configs** — the small-cache and large-cache OpenPiton tiles;
- **sizes** — ``small`` (CI smoke: tiny statistical scale, few sizing
  iterations), ``medium`` (closer to the paper's operating point),
  ``paper`` (the design point of the Tables I–III / Fig. 4–6 checks in
  ``tests/test_paper.py``: scale 0.04 at the ``FlowOptions`` default of
  25 sizing iterations) and a single hand-registered ``large`` scenario
  near the paper's actual ~190k-instance tile, gated by a wall-time
  budget rather than a QoR baseline.

Scenario names are stable identifiers (``macro3d-largecache-small``);
renaming one orphans its baseline, so don't.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.macro3d import run_flow_macro3d
from repro.flows.base import FlowOptions, FlowResult
from repro.flows.compact2d import run_flow_c2d
from repro.flows.flow2d import run_flow_2d
from repro.flows.shrunk2d import run_flow_s2d
from repro.netlist.openpiton import (
    TileConfig,
    large_cache_config,
    small_cache_config,
)
from repro.tech.presets import hk28_macro_die


def run_flow_bf_s2d(config: TileConfig, **kwargs) -> FlowResult:
    """S2D on the balanced floorplan (BF S2D, Table I)."""
    return run_flow_s2d(config, balanced=True, **kwargs)


def run_flow_macro3d_m4(config: TileConfig, **kwargs) -> FlowResult:
    """Macro-3D with a 4-metal macro die (M6-M4, Table III)."""
    return run_flow_macro3d(config, macro_tech=hk28_macro_die(4), **kwargs)


FLOW_RUNNERS: Dict[str, Callable[..., FlowResult]] = {
    "2d": run_flow_2d,
    "s2d": run_flow_s2d,
    "bf_s2d": run_flow_bf_s2d,
    "c2d": run_flow_c2d,
    "macro3d": run_flow_macro3d,
    "macro3d_m4": run_flow_macro3d_m4,
}

CONFIGS: Dict[str, Callable[[], TileConfig]] = {
    "smallcache": small_cache_config,
    "largecache": large_cache_config,
}

#: size -> (statistical netlist scale, sizing iterations).  These are
#: the *grid* tiers (every flow x config combination exists); ``large``
#: is a size label too, but only select scenarios are registered at it.
SIZES: Dict[str, tuple] = {
    "small": (0.015, 3),
    "medium": (0.03, 8),
    "paper": (0.04, 25),
}

#: Size labels accepted by ``all_scenarios`` beyond the grid tiers.
EXTRA_SIZES = ("large",)


@dataclass(frozen=True)
class Scenario:
    """One reproducible benchmark configuration."""

    name: str
    flow: str
    config: str
    size: str
    scale: float
    sizing_iterations: int
    #: Wall-time budget in seconds, or None for baseline-gated tiers.
    #: Large scenarios have no committed QoR baseline (the artifact is
    #: too slow to regenerate per commit); instead ``bench run`` fails
    #: the scenario when its total wall time exceeds this budget.
    wall_budget_s: Optional[float] = None

    def runner(self) -> Callable[..., FlowResult]:
        return FLOW_RUNNERS[self.flow]

    def tile_config(self) -> TileConfig:
        return CONFIGS[self.config]()

    def options(self) -> FlowOptions:
        return FlowOptions(sizing_iterations=self.sizing_iterations)

    def run(self) -> FlowResult:
        """Execute the scenario's flow (no tracing — callers wrap it)."""
        return self.runner()(
            self.tile_config(), scale=self.scale, options=self.options()
        )


def _build_registry() -> Dict[str, Scenario]:
    registry: Dict[str, Scenario] = {}
    for flow in FLOW_RUNNERS:
        for config in CONFIGS:
            for size, (scale, iters) in SIZES.items():
                name = f"{flow}-{config}-{size}"
                registry[name] = Scenario(
                    name=name,
                    flow=flow,
                    config=config,
                    size=size,
                    scale=scale,
                    sizing_iterations=iters,
                )
    return registry


_REGISTRY = _build_registry()

#: The paper-scale tier: one Macro-3D large-cache run near the real
#: ~190k-instance OpenPiton tile.  No QoR baseline is committed for it
#: (regenerating one per commit is too slow); the wall-time budget is
#: the regression gate instead.  The budget is deliberately loose —
#: about 4x a warm local run — so it catches complexity blowups, not
#: scheduler jitter.
_REGISTRY["macro3d-largecache-large"] = Scenario(
    name="macro3d-largecache-large",
    flow="macro3d",
    config="largecache",
    size="large",
    scale=0.575,
    sizing_iterations=8,
    wall_budget_s=1800.0,
)


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Add a scenario to the registry (tests, ad-hoc sweeps).

    Registered scenarios are addressable by name everywhere built-ins
    are — ``get_scenario``, ``bench run --scenario`` and the parallel
    runner's worker processes (which inherit the registry via fork).
    ``size`` may be any label; it only acts as an ``all_scenarios``
    filter when it matches a built-in tier.
    """
    if scenario.name in _REGISTRY and not replace:
        raise KeyError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister_scenario(name: str) -> None:
    """Remove a ``register_scenario`` entry (test teardown)."""
    _REGISTRY.pop(name, None)


def all_scenarios(size: Optional[str] = None) -> List[Scenario]:
    """Registered scenarios, optionally filtered to one size tier."""
    known = set(SIZES) | set(EXTRA_SIZES)
    if size is not None and size not in known:
        raise KeyError(f"unknown size {size!r} (choose from {sorted(known)})")
    return [
        s for s in _REGISTRY.values() if size is None or s.size == size
    ]


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by its stable name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; run `bench list` for the registry"
        ) from None
