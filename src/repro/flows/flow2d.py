"""The 2D baseline flow.

Everything on one die: macros ringed around the standard-cell region
(Fig. 4 left), a single six-metal BEOL, no F2F anything.  This is the
reference every 3D flow is measured against in Tables I and II.
"""

from __future__ import annotations

from typing import Optional

from repro.cache import StageChain
from repro.flows.base import (
    FlowOptions,
    FlowResult,
    chained_cts,
    chained_place,
    chained_route,
    chained_signoff,
    chained_verify,
    collector_paused,
    seed_tile,
    summarize_flow,
)
from repro.floorplan.macro_placer import MacroPlacerOptions, place_macros_2d
from repro.netlist.openpiton import Tile, TileConfig
from repro.obs import span
from repro.tech.presets import hk28
from repro.tech.technology import Technology


@collector_paused
def run_flow_2d(
    config: TileConfig,
    scale: float = 0.05,
    options: FlowOptions = FlowOptions(),
    technology: Optional[Technology] = None,
    floorplan_options: MacroPlacerOptions = MacroPlacerOptions(),
    tile: Optional[Tile] = None,
) -> FlowResult:
    """Run the complete 2D reference flow on one tile configuration.

    A fresh tile is built unless one is supplied; flows mutate instance
    masters during optimization, so a tile must not be shared between
    flow runs.

    Stage boundaries are walked through a :class:`StageChain`: with an
    active cache every stage is a content-addressed checkpoint, without
    one the chain is inert and this is the same straight-line flow as
    ever.
    """
    tech = technology or hk28()
    # Only run-wide facts enter the root key; per-stage knobs (floorplan
    # options, placer, router, sizing) are scoped to their own stage so
    # an edited knob reuses every checkpoint upstream of it.
    chain = StageChain.begin("2d", technology=tech)
    seed_tile(chain, config, scale, tile)

    def _floorplan(st):
        with span("floorplan"):
            st["floorplan"] = place_macros_2d(st["tile"], floorplan_options)

    chain.run("floorplan", _floorplan, floorplan_options=floorplan_options)
    with span("place"):
        chained_place(chain, fp_key="floorplan", row_height=tech.row_height,
                      options=options)
    with span("route"):
        chained_route(chain, placement_key="placement", fp_key="floorplan",
                      stack_fn=lambda st: tech.stack, options=options)
    chained_cts(chain, placement_key="placement", fp_key="floorplan",
                stack_fn=lambda st: tech.stack, options=options)
    with span("signoff"):
        chained_signoff(chain, technology=tech, options=options)
    chained_verify(chain, placement_key="placement", fp_key="floorplan",
                   flow="2d")

    st = chain.state
    netlist = st["tile"].netlist
    floorplan, placement = st["floorplan"], st["placement"]
    grid, routed, assignment = st["grid"], st["routed"], st["assignment"]
    clock_tree, signoff, drc = st["clock_tree"], st["signoff"], st["drc"]
    summary = summarize_flow(
        flow="2D",
        design=netlist.name,
        netlist=netlist,
        signoff=signoff,
        clock_tree=clock_tree,
        routed=routed,
        assignment=assignment,
        grid=grid,
        die_footprint=floorplan.area,
        num_dies=1,
        total_metal_layers=tech.stack.num_routing_layers,
        options=options,
        drc=drc,
    )
    return FlowResult(
        flow="2D",
        design=netlist.name,
        floorplans={"die": floorplan},
        placement=placement,
        grid=grid,
        routed=routed,
        assignment=assignment,
        clock_tree=clock_tree,
        plan=signoff.plan,
        sta=signoff.sta,
        power=signoff.power,
        sizing=signoff.sizing,
        summary=summary,
        legalization=st["legalization"],
        drc=drc,
    )
