"""The Macro-3D flow (paper Sec. IV, Fig. 2).

Four steps:

1. Two same-footprint floorplans, one per die, with the macros placed
   (:func:`repro.floorplan.macro_placer.place_macros_mol`).
2. The MoL-projected 2D floorplan plus the combined double-die BEOL —
   layer renaming, substrate shrinking, superposition
   (:func:`repro.core.projection.project_mol`).
3. One standard 2D P&R pass on the projected design.  Because the engine
   sees the true macro pin layers, the full F2F metal stack and the real
   free substrate area, its placement, routing and sign-off numbers are
   *directly valid* for the 3D stack — no tier partitioning, F2F-via
   planning or incremental re-route follows.
4. Die separation into the two production views
   (:func:`repro.core.separation.separate_dies`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache import StageChain
from repro.core.projection import MolProjection, project_mol
from repro.core.separation import DieView, separate_dies
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
from repro.floorplan.macro_placer import MacroPlacerOptions
from repro.netlist.openpiton import Tile, TileConfig
from repro.obs import count, span
from repro.tech.presets import hk28, hk28_macro_die
from repro.tech.technology import Technology


@collector_paused
def run_flow_macro3d(
    config: TileConfig,
    scale: float = 0.05,
    options: FlowOptions = FlowOptions(),
    logic_tech: Optional[Technology] = None,
    macro_tech: Optional[Technology] = None,
    floorplan_options: MacroPlacerOptions = MacroPlacerOptions(),
    tile: Optional[Tile] = None,
) -> FlowResult:
    """Run the full Macro-3D flow on one tile configuration.

    ``macro_tech`` may have fewer metal layers than ``logic_tech`` — the
    heterogeneous-BEOL configuration of Table III (M6-M4).
    """
    logic = logic_tech or hk28()
    macro = macro_tech or hk28_macro_die()
    chain = StageChain.begin("macro3d", logic=logic, macro=macro)
    seed_tile(chain, config, scale, tile)

    # Steps 1-2: dual floorplans, scripted edits, combined BEOL.
    def _project(st):
        with span("project_mol"):
            projection = project_mol(st["tile"], logic, macro, floorplan_options)
        st["projection"] = projection
        st["combined"] = projection.combined
        st["merged"] = projection.merged

    chain.run("project_mol", _project, floorplan_options=floorplan_options)

    # Step 3: one standard 2D P&R pass on the projected design.
    with span("place"):
        chained_place(chain, fp_key="combined", row_height=logic.row_height,
                      options=options)
    with span("route"):
        chained_route(chain, placement_key="placement", fp_key="combined",
                      stack_fn=lambda st: st["merged"].stack, options=options,
                      merged_fn=lambda st: st["merged"], technology=logic)
    chained_cts(chain, placement_key="placement", fp_key="combined",
                stack_fn=lambda st: st["merged"].stack, options=options,
                macro_die_fn=lambda st: st["projection"].macro_die_instances)
    with span("signoff"):
        chained_signoff(chain, technology=logic, options=options)

    # Step 4: die separation (also validates the layer partition).
    def _separate(st):
        with span("separate_dies"):
            dies: Dict[str, DieView] = separate_dies(
                st["projection"], st["assignment"]
            )
            count("separated_dies", len(dies))
        st["dies"] = dies

    chain.run("separate_dies", _separate)

    # The flow's thesis, measured: the single-pass result verifies
    # clean against the full 3D rules with no fix-up step in between.
    chained_verify(chain, placement_key="placement", fp_key="combined",
                   flow="macro3d")

    st = chain.state
    netlist = st["tile"].netlist
    projection: MolProjection = st["projection"]
    combined, placement = st["combined"], st["placement"]
    grid, routed, assignment = st["grid"], st["routed"], st["assignment"]
    clock_tree, signoff, dies, drc = (
        st["clock_tree"], st["signoff"], st["dies"], st["drc"]
    )
    flow_name = (
        "Macro-3D"
        if macro.stack.num_routing_layers == logic.stack.num_routing_layers
        else f"Macro-3D M{logic.stack.num_routing_layers}-"
        f"M{macro.stack.num_routing_layers}"
    )
    summary = summarize_flow(
        flow=flow_name,
        design=netlist.name,
        netlist=netlist,
        signoff=signoff,
        clock_tree=clock_tree,
        routed=routed,
        assignment=assignment,
        grid=grid,
        die_footprint=combined.area,
        num_dies=2,
        total_metal_layers=(
            logic.stack.num_routing_layers + macro.stack.num_routing_layers
        ),
        options=options,
        drc=drc,
    )
    summary.extras["logic_die_wirelength_m"] = dies["logic_die"].wirelength / 1e6
    summary.extras["macro_die_wirelength_m"] = dies["macro_die"].wirelength / 1e6
    return FlowResult(
        flow=flow_name,
        design=netlist.name,
        floorplans={
            "combined": combined,
            "macro_die": projection.macro_die_fp,
            "logic_die": projection.logic_die_fp,
        },
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
