"""The Compact-2D (C2D) baseline flow [Ku et al., ISPD 2018].

C2D avoids S2D's cell shrinking (impossible for ultimately scaled nodes):
the pseudo floorplan is inflated to 2x the final per-die footprint, the
per-unit-length wire parasitics are divided by sqrt(2) so the inflated
routes estimate the target stack, and macro blockage areas are doubled.
After P&R the cell locations are mapped linearly back (x, y -> x, y /
sqrt(2)), followed by the same tail as S2D — tier partitioning, overlap
fixing, F2F via planning, re-route — plus the step S2D lacks:
post-tier-partitioning optimization and incremental routing on the real
parasitics.
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import Optional

from repro.cache import StageChain
from repro.extract.rc import extract_design
from repro.flows.base import (
    FlowOptions,
    FlowResult,
    chained_place,
    chained_route,
    collector_paused,
    seed_tile,
)
from repro.flows.pseudo_common import finalize_two_die, pseudo_floorplan
from repro.floorplan.macro_placer import (
    MacroPlacerOptions,
    balanced_macro_split,
    place_macros_mol,
)
from repro.netlist.openpiton import Tile, TileConfig
from repro.obs import span
from repro.tech.layers import LayerStack, RoutingLayer
from repro.tech.presets import hk28, hk28_macro_die
from repro.tech.technology import Technology

#: Pseudo floorplan inflation: 2x area = sqrt(2) per dimension.
INFLATE = math.sqrt(2.0)


def scaled_parasitics_stack(stack: LayerStack, factor: float) -> LayerStack:
    """A copy of ``stack`` with per-um wire parasitics scaled by ``factor``.

    This is C2D's trick for estimating the final design's wire parasitics
    from the inflated floorplan: routes are sqrt(2) too long, so R and C
    per unit length are divided by sqrt(2).
    """
    layers = []
    for layer in stack.layers:
        if isinstance(layer, RoutingLayer):
            layers.append(
                dc_replace(
                    layer,
                    r_per_um=layer.r_per_um * factor,
                    c_per_um=layer.c_per_um * factor,
                )
            )
        else:
            layers.append(layer)
    return LayerStack(layers)


@collector_paused
def run_flow_c2d(
    config: TileConfig,
    scale: float = 0.05,
    options: FlowOptions = FlowOptions(),
    balanced: bool = False,
    partition_mode: str = "area",
    logic_tech: Optional[Technology] = None,
    macro_tech: Optional[Technology] = None,
    floorplan_options: MacroPlacerOptions = MacroPlacerOptions(),
    tile: Optional[Tile] = None,
) -> FlowResult:
    """Run the C2D flow on one tile configuration."""
    logic = logic_tech or hk28()
    macro = macro_tech or hk28_macro_die()
    chain = StageChain.begin("c2d", logic=logic, macro=macro)
    seed_tile(chain, config, scale, tile)
    flow_name = "BF C2D" if balanced else "MoL C2D"

    def _floorplan(st):
        tile_ = st["tile"]
        with span("floorplan", balanced=balanced):
            if balanced:
                die0_fp, die1_fp = balanced_macro_split(tile_, floorplan_options)
            else:
                die1_fp, die0_fp = place_macros_mol(tile_, floorplan_options)
        st["die0_fp"], st["die1_fp"] = die0_fp, die1_fp
        st["pseudo_fp"] = pseudo_floorplan(
            f"{tile_.netlist.name}_c2d_pseudo",
            die0_fp.outline,
            die0_fp,
            die1_fp,
            die0_fp.utilization,
            transform=INFLATE,
        )

    chain.run("floorplan", _floorplan, balanced=balanced,
              floorplan_options=floorplan_options)

    # -- stage 1: the inflated pseudo design ------------------------------------
    with span("pseudo_place"):
        chained_place(
            chain, fp_key="pseudo_fp", row_height=logic.row_height,
            options=options, prefix="pseudo_",
            out_placement="pseudo_placement", out_legal=None,
            out_ports="_pseudo_ports", inflate=INFLATE,
        )
    pseudo_stack = scaled_parasitics_stack(logic.stack, 1.0 / INFLATE)

    def _pseudo_extract(st):
        with span("pseudo_extract"):
            st["believed"] = extract_design(
                st["pseudo_routed"], st["pseudo_assignment"],
                logic.corners.slowest,
            )
        # Linear mapping back to the final coordinate space.
        netlist = st["tile"].netlist
        mapped = st["pseudo_placement"].copy()
        for inst in netlist.instances:
            if mapped.movable[inst.id]:
                mapped.x[inst.id] = st["pseudo_placement"].x[inst.id] / INFLATE
                mapped.y[inst.id] = st["pseudo_placement"].y[inst.id] / INFLATE
        st["mapped"] = mapped

    # The pseudo extraction and mapping have no knobs of their own, so
    # they end the pseudo route stage.
    chained_route(
        chain, placement_key="pseudo_placement", fp_key="pseudo_fp",
        stack_fn=lambda st: pseudo_stack, options=options,
        prefix="pseudo_", span_name="pseudo_route",
        obstruction_fraction=0.5, out_routed="pseudo_routed",
        out_assign="pseudo_assignment", keep_grid=False,
        then=_pseudo_extract,
    )

    # -- stage 2: shared tail, with C2D's post-tier optimization ----------------
    final = finalize_two_die(
        chain,
        flow_name,
        logic,
        macro,
        options,
        partition_mode=partition_mode,
        post_opt=True,
        placement_key="mapped",
    )
    return final.result
