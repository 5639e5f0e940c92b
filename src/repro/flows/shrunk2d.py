"""The Shrunk-2D (S2D) baseline flow [Panth et al., TCAD 2017].

Stage 1 (pseudo design): every standard cell is shrunk to half area
(1/sqrt(2) per dimension) so the whole design fits the final two-die
footprint; floorplanned macros become placement blockages — 50 % where a
macro occupies one die at that (x, y), accumulating to 100 % where both
dies hold one.  The shrunk design is placed and routed with one die's
BEOL, and all optimization (repeaters, sizing) trusts this pseudo
extraction.

Stage 2: tier partitioning (classic area-balanced min-cut — S2D was
built for homogeneous stacks), cell unshrinking, per-die overlap fixing,
F2F via planning, and a full re-route on the true merged BEOL.  Nothing
is re-optimized: S2D has no post-tier-partitioning optimization, which
is one of the drawbacks C2D later addressed.

``balanced=True`` uses the paper's balanced floorplan (BF) variant, in
which identically-shaped banks overlap in z so most blockages are full —
the best case for this flow, at the cost of the MoL manufacturing
advantages.
"""

from __future__ import annotations

import math
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
from repro.flows.pseudo_common import (
    finalize_two_die,
    pseudo_floorplan,
    restore_std_cells,
    shrink_std_cells,
)
from repro.floorplan.macro_placer import (
    MacroPlacerOptions,
    balanced_macro_split,
    place_macros_mol,
)
from repro.netlist.openpiton import Tile, TileConfig
from repro.obs import span
from repro.tech.presets import hk28, hk28_macro_die
from repro.tech.technology import Technology

#: Linear shrink factor: 50 % area.
SHRINK = 1.0 / math.sqrt(2.0)


@collector_paused
def run_flow_s2d(
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
    """Run the S2D flow; ``balanced`` selects the BF floorplan variant."""
    logic = logic_tech or hk28()
    macro = macro_tech or hk28_macro_die()
    chain = StageChain.begin("s2d", logic=logic, macro=macro)
    seed_tile(chain, config, scale, tile)
    flow_name = "BF S2D" if balanced else "MoL S2D"

    def _floorplan(st):
        tile_ = st["tile"]
        with span("floorplan", balanced=balanced):
            if balanced:
                die0_fp, die1_fp = balanced_macro_split(tile_, floorplan_options)
            else:
                die1_fp, die0_fp = place_macros_mol(tile_, floorplan_options)
        st["die0_fp"], st["die1_fp"] = die0_fp, die1_fp
        st["pseudo_fp"] = pseudo_floorplan(
            f"{tile_.netlist.name}_s2d_pseudo",
            die0_fp.outline,
            die0_fp,
            die1_fp,
            die0_fp.utilization,
        )

    chain.run("floorplan", _floorplan, balanced=balanced,
              floorplan_options=floorplan_options)

    # -- stage 1: the shrunk pseudo design ------------------------------------
    def _shrink(st):
        st["_originals"] = shrink_std_cells(st["tile"].netlist, SHRINK)

    with span("pseudo_place"):
        chained_place(
            chain, fp_key="pseudo_fp", row_height=logic.row_height * SHRINK,
            options=options, prefix="pseudo_",
            out_placement="pseudo_placement", out_legal=None,
            out_ports="_pseudo_ports", prepare=_shrink, shrink=SHRINK,
        )

    def _pseudo_extract(st):
        with span("pseudo_extract"):
            st["believed"] = extract_design(
                st["pseudo_routed"], st["pseudo_assignment"],
                logic.corners.slowest,
            )
        restore_std_cells(st["tile"].netlist, st.pop("_originals"))

    # Pseudo routing sees one die's BEOL; macros obstruct it at 50 %
    # (each macro exists in only one die of the future stack).  The
    # pseudo extraction has no knobs of its own, so it ends that stage.
    chained_route(
        chain, placement_key="pseudo_placement", fp_key="pseudo_fp",
        stack_fn=lambda st: logic.stack, options=options,
        prefix="pseudo_", span_name="pseudo_route",
        obstruction_fraction=0.5, out_routed="pseudo_routed",
        out_assign="pseudo_assignment", keep_grid=False,
        then=_pseudo_extract,
    )

    # -- stage 2: partition, fix overlaps, plan bumps, re-route, sign off ------
    final = finalize_two_die(
        chain,
        flow_name,
        logic,
        macro,
        options,
        partition_mode=partition_mode,
        post_opt=False,
    )
    return final.result
