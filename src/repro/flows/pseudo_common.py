"""Machinery shared by the S2D and C2D baselines.

Both flows run a *pseudo* 2D implementation first (shrunk cells for S2D,
an inflated floorplan with scaled parasitics for C2D), then converge on
the real two-die stack through the same tail:

1. tier partitioning of the standard cells,
2. per-die legalization — where the post-partitioning overlaps get fixed
   at the price of displacement,
3. F2F via planning for the cut nets,
4. a full re-route on the true merged BEOL (the second routing the paper
   notes cannot be co-optimized with placement),
5. sign-off with the optimization choices made on the pseudo design
   (frozen for S2D; re-optimized once for C2D).

The tail walks a :class:`~repro.cache.StageChain` with one checkpoint
per knob boundary: ``tier_partition`` (partitioning, overlap fixing and
F2F planning; only the partition mode is a knob), ``reroute_global_route``
(re-route and layer assignment), ``cts`` (CTS and extraction) and
``sta`` (optimization, STA, power and verification).  With an active
cache an edited knob resumes from the checkpoint right before its stage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Dict, Set

from repro.cache import StageChain
from repro.cells.macro import Macro
from repro.cells.stdcell import StdCell
from repro.drc.connectivity import count_die_crossing_opens
from repro.drc.geometry import check_placement
from repro.flows.base import (
    FlowOptions,
    FlowResult,
    chained_cts,
    chained_route,
    chained_signoff,
    summarize_flow,
)
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.pins import place_ports
from repro.geom import Rect
from repro.netlist.core import Netlist
from repro.netlist.openpiton import Tile
from repro.obs import count, observe, span
from repro.place.global_place import Placement
from repro.place.legalize import legalize
from repro.tech.beol import MACRO_DIE_SUFFIX, merge_beol
from repro.tech.technology import Technology
from repro.tier.f2f_planner import plan_f2f_vias
from repro.tier.partition import PartitionResult, tier_partition


def pseudo_floorplan(
    name: str,
    outline: Rect,
    die0_fp: Floorplan,
    die1_fp: Floorplan,
    utilization: float,
    transform: float = 1.0,
) -> Floorplan:
    """The pseudo design's floorplan: every macro becomes a 50 % blockage.

    Where macros of both dies overlap, the two 50 % blockages stack into
    a full one (the capacity grid and the legalizer accumulate
    densities).  ``transform`` scales positions and sizes — C2D doubles
    the blockage areas along with its doubled floorplan.
    """
    fp = Floorplan(name, outline.scaled(transform), utilization)
    fp.macro_halo = die0_fp.macro_halo
    for source in (die0_fp, die1_fp):
        for macro_name, rect in source.macro_placements.items():
            fp.place_macro(
                macro_name, rect.scaled(transform), blockage_density=0.5
            )
    return fp


def edit_top_die_macros(tile: Tile, die1_macros: Set[str]) -> None:
    """Rename the top-die macros' layers for the final merged stack.

    Unlike Macro-3D's scripted LEF edit, this is not part of the S2D/C2D
    algorithms — it simply expresses the physical truth that those pins
    now live in the other die's BEOL so the final route and extraction
    see reality.
    """
    for name in die1_macros:
        inst = tile.netlist.instance(name)
        master = inst.master
        assert isinstance(master, Macro)
        inst.master = master.with_layer_suffix(MACRO_DIE_SUFFIX)


@dataclass
class TwoDieFinal:
    """Everything the pseudo-flow tail produces."""

    result: FlowResult
    partition: PartitionResult
    planner_bumps: int
    forced_cells: int


def finalize_two_die(
    chain: StageChain,
    flow_name: str,
    logic_tech: Technology,
    macro_tech: Technology,
    options: FlowOptions,
    partition_mode: str = "area",
    post_opt: bool = False,
    placement_key: str = "pseudo_placement",
) -> TwoDieFinal:
    """Run the shared two-die tail of the S2D/C2D flows.

    Reads the pseudo result from the chain state: ``die0_fp``/``die1_fp``
    (the per-die floorplans), ``believed`` (the pseudo extraction) and
    ``placement_key`` (the pseudo placement in final coordinates).
    """

    def _partition(st):
        netlist = st["tile"].netlist
        die0_fp, die1_fp = st["die0_fp"], st["die1_fp"]
        pseudo_placement = st[placement_key]

        # The combined floorplan knows every macro's final location — pin
        # lookups and routing obstructions read from it.
        combined = Floorplan(
            f"{netlist.name}_{flow_name}_final",
            die0_fp.outline,
            die0_fp.utilization,
        )
        combined.macro_halo = die0_fp.macro_halo
        for source in (die0_fp, die1_fp):
            for macro_name, rect in source.macro_placements.items():
                combined.place_macro(macro_name, rect)

        macro_assignment: Dict[str, int] = {}
        for macro_name in die0_fp.macro_placements:
            macro_assignment[macro_name] = 0
        for macro_name in die1_fp.macro_placements:
            macro_assignment[macro_name] = 1

        with span("tier_partition", mode=partition_mode):
            partition = tier_partition(
                netlist,
                pseudo_placement,
                die0_fp,
                die1_fp,
                macro_assignment,
                mode=partition_mode,
            )
            count("cut_nets", partition.cut_nets)

        # Final placement object in the true coordinate space.
        ports = place_ports(netlist, combined.outline)
        final = Placement(netlist, combined, ports)
        for inst in netlist.instances:
            if final.movable[inst.id]:
                final.x[inst.id] = min(
                    max(pseudo_placement.x[inst.id], combined.outline.xlo),
                    combined.outline.xhi,
                )
                final.y[inst.id] = min(
                    max(pseudo_placement.y[inst.id], combined.outline.ylo),
                    combined.outline.yhi,
                )

        # Per-die legalization targets: each die's cells against that
        # die's macros.
        die_cells: Dict[int, Set[str]] = {0: set(), 1: set()}
        for inst in netlist.std_cells():
            die_cells[partition.assignment.get(inst.name, 0)].add(inst.name)

        # Snapshot the pre-fix-up state: after tier assignment but before
        # overlap fixing and F2F planning, this is where the 2D result is
        # *not* valid in 3D — cells overlap macros on their die, and every
        # cut net is still electrically open.  Audited after verification
        # once the final grid exists; the counts feed the EXPERIMENTS table.
        st["combined"] = combined
        st["partition"] = partition
        st["final"] = final
        st["die_cells"] = die_cells
        st["_prefix_snapshot"] = final.copy()
        st["_prefix_3d_opens"] = count_die_crossing_opens(
            netlist, partition.assignment
        )

    def _overlap_fix(st):
        netlist = st["tile"].netlist
        final, die_cells = st["final"], st["die_cells"]
        forced = 0
        displacement_total = 0.0
        legal_results = []
        with span("overlap_fix"):
            for die, die_fp in ((0, st["die0_fp"]), (1, st["die1_fp"])):
                view = final.copy()
                view.floorplan = die_fp
                for inst in netlist.instances:
                    view.movable[inst.id] = (
                        not inst.is_macro and inst.name in die_cells[die]
                    )
                legal = legalize(view, logic_tech.row_height)
                legal_results.append(legal)
                forced += legal.forced
                count("legalize_forced", legal.forced)
                count("legalize_failures", legal.failures)
                for inst in netlist.std_cells():
                    if inst.name in die_cells[die]:
                        final.x[inst.id] = legal.placement.x[inst.id]
                        final.y[inst.id] = legal.placement.y[inst.id]
                displacement_total += float(legal.displacement.sum())
                observe(
                    "legalize_displacement_um", float(legal.displacement.sum())
                )
        st["_forced"] = forced
        st["_displacement_total"] = displacement_total
        st["legalization"] = legal_results[0]

    # F2F via planning (the flows' own estimate of the bump demand).
    def _f2f_plan(st):
        with span("f2f_plan"):
            f2f_plan = plan_f2f_vias(
                st["tile"].netlist, st["final"], st["partition"], logic_tech.f2f
            )
            count("planner_bumps", f2f_plan.total_bumps)
        st["f2f_plan"] = f2f_plan

    # Overlap fixing and F2F planning have no knobs of their own, so they
    # run inside the tier_partition stage.
    def _tier_partition(st):
        _partition(st)
        _overlap_fix(st)
        _f2f_plan(st)

    chain.run("tier_partition", _tier_partition, mode=partition_mode)

    # The second routing, on the true merged BEOL.  The layer edit and
    # BEOL merge replay inside the route stage on a cold resume.
    def _edit_and_merge(st):
        edit_top_die_macros(st["tile"], set(st["die1_fp"].macro_placements))
        st["merged"] = merge_beol(
            logic_tech.stack, macro_tech.stack, logic_tech.f2f
        )

    chained_route(
        chain, placement_key="final", fp_key="combined",
        stack_fn=lambda st: st["merged"].stack, options=options,
        prefix="reroute_", span_name="reroute",
        merged_fn=lambda st: st["merged"], technology=logic_tech,
        die1_fn=lambda st: st["die_cells"][1], prepare=_edit_and_merge,
    )
    chained_cts(
        chain, placement_key="final", fp_key="combined",
        stack_fn=lambda st: st["merged"].stack, technology=logic_tech,
        options=options,
        macro_die_fn=lambda st: (
            st["die_cells"][1] | set(st["die1_fp"].macro_placements)
        ),
    )

    def _prefix_audit(st):
        st["_prefix_placement"] = check_placement(
            st["tile"].netlist, st["_prefix_snapshot"], st["combined"],
            st["grid"], st["die_cells"][1],
            set(st["die1_fp"].macro_placements),
        )

    chained_signoff(
        chain, placement_key="final", fp_key="combined", flow=flow_name,
        options=options, believed_key="believed", post_opt=post_opt,
        die1_cells_fn=lambda st: st["die_cells"][1],
        die1_macros_fn=lambda st: set(st["die1_fp"].macro_placements),
        then=_prefix_audit,
    )

    st = chain.state
    netlist = st["tile"].netlist
    die0_fp, die1_fp, combined = st["die0_fp"], st["die1_fp"], st["combined"]
    partition, final, f2f_plan = st["partition"], st["final"], st["f2f_plan"]
    grid, routed, assignment = st["grid"], st["routed"], st["assignment"]
    clock_tree, signoff, drc = st["clock_tree"], st["signoff"], st["drc"]
    forced = st["_forced"]
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
            logic_tech.stack.num_routing_layers
            + macro_tech.stack.num_routing_layers
        ),
        options=options,
        drc=drc,
    )
    summary.extras["planner_bumps"] = float(f2f_plan.total_bumps)
    summary.extras["cut_nets"] = float(partition.cut_nets)
    summary.extras["forced_cells"] = float(forced)
    summary.extras["legalize_displacement_um"] = st["_displacement_total"]
    summary.extras["prefix_placement_violations"] = float(
        len(st["_prefix_placement"])
    )
    summary.extras["prefix_3d_opens"] = float(st["_prefix_3d_opens"])
    result = FlowResult(
        flow=flow_name,
        design=netlist.name,
        floorplans={"die0": die0_fp, "die1": die1_fp, "combined": combined},
        placement=final,
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
    return TwoDieFinal(
        result=result,
        partition=partition,
        planner_bumps=f2f_plan.total_bumps,
        forced_cells=forced,
    )


def shrink_std_cells(netlist: Netlist, factor: float) -> Dict[str, StdCell]:
    """Shrink every standard cell's footprint by ``factor`` per dimension.

    Returns the original masters keyed by instance name so the caller
    can restore them after the pseudo stage.
    """
    originals: Dict[str, StdCell] = {}
    shrunk_cache: Dict[str, StdCell] = {}
    for inst in netlist.std_cells():
        master = inst.master
        assert isinstance(master, StdCell)
        originals[inst.name] = master
        cached = shrunk_cache.get(master.name)
        if cached is None:
            cached = dc_replace(
                master,
                width=master.width * factor,
                height=master.height * factor,
            )
            shrunk_cache[master.name] = cached
        inst.master = cached
    return originals


def restore_std_cells(netlist: Netlist, originals: Dict[str, StdCell]) -> None:
    """Undo :func:`shrink_std_cells`."""
    for name, master in originals.items():
        netlist.instance(name).master = master
