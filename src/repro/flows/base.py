"""Shared flow machinery: stages, sign-off, and result packaging.

Every flow is a composition of the same stages — floorplan, place,
route, layer-assign, CTS, extract, optimize, STA, power — differing only
in *which geometry and parasitics each stage is shown*.  That difference
is the entire story of the paper:

- 2D and Macro-3D optimize against the same parasitics they are signed
  off with (``believed is None``).
- S2D optimizes against the shrunk pseudo design and is signed off on
  the real stack with those choices frozen (``believed=pseudo``).
- C2D re-optimizes once after tier partitioning (``post_opt=True``).
"""

from __future__ import annotations

import contextlib
import gc
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.cache import StageChain, netlist_fingerprint
from repro.cells.library import StdCellLibrary
from repro.cells.macro import Macro
from repro.drc.engine import run_drc
from repro.drc.report import DrcReport
from repro.extract.rc import DesignParasitics, ExtractionIndex, extract_design
from repro.floorplan.floorplan import Floorplan
from repro.floorplan.pins import place_ports, validate_alignment
from repro.geom import Point
from repro.metrics.ppa import PPASummary
from repro.netlist.core import Instance, Netlist
from repro.obs import annotate, count, gauge, mark, observe, span
from repro.opt.buffering import BufferPlan, plan_buffers
from repro.opt.sizing import SizingResult, size_for_load, size_for_timing
from repro.place.global_place import GlobalPlacerOptions, Placement, global_place
from repro.place.detailed import refine_placement
from repro.place.legalize import LegalizeResult, legalize
from repro.place.regions import allocate_module_regions
from repro.power.power import PowerReport, analyze_power
from repro.route.global_route import GlobalRouter, RoutedNet, RouterOptions
from repro.route.grid import RoutingGrid, RoutingGridOptions
from repro.route.layer_assign import LayerAssigner, LayerAssignment
from repro.tech.beol import MergedBeol
from repro.tech.layers import LayerStack
from repro.tech.technology import Technology
from repro.timing.clock_tree import ClockTree, ClockTreeOptions, synthesize_clock_tree
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import TimingGraph
from repro.timing.sta import StaResult, run_sta
from repro.units import mhz_to_period, um2_to_mm2


@dataclass(frozen=True)
class FlowOptions:
    """Knobs shared by all flows."""

    placer: GlobalPlacerOptions = GlobalPlacerOptions()
    router: RouterOptions = RouterOptions()
    grid: RoutingGridOptions = RoutingGridOptions()
    cts: ClockTreeOptions = ClockTreeOptions()
    constraints: TimingConstraints = TimingConstraints()
    sizing_iterations: int = 25
    #: When set, the flow stops optimizing once this frequency closes and
    #: reports power there — the paper's iso-performance comparison.
    target_frequency_mhz: Optional[float] = None


@dataclass
class FlowResult:
    """Everything a flow produces, ready for metrics and inspection."""

    flow: str
    design: str
    floorplans: Dict[str, Floorplan]
    placement: Placement
    grid: RoutingGrid
    routed: Dict[str, RoutedNet]
    assignment: LayerAssignment
    clock_tree: ClockTree
    plan: BufferPlan
    sta: StaResult
    power: PowerReport
    sizing: SizingResult
    summary: PPASummary
    #: Legalization quality (for the S2D/C2D overlap-fix analysis).
    legalization: Optional[LegalizeResult] = None
    #: F2F bumps added outside routing (planner bumps, clock bumps).
    extra_f2f: int = 0
    #: Signoff verification report (geometry DRC + connectivity).
    drc: Optional[DrcReport] = None


# -- memory policy -------------------------------------------------------------------


class _CollectorPause(contextlib.ContextDecorator):
    """Run a flow with CPython's cyclic garbage collector paused.

    A flow builds a design graph of ~10^5-10^6 container objects that
    stays alive for the whole run, so every full collection during the
    run re-scans it and frees almost nothing; checkpoint loads and
    stores, which allocate millions of objects, trigger most of those
    collections.  The outermost entry therefore does one ``gc.collect()``
    (freeing the previous run's cyclic garbage, so peak memory does not
    ratchet from run to run) and then ``gc.disable()``; its exit
    re-enables the collector only if that entry found it enabled.
    Cyclic garbage made during a run is freed at the next run's entry
    collection or by the collector once it is back on.

    The collector is process-global, so the nesting depth is too: one
    instance, a depth count under a lock, so nested flows and flows on
    concurrent threads share one pause that ends with the last exit.
    Reference counting still frees all acyclic garbage immediately.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._reenable = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if self._depth == 0:
                self._reenable = gc.isenabled()
                gc.collect()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info: Any) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._reenable:
                gc.enable()


#: Decorates every flow entry point (``run_flow_*``).
collector_paused = _CollectorPause()


# -- stages --------------------------------------------------------------------------


def _global_place_stage(
    netlist: Netlist, floorplan: Floorplan, options: FlowOptions
) -> Tuple[Placement, Dict[str, Point]]:
    """The global-placement half of :func:`place_design`."""
    ports = place_ports(netlist, floorplan.outline)
    violations = validate_alignment(netlist, ports)
    if violations:
        raise ValueError(f"IO alignment violations: {violations[:3]}")
    anchors = allocate_module_regions(netlist, floorplan)
    with span("global_place", cells=netlist.num_instances):
        rough = global_place(netlist, floorplan, ports, options.placer, anchors)
    return rough, ports


def _legalize_stage(rough: Placement, row_height: float) -> LegalizeResult:
    """The legalize + detailed-place half of :func:`place_design`."""
    netlist = rough.netlist
    with span("legalize"):
        legal = legalize(rough, row_height)
        count("legalize_forced", legal.forced)
        count("legalize_failures", legal.failures)
        observe("legalize_displacement_um", float(legal.displacement.sum()))
    with span("detailed_place"):
        refine_placement(legal.placement)
    # Live-stream milestone: a watcher sees placement quality the moment
    # it exists, not when the whole flow returns.
    mark("placed", cells=netlist.num_instances, forced=legal.forced,
         failures=legal.failures)
    return legal


def place_design(
    netlist: Netlist,
    floorplan: Floorplan,
    row_height: float,
    options: FlowOptions,
) -> Tuple[Placement, LegalizeResult, Dict[str, Point]]:
    """Global placement + legalization; returns placement and port sites."""
    rough, ports = _global_place_stage(netlist, floorplan, options)
    legal = _legalize_stage(rough, row_height)
    return legal.placement, legal, ports


def apply_macro_obstructions(
    grid: RoutingGrid, floorplan: Floorplan, netlist: Netlist,
    fraction: float = 1.0,
) -> None:
    """Block routing layers under every placed macro's obstructions.

    ``fraction`` < 1 models the pseudo designs of S2D/C2D, where a macro
    occupies only one die of the future stack and therefore blocks only
    half of the (single-BEOL) routing estimate.
    """
    for name, rect in floorplan.macro_placements.items():
        inst = netlist.instance(name)
        master = inst.master
        assert isinstance(master, Macro)
        for obs in master.obstructions:
            grid.block_layer(
                obs.layer, obs.rect.translated(rect.xlo, rect.ylo), fraction
            )


def _global_route_stage(
    netlist: Netlist,
    placement: Placement,
    stack: LayerStack,
    floorplan: Floorplan,
    options: FlowOptions,
    merged: Optional[MergedBeol] = None,
    technology: Optional[Technology] = None,
    obstruction_fraction: float = 1.0,
) -> Tuple[RoutingGrid, Dict[str, RoutedNet]]:
    """The global-routing half of :func:`route_design`."""
    f2f = technology.f2f if (merged is not None and technology) else None
    grid = RoutingGrid(stack, floorplan.outline, options.grid, merged, f2f)
    apply_macro_obstructions(grid, floorplan, netlist, obstruction_fraction)
    for blockage in floorplan.blockages:
        grid.block_substrate(blockage.rect, blockage.density)
    router = GlobalRouter(netlist, placement, grid, options.router)
    with span("global_route", gcells=grid.nx * grid.ny):
        routed = router.run()
        annotate(nets=len(routed))
        gauge("overflow_bins", float(grid.overflow_2d()))
    return grid, routed


def _layer_assign_stage(
    grid: RoutingGrid,
    routed: Dict[str, RoutedNet],
    die1_cells: Optional[Set[str]] = None,
) -> LayerAssignment:
    """The layer-assignment half of :func:`route_design`."""
    with span("layer_assign"):
        assignment = LayerAssigner(grid, die1_cells).run(routed)
        count("f2f_vias", assignment.total_f2f)
        count("signal_vias", assignment.total_vias)
    mark("routed", nets=len(routed), overflow=float(grid.overflow_2d()),
         f2f_vias=assignment.total_f2f)
    return assignment


def route_design(
    netlist: Netlist,
    placement: Placement,
    stack: LayerStack,
    floorplan: Floorplan,
    options: FlowOptions,
    merged: Optional[MergedBeol] = None,
    technology: Optional[Technology] = None,
    die1_cells: Optional[Set[str]] = None,
    obstruction_fraction: float = 1.0,
) -> Tuple[RoutingGrid, Dict[str, RoutedNet], LayerAssignment]:
    """Global routing plus layer assignment on the given stack."""
    grid, routed = _global_route_stage(
        netlist, placement, stack, floorplan, options,
        merged=merged, technology=technology,
        obstruction_fraction=obstruction_fraction,
    )
    assignment = _layer_assign_stage(grid, routed, die1_cells)
    return grid, routed, assignment


def synthesize_clock(
    netlist: Netlist,
    placement: Placement,
    floorplan: Floorplan,
    stack: LayerStack,
    library: StdCellLibrary,
    options: FlowOptions,
    macro_die_instances: Optional[Set[str]] = None,
) -> ClockTree:
    """Run the CTS model over every clocked pin of the design."""
    macro_die_instances = macro_die_instances or set()
    sinks: List[Point] = []
    caps: List[float] = []
    macro_die_sinks = 0
    for net in netlist.clock_nets():
        for term in net.terms:
            if term is net.driver:
                continue
            obj, pin = term
            if not isinstance(obj, Instance):
                continue
            sinks.append(placement.term_position(term))
            caps.append(obj.pin_capacitance(pin))
            if obj.name in macro_die_instances:
                macro_die_sinks += 1
    avg_cap = sum(caps) / len(caps) if caps else 1.0
    # Clock trunks run on the top logic-die metal.
    clock_layer = stack.routing_layers[-1]
    if any(l.name == "M6" for l in stack.routing_layers):
        clock_layer = stack.routing_layer("M6")
    with span("cts", sinks=len(sinks)):
        tree = synthesize_clock_tree(
            sinks,
            avg_cap,
            floorplan.outline,
            clock_layer,
            library,
            macro_die_sinks=macro_die_sinks,
            options=options.cts,
        )
        count("clock_sinks", len(sinks))
    return tree


@dataclass
class Signoff:
    """Extraction + optimization + STA + power in one bundle."""

    slow: DesignParasitics
    typical: DesignParasitics
    plan: BufferPlan
    sizing: SizingResult
    sta: StaResult
    power: PowerReport
    constraints: TimingConstraints


def _extract_stage(
    routed: Dict[str, RoutedNet],
    assignment: LayerAssignment,
    technology: Technology,
) -> Tuple[DesignParasitics, DesignParasitics]:
    """Slow- and typical-corner extraction of the routed design."""
    corners = technology.corners
    with span("extract", nets=len(routed)):
        index = ExtractionIndex(routed, assignment)
        slow = extract_design(routed, assignment, corners.slowest, index=index)
        typical = extract_design(
            routed, assignment, corners.typical, index=index
        )
    return slow, typical


def _sta_stage(
    netlist: Netlist,
    library: StdCellLibrary,
    slow: DesignParasitics,
    typical: DesignParasitics,
    clock_tree: ClockTree,
    options: FlowOptions,
    believed: Optional[DesignParasitics] = None,
    post_opt: bool = False,
) -> Signoff:
    """Optimize, then sign off with STA and power.

    ``believed`` is the parasitic view the optimization trusts (the
    pseudo design for S2D/C2D); sign-off always uses the real extraction.
    ``post_opt`` re-optimizes once on the real parasitics (C2D).
    """
    constraints = options.constraints.with_skew(clock_tree.skew)
    graph = TimingGraph(netlist)
    target_period = (
        mhz_to_period(options.target_frequency_mhz)
        if options.target_frequency_mhz
        else None
    )

    opt_view = believed if believed is not None else slow
    with span("optimize", believed=believed is not None, post_opt=post_opt):
        size_for_load(netlist, opt_view, library)
        plan = plan_buffers(opt_view, library)
        sizing = size_for_timing(
            netlist, graph, opt_view, plan, constraints, library,
            max_iterations=options.sizing_iterations,
            target_period=target_period,
        )
        count("sizing_iterations", sizing.iterations)
        count("cells_upsized", sizing.num_upsized)
        count("repeaters_added", plan.num_repeaters)
    with span("sta"):
        if believed is None:
            sta = sizing.sta
        elif post_opt:
            size_for_load(netlist, slow, library)
            plan = plan_buffers(slow, library)
            sizing = size_for_timing(
                netlist, graph, slow, plan, constraints, library,
                max_iterations=options.sizing_iterations,
                target_period=target_period,
            )
            count("sizing_iterations", sizing.iterations)
            count("cells_upsized", sizing.num_upsized)
            sta = sizing.sta
        else:
            sta = run_sta(graph, slow, plan, constraints)
        gauge("min_period_ps", sta.min_period)
        gauge("timing_endpoints", float(len(sta.endpoint_period)))
    mark("signoff_sta", min_period_ps=sta.min_period,
         fmax_mhz=sta.fmax_mhz)
    with span("power"):
        power = analyze_power(netlist, typical, plan, clock_tree, constraints)
    return Signoff(slow, typical, plan, sizing, sta, power, constraints)


def verify_design(
    netlist: Netlist,
    placement: Placement,
    floorplan: Floorplan,
    grid: RoutingGrid,
    routed: Dict[str, RoutedNet],
    assignment: LayerAssignment,
    die1_cells: Optional[Set[str]] = None,
    die1_macros: Optional[Set[str]] = None,
    flow: str = "",
    design: str = "",
) -> DrcReport:
    """Signoff verification: geometry DRC + connectivity on the final
    routed design.

    Every flow runs this last — for Macro-3D it is the measured form of
    the "directly valid in 3D" claim, for S2D/C2D it audits what their
    fix-up passes (overlap fix, F2F planning, re-route) left behind.
    """
    with span("verify", nets=len(routed)):
        report = run_drc(
            netlist,
            placement,
            floorplan,
            grid,
            routed,
            assignment,
            die1_cells=die1_cells,
            die1_macros=die1_macros,
            flow=flow,
            design=design,
        )
    mark("verified", violations=report.total, clean=report.clean)
    return report


# -- chained stages ----------------------------------------------------------------------
#
# Cache-aware wrappers around the stage bodies above.  Each helper issues
# one StageChain.run() per stage that has knobs of its own (one checkpoint
# per knob boundary); knob-less work runs inside the compute of the stage
# before it.  The computes read and write the shared flow-state dict and
# open the flow-level spans themselves, and StageChain tags those spans
# instead of adding a level, so a cached run has the same span tree as an
# uncached one.

#: A state accessor used by chained stages; evaluated inside the stage
#: compute so it sees rehydrated state on warm resumes.
StateFn = Callable[[Dict[str, Any]], Any]


def seed_tile(chain: StageChain, config, scale: float, tile=None) -> None:
    """Stage 0: build (or adopt) the tile and fold its netlist content
    into the chain key.

    A caller-supplied ``tile`` bypasses the build_tile stage exactly like
    the legacy flows did; its netlist fingerprint still enters the key so
    two different tiles never collide.
    """
    if tile is not None:
        chain.put(tile=tile)
        if chain.enabled:
            chain.extend(netlist=netlist_fingerprint(tile.netlist))
        return

    from repro.netlist.openpiton import build_tile

    def _build(st: Dict[str, Any]):
        with span("build_tile", config=config.name, scale=scale):
            st["tile"] = build_tile(config, scale=scale)
        return {"netlist": netlist_fingerprint(st["tile"].netlist)}

    chain.run("build_tile", _build, config=config, scale=scale)


def chained_place(
    chain: StageChain,
    *,
    fp_key: str,
    row_height: float,
    options: FlowOptions,
    prefix: str = "",
    out_placement: str = "placement",
    out_legal: Optional[str] = "legalization",
    out_ports: str = "ports",
    prepare: Optional[StateFn] = None,
    **extra_knobs: Any,
) -> None:
    """Place as two chained stages: ``<prefix>global_place`` (rough
    placement, stored under the transient ``_rough`` key) and
    ``<prefix>legalize`` (legalize + detailed place, pops ``_rough``).

    ``prepare`` runs inside the global-place compute — the hook for
    mutations that must replay on a cold resume (e.g. S2D cell shrink).
    """

    def _global(st: Dict[str, Any]) -> None:
        if prepare is not None:
            prepare(st)
        rough, ports = _global_place_stage(st["tile"].netlist, st[fp_key], options)
        st["_rough"] = rough
        st[out_ports] = ports

    chain.run(prefix + "global_place", _global,
              placer=options.placer, **extra_knobs)

    def _legal(st: Dict[str, Any]) -> None:
        legal = _legalize_stage(st.pop("_rough"), row_height)
        st[out_placement] = legal.placement
        if out_legal is not None:
            st[out_legal] = legal

    chain.run(prefix + "legalize", _legal, row_height=row_height)


def chained_route(
    chain: StageChain,
    *,
    placement_key: str,
    fp_key: str,
    stack_fn: StateFn,
    options: FlowOptions,
    prefix: str = "",
    span_name: str = "route",
    merged_fn: Optional[StateFn] = None,
    technology: Optional[Technology] = None,
    die1_fn: Optional[StateFn] = None,
    obstruction_fraction: float = 1.0,
    out_routed: str = "routed",
    out_assign: str = "assignment",
    keep_grid: bool = True,
    prepare: Optional[StateFn] = None,
    then: Optional[StateFn] = None,
    **extra_knobs: Any,
) -> None:
    """Route as one chained ``<prefix>global_route`` stage: global
    routing and layer assignment inside ``span(span_name)``, then
    ``then`` (e.g. the pseudo flows' extraction).

    ``stack_fn``/``merged_fn``/``die1_fn`` are evaluated against the flow
    state inside the compute so warm resumes see rehydrated objects.
    When ``keep_grid`` is false the grid never enters the flow state (the
    pseudo grids of S2D/C2D are never needed again).
    """

    def _route(st: Dict[str, Any]) -> None:
        with span(span_name):
            if prepare is not None:
                prepare(st)
            merged = merged_fn(st) if merged_fn is not None else None
            grid, routed = _global_route_stage(
                st["tile"].netlist, st[placement_key], stack_fn(st), st[fp_key],
                options, merged=merged, technology=technology,
                obstruction_fraction=obstruction_fraction,
            )
            die1 = die1_fn(st) if die1_fn is not None else None
            st[out_assign] = _layer_assign_stage(grid, routed, die1)
        st[out_routed] = routed
        if keep_grid:
            st["grid"] = grid
        if then is not None:
            then(st)

    chain.run(prefix + "global_route", _route,
              grid=options.grid, router=options.router,
              obstruction_fraction=obstruction_fraction, **extra_knobs)


def chained_cts(
    chain: StageChain,
    *,
    placement_key: str,
    fp_key: str,
    stack_fn: StateFn,
    technology: Technology,
    options: FlowOptions,
    macro_die_fn: Optional[StateFn] = None,
) -> None:
    """Clock-tree synthesis and extraction as one chained ``cts`` stage.

    The slow/typical parasitics are stored under the transient ``_slow``
    and ``_typical`` keys, which :func:`chained_signoff` pops.
    """

    def _cts(st: Dict[str, Any]) -> None:
        tile = st["tile"]
        macro_die = macro_die_fn(st) if macro_die_fn is not None else None
        with span("cts"):
            st["clock_tree"] = synthesize_clock(
                tile.netlist, st[placement_key], st[fp_key], stack_fn(st),
                tile.library, options, macro_die_instances=macro_die,
            )
            st["_slow"], st["_typical"] = _extract_stage(
                st["routed"], st["assignment"], technology
            )

    chain.run("cts", _cts, cts=options.cts)


def chained_signoff(
    chain: StageChain,
    *,
    placement_key: str,
    fp_key: str,
    flow: str,
    options: FlowOptions,
    believed_key: Optional[str] = None,
    post_opt: bool = False,
    then: Optional[StateFn] = None,
    die1_cells_fn: Optional[StateFn] = None,
    die1_macros_fn: Optional[StateFn] = None,
) -> None:
    """Sign-off as one chained ``sta`` stage: optimize + STA + power
    inside ``span("signoff")``, then ``then`` (Macro-3D's die separation,
    the pseudo flows' prefix-placement audit), then verification.
    """

    def _signoff(st: Dict[str, Any]) -> None:
        tile = st["tile"]
        believed = st[believed_key] if believed_key is not None else None
        with span("signoff"):
            st["signoff"] = _sta_stage(
                tile.netlist, tile.library, st.pop("_slow"), st.pop("_typical"),
                st["clock_tree"], options, believed=believed, post_opt=post_opt,
            )
        if then is not None:
            then(st)
        st["drc"] = verify_design(
            tile.netlist, st[placement_key], st[fp_key], st["grid"],
            st["routed"], st["assignment"],
            die1_cells=die1_cells_fn(st) if die1_cells_fn is not None else None,
            die1_macros=die1_macros_fn(st) if die1_macros_fn is not None else None,
            flow=flow, design=tile.netlist.name,
        )

    chain.run("sta", _signoff,
              sizing_iterations=options.sizing_iterations,
              target_frequency_mhz=options.target_frequency_mhz,
              constraints=options.constraints, post_opt=post_opt, flow=flow)


# -- summary -----------------------------------------------------------------------------


def summarize_flow(
    flow: str,
    design: str,
    netlist: Netlist,
    signoff: Signoff,
    clock_tree: ClockTree,
    routed: Dict[str, RoutedNet],
    assignment: LayerAssignment,
    grid: RoutingGrid,
    die_footprint: float,
    num_dies: int,
    total_metal_layers: int,
    options: FlowOptions,
    extra_f2f: int = 0,
    drc: Optional[DrcReport] = None,
) -> PPASummary:
    """Assemble the paper-style PPA summary of one flow run."""
    fclk = (
        options.target_frequency_mhz
        if options.target_frequency_mhz
        else signoff.sta.fmax_mhz
    )
    if options.target_frequency_mhz and signoff.sta.fmax_mhz < fclk - 1e-6:
        raise ValueError(
            f"{flow}: target {fclk} MHz not met (fmax {signoff.sta.fmax_mhz:.1f})"
        )
    signal_wl = sum(r.wirelength for r in routed.values())
    total_wl = signal_wl + clock_tree.wirelength
    logic_area = (
        netlist.std_cell_area()
        + signoff.plan.added_area()
        + clock_tree.buffer_area
    )
    crit_wl = (
        signoff.sta.critical.wirelength / 1000.0 if signoff.sta.critical else 0.0
    )
    cpin = (
        signoff.typical.total_pin_cap()
        + signoff.plan.added_pin_cap()
    )
    detour = 1.0
    direct = sum(
        sum(
            abs(r.points[e.source_index].x - r.points[e.target_index].x)
            + abs(r.points[e.source_index].y - r.points[e.target_index].y)
            for e in r.edges
        )
        for r in routed.values()
    )
    if direct > 0:
        detour = signal_wl / direct
    return PPASummary(
        flow=flow,
        design=design,
        fclk_mhz=fclk,
        emean_fj=signoff.power.emean(fclk),
        footprint_mm2=um2_to_mm2(die_footprint),
        silicon_mm2=um2_to_mm2(die_footprint * num_dies),
        logic_cell_area_mm2=um2_to_mm2(logic_area),
        total_wirelength_m=total_wl / 1.0e6,
        f2f_bumps=assignment.total_f2f + clock_tree.f2f_count + extra_f2f,
        cpin_nf=cpin / 1.0e6,
        cwire_nf=signoff.typical.total_wire_cap() / 1.0e6,
        clock_depth=clock_tree.depth,
        crit_path_wl_mm=crit_wl,
        metal_area_mm2=um2_to_mm2(die_footprint) * total_metal_layers,
        routing_overflow=grid.overflow_2d(),
        detour_factor=detour,
        num_repeaters=signoff.plan.num_repeaters,
        power_uw=signoff.power.total_power_uw(fclk),
        drc_total=drc.total if drc else 0,
        opens=drc.opens if drc else 0,
        shorts=drc.shorts if drc else 0,
        f2f_overflow=drc.f2f_overflow if drc else 0,
    )
