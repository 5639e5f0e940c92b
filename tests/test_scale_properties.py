"""Scale-invariance property tests for the flat-array flow kernels.

The incremental STA engine (`repro.timing.sta.StaEngine`), the batched
RC extraction (`repro.extract.rc.ExtractionIndex`) and the delta-driven
rip-up negotiation (`repro.route.global_route`) must match their
retained scalar oracles *bit for bit* — floating-point accumulation
order is part of the QoR baseline contract, exactly as for the
net-geometry kernels in ``test_perf_kernels``.

The designs are seeded OpenPiton tiles (the tile builder is itself a
statistical netlist generator, so reseeding it IS the randomization),
augmented with the degenerate shapes the kernels special-case: a 1-term
net, a no-overflow routing run (the early-exit path), and a routing run
whose capacities are squeezed so that every net is ripped up at least
once.  The maze batches of each cost epoch must give the same routes
whether one process or several solve them.
"""

import multiprocessing
import os
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.extract.rc import (
    ExtractionIndex,
    extract_design,
    extract_design_reference,
)
from repro.flows.base import (
    FlowOptions,
    apply_macro_obstructions,
    place_design,
    route_design,
)
from repro.floorplan.macro_placer import place_macros_2d
from repro.netlist.openpiton import build_tile, small_cache_config
from repro.opt.buffering import plan_buffers
from repro.opt.sizing import size_for_load
from repro.obs import FlowTrace, recording
from repro.route import global_route
from repro.route.global_route import GlobalRouter, MazeBatchError
from repro.route.grid import RoutingGrid
from repro.tech.presets import hk28
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import TimingGraph
from repro.timing.sta import (
    StaEngine,
    net_slacks_reference,
    run_sta_reference,
)
from tests.oracles.route import nets_on_overflow_reference
from tests.test_determinism import _trace_canon

TECH = hk28()
OPTS = FlowOptions(sizing_iterations=0)
SEEDS = (2020, 7)


def build_state(seed: int, scale: float = 0.012) -> SimpleNamespace:
    """One routed + extracted design, ready for the timing kernels.

    A dangling 1-term net (single input pin, no driver, never routed)
    rides along the whole pipeline: the router must skip it, extraction
    must not see it, and STA must treat it as stateless — in both the
    vectorized kernels and the scalar oracles.
    """
    config = replace(small_cache_config(), seed=seed)
    tile = build_tile(config, scale=scale)
    netlist = tile.netlist
    loner = netlist.add_instance("prop/loner", tile.library.cell("INV_X1"))
    netlist.connect(netlist.add_net("prop_dangling"), loner, "A")

    floorplan = place_macros_2d(tile)
    placement, _legal, _ports = place_design(
        netlist, floorplan, TECH.row_height, OPTS
    )
    grid, routed, assignment = route_design(
        netlist, placement, TECH.stack, floorplan, OPTS
    )
    corners = TECH.corners
    slow = extract_design_reference(routed, assignment, corners.slowest)
    size_for_load(netlist, slow, tile.library)
    plan = plan_buffers(slow, tile.library)
    return SimpleNamespace(
        tile=tile,
        netlist=netlist,
        placement=placement,
        floorplan=floorplan,
        grid=grid,
        routed=routed,
        assignment=assignment,
        slow=slow,
        plan=plan,
        graph=TimingGraph(netlist),
        constraints=TimingConstraints(),
    )


@pytest.fixture(scope="module", params=SEEDS)
def state(request):
    return build_state(request.param)


def assert_sta_equal(got, want):
    """Exact (bitwise) equality of two StaResult objects."""
    assert got.min_period == want.min_period
    assert got.endpoint_period == want.endpoint_period
    assert (got.critical is None) == (want.critical is None)
    if got.critical is not None:
        assert got.critical.endpoint == want.critical.endpoint
        assert got.critical.nets == want.critical.nets
        assert got.critical.wirelength == want.critical.wirelength
        assert got.critical.delay == want.critical.delay
        assert got.critical.launch == want.critical.launch


class TestIncrementalSta:
    def test_initial_run_matches_oracle_exactly(self, state):
        engine = StaEngine(
            state.graph, state.slow, state.plan, state.constraints
        )
        want = run_sta_reference(
            state.graph, state.slow, state.plan, state.constraints
        )
        assert_sta_equal(engine.run(), want)

    def test_net_slacks_match_oracle_exactly(self, state):
        engine = StaEngine(
            state.graph, state.slow, state.plan, state.constraints
        )
        period = engine.run().min_period
        for target in (period, 1.25 * period):
            got = engine.net_slacks(target)
            want = net_slacks_reference(
                state.graph, state.slow, state.plan, state.constraints,
                target,
            )
            assert got == want

    def test_incremental_updates_match_fresh_oracle(self, state):
        """Sizing-style mutations: upsize, re-run, roll back, re-run.

        After every batch of master swaps + ``notify`` calls, the
        incremental engine must agree bit-for-bit with a from-scratch
        scalar STA over the mutated netlist — including flop drivers
        (whose launch delay changes) and multi-input cells (whose pin
        capacitance loads the upstream nets).
        """
        library = state.tile.library
        engine = StaEngine(
            state.graph, state.slow, state.plan, state.constraints
        )
        engine.run()
        rng = np.random.default_rng(1234)
        cells = [
            inst for inst in state.netlist.instances if not inst.is_macro
        ]
        for _batch in range(4):
            saved = []
            for k in rng.integers(0, len(cells), size=40):
                inst = cells[int(k)]
                stronger = library.next_drive_up(inst.master)
                if stronger is None:
                    continue
                saved.append((inst, inst.master))
                inst.master = stronger
                engine.notify(inst)
            got = engine.run()
            want = run_sta_reference(
                state.graph, state.slow, state.plan, state.constraints
            )
            assert_sta_equal(got, want)
            period = got.min_period
            assert engine.net_slacks(period) == net_slacks_reference(
                state.graph, state.slow, state.plan, state.constraints,
                period,
            )
            # Roll half of them back (the sizing loop's reject path).
            for inst, old in saved[: len(saved) // 2]:
                inst.master = old
                engine.notify(inst)
            assert_sta_equal(
                engine.run(),
                run_sta_reference(
                    state.graph, state.slow, state.plan, state.constraints
                ),
            )


class TestBatchedExtraction:
    def assert_parasitics_equal(self, got, want):
        assert got.corner is want.corner
        assert set(got.nets) == set(want.nets)
        for name, rc in got.nets.items():
            ref = want.nets[name]
            assert rc.net is ref.net
            assert rc.wire_cap == ref.wire_cap
            assert rc.pin_cap == ref.pin_cap
            assert rc.elmore == ref.elmore
            assert rc.sink_wirelength == ref.sink_wirelength
            assert rc.path_r == ref.path_r
            assert rc.path_c == ref.path_c
            assert rc.path_blocked == ref.path_blocked
            assert rc.sink_direct == ref.sink_direct
            assert rc.f2f_count == ref.f2f_count

    def test_matches_oracle_exactly_at_both_corners(self, state):
        index = ExtractionIndex(state.routed, state.assignment)
        for corner in (TECH.corners.slowest, TECH.corners.typical):
            got = extract_design(
                state.routed, state.assignment, corner, index=index
            )
            want = extract_design_reference(
                state.routed, state.assignment, corner
            )
            self.assert_parasitics_equal(got, want)

    def test_index_is_optional_and_equivalent(self, state):
        corner = TECH.corners.typical
        with_index = extract_design(
            state.routed,
            state.assignment,
            corner,
            index=ExtractionIndex(state.routed, state.assignment),
        )
        without = extract_design(state.routed, state.assignment, corner)
        self.assert_parasitics_equal(with_index, without)

    def test_dangling_net_not_extracted_but_timed(self, state):
        """The 1-term net never routes, so it has no parasitics; STA
        still enumerates it (stateless) without diverging."""
        assert "prop_dangling" not in state.routed
        assert "prop_dangling" not in state.slow.nets
        net = state.netlist.net("prop_dangling")
        assert net.degree == 1
        engine = StaEngine(
            state.graph, state.slow, state.plan, state.constraints
        )
        period = engine.run().min_period
        slacks = engine.net_slacks(period)
        want = net_slacks_reference(
            state.graph, state.slow, state.plan, state.constraints, period
        )
        assert slacks == want
        assert (net.id in slacks) == (net.id in want)


def _spy_overflow(monkeypatch, rounds):
    """Assert delta == oracle offender lists at every negotiation round."""
    orig = GlobalRouter._nets_on_overflow

    def spy(self):
        got = orig(self)
        want = nets_on_overflow_reference(self)
        assert [r.net.name for r in got] == [r.net.name for r in want]
        rounds.append([r.net.name for r in got])
        return got

    monkeypatch.setattr(GlobalRouter, "_nets_on_overflow", spy)


def _fresh_router(state, cap_bias=None) -> GlobalRouter:
    grid = RoutingGrid(TECH.stack, state.floorplan.outline, OPTS.grid)
    apply_macro_obstructions(grid, state.floorplan, state.netlist, 1.0)
    for blockage in state.floorplan.blockages:
        grid.block_substrate(blockage.rect, blockage.density)
    if cap_bias is not None:
        cap_bias(grid)
    return GlobalRouter(state.netlist, state.placement, grid, OPTS.router)


def _paths(routed):
    return {
        name: [e.path for e in r.edges] for name, r in routed.items()
    }


class TestDeltaRipUp:
    def test_offenders_match_oracle_every_round(self, state, monkeypatch):
        rounds = []
        _spy_overflow(monkeypatch, rounds)
        router = _fresh_router(state)
        delta = _paths(router.run())
        assert rounds  # the design does negotiate at this scale
        monkeypatch.undo()
        reference = _fresh_router(state)
        monkeypatch.setattr(
            reference,
            "_nets_on_overflow",
            lambda: nets_on_overflow_reference(reference),
        )
        assert _paths(reference.run()) == delta

    def test_no_overflow_design_skips_negotiation(self, state, monkeypatch):
        """Inflated capacities: zero overflow, zero rip-up rounds, and
        the delta detector's early-exit path agrees with the oracle."""
        rounds = []
        _spy_overflow(monkeypatch, rounds)

        def inflate(grid):
            grid.cap_h[grid.cap_h > 0] += 1.0e6
            grid.cap_v[grid.cap_v > 0] += 1.0e6

        router = _fresh_router(state, cap_bias=inflate)
        router.run()
        assert rounds and all(not names for names in rounds)
        assert router.grid.overflow_2d() == 0

    def test_every_net_ripped_at_least_once(self, state, monkeypatch):
        """Zeroed capacities: every used edge overflows, so every round
        rips every routed net — the worst-case dirty set — and the
        delta index must still agree with the oracle bit for bit."""
        rounds = []
        _spy_overflow(monkeypatch, rounds)

        def choke(grid):
            grid.cap_h[:] = 0.0
            grid.cap_v[:] = 0.0

        router = _fresh_router(state, cap_bias=choke)
        routed = router.run()
        assert rounds
        ripped = set().union(*rounds)
        # Nets confined to one GCell use no grid edges and can never
        # overflow; every net that touches an edge must have ripped.
        uses_edges = {
            name
            for name, r in routed.items()
            if any(len(e.path) > 1 for e in r.edges)
        }
        assert uses_edges and ripped == uses_edges


def _route_with(state, solvers):
    """Route the state's design with ``solvers`` maze processes, noting
    each maze query that misses its epoch's pre-solved batch.  With
    ``solvers=None`` nothing is pre-solved: every query is searched
    one by one as routing asks it (the memo as a plain cache)."""
    misses = []
    maze = GlobalRouter._route_edge_maze

    def spy(self, a, b):
        if a != b and (a, b) not in self._maze_memo:
            misses.append((a, b))
        return maze(self, a, b)

    with pytest.MonkeyPatch.context() as patch:
        if solvers is None:
            patch.setattr(GlobalRouter, "_solve_epoch", lambda *args: None)
        else:
            patch.setattr(global_route, "_solver_count", lambda: solvers)
        patch.setattr(GlobalRouter, "_route_edge_maze", spy)
        router = _fresh_router(state)
        with recording() as recorder:
            routed = router.run()
    return SimpleNamespace(
        routed=routed,
        grid=router.grid,
        trace=FlowTrace.from_recorder(recorder),
        misses=misses,
        children=multiprocessing.active_children(),
    )


def _die_in_solver(cost_h, cost_v, nx, ny, limit, queries):
    """A share solver that kills any forked solver process running it."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return [
        global_route.maze_search(cost_h, cost_v, nx, ny, limit, a, b)
        for a, b in queries
    ]


class TestMazeBatches:
    @pytest.fixture(scope="class")
    def runs(self, state):
        return {
            solvers: _route_with(state, solvers) for solvers in (None, 1, 2)
        }

    @staticmethod
    def _assert_same_routing(got, want):
        assert _paths(got.routed) == _paths(want.routed)
        for plane in ("use_h", "use_v", "history_h", "history_v"):
            assert np.array_equal(
                getattr(got.grid, plane), getattr(want.grid, plane)
            )
        assert got.trace.counters == want.trace.counters

    def test_batches_match_one_by_one_search(self, runs):
        assert runs[None].misses  # the unbatched run did search
        self._assert_same_routing(runs[1], runs[None])

    def test_solver_count_changes_nothing(self, runs):
        serial, pooled = runs[1], runs[2]
        self._assert_same_routing(pooled, serial)
        # Spans carry no machine-dependent attrs: equal traces.
        assert _trace_canon(pooled.trace) == _trace_canon(serial.trace)
        assert serial.trace.counters["maze_routes"] > 0
        # The solver pool does not outlive run().
        assert pooled.children == [] and serial.children == []

    def test_router_spans_nest_rounds_and_batches(self, runs):
        spans = runs[1].trace.spans
        rounds = int(runs[1].trace.counters["negotiation_rounds"])
        assert [s.name for s in spans] == (
            ["route_initial"] + ["route_round"] * rounds
        )
        for number, round_span in enumerate(spans[1:], 1):
            assert round_span.attrs["round"] == number
            assert round_span.attrs["offenders"] > 0
            assert round_span.children
            for batch in round_span.children:
                assert batch.name == "route_maze"
                assert batch.attrs["queries"] > 0

    def test_batches_cover_every_maze_query(self, runs):
        assert runs[1].misses == [] and runs[2].misses == []

    def test_dead_solver_names_the_batch(self, state, monkeypatch):
        monkeypatch.setattr(global_route, "_solver_count", lambda: 2)
        monkeypatch.setattr(global_route, "_solve_share", _die_in_solver)
        router = _fresh_router(state)
        with pytest.raises(
            MazeBatchError,
            match=r"negotiation round 1, slice from offender 0, \d+ queries",
        ):
            router.run()
        assert multiprocessing.active_children() == []
