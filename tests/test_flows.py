"""Flow-level integration: 2D, S2D, C2D, cross-flow invariants, metrics.

These exercise the complete flows on a very small tile.  The flow runs
themselves are the session-scoped ``flow_*`` fixtures of conftest.py
(shared with test_obs/test_determinism/test_flow_shape), so each flow
executes once for the whole suite.  The flows' memory policy (the
cyclic collector paused for a run) is checked on failing, nested and
concurrent runs; test_determinism checks that it leaves QoR untouched.
"""

import gc
import threading
import weakref

import pytest

from repro.flows.base import FlowOptions, collector_paused
from repro.flows.compact2d import scaled_parasitics_stack
from repro.flows.flow2d import run_flow_2d
from repro.flows.shrunk2d import run_flow_s2d
from repro.metrics.ppa import PPASummary, relative_change
from repro.metrics.report import format_table
from repro.netlist.openpiton import small_cache_config
from repro.tech.presets import hk28

from tests.conftest import FLOW_OPTIONS as FAST
from tests.conftest import FLOW_SCALE as SCALE


class TestFlow2D:
    def test_complete(self, flow_2d):
        summary = flow_2d.summary
        assert summary.fclk_mhz > 50
        assert summary.f2f_bumps == 0  # single die
        assert summary.clock_depth >= 2
        assert summary.total_wirelength_m > 0
        assert flow_2d.legalization.failures == 0

    def test_iso_performance_target(self, flow_2d):
        base = flow_2d  # the same run: FAST options at SCALE
        target = base.summary.fclk_mhz * 0.5
        iso = run_flow_2d(
            small_cache_config(), scale=SCALE,
            options=FlowOptions(sizing_iterations=3,
                                target_frequency_mhz=target),
        )
        assert iso.summary.fclk_mhz == pytest.approx(target)
        # Relaxed target must not need more repeater/sizing power.
        assert iso.summary.power_uw < base.summary.power_uw

    def test_infeasible_target_raises(self):
        with pytest.raises(ValueError, match="not met"):
            run_flow_2d(
                small_cache_config(), scale=SCALE,
                options=FlowOptions(sizing_iterations=1,
                                    target_frequency_mhz=50000.0),
            )


class TestS2D:
    def test_complete(self, flow_s2d):
        summary = flow_s2d.summary
        assert summary.flow == "MoL S2D"
        assert summary.fclk_mhz > 20
        assert summary.f2f_bumps > 0
        assert summary.extras["planner_bumps"] > 0
        assert summary.extras["cut_nets"] > 0

    def test_balanced_variant(self):
        bf = run_flow_s2d(
            small_cache_config(), scale=SCALE, options=FAST, balanced=True
        )
        assert bf.summary.flow == "BF S2D"
        assert bf.summary.fclk_mhz > 20

    def test_s2d_slower_than_macro3d(self, flow_s2d, flow_m3d):
        # The paper's central comparison (Table I ordering).
        assert flow_s2d.summary.fclk_mhz < flow_m3d.summary.fclk_mhz


class TestC2D:
    def test_scaled_stack(self, tech):
        scaled = scaled_parasitics_stack(tech.stack, 0.5)
        for raw, cooked in zip(
            tech.stack.routing_layers, scaled.routing_layers
        ):
            assert cooked.r_per_um == pytest.approx(raw.r_per_um * 0.5)
            assert cooked.c_per_um == pytest.approx(raw.c_per_um * 0.5)
        # Vias untouched: they do not scale with floorplan inflation.
        for raw, cooked in zip(tech.stack.cut_layers, scaled.cut_layers):
            assert cooked.resistance == pytest.approx(raw.resistance)

    def test_complete(self, flow_c2d):
        assert flow_c2d.summary.flow == "MoL C2D"
        assert flow_c2d.summary.fclk_mhz > 20
        assert flow_c2d.summary.f2f_bumps > 0


class TestCrossFlow:
    def test_footprint_halved_in_3d(self, flow_2d, flow_m3d):
        ratio = flow_2d.summary.footprint_mm2 / flow_m3d.summary.footprint_mm2
        assert 1.6 < ratio <= 2.1  # paper: exactly 2; packing may grow ours

    def test_same_silicon_budget(self, flow_2d, flow_m3d):
        ratio = flow_2d.summary.silicon_mm2 / flow_m3d.summary.silicon_mm2
        assert 0.8 < ratio < 1.25

    def test_3d_shortens_wirelength(self, flow_2d, flow_m3d):
        assert (
            flow_m3d.summary.total_wirelength_m
            < flow_2d.summary.total_wirelength_m
        )

    def test_3d_critical_path_wire_shorter(self, flow_2d, flow_m3d):
        assert (
            flow_m3d.summary.crit_path_wl_mm
            < flow_2d.summary.crit_path_wl_mm * 1.5
        )

    def test_netlists_identical_across_flows(self, flow_2d, flow_m3d):
        # Same seed, same statistics: the comparison is apples-to-apples.
        assert (
            flow_2d.placement.netlist.num_instances
            == flow_m3d.placement.netlist.num_instances
        )
        assert (
            flow_2d.placement.netlist.num_nets
            == flow_m3d.placement.netlist.num_nets
        )


class TestMetrics:
    def test_relative_change(self):
        assert relative_change(100.0, 120.0) == pytest.approx(20.0)
        assert relative_change(100.0, 80.0) == pytest.approx(-20.0)
        with pytest.raises(ValueError):
            relative_change(0.0, 1.0)

    def test_format_table_includes_deltas(self, flow_2d, flow_m3d):
        text = format_table(
            "t", [flow_2d.summary, flow_m3d.summary], baseline="2D"
        )
        assert "fclk [MHz]" in text
        assert "%" in text
        assert flow_m3d.summary.flow in text

    def test_summary_row_keys_paper_complete(self, flow_2d):
        row = flow_2d.summary.as_row()
        for key in (
            "fclk [MHz]", "Emean [fJ/cycle]", "Afootprint [mm2]",
            "Alogic-cells [mm2]", "Total wirelength [m]", "F2F bumps",
            "Cpin,total [nF]", "Cwire,total [nF]", "Max clk-tree depth",
            "Crit-path wirelength [mm]", "Ametal [mm2]",
        ):
            assert key in row


def _failing_floorplan(*args, **kwargs):
    assert not gc.isenabled(), "collector on inside a flow run"
    raise RuntimeError("floorplan failed")


class TestCollectorPause:
    def test_a_raising_stage_leaves_the_collector_enabled(self, monkeypatch):
        monkeypatch.setattr("repro.flows.flow2d.place_macros_2d",
                            _failing_floorplan)
        with pytest.raises(RuntimeError, match="floorplan failed"):
            run_flow_2d(small_cache_config(), scale=0.01)
        assert gc.isenabled()

    def test_a_nested_flow_does_not_reenable_early(self, monkeypatch):
        monkeypatch.setattr("repro.flows.flow2d.place_macros_2d",
                            _failing_floorplan)
        with collector_paused:
            with pytest.raises(RuntimeError, match="floorplan failed"):
                run_flow_2d(small_cache_config(), scale=0.01)
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_entered_disabled_stays_disabled_but_still_collects(self):
        class Node:
            pass

        gc.disable()
        try:
            node = Node()
            node.me = node
            ref = weakref.ref(node)
            del node
            with collector_paused:
                assert ref() is None  # freed by the entry collection
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_concurrent_runs_share_one_pause(self):
        both_inside = threading.Barrier(2)
        first_left = threading.Event()
        seen = {}

        def first():
            with collector_paused:
                both_inside.wait(timeout=30)
            first_left.set()

        def second():
            with collector_paused:
                both_inside.wait(timeout=30)
                first_left.wait(timeout=30)
                seen["enabled_after_first_exit"] = gc.isenabled()

        threads = [threading.Thread(target=first),
                   threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"enabled_after_first_exit": False}
        assert gc.isenabled()
