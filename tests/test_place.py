"""Placement: capacity grid, global placement, legalization, refinement."""

import numpy as np
import pytest

from repro.floorplan.floorplan import Floorplan
from repro.floorplan.macro_placer import place_macros_2d
from repro.floorplan.pins import place_ports
from repro.geom import Point, Rect
from repro.netlist.core import Netlist
from repro.place.capacity import CapacityGrid
from repro.place.detailed import refine_placement
from repro.place.global_place import GlobalPlacerOptions, Placement, global_place
from repro.place.legalize import legalize
from repro.place.regions import allocate_module_regions, module_of


@pytest.fixture(scope="module")
def placed_tile(tiny_tile):
    """One global placement of the tiny tile, shared by read-only tests."""
    fp = place_macros_2d(tiny_tile)
    ports = place_ports(tiny_tile.netlist, fp.outline)
    anchors = allocate_module_regions(tiny_tile.netlist, fp)
    placement = global_place(tiny_tile.netlist, fp, ports, module_anchors=anchors)
    return fp, placement


class TestCapacityGrid:
    def test_full_blockage_removes_capacity(self):
        fp = Floorplan("t", Rect(0, 0, 100, 100), utilization=1.0)
        fp.add_blockage(Rect(0, 0, 50, 100), density=1.0)
        grid = CapacityGrid(fp, 4, 4)
        assert grid.capacity[0, 0] == pytest.approx(0.0, abs=1e-9)
        assert grid.capacity[3, 0] == pytest.approx(625.0)

    def test_partial_blockages_stack(self):
        fp = Floorplan("t", Rect(0, 0, 100, 100), utilization=1.0)
        fp.add_blockage(Rect(0, 0, 100, 100), density=0.5)
        fp.add_blockage(Rect(0, 0, 100, 100), density=0.5)
        grid = CapacityGrid(fp, 2, 2)
        assert grid.total_capacity == pytest.approx(0.0, abs=1e-6)

    def test_occupancy_and_overflow(self):
        fp = Floorplan("t", Rect(0, 0, 10, 10), utilization=1.0)
        grid = CapacityGrid(fp, 2, 2)
        x = np.array([2.0, 7.0])
        y = np.array([2.0, 2.0])
        areas = np.array([30.0, 10.0])
        occ = grid.occupancy(x, y, areas)
        assert occ[0, 0] == pytest.approx(30.0)
        assert occ[1, 0] == pytest.approx(10.0)
        assert grid.overflow(x, y, areas) == pytest.approx(5.0)  # 30 - 25

    def test_bin_of_clamps(self):
        fp = Floorplan("t", Rect(0, 0, 10, 10))
        grid = CapacityGrid(fp, 4, 4)
        assert grid.bin_of(-5, -5) == (0, 0)
        assert grid.bin_of(50, 50) == (3, 3)


class TestGlobalPlace:
    def test_all_cells_inside_outline(self, tiny_tile, placed_tile):
        fp, placement = placed_tile
        movable = placement.movable
        assert (placement.x[movable] >= fp.outline.xlo - 1e-6).all()
        assert (placement.x[movable] <= fp.outline.xhi + 1e-6).all()
        assert (placement.y[movable] >= fp.outline.ylo - 1e-6).all()
        assert (placement.y[movable] <= fp.outline.yhi + 1e-6).all()

    def test_macros_fixed_at_floorplan_positions(self, tiny_tile, placed_tile):
        fp, placement = placed_tile
        for inst in tiny_tile.netlist.macros():
            rect = fp.macro_placements[inst.name]
            assert placement.x[inst.id] == pytest.approx(rect.center.x)
            assert not placement.movable[inst.id]

    def test_beats_random_by_far(self, tiny_tile, placed_tile):
        fp, placement = placed_tile
        rng = np.random.default_rng(0)
        random = placement.copy()
        m = random.movable
        random.x[m] = rng.uniform(fp.outline.xlo, fp.outline.xhi, m.sum())
        random.y[m] = rng.uniform(fp.outline.ylo, fp.outline.yhi, m.sum())
        assert placement.total_hpwl() < 0.5 * random.total_hpwl()

    def test_density_roughly_respected(self, tiny_tile, placed_tile):
        fp, placement = placed_tile
        grid = CapacityGrid.for_cell_count(fp, 5000)
        m = placement.movable
        areas = np.array([i.area for i in tiny_tile.netlist.instances])
        overflow = grid.overflow(placement.x[m], placement.y[m], areas[m])
        total = areas[m].sum()
        assert overflow / total < 0.25

    def test_macro_pin_positions_exact(self, tiny_tile, placed_tile):
        fp, placement = placed_tile
        inst = tiny_tile.netlist.macros()[0]
        rect = fp.macro_placements[inst.name]
        pin = inst.master.pins[0]
        point = placement.pin_position(inst, pin.name)
        assert point.x == pytest.approx(rect.xlo + pin.offset.x)
        assert point.y == pytest.approx(rect.ylo + pin.offset.y)

    def test_deterministic(self, tiny_tile):
        fp = place_macros_2d(tiny_tile)
        ports = place_ports(tiny_tile.netlist, fp.outline)
        a = global_place(tiny_tile.netlist, fp, ports)
        b = global_place(tiny_tile.netlist, fp, ports)
        assert np.allclose(a.x, b.x) and np.allclose(a.y, b.y)


class TestLegalize:
    def test_no_failures_and_rows_snapped(self, tiny_tile, placed_tile, tech):
        fp, placement = placed_tile
        result = legalize(placement, tech.row_height)
        assert result.failures == 0
        m = result.placement.movable
        ys = result.placement.y[m]
        offsets = (ys - fp.outline.ylo) / tech.row_height - 0.5
        assert np.allclose(offsets, np.round(offsets), atol=1e-6)

    def test_cells_avoid_hard_blockages(self, tiny_tile, placed_tile, tech):
        fp, placement = placed_tile
        result = legalize(placement, tech.row_height)
        hard = [b.rect for b in fp.blockages if b.density >= 0.99]
        pl = result.placement
        for inst in tiny_tile.netlist.std_cells()[::37]:
            point = Point(pl.x[inst.id], pl.y[inst.id])
            for rect in hard:
                assert not rect.inflated(-0.5).contains_point(point)

    def test_displacement_reported(self, tiny_tile, placed_tile, tech):
        fp, placement = placed_tile
        result = legalize(placement, tech.row_height)
        assert result.mean_displacement >= 0.0
        assert result.max_displacement >= result.mean_displacement

    def test_input_not_mutated(self, tiny_tile, placed_tile, tech):
        fp, placement = placed_tile
        before = placement.x.copy()
        legalize(placement, tech.row_height)
        assert np.array_equal(before, placement.x)


class TestDetailed:
    def test_refinement_never_hurts(self, tiny_tile, placed_tile, tech):
        fp, placement = placed_tile
        legal = legalize(placement, tech.row_height).placement
        result = refine_placement(legal)
        assert result.hpwl_after <= result.hpwl_before + 1e-6

    def test_swaps_counted(self, tiny_tile, placed_tile, tech):
        fp, placement = placed_tile
        legal = legalize(placement, tech.row_height).placement
        result = refine_placement(legal)
        assert result.swaps >= 0


class TestLinearAccess:
    """``Netlist.instances`` copies the whole list on every read, so a
    per-cell read makes a placer stage quadratic in the cell count."""

    @pytest.fixture()
    def instance_reads(self, monkeypatch):
        reads = [0]
        accessor = Netlist.instances

        def counted(netlist):
            reads[0] += 1
            return accessor.fget(netlist)

        monkeypatch.setattr(Netlist, "instances", property(counted))
        return reads

    def test_global_place_reads_instances_at_most_twice(
        self, tiny_tile, instance_reads
    ):
        fp = place_macros_2d(tiny_tile)
        ports = place_ports(tiny_tile.netlist, fp.outline)
        anchors = allocate_module_regions(tiny_tile.netlist, fp)
        instance_reads[0] = 0
        global_place(tiny_tile.netlist, fp, ports, module_anchors=anchors)
        assert instance_reads[0] <= 2

    def test_refine_placement_reads_instances_at_most_twice(
        self, tiny_tile, placed_tile, tech, instance_reads
    ):
        _fp, placement = placed_tile
        legal = legalize(placement, tech.row_height).placement
        instance_reads[0] = 0
        refine_placement(legal)
        assert instance_reads[0] <= 2


class TestRegions:
    def test_module_of(self):
        assert module_of("core/g12") == "core"
        assert module_of("flat") == "flat"

    def test_allocation_covers_all_modules(self, tiny_tile):
        fp = place_macros_2d(tiny_tile)
        anchors = allocate_module_regions(tiny_tile.netlist, fp)
        modules = {module_of(i.name) for i in tiny_tile.netlist.std_cells()}
        assert modules <= set(anchors)
        for point in anchors.values():
            assert fp.outline.contains_point(point)

    def test_anchors_below_macros(self, tiny_tile):
        fp = place_macros_2d(tiny_tile)
        anchors = allocate_module_regions(tiny_tile.netlist, fp)
        lowest_macro = min(r.ylo for r in fp.substrate_rects.values())
        for point in anchors.values():
            assert point.y <= lowest_macro
