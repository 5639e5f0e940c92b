"""Cell layer: standard cells, library, macros, SRAM compiler."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.cells.library import DRIVE_STRENGTHS, StdCellLibrary, default_library
from repro.cells.macro import Macro, MacroPin, Obstruction
from repro.cells.memory_compiler import SRAMCompiler, SRAMConfig
from repro.cells.stdcell import PinDirection, StdCell, StdCellPin
from repro.geom import Point, Rect
from tests.conftest import make_test_macro


class TestStdCell:
    def test_delay_increases_with_load(self, library):
        cell = library.cell("INV_X1")
        assert cell.delay(10.0) > cell.delay(1.0)

    def test_delay_derate(self, library):
        cell = library.cell("NAND2_X2")
        assert cell.delay(5.0, derate=1.3) == pytest.approx(cell.delay(5.0) * 1.3)

    def test_sequential_needs_clock(self):
        with pytest.raises(ValueError):
            StdCell(
                name="BADFF", width=1.0, height=1.0,
                pins=(StdCellPin("D", PinDirection.INPUT, 1.0),
                      StdCellPin("Q", PinDirection.OUTPUT)),
                is_sequential=True,
            )

    def test_duplicate_pins_rejected(self):
        with pytest.raises(ValueError):
            StdCell(
                name="X", width=1.0, height=1.0,
                pins=(StdCellPin("A", PinDirection.INPUT, 1.0),
                      StdCellPin("A", PinDirection.INPUT, 1.0)),
            )

    def test_pin_lookup(self, library):
        cell = library.cell("DFF_X1")
        assert cell.pin("CK").is_clock
        assert cell.clock_pin.name == "CK"
        with pytest.raises(KeyError):
            cell.pin("ZZ")

    def test_input_output_classification(self, library):
        nand = library.cell("NAND2_X4")
        assert {p.name for p in nand.input_pins} == {"A", "B"}
        assert [p.name for p in nand.output_pins] == ["Y"]


class TestLibrary:
    def test_every_family_has_all_drives(self, library):
        for base in library.base_names:
            family = library.family(base)
            assert [c.drive_index for c in family] == list(DRIVE_STRENGTHS)

    def test_drive_scaling(self, library):
        x1 = library.cell("INV_X1")
        x4 = library.cell("INV_X4")
        assert x4.drive_resistance == pytest.approx(x1.drive_resistance / 4)
        assert x4.pin("A").capacitance == pytest.approx(
            x1.pin("A").capacitance * 4
        )
        assert x4.area == pytest.approx(x1.area * 4)

    def test_next_drive_up_down(self, library):
        x2 = library.cell("BUF_X2")
        assert library.next_drive_up(x2).drive_index == 4
        assert library.next_drive_down(x2).drive_index == 1
        x16 = library.cell("BUF_X16")
        assert library.next_drive_up(x16) is None
        x1 = library.cell("BUF_X1")
        assert library.next_drive_down(x1) is None

    def test_width_scale(self):
        wide = default_library(width_scale=10.0)
        thin = default_library(width_scale=1.0)
        assert wide.cell("INV_X1").width == pytest.approx(
            thin.cell("INV_X1").width * 10
        )
        # Timing untouched by width scaling.
        assert wide.cell("INV_X1").drive_resistance == pytest.approx(
            thin.cell("INV_X1").drive_resistance
        )

    def test_unknown_cell(self, library):
        with pytest.raises(KeyError):
            library.cell("MYSTERY_X3")

    def test_invalid_width_scale(self):
        with pytest.raises(ValueError):
            default_library(width_scale=0.0)

    @pytest.mark.parametrize("lib", [
        default_library(),
        default_library(width_scale=10.0),
        default_library(row_height=0.9, width_scale=25.0),
        # Cells handed over strongest-first: the map must still sort.
        StdCellLibrary("reversed", list(reversed(list(default_library())))),
    ])
    def test_family_map_matches_full_scan(self, lib):
        for base in lib.base_names:
            scanned = sorted(
                (c for c in lib if c.name.rsplit("_X", 1)[0] == base),
                key=lambda c: c.drive_index,
            )
            assert lib.family(base) == scanned
        # A fresh list each call: callers may not corrupt the map.
        lib.family("INV").clear()
        assert len(lib.family("INV")) == len(DRIVE_STRENGTHS)

    def test_unknown_family(self, library):
        with pytest.raises(KeyError, match="has no family MYSTERY"):
            library.family("MYSTERY")


class TestMacro:
    def test_pin_outside_extents_rejected(self):
        with pytest.raises(ValueError):
            Macro(
                name="BAD", width=10, height=10,
                pins=(MacroPin("P", PinDirection.INPUT, Point(11, 0), "M4"),),
            )

    def test_layer_suffix_edit(self, test_macro):
        edited = test_macro.with_layer_suffix("_MD")
        assert edited.name == test_macro.name + "_MD"
        assert all(p.layer == "M4_MD" for p in edited.pins)
        assert edited.obstruction_layers() == [
            "M1_MD", "M2_MD", "M3_MD", "M4_MD",
        ]
        # Geometry untouched (paper Sec. IV).
        for before, after in zip(test_macro.pins, edited.pins):
            assert before.offset == after.offset

    def test_shrunk_substrate(self, test_macro):
        shrunk = test_macro.with_shrunk_substrate(0.2, 1.2)
        assert shrunk.substrate_area == pytest.approx(0.24)
        assert shrunk.area == test_macro.area  # full extents unchanged
        restored = shrunk.with_restored_substrate()
        assert restored.substrate_area == test_macro.area

    def test_pin_classification(self, test_macro):
        assert test_macro.clock_pin.name == "CLK"
        assert len(test_macro.input_pins) == 5  # CE + 4 DIN (CLK excluded)
        assert len(test_macro.output_pins) == 4


class TestSRAMCompiler:
    def test_deterministic(self):
        compiler = SRAMCompiler()
        config = SRAMConfig(capacity_bytes=4096, word_bits=32)
        a, b = compiler.compile(config), compiler.compile(config)
        assert a.width == b.width and len(a.pins) == len(b.pins)

    def test_pin_count(self):
        macro = SRAMCompiler().compile(SRAMConfig(4096, 32))
        # CLK + CE + WE + 10 addr + 32 din + 32 dout.
        assert len(macro.pins) == 3 + 10 + 32 + 32

    def test_obstructions_cover_m1_to_m4(self, sram):
        assert sram.obstruction_layers() == ["M1", "M2", "M3", "M4"]
        for obs in sram.obstructions:
            assert obs.rect.area == pytest.approx(sram.area)

    def test_area_scales_with_capacity(self):
        compiler = SRAMCompiler()
        small = compiler.macro_area(SRAMConfig(1024, 32))
        big = compiler.macro_area(SRAMConfig(4096, 32))
        assert big > 3.0 * small

    def test_max_width_respected(self):
        macro = SRAMCompiler(max_width=300.0).compile(
            SRAMConfig(256 * 1024, 128)
        )
        assert macro.width <= 300.0 + 1e-9

    def test_access_grows_with_capacity(self):
        compiler = SRAMCompiler()
        assert compiler.access_delay(SRAMConfig(64 * 1024, 64)) > (
            compiler.access_delay(SRAMConfig(1024, 64))
        )

    def test_bank_set(self):
        banks = SRAMCompiler().compile_bank_set(32 * 1024, 4, 64, "L2")
        assert len(banks) == 4
        assert {b.name for b in banks} == {f"L2_BANK{i}" for i in range(4)}
        assert banks[0].width == banks[3].width

    def test_bank_set_uneven_rejected(self):
        with pytest.raises(ValueError):
            SRAMCompiler().compile_bank_set(1000, 3, 32, "X")

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SRAMConfig(0, 32)
        with pytest.raises(ValueError):
            SRAMConfig(100, 64)  # not a whole number of words

    @given(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256]),
           st.sampled_from([16, 32, 64, 128]))
    def test_macro_always_valid(self, kb, word_bits):
        macro = SRAMCompiler().compile(SRAMConfig(kb * 1024, word_bits))
        assert macro.width > 0 and macro.height > 0
        assert macro.is_memory
        bbox = macro.bbox
        assert all(bbox.contains_point(p.offset, tol=1e-6) for p in macro.pins)
