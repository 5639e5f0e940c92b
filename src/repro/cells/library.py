"""The standard-cell library used by the case study.

A compact 28 nm-class library: inverters, buffers, NAND/NOR/AOI/XOR gates
and D flip-flops, each at drive strengths X1..X16, plus dedicated clock
buffers for CTS.  Base timing/energy values are representative of
published 28 nm libraries; the absolute scale is calibrated so the 2D
small-cache tile closes near the paper's 390 MHz (DESIGN.md Sec. 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.cells.stdcell import StdCell, make_combinational, make_flipflop

#: Drive strengths instantiated for every cell family.
DRIVE_STRENGTHS = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class _CombSpec:
    base_name: str
    inputs: Sequence[str]
    base_width: float
    base_input_cap: float
    base_resistance: float
    intrinsic_delay: float
    base_leakage: float
    base_internal_energy: float


_COMB_SPECS = [
    _CombSpec("INV", ("A",), 0.40, 0.90, 2500.0, 12.0, 0.0020, 0.35),
    _CombSpec("BUF", ("A",), 0.60, 0.80, 2200.0, 22.0, 0.0030, 0.55),
    _CombSpec("NAND2", ("A", "B"), 0.60, 1.10, 3000.0, 16.0, 0.0030, 0.50),
    _CombSpec("NOR2", ("A", "B"), 0.60, 1.20, 3400.0, 18.0, 0.0030, 0.52),
    _CombSpec("AOI21", ("A", "B", "C"), 0.80, 1.25, 3600.0, 22.0, 0.0040, 0.60),
    _CombSpec("XOR2", ("A", "B"), 1.20, 1.60, 3800.0, 30.0, 0.0060, 0.85),
    # Clock buffer: balanced rise/fall, used exclusively by CTS.
    _CombSpec("CLKBUF", ("A",), 0.80, 1.00, 1800.0, 20.0, 0.0040, 0.70),
]


class StdCellLibrary:
    """A named collection of standard cells with drive-strength families."""

    def __init__(self, name: str, cells: List[StdCell]):
        self.name = name
        self._cells: Dict[str, StdCell] = {}
        for cell in cells:
            if cell.name in self._cells:
                raise ValueError(f"duplicate cell {cell.name} in library {name}")
            self._cells[cell.name] = cell
        # The library is immutable after construction, so the drive
        # families are grouped once instead of rescanned per lookup.
        families: Dict[str, List[StdCell]] = {}
        for cell in self._cells.values():
            families.setdefault(cell.name.rsplit("_X", 1)[0], []).append(cell)
        self._families = {
            base: sorted(members, key=lambda c: c.drive_index)
            for base, members in families.items()
        }

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterator[StdCell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cell(self, name: str) -> StdCell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(f"library {self.name} has no cell {name}") from None

    def family(self, base_name: str) -> List[StdCell]:
        """All drive variants of one family, ordered by increasing drive."""
        try:
            return list(self._families[base_name])
        except KeyError:
            raise KeyError(
                f"library {self.name} has no family {base_name}"
            ) from None

    def family_of(self, cell: StdCell) -> List[StdCell]:
        """The drive family a given cell belongs to."""
        return self.family(cell.name.rsplit("_X", 1)[0])

    def next_drive_up(self, cell: StdCell) -> Optional[StdCell]:
        """The next stronger variant of ``cell``, or None at the top drive."""
        family = self.family_of(cell)
        for candidate in family:
            if candidate.drive_index > cell.drive_index:
                return candidate
        return None

    def next_drive_down(self, cell: StdCell) -> Optional[StdCell]:
        """The next weaker variant of ``cell``, or None at the bottom drive."""
        family = self.family_of(cell)
        weaker = [c for c in family if c.drive_index < cell.drive_index]
        return weaker[-1] if weaker else None

    @property
    def base_names(self) -> List[str]:
        return sorted(self._families)


def default_library(row_height: float = 1.2, width_scale: float = 1.0) -> StdCellLibrary:
    """Build the default 28 nm-class library at the given row height.

    ``width_scale`` inflates every cell width.  The scaled-statistics
    netlists (DESIGN.md substitution table) use ``width_scale = 1/scale``
    so that a netlist with ``scale`` times fewer instances still occupies
    the paper's standard-cell area; timing and pin capacitances are left
    untouched.
    """
    if width_scale <= 0:
        raise ValueError("width scale must be positive")
    cells: List[StdCell] = []
    for spec in _COMB_SPECS:
        for drive in DRIVE_STRENGTHS:
            cells.append(
                make_combinational(
                    base_name=spec.base_name,
                    inputs=list(spec.inputs),
                    drive=drive,
                    base_width=spec.base_width * width_scale,
                    base_input_cap=spec.base_input_cap,
                    base_resistance=spec.base_resistance,
                    intrinsic_delay=spec.intrinsic_delay,
                    base_leakage=spec.base_leakage,
                    base_internal_energy=spec.base_internal_energy,
                    row_height=row_height,
                )
            )
    for drive in DRIVE_STRENGTHS:
        cells.append(
            make_flipflop(
                name="DFF",
                drive=drive,
                base_width=2.40 * width_scale,
                data_cap=1.00,
                clock_cap=0.90,
                base_resistance=2600.0,
                clk_to_q=90.0,
                setup_time=45.0,
                base_leakage=0.0100,
                base_internal_energy=1.80,
                row_height=row_height,
            )
        )
    return StdCellLibrary("hk28_svt", cells)
