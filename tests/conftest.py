"""Shared fixtures: technologies, libraries, hand-built and generated netlists.

Expensive artifacts (built tiles, placed/routed designs) are session-
scoped; tests must not mutate them.  Tests that mutate (sizing, flows)
build their own copies.
"""

from __future__ import annotations

import json

import pytest

from repro.cells.library import default_library
from repro.cells.macro import Macro, MacroPin, Obstruction
from repro.cells.memory_compiler import SRAMCompiler, SRAMConfig
from repro.cells.stdcell import PinDirection
from repro.core.macro3d import run_flow_macro3d
from repro.flows.base import FlowOptions
from repro.flows.compact2d import run_flow_c2d
from repro.flows.flow2d import run_flow_2d
from repro.flows.shrunk2d import run_flow_s2d
from repro.geom import Point, Rect
from repro.netlist.core import Netlist, PortConstraint
from repro.netlist.openpiton import build_tile, small_cache_config
from repro.obs import FlowTrace, recording
from repro.obs.events import streaming
from repro.tech.presets import hk28, hk28_macro_die

#: Shared statistical scale / options of the flow-level test runs.
FLOW_SCALE = 0.02
FLOW_OPTIONS = FlowOptions(sizing_iterations=3)


def stream_events(events):
    """An event writer that appends each event as it reads back from
    its JSON line, so a test folds exactly what a file would hold."""
    return lambda event: events.append(json.loads(json.dumps(event)))


def run_traced(runner, **kwargs):
    """Run a flow with tracing and a live event stream on; returns
    (FlowResult, FlowTrace, the stream's events)."""
    kwargs.setdefault("scale", FLOW_SCALE)
    kwargs.setdefault("options", FLOW_OPTIONS)
    events = []
    with recording() as recorder, streaming(stream_events(events)):
        result = runner(small_cache_config(), **kwargs)
    trace = FlowTrace.from_recorder(
        recorder, flow=result.flow, design=result.design
    )
    return result, trace, events


# One session-scoped traced run per flow: test_flows, test_obs,
# test_determinism and test_flow_shape all read these, so each flow is
# executed once for the whole suite (results are read-only for tests).


@pytest.fixture(scope="session")
def traced_2d():
    return run_traced(run_flow_2d)


@pytest.fixture(scope="session")
def traced_m3d():
    return run_traced(run_flow_macro3d)


@pytest.fixture(scope="session")
def traced_s2d():
    return run_traced(run_flow_s2d)


@pytest.fixture(scope="session")
def traced_c2d():
    return run_traced(run_flow_c2d)


@pytest.fixture(scope="session")
def flow_2d(traced_2d):
    return traced_2d[0]


@pytest.fixture(scope="session")
def flow_m3d(traced_m3d):
    return traced_m3d[0]


@pytest.fixture(scope="session")
def flow_s2d(traced_s2d):
    return traced_s2d[0]


@pytest.fixture(scope="session")
def flow_c2d(traced_c2d):
    return traced_c2d[0]


@pytest.fixture(scope="session")
def tech():
    return hk28()


@pytest.fixture(scope="session")
def macro_tech4():
    return hk28_macro_die(num_metal_layers=4)


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def sram():
    """One representative compiled SRAM macro."""
    return SRAMCompiler().compile(SRAMConfig(capacity_bytes=8192, word_bits=64))


@pytest.fixture(scope="session")
def tiny_tile():
    """A small-cache tile at very small statistical scale (read-only)."""
    return build_tile(small_cache_config(), scale=0.02)


def build_mini_netlist(library, macro=None):
    """A hand-built netlist: port -> flop -> inv -> nand -> flop (+ macro).

    Structure (all clocked by net "clk"):
        in_port -> ff1.D ; ff1.Q -> inv.A ; inv.Y -> nand.A
        ff1.Q -> nand.B ; nand.Y -> ff2.D ; ff2.Q -> out_port
        optionally: ff2.Q -> macro.ADDR/DIN pins, macro.DOUT[0] -> ff3.D
    """
    netlist = Netlist("mini")
    clock = netlist.add_net("clk")
    clock.is_clock = True
    clk_port = netlist.add_port(
        "clk", PinDirection.INPUT, PortConstraint(edge="W", position=0.5)
    )
    netlist.connect_port(clock, clk_port)

    din = netlist.add_net("din")
    din_port = netlist.add_port(
        "din", PinDirection.INPUT,
        PortConstraint(edge="W", position=0.25, io_delay_fraction=0.5),
    )
    netlist.connect_port(din, din_port)

    ff1 = netlist.add_instance("ff1", library.cell("DFF_X1"))
    inv = netlist.add_instance("inv", library.cell("INV_X2"))
    nand = netlist.add_instance("nand", library.cell("NAND2_X1"))
    ff2 = netlist.add_instance("ff2", library.cell("DFF_X2"))

    netlist.connect(clock, ff1, "CK")
    netlist.connect(clock, ff2, "CK")
    netlist.connect(din, ff1, "D")
    q1 = netlist.add_net("q1")
    netlist.connect(q1, ff1, "Q")
    netlist.connect(q1, inv, "A")
    n1 = netlist.add_net("n1")
    netlist.connect(n1, inv, "Y")
    netlist.connect(n1, nand, "A")
    netlist.connect(q1, nand, "B")
    n2 = netlist.add_net("n2")
    netlist.connect(n2, nand, "Y")
    netlist.connect(n2, ff2, "D")
    q2 = netlist.add_net("q2")
    netlist.connect(q2, ff2, "Q")
    dout_port = netlist.add_port(
        "dout", PinDirection.OUTPUT,
        PortConstraint(edge="E", position=0.75, io_delay_fraction=0.5),
    )
    netlist.connect_port(q2, dout_port)

    if macro is not None:
        m = netlist.add_instance("mem", macro)
        m.fixed = True
        netlist.connect(clock, m, "CLK")
        for pin in macro.input_pins:
            netlist.connect(q2, m, pin.name)
        ff3 = netlist.add_instance("ff3", library.cell("DFF_X1"))
        netlist.connect(clock, ff3, "CK")
        dnet = netlist.add_net("mem_dout0")
        netlist.connect(dnet, m, macro.output_pins[0].name)
        netlist.connect(dnet, ff3, "D")
        q3 = netlist.add_net("q3")
        netlist.connect(q3, ff3, "Q")
    return netlist


@pytest.fixture()
def mini_netlist(library):
    return build_mini_netlist(library)


def make_test_macro(name="MAC", width=40.0, height=20.0, n_data=4):
    """A small macro with pins on M4 and full M1-M4 obstructions."""
    pins = [
        MacroPin("CLK", PinDirection.INPUT, Point(2.0, 0.0), "M4", 2.0, True),
        MacroPin("CE", PinDirection.INPUT, Point(4.0, 0.0), "M4", 1.2),
    ]
    for i in range(n_data):
        pins.append(
            MacroPin(f"DIN[{i}]", PinDirection.INPUT,
                     Point(6.0 + i, 0.0), "M4", 1.1)
        )
    for i in range(n_data):
        pins.append(
            MacroPin(f"DOUT[{i}]", PinDirection.OUTPUT,
                     Point(6.0 + n_data + i, 0.0), "M4")
        )
    obstructions = tuple(
        Obstruction(layer, Rect(0, 0, width, height))
        for layer in ("M1", "M2", "M3", "M4")
    )
    return Macro(
        name=name, width=width, height=height, pins=tuple(pins),
        obstructions=obstructions, setup_time=100.0, access_delay=400.0,
        drive_resistance=1500.0, energy_per_access=300.0, leakage=1.0,
        is_memory=True,
    )


@pytest.fixture()
def test_macro():
    return make_test_macro()


@pytest.fixture()
def mini_with_macro(library, test_macro):
    return build_mini_netlist(library, macro=test_macro)
