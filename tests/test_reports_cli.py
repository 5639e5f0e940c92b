"""Timing reports, SPEF dumps, and the command-line interface."""

import pytest

from repro.bench.scenarios import FLOW_RUNNERS
from repro.cli import build_parser, main
from repro.extract.rc import extract_design
from repro.io.spef import diff_spef, parse_spef, write_spef
from repro.opt.buffering import plan_buffers
from repro.timing.constraints import TimingConstraints
from repro.timing.graph import TimingGraph
from repro.timing.reports import (
    report_critical_path,
    report_summary,
    report_worst_endpoints,
)
from repro.timing.sta import run_sta


@pytest.fixture(scope="module")
def signoff_bits(tiny_tile, tech):
    """A routed tiny tile with STA artifacts for report testing."""
    from repro.floorplan.macro_placer import place_macros_2d
    from repro.flows.base import FlowOptions, place_design, route_design
    netlist = tiny_tile.netlist
    options = FlowOptions()
    fp = place_macros_2d(tiny_tile)
    placement, _legal, _ports = place_design(
        netlist, fp, tech.row_height, options
    )
    _grid, routed, assignment = route_design(
        netlist, placement, tech.stack, fp, options
    )
    slow = extract_design(routed, assignment, tech.corners.slowest)
    plan = plan_buffers(slow, tiny_tile.library)
    graph = TimingGraph(netlist)
    result = run_sta(graph, slow, plan, TimingConstraints())
    return netlist, slow, plan, result


class TestTimingReports:
    def test_worst_endpoints_ranked(self, signoff_bits):
        _nl, _slow, _plan, result = signoff_bits
        text = report_worst_endpoints(result, count=5)
        assert "fmax" in text
        lines = [l for l in text.splitlines() if ". " in l]
        assert len(lines) == 5
        # First entry demands the longest period (slack-to-worst ~0).
        assert " 1. " in lines[0]

    def test_critical_path_columns(self, signoff_bits):
        netlist, slow, plan, result = signoff_bits
        text = report_critical_path(result, netlist, slow, plan)
        assert result.critical.endpoint in text
        assert "wire ps" in text and "cell ps" in text
        # Every net of the path appears.
        for name in result.critical.nets[:3]:
            assert name[:30] in text

    def test_summary_concatenates(self, signoff_bits):
        netlist, slow, plan, result = signoff_bits
        text = report_summary(result, netlist, slow, plan)
        assert "Worst" in text and "Critical path" in text


class TestSpef:
    def test_roundtrip(self, signoff_bits):
        netlist, slow, _plan, _result = signoff_bits
        text = write_spef(netlist.name, slow)
        design, corner, nets = parse_spef(text)
        assert design == netlist.name
        assert corner == slow.corner.name
        assert len(nets) == len(slow.nets)
        name, rc = next(iter(slow.nets.items()))
        parsed = nets[name]
        assert parsed["cwire"] == pytest.approx(rc.wire_cap, abs=1e-3)
        for sink in rc.elmore:
            assert parsed["sinks"][sink]["elmore"] == pytest.approx(
                rc.elmore[sink], abs=1e-3
            )

    def test_diff_finds_mispredictions(self, signoff_bits):
        netlist, slow, _plan, _result = signoff_bits
        _d, _c, nets_a = parse_spef(write_spef("a", slow))
        # Fabricate a pseudo view with one net badly mispredicted.
        import copy
        nets_b = copy.deepcopy(nets_a)
        victim = next(n for n, v in nets_b.items() if v["sinks"])
        sink = next(iter(nets_b[victim]["sinks"]))
        nets_b[victim]["sinks"][sink]["elmore"] += 500.0
        worst = diff_spef(nets_a, nets_b, top=3)
        assert worst[0][0] == victim
        assert worst[0][1] == pytest.approx(500.0, abs=1e-6)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_spef("NET x CWIRE 1.0 CPIN 0.0 F2F 0\nEND\n")


class TestCli:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--flow", "2d", "--scale", "0.02"])
        assert args.flow == "2d" and args.scale == 0.02
        args = parser.parse_args(["run", "--config", "large"])
        assert args.config == "large"

    def test_run_flow_choices_are_the_registry_flows(self):
        parser = build_parser()
        for flow in FLOW_RUNNERS:
            assert parser.parse_args(["run", "--flow", flow]).flow == flow
        # The BF and M6-M4 variants are flows, not run flags.
        for flags in (["--balanced"], ["--macro-metals", "4"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["run", "--flow", "s2d", *flags])

    def test_unknown_flow_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--flow", "teleport"])

    def test_run_command_runs(self, capsys):
        code = main(["run", "--flow", "2d", "--scale", "0.02"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fclk [MHz]" in out
