"""Same-seed regression: every flow is bitwise reproducible.

Each flow is run twice with identical inputs — once by the shared
session fixtures (which run *with* tracing enabled) and once fresh with
tracing disabled — and the two runs must produce byte-identical DEF
placement snapshots and identical reported wirelength/fmax.  This
guards two properties at once:

1. the flows are deterministic (the precondition for the ROADMAP's
   future parallelism work: any thread-pool/sharded rewrite must keep
   passing this test unchanged), and
2. observability is read-only — recording spans and counters does not
   perturb a single placement coordinate or timing number.
"""

import gc
import json

import pytest

from repro.bench import get_scenario, qor_json
from repro.bench.runner import run_scenario
from repro.core.macro3d import run_flow_macro3d
from repro.flows.compact2d import run_flow_c2d
from repro.flows.flow2d import run_flow_2d
from repro.flows.shrunk2d import run_flow_s2d
from repro.io.def_io import write_def
from repro.netlist.openpiton import small_cache_config

from tests.conftest import FLOW_OPTIONS, FLOW_SCALE

_RUNNERS = {
    "2d": run_flow_2d,
    "m3d": run_flow_macro3d,
    "s2d": run_flow_s2d,
    "c2d": run_flow_c2d,
}


def _snapshot(result) -> str:
    return write_def(result.design, result.placement, result.routed)


@pytest.fixture(scope="module", params=sorted(_RUNNERS))
def flow_pair(request, traced_2d, traced_m3d, traced_s2d, traced_c2d):
    """(first run result, identically-configured second run result).

    Module-scoped: each flow's second run happens once and is compared
    on placement, metrics and legalization by the tests below (the
    results are read-only), rather than being re-run per test.
    """
    first = {
        "2d": traced_2d, "m3d": traced_m3d,
        "s2d": traced_s2d, "c2d": traced_c2d,
    }[request.param][0]
    second = _RUNNERS[request.param](
        small_cache_config(), scale=FLOW_SCALE, options=FLOW_OPTIONS
    )
    return first, second


def _trace_canon(trace) -> str:
    """Canonical JSON of a FlowTrace minus wall times and RSS.

    Span structure, attrs, counters, gauges and histogram statistics
    are all functions of the (seeded, sub-sampled) netlist alone, so
    two runs must agree on this view byte for byte.
    """

    def span(s):
        return {
            "name": s.name,
            "attrs": s.attrs,
            "children": [span(c) for c in s.children],
        }

    return json.dumps(
        {
            "flow": trace.flow,
            "design": trace.design,
            "spans": [span(s) for s in trace.spans],
            "counters": trace.counters,
            "gauges": trace.gauges,
            "histograms": trace.histograms,
        },
        sort_keys=True,
        default=lambda obj: obj.__dict__,
    )


class TestMediumTierDeterminism:
    """The medium tier (the paper's operating point for the committed
    BENCH baselines) repeats byte-identically too — same seed, same
    statistically sub-sampled netlist, same artifact and trace.  The
    second run is entered with the cyclic collector already disabled,
    so QoR must not depend on the collector state a flow finds."""

    def test_bench_artifact_and_trace_byte_identical(self):
        scenario = get_scenario("macro3d-smallcache-medium")
        artifact1, _result1, trace1 = run_scenario(scenario)
        gc.disable()
        try:
            artifact2, _result2, trace2 = run_scenario(scenario)
        finally:
            gc.enable()
        assert qor_json(artifact1) == qor_json(artifact2)
        assert _trace_canon(trace1) == _trace_canon(trace2)


class TestDeterminism:
    def test_placement_byte_identical(self, flow_pair):
        first, second = flow_pair
        assert _snapshot(first) == _snapshot(second)

    def test_reported_metrics_identical(self, flow_pair):
        first, second = flow_pair
        assert first.summary.fclk_mhz == second.summary.fclk_mhz
        assert (
            first.summary.total_wirelength_m
            == second.summary.total_wirelength_m
        )
        assert first.summary.f2f_bumps == second.summary.f2f_bumps
        assert first.summary.power_uw == second.summary.power_uw

    def test_legalization_identical(self, flow_pair):
        first, second = flow_pair
        assert first.legalization.forced == second.legalization.forced
        assert first.legalization.failures == second.legalization.failures
