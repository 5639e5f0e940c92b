"""Unit tests for the benchmark harness (repro.bench).

Covers the scenario registry, the BENCH artifact schema round trip,
the SVG signoff renderers (well-formed XML, bin math, color ramp), the
baseline comparator's pass/warn/fail threshold paths, and the bench
CLI compare exit codes — all on synthetic artifacts, so no flow runs —
plus the runner's failure isolation (a crashing or budget-overrunning
scenario fails alone), which does run one tiny real scenario.
"""

import copy
import os
import xml.etree.ElementTree as ET

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    BenchArtifact,
    MetricSpec,
    Scenario,
    StageTiming,
    all_scenarios,
    artifact_filename,
    compare_artifacts,
    format_diff_table,
    get_scenario,
    histogram_bins,
    load_baseline,
    ramp_color,
    register_scenario,
    render_congestion_svg,
    render_slack_histogram_svg,
    run_benchmarks,
    unregister_scenario,
    worst_status,
)
from repro.bench.scenarios import FLOW_RUNNERS, SIZES
from repro.cli import build_parser, main


def make_artifact(**overrides) -> BenchArtifact:
    """A fully populated synthetic artifact for comparator tests."""
    artifact = BenchArtifact(
        scenario="macro3d-smallcache-small",
        flow="Macro-3D",
        config="smallcache",
        size="small",
        scale=0.015,
        design="tile",
        stages=[
            StageTiming("build_tile", 1.0, 50_000),
            StageTiming("place", 8.0, 120_000),
            StageTiming("route", 6.0, 130_000),
        ],
        wall_s_total=15.0,
        peak_rss_kb=130_000,
        counters={
            "maze_expansions": 10_000.0,
            "cg_iterations": 500.0,
            "sizing_iterations": 6.0,
            "f2f_vias": 4_000.0,
        },
        gauges={"min_period_ps": 2000.0},
        histograms={
            "legalize_displacement_um": {
                "count": 2, "total": 10.0, "min": 4.0, "max": 6.0,
                "mean": 5.0, "p50": 4.0, "p95": 6.0, "p99": 6.0,
            },
        },
        ppa={
            "fclk_mhz": 500.0,
            "emean_fj": 100.0,
            "total_wirelength_m": 2.0,
            "f2f_bumps": 4100.0,
            "power_uw": 5000.0,
            "routing_overflow": 0.0,
            "num_repeaters": 40.0,
        },
        meta={"python": "3.11.0", "platform": "linux"},
    )
    for key, value in overrides.items():
        setattr(artifact, key, value)
    return artifact


class TestScenarioRegistry:
    def test_full_grid(self):
        scenarios = all_scenarios()
        # 6 flows x 2 cache configs x 3 sizes, plus the large tier.
        assert len(scenarios) == 37
        assert len({s.name for s in scenarios}) == 37

    def test_small_tier_has_twelve(self):
        small = all_scenarios(size="small")
        assert len(small) == 12
        assert all(s.size == "small" for s in small)

    def test_medium_tier_has_twelve(self):
        medium = all_scenarios(size="medium")
        assert len(medium) == 12
        assert all(s.size == "medium" for s in medium)

    def test_paper_tier_is_the_table_design_point(self):
        paper = all_scenarios(size="paper")
        assert len(paper) == 12
        assert {s.flow for s in paper} == set(FLOW_RUNNERS)
        assert all(s.scale == 0.04 for s in paper)
        assert all(s.sizing_iterations == 25 for s in paper)

    def test_large_tier_is_budget_gated(self):
        large = all_scenarios(size="large")
        assert [s.name for s in large] == ["macro3d-largecache-large"]
        scenario = large[0]
        assert scenario.wall_budget_s is not None
        assert scenario.wall_budget_s > 0
        # Grid tiers stay baseline-gated, not budget-gated.
        assert all(
            s.wall_budget_s is None
            for s in all_scenarios(size="small") + all_scenarios(size="medium")
        )

    def test_lookup_and_errors(self):
        s = get_scenario("macro3d-largecache-small")
        assert s.flow == "macro3d" and s.config == "largecache"
        assert s.scale == SIZES["small"][0]
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("warp-drive")
        with pytest.raises(KeyError, match="unknown size"):
            all_scenarios(size="galactic")

    def test_artifact_filename(self):
        assert artifact_filename("2d-smallcache-small") == (
            "BENCH_2d-smallcache-small.json"
        )


class TestArtifactSchema:
    def test_round_trip_is_exact(self):
        artifact = make_artifact()
        text = artifact.to_json()
        again = BenchArtifact.from_json(text)
        assert again.to_json() == text
        assert again.scenario == artifact.scenario
        assert again.stage("place").wall_s == 8.0
        assert again.counters["f2f_vias"] == 4000.0

    def test_schema_marker_enforced(self):
        data = copy.deepcopy(make_artifact().to_dict())
        assert data["schema"] == BENCH_SCHEMA
        data["schema"] = "bogus/v0"
        with pytest.raises(ValueError, match="not a bench artifact"):
            BenchArtifact.from_dict(data)

    def test_null_rss_round_trips(self):
        artifact = make_artifact(peak_rss_kb=None)
        artifact.stages[0].peak_rss_kb = None
        again = BenchArtifact.from_json(artifact.to_json())
        assert again.peak_rss_kb is None
        assert again.stage("build_tile").peak_rss_kb is None

    def test_lookup_paths(self):
        artifact = make_artifact()
        assert artifact.lookup("wall_s_total") == 15.0
        assert artifact.lookup("ppa.fclk_mhz") == 500.0
        assert artifact.lookup("counters.f2f_vias") == 4000.0
        assert artifact.lookup("stages.route.wall_s") == 6.0
        assert artifact.lookup("stages.nope.wall_s") is None
        assert artifact.lookup("ppa.nope") is None


class TestSvgRenderers:
    def test_congestion_svg_well_formed(self):
        layers = [
            ("M1", [[0.0, 0.5], [1.0, 0.2]]),
            ("M2", [[0.9, 0.9], [0.9, 0.9]]),
        ]
        doc = render_congestion_svg(layers, cell_px=10)
        root = ET.fromstring(doc)  # raises on malformed XML
        assert root.tag.endswith("svg")
        texts = [
            el.text for el in root.iter()
            if el.tag.endswith("text")
        ]
        assert "M1" in texts and "M2" in texts

    def test_congestion_runs_merge_uniform_rows(self):
        # A 4x1 uniform row collapses to the background fill only; a row
        # of distinct utilizations emits one rect per cell.
        uniform = [("L", [[0.8], [0.8], [0.8], [0.8]])]
        varied = [("L", [[0.1], [0.4], [0.7], [1.0]])]
        ns = "{http://www.w3.org/2000/svg}"
        count_u = len(ET.fromstring(
            render_congestion_svg(uniform)).findall(f"{ns}rect"))
        count_v = len(ET.fromstring(
            render_congestion_svg(varied)).findall(f"{ns}rect"))
        assert count_v == count_u + 3

    def test_congestion_empty_layers(self):
        doc = render_congestion_svg([])
        assert "no layers" in doc
        ET.fromstring(doc)

    def test_ramp_monotone_green_to_red(self):
        def channels(t):
            color = ramp_color(t)
            return int(color[1:3], 16), int(color[3:5], 16), int(color[5:7], 16)

        reds = [channels(t / 10.0)[0] for t in range(11)]
        greens = [channels(t / 10.0)[1] for t in range(11)]
        assert reds == sorted(reds)
        assert greens[0] > greens[-1]
        # Out-of-range utilization clips instead of wrapping.
        assert ramp_color(4.2) == ramp_color(1.0)
        assert ramp_color(-1.0) == ramp_color(0.0)

    def test_histogram_bins_cover_all_values(self):
        values = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0]
        edges, counts = histogram_bins(values, nbins=5)
        assert len(edges) == 6 and len(counts) == 5
        assert sum(counts) == len(values)
        assert edges[0] == 0.0 and edges[-1] == 5.0
        assert counts[-1] == 4  # 4.0 lands in [4, 5]; top edge inclusive

    def test_histogram_bins_degenerate(self):
        edges, counts = histogram_bins([], nbins=4)
        assert counts == [0, 0, 0, 0]
        edges, counts = histogram_bins([2.0, 2.0], nbins=4)
        assert sum(counts) == 2
        with pytest.raises(ValueError):
            histogram_bins([1.0], nbins=0)

    def test_slack_histogram_svg(self):
        doc = render_slack_histogram_svg([10.0, 20.0, 20.0, 400.0])
        root = ET.fromstring(doc)
        assert "n=4" in doc
        ns = "{http://www.w3.org/2000/svg}"
        bars = [
            r for r in root.findall(f"{ns}rect")
            if r.get("fill") == "#4878a8"
        ]
        assert 1 <= len(bars) <= 20


class TestComparator:
    def test_identical_artifacts_pass(self):
        artifact = make_artifact()
        deltas = compare_artifacts(artifact, make_artifact())
        assert worst_status(deltas) == "ok"
        assert all(d.status == "ok" for d in deltas)

    def test_warn_band(self):
        current = make_artifact(wall_s_total=16.0)  # +6.7 % wall time
        deltas = compare_artifacts(current, make_artifact())
        by_path = {d.path: d for d in deltas}
        assert by_path["wall_s_total"].status == "warn"
        assert worst_status(deltas) == "warn"

    def test_fail_on_wall_time(self):
        current = make_artifact(wall_s_total=17.0)  # +13 % > 10 % threshold
        deltas = compare_artifacts(current, make_artifact())
        assert worst_status(deltas) == "fail"

    def test_fail_on_wirelength(self):
        artifact = make_artifact()
        artifact.ppa["total_wirelength_m"] = 2.05  # +2.5 % > 2 %
        deltas = compare_artifacts(artifact, make_artifact())
        by_path = {d.path: d for d in deltas}
        assert by_path["ppa.total_wirelength_m"].status == "fail"

    def test_direction_lower_is_worse_for_fclk(self):
        slower = make_artifact()
        slower.ppa["fclk_mhz"] = 485.0  # -3 % fclk: regression
        deltas = compare_artifacts(slower, make_artifact())
        by_path = {d.path: d for d in deltas}
        assert by_path["ppa.fclk_mhz"].status == "fail"

        faster = make_artifact()
        faster.ppa["fclk_mhz"] = 550.0  # +10 % fclk: improvement, passes
        deltas = compare_artifacts(faster, make_artifact())
        by_path = {d.path: d for d in deltas}
        assert by_path["ppa.fclk_mhz"].status == "ok"

    def test_gate_time_off_demotes_to_warn(self):
        current = make_artifact(wall_s_total=30.0)  # +100 % wall time
        deltas = compare_artifacts(
            current, make_artifact(), gate_time=False
        )
        by_path = {d.path: d for d in deltas}
        assert by_path["wall_s_total"].status == "warn"
        assert worst_status(deltas) == "warn"
        # QoR regressions still fail with the time gate off.
        current.ppa["total_wirelength_m"] = 3.0
        deltas = compare_artifacts(
            current, make_artifact(), gate_time=False
        )
        assert worst_status(deltas) == "fail"

    def test_metric_on_one_side_only_is_flagged(self):
        current = make_artifact()
        del current.counters["maze_expansions"]
        deltas = compare_artifacts(current, make_artifact())
        by_path = {d.path: d for d in deltas}
        assert by_path["counters.maze_expansions"].status == "missing"

    def test_key_set_drift_fails_even_with_time_gate_off(self):
        baseline = make_artifact()
        del baseline.counters["f2f_vias"]  # ungated, so no spec row sees it
        current = make_artifact()
        current.ppa["drc_total"] = 0.0
        deltas = compare_artifacts(current, baseline, gate_time=False)
        keys = [d for d in deltas if d.path == "keys"]
        assert len(keys) == 1
        assert keys[0].status == "fail"
        assert keys[0].note == "added counters.f2f_vias, ppa.drc_total"
        deltas = compare_artifacts(baseline, current)
        assert [d.note for d in deltas if d.path == "keys"] == [
            "removed counters.f2f_vias, ppa.drc_total"
        ]
        assert "keys" not in {
            d.path for d in compare_artifacts(current, copy.deepcopy(current))
        }

    def test_cache_counters_are_not_key_drift(self):
        # A cached run records how it executed (hits, misses, stores);
        # the baselines are made without a cache and must still match.
        current = make_artifact()
        current.counters.update(
            {"cache_hit": 3.0, "cache_miss": 5.0, "cache_store": 5.0}
        )
        deltas = compare_artifacts(current, make_artifact())
        assert "keys" not in {d.path for d in deltas}

    def test_metric_absent_on_both_sides_is_skipped(self):
        current = make_artifact(peak_rss_kb=None)
        baseline = make_artifact(peak_rss_kb=None)
        deltas = compare_artifacts(current, baseline)
        assert "peak_rss_kb" not in {d.path for d in deltas}

    def test_zero_baseline_handled(self):
        spec = (MetricSpec("ppa.routing_overflow", "up", 5.0, 10.0),)
        current = make_artifact()
        deltas = compare_artifacts(current, make_artifact(), specs=spec)
        assert deltas[0].status == "ok"  # 0 -> 0 is not a regression
        current.ppa["routing_overflow"] = 4.0
        deltas = compare_artifacts(current, make_artifact(), specs=spec)
        assert deltas[0].status == "fail"  # 0 -> 4 is infinite growth

    def test_diff_table_mentions_everything(self):
        current = make_artifact(wall_s_total=17.0)
        deltas = compare_artifacts(current, make_artifact())
        table = format_diff_table("macro3d-smallcache-small", deltas)
        assert "macro3d-smallcache-small" in table
        assert "wall_s_total" in table
        assert "FAIL" in table
        assert "overall: FAIL" in table


class TestBenchCli:
    def _write(self, directory, artifact):
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, artifact_filename(artifact.scenario)
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(artifact.to_json())

    def test_parser_accepts_bench_commands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["bench", "run", "--all", "--size", "small", "--out", "x"]
        )
        assert args.all and args.size == "small"
        args = parser.parse_args(["bench", "compare", "--no-gate-time"])
        assert args.no_gate_time
        args = parser.parse_args(["run", "--quiet"])
        assert args.quiet

    def test_bench_list_prints_registry(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "macro3d-smallcache-small" in out
        assert "2d-largecache-medium" in out

    def test_compare_ok_exit_zero(self, tmp_path, capsys):
        out_dir, base_dir = str(tmp_path / "out"), str(tmp_path / "base")
        self._write(out_dir, make_artifact())
        self._write(base_dir, make_artifact())
        code = main(
            ["bench", "compare", "--out", out_dir, "--baseline", base_dir]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_compare_regression_exit_nonzero(self, tmp_path, capsys):
        out_dir, base_dir = str(tmp_path / "out"), str(tmp_path / "base")
        bad = make_artifact()
        bad.ppa["total_wirelength_m"] = 3.0  # +50 % wirelength
        self._write(out_dir, bad)
        self._write(base_dir, make_artifact())
        code = main(
            ["bench", "compare", "--out", out_dir, "--baseline", base_dir]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_missing_baseline_passes_with_notice(
        self, tmp_path, capsys
    ):
        out_dir, base_dir = str(tmp_path / "out"), str(tmp_path / "base")
        self._write(out_dir, make_artifact())
        code = main(
            ["bench", "compare", "--out", out_dir, "--baseline", base_dir]
        )
        assert code == 0
        assert "no baseline" in capsys.readouterr().out
        assert load_baseline(base_dir, "macro3d-smallcache-small") is None

    def test_compare_empty_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "compare", "--out", str(tmp_path / "void")])

    def test_report_summarizes(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        self._write(out_dir, make_artifact())
        assert main(["bench", "report", "--out", out_dir, "--stages"]) == 0
        out = capsys.readouterr().out
        assert "macro3d-smallcache-small" in out
        assert "build_tile" in out

    def test_report_handles_null_rss(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        self._write(out_dir, make_artifact(peak_rss_kb=None))
        assert main(["bench", "report", "--out", out_dir]) == 0
        assert "n/a" in capsys.readouterr().out


def _boom_flow(config, scale, options):
    raise RuntimeError("kaboom: injected bench-worker crash")


class TestRunnerFailures:
    """A raising scenario fails alone; the rest of the run completes."""

    TINY = Scenario(
        name="2d-smallcache-crashtest",
        flow="2d",
        config="smallcache",
        size="crashtest",
        scale=0.01,
        sizing_iterations=1,
    )
    BOOM = Scenario(
        name="boom-smallcache-crashtest",
        flow="boom",
        config="smallcache",
        size="crashtest",
        scale=0.01,
        sizing_iterations=1,
    )

    @pytest.fixture()
    def crash_registry(self, monkeypatch):
        monkeypatch.setitem(FLOW_RUNNERS, "boom", _boom_flow)
        register_scenario(self.TINY)
        register_scenario(self.BOOM)
        yield
        unregister_scenario(self.TINY.name)
        unregister_scenario(self.BOOM.name)

    def _check_crash_isolated(self, out_dir, jobs):
        results, _schedule, failures = run_benchmarks(
            [self.BOOM, self.TINY], str(out_dir), svg=False, jobs=jobs
        )
        assert [f.scenario for f in failures] == [self.BOOM.name]
        assert "kaboom" in failures[0].error
        assert "RuntimeError" in failures[0].traceback
        assert "kaboom" in failures[0].traceback
        # The healthy scenario still completed and wrote its artifact.
        assert [s.name for s, _a, _p in results] == [self.TINY.name]
        assert os.path.exists(
            os.path.join(str(out_dir), artifact_filename(self.TINY.name))
        )

    def test_serial_crash_fails_that_scenario_only(
        self, tmp_path, crash_registry
    ):
        self._check_crash_isolated(tmp_path / "serial", jobs=1)

    def test_parallel_crash_surfaces_worker_traceback(
        self, tmp_path, crash_registry
    ):
        self._check_crash_isolated(tmp_path / "parallel", jobs=2)

    def test_wall_budget_overrun_fails_but_keeps_artifact(self, tmp_path):
        slow = Scenario(
            name="2d-smallcache-budgettest",
            flow="2d",
            config="smallcache",
            size="budgettest",
            scale=0.01,
            sizing_iterations=1,
            wall_budget_s=1e-6,
        )
        register_scenario(slow)
        try:
            results, _schedule, failures = run_benchmarks(
                [slow], str(tmp_path), svg=False, jobs=1
            )
        finally:
            unregister_scenario(slow.name)
        assert [f.scenario for f in failures] == [slow.name]
        assert "budget" in failures[0].error
        assert failures[0].traceback == ""
        # The artifact is valid (just slow): it stays in the results.
        assert [s.name for s, _a, _p in results] == [slow.name]


class TestCommittedBaselines:
    """The repo ships baselines for every small scenario (acceptance)."""

    @property
    def baseline_dir(self):
        from repro.bench import DEFAULT_BASELINE_DIR

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        return os.path.join(repo_root, DEFAULT_BASELINE_DIR)

    def test_all_small_scenarios_have_baselines(self):
        missing = [
            s.name for s in all_scenarios(size="small")
            if load_baseline(self.baseline_dir, s.name) is None
        ]
        assert not missing, f"baselines missing for {missing}"

    def test_baselines_validate_against_schema(self):
        for scenario in all_scenarios(size="small"):
            baseline = load_baseline(self.baseline_dir, scenario.name)
            assert baseline is not None
            assert baseline.scenario == scenario.name
            assert baseline.wall_s_total > 0.0
            assert baseline.ppa["fclk_mhz"] > 0.0
            assert baseline.stages, scenario.name
