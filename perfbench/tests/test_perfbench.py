"""Tests of the benchmark's own code (no flow runs; a few seconds).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import layers  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from repro.bench.artifact import PPA_FIELDS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _attributes():
    out = []
    for _stem, module, attribute in layers.ENTRY_POINTS:
        owner, name = layers._owner(module, attribute)
        out.append((owner, name, owner.__dict__[name]))
    return out


def test_wrappers_installed_then_restored():
    before = _attributes()
    with layers.traced_layers():
        for owner, name, original in before:
            assert owner.__dict__[name] is not original
            assert owner.__dict__[name].__wrapped__ is original
    assert _attributes() == before


def test_wrappers_restored_when_the_block_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with layers.traced_layers():
            raise RuntimeError("flow failed")
    assert _attributes() == before


def test_callers_see_the_wrapper():
    base = importlib.import_module("repro.flows.base")
    sta = importlib.import_module("repro.timing.sta")
    with layers.traced_layers() as times:
        assert hasattr(base.global_place, "__wrapped__")
        assert hasattr(sta.StaEngine.run, "__wrapped__")
    assert not hasattr(base.global_place, "__wrapped__")
    assert not hasattr(sta.StaEngine.run, "__wrapped__")
    assert times.inclusive == {}


class _Clock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_calls(monkeypatch):
    times = layers.LayerTimes()
    inner = times.timed("place.cg", lambda: None)
    outer = times.timed("place.global_place", lambda: (inner(), inner()))
    # outer 0..10 with inner calls 1..3 and 4..8
    monkeypatch.setattr(layers.time, "perf_counter", _Clock(0, 1, 3, 4, 8, 10))
    outer()
    monkeypatch.undo()
    assert times.inclusive == {"place.cg": 6, "place.global_place": 10}
    assert times.self_time == {"place.cg": 6, "place.global_place": 4}
    assert times.top_level_s == 10
    metrics = layers.layer_metrics(times, {}, traced_wall_s=12, untraced_wall_s=11.5)
    assert metrics["place.global_place_self_s"] == 4
    assert metrics["place.global_place_s"] - metrics["place.cg_s"] == 4
    assert metrics["flow.unattributed_s"] == 2
    assert metrics["obs.tracing_overhead_s"] == 0.5


def test_a_raising_call_is_booked_and_unwound(monkeypatch):
    times = layers.LayerTimes()

    def boom():
        raise ValueError("x")

    wrapped = times.timed("drc.run_drc", boom)
    monkeypatch.setattr(layers.time, "perf_counter", _Clock(0, 2))
    with pytest.raises(ValueError):
        wrapped()
    monkeypatch.undo()
    assert times.inclusive == {"drc.run_drc": 2}
    assert times._stack == []


def _result(**ppa):
    values = {name: 1.0 for name in PPA_FIELDS}
    values.update(drc_total=0.0, f2f_bumps=5.0)
    values.update(ppa)
    return SimpleNamespace(
        flow="2D", design="d", summary=SimpleNamespace(**values),
        assignment=SimpleNamespace(total_vias=10),
    )


def test_failure_rate_counts_raise_drc_and_mismatch():
    reference = {"fclk_mhz": 1.0, "power_uw": 1.0}

    def raises():
        raise RuntimeError("boom")

    runs = [
        workloads.execute("ok", _result, reference)[0],
        workloads.execute("raise", raises, reference)[0],
        workloads.execute("drc", lambda: _result(drc_total=3.0), reference)[0],
        workloads.execute("qor", lambda: _result(fclk_mhz=1.01), reference)[0],
    ]
    assert [bool(r.failures) for r in runs] == [False, True, True, True]
    assert "raised RuntimeError" in runs[1].failures[0]
    assert "drc_total" in runs[2].failures[0]
    assert "fclk_mhz" in runs[3].failures[0]
    assert workloads.failure_rate(runs) == 0.75
    assert runs[0].vias == 15.0


def test_non_reference_seed_checks_drc_only():
    assert workloads.check_qor("x", {"drc_total": 0.0, "fclk_mhz": 2.0}, None) == []
    assert workloads.check_qor("x", {"drc_total": 1.0}, None)


def test_qor_drift_between_passes_fails_the_later_run():
    first = workloads.execute("flow", _result, None)[0]
    later = workloads.execute("flow", lambda: _result(power_uw=2.0), None)[0]
    workloads.check_same(later, first)
    assert later.failures and not first.failures


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_metric_names_match_the_code_and_benchmark_json():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} == set(bench_run.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == bench_run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    names = list(end_to_end) + [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_references_match_committed_baselines():
    refs = workloads.load_references()
    for workload, label, scenario in (
        ("2d-route", "flow", "2d-smallcache-medium"),
        ("macro3d-knob-sweep", "cold", "macro3d-largecache-medium"),
    ):
        path = os.path.join(ROOT, "benchmarks", "baselines", f"BENCH_{scenario}.json")
        with open(path, encoding="utf-8") as handle:
            baseline = json.load(handle)["ppa"]
        assert refs[workload][label] == baseline


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "2d-route",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
