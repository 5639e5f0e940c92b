"""Property and integration tests for the stage cache (repro.cache).

The key layer carries the whole correctness story — a wrong hit serves
a stale checkpoint silently — so its two load-bearing properties get
the property-style treatment: byte-stability (same logical inputs hash
identically across processes and ``PYTHONHASHSEED`` values, whatever
the dict/set insertion order) and sensitivity (fault-injection style:
perturb one knob, one netlist bit, or one upstream key and the key
must move).  On top of that: store round trips (including the
deep-object-graph pickling regression), the StageChain hit/miss/replay
protocol on a synthetic two-stage flow, the spawn-platform serial
fallback of ``bench run --jobs``, and one real 2D flow run proving a
warm repeat is all hits with byte-identical QoR counters.  Damaged or
raced entries (truncated pickle, sidecar without its pickle, foreign
schema, two writers of one key) must give a clean miss or a
:class:`CacheError`, never a wrong state; and the chain key moves with
any byte of the package source.
"""

import copy
import gc
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.bench import (
    Scenario,
    register_scenario,
    run_benchmarks,
    scenarios_overlapped,
    unregister_scenario,
)
from repro.bench.scenarios import FLOW_RUNNERS
from repro.cache import (
    CacheError,
    StageCache,
    StageChain,
    UnhashableInputError,
    active_cache,
    caching,
    canonical_fingerprint,
    chain_key,
    netlist_fingerprint,
    resolve_cache_dir,
    stage_key,
)
from repro.cache import keys as cache_keys
from repro.cache.keys import code_digest, source_digest
from repro.cache.store import CACHE_SCHEMA
from repro.flows.base import FlowOptions
from repro.flows.flow2d import run_flow_2d
from repro.geom import Point
from repro.netlist.index import shared_geometry
from repro.netlist.openpiton import small_cache_config
from repro.bench.artifact import BenchArtifact
from repro.obs import FlowTrace, count, fold_events, observe, recording
from repro.obs.events import streaming
from repro.serve.service import FORK_FALLBACK_MESSAGE, fork_context
from tests.conftest import build_mini_netlist, stream_events
from tests.test_obs import assert_fold_matches


class TestCanonicalFingerprint:
    def test_dict_order_insensitive(self):
        a = {"placer": "cg", "iterations": 40, "seed": 2020}
        b = {"seed": 2020, "iterations": 40, "placer": "cg"}
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_nested_container_order_insensitive(self):
        a = {"opts": {"x": 1, "y": 2}, "tags": {"fast", "wide"}}
        b = {"tags": {"wide", "fast"}, "opts": {"y": 2, "x": 1}}
        assert canonical_fingerprint(a) == canonical_fingerprint(b)

    def test_type_tags_keep_lookalikes_distinct(self):
        keys = {canonical_fingerprint(v) for v in (1, 1.0, "1", True, None)}
        assert len(keys) == 5

    def test_sequence_order_matters(self):
        assert canonical_fingerprint([1, 2]) != canonical_fingerprint([2, 1])

    def test_value_sensitivity(self):
        base = {"knobs": {"scale": 0.02, "sizing": 3}}
        edited = copy.deepcopy(base)
        edited["knobs"]["sizing"] = 4
        assert canonical_fingerprint(base) != canonical_fingerprint(edited)

    def test_numpy_arrays_hash_by_content(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert canonical_fingerprint(a) == canonical_fingerprint(a.copy())
        b = a.copy()
        b[1, 2] += 1e-9
        assert canonical_fingerprint(a) != canonical_fingerprint(b)
        assert (canonical_fingerprint(a)
                != canonical_fingerprint(a.astype(np.float32)))

    def test_value_objects_hash_by_attribute_state(self, tech):
        assert (canonical_fingerprint(tech)
                == canonical_fingerprint(copy.deepcopy(tech)))
        options = FlowOptions(sizing_iterations=3)
        edited = FlowOptions(sizing_iterations=4)
        assert canonical_fingerprint(options) != canonical_fingerprint(edited)

    def test_rejects_uncanonicalizable_inputs(self):
        with pytest.raises(UnhashableInputError):
            canonical_fingerprint({"fn": lambda: None})

    def test_byte_stable_across_processes_and_hash_seeds(self):
        """The property the whole store rests on: a fresh interpreter
        with a different PYTHONHASHSEED reproduces the exact digest."""
        payload = (
            "{'flow': 's2d', 'knobs': {'scale': 0.02, 'tags': {'a', 'b'},"
            " 'opts': (1, 2.5, True, None)}}"
        )
        script = (
            "from repro.cache import canonical_fingerprint, chain_key;"
            "from repro.cache.keys import code_digest;"
            f"obj = eval({payload!r});"
            "print(canonical_fingerprint(obj));"
            "print(chain_key('s2d', obj));"
            "print(code_digest())"
        )
        digests = []
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH")])
            )
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.append(proc.stdout.split())
        obj = eval(payload)
        assert digests[0] == digests[1]
        assert digests[0] == [canonical_fingerprint(obj),
                              chain_key("s2d", obj), code_digest()]


class TestNetlistFingerprint:
    def test_identical_builds_agree(self, library):
        a = build_mini_netlist(library)
        b = build_mini_netlist(library)
        assert netlist_fingerprint(a) == netlist_fingerprint(b)

    @pytest.mark.parametrize("mutate", [
        lambda nl, lib: nl.add_instance("extra", lib.cell("INV_X2")),
        lambda nl, lib: nl.add_net("stray"),
        lambda nl, lib: setattr(nl.nets[2], "is_clock", True),
        lambda nl, lib: setattr(nl.instances[0], "fixed", True),
        lambda nl, lib: setattr(nl, "name", "renamed"),
    ], ids=["add-instance", "add-net", "clock-mark", "fix-cell", "rename"])
    def test_single_bit_mutations_move_the_fingerprint(self, library, mutate):
        # Fault-injection style (cf. tests/test_drc.py): seed exactly one
        # logical change and the content hash must move.
        base = netlist_fingerprint(build_mini_netlist(library))
        mutant = build_mini_netlist(library)
        mutate(mutant, library)
        assert netlist_fingerprint(mutant) != base

    def test_scale_changes_fingerprint(self, tiny_tile):
        from repro.netlist.openpiton import build_tile

        other = build_tile(small_cache_config(), scale=0.021)
        assert (netlist_fingerprint(other.netlist)
                != netlist_fingerprint(tiny_tile.netlist))


class TestStageKeys:
    UP = "0" * 64

    def test_chained_on_upstream(self):
        a = stage_key("global_place", self.UP, {"placer": "cg"})
        b = stage_key("global_place", "1" * 64, {"placer": "cg"})
        assert a != b

    def test_knob_edits_move_the_key(self):
        base = stage_key("sta", self.UP, {"sizing_iterations": 3})
        assert base != stage_key("sta", self.UP, {"sizing_iterations": 4})
        assert base == stage_key("sta", self.UP, {"sizing_iterations": 3})

    def test_stage_name_disambiguates(self):
        assert (stage_key("extract", self.UP, {})
                != stage_key("pseudo_extract", self.UP, {}))

    def test_chain_key_folds_flow_name(self):
        inputs = {"scale": 0.02}
        assert chain_key("2d", inputs) != chain_key("macro3d", inputs)

    def test_a_changed_source_byte_moves_the_key(self, tmp_path, monkeypatch):
        package = os.path.dirname(os.path.abspath(repro.__file__))
        copy_root = str(tmp_path / "repro")
        shutil.copytree(package, copy_root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        # The digest depends on the file tree's contents, not its place.
        assert source_digest(copy_root) == code_digest()
        key = chain_key("2d", {"scale": 0.02})

        target = os.path.join(copy_root, "flows", "base.py")
        with open(target, "rb") as handle:
            data = bytearray(handle.read())
        data[len(data) // 2] ^= 0x01
        with open(target, "wb") as handle:
            handle.write(bytes(data))
        edited = source_digest(copy_root)
        assert edited != code_digest()
        monkeypatch.setattr(cache_keys, "code_digest", lambda: edited)
        assert chain_key("2d", {"scale": 0.02}) != key


def _chain(node):
    """The ``i`` values of a ``{"next": ..., "i": ...}`` linked list,
    walked iteratively (``==`` on one would recurse past the limit)."""
    values = []
    while node is not None:
        values.append(node["i"])
        node = node["next"]
    return values


class TestStore:
    def test_round_trip(self, tmp_path):
        cache = StageCache(str(tmp_path))
        key = "ab" * 32
        state = {"tile": {"nets": 3}, "floorplan": [1.5, 2.5]}
        journal = [["counter", "cache_probe", 2.0]]
        cache.store(key, state, journal, stage="floorplan", flow="2d",
                    facts={"netlist": "deadbeef"}, wall_s=0.25)
        meta = cache.lookup(key)
        assert meta is not None
        assert meta["stage"] == "floorplan"
        assert meta["facts"] == {"netlist": "deadbeef"}
        assert meta["journal"] == journal
        assert cache.load_state(key) == state
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.by_stage == {"floorplan": 1}
        assert stats.total_bytes > 0

    def test_lookup_miss_is_none(self, tmp_path):
        assert StageCache(str(tmp_path)).lookup("cd" * 32) is None

    def test_clear_empties_the_root(self, tmp_path):
        cache = StageCache(str(tmp_path))
        cache.store("ef" * 32, {"x": 1}, [], stage="sta")
        assert cache.clear() == 1
        assert StageCache(str(tmp_path)).lookup("ef" * 32) is None

    def test_torn_entry_raises_cache_error(self, tmp_path):
        cache = StageCache(str(tmp_path))
        key = "12" * 32
        cache.store(key, {"x": 1}, [], stage="sta")
        with open(cache.state_path(key), "wb") as handle:
            handle.write(b"\x80corrupt")
        with pytest.raises(CacheError):
            cache.load_state(key)

    def test_sidecar_without_pickle_is_a_miss(self, tmp_path):
        key = "56" * 32
        StageCache(str(tmp_path)).store(key, {"x": 1}, [], stage="sta")
        os.unlink(StageCache(str(tmp_path)).state_path(key))
        assert StageCache(str(tmp_path)).lookup(key) is None

    def test_foreign_schema_sidecar_is_a_miss(self, tmp_path):
        key = "78" * 32
        cache = StageCache(str(tmp_path))
        cache.store(key, {"x": 1}, [], stage="sta")
        with open(cache.meta_path(key), "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        assert meta["schema"] == CACHE_SCHEMA
        meta["schema"] = "repro.cache/v0"
        with open(cache.meta_path(key), "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        assert StageCache(str(tmp_path)).lookup(key) is None

    def test_concurrent_writers_of_one_key_leave_one_whole_state(
        self, tmp_path
    ):
        # Deeper than the default recursion limit, so every writer needs
        # the store's deep-pickle setup at once.
        key = "9a" * 32
        states = []
        for writer in range(4):
            node = None
            for i in range(5_000 + 1_000 * writer):
                node = {"next": node, "i": i}
            states.append({"writer": writer, "deep": node})
        limit = sys.getrecursionlimit()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                cache = StageCache(str(tmp_path))
                start = threading.Barrier(len(states))
                errors = []

                def write(state):
                    try:
                        start.wait(timeout=30)
                        cache.store(key, state, [], stage="sta")
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=write, args=(state,))
                           for state in states]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors
                assert sys.getrecursionlimit() == limit
                loaded = StageCache(str(tmp_path)).load_state(key)
                want = states[loaded["writer"]]
                assert _chain(loaded["deep"]) == _chain(want["deep"])
        finally:
            sys.setswitchinterval(switch)

    def test_deep_object_graphs_pickle(self, tmp_path):
        # Regression: Instance->Net->Instance chains recurse with design
        # depth; the plain pickler blows the default recursion limit at
        # bench scales.  The store must swallow graphs far deeper than
        # sys.getrecursionlimit().
        node = None
        for i in range(30_000):
            node = {"next": node, "i": i}
        cache = StageCache(str(tmp_path))
        key = "34" * 32
        cache.store(key, {"deep": node}, [], stage="build_tile")
        loaded = cache.load_state(key)["deep"]
        assert loaded["i"] == 29_999
        assert loaded["next"]["next"]["i"] == 29_997

    def test_resolve_cache_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "arg")).endswith("arg")
        assert resolve_cache_dir(None).endswith("env")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert resolve_cache_dir(None).endswith(os.path.join(".cache", "repro"))


def _two_stage_chain(flow_inputs, knobs):
    """One synthetic flow run: seed -> transform (which also reduces).

    ``reduce`` has no knob of its own, so it runs inside ``transform``:
    one checkpoint per knob boundary.
    """
    chain = StageChain.begin("toy", **flow_inputs)

    def seed(st):
        count("toy_seeded", 1)
        st["values"] = list(range(10))
        return {"n": len(st["values"])}

    def transform(st):
        observe("toy_scale", float(knobs["scale"]))
        st["scaled"] = [v * knobs["scale"] for v in st["values"]]
        count("toy_reduced", 1)
        st["total"] = sum(st["scaled"])

    chain.run("seed", seed)
    chain.run("transform", transform, scale=knobs["scale"])
    return chain


class TestStageChain:
    INPUTS = {"config": "smallcache"}

    def test_null_chain_without_ambient_cache(self):
        assert active_cache() is None
        chain = _two_stage_chain(self.INPUTS, {"scale": 3})
        assert not chain.enabled
        assert chain.key == ""
        assert chain.state["total"] == 135
        assert [kind for _, kind in chain.stages] == ["computed"] * 2

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_knobless_stage_after_the_first_is_rejected(
        self, cached, tmp_path
    ):
        cache = StageCache(str(tmp_path)) if cached else None
        with caching(cache):
            chain = StageChain.begin("toy", **self.INPUTS)
            chain.run("seed", lambda st: st.update(values=[1, 2]))
            chain.run("transform", lambda st: None, scale=2)
            with pytest.raises(ValueError, match="'reduce'"):
                chain.run("reduce", lambda st: None)

    def test_cold_then_warm_then_edited(self, tmp_path):
        with caching(StageCache(str(tmp_path))):
            with recording() as rec:
                cold = _two_stage_chain(self.INPUTS, {"scale": 3})
            cold_trace = FlowTrace.from_recorder(rec)
            assert (cold.hits, cold.misses) == (0, 2)
            assert cold.state["total"] == 135

            with recording() as rec:
                warm = _two_stage_chain(self.INPUTS, {"scale": 3})
            warm_trace = FlowTrace.from_recorder(rec)
            assert (warm.hits, warm.misses) == (2, 0)
            assert [kind for _, kind in warm.stages] == ["hit"] * 2
            # One lazy unpickle of the deepest checkpoint reproduces the
            # cumulative state...
            assert warm.state["total"] == 135
            # ...and journal replay reproduces every cold metric.
            assert warm_trace.counters["toy_seeded"] == 1
            assert warm_trace.counters["toy_reduced"] == 1
            assert (warm_trace.histograms["toy_scale"].to_dict()
                    == cold_trace.histograms["toy_scale"].to_dict())
            assert warm_trace.counters["cache_hit"] == 2
            assert cold_trace.counters["cache_miss"] == 2
            assert cold_trace.counters["cache_store"] == 2

            # A knob edit keeps the upstream checkpoint and recomputes
            # only from the edited stage on.
            edited = _two_stage_chain(self.INPUTS, {"scale": 5})
            assert [kind for _, kind in edited.stages] == ["hit", "miss"]
            assert edited.state["total"] == 225

    def test_run_level_inputs_partition_the_cache(self, tmp_path):
        with caching(StageCache(str(tmp_path))):
            _two_stage_chain(self.INPUTS, {"scale": 3})
            other = _two_stage_chain({"config": "largecache"}, {"scale": 3})
            assert (other.hits, other.misses) == (0, 2)

    def test_hit_spans_are_tagged(self, tmp_path):
        with caching(StageCache(str(tmp_path))):
            _two_stage_chain(self.INPUTS, {"scale": 3})
            with recording() as rec:
                _two_stage_chain(self.INPUTS, {"scale": 3})
        spans = FlowTrace.from_recorder(rec).spans
        assert [s.name for s in spans] == ["seed", "transform"]
        assert all(s.attrs.get("cache") == "hit" for s in spans)


class TestFlowWarmRepeat:
    """The acceptance property on a real (tiny) flow: a warm repeat is
    a chain of hits and its QoR counters match the cold run's."""

    OPTIONS = FlowOptions(sizing_iterations=1)
    #: build_tile, floorplan, global_place, legalize, global_route, cts, sta.
    STAGES = 7

    @classmethod
    def _run(cls, options=None):
        """One traced run with its JSON event stream: (result, trace,
        events)."""
        events = []
        with recording() as rec, streaming(stream_events(events)):
            result = run_flow_2d(
                small_cache_config(), scale=0.01,
                options=options or cls.OPTIONS,
            )
        trace = FlowTrace.from_recorder(
            rec, flow=result.flow, design=result.design
        )
        return result, trace, events

    @pytest.fixture(scope="class")
    def cold(self, tmp_path_factory):
        """One cold run: its cache dir, result, trace and events."""
        cache_dir = str(tmp_path_factory.mktemp("cache"))
        with caching(StageCache(cache_dir)):
            return (cache_dir, *self._run())

    @pytest.fixture(scope="class")
    def warm(self, cold):
        """One warm repeat of the cold run: result, trace and events."""
        with caching(StageCache(cold[0])):
            return self._run()

    def test_warm_2d_flow_is_all_hits_and_qor_identical(self, cold, warm):
        _cache_dir, cold, cold_trace, _events = cold
        warm, warm_trace, _events = warm
        assert warm_trace.counters["cache_hit"] == self.STAGES
        assert "cache_miss" not in warm_trace.counters
        assert cold_trace.counters["cache_miss"] == self.STAGES
        assert warm.summary.as_row() == cold.summary.as_row()

        def qor_counters(trace):
            return {k: v for k, v in trace.counters.items()
                    if not k.startswith("cache_")}

        assert qor_counters(warm_trace) == qor_counters(cold_trace)
        assert warm_trace.gauges == cold_trace.gauges
        assert ([s.name for s in warm_trace.spans]
                == [s.name for s in cold_trace.spans])

    def test_fold_equals_recorder(self, traced_2d, cold, warm):
        """Uncached, cold-cached and warm-cached: the fold of each run's
        JSON event stream equals its recorder's trace."""
        for _result, trace, events in (traced_2d, cold[1:], warm):
            assert_fold_matches(events, trace)

    def test_cache_tags_reach_the_stream(self, cold, warm):
        for (_result, _trace, events), tag in ((cold[1:], "miss"),
                                               (warm, "hit")):
            # Each stage's top-level spans carry the tag as they open.
            tagged = [e for e in events
                      if e["type"] == "span_open" and "cache" in e["attrs"]]
            assert len(tagged) >= self.STAGES
            assert {e["attrs"]["cache"] for e in tagged} == {tag}
            folded = [s for s in fold_events(events)[""].all_spans()
                      if "cache" in s.attrs]
            assert [s.name for s in folded] == [e["name"] for e in tagged]
            assert all(len(s.attrs["key"]) == 12 for s in folded)

    def test_warm_wall_covers_the_checkpoint_load(self, cold, monkeypatch):
        """A warm run's wall time is the recording's, so it includes the
        checkpoint load that runs outside every span."""
        load_s = []
        load_state = StageCache.load_state

        def spy(cache, key):
            start = time.perf_counter()
            try:
                return load_state(cache, key)
            finally:
                load_s.append(time.perf_counter() - start)

        monkeypatch.setattr(StageCache, "load_state", spy)
        with caching(StageCache(cold[0])):
            result, trace, _events = self._run()
        artifact = BenchArtifact.from_run(
            "", "", "", "", 0.0, result, trace
        )
        assert len(load_s) == 1
        assert artifact.wall_s_total >= load_s[0] > 0.0

    def test_sizing_edit_stores_one_checkpoint(self, cold, tmp_path,
                                               monkeypatch):
        """A signoff knob edit resumes from the cts checkpoint: one
        miss, one store, one load, and the uncached run's QoR."""
        cache_dir = str(tmp_path / "cache")
        shutil.copytree(cold[0], cache_dir)
        loads = []
        load_state = StageCache.load_state

        def spy(cache, key):
            loads.append(key)
            return load_state(cache, key)

        monkeypatch.setattr(StageCache, "load_state", spy)
        edited = FlowOptions(sizing_iterations=2)
        with caching(StageCache(cache_dir)):
            result, trace, _events = self._run(edited)
        assert trace.counters["cache_miss"] == 1
        assert trace.counters["cache_store"] == 1
        assert trace.counters["cache_hit"] == self.STAGES - 1
        assert len(loads) == 1
        uncached, uncached_trace, _events = self._run(edited)
        assert result.summary.as_row() == uncached.summary.as_row()
        assert ([s.name for s in trace.spans]
                == [s.name for s in uncached_trace.spans])

    def test_truncated_checkpoint_is_a_cache_error(self, cold, tmp_path):
        cache_dir = str(tmp_path / "cache")
        shutil.copytree(cold[0], cache_dir)
        for dirpath, _dirnames, filenames in os.walk(cache_dir):
            for name in filenames:
                if name.endswith(".pkl"):
                    path = os.path.join(dirpath, name)
                    os.truncate(path, os.path.getsize(path) // 2)
        with caching(StageCache(cache_dir)):
            with pytest.raises(CacheError):
                self._run()
        # The flow's collector pause ends on the raise, too.
        assert gc.isenabled()


class TestIndexReuse:
    def test_same_geometry_reuses_one_index(self, library):
        netlist = build_mini_netlist(library)
        ports = {
            "clk": Point(0.0, 5.0),
            "din": Point(0.0, 2.5),
            "dout": Point(20.0, 7.5),
        }
        with recording() as rec:
            first = shared_geometry(netlist, {}, ports)
            second = shared_geometry(netlist, {}, dict(ports))
        assert second is first
        trace = FlowTrace.from_recorder(rec)
        assert trace.counters["index_reuse"] == 1
        # A different geometry is a different index, not a stale reuse.
        moved = dict(ports, dout=Point(21.0, 7.5))
        assert shared_geometry(netlist, {}, moved) is not first


def _boom_flow(config, scale, options):
    raise RuntimeError("kaboom: fallback-path probe")


class TestSpawnFallback:
    """bench run --jobs on a spawn-only platform: loud serial fallback."""

    A = Scenario(name="boomA-smallcache-forktest", flow="boomfb",
                 config="smallcache", size="forktest", scale=0.01,
                 sizing_iterations=1)
    B = Scenario(name="boomB-smallcache-forktest", flow="boomfb",
                 config="smallcache", size="forktest", scale=0.01,
                 sizing_iterations=1)

    @pytest.fixture()
    def spawn_only(self, monkeypatch):
        monkeypatch.setattr(
            "repro.forking.multiprocessing.get_all_start_methods",
            lambda: ["spawn"],
        )
        monkeypatch.setitem(FLOW_RUNNERS, "boomfb", _boom_flow)
        register_scenario(self.A)
        register_scenario(self.B)
        yield
        unregister_scenario(self.A.name)
        unregister_scenario(self.B.name)

    def test_fork_context_is_none_without_fork(self, spawn_only):
        assert fork_context() is None

    def test_parallel_run_warns_and_runs_serially(self, spawn_only, tmp_path):
        with pytest.warns(RuntimeWarning, match="serially"):
            results, schedule, failures = run_benchmarks(
                [self.A, self.B], str(tmp_path), svg=False, jobs=2
            )
        # Both scenarios executed (and failed on the probe flow) — the
        # fallback ran the full list, one at a time.
        assert sorted(f.scenario for f in failures) == [
            self.A.name, self.B.name
        ]
        assert not scenarios_overlapped(schedule)
        assert "fork" in FORK_FALLBACK_MESSAGE

    def test_fork_platform_does_not_warn(self, tmp_path, recwarn):
        if fork_context() is None:
            pytest.skip("platform genuinely lacks fork")
        # An empty serial run must never emit the fallback warning.
        results, _schedule, failures = run_benchmarks(
            [], str(tmp_path), svg=False, jobs=1
        )
        assert results == [] and failures == []
        assert not [w for w in recwarn.list
                    if "serially" in str(w.message)]
