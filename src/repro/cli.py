"""Command-line entry point: ``python -m repro <command>``.

Runs the case-study flows, the benchmark scenarios and the flow service
without writing any Python — the interface a downstream user reaches
for first.

Commands::

    python -m repro run --flow macro3d --config small --scale 0.04
    python -m repro run --flow macro3d --profile
    python -m repro run --flow macro3d --events-out run.events.jsonl --quiet
    python -m repro run --flow macro3d --cache
    python -m repro run --flow macro3d --cache-dir /tmp/repro-cache
    python -m repro run --flow macro3d_m4 --config large
    python -m repro trace run.events.jsonl
    python -m repro trace run.events.jsonl --chrome run.perfetto
    python -m repro dash --history benchmarks/history.jsonl --out dash.html
    python -m repro bench list
    python -m repro bench run --all --out bench_out/
    python -m repro bench run --all --size paper --out paper_out/
    python -m repro bench run --all --jobs 2 --profile
    python -m repro bench run --all --events-out bench.events.jsonl \\
        --history benchmarks/history.jsonl --perfetto
    python -m repro bench run --all --cache --out bench_out/
    python -m repro bench serve --scenario macro3d-largecache-small \\
        --jobs 2 --repeat 3 --history benchmarks/history.jsonl
    python -m repro bench compare --out bench_out/
    python -m repro bench compare --trend --history benchmarks/history.jsonl
    python -m repro bench report --out bench_out/
    python -m repro bench validate benchmarks/baselines bench_out/
    python -m repro serve --jobs 2 < jobs.txt
    python -m repro cache stats
    python -m repro cache clear
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.baseline import DEFAULT_BASELINE_DIR
from repro.bench.scenarios import CONFIGS, FLOW_RUNNERS, SIZES
from repro.flows.base import FlowResult
from repro.netlist.openpiton import TileConfig
from repro.obs import fold_events, format_trace, recording
from repro.obs.events import DEFAULT_HEARTBEAT_S
from repro.obs.history import DEFAULT_HISTORY_PATH


def _config(name: str) -> TileConfig:
    """The ``--config small|large`` tile (a ``CONFIGS`` entry)."""
    return CONFIGS[f"{name}cache"]()


def _print_result(result: FlowResult) -> None:
    print(f"== {result.flow} on {result.design} ==")
    for key, value in result.summary.as_row().items():
        print(f"  {key:28s} {value}")
    critical = result.sta.critical
    if critical is not None:
        print(f"  critical endpoint            {critical.endpoint} "
              f"({critical.launch}-cycle, {critical.delay:.0f} ps)")


def _cache_wanted(args: argparse.Namespace) -> bool:
    return bool(getattr(args, "cache", False) or
                getattr(args, "cache_dir", None))


def _cache_context(args: argparse.Namespace):
    """The ambient stage-cache context for --cache/--cache-dir (no-op
    when neither flag is given)."""
    from contextlib import nullcontext

    if not _cache_wanted(args):
        return nullcontext()
    from repro.cache import caching, get_cache

    return caching(get_cache(args.cache_dir))


def cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import profile_call
    from repro.obs.events import streaming

    runner = FLOW_RUNNERS[args.flow]

    def execute() -> FlowResult:
        with _cache_context(args):
            if args.profile:
                result, report = profile_call(
                    runner, _config(args.config), scale=args.scale
                )
                profile_out = (args.events_out or "run") + ".profile.txt"
                with open(profile_out, "w", encoding="utf-8") as handle:
                    handle.write(report)
                # --quiet suppresses the progress/summary stream, not the
                # pointer to a file the user explicitly asked for — without
                # this line `--profile --quiet` silently writes to a path
                # the user has to guess.
                print(f"profile written to {profile_out}", flush=True)
                return result
            return runner(_config(args.config), scale=args.scale)

    if args.events_out:
        # Span events only stream while a recorder is live; the stream
        # runs inside it so its footer carries the final metrics.
        with recording(), streaming(args.events_out):
            result = execute()
        if not args.quiet:
            print(f"events streamed to {args.events_out}")
    else:
        result = execute()
    if not args.quiet:
        _print_result(result)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.events import read_events
    from repro.obs.export import chrome_trace_from_events, write_chrome_trace

    events = read_events(args.path)
    try:
        traces = fold_events(events)
    except ValueError as exc:
        raise SystemExit(f"{args.path}: {exc}")
    if args.chrome:
        write_chrome_trace(args.chrome, chrome_trace_from_events(events))
        print(f"chrome trace written to {args.chrome} "
              f"({len(events)} events)")
        return 0
    # One stage table per run; a bench stream holds one per scenario.
    for scenario, trace in traces.items():
        if scenario:
            print(f"== {scenario} ==")
        print(format_trace(trace))
    return 0


def cmd_dash(args: argparse.Namespace) -> int:
    from repro.obs.history import load_history, render_dashboard

    try:
        records = load_history(args.history)
    except FileNotFoundError:
        raise SystemExit(f"no history at {args.history!r}; grow one with "
                         "`bench run ... --history PATH`")
    if args.scenario:
        wanted = set(args.scenario)
        records = [r for r in records if r.scenario in wanted]
    if not records:
        raise SystemExit(f"{args.history}: no matching history records")
    html = render_dashboard(records, title=args.title)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(html)
    scenarios = len({r.scenario for r in records})
    print(f"dashboard written to {args.out} "
          f"({len(records)} record(s), {scenarios} scenario(s))")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Run flow(s) and gate on the signoff DRC report (exit 1 if dirty)."""
    import os

    from repro.drc import format_report, render_drc_svg
    from repro.io.def_io import write_def

    targets = []
    if args.scenario:
        from repro.bench import get_scenario

        for name in args.scenario:
            scenario = get_scenario(name)
            targets.append((name, scenario.run))
    else:
        runner = FLOW_RUNNERS[args.flow]
        config = _config(args.config)

        def run_adhoc() -> FlowResult:
            return runner(config, scale=args.scale)

        targets.append((f"{args.flow}-{args.config}", run_adhoc))

    wants_files = args.json or args.svg or args.def_out
    if wants_files:
        os.makedirs(args.out, exist_ok=True)

    failed = False
    for name, run in targets:
        result = run()
        report = result.drc
        if report is None:
            raise SystemExit(f"{name}: flow attached no DRC report")
        print(format_report(report, limit=args.limit))
        print()
        failed = failed or not report.clean
        if args.json:
            path = os.path.join(args.out, f"VERIFY_{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.to_json())
            print(f"  report -> {path}")
        if args.svg:
            path = os.path.join(args.out, f"VERIFY_{name}.svg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_drc_svg(result.grid, report))
            print(f"  overlay -> {path}")
        if args.def_out:
            path = os.path.join(args.out, f"VERIFY_{name}.def")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(
                    write_def(
                        result.design,
                        result.placement,
                        result.routed,
                        assignment=result.assignment,
                        layer_names=[l.name for l in result.grid.layers],
                    )
                )
            print(f"  routed DEF -> {path}")
    print(f"verify: {'FAIL' if failed else 'clean'}")
    return 1 if failed else 0


# -- bench subcommands ---------------------------------------------------------------


def _bench_scenarios(args: argparse.Namespace) -> List["Scenario"]:
    from repro.bench import all_scenarios, get_scenario

    if getattr(args, "scenario", None):
        return [get_scenario(name) for name in args.scenario]
    size = None if args.size == "all" else args.size
    return all_scenarios(size=size)


def cmd_bench_list(args: argparse.Namespace) -> int:
    from repro.bench import all_scenarios

    print(f"{'scenario':<28s} {'flow':<10s} {'config':<11s} "
          f"{'size':<7s} {'scale':>6s} {'sizing':>6s} {'budget':>8s}")
    for s in all_scenarios():
        budget = (f"{s.wall_budget_s:7.0f}s" if s.wall_budget_s is not None
                  else "       -")
        print(f"{s.name:<28s} {s.flow:<10s} {s.config:<11s} "
              f"{s.size:<7s} {s.scale:>6g} {s.sizing_iterations:>6d} "
              f"{budget}")
    return 0


def _progress_printer(out=None):
    """Build the live progress consumer of the bench event stream.

    Progress is no longer printed directly by ``cmd_bench_run`` — it is
    a *view* of the ``repro.obs.events/v1`` stream, so ``--quiet``
    suppresses exactly that stream subscription (drop the callback) and
    serial/parallel runs share one code path.  Called from the flow
    service's drainer thread in parallel runs, hence the flush per line.
    """
    import sys as _sys

    out = out or _sys.stdout

    def progress(event) -> None:
        kind = event.get("type")
        name = event.get("scenario", "?")
        if kind == "run_start":
            print(f"running {name} ...", flush=True, file=out)
        elif kind == "span_close" and event.get("depth") == 0:
            print(f"  {name}: {event.get('name', '?'):<14s} "
                  f"{float(event.get('dur_s', 0.0)):8.2f} s",
                  flush=True, file=out)
        elif kind == "mark":
            attrs = event.get("attrs", {})
            detail = " ".join(f"{k}={v:g}" if isinstance(v, float)
                              else f"{k}={v}"
                              for k, v in sorted(attrs.items()))
            print(f"  {name}: [{event.get('name', '?')}] {detail}",
                  flush=True, file=out)

    return progress


def cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import run_benchmarks, scenarios_overlapped

    if not args.all and not args.scenario:
        raise SystemExit("bench run: pass --all or --scenario NAME")
    if args.jobs < 1:
        raise SystemExit("bench run: --jobs must be >= 1")
    cache_dir = None
    if _cache_wanted(args):
        from repro.cache import resolve_cache_dir

        cache_dir = resolve_cache_dir(args.cache_dir)
    scenarios = _bench_scenarios(args)
    on_event = None if args.quiet else _progress_printer()

    def report(scenario, artifact, paths) -> None:
        if not args.quiet:
            fclk = artifact.ppa.get("fclk_mhz", 0.0)
            print(f"  {scenario.name}: {artifact.wall_s_total:7.1f} s"
                  f"  fclk {fclk:6.1f} MHz  -> {paths[0]}", flush=True)

    results, schedule, failures = run_benchmarks(
        scenarios,
        args.out,
        svg=not args.no_svg,
        jobs=args.jobs,
        profile=args.profile,
        on_done=report,
        events_path=args.events_out,
        on_event=on_event,
        heartbeat_s=args.heartbeat,
        history_path=args.history,
        perfetto=args.perfetto,
        cache_dir=cache_dir,
    )
    if args.profile:
        # Same contract as `run --profile`: the pointer to files the
        # user explicitly requested survives --quiet.
        print(f"profile reports written next to artifacts in {args.out}",
              flush=True)
    if not args.quiet:
        if args.jobs > 1:
            overlap = ("overlapped" if scenarios_overlapped(schedule)
                       else "did not overlap")
            print(f"jobs={args.jobs}: scenario intervals {overlap} "
                  f"(see BENCH_schedule.json)")
        print(f"{len(results)} artifact(s) written to {args.out}")
        if args.events_out:
            print(f"events streamed to {args.events_out}")
        if args.history:
            print(f"history appended to {args.history}")
        if cache_dir is not None:
            print(f"stage cache at {cache_dir} "
                  f"(stats in {args.out}/CACHE_stats.json)")
    for failure in failures:
        print(f"FAILED {failure.scenario}: {failure.error}", file=sys.stderr)
        if failure.traceback:
            print(failure.traceback, file=sys.stderr)
    return 1 if failures else 0


def cmd_bench_serve(args: argparse.Namespace) -> int:
    """Measure designs/hour through a persistent warm flow service.

    Round 0 runs every selected scenario cold (empty stage cache),
    rounds 1..--repeat rerun them warm through the *same* service.
    Warm runs must be QoR byte-identical to cold (exit 1 otherwise);
    --history puts the measured throughput under the trend gate.
    """
    import tempfile

    from repro.serve import run_throughput

    if not args.all and not args.scenario:
        raise SystemExit("bench serve: pass --all or --scenario NAME")
    if args.jobs < 1:
        raise SystemExit("bench serve: --jobs must be >= 1")
    if args.repeat < 1:
        raise SystemExit("bench serve: --repeat must be >= 1")
    scenarios = [s.name for s in _bench_scenarios(args)]
    cleanup = None
    cache_dir = args.cache_dir
    if cache_dir is None:
        # A fresh throwaway cache keeps the cold round honest.
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-cache-")
        cleanup, cache_dir = tmp, tmp.name
    try:
        report = run_throughput(
            scenarios,
            jobs=args.jobs,
            repeat=args.repeat,
            out_dir=args.out,
            cache_dir=cache_dir,
            history_path=args.history,
            events_path=args.events_out,
        )
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    warm_jobs = len(scenarios) * report.repeat
    print(f"mode {report.mode}  jobs {report.jobs}  "
          f"scenarios {len(scenarios)}  warm rounds {report.repeat}")
    print(f"cold: {len(scenarios):3d} design(s) in {report.cold_s:8.1f} s "
          f"-> {report.designs_per_hour_cold:10,.1f} designs/hour")
    print(f"warm: {warm_jobs:3d} design(s) in {report.warm_s:8.1f} s "
          f"-> {report.designs_per_hour_warm:10,.1f} designs/hour")
    if report.warm_cache_counters:
        hits = report.warm_cache_counters.get("cache_hit", 0.0)
        misses = report.warm_cache_counters.get("cache_miss", 0.0)
        print(f"warm cache: {hits:.0f} hit(s), {misses:.0f} miss(es)")
    if args.history:
        print(f"history appended to {args.history}")
    if report.qor_mismatches:
        print("QoR MISMATCH (warm differs from cold): "
              + ", ".join(report.qor_mismatches), file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a persistent flow service over a stream of scenario jobs.

    Jobs come from --scenario flags and/or stdin (one scenario name per
    line — pipe a file in, or type names interactively).  The service
    keeps its workers warm between jobs, so with --cache/--cache-dir a
    resubmitted scenario resolves as a chain of stage-cache hits.
    """
    from repro.bench import get_scenario
    from repro.serve import DONE, FlowService

    if args.jobs < 1:
        raise SystemExit("serve: --jobs must be >= 1")
    cache_dir = None
    if _cache_wanted(args):
        from repro.cache import resolve_cache_dir

        cache_dir = resolve_cache_dir(args.cache_dir)
    names = list(args.scenario or [])
    use_stdin = not names
    if use_stdin and sys.stdin.isatty() and not args.quiet:
        print("reading scenario names from stdin (one per line, "
              "EOF/Ctrl-D to drain and exit)", flush=True)
    unknown = 0
    submitted: List[int] = []
    with FlowService(
        jobs=args.jobs, out_dir=args.out, cache_dir=cache_dir,
        events_path=args.events_out,
    ) as service:
        if not args.quiet:
            print(f"service up: mode {service.mode}, "
                  f"{service.workers} worker(s), artifacts in {args.out}",
                  flush=True)

        def submit(raw: str) -> None:
            nonlocal unknown
            name = raw.strip()
            if not name or name.startswith("#"):
                return
            try:
                get_scenario(name)
            except KeyError as exc:
                print(exc.args[0], file=sys.stderr)
                unknown += 1
                return
            job_id = service.submit(name)
            submitted.append(job_id)
            if not args.quiet:
                print(f"  queued #{job_id} {name}", flush=True)

        for name in names:
            submit(name)
        if use_stdin:
            for line in sys.stdin:
                submit(line)
        failures = 0
        for job_id in submitted:
            record = service.wait(job_id)
            if record.state == DONE:
                fclk = record.artifact.ppa.get("fclk_mhz", 0.0)
                print(f"  done   #{record.job_id} {record.scenario}: "
                      f"{record.wall_s:7.1f} s  fclk {fclk:6.1f} MHz",
                      flush=True)
            else:
                failures += 1
                print(f"  FAILED #{record.job_id} {record.scenario}: "
                      f"{record.error}", file=sys.stderr)
    if not args.quiet:
        done = sum(1 for r in service.records if r.state == DONE)
        print(f"drained: {done} ok, {failures} failed, "
              f"{unknown} unknown name(s)")
    return 1 if failures or unknown else 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    import json

    from repro.cache import get_cache

    print(json.dumps(get_cache(args.cache_dir).stats().to_dict(), indent=2))
    return 0


def cmd_cache_clear(args: argparse.Namespace) -> int:
    from repro.cache import get_cache

    cache = get_cache(args.cache_dir)
    removed = cache.clear()
    noun = "entry" if removed == 1 else "entries"
    print(f"removed {removed} cache {noun} from {cache.root}")
    return 0


def _trend_compare(args: argparse.Namespace) -> int:
    from repro.bench import (
        TREND_MIN_RUNS,
        format_diff_table,
        trend_deltas,
        worst_status,
    )
    from repro.obs.history import group_by_scenario, load_history

    try:
        records = load_history(args.history)
    except FileNotFoundError:
        raise SystemExit(f"no history at {args.history!r}; grow one with "
                         "`bench run ... --history PATH`")
    failed = False
    compared = 0
    for scenario, runs in sorted(group_by_scenario(records).items()):
        if len(runs) < TREND_MIN_RUNS:
            print(f"== {scenario} ==")
            print(f"{len(runs)} run(s) in history — trend gating needs "
                  f">= {TREND_MIN_RUNS}")
            continue
        deltas = trend_deltas(runs, gate_time=not args.no_gate_time)
        print(format_diff_table(f"{scenario} (trend)", deltas))
        print()
        compared += 1
        if worst_status(deltas) == "fail":
            failed = True
    print(f"trend-compared {compared} scenario(s) from {args.history}: "
          f"{'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_artifacts,
        format_diff_table,
        load_artifacts,
        load_baseline,
        worst_status,
    )

    if args.trend:
        return _trend_compare(args)
    artifacts = load_artifacts(args.out)
    if not artifacts:
        raise SystemExit(f"no BENCH_*.json artifacts found in {args.out!r}")
    failed = False
    compared = 0
    for artifact in artifacts:
        baseline = load_baseline(args.baseline, artifact.scenario)
        if baseline is None:
            print(f"== {artifact.scenario} ==")
            print(f"no baseline in {args.baseline}; record one with "
                  f"`bench run --scenario {artifact.scenario} "
                  f"--out {args.baseline}`")
            continue
        deltas = compare_artifacts(
            artifact, baseline, gate_time=not args.no_gate_time
        )
        print(format_diff_table(artifact.scenario, deltas))
        print()
        compared += 1
        if worst_status(deltas) == "fail":
            failed = True
    print(f"compared {compared}/{len(artifacts)} artifact(s) against "
          f"{args.baseline}: {'FAIL' if failed else 'ok'}")
    return 1 if failed else 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench import load_artifacts

    artifacts = load_artifacts(args.out)
    if not artifacts:
        raise SystemExit(f"no BENCH_*.json artifacts found in {args.out!r}")
    header = (f"{'scenario':<28s} {'wall s':>8s} {'rss MB':>8s} "
              f"{'fclk MHz':>9s} {'WL m':>8s} {'F2F':>7s} {'µW':>9s}")
    print(header)
    print("-" * len(header))
    for a in artifacts:
        rss = (f"{a.peak_rss_kb / 1024.0:8.1f}"
               if a.peak_rss_kb is not None else "     n/a")
        print(f"{a.scenario:<28s} {a.wall_s_total:8.1f} {rss} "
              f"{a.ppa.get('fclk_mhz', 0.0):9.1f} "
              f"{a.ppa.get('total_wirelength_m', 0.0):8.2f} "
              f"{a.ppa.get('f2f_bumps', 0.0):7.0f} "
              f"{a.ppa.get('power_uw', 0.0):9.1f}")
        if args.stages:
            for stage in a.stages:
                print(f"    {stage.name:<26s} {stage.wall_s:8.2f}")
    return 0


def cmd_bench_validate(args: argparse.Namespace) -> int:
    """Schema-validate committed observability artifacts byte-for-byte.

    Every ``BENCH_*.json`` in the given directories must parse as a
    bench artifact and re-serialize byte-identically (so hand edits and
    schema drift are caught in CI, not at compare time); every
    ``BENCH_*.perfetto`` must pass the trace-event structural check;
    every ``--history`` file must round-trip line-by-line.
    """
    import json
    import os

    from repro.bench import BenchArtifact, discover_artifacts
    from repro.obs.export import validate_chrome_trace
    from repro.obs.history import validate_history

    problems: List[str] = []
    checked = 0
    for directory in args.dirs:
        paths = discover_artifacts(directory)
        traces = sorted(
            os.path.join(directory, name)
            for name in (os.listdir(directory)
                         if os.path.isdir(directory) else [])
            if name.startswith("BENCH_") and name.endswith(".perfetto")
        )
        if not paths and not traces:
            problems.append(f"{directory}: no BENCH_* files to validate")
            continue
        for path in paths:
            checked += 1
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            try:
                artifact = BenchArtifact.from_json(text)
            except (ValueError, KeyError, json.JSONDecodeError) as exc:
                problems.append(f"{path}: {exc}")
                continue
            if artifact.to_json() != text:
                problems.append(
                    f"{path}: not canonical JSON (round-trip differs)"
                )
        for path in traces:
            checked += 1
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}: not JSON ({exc})")
                continue
            problems.extend(
                f"{path}: {problem}"
                for problem in validate_chrome_trace(document)
            )
    for path in args.history or []:
        checked += 1
        try:
            problems.extend(validate_history(path))
        except FileNotFoundError:
            problems.append(f"{path}: no such history file")
    for problem in problems:
        print(problem, file=sys.stderr)
    verdict = f"{len(problems)} problem(s)" if problems else "ok"
    print(f"validated {checked} file(s): {verdict}")
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Macro-3D reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default="small", choices=["small", "large"])
        p.add_argument("--scale", type=float, default=0.03,
                       help="statistical netlist scale (see DESIGN.md)")

    def add_cache_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache", action="store_true",
                       help="reuse/populate the content-addressed stage "
                            "cache (default root: $REPRO_CACHE_DIR or "
                            "~/.cache/repro)")
        p.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="stage-cache root; implies --cache")

    run_p = sub.add_parser("run", help="run one flow and print its summary")
    run_p.add_argument("--flow", default="macro3d",
                       choices=sorted(FLOW_RUNNERS),
                       help="bf_s2d is S2D on the balanced floorplan; "
                            "macro3d_m4 is Macro-3D on a 4-metal macro die")
    run_p.add_argument("--events-out", metavar="PATH", default=None,
                       help="stream live repro.obs.events/v1 JSONL "
                            "(span open/close, heartbeats, marks) to this "
                            "file during the run; tail -f friendly")
    run_p.add_argument("--profile", action="store_true",
                       help="run under cProfile and write the top-25 "
                            "cumulative report next to the event stream")
    run_p.add_argument("--quiet", action="store_true",
                       help="suppress the summary dump (the --events-out "
                            "stream is still written)")
    add_cache_flags(run_p)
    common(run_p)
    run_p.set_defaults(handler=cmd_run)

    ver_p = sub.add_parser(
        "verify", help="run flow(s) and gate on signoff DRC (exit 1 if dirty)"
    )
    ver_p.add_argument("--scenario", action="append", metavar="NAME",
                       help="verify a named bench scenario (repeatable); "
                            "overrides --flow/--config/--scale")
    ver_p.add_argument("--flow", default="macro3d",
                       choices=sorted(FLOW_RUNNERS))
    ver_p.add_argument("--limit", type=int, default=10,
                       help="violation detail lines to print (default: 10)")
    ver_p.add_argument("--out", default="verify_out",
                       help="directory for --json/--svg/--def-out artifacts")
    ver_p.add_argument("--json", action="store_true",
                       help="write VERIFY_<name>.json reports")
    ver_p.add_argument("--svg", action="store_true",
                       help="write VERIFY_<name>.svg violation overlays")
    ver_p.add_argument("--def-out", action="store_true",
                       help="write VERIFY_<name>.def routed snapshots "
                            "(ROUTED/VIA clauses for DRC replay)")
    common(ver_p)
    ver_p.set_defaults(handler=cmd_verify)

    tr_p = sub.add_parser(
        "trace",
        help="print the stage table of a recorded event stream, or "
             "export it to Chrome trace-event JSON",
    )
    tr_p.add_argument("path", help="an --events-out JSONL stream")
    tr_p.add_argument("--chrome", metavar="OUT", default=None,
                      help="convert to Chrome trace-event JSON loadable "
                           "in Perfetto / chrome://tracing")
    tr_p.set_defaults(handler=cmd_trace)

    dash_p = sub.add_parser(
        "dash", help="render the cross-run QoR/perf trend dashboard"
    )
    dash_p.add_argument("--history", default=DEFAULT_HISTORY_PATH,
                        metavar="PATH",
                        help="history JSONL to chart "
                             f"(default: {DEFAULT_HISTORY_PATH})")
    dash_p.add_argument("--out", default="dash.html", metavar="PATH",
                        help="output HTML file (default: dash.html)")
    dash_p.add_argument("--scenario", action="append", metavar="NAME",
                        help="chart only this scenario (repeatable)")
    dash_p.add_argument("--title", default="QoR / performance trends",
                        help="page title")
    dash_p.set_defaults(handler=cmd_dash)

    serve_p = sub.add_parser(
        "serve",
        help="persistent flow service: warm workers draining a FIFO of "
             "scenario jobs",
    )
    serve_p.add_argument("--scenario", action="append", metavar="NAME",
                         help="submit this scenario (repeatable); with no "
                              "--scenario, names are read from stdin one "
                              "per line")
    serve_p.add_argument("--jobs", type=int, default=2, metavar="N",
                         help="warm worker-pool width (default: 2)")
    serve_p.add_argument("--out", default="bench_out",
                         help="artifact directory (default: bench_out)")
    serve_p.add_argument("--events-out", metavar="PATH", default=None,
                         help="stream live repro.obs.events/v1 JSONL")
    serve_p.add_argument("--quiet", action="store_true",
                         help="only print job completions and failures")
    add_cache_flags(serve_p)
    serve_p.set_defaults(handler=cmd_serve)

    cache_p = sub.add_parser(
        "cache", help="inspect or reset the content-addressed stage cache"
    )
    cache_sub = cache_p.add_subparsers(dest="cache_command", required=True)
    cs_p = cache_sub.add_parser("stats", help="print cache footprint JSON")
    cs_p.add_argument("--cache-dir", metavar="PATH", default=None,
                      help="cache root (default: $REPRO_CACHE_DIR or "
                           "~/.cache/repro)")
    cs_p.set_defaults(handler=cmd_cache_stats)
    cc_p = cache_sub.add_parser(
        "clear", help="delete every cached stage checkpoint"
    )
    cc_p.add_argument("--cache-dir", metavar="PATH", default=None,
                      help="cache root (default: $REPRO_CACHE_DIR or "
                           "~/.cache/repro)")
    cc_p.set_defaults(handler=cmd_cache_clear)

    bench_p = sub.add_parser(
        "bench", help="benchmark harness: run scenarios, gate regressions"
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    bl_p = bench_sub.add_parser("list", help="print the scenario registry")
    bl_p.set_defaults(handler=cmd_bench_list)

    br_p = bench_sub.add_parser(
        "run", help="run scenarios and write BENCH_*.json + signoff SVGs"
    )
    br_p.add_argument("--all", action="store_true",
                      help="run every scenario of the selected size")
    br_p.add_argument("--scenario", action="append", metavar="NAME",
                      help="run one named scenario (repeatable)")
    br_p.add_argument("--size", default="small",
                      choices=[*SIZES, "all"],
                      help="size tier selected by --all (default: small)")
    br_p.add_argument("--out", default="bench_out",
                      help="output directory (default: bench_out)")
    br_p.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="run up to N scenarios in parallel processes; "
                           "QoR artifacts are byte-identical to --jobs 1 "
                           "(default: 1)")
    br_p.add_argument("--profile", action="store_true",
                      help="also write BENCH_<scenario>.profile.txt "
                           "cProfile reports")
    br_p.add_argument("--no-svg", action="store_true",
                      help="skip the congestion/slack SVG renders")
    br_p.add_argument("--events-out", metavar="PATH", default=None,
                      help="stream live repro.obs.events/v1 JSONL for the "
                           "whole run (workers forward per-scenario "
                           "events); tail -f friendly")
    br_p.add_argument("--heartbeat", type=float, metavar="S",
                      default=DEFAULT_HEARTBEAT_S,
                      help="event-stream heartbeat cadence in seconds "
                           f"(default: {DEFAULT_HEARTBEAT_S})")
    br_p.add_argument("--history", metavar="PATH", default=None,
                      help="append one repro.obs.history/v1 record per "
                           "completed scenario to this JSONL file")
    br_p.add_argument("--perfetto", action="store_true",
                      help="also write BENCH_<scenario>.perfetto Chrome "
                           "trace-event exports")
    br_p.add_argument("--quiet", action="store_true",
                      help="suppress the live progress stream (progress "
                           "lines are an event-stream subscription; "
                           "--events-out still writes the file)")
    add_cache_flags(br_p)
    br_p.set_defaults(handler=cmd_bench_run)

    bs_p = bench_sub.add_parser(
        "serve",
        help="measure cold/warm designs-per-hour through a persistent "
             "warm flow service",
    )
    bs_p.add_argument("--all", action="store_true",
                      help="serve every scenario of the selected size")
    bs_p.add_argument("--scenario", action="append", metavar="NAME",
                      help="serve one named scenario (repeatable)")
    bs_p.add_argument("--size", default="small",
                      choices=[*SIZES, "all"],
                      help="size tier selected by --all (default: small)")
    bs_p.add_argument("--jobs", type=int, default=2, metavar="N",
                      help="warm worker-pool width (default: 2)")
    bs_p.add_argument("--repeat", type=int, default=1, metavar="K",
                      help="warm rounds after the cold round (default: 1)")
    bs_p.add_argument("--out", default="bench_out",
                      help="artifact directory (default: bench_out)")
    bs_p.add_argument("--cache-dir", metavar="PATH", default=None,
                      help="stage-cache root shared by all rounds "
                           "(default: a fresh temp dir, so the cold "
                           "round is honestly cold)")
    bs_p.add_argument("--history", metavar="PATH", default=None,
                      help="append one serve-throughput record to this "
                           "repro.obs.history/v1 JSONL (gated by "
                           "`bench compare --trend`)")
    bs_p.add_argument("--events-out", metavar="PATH", default=None,
                      help="stream live repro.obs.events/v1 JSONL for "
                           "all rounds")
    bs_p.set_defaults(handler=cmd_bench_serve)

    bc_p = bench_sub.add_parser(
        "compare", help="gate artifacts against the committed baselines"
    )
    bc_p.add_argument("--out", default="bench_out",
                      help="directory holding fresh BENCH_*.json artifacts")
    bc_p.add_argument("--baseline", default=DEFAULT_BASELINE_DIR,
                      help="baseline directory "
                           f"(default: {DEFAULT_BASELINE_DIR})")
    bc_p.add_argument("--no-gate-time", action="store_true",
                      help="demote wall-time/RSS failures to warnings "
                           "(cross-machine comparisons)")
    bc_p.add_argument("--trend", action="store_true",
                      help="gate slow cross-run drift from a history file "
                           "instead of diffing fresh artifacts against "
                           "baselines")
    bc_p.add_argument("--history", default=DEFAULT_HISTORY_PATH,
                      metavar="PATH",
                      help="history JSONL for --trend "
                           f"(default: {DEFAULT_HISTORY_PATH})")
    bc_p.set_defaults(handler=cmd_bench_compare)

    bp_p = bench_sub.add_parser(
        "report", help="summarize a directory of BENCH_*.json artifacts"
    )
    bp_p.add_argument("--out", default="bench_out",
                      help="directory holding BENCH_*.json artifacts")
    bp_p.add_argument("--stages", action="store_true",
                      help="also print the per-stage wall-time breakdown")
    bp_p.set_defaults(handler=cmd_bench_report)

    bv_p = bench_sub.add_parser(
        "validate",
        help="round-trip BENCH_*.json / *.perfetto / history files "
             "against their schemas (exit 1 on any problem)",
    )
    bv_p.add_argument("dirs", nargs="*", default=[DEFAULT_BASELINE_DIR],
                      metavar="DIR",
                      help="directories of BENCH_* files "
                           f"(default: {DEFAULT_BASELINE_DIR})")
    bv_p.add_argument("--history", action="append", metavar="PATH",
                      help="also round-trip this history JSONL "
                           "(repeatable)")
    bv_p.set_defaults(handler=cmd_bench_validate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Output piped to head/less that closed early; not an error.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
