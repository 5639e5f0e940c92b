"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload macro3d-place --seed 2020 \\
        --seconds 20 --trace 0

``--trace 0`` sets the workload up, runs timed passes for about
``--seconds`` seconds with tracing off, and reports the end-to-end
metrics.  ``--trace 1`` runs two untraced passes and then one pass
under ``repro.obs.recording()`` with every layer entry point wrapped
(``layers.py``), and reports the per-layer metrics.  Either way the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0, "metrics": {...}}

The exit code is 1 when a correctness check failed and 2 when the
benchmark could not run at all (for example without ``src/repro``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("macro3d-place", "2d-route", "macro3d-knob-sweep")

#: What a fresh process imports and builds before its first flow call.
SETUP_CODE = (
    "import repro.core.macro3d, repro.flows.flow2d, repro.cache\n"
    "from repro.tech.presets import hk28, hk28_macro_die\n"
    "hk28(); hk28_macro_die()\n"
)
SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fclk_mhz": "MHz",
    "wirelength_m": "m",
    "vias": "count",
    "energy_fj": "fJ",
    "success_rate": "fraction",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the flows and
    building the tech presets."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                       env=_env(), check=True)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seconds: float, setup_s: float, runs: list) -> dict:
    from workloads import failure_rate, measure

    passes = measure(workload, seconds)
    for p in passes:
        runs.extend(p.runs)
    final = passes[-1].runs[-1]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "fclk_mhz": final.ppa.get("fclk_mhz", 0.0),
        "wirelength_m": final.ppa.get("total_wirelength_m", 0.0),
        "vias": final.vias,
        "energy_fj": final.ppa.get("emean_fj", 0.0),
        "success_rate": 1.0 - failure_rate(runs),
    }


def run_traced(workload, runs: list) -> dict:
    from layers import layer_metrics, traced_layers
    from repro.obs import recording

    # The first pass in a process pays one-time warm-up, so the untraced
    # reference for the tracing overhead is the second pass.
    warmup = workload.run_pass()
    untraced = workload.run_pass()
    with recording() as recorder, traced_layers() as times:
        traced = workload.run_pass()
    runs.extend(warmup.runs + untraced.runs + traced.runs)
    metrics = layer_metrics(times, dict(recorder.metrics.counters),
                            traced.wall_s, untraced.wall_s)
    metrics["cache.dir_mb"] = traced.cache_mb
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2020,
                        help="TileConfig.seed of the generated tile")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    threads = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path[:0] = [SRC, HERE]

    from workloads import DEFAULT_SEED, Workload, failure_rate

    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    workload = Workload(args.workload, args.seed, workdir)
    runs: list = []
    try:
        setup_s = 0.0 if args.trace else setup_seconds()
        fill_s, cold = workload.setup()
        runs.extend(cold)
        if args.trace:
            from layers import per_layer_units
            metrics = run_traced(workload, runs)
            units = per_layer_units()
        else:
            metrics = run_untraced(workload, args.seconds, setup_s + fill_s, runs)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [f for r in runs for f in r.failures]
    checks = ("pinned QoR references" if args.seed == DEFAULT_SEED
              else "completion and drc_total = 0 only (no reference for this seed)")
    print(f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, "
          f"checked {checks}")
    print(f"  failure_rate {failure_rate(runs):.4f} fraction "
          f"({len(failures)} failures over {len(runs)} flow runs)")
    for failure in failures:
        print(f"  FAIL {failure}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
