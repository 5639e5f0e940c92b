"""Run one workload over several seeds and summarise its metrics.

    python3 perfbench/sweep.py --workload 2d-route --seeds 1-10 [--trace 1]

Each seed is one ``run.py`` process, run one after another.  For every
metric the summary gives the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median, which ``BENCHMARK.json`` bounds must exceed threefold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    values, bad = {}, []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", args.seconds,
             "--trace", args.trace],
            capture_output=True, text=True,
        )
        if done.returncode not in (0, 1):
            print(done.stderr, file=sys.stderr)
            return 2
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            bad.append(seed)
            print(done.stdout, file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
            if args.trace == "0"), flush=True)

    summary = {}
    for name, (unit, vals) in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "n": len(vals)}
        print(f"{name:32s} {unit:8s} median {med:<12.6g} q1 {q1:<12.6g} "
              f"q3 {q3:<12.6g} spread {spread:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "failed_seeds": bad, "metrics": summary}, handle, indent=2)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
