"""Regenerate ``references.json``: the PPA block of every checked flow
run at the default seed.

Run from the repository root, on the commit whose QoR the benchmark
should pin::

    python3 perfbench/pin_references.py

``2d-route``/``flow`` and ``macro3d-knob-sweep``/``cold`` are the
``2d-smallcache-medium`` and ``macro3d-largecache-medium`` scenarios,
so their references equal the committed ``benchmarks/baselines`` PPA
(``perfbench/tests/test_perfbench.py`` checks that they still do).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from workloads import DEFAULT_SEED, REFERENCES_PATH, SCENARIOS, Workload  # noqa: E402


def main() -> int:
    pinned = {
        "_about": (
            f"PPA per workload and flow-run label at TileConfig.seed "
            f"{DEFAULT_SEED}; written by pin_references.py"
        ),
    }
    scratch = os.path.join(os.path.dirname(HERE), ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        for name in SCENARIOS:
            workload = Workload(name, DEFAULT_SEED, workdir, references={})
            runs = workload.setup()[1] + workload.run_pass().runs
            failures = [f for r in runs for f in r.failures]
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            pinned[name] = {r.label: r.ppa for r in runs}
    with open(REFERENCES_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
