"""The benchmark's own test: traced runs repeat their counts exactly.

For every workload, two traced runs at one seed must report identical count
metrics (every per-layer metric that is not a time), and each must be
correct: its traced passes wrote reports byte-identical to the untraced pass
of the same run and to the recorded digests.  Run from the repository root::

    python3 perfbench/check_trace.py [--seed 20240801]

Exits 1 and names the metric on any mismatch.  Takes about two minutes on a
2-CPU machine with the pure-Python jet backend.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TIMES = (".self_s", "_ns", ".overhead_s")


def traced_run(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    problems = []
    for name in WORKLOADS:
        first, second = traced_run(name, args.seed), traced_run(name, args.seed)
        for run in (first, second):
            if not run["correct"] or run["failed"]:
                problems.append(f"{name}: {run['failed']} failed scenario runs")
        counts = {k: v["value"] for k, v in first["metrics"].items()
                  if not k.endswith(TIMES)}
        for key, value in counts.items():
            again = second["metrics"][key]["value"]
            if again != value:
                problems.append(f"{name}: {key} was {value}, then {again}")
        print(f"{name}: {len(counts)} counts compared", flush=True)
    for problem in problems:
        print(f"MISMATCH {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
