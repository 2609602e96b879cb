"""batlab benchmark: time to verdict, set-up time, memory and failures.

Usage, from the repository root::

    python3 perfbench/run.py --workload pointwise_verify --seed 20240801 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 7 --seconds 25   # every workload, both modes

``--trace 0`` reports the end-to-end metrics of one workload:

* ``wall_s``: median wall time of one pass over the workload's scenarios
  (imports excluded), over the passes that fit in ``--seconds``, at the
  host's reference speed (see ``worker.HostClock``; the median as measured
  is printed beside it);
* ``setup_s``: median over fresh interpreters, spread over the run, of
  ``import batlab.cli`` plus ``cli.load_scenario`` on the workload's files,
  spawn to exit, also at the host's reference speed (see
  ``Workbench.setup_probe``) and also printed as measured;
* ``peak_rss_mb``: peak resident set of the interpreter that ran the passes;

and ``failed_frac`` (failed / attempted scenario runs) beside them.
``--trace 1`` runs untraced and traced passes in pairs and reports the
per-layer metrics of ``tracing.py`` plus the tracing overhead.

All load comes from this process, one workload at a time: one worker
interpreter (``worker.py``), which starts the set-up probes one at a time
between its passes, never in parallel, all on the highest-numbered CPU this
process may use.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a copy with
the run record and every sample goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

WORKER_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"self_s": "s", "solves_per_point": "ratio", "op_ns": "ns",
                   "hess_read_ns": "ns", "overhead_s": "s", "failed_frac": "ratio",
                   "dump_bytes": "B", "report_bytes": "B"}  # the rest are counts


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _wait(proc: subprocess.Popen, timeout: float) -> int:
    """Block until ``proc`` exits; returns its exit code.

    ``proc`` leads its own process group, which holds the worker and the
    set-up probe it may be running.  After ``timeout`` seconds, or on an
    interrupt of this process, the whole group is killed, so no child
    outlives the benchmark.
    """
    try:
        return proc.wait(timeout)
    except BaseException as err:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(err, subprocess.TimeoutExpired):
            raise SystemExit(f"{proc.args[:3]} ran longer than {timeout:.0f} s") from None
        raise


def run_worker(args, out: Path, spans: Path) -> dict:
    """Run the workload in a fresh interpreter; returns its result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--spans", str(spans)]
    proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, start_new_session=True)
    code = _wait(proc, WORKER_TIMEOUT_S)
    if code != 0:
        raise SystemExit(f"worker exited with {code}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(values)[rank - 1]


def run_one(args) -> dict:
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = run_worker(args, results / f"{stem}.worker.json",
                        results / f"{args.workload}.spans.npz")
    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed_frac = len(failures) / attempted
    samples = {"wall_s.measured": [p["wall_s"] for p in passes],
               "wall_s": [p["scaled_s"] for p in passes if "scaled_s" in p],
               "tick_s": [p["tick_s"] for p in passes if "tick_s" in p],
               "setup_s.measured": result.get("setup_s", []),
               "setup_s": result.get("setup_scaled_s", [])}

    if args.trace:
        metrics = dict(result["per_layer"], failed_frac=failed_frac)
        units = {k: PER_LAYER_UNITS.get(k.rsplit(".", 1)[-1], "count") for k in metrics}
    else:
        metrics = {"wall_s": statistics.median(samples["wall_s"]),
                   "setup_s": statistics.median(samples["setup_s"]),
                   "peak_rss_mb": result["peak_rss_mb"]}
        units = END_TO_END

    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {attempted} scenario runs, {len(failures)} failed")
    for failure in failures:
        print(f"#   FAILED {failure}")
    for key, value in metrics.items():
        print(f"{args.workload:<20} {key:<36} {value:>14.6g} {units[key]}")
    if not args.trace:
        n = len(passes)
        tail = tail_percentile(samples["wall_s"])
        tail_text = (f"p{tail[0]:.0f} {tail[1]:.4f} s" if tail
                     else "no percentile has 10 samples beyond it")
        print(f"{args.workload:<20} {'wall_s.tail':<36} {tail_text} (n={n})")
        for key in ("wall_s.measured", "setup_s.measured"):
            print(f"{args.workload:<20} {key:<36} "
                  f"{statistics.median(samples[key]):>14.6g} s")
        print(f"{args.workload:<20} {'failed_frac':<36} {failed_frac:>14.6g} ratio")
    if args.trace and not result["counts_repeat"]:
        print("# WARNING: counts differed between traced passes of this run")

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "record": result["record"],
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
           "failed_frac": failed_frac, "failures": failures,
           "samples": samples}
    (results / f"{stem}.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    print(f"# record: {json.dumps(result['record'], sort_keys=True)}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": doc["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "batlab" / "__init__.py").is_file():
        print(f"error: no batlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Every child inherits this: a process that stays on one CPU varies about
    # half as much from run to run as one the scheduler moves between CPUs.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if args.all:
        summary = {}
        for name in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = name, trace
                summary[f"{name}/trace{trace}"] = run_one(args)
        print(json.dumps(summary, sort_keys=True))
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    print(json.dumps(run_one(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
