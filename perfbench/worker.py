"""One workload in a fresh interpreter: timed passes, output checks, tracing.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
writes its measurements as JSON to the ``--out`` path.  A *pass* runs every
scenario of the workload once through ``cli.run_scenario`` into a scratch
directory; its wall time runs from the first call to the last report
written.  Between untraced passes the worker starts the set-up probes
(fresh interpreters importing batlab and loading the workload's files), one
at a time, so that they sample the whole run.

The host's speed changes by up to 2x, from second to second and for minutes
(other tenants share its cores), so untraced passes are also timed at a
fixed reference speed (``HostClock``): the pass is split into steps of at
most about a second, the outermost calls of the workload's ``segments``
functions, and each step's time is scaled by how long a fixed piece of
reference work (``reference_work``, which runs no batlab code) took just
before and just after it; set-up probes get a yardstick of their own
(``setup_probe``).  After each pass (outside the timed region) every scenario run is
checked:

* no exception escaped and its exit code is the reference's;
* its report is strict JSON (no NaN or Infinity);
* the sha256 of every file it wrote matches the reference.

The reference is the digest recorded in ``digests.json`` for the seed, with
exit code 0.  A scenario that draws no random numbers (``Workload.rng_free``)
is checked against the default seed's digests at any seed, after its
report's ``"seed": N`` field is rewritten to the default seed.  Otherwise the
first pass of this run is the reference for the later ones.  That first pass
fails outright only on exit codes other than 0 and 1: exit code 1 is a
tolerance verdict (``ad_convergence`` of c11 is FAIL at some seeds on correct
jets), which is printed and must then repeat byte for byte.  A failed check
is printed by name and counted; it never stops the run.

``--record SEED ...`` runs one pass of every workload per seed and writes
``digests.json``; do that only on a commit whose reports are known good.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, scenario_path  # noqa: E402

DIGESTS = HERE / "digests.json"
MIN_PASSES = 2
SETUP_SHARE = 0.3  # set-up probes take about this share of the pass time
SETUP_TIMEOUT_S = 60.0
SETUP_CODE = ("import sys\n"
              "from batlab import cli\n"
              "for path in sys.argv[1:]:\n"
              "    cli.load_scenario(path)\n")
# A fresh interpreter that imports numpy and no batlab code: the yardstick for
# the host's speed at starting interpreters.  REFERENCE_START_S is its
# spawn-to-exit time on the host the benchmark was written on, at the slower
# and more common of its two speeds (Python 3.11.7, numpy 2.4.6).
REFERENCE_START_CODE = "import numpy"
REFERENCE_START_S = 0.23


def _strict_json(raw: bytes):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(raw, parse_constant=reject)


def _sha256(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


class Workbench:
    """Loaded scenarios of one workload plus the reference digests."""

    def __init__(self, root: Path, workload: str, seed: int):
        from batlab import cli

        self.cli = cli
        self.root = root
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.scenarios = []
        for name in self.wl.scenarios:
            data = cli.load_scenario(root / scenario_path(name))
            data["cases"] *= self.wl.repeat_cases.get(name, 1)
            self.scenarios.append((name, data))
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.refs = dict(recorded.get(str(seed), {}).get(self.wl.name, {}))
        default = recorded.get(str(DEFAULT_SEED), {}).get(self.wl.name, {})
        self.seed_free = {n: default[n] for n in self.wl.rng_free
                          if n in default and n not in self.refs}
        self.first: dict[str, tuple] = {}  # name -> (exit code, digests) of pass 0
        self.work = root / "perfbench" / "work" / f"{self.wl.name}-{os.getpid()}"
        self.passes = 0
        self.clock = HostClock(self.wl.segments)

    def run_pass(self) -> dict:
        """One timed pass; returns its wall time and checked outcomes."""
        out = self.work / f"pass{self.passes}"
        self.passes += 1
        inputs = [(name, copy.deepcopy(data)) for name, data in self.scenarios]
        codes = {}
        self.clock.reset()
        start = time.perf_counter()
        for name, data in inputs:
            try:
                _, codes[name] = self.cli.run_scenario(data, out, self.seed,
                                                       dump=self.wl.dump)
            except Exception as err:  # a crash is a failed run, not a stop
                codes[name] = f"{type(err).__name__}: {err}"
        wall = time.perf_counter() - start - self.clock.overhead_s
        try:
            return {"wall_s": wall, **self.clock.scaled(wall), **self._check(out, codes)}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, out: Path, codes: dict) -> dict:
        failures = []
        digests = {}
        samples = skipped = report_bytes = 0
        for name, code in codes.items():
            files = {p.name: p.read_bytes() for p in sorted(out.glob(f"{name}.*"))}
            digests[name] = {f: _sha256(b) for f, b in files.items()}
            report_name = f"{name}.report.json"
            why = None
            if code not in (self.cli.EXIT_PASS, self.cli.EXIT_FAIL):
                why = f"exit code {code}"
            elif report_name not in files:
                why = "no report written"
            else:
                try:
                    report = _strict_json(files[report_name])
                    for entry in report["reports"]:
                        samples += entry["samples"]
                        skipped += entry["skipped"]
                except (ValueError, KeyError, TypeError) as err:
                    why = f"report is not strict JSON: {err}"
                report_bytes += len(files[report_name])
            if why is None:
                why = self._compare(name, code, files, digests[name])
            if why is not None:
                failures.append(f"{self.wl.name}/{name}: {why}")
                print(f"FAILED {self.wl.name}/{name} seed {self.seed}: {why}",
                      file=sys.stderr, flush=True)
        return {"failures": failures, "attempted": len(codes),
                "residuals.samples": samples, "residuals.skipped": skipped,
                "cli.report_bytes": report_bytes,
                "digests": digests}

    def _compare(self, name: str, code, files: dict, got: dict) -> str | None:
        ref_code = self.cli.EXIT_PASS
        if name in self.refs:
            ref = self.refs[name]
        elif name in self.seed_free:
            ref = self.seed_free[name]
            report_name = f"{name}.report.json"
            this, default = (f'"seed": {s}'.encode() for s in (self.seed, DEFAULT_SEED))
            if files[report_name].count(this) != 1:
                return "report does not name its seed exactly once"
            got = dict(got)
            got[report_name] = _sha256(files[report_name].replace(this, default))
        elif name in self.first:
            ref_code, ref = self.first[name]
        else:
            self.first[name] = (code, got)
            if code != ref_code:
                print(f"note: {self.wl.name}/{name} seed {self.seed}: verdict FAIL "
                      f"(exit code {code}); later passes must repeat it",
                      file=sys.stderr, flush=True)
            return None
        if code != ref_code:
            return f"exit code {code}, reference {ref_code}"
        if set(got) != set(ref):
            return f"wrote {sorted(got)}, expected {sorted(ref)}"
        differ = [f for f in sorted(got) if got[f] != ref[f]]
        return f"bytes differ from the reference: {differ}" if differ else None

    def setup_probe(self) -> tuple[float, float, float]:
        """Spawn-to-exit seconds of a fresh interpreter importing and loading.

        Returns the time as measured, the time at the reference speed and
        the seconds all three spawns took.  The reference speed comes from
        a ``REFERENCE_START_CODE`` interpreter started just before and one
        just after: starting an interpreter slows down on a slow host less
        than ``reference_work`` does, and about as much as this one.
        """
        files = [str(self.root / scenario_path(n)) for n in self.wl.scenarios]
        before = self._spawn(REFERENCE_START_CODE)
        elapsed = self._spawn(SETUP_CODE, *files)
        after = self._spawn(REFERENCE_START_CODE)
        scaled = elapsed * REFERENCE_START_S / ((before + after) / 2)
        return elapsed, scaled, before + elapsed + after

    def _spawn(self, code: str, *args: str) -> float:
        """Spawn-to-exit seconds of ``python -c code args``."""
        start = time.perf_counter()
        # Popen.wait(timeout) polls every 50 ms, so a timer enforces the limit
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=self.root)
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            status = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        if status != 0:
            raise SystemExit(f"set-up probe exited with {status}")
        return elapsed

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        if self.work.parent.exists() and not any(self.work.parent.iterdir()):
            self.work.parent.rmdir()


# -- host speed -------------------------------------------------------------------------

# What ``host_tick`` reads on the 2-vCPU Intel Xeon host the benchmark was
# written on, at the slower and more common of its two speeds (Python
# 3.11.7, numpy 2.4.6).  A scaled time is in seconds of that host and speed.
REFERENCE_TICK_S = 2.2e-3


class _Dual:
    """A first-order dual number, the reference work's stand-in for a jet."""

    __slots__ = ("value", "grad")

    def __init__(self, value: float, grad: tuple):
        self.value = value
        self.grad = grad

    def __add__(self, other):
        return _Dual(self.value + other.value,
                     tuple(a + b for a, b in zip(self.grad, other.grad)))

    def __mul__(self, other):
        return _Dual(self.value * other.value,
                     tuple(a * other.value + self.value * b
                           for a, b in zip(self.grad, other.grad)))


def reference_work() -> None:
    """Fixed work like batlab's: small objects, float math, dicts, numpy.

    It runs no batlab code, so a change to batlab never changes its time.
    """
    x, y = _Dual(0.7, (1.0, 0.0, 0.0)), _Dual(1.3, (0.0, 1.0, 0.0))
    r, memo = x, {}
    for i in range(300):
        r = r * y + x
        r = _Dual(math.sin(r.value), r.grad)
        memo[i % 31] = r
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(100):
        b = np.sin(a) * a + 1.0
        a = b - np.floor(b)


def host_tick() -> float:
    """Seconds ``reference_work`` takes now (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_work()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class HostClock:
    """Times the steps of a pass and the host's speed beside each step.

    While installed, every function named ``module.attribute`` is replaced
    by a wrapper that, unless another wrapped call is already running, reads
    ``host_tick`` before and after the call and records the call's duration
    with the mean of the two ticks.  The ticks' own time is kept in
    ``overhead_s`` so that a pass can leave it out.
    """

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.steps: list[tuple[float, float]] = []  # (seconds, tick)
        self.overhead_s = 0.0
        self._running = False

    def reset(self) -> None:
        self.steps.clear()
        self.overhead_s = 0.0

    def scaled(self, wall: float) -> dict:
        """Seconds of a pass of ``wall`` seconds at the reference speed.

        Each step is scaled by its own ticks; the rest of the pass, outside
        the steps, by the mean tick of the pass.
        """
        if not self.steps:
            return {}
        rest = wall - sum(t for t, _ in self.steps)
        mean_tick = statistics.fmean(tick for _, tick in self.steps)
        ticks = sum(t / tick for t, tick in self.steps) + rest / mean_tick
        return {"scaled_s": ticks * REFERENCE_TICK_S, "tick_s": mean_tick}

    def _wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._running:
                return fn(*args, **kwargs)
            self._running = True
            enter = time.perf_counter()
            before = host_tick()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                after = host_tick()
                self.steps.append((end - start, (before + after) / 2))
                self.overhead_s += (start - enter) + (time.perf_counter() - end)
                self._running = False

        return timed

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name in self.names:
                module_name, attr = name.split(".")
                module = importlib.import_module(f"batlab.{module_name}")
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(saved[-1][2]))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


# -- jets microbenchmark -----------------------------------------------------------


def jets_microbench(repeats: int = 5) -> dict:
    """ns per arithmetic op (arity 3) and per ``.hess`` read (arity 6)."""
    from batlab import jets

    a, b, c = (jets.variable(i, v, 3) for i, v in enumerate((0.7, 1.3, 0.4)))
    n_ops = 8000
    op_ns = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n_ops // 4):
            r = a * b
            r = r + c
            r = r / b
            r = r - a
        op_ns.append((time.perf_counter() - start) / n_ops * 1e9)
    j = jets.variable(0, 0.7, 6) * jets.variable(5, 1.3, 6)
    n_reads = 50000
    read_ns = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n_reads):
            j.hess
        read_ns.append((time.perf_counter() - start) / n_reads * 1e9)
    return {"jets.op_ns": statistics.median(op_ns),
            "jets.hess_read_ns": statistics.median(read_ns)}


# -- run record -----------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(root: Path) -> dict:
    """What a result must name so that unlike numbers are never compared."""
    import numpy

    import batlab

    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "jet_backend": batlab.JET_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": src.hexdigest(),
    }


# -- modes ------------------------------------------------------------------------------


def measure(bench: Workbench, seconds: float) -> dict:
    """Untraced passes, with set-up probes between them, for ``seconds``.

    Passes repeat until the next one would end after ``seconds``, and at
    least ``MIN_PASSES`` run, so the median is never of a single pass.
    Before each pass, set-up probes run until they have taken
    ``SETUP_SHARE`` of the pass time so far (at least one probe).
    """
    passes, setup, setup_scaled = [], [], []
    pass_time = probe_time = 0.0
    start = time.perf_counter()
    with bench.clock.installed():
        while True:
            while not setup or probe_time < SETUP_SHARE * pass_time:
                measured, scaled, spent = bench.setup_probe()
                setup.append(measured)
                setup_scaled.append(scaled)
                probe_time += spent
            passes.append(bench.run_pass())
            pass_time += passes[-1]["wall_s"]
            used = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and used + used / len(passes) > seconds:
                return {"passes": passes, "setup_s": setup,
                        "setup_scaled_s": setup_scaled}


def measure_traced(bench: Workbench, seconds: float, spans_path: Path,
                   record: dict) -> dict:
    """Pairs of one untraced and one traced pass until time is up.

    Counts come from the first traced pass (they repeat exactly); self times
    are medians over the traced passes.
    """
    from tracing import Tracer

    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.run_pass())
        tracer = Tracer()
        with tracer.installed():
            for name, _ in bench.scenarios:
                bench.cli.load_scenario(bench.root / scenario_path(name))
            traced.append(bench.run_pass())
        layers.append(tracer.layer_metrics())
        if len(layers) == 1:
            tracer.write_spans(spans_path, record)
        used = time.perf_counter() - start
        if used + used / len(layers) > seconds:
            break
    per_layer = dict(layers[0])
    for key in per_layer:
        if key.endswith(".self_s"):
            per_layer[key] = statistics.median(m[key] for m in layers)
    for key in ("residuals.samples", "residuals.skipped", "cli.report_bytes"):
        per_layer[key] = traced[0][key]
    per_layer["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                     - statistics.median(p["wall_s"] for p in untraced))
    per_layer.update(jets_microbench())
    counts_repeat = all(
        m[k] == layers[0][k] for m in layers for k in m if not k.endswith(".self_s"))
    return {"passes": untraced + traced, "per_layer": per_layer,
            "counts_repeat": counts_repeat}


def record_digests(root: Path, seeds: list[int]) -> None:
    table = {}
    for seed in seeds:
        table[str(seed)] = {}
        for name in WORKLOADS:
            bench = Workbench(root, name, seed)
            bench.refs, bench.seed_free = {}, {}
            result = bench.run_pass()
            bench.close()
            failed = [n for n, (code, _) in bench.first.items() if code != 0]
            if result["failures"] or failed:
                raise SystemExit(f"not recording: {result['failures'] or failed}")
            table[str(seed)][name] = result["digests"]
            print(f"recorded {name} seed {seed}: {result['wall_s']:.2f} s", flush=True)
    DIGESTS.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED")
    args = parser.parse_args(argv)
    root = args.root.resolve()

    import batlab

    if not Path(batlab.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"batlab imported from {batlab.__file__}, not {root / 'src'}")
    if args.record:
        record_digests(root, args.record)
        return 0

    record = run_record(root)
    bench = Workbench(root, args.workload, args.seed)
    try:
        if args.trace:
            result = measure_traced(bench, args.seconds, args.spans, record)
        else:
            result = measure(bench, args.seconds)
    finally:
        bench.close()
    for p in result["passes"]:
        del p["digests"]
    result["record"] = record
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
