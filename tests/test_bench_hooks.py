"""The benchmark's hooks into batlab still resolve.

``perfbench/tracing.py`` (``SPANS``, ``COUNTED``) and ``perfbench/workloads.py``
(``segments``) patch batlab attributes by name.  Renaming or deleting one of
them breaks the traced benchmark run, so this test names every such attribute.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    tracing, workloads = _load("tracing"), _load("workloads")
    hooks = [hook for bindings in tracing.SPANS.values() for hook in bindings]
    hooks += tracing.COUNTED.values()
    hooks += [tuple(segment.split(".", 1))
              for workload in workloads.WORKLOADS.values() for segment in workload.segments]
    assert len(hooks) > 30
    missing = []
    for module_name, attr in hooks:
        owner = importlib.import_module(f"batlab.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark hooks no longer in batlab: {missing}"


def _tiny_scenarios() -> list[tuple[dict, bool]]:
    """One small scenario per kind, with whether it dumps its grids."""
    def scenario(kind, case):
        return {"name": "hooks", "paper_anchor": "t", "kind": kind, "cases": [case]}

    return [
        (scenario("verify", {
            "construct": {"op": "holo_sum", "f": "x1*x2", "g": "xb1"},
            "samples": {"count": 4, "low": [-1] * 4, "high": [1] * 4},
            "checks": [{"equation": "complex_bateman", "tolerance": 1e-9}]}), False),
        (scenario("simulate", {
            "system": "two_field", "init": {"u": "1.5 + 0.3*sin(x)", "v": "2.0"},
            "t_end": 0.05, "resolutions": [16],
            "checks": [{"equation": "conservation"}]}), True),
        (scenario("simulate", {
            "system": "multifield",
            "init": {"u1": "0.4", "u2": "-0.3", "v1": "0.9", "v2": "1.1"},
            "t_end": 0.1, "resolutions": [8],
            "checks": [{"equation": "multifield_det"}]}), True),
        (scenario("variational", {
            "source": {"f": "u^2", "g": "v^2", "config": {"seed": [1.5, 3.5]},
                       "t_window": [9.75, 10.25], "x_window": [-14.75, -14.25]},
            "resolutions": [9], "psi": ["s"]}), False),
        (scenario("ad", {"expressions": 5}), False),
    ]


def test_benchmark_hooks_are_called(tmp_path, monkeypatch):
    """Every workload segment and hydro entry point the benchmark patches is
    reached through its module attribute when the scenarios run."""
    from batlab import cli

    workloads = _load("workloads")
    hooks = {segment for workload in workloads.WORKLOADS.values()
             for segment in workload.segments}
    hooks |= {"hydro.integrate_characteristics", "hydro.integrate_multifield",
              "hydro.dump_char_grid", "hydro.dump_multi_grid"}
    calls = dict.fromkeys(hooks, 0)

    def counting(hook, fn):
        def wrapper(*args, **kwargs):
            calls[hook] += 1
            return fn(*args, **kwargs)
        return wrapper

    for hook in hooks:
        module_name, attr = hook.split(".", 1)
        module = importlib.import_module(f"batlab.{module_name}")
        monkeypatch.setattr(module, attr, counting(hook, getattr(module, attr)))
    for i, (data, dump) in enumerate(_tiny_scenarios()):
        _, code = cli.run_scenario(data, tmp_path / str(i), seed=1, dump=dump)
        assert code == cli.EXIT_PASS, data
    assert not [hook for hook, n in calls.items() if n == 0], calls
