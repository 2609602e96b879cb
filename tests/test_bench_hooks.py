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
