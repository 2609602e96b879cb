"""Mutated bundled scenarios end in a documented exit code, never a traceback.

Each example takes one bundled scenario, cut down to a few samples and small
grids so an example runs in well under a second, and makes one mutation at
one place in it: a dropped key, a value of the wrong JSON type, a hostile
expression, or an unknown key.  ``cli.main`` must return 0-4, and any report
it wrote must be strict JSON.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from batlab import cli

_WRONG_TYPES = [None, True, -1, 0, 2.5, 7, "x", [], {}, ["x", 1], 2**63, 1e308, 5e-324]
_HOSTILE = ["", "(", "x1 +", "1/0", "log(0)", "sqrt(0 - 1)", "exp(1000)", "0^(0 - 1)",
            "x1^1e300", "exp(exp(exp(9)))", "(" * 400 + "x" + ")" * 400,
            "x" + " + x" * 2000, "-" * 2000 + "x", "s^0.5^0.5", "nan", "1e999"]


def _reduced(data: dict) -> dict:
    """The scenario with at most two cases, three samples per case, one small
    grid per case and five random expressions."""
    data["cases"] = data["cases"][:2]
    for case in data["cases"]:
        if "samples" in case:
            case["samples"]["count"] = 3
        if "resolutions" in case:
            case["resolutions"] = [{"two_field": 16, "multifield": 8}.get(
                case.get("system"), 9)]
        if "expressions" in case:
            case["expressions"] = 5
    return data


_SCENARIOS = [(p.name, _reduced(json.loads(p.read_text()))) for p in cli.bundled_scenarios()]


def _paths(node, prefix=()):
    """Every key or index path into a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@st.composite
def _mutated(draw):
    name, data = draw(st.sampled_from(_SCENARIOS))
    data = json.loads(json.dumps(data))
    action = draw(st.sampled_from(["drop", "wrong type", "hostile", "unknown key"]))
    paths = list(_paths(data))
    if action == "hostile":  # in place of an expression, label or other string
        paths = [path for path in paths if isinstance(_at(data, path), str)]
    if action == "unknown key":  # into the top level or any object in it
        paths = [()] + [path for path in paths if isinstance(_at(data, path), dict)]
        _at(data, draw(st.sampled_from(paths)))["unknown"] = 1
        return name, data
    path = draw(st.sampled_from(paths))
    parent = _at(data, path[:-1])
    if action == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(
            _WRONG_TYPES if action == "wrong type" else _HOSTILE))
    return name, data


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_mutated())
def test_mutated_bundled_scenario_exits_cleanly(mutated):
    name, data = mutated
    command = "simulate" if name.startswith(("c05", "c08")) else "verify"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(data))
        out = Path(tmp) / "out"
        code = cli.main([command, str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3, 4)
        for report in out.glob("*.report.json"):
            _strict_json(report.read_text())
