"""The scenario format table (``cli._FORMAT``): inputs generated from it, and
the README's copy of it.

For every key of every place the table lists, a scenario that holds that
place gets, one at a time: a value of each JSON kind the key does not take, a
value just outside each bound of its range, and an unknown key beside it.
Each must exit 2 before any solve.  A value on a bound must get past the
reader: to a solve, an integration or an ad case's first round (which
``_forbid_work`` turns into an AssertionError), or, for a count at its upper
bound, to an allocation that fails (exit 3).
"""

import json
import math
from pathlib import Path

import pytest

from batlab import cli, construct, hydro
from test_cli import _COMPLETE, _forbid_work, _main_exit

ROOT = Path(__file__).resolve().parents[1]

# one value of each JSON kind
_SAMPLES = {"null": None, "boolean": True, "integer": 7, "fraction": 2.5, "string": "x",
            "list": ["x"], "object": {"x": 1}}
# the JSON kinds each kind of key takes
_TAKES = {"integer": {"integer"}, "float": {"integer", "fraction"}, "string": {"string"},
          "file-name string": {"string"}, "expression": {"string"}, "choice": {"string"},
          "JSON object": {"object"}}

# op or system -> a scenario of _COMPLETE that runs it; a check's scenario is
# that of the first op or system its row names
_OP_SCENARIOS = {"solve_implicit_fg": "implicit_fg", "holo_sum": "holo_sum",
                 "implicit_3d": "implicit_3d", "parametric_hodograph": "hodograph",
                 "leznov": "leznov", "two_field": "two_field", "multifield": "multifield"}


def _context(place: str):
    """A complete scenario that holds ``place``, and the path of that block in it."""
    case = ("cases", 0)
    fixed = {"scenario": ("implicit_fg", ()), "verify case": ("implicit_fg", case),
             "simulate case": ("two_field", case), "variational case": ("variational", case),
             "ad case": ("ad", case), "source": ("variational", case + ("source",)),
             "scalar config": ("implicit_fg", case + ("construct", "config")),
             "pair config": ("hodograph", case + ("construct", "config")),
             "leznov config": ("leznov", case + ("construct", "config")),
             "samples": ("implicit_fg", case + ("samples",))}
    family, _, name = place.partition(" ")
    if place in fixed:
        scenario, path = fixed[place]
        data = _COMPLETE[scenario]()
        if place == "leznov config":  # the Leznov case has none
            _at(data, path[:-1])["config"] = {}
        return data, path
    if family == "construct":
        return _COMPLETE[_OP_SCENARIOS[name]](), case + ("construct",)
    assert family == "check", f"no scenario holds {place!r}"
    data = _COMPLETE[_OP_SCENARIOS[next(iter(cli._CHECKS[name].runs))]]()
    simulate = data["kind"] == "simulate"
    data["cases"][0]["checks"] = [{"equation": name,
                                   **({} if simulate else {"tolerance": 1e-9})}]
    return data, case + ("checks", 0)


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _shaped(key: cli._Key, item):
    """``item`` as the one value, or the list of values, that ``key`` takes."""
    return [item] * (key.length or 1) if key.many in ("list", "or list") else \
        {"u": item, "v": item} if key.many == "object" else item


def _wrong_kinds(key: cli._Key) -> list:
    """A value of each JSON kind ``key`` does not take, at the top and inside a
    list or object of values."""
    wrong_items = [v for kind, v in _SAMPLES.items() if kind not in _TAKES[key.kind]]
    if not key.many:
        return wrong_items
    outer = "object" if key.many == "object" else "list"
    values = [v for kind, v in _SAMPLES.items() if kind != outer and (
        key.many != "or list" or kind not in _TAKES[key.kind])]
    return values + [[] if outer == "list" else {}] + [_shaped(key, v) for v in wrong_items]


def _bounds(key: cli._Key) -> tuple[list, list]:
    """(values on a bound of ``key``'s range, values just outside it)."""
    if key.kind == "choice":
        return [], ["?"]
    if key.kind == "file-name string":
        return ["x" * 100], ["x" * 101, "", "..", "a/b", "a\\b", "a\0b"]
    inside, outside = [], []
    for bound, step in ((key.low, -1), (key.high, 1)):
        if not math.isfinite(bound):
            continue
        if key.kind == "expression":  # a range of variable counts
            inside.append(bound)
            outside += [bound + step] if bound + step >= 0 else []
        elif key.kind == "integer":
            inside.append(bound)
            outside.append(bound + step)
        else:
            inside.append(bound)
            outside.append(math.nextafter(bound, step * math.inf))
    if key.kind == "expression":
        def expression(n):
            return "*".join("abcdefgh"[:n]) or "1"
        inside, outside = map(expression, inside), map(expression, outside)
    return [_shaped(key, v) for v in inside], [_shaped(key, v) for v in outside]


_ENTRIES = [(place, name) for place, keys in cli._FORMAT.items() for name in keys]


def _with_value(place, name, value):
    data, path = _context(place)
    _at(data, path)[name] = value
    return data


@pytest.mark.parametrize("place,name", _ENTRIES, ids=[f"{p}.{n}" for p, n in _ENTRIES])
def test_every_key_refuses_other_kinds_and_values_out_of_range(tmp_path, monkeypatch, capsys,
                                                              place, name):
    key = cli._FORMAT[place][name]
    _forbid_work(monkeypatch)
    inside, outside = _bounds(key)
    for value in _wrong_kinds(key) + outside:
        data = _with_value(place, name, value)
        assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION, value
        assert capsys.readouterr().err.startswith("error: "), value
    for value in inside:
        data = _with_value(place, name, value)
        try:
            code = _main_exit(tmp_path, data)
        except AssertionError as err:
            assert "before validation" in str(err)
        else:
            assert code == cli.EXIT_RUNTIME, value  # a count whose arrays no allocator grants
            assert capsys.readouterr().err.startswith("numerical failure: ")


@pytest.mark.parametrize("place", list(cli._FORMAT))
def test_every_place_refuses_an_unknown_key(tmp_path, monkeypatch, capsys, place):
    data, path = _context(place)
    _at(data, path)["unknown_key"] = 1
    _forbid_work(monkeypatch)
    assert _main_exit(tmp_path, data) == cli.EXIT_VALIDATION
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[2:])
    assert f"{where.lstrip('.') or place}: unknown key 'unknown_key'" in capsys.readouterr().err


def test_every_check_applies_to_ops_or_systems_that_each_own_one():
    owners = {owner for row in cli._CHECKS.values() for owner in row.runs}
    assert set(cli._OPS).isdisjoint(cli._SYSTEMS)
    assert owners == set(cli._OPS) | set(cli._SYSTEMS) == set(_OP_SCENARIOS)


def test_every_place_has_a_scenario():
    for place in cli._FORMAT:
        data, path = _context(place)
        assert isinstance(_at(data, path), dict), place


def test_every_choice_but_a_row_selector_offers_two_values():
    """A choice of one value is a constant, not a setting: only ``op`` and
    ``equation``, which pick a row of ``_OPS`` or ``_CHECKS``, have one."""
    for place, keys in cli._FORMAT.items():
        for name, key in keys.items():
            if key.kind == "choice" and name not in ("op", "equation"):
                assert len(key.choices) >= 2, f"{place}.{name}"


def test_step_bounds_are_the_floats_whose_squares_are_neither_0_nor_inf():
    low, high = cli._FORMAT["ad case"]["steps"].low, cli._FORMAT["ad case"]["steps"].high
    assert low * low > 0 and math.nextafter(low, 0) ** 2 == 0
    below_inf = math.nextafter(high, math.inf)
    assert high * high < math.inf and below_inf * below_inf == math.inf


def _row(place: str, name: str, key: cli._Key) -> list[str]:
    """The README's format-table row of a key."""
    count = f"{key.length} " if key.length else ""
    kind = {"": key.kind, "list": f"list of {count}{key.kind}s",
            "or list": f"{key.kind} or list of {key.kind}s",
            "object": f"JSON object of {key.kind}s"}[key.many]
    default = "required" if key.default is cli._REQUIRED else \
        "none" if key.default is None else f"`{json.dumps(key.default)}`"
    return [place, f"`{name}`", kind, default, cli._range(key) or "-"]


def test_readme_format_table_is_the_code_table():
    text = (ROOT / "README.md").read_text()
    table = text.split("| place | key | kind | default | range |\n", 1)[1].split("\n\n", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table.splitlines()[1:]]
    assert rows == [_row(place, name, key) for place, keys in cli._FORMAT.items()
                    for name, key in keys.items()]


@pytest.mark.parametrize("value,phrase", [
    (construct.NEWTON_TOL, "a residual of {} (`construct.NEWTON_TOL`"),
    (hydro.CHAR_CFL, "Courant number {} (`hydro.CHAR_CFL`)"),
    (hydro.MULTI_CFL, "four-field march at {} (`hydro.MULTI_CFL`)"),
    (cli._COVARIANCE_MAPS, "draws {} random linear maps"),
    (cli._SPEED_TOLERANCE, "entries have the bar {};"),
], ids=["newton_tol", "char_cfl", "multi_cfl", "covariance_maps", "speed_tolerance"])
def test_readme_fixed_settings_state_the_code_constants(value, phrase):
    """The README's list of fixed settings gives each constant's value."""
    text = (ROOT / "README.md").read_text()
    fixed = " ".join(text.split("\nFixed settings.", 1)[1].split("\n## ", 1)[0].split())
    assert phrase.format(repr(value).replace("e-0", "e-")) in fixed
