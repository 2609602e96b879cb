"""Every function and class of the library is reached from the library.

A module-level function or class in ``src/batlab/``, public or private, must be
referenced, as a name or an attribute, by library code outside its own
definition.  The only other way in is from outside the package: a console-script
entry point named in ``pyproject.toml``, or a hook the benchmark patches by name
(``perfbench/tracing.py`` ``SPANS`` and ``COUNTED``, ``perfbench/workloads.py``
``segments``).  Anything else only tests can reach, and no verdict depends
on it.

Likewise every name a library module imports is read by that module, except
the bindings the benchmark's tracer patches by name and the names in
``__all__``.
"""

import ast
import re
from pathlib import Path

from test_bench_hooks import _load

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "batlab"


def _entry_points() -> set[tuple[str, str]]:
    """(module, function) of each ``[project.scripts]`` target."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'"batlab\.(\w+):(\w+)"', scripts))


def _benchmark_hooks() -> set[tuple[str, str]]:
    tracing, workloads = _load("tracing"), _load("workloads")
    hooks = [hook for bindings in tracing.SPANS.values() for hook in bindings]
    hooks += tracing.COUNTED.values()
    hooks += [tuple(segment.split(".", 1))
              for workload in workloads.WORKLOADS.values() for segment in workload.segments]
    return {(module, attr.split(".")[0]) for module, attr in hooks}


def _references(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(enclosing top-level definition or None, referenced name) pairs."""
    out = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.append((owner, node.id))
            elif isinstance(node, ast.Attribute):
                out.append((owner, node.attr))
    return out


def _unreached(private: bool) -> list[str]:
    """Module-level functions and classes, public or private, that no library
    code outside their own definition references and that are not exempt."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = {(module, owner, name) for module, tree in trees.items()
                  for owner, name in _references(tree)}
    exempt = _entry_points() | _benchmark_hooks()
    unreached = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") != private or (module, node.name) in exempt:
                continue
            if not any(name == node.name and (where, owner) != (module, node.name)
                       for where, owner, name in references):
                unreached.append(f"{module}.{node.name}")
    return unreached


def test_every_public_definition_is_reached_from_the_library():
    unreached = _unreached(private=False)
    assert not unreached, f"public definitions no library code reaches: {unreached}"


def test_every_private_helper_is_reached_from_the_library():
    """A private helper left behind by a refactor is dead code."""
    unreached = _unreached(private=True)
    assert not unreached, f"private definitions no library code reaches: {unreached}"


def _unused_imports() -> list[str]:
    """``module.name`` of each name a library module imports and never reads,
    except the bindings the benchmark's tracer patches by name
    (``perfbench/tracing.py`` ``SPANS``) and the names a module exports in
    ``__all__``."""
    patched = {hook for bindings in _load("tracing").SPANS.values() for hook in bindings}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read | exported and (path.stem, name) not in patched:
                        unused.append(f"{path.stem}.{name}")
    return unused


def test_every_import_is_used():
    """An import a refactor left behind is dead code too."""
    unused = _unused_imports()
    assert not unused, f"imported names the importing module never reads: {unused}"


# The modules ``cli`` binds through ``_on_first_use``, to run on first use.
_ON_FIRST_USE = {"construct", "hydro", "leznov", "varlag"}


def test_cli_imports_its_kind_modules_only_on_first_use():
    """An import statement for one of them would run it at ``import batlab.cli``,
    in every run, whether its scenario's kind needs it or not."""
    eager = []
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names = {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            names = {node.module.removeprefix("batlab.")}
        elif isinstance(node, ast.Import):
            names = {a.name.removeprefix("batlab.") for a in node.names}
        else:
            continue
        eager += [f"line {node.lineno}: {n}" for n in sorted(names & _ON_FIRST_USE)]
    assert not eager, f"cli imports these at its own import: {eager}"
