"""The package's surface is what its CLI, checks and benchmark call.

A module-level function or class that nothing in src/liesmash or
perfbench refers to is used at most by tests; it should be deleted, or
the test should call what the program runs.  The package root re-exports
nothing: the API is imported from its submodules.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liesmash"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced(node):
    """Every identifier read by name or as an attribute inside node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def test_every_definition_has_a_caller():
    definitions = []        # (module, name)
    uses = {}               # name -> {(module, enclosing top-level name)}
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        module = path.relative_to(ROOT).as_posix()
        for stmt in _parse(path).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = stmt.name
                if path.parent == PACKAGE:
                    definitions.append((module, owner))
            for name in _referenced(stmt):
                uses.setdefault(name, set()).add((module, owner))
    unused = [f"{module}:{name}" for module, name in definitions
              if not uses.get(name, set()) - {(module, name)}]
    assert unused == []


def test_package_root_binds_only_the_version():
    bound = set()
    for stmt in _parse(PACKAGE / "__init__.py").body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in stmt.names)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
    assert {name for name in bound if not name.startswith("_")} == set()
    assert "__version__" in bound
