"""The package's surface is what its CLI, checks and benchmark call.

A module-level function or class, or a method other than a dunder, that
nothing in src/liesmash or perfbench refers to is used at most by tests; it
should be deleted, or the test should call what the program runs.  The
package root re-exports nothing: the API is imported from its submodules.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liesmash"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_read(node):
    """Whether a Name or Attribute node loads its value: a name that is only
    assigned, like a dataclass field, does not use a function or method of
    the same name."""
    return isinstance(node.ctx, ast.Load)


def _referenced(node):
    """Every identifier read by name or as an attribute inside node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _is_read(sub):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and _is_read(sub):
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


# Public names that only perfbench/spans.py's list of wrapped functions
# refers to: the program never calls them, and the benchmark's tracer wraps
# them.  A trace kept in the program itself (ROADMAP item 5) would free them
# for deletion.
TRACER_ONLY = {"trivial_action", "solve_in_basis"}


def test_names_only_the_tracer_keeps_are_listed():
    """TRACER_ONLY is exactly the set of package definitions that nothing
    in src/liesmash or perfbench reads but the tracer's wrapped list."""
    spans = _parse(ROOT / "perfbench" / "spans.py")
    wrapped_list = next(
        node.value for node in ast.walk(spans) if isinstance(node, ast.Assign)
        and [ast.unparse(t) for t in node.targets] == ["functions"])
    wrapped = _referenced(wrapped_list)
    wrapped_list.elts = []      # the references left are the other ones
    defined, read = set(), set()
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        for stmt in (spans if path.name == "spans.py" else _parse(path)).body:
            names = _referenced(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(stmt.name)    # recursion is no caller
                if path.parent == PACKAGE:
                    defined.add(stmt.name)
            read |= names
    assert (wrapped & defined) - read == TRACER_ONLY


def _handled(handler):
    """The exception names an except clause catches; a bare except is
    "BaseException"."""
    if handler.type is None:
        return ["BaseException"]
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return [ast.unparse(t) for t in types]


def test_main_maps_only_the_error_taxonomy():
    """cli.main turns the three error types into exit codes 1-3 and a
    closed stdout into exit 1; any other exception is a defect and shows
    as a traceback.  No handler in the package catches everything."""
    main = next(node for node in _parse(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    handled = sorted(name for node in ast.walk(main)
                     if isinstance(node, ast.ExceptHandler)
                     for name in _handled(node))
    assert handled == ["BrokenPipeError", "InputError", "PreconditionError",
                       "VerificationError"]
    broad = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.ExceptHandler)
             and {"Exception", "BaseException"} & set(_handled(node))]
    assert broad == []


def _attribute_reads(tree):
    """(name, enclosing functions) of every identifier read by name, as an
    attribute, or as the name string of getattr, hasattr or setattr."""
    reads = []

    def visit(node, inside):
        if isinstance(node, ast.Name) and _is_read(node):
            reads.append((node.id, inside))
        elif isinstance(node, ast.Attribute) and _is_read(node):
            reads.append((node.attr, inside))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("getattr", "hasattr", "setattr") \
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
            reads.append((node.args[1].value, inside))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node}
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return reads


def test_every_method_has_a_caller():
    methods = []            # (module, class name, method node)
    reads = []
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        tree = _parse(path)
        reads += _attribute_reads(tree)
        if path.parent != PACKAGE:
            continue
        module = path.relative_to(ROOT).as_posix()
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not (fn.name.startswith("__") and fn.name.endswith("__")):
                    methods.append((module, cls.name, fn))
    # a read inside the method itself (recursion) does not count
    unused = [f"{module}:{cls}.{fn.name}" for module, cls, fn in methods
              if not any(name == fn.name and fn not in inside
                         for name, inside in reads)]
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


def test_import_loads_no_code_generating_module():
    """Starting the CLI loads neither dataclasses nor inspect: together
    they pull in a dozen stdlib modules and exec generated methods."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys\n"
            "import liesmash.cli, liesmash.cayley, liesmash.hopf, liesmash.linalg\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_cayley_unloaded():
    """Only word-weight, weight-check on word() and selfcheck use the group
    models, so starting the CLI does not compile them."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    code = ("import sys\n"
            "import liesmash.cli\n"
            "print('liesmash.cayley' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
