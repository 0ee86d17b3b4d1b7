"""The repository's scripts and benchmark against the package they use.

The benchmark's tracer names package functions by module and attribute;
a name that no longer resolves would only fail the benchmark run, so it is
checked here.  The scripts under ``scripts/`` are run once with small
arguments.  Every function and class of the package must have a caller in
the package or the scripts, or be public or traced: code only tests call
belongs in ``tests/util.py``, and the definitions only the tracer calls are
pinned.  Likewise every defaulted parameter and dataclass field must be
set by some code in the package or the scripts, and no module imports a
name it never uses.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def traced_names():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [(spans.PACKAGE, mod, path) for mod, path, _ in spans.TRACED]


@pytest.mark.parametrize("package, module, path", traced_names())
def test_traced_name_resolves_on_the_package(package, module, path):
    obj = importlib.import_module(f"{package}.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def _names(node):
    """Every identifier a subtree uses, as a name or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def uncalled_definitions(traced_exempt=True):
    """(file, name) of each def/class in src/g2torsion named nowhere in the
    package outside its own body nor in scripts/, and neither in
    g2torsion.__all__ nor (when traced_exempt) in the tracer's attribute
    paths.  Dunders are exempt: the language calls them."""
    import g2torsion

    exempt = set(g2torsion.__all__)
    if traced_exempt:
        exempt.update(part for _, _, path in traced_names() for part in path.split("."))
    used = Counter()
    for script in sorted((ROOT / "scripts").glob("*.py")):
        used.update(_names(ast.parse(script.read_text())))
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "g2torsion").glob("*.py"))}
    for tree in trees.values():
        used.update(_names(tree))
    out = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if used[name] - Counter(_names(node))[name] <= 0:
                out.append((path.name, name))
    return out


def test_every_definition_has_a_caller_outside_tests():
    assert uncalled_definitions() == []


#: Definitions that only the benchmark's tracer names outside tests, each kept
#: until the tracer stops naming it (ROADMAP item 1).  A traced function left
#: without its caller, or new code only the tracer reaches, fails the pin.
TRACER_ONLY = {
    ("coframe.py", "numeric_d"),
    ("coframe.py", "structure_functions"),
    ("linalg.py", "rank"),
}


def test_tracer_only_definitions_are_pinned():
    assert set(uncalled_definitions(traced_exempt=False)) == TRACER_ONLY


#: Defaulted parameters that no call in src/ or scripts/ passes, kept on purpose.
#: Traced names are listed one parameter at a time, so a new option on a
#: traced function such as solve_liouville is still caught.
UNPASSED_DEFAULTS = {
    ("LieAlgebraData", "check_jacobi"): "the test seam for the dense Jacobi reference",
    ("main", "argv"): "traced; the in-process entry point perfbench and tests call",
    ("riemann_ricci", "torsion"): "traced single-point wrapper, kept until the tracer moves",
    ("riemann_ricci", "h"): "traced single-point wrapper, kept until the tracer moves",
    ("numeric_d", "h"): "traced single-point wrapper, kept until the tracer moves",
}


def _defaulted_parameters(tree):
    """(callee name, parameter, positional index at the call or None) of each
    defaulted parameter of a def; __init__ is called by its class name, and
    a method's index skips self or cls."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if not isinstance(child, ast.FunctionDef):
                visit(child, cls)
                continue
            bound = cls is not None
            name = cls if child.name == "__init__" else child.name
            args = child.args
            pos = args.posonlyargs + args.args
            first = len(pos) - len(args.defaults)
            out.extend((name, arg.arg, first + i - bound)
                       for i, arg in enumerate(pos[first:]))
            out.extend((name, arg.arg, None)
                       for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return out


def _package_and_script_trees():
    return [ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "g2torsion").glob("*.py"))
            + sorted((ROOT / "scripts").glob("*.py"))]


def _passed(calls, callee, param, index):
    """Does some call of `callee` pass `param`, by keyword (or **mapping) or
    by position (or *args)?"""
    for call in calls.get(callee, ()):
        if any(k.arg in (param, None) for k in call.keywords):
            return True
        if index is not None and (len(call.args) > index or any(
                isinstance(a, ast.Starred) for a in call.args)):
            return True
    return False


def _calls():
    calls = {}
    for tree in _package_and_script_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def unpassed_defaults():
    """(file, callee, parameter) of each defaulted parameter of a def in
    src/g2torsion that no call in the package or scripts/ passes, except
    UNPASSED_DEFAULTS: a default nothing overrides is a constant."""
    calls = _calls()
    return [(path.name, callee, param)
            for path in sorted((ROOT / "src" / "g2torsion").glob("*.py"))
            for callee, param, index in _defaulted_parameters(ast.parse(path.read_text()))
            if (callee, param) not in UNPASSED_DEFAULTS
            and not _passed(calls, callee, param, index)]


def test_every_default_is_overridden_outside_tests():
    assert unpassed_defaults() == []


def _defaulted_fields(tree):
    """(class name, field, positional index) of each dataclass field with a
    default; a default_factory container starts empty and is exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or not any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            continue
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
        for index, stmt in enumerate(fields):
            value = stmt.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
                keys = {k.arg for k in value.keywords}
                if "default_factory" in keys or "default" not in keys:
                    continue
            elif value is None:
                continue
            out.append((node.name, stmt.target.id, index))
    return out


#: Defaulted dataclass fields that nothing in src/ or scripts/ sets, kept on purpose.
UNSET_FIELDS = {
    ("CoframeField", "h"): "the finite-difference step tests coarsen to measure "
                           "convergence order; only tests set it",
}


def _attribute_stores():
    """Attributes the package or scripts/ assign: (class, name) for
    self.name in a method of that class, (None, name) for obj.name."""
    out = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                out.add((cls if getattr(child.value, "id", None) == "self" else None,
                         child.attr))
            visit(child, cls)

    for tree in _package_and_script_trees():
        visit(tree, None)
    return out


def unset_fields():
    """(file, class, field) of each defaulted dataclass field in src/g2torsion
    that no call of its class in the package or scripts/ passes and no
    statement there assigns (as obj.field, or self.field in the class
    itself), except UNSET_FIELDS."""
    calls, stores = _calls(), _attribute_stores()
    return [(path.name, cls, name)
            for path in sorted((ROOT / "src" / "g2torsion").glob("*.py"))
            for cls, name, index in _defaulted_fields(ast.parse(path.read_text()))
            if (cls, name) not in UNSET_FIELDS
            and not stores & {(cls, name), (None, name)}
            and not _passed(calls, cls, name, index)]


def test_every_dataclass_default_is_set_outside_tests():
    assert unset_fields() == []


def unused_imports():
    """(file, name) of each name a module under src/, tests/ or scripts/
    imports and never loads; names listed in the module's __all__ count as
    used."""
    out = []
    for path in sorted(p for d in ("src", "tests", "scripts")
                       for p in (ROOT / d).rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
        out += [(str(path.relative_to(ROOT)), name)
                for name in imported if name not in used]
    return out


def test_no_module_imports_an_unused_name():
    assert unused_imports() == []


def _run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ["eigen_family_survey.py", "--count", "2"],
    ["reconstruction_demo.py"],
    ["bundle_sweep.py", "--values", "0.3", "--grid", "100", "--points", "2"],
])
def test_script_runs(argv):
    stdout = _run_script(argv)
    assert stdout
    if "--points" in argv:          # the sweep checks as many points as asked
        count = argv[argv.index("--points") + 1]
        assert f"residuals are maxima over {count} sample points" in stdout


def test_bundle_sweep_row_repeats_theorem1(capsys):
    """The sweep draws its points as theorem1 --seed does, so its row for a
    parameter prints theorem1's residuals and max |R| to the digits shown."""
    from g2torsion.cli import main

    lines = _run_script(["bundle_sweep.py", "--values", "0.3", "--grid", "100",
                         "--points", "2", "--seed", "5"]).splitlines()
    names = lines[0].split()[2:-1]
    row = lines[2].split()
    assert row[0] == "0.3" and len(row) == len(names) + 3
    assert main(["theorem1", "--a", "0.3", "--grid", "100", "--points", "2",
                 "--seed", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    want = [f"{float(payload['residuals'][k]):.3e}" for k in names]
    assert row[2:] == want + [f"{float(payload['max_r_nabla']):.3e}"]
