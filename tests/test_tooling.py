"""The repository's scripts and benchmark against the package they use.

The benchmark's tracer names package functions by module and attribute;
a name that no longer resolves would only fail the benchmark run, so it is
checked here.  The scripts under ``scripts/`` are run once with small
arguments.  Every function and class of the package must have a caller in
the package or the scripts, or be public or traced: code only tests call
belongs in ``tests/util.py``.
"""

import ast
import importlib
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


def uncalled_definitions():
    """(file, name) of each def/class in src/g2torsion named nowhere in the
    package outside its own body nor in scripts/, and neither in
    g2torsion.__all__ nor in the tracer's attribute paths.  Dunders are
    exempt: the language calls them."""
    import g2torsion

    exempt = set(g2torsion.__all__)
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


@pytest.mark.parametrize("argv", [
    ["eigen_family_survey.py", "--count", "2"],
    ["reconstruction_demo.py"],
    ["bundle_sweep.py", "--values", "0.3", "--grid", "100", "--points", "2"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
    if "--points" in argv:          # the sweep checks as many points as asked
        count = argv[argv.index("--points") + 1]
        assert f"residuals are maxima over {count} sample points" in proc.stdout
